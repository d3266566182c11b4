"""Acceptance gate: one test per criterion, one printed verdict line each.

Verdict lines are written through pytest's terminal reporter so they stay
visible under output capture.  Every criterion states its own tolerance:
exact integer or rational equality everywhere, plus the stated wall-clock
bounds.
"""

import math
import time
from contextlib import contextmanager

import pytest

from neurec import (
    Member,
    build_w,
    build_y,
    build_z,
    chain_perturbation,
    check_basin,
    check_chain,
    check_composition,
    check_phases,
    compile_system,
    compute_B0,
    destabilized_system,
    perturbation_plan,
    predicted_cycle,
    run,
    run_claims,
    single_system,
    verify_predicted,
    window_params,
)
from conftest import dense_oracle_run
from test_construction import scanned_B0, simulated_B0


@pytest.fixture
def criterion(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num, name, verdict, dt):
        line = f"[criterion {num:02d}] {name}: {verdict} ({dt:.2f}s)"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    @contextmanager
    def scope(num, name):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            emit(num, name, "FAIL", time.perf_counter() - t0)
            raise
        emit(num, name, "PASS", time.perf_counter() - t0)

    return scope


def test_criterion_01_m6_cycle_table(criterion):
    with criterion(1, "m=6 cycle table, nine systems, exact, under 1s"):
        t0 = time.perf_counter()
        p = window_params(6)
        jobs = [
            (single_system(p, 0), ("x", 0), (0, 17)),
            (single_system(p, 1), ("x", 1), (0, 13)),
            (destabilized_system(p, 0), ("v", 0), (53, 1)),
            (destabilized_system(p, 1), ("v", 1), (57, 1)),
            (build_y(p), ("y", None), (0, 442)),
            (build_w(p, 0), ("w", 0), (105, 26)),
            (build_w(p, 1), ("w", 1), (114, 1)),
            (build_z(p, 0), ("z", 0), (139, 26)),
            (build_z(p, 1), ("z", 1), (556, 1)),
        ]
        assert len(jobs) == 9
        for system, (fam, idx), want in jobs:
            assert predicted_cycle(p, fam, idx) == want, system.label
            rep = Member(fam, idx, system, want, None).prove()
            got = (rep.measured_transient, rep.measured_period)
            assert got == want, (system.label, got, want)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_m11_cycle_table(criterion):
    with criterion(2, "m=11 lanes, interleave and full chain, exact, under 30s"):
        t0 = time.perf_counter()
        p = window_params(11)
        assert p.primes == (31, 29, 23)
        for i, prime in enumerate(p.primes):
            s = single_system(p, i)
            rep = Member("x", i, s, (0, prime), None).prove()
            assert (rep.measured_transient, rep.measured_period) == (0, prime)
        y = build_y(p)
        rep = Member("y", None, y, (0, 62031), None).prove()
        assert (rep.measured_transient, rep.measured_period) == (0, 62031)
        expected = {0: (583, 2001), 1: (3194, 69), 2: (62547, 1)}
        for d, want in expected.items():
            z = build_z(p, d)
            assert predicted_cycle(p, "z", d) == want
            rep = Member("z", d, z, want, None).prove()
            assert (rep.measured_transient, rep.measured_period) == want, d
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_period_chain_divides_to_one(criterion):
    with criterion(3, "period chain divides down to the all-zero fixed point"):
        for m in (6, 11):
            res = check_chain(m)
            assert res.passed, (m, res.detail)
            periods = res.detail["periods"]
            assert all(
                periods[i] % periods[i + 1] == 0 for i in range(len(periods) - 1)
            )
            assert periods[-1] == 1
            assert res.detail["final_attractor_all_zero"] is True


def test_criterion_04_phase_structure(criterion):
    with criterion(4, "five-phase overlay of z against y and w, bit for bit"):
        for m, ds in ((6, (0, 1)), (11, (0, 1, 2))):
            rho = window_params(m).rho
            for d in ds:
                res = check_phases(m, d)
                assert res.passed, (m, d, res.detail["violations"])
                assert res.detail["anomalies"] == d + 1
                assert res.detail["phase3_empty"] == (d == rho - 1)


def test_criterion_05_weight_combinatorics(criterion):
    with criterion(5, "sampling bound (exhaustive) and lane sums at m=6,11,16"):
        for m in (6, 11, 16):
            results = run_claims(ms=(m,), claims=["prop1", "prop2"])
            assert [r.claim for r in results] == ["prop1", "prop2"]
            for res in results:
                assert res.passed, (res.claim, m, res.detail)


def test_criterion_06_base_set_routes_agree(criterion):
    with criterion(6, "base index set: residue classes equal scan and dynamics; card 10 at m=6"):
        for m in (6, 11):
            p = window_params(m)
            for d in range(p.rho):
                assert compute_B0(p, d) == scanned_B0(p, d) == simulated_B0(p, d), (m, d)
        assert len(compute_B0(window_params(6), 0)) == 10


def test_criterion_07_chain_update_equals_direct_build(criterion):
    with criterion(7, "incremental perturbation equals direct build, exact rationals"):
        for m in (6, 11):
            p = window_params(m)
            plans = [perturbation_plan(p, d) for d in range(p.rho)]
            z = build_z(p, 0)
            for d in range(1, p.rho):
                z = chain_perturbation(z, plans[d - 1], plans[d])
                direct = build_z(p, d)
                assert z.taps == direct.taps, (m, d)
                assert z.threshold == direct.threshold, (m, d)


def test_criterion_08_dual_route_equivalence(criterion):
    with criterion(8, "compiled route equals rational oracle over 10^4 steps"):
        steps = 10_000
        for m in (6, 11):
            p = window_params(m)
            systems = [build_y(p)] + [build_z(p, d) for d in range(p.rho)]
            for s in systems:
                fast = run(compile_system(s), s.init, steps)
                slow = dense_oracle_run(s, s.init, steps)
                assert fast == slow, (m, s.label)


def test_criterion_09_basin_exhaustive_m6(criterion):
    with criterion(9, "every free-prefix variant shares the attractor at m=6"):
        for d in (0, 1):
            res = check_basin(6, d)
            assert res.passed, (d, res.detail)
            assert res.detail["variants_total"] == 2 ** (2 - d)
            assert res.detail["unforced_slide"] is None


def test_criterion_10_composition_divisor_rule(criterion):
    with criterion(10, "alternating shuffles hit 2 and 3; 100 seeds obey P | r"):
        res = check_composition("example1_period2")
        assert res.passed and res.detail["P"] == 2
        res = check_composition("example1_period3")
        assert res.passed and res.detail["P"] == 3
        for seed in range(100):
            res = check_composition("divisor_rule", seed=seed)
            assert res.passed, (seed, res.detail["violations"])


@pytest.mark.long
def test_criterion_11_m16_full_cycle_proof(criterion):
    with criterion(11, "m=16 interleave: period 12,263,428 proved under 5 minutes"):
        t0 = time.perf_counter()
        p = window_params(16)
        want_period = 4 * math.lcm(37, 41, 43, 47)
        assert want_period == 12_263_428
        assert predicted_cycle(p, "y") == (0, want_period)
        y = build_y(p)
        # the simulation oracle: one pass with divisor probes
        sim = verify_predicted(compile_system(y), y.init, 0, want_period)
        assert (sim.measured_transient, sim.measured_period) == (0, want_period)
        assert sim.steps_executed == want_period  # T + P slides exactly
        assert time.perf_counter() - t0 < 300.0
        # the claims' route proves y on its decimated lanes, to the same report
        rep = Member("y", None, y, (0, want_period), None).prove()
        assert rep.steps_executed < 10_000
        assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (
            sim.measured_transient,
            sim.measured_period,
            sim.entry_window,
        )
