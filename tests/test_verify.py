"""Claim registry behavior: inventory, dispatch, grids, failure capture."""

import dataclasses
import json
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurec.construction
import neurec.cycles
import neurec.verify
from neurec import (
    ALL_CLAIMS,
    BudgetExceeded,
    HypothesisUnmet,
    IndexOutOfRange,
    PredictionFailed,
    RecurrenceSystem,
    RhoTooSmall,
    advance_word,
    build_w,
    build_y,
    build_z,
    check_basin,
    check_chain,
    check_composition,
    check_phases,
    compile_system,
    cycle_lengths,
    dense_oracle_run,
    destabilized_system,
    detect_cycle,
    measure_cycle,
    member,
    predicted_cycle,
    run,
    run_claims,
    single_system,
    window_params,
    word_from_bits,
    x_closed_form,
    y_closed_form,
    z_handoff,
)
from neurec.cli import main
from neurec.cycles import certify_lanes, lane_count
from neurec.verify import MEASURE_CUTOFF, _certificate, _window_sums, claim_grid, proof_work
from test_cycles import search_bound
from test_engine import dense_system, weights_of


def runnable(claim, m):
    """The grid instances of claim at m that are not skipped."""
    return [kw for kw, skip in claim_grid(claim, m) if skip is None]


EXPECTED_CLAIMS = (
    "window_param_bounds",
    "prop1",
    "prop2",
    "pos_disjoint",
    "x_cycle",
    "v_fixed",
    "sum_bounds",
    "s1_range",
    "y_cycle",
    "y_deshuffle",
    "w_cycle",
    "b0_methods_agree",
    "chain_equals_direct",
    "phases",
    "z_summary",
    "chain",
    "basin",
    "example1_period2",
    "example1_period3",
    "divisor_rule",
)


def test_claim_inventory_is_complete_and_partitioned():
    assert ALL_CLAIMS == EXPECTED_CLAIMS
    assert len(set(ALL_CLAIMS)) == 20


# --- predictions ------------------------------------------------------------


def test_predicted_cycle_frozen_m6():
    p = window_params(6)
    assert predicted_cycle(p, "x", 0) == (0, 17)
    assert predicted_cycle(p, "x", 1) == (0, 13)
    assert predicted_cycle(p, "v", 0) == (53, 1)
    assert predicted_cycle(p, "v", 1) == (57, 1)
    assert predicted_cycle(p, "y") == (0, 442)
    assert predicted_cycle(p, "w", 0) == (105, 26)
    assert predicted_cycle(p, "w", 1) == (114, 1)
    assert predicted_cycle(p, "z", 0) == (139, 26)
    assert predicted_cycle(p, "z", 1) == (556, 1)


def test_predicted_cycle_frozen_m11():
    p = window_params(11)
    assert predicted_cycle(p, "y") == (0, 62031)
    assert predicted_cycle(p, "z", 0) == (583, 2001)
    assert predicted_cycle(p, "z", 1) == (3194, 69)
    assert predicted_cycle(p, "z", 2) == (62547, 1)


def test_predicted_cycle_guards():
    p = window_params(6)
    with pytest.raises(ValueError):
        predicted_cycle(p, "q", 0)
    with pytest.raises(IndexOutOfRange):
        predicted_cycle(p, "x", 2)
    with pytest.raises(IndexOutOfRange):
        predicted_cycle(p, "z", -1)


@pytest.mark.parametrize("m", [6, 11])
def test_member_proves_what_the_hand_wired_call_proves(m):
    # the same report, steps included, as measure_cycle on the member's
    # system and prediction, with z_handoff's handoff for every z(d)
    p = window_params(m)
    wired = [("x", i, single_system(p, i), None) for i in range(p.rho)]
    wired += [("v", i, destabilized_system(p, i), None) for i in range(p.rho)]
    wired += [("y", None, build_y(p), None)]
    wired += [("w", d, build_w(p, d), None) for d in range(p.rho)]
    wired += [("z", d, build_z(p, d), lambda d=d: z_handoff(p, d)) for d in range(p.rho)]
    for family, index, system, handoff in wired:
        pred = predicted_cycle(p, family, index)
        want = measure_cycle(compile_system(system), system.init, pred, handoff=handoff)
        assert member(p, family, index).prove() == want, (family, index)


def test_member_guards_and_hands_off_z(capped_simulation):
    p = window_params(6)
    with pytest.raises(ValueError, match="unknown family"):
        member(p, "q", 0)
    for family in "xvwz":
        with pytest.raises(IndexOutOfRange):
            member(p, family, p.rho)
    # z(4) at m = 21 has one lane: its member proves it on the handoff, and
    # without the handoff the proof, T + P = 1.9e9, passes the cap unrun
    p21 = window_params(21)
    rep = member(p21, "z", 4).prove(budget=10**5)
    assert (rep.measured_transient, rep.measured_period) == (1_927_501_345, 1)
    assert rep.steps_executed < 10**5
    with pytest.raises(BudgetExceeded) as exc:
        dataclasses.replace(member(p21, "z", 4), handoff=None).prove()
    assert (exc.value.steps, exc.value.budget) == (0, MEASURE_CUTOFF)


def test_a_raw_one_lane_proof_past_the_cap_raises_unrun(capped_simulation):
    # no budget: the cap is MEASURE_CUTOFF, and z(4)'s T + P passes it
    p = window_params(21)
    z = build_z(p, 4)
    with pytest.raises(BudgetExceeded) as exc:
        measure_cycle(compile_system(z), z.init, predicted_cycle(p, "z", 4))
    assert (exc.value.steps, exc.value.budget) == (0, MEASURE_CUTOFF)


def test_a_certificate_that_does_not_close_falls_back_within_the_cap(
    capped_simulation, misplaced_handoff
):
    # the handoff certificate is built and does not close; simulating 1.9e9
    # slides would pass the cap, so the proof raises with the certificate's steps
    z = member(window_params(21), "z", 4)
    cert, spent = _certificate(z.cs, z.system.init, z.handoff, MEASURE_CUTOFF)
    assert not cert.closes and spent > 0
    with pytest.raises(BudgetExceeded) as exc:
        z.prove()
    assert (exc.value.steps, exc.value.budget) == (spent, MEASURE_CUTOFF)


def test_measure_cycle_certifies_the_prediction(monkeypatch):
    p = window_params(6)
    s = single_system(p, 0)
    cs = compile_system(s)
    rep = measure_cycle(cs, s.init, predicted_cycle(p, "x", 0))
    assert (rep.measured_transient, rep.measured_period) == (0, 17)
    # a wrong pair raises from the probe it fails, whether the blind search
    # disagrees with it or runs out of budget on it
    for wrong, check in (((0, 34), "period_minimality"), ((1, 17), "transient_minimality")):
        with pytest.raises(PredictionFailed) as exc:
            measure_cycle(cs, s.init, wrong)
        assert exc.value.check == check
    y = neurec.build_y(p)
    with pytest.raises(PredictionFailed) as exc:
        measure_cycle(compile_system(y), y.init, (0, 10))  # true period 442
    assert exc.value.check == "period"
    # a budget caps the proof before it takes a step
    with pytest.raises(BudgetExceeded) as exc:
        measure_cycle(cs, s.init, (0, 17), budget=16)
    assert (exc.value.steps, exc.value.budget) == (0, 16)
    assert measure_cycle(cs, s.init, (0, 17), budget=17) == rep
    # past DETECT_CUTOFF the proof is one pass of exactly T + P slides
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)
    assert measure_cycle(cs, s.init, (0, 17)) == dataclasses.replace(rep, steps_executed=17)
    with pytest.raises(PredictionFailed):
        measure_cycle(cs, s.init, (1, 17))


def test_proving_route_reads_lanes_only_where_the_system_has_them(monkeypatch):
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)
    p = window_params(11)
    # y decimates into rho = 3 lanes: hundreds of lane slides, not T + P
    y_pred = predicted_cycle(p, "y")
    y = neurec.build_y(p)
    rep = measure_cycle(compile_system(y), y.init, y_pred)
    assert (rep.measured_transient, rep.measured_period) == y_pred
    assert rep.steps_executed < sum(y_pred) // 100
    # x_0 has one lane and is simulated
    x_pred = predicted_cycle(p, "x", 0)
    x = single_system(p, 0)
    assert measure_cycle(compile_system(x), x.init, x_pred).steps_executed == sum(x_pred)


def test_w_whose_lane_searches_outrun_its_orbit_is_proved_on_its_lanes(monkeypatch):
    # w(rho - 1)'s lane searches take more lane slides than its T + P; the
    # certificate is capped at MEASURE_CUTOFF, so they close and the full
    # window is never simulated
    def no_simulation(*args):
        raise AssertionError("the full window was simulated")

    monkeypatch.setattr("neurec.cycles._simulated", no_simulation)
    p = window_params(26)
    pred = predicted_cycle(p, "w", p.rho - 1)
    w = build_w(p, p.rho - 1)
    rep = measure_cycle(compile_system(w), w.init, pred)
    assert (rep.measured_transient, rep.measured_period) == pred
    assert neurec.verify.DETECT_CUTOFF < sum(pred) < rep.steps_executed


@pytest.mark.long
def test_long_tier_blind_search_agrees_with_the_certificates_past_the_cutoff():
    # the orbits past DETECT_CUTOFF that one search of 10^6 slides can still
    # reach: each is proved on a certificate, and simulated here to check it
    # (m = 16 z(d) are simulated in test_cycles against the handoff route)
    checked = []
    for m in (16, 21):
        p = window_params(m)
        members = [("y", None, build_y(p))] + [("w", d, build_w(p, d)) for d in range(p.rho)]
        if m == 21:
            members += [("z", d, build_z(p, d)) for d in range(p.rho)]
        for family, d, s in members:
            pred = predicted_cycle(p, family, d)
            if not neurec.verify.DETECT_CUTOFF < sum(pred) <= 10**6:
                continue
            handoff = (lambda d=d: z_handoff(p, d)) if family == "z" else None
            rep = measure_cycle(compile_system(s), s.init, pred, handoff=handoff)
            assert rep.steps_executed < sum(pred), (m, family, d)  # a search takes T + P
            sim = detect_cycle(compile_system(s), s.init, sum(pred))
            assert dataclasses.replace(rep, steps_executed=sim.steps_executed) == sim, (m, family, d)
            checked.append((m, family, d))
    assert checked == [
        (16, "w", 0), (16, "w", 1), (21, "w", 1), (21, "w", 2), (21, "z", 1), (21, "z", 2)
    ]


@pytest.mark.long
def test_long_tier_y_and_w_run_at_m21_and_m26():
    start = time.perf_counter()
    claims = ["y_cycle", "w_cycle", "sum_bounds", "y_deshuffle"]
    results = run_claims(ms=(21, 26), claims=claims)
    assert [(r.claim, r.passed) for r in results] == (
        [("y_cycle", True)] * 2
        + [("w_cycle", True)] * 11
        + [("sum_bounds", True)] * 2
        + [("y_deshuffle", True)] * 2
    )
    assert time.perf_counter() - start < 60.0  # simulating y alone takes hours


def test_z_chain_and_basin_run_at_m26():
    results = run_claims(ms=(26,), claims=["z_summary", "chain", "basin"])
    assert [(r.claim, r.passed) for r in results] == (
        [("z_summary", True)] * 6 + [("chain", True)] + [("basin", True)] * 6
    )
    z5 = results[5].detail
    assert (z5["T"], z5["P"]) == (397_433_969_064, 1)
    assert z5["steps"] < 100_000  # simulating it would take 4e11 slides
    for res in results[7:]:
        assert res.detail["unforced_slide"] is None
        assert res.detail["variants_total"] == 2 ** res.detail["free_bits"]


@pytest.mark.long
def test_long_tier_z_chain_and_basin_run_at_m21():
    results = run_claims(ms=(21,), claims=["z_summary", "chain", "basin"])
    assert [(r.claim, r.passed) for r in results] == (
        [("z_summary", True)] * 5 + [("chain", True)] + [("basin", True)] * 5
    )
    z4 = results[4].detail
    assert (z4["T"], z4["P"]) == (1_927_501_345, 1)
    chain = results[5].detail
    assert chain["systems"]["z4"]["T"] == 1_927_501_345
    assert chain["final_attractor_all_zero"] is True  # the last entry window is 0
    for res in results[6:]:
        # every one of up to 2^14 free prefixes merges, none sampled
        assert res.detail["unforced_slide"] is None
        assert res.detail["variants_total"] == 2 ** res.detail["free_bits"]


@pytest.fixture
def z_transient_one_too_large(monkeypatch):
    """Overstate every z(d) transient by one, for the claims and the CLI
    alike: both take their predictions from verify.member."""
    original = neurec.verify.predicted_cycle

    def overstated(params, family, index=None):
        t, p = original(params, family, index)
        return (t + 1, p) if family == "z" else (t, p)

    monkeypatch.setattr("neurec.verify.predicted_cycle", overstated)


def test_a_refuted_prediction_fails_in_one_place(z_transient_one_too_large, tmp_path):
    results = run_claims(ms=(6,), claims=["z_summary", "chain", "basin"])
    assert [r.claim for r in results] == ["z_summary"] * 2 + ["chain"] + ["basin"] * 2
    for res in results:
        assert res.passed is False
        assert res.detail["error"] == "PredictionFailed", (res.claim, res.detail)
        assert res.detail["check"] == "transient_minimality"
    out = tmp_path / "cycle"
    assert main(["--mode", "cycle", "--m", "6", "--system", "z", "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["cycle_reports"]
    assert [(row["match"], row["check"]) for row in rows] == [(False, "transient_minimality")] * 2


# --- individual checks ------------------------------------------------------


COMBINATORIAL_CLAIMS = (
    "window_param_bounds",
    "prop1",
    "prop2",
    "pos_disjoint",
    "b0_methods_agree",
    "chain_equals_direct",
)


def test_static_checks_pass_m6_m11():
    for m in (6, 11):
        results = run_claims(ms=(m,), claims=COMBINATORIAL_CLAIMS)
        assert [r.claim for r in results] == list(COMBINATORIAL_CLAIMS)
        for res in results:
            assert res.passed, (res.claim, m, res.detail)


def test_pos_disjoint_fails_when_two_lanes_share_a_position(monkeypatch):
    pos_set = neurec.construction.pos_set

    def shared(params, i):
        return pos_set(params, i) | ({params.primes[0]} if i == 1 else set())

    monkeypatch.setattr("neurec.construction.pos_set", shared)
    (res,) = run_claims(ms=(6,), claims=["pos_disjoint"])
    assert res.passed is False
    assert "Pos(0) and Pos(1) share [17]" in res.detail["violations"]


def test_prop1_fails_when_the_support_is_the_whole_window(monkeypatch):
    index_sets = neurec.construction.index_sets

    def whole(params):
        return dataclasses.replace(index_sets(params), F=frozenset(range(1, params.k + 1)))

    monkeypatch.setattr("neurec.construction.index_sets", whole)
    (res,) = run_claims(ms=(6,), claims=["prop1"])
    assert res.passed is False
    assert (res.detail["worst_observed"], res.detail["bound"]) == (6, 1)


def test_window_param_bounds_fail_on_ascending_primes(monkeypatch):
    original = neurec.verify.window_params

    def ascending(m):
        params = original(m)
        return dataclasses.replace(params, primes=tuple(sorted(params.primes)))

    monkeypatch.setattr("neurec.verify.window_params", ascending)
    (res,) = run_claims(ms=(6,), claims=["window_param_bounds"])
    assert res.passed is False
    assert "primes not descending" in res.detail["violations"]


def test_divisor_rule_fails_on_lanes_of_period_two(monkeypatch):
    # x(n) = x(n-2) from (b, 1 - b) alternates, so r lanes compose to period 2r
    def flip(bit):
        return RecurrenceSystem(memory=2, taps=((2, 2),), threshold=1, init=bytes([bit, 1 - bit]))

    monkeypatch.setattr("neurec.verify._constant_lane", flip)
    (res,) = run_claims(ms=(6,), claims=["divisor_rule"])
    assert res.passed is False and res.detail["violations"]
    assert all(len(v["bits"]) % v["P"] for v in res.detail["violations"])


def test_dynamic_checks_pass_m6():
    claims = ["x_cycle", "v_fixed", "sum_bounds", "s1_range", "y_cycle", "y_deshuffle"]
    results = run_claims(ms=(6,), claims=claims)
    assert [r.claim for r in results] == claims
    for res in results:
        assert res.passed, (res.claim, res.detail)
    results = run_claims(ms=(6,), claims=["w_cycle", "z_summary"])
    assert [(r.claim, r.params) for r in results] == [
        (claim, {"m": 6, "d": d}) for claim in ("w_cycle", "z_summary") for d in (0, 1)
    ]
    for res in results:
        assert res.passed, (res.claim, res.params, res.detail)
        assert (res.detail["T"], res.detail["P"]) == (res.detail["T_pred"], res.detail["P_pred"])
        assert "route" not in res.detail


# --- popcount envelopes and the de-shuffle, read off the lanes ------------------


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def scatter_systems(draw):
    """Dense systems with negative weights, zero or fractional thresholds,
    and inits that are often all ones."""
    memory = draw(st.integers(1, 8))
    weights = [draw(small_fractions) for _ in range(memory)]
    theta = draw(st.one_of(st.just(0), small_fractions))
    bits = st.lists(st.integers(0, 1), min_size=memory, max_size=memory)
    init = draw(st.one_of(st.just([1] * memory), bits))
    return dense_system(weights, theta, init)


@settings(max_examples=300, deadline=None)
@given(scatter_systems(), st.integers(0, 40))
def test_window_sums_are_the_oracles_fraction_sums_scaled(s, steps):
    cs = compile_system(s)
    trace = run(cs, s.init, steps)
    assert trace == dense_oracle_run(s, s.init, steps)
    sums = _window_sums(cs, trace, steps + 1)
    weights = weights_of(s)
    for n, total in enumerate(sums):
        window = trace[n : n + s.memory]  # dense_oracle_run's sum: newest bit first
        want = sum((a for a, bit in zip(weights, reversed(window)) if bit), Fraction(0))
        assert total == cs.denominator * want, n
    assert [total >= cs.scaled_threshold for total in sums[:steps]] == [bool(b) for b in trace[s.memory :]]


def window_popcounts(system, horizon):
    """(min, max) of the window popcount over S_0 .. S_horizon, slid over run's trace."""
    trace, memory = run(compile_system(system), system.init, horizon), system.memory
    count = sum(trace[:memory])
    counts = {count}
    for n in range(horizon):
        count += trace[n + memory] - trace[n]
        counts.add(count)
    return min(counts), max(counts)


def envelope_orbits(m):
    """(detail key, system, (T, P), walk horizon) of every orbit sum_bounds
    reads, the horizon at most 300,000 windows."""
    p = window_params(m)
    out = []
    for i in range(p.rho):
        pred = predicted_cycle(p, "x", i)
        out.append((f"x{i}", single_system(p, i), pred, 2 * pred[1]))
    pred = predicted_cycle(p, "y")
    out.append(("y", build_y(p), pred, min(pred[1] + 1, 300_000)))
    for d in range(p.rho):
        t, l0 = pred = predicted_cycle(p, "w", d)
        out.append((f"w{d}", build_w(p, d), pred, min(t + 2 * l0 + 1, 300_000)))
    return out


def popcount_range(system):
    lanes, _ = certify_lanes(compile_system(system), system.init, MEASURE_CUTOFF)
    return lanes.popcount_range()


@pytest.mark.parametrize("m", [6, 11])
def test_sum_bounds_equal_the_walk_over_the_whole_orbit(m):
    (res,) = run_claims(ms=(m,), claims=["sum_bounds"])
    assert res.passed, res.detail
    for key, system, (t, period), horizon in envelope_orbits(m):
        assert horizon >= t + period, key  # the walk sees every window of the orbit
        want = window_popcounts(system, horizon)
        assert popcount_range(system) == want, key
        assert (res.detail[key]["min"], res.detail[key]["max"]) == want, key
        assert "horizon" not in res.detail[key]


@pytest.mark.long
def test_long_tier_sum_bounds_equal_the_truncated_walk_at_m16():
    (res,) = run_claims(ms=(16,), claims=["sum_bounds"])
    assert res.passed, res.detail
    for key, system, _, horizon in envelope_orbits(16):
        assert (res.detail[key]["min"], res.detail[key]["max"]) == window_popcounts(system, horizon)


@pytest.mark.parametrize("m", [6, 11])
def test_sum_bounds_see_a_flipped_lane_of_w(m, monkeypatch):
    # negative control: flip the newest init bit of lane d of w(d); the
    # prefix walk and the lanes must both see a different orbit
    p = window_params(m)
    (clean,) = run_claims(ms=(m,), claims=["sum_bounds"])

    def flipped(params, d):
        w = build_w(params, d)
        init = bytearray(w.init)
        init[params.h - params.rho + d] ^= 1
        return dataclasses.replace(w, init=bytes(init))

    monkeypatch.setattr("neurec.construction.build_w", flipped)
    (res,) = run_claims(ms=(m,), claims=["sum_bounds"])
    for key, system, _, horizon in envelope_orbits(m):
        if key.startswith("w"):
            after = window_popcounts(flipped(p, int(key[1:])), horizon)
            assert after != window_popcounts(system, horizon), key
            assert res.detail[key] != clean.detail[key], key
        else:
            assert res.detail[key] == clean.detail[key], key


def test_sum_bounds_fail_lanes_whose_periods_share_a_factor(monkeypatch):
    # every lane of this y runs x_0's orbit, so all lane periods are p_0
    def one_orbit(params):
        init = [x_closed_form(params, 0, 1 + t // params.rho) for t in range(params.h)]
        return dataclasses.replace(build_y(params), init=bytes(init))

    monkeypatch.setattr("neurec.construction.build_y", one_orbit)
    (res,) = run_claims(ms=(6,), claims=["sum_bounds"])
    assert res.passed is False
    assert (res.detail["y"]["min"], res.detail["y"]["max"]) == (None, None)


def test_sum_bounds_and_y_deshuffle_fail_lanes_past_the_cutoff(monkeypatch):
    # priced within the cutoff, so attempted: lanes that cannot be certified
    # within it fail the instance rather than truncate
    monkeypatch.setattr("neurec.verify.MEASURE_CUTOFF", 10)
    monkeypatch.setattr("neurec.verify.proof_work", lambda *args: 0)
    for res in run_claims(ms=(6,), claims=["sum_bounds", "y_deshuffle"]):
        assert res.passed is False and res.detail["error"] == "BudgetExceeded", res.claim
        assert res.detail["budget"] == 10


def y_by_trace(m, y):
    """Whether y's trace equals y_closed_form over h + min(L2, 100,000) bits."""
    p = window_params(m)
    trace = run(compile_system(y), y.init, min(cycle_lengths(p, 0)[2], 100_000))
    return all(bit == y_closed_form(p, t) for t, bit in enumerate(trace))


def lane_zero_two_slides_in(params):
    y = build_y(params)
    init = bytearray(y.init)
    init[:: params.rho] = bytes(x_closed_form(params, 0, 2 + j) for j in range(params.k))
    return dataclasses.replace(y, init=bytes(init))


def raised_threshold(params):
    y = build_y(params)
    return dataclasses.replace(y, threshold=y.threshold + 1)


@pytest.mark.parametrize("m", [6, 11])
def test_y_deshuffle_equals_the_trace_comparison(m):
    (res,) = run_claims(ms=(m,), claims=["y_deshuffle"])
    assert res.detail == {"lanes": window_params(m).rho, "violations": []}
    assert res.passed and y_by_trace(m, build_y(window_params(m)))


@pytest.mark.parametrize("m", [6, 11])
@pytest.mark.parametrize(
    "mutant, violation",
    [
        (lane_zero_two_slides_in, "lane 0 does not start at x_0's window after one slide"),
        (raised_threshold, "lane 0 does not obey x_0's recurrence"),
    ],
)
def test_y_deshuffle_refuses_a_y_off_its_lanes(m, mutant, violation, monkeypatch):
    # negative controls: lane 0 two slides in, or one whole unit more threshold
    monkeypatch.setattr("neurec.construction.build_y", mutant)
    (res,) = run_claims(ms=(m,), claims=["y_deshuffle"])
    assert res.passed is False and violation in res.detail["violations"]
    assert not y_by_trace(m, mutant(window_params(m)))


def test_z_summary_detail_shape():
    res = run_claims(ms=(6,), claims=["z_summary"])[0]
    assert res.params == {"m": 6, "d": 0}
    assert res.detail["T"] == res.detail["T_pred"] == 139
    assert res.detail["P"] == res.detail["P_pred"] == 26
    assert res.detail["steps"] > 0


def test_phases_m6_d0_boundaries():
    res = check_phases(6, 0)
    assert res.passed, res.detail["violations"]
    d = res.detail
    assert d["phase1"] == [0, 171]
    assert d["phase2"] == [172, 172]
    assert d["phase3"] == [173, 173]
    assert d["phase3_empty"] is False
    assert d["phase4_z"] == [174, 278]
    assert d["phase5_start"] == 139
    assert d["anomalies"] == 1
    assert d["violations"] == []


def test_phases_m6_d1_final_step_shape():
    res = check_phases(6, 1)
    assert res.passed, res.detail["violations"]
    d = res.detail
    assert d["phase2"] == [580, 581]
    assert d["anomalies"] == 2
    assert d["phase3"] is None and d["phase3_empty"] is True


def phases_by_traces(m, d):
    """check_phases' verdict and detail from a bit-for-bit comparison of
    simulated z, y and w traces across the five phases, phase 5 over
    min(L0, 10,000) + h bits."""
    params = window_params(m)
    rho, h, k = params.rho, params.h, params.k
    p_d = params.primes[d]
    l0, l1, _ = cycle_lengths(params, d)
    l3 = l1 + 2 * h + d - rho * (1 + p_d)
    l4 = l3 - h + 1
    phase5_span = min(l0, 10_000) + h
    w_shift = h + d + 1 - rho * (1 + p_d)
    tops = {
        "z": max(l3, l4 + phase5_span),
        "y": l1 + h - 1,
        "w": max(h + rho * (k - 1 - p_d) + d, phase5_span + w_shift),
    }
    # z is looked up on the module, so a test that patches build_z patches both
    z_sys = neurec.construction.build_z(params, d)
    systems = {"z": z_sys, "y": build_y(params), "w": build_w(params, d)}
    z, y, w = (
        run(compile_system(s), s.init, tops[name] + 1 - h) for name, s in systems.items()
    )
    bad = []
    p1_end = l1 + h - 1 - rho
    t = next((t for t in range(p1_end + 1) if z[t] != y[t]), None)
    if t is not None:
        bad.append(f"phase1 mismatch at t={t}")
    p2_lo, p2_hi = l1 + h - rho, l1 + h - rho + d
    anomalies = 0
    for t in range(p2_lo, p2_hi + 1):
        if z[t] == 0 and y[t] == 1:
            anomalies += 1
        else:
            bad.append(f"phase2 expected z=0,y=1 at t={t}, got z={z[t]},y={y[t]}")
    if anomalies != d + 1:
        bad.append(f"phase2 anomaly count {anomalies} != {d + 1}")
    p3_lo, p3_hi = p2_hi + 1, l1 + h - 1
    t = next((t for t in range(p3_lo, p3_hi + 1) if z[t] != y[t]), None)
    if t is not None:
        bad.append(f"phase3 mismatch at t={t}")
    t = next((t for t in range(rho * (k - 1 - p_d) + d + 1) if z[l1 + h + t] != w[h + t]), None)
    if t is not None:
        bad.append(f"phase4 mismatch at offset t={t}")
    t = next((t for t in range(phase5_span + 1) if z[t + l4] != w[t + w_shift]), None)
    if t is not None:
        bad.append(f"phase5 mismatch at offset t={t}")
    detail = {
        "phase1": [0, p1_end],
        "phase2": [p2_lo, p2_hi],
        "phase3": None if p3_lo > p3_hi else [p3_lo, p3_hi],
        "phase3_empty": p3_lo > p3_hi,
        "phase4_z": [l1 + h, l3],
        "phase5_start": l4,
        "anomalies": anomalies,
        "violations": bad,
    }
    return not bad, detail


@pytest.mark.parametrize("m", [6, 11])
def test_phases_equal_the_trace_comparison(m):
    for d in range(window_params(m).rho):
        res = check_phases(m, d)
        assert (res.passed, res.detail) == phases_by_traces(m, d), d
        assert res.passed and res.detail["anomalies"] == d + 1


@pytest.mark.parametrize("m", [6, 11])
def test_phases_refuse_z_with_a_lowered_threshold(m, monkeypatch):
    # negative control: 1/16 less threshold, and z no longer runs y, the
    # anomalies, then w
    def lowered(params, d, y=None):
        z = build_z(params, d, y)
        return dataclasses.replace(z, threshold=z.threshold - Fraction(1, 16))

    monkeypatch.setattr("neurec.construction.build_z", lowered)
    for d in range(window_params(m).rho):
        passed, _ = phases_by_traces(m, d)
        res = check_phases(m, d)
        assert passed is False and res.passed is False, d
        assert res.detail["violations"], d


def test_phases_fail_without_a_handoff_certificate(monkeypatch):
    # negative control: a handoff whose head does not start at z's init is
    # refused unbuilt, and phases names the missing certificate
    def misstarted(params, d):
        handoff = z_handoff(params, d)
        y = handoff.head.system
        flipped = dataclasses.replace(y, init=bytes([1 - y.init[0]]) + y.init[1:])
        return handoff._replace(head=member(params, "y", system=flipped))

    monkeypatch.setattr("neurec.verify.z_handoff", misstarted)
    res = check_phases(6, 0)
    assert res.passed is False
    assert res.detail["violations"] == ["no handoff certificate of z from y into w"]


@pytest.mark.long
def test_long_tier_phases_equal_the_trace_comparison_at_m16():
    for d in range(3):
        res = check_phases(16, d)
        assert (res.passed, res.detail) == phases_by_traces(16, d), d
        assert res.passed


def test_chain_m6():
    res = check_chain(6)
    assert res.passed, res.detail
    assert res.detail["periods"] == [442, 26, 1]
    assert res.detail["divisor_chain"] is True
    assert res.detail["final_period_one"] is True
    assert res.detail["final_attractor_all_zero"] is True


def test_basin_m6_exhaustive():
    res = check_basin(6, 0)
    assert res.passed
    assert res.detail["free_bits"] == 2
    assert res.detail["variants_total"] == 4
    assert res.detail["unforced_slide"] is None

    res = check_basin(6, 1)
    assert res.passed
    assert res.detail["free_bits"] == 1
    assert res.detail["variants_total"] == 2


def _first_unforced_slide(system, n_free):
    """verify's interval pass on system, wired as z(0) at m = 6."""
    return neurec.verify._first_unforced_slide(member(window_params(6), "z", 0, system), n_free)


def _windows_after_free_slides(system, n_free):
    """Every free prefix's window after n_free slides, by brute force."""
    cs = compile_system(system)
    tail = system.init[n_free:]
    return {
        advance_word(cs, word_from_bits(bytes(prefix) + tail), n_free)
        for prefix in product((0, 1), repeat=n_free)
    }


def test_basin_fails_at_the_slide_a_raised_free_tap_leaves_unforced(monkeypatch):
    # negative control: z(0) at m = 6 has two free bits and zero weight on
    # both free taps; raise the oldest tap's weight until the interval pass
    # finds a slide it does not force
    z = build_z(window_params(6), 0)
    n_free = 2
    assert _first_unforced_slide(z, n_free) is None
    assert len(_windows_after_free_slides(z, n_free)) == 1
    for raised in range(1, 20):
        taps = z.taps + ((z.memory, Fraction(raised)),)
        bumped = RecurrenceSystem(z.memory, taps, z.threshold, z.init, z.label)
        slide = _first_unforced_slide(bumped, n_free)
        if slide is not None:
            break
    assert (raised, slide) == (4, 1)
    # the failure is real: two prefixes end on different windows
    assert len(_windows_after_free_slides(bumped, n_free)) == 2

    # the reference is proved: predict the bumped system's true (T, P)
    rep = detect_cycle(compile_system(bumped), bumped.init, 10_000)
    true = (rep.measured_transient, rep.measured_period)

    def bumped_cycle(params, family, index=None):
        return true if family == "z" else predicted_cycle(params, family, index)

    monkeypatch.setattr("neurec.verify.cons.build_z", lambda params, d, y=None: bumped)
    monkeypatch.setattr("neurec.verify.predicted_cycle", bumped_cycle)
    res = check_basin(6, 0)
    assert res.passed is False
    assert res.detail["unforced_slide"] == 1
    assert res.detail["variants_total"] == 4


def test_basin_rotation_reaches_other_attractors(monkeypatch):
    # negative control: x(n) = x(n - h) rotates every window, so no variant
    # merges and each free prefix lands on a cycle of its own; the oldest
    # free bit decides the very first output
    original = neurec.verify.cons.build_z

    def rotation(params, d, y=None):
        z = original(params, d, y)
        return RecurrenceSystem(z.memory, ((z.memory, 1),), 1, z.init)

    def rotation_cycle(params, family, index=None):
        # the reference is proved: its true (T, P) is the rotation's, (0, h)
        return (0, params.h) if family == "z" else predicted_cycle(params, family, index)

    monkeypatch.setattr("neurec.verify.cons.build_z", rotation)
    monkeypatch.setattr("neurec.verify.predicted_cycle", rotation_cycle)
    res = check_basin(6, 0)
    assert res.passed is False
    assert res.detail["unforced_slide"] == 0
    assert len(_windows_after_free_slides(rotation(window_params(6), 0), 2)) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda memory: st.tuples(
            st.lists(st.integers(-3, 3), min_size=memory, max_size=memory),
            st.integers(-4, 4),
            st.lists(st.integers(0, 1), min_size=memory, max_size=memory),
            st.integers(1, min(4, memory)),
        )
    )
)
def test_basin_interval_pass_agrees_with_brute_force(case):
    weights, threshold, init, n_free = case
    system = dense_system(weights, threshold, init)
    slide = _first_unforced_slide(system, n_free)
    # forced everywhere iff every prefix reaches one window: at the first
    # unforced slide the free bits reach both bounds, so two outputs differ
    assert (slide is None) == (len(_windows_after_free_slides(system, n_free)) == 1)


def test_basin_hypothesis_unmet():
    # m=18 has min beta = 2 with rho = 5, so d = 2 breaks the hypothesis
    p = window_params(18)
    assert min(p.beta_m) == 2
    with pytest.raises(HypothesisUnmet):
        check_basin(18, 2)
    # and the instance grid respects the same boundary
    assert all(kw["d"] < 2 for kw in runnable("basin", 18))


def test_composition_checks():
    res = check_composition("example1_period2")
    assert res.passed and res.detail == {"T": 0, "P": 2}
    res = check_composition("example1_period3")
    assert res.passed and res.detail == {"T": 0, "P": 3}
    res = check_composition("divisor_rule", seed=1)
    assert res.passed
    assert res.detail["violations"] == []
    assert set(res.detail["periods_seen"]) <= set(range(1, 9))
    with pytest.raises(ValueError):
        check_composition("nope")


# --- instance grids ---------------------------------------------------------


def test_grid_skips_infeasible_scales():
    # y, w(d) and z(d) are priced at their lanes, so they run at m = 21 and 26
    for m in (21, 26):
        assert runnable("y_cycle", m) == [{}]
        for claim in ("w_cycle", "z_summary", "chain", "basin"):
            assert runnable(claim, m) == [kw for kw, _ in claim_grid(claim, m)], (claim, m)
    # z(4) at m = 21 has T + P = 1.9e9, and its proof is priced at y's and
    # w(4)'s lanes, each at the bound of its search, plus each part's
    # tabulation, rho times its longest lane transient and its lane periods,
    # plus h explicit steps and h search nodes
    p21 = window_params(21)
    assert p21.rho == 5  # w(4) has every lane collapsed
    parts = ([(0, p) for p in p21.primes], [(p21.k - p, 1) for p in p21.primes])
    lanes = sum(search_bound(t + p) for part in parts for t, p in part)
    tables = sum(p21.rho * max(t for t, _ in part) + sum(p for _, p in part) for part in parts)
    assert neurec.verify.proof_work(p21, "z", 4) == lanes + tables + 2 * p21.h == 13_378
    # phases reads z(d)'s handoff certificate, priced as z_summary's proof,
    # and basin runs exactly the z(d) proofs of z_summary that lie on its grid
    for m in (16, 21, 26):
        assert runnable("phases", m) == runnable("z_summary", m)
        grid = [kw for kw, _ in claim_grid("basin", m)]
        assert runnable("basin", m) == [kw for kw in runnable("z_summary", m) if kw in grid]
    # desk scales keep everything
    assert runnable("y_cycle", 6) == [{}]
    assert [kw["d"] for kw in runnable("phases", 6)] == [0, 1]
    with pytest.raises(ValueError):
        claim_grid("nope", 6)
    with pytest.raises(ValueError):
        claim_grid("divisor_rule", 6)  # scale-free: no grid


def priced_past_the_cutoff(monkeypatch):
    """Price every proof past MEASURE_CUTOFF: no instance at any m <= 200
    passes it at its true price."""
    monkeypatch.setattr("neurec.verify.proof_work", lambda *args: MEASURE_CUTOFF + 1)


def test_grid_reports_skipped_instances_without_running_them(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a skipped instance was simulated")

    priced_past_the_cutoff(monkeypatch)
    provers = (
        "measure_cycle", "detect_cycle", "verify_predicted", "certify_lanes", "handoff_certificate",
    )
    for name in ("compile_system", "run", *provers):
        monkeypatch.setattr(f"neurec.verify.{name}", no_simulation)
    results = run_claims(ms=(21,), claims=["phases"], ds=[3])
    results += run_claims(ms=(21,), claims=["phases"], ds=[4])
    assert [(r.claim, r.params, r.passed) for r in results] == [
        ("phases", {"m": 21, "d": 3}, None),
        ("phases", {"m": 21, "d": 4}, None),
    ]
    for res in results:
        assert res.detail["skipped"] == "predicted work exceeds cutoff"
        assert res.detail["work"] > res.detail["cutoff"] == MEASURE_CUTOFF
    # work at the cutoff runs; one slide more is skipped
    assert neurec.verify.skip_detail(MEASURE_CUTOFF) is None
    assert neurec.verify.skip_detail(MEASURE_CUTOFF + 1) == {
        "skipped": "predicted work exceeds cutoff", "work": MEASURE_CUTOFF + 1, "cutoff": MEASURE_CUTOFF,
    }


def test_run_claims_on_requested_steps(monkeypatch):
    # requested steps run in the order given, each keeping its grid skip detail
    results = run_claims(ms=(6,), claims=["w_cycle"], ds=[1, 0])
    assert [(r.params, r.passed) for r in results] == [
        ({"m": 6, "d": 1}, True),
        ({"m": 6, "d": 0}, True),
    ]
    priced_past_the_cutoff(monkeypatch)
    skipped = run_claims(ms=(21,), claims=["phases"], ds=[4, 3])
    assert [r.params for r in skipped] == [{"m": 21, "d": 4}, {"m": 21, "d": 3}]
    for res in skipped:
        assert res.passed is None and res.detail["work"] > res.detail["cutoff"]
    # a step off the grid, or a claim without steps, is a configuration error
    for m, claim, d in ((6, "w_cycle", 2), (18, "basin", 2), (6, "prop1", 0), (6, "divisor_rule", 0)):
        with pytest.raises(ValueError):
            run_claims(ms=(m,), claims=[claim], ds=[d])


def test_off_grid_step_at_a_later_scale_runs_nothing(monkeypatch):
    # d = 2 is on the basin grid at m = 11 but not at m = 18 (min beta = 2)
    def no_basin(*args, **kwargs):
        raise AssertionError("an instance ran before the grids were checked")

    monkeypatch.setattr("neurec.verify.check_basin", no_basin)
    with pytest.raises(ValueError, match="m=18"):
        run_claims(ms=(11, 18), claims=["basin"], ds=[2])


# --- the run-scoped proof memo ----------------------------------------------


@pytest.fixture
def proof_calls(monkeypatch):
    """Every (route, system, init) detect_cycle or verify_predicted is asked to prove."""
    calls = []
    for name in ("detect_cycle", "verify_predicted"):
        original = getattr(neurec.verify, name)

        def counted(cs, init, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, cs, bytes(init)))
            return _original(cs, init, *args, **kwargs)

        monkeypatch.setattr(f"neurec.verify.{name}", counted)
    return calls


CHAIN_CLAIMS = ["y_cycle", "z_summary", "chain"]


def test_only_orbits_of_a_few_thousand_slides_are_searched_blind(proof_calls):
    # chain at m = 6 proves y, z(0) and z(1), all under DETECT_CUTOFF
    assert all(r.passed for r in run_claims(ms=(6,), claims=["chain"]))
    assert [route for route, _, _ in proof_calls] == ["detect_cycle"] * 3
    proof_calls.clear()
    # y and z(2) at m = 11, T + P = 62,031 and 62,548, are past it: each is
    # proved on its certificate in a fraction of the slides a search takes
    results = run_claims(ms=(11,), claims=["y_cycle"]) + run_claims(
        ms=(11,), claims=["z_summary"], ds=[2]
    )
    assert [route for route, _, _ in proof_calls] == ["verify_predicted"] * 2
    for res in results:
        assert res.passed
        assert res.detail["steps"] < (res.detail["T"] + res.detail["P"]) // 10, res.claim


def test_run_proves_each_orbit_once(proof_calls):
    # y, z(0) and z(1): chain reuses the proofs of y_cycle and z_summary
    results = run_claims(ms=(6,), claims=CHAIN_CLAIMS)
    assert len(proof_calls) == 3
    assert len(set(proof_calls)) == 3
    separate = [res for claim in CHAIN_CLAIMS for res in run_claims(ms=(6,), claims=[claim])]
    assert results == separate
    assert all(res.passed for res in results)


def test_proof_memo_lives_for_one_run(proof_calls):
    first = run_claims(ms=(6,), claims=CHAIN_CLAIMS)
    second = run_claims(ms=(6,), claims=CHAIN_CLAIMS)
    assert len(proof_calls) == 6
    assert first == second
    assert neurec.verify._proofs is None


def test_chain_member_unlike_the_direct_build_is_proved_afresh(proof_calls, monkeypatch):
    original = neurec.verify.cons.chain_perturbation

    def flip_first_init_bit(current, plan, next_plan):
        system = original(current, plan, next_plan)
        return dataclasses.replace(system, init=bytes([1 - system.init[0]]) + system.init[1:])

    monkeypatch.setattr("neurec.verify.cons.chain_perturbation", flip_first_init_bit)
    run_claims(ms=(6,), claims=["z_summary", "chain"])
    # z(0), z(1) for z_summary; y and the altered z(1) for chain
    assert len(proof_calls) == 4
    z1 = neurec.build_z(window_params(6), 1)
    altered = bytes([1 - z1.init[0]]) + z1.init[1:]
    assert [init for _, _, init in proof_calls].count(altered) == 1


@pytest.fixture
def member_builds(monkeypatch):
    """Every (builder, m, index) the x_i, v_i and w(d) builders are asked for,
    and every (builder, m) build_y is."""
    calls = []
    for name in ("single_system", "destabilized_system", "build_w", "build_y"):
        original = getattr(neurec.construction, name)

        def counted(params, *index, _name=name, _original=original):
            calls.append((_name, params.m, *index))
            return _original(params, *index)

        monkeypatch.setattr(f"neurec.construction.{name}", counted)
    return calls


def test_a_run_builds_each_member_once(member_builds):
    results = run_claims(ms=(6, 11))
    assert all(res.passed for res in results)
    want = [
        (name, m, i)
        for name in ("single_system", "destabilized_system", "build_w")
        for m in (6, 11)
        for i in range(window_params(m).rho)
    ]
    # z(d)'s builds and chain_equals_direct's reuse the run's y
    want += [("build_y", m) for m in (6, 11)]
    assert sorted(member_builds) == sorted(want)
    # the memo lives for one run: a second run builds every member again
    run_claims(ms=(6, 11))
    assert sorted(member_builds) == sorted(want * 2)


def test_a_run_compiles_each_system_once(monkeypatch):
    # every compile in verify and cycles is recorded by the system's id, with
    # the system held alive so no id is reused
    compiled: dict[int, list] = {}

    def recording(system):
        compiled.setdefault(id(system), []).append(system)
        return compile_system(system)

    monkeypatch.setattr("neurec.verify.compile_system", recording)
    monkeypatch.setattr("neurec.cycles.compile_system", recording)
    results = run_claims(ms=(6, 11))
    assert all(res.passed for res in results)
    assert compiled
    assert [calls[0].label for calls in compiled.values() if len(calls) > 1] == []


def test_z_hands_off_from_the_runs_own_y_and_w():
    p = window_params(6)
    with neurec.verify.proof_memo():
        handoff = member(p, "z", 1).handoff()
        assert handoff.head is member(p, "y")
        assert handoff.tail is member(p, "w", 1)
        assert member(p, "z", 1) is member(p, "z", 1)
    # outside a run every call builds afresh
    assert member(p, "y").system is not member(p, "y").system
    assert z_handoff(p, 1).head is not z_handoff(p, 1).head
    assert z_handoff(p, 1).tail is not z_handoff(p, 1).tail


@pytest.mark.long
def test_long_tier_chain_selection_proves_five_orbits(proof_calls):
    # the benchmark's proofs16 selection: y and z(0..3) at m = 16, each once
    results = run_claims(ms=(16,), claims=CHAIN_CLAIMS)
    assert [(r.claim, r.passed) for r in results] == [
        ("y_cycle", True),
        ("z_summary", True),
        ("z_summary", True),
        ("z_summary", True),
        ("z_summary", True),
        ("chain", True),
    ]
    assert len(proof_calls) == 5


def test_basin_shares_the_z_summary_proofs(proof_calls):
    results = run_claims(ms=(6, 11), claims=["z_summary", "basin"])
    assert [r.claim for r in results] == ["z_summary"] * 5 + ["basin"] * 5
    assert all(r.passed for r in results)
    assert len(proof_calls) == 5


@pytest.mark.long
def test_long_tier_basin_proves_no_orbit_of_its_own(proof_calls):
    results = run_claims(ms=(16,), claims=["z_summary", "basin"])
    expected = [("z_summary", True)] * 4 + [("basin", True)] * 4
    assert [(r.claim, r.passed) for r in results] == expected
    assert len(proof_calls) == 4


@pytest.fixture
def builds(monkeypatch):
    """Every (builder, compiled system, init) certified: certify_lanes under
    both its names, so a lane set built inside cycles counts too, and
    handoff_certificate as verify calls it."""
    calls = []
    bindings = [("verify", "certify_lanes"), ("cycles", "certify_lanes"), ("verify", "handoff_certificate")]
    for module, name in bindings:
        original = getattr(neurec.cycles, name)

        def counted(cs, init, *args, _name=name, _original=original):
            calls.append((_name, cs, bytes(init)))
            return _original(cs, init, *args)

        monkeypatch.setattr(f"neurec.{module}.{name}", counted)
    return calls


def test_run_builds_each_certificate_once(builds):
    # at m = 21 phases, z_summary, chain and basin read one handoff
    # certificate per z(d), and sum_bounds, y_cycle, y_deshuffle and w_cycle
    # one set of lanes per laned orbit: y and w(0..4); a single unit x_i
    # gets none; each handoff certificate is proved on the lanes of y and
    # w(d) built for those, so no lane set is built twice, in verify or in
    # cycles
    assert all(r.passed for r in run_claims(ms=(21,)))
    handoffs = [build for build in builds if build[0] == "handoff_certificate"]
    lanes = [build for build in builds if build[0] == "certify_lanes"]
    assert len(handoffs) == len(set(handoffs)) == 5
    assert len(lanes) == len(set(lanes)) == 6
    assert all(lane_count(cs) > 1 for _, cs, _ in lanes)
    # outside run_claims nothing is remembered: y's and w(0)'s lanes, then
    # the certificate on them, each time
    builds.clear()
    assert check_phases(21, 0).passed and check_phases(21, 0).passed
    once = ["certify_lanes", "certify_lanes", "handoff_certificate"]
    assert [name for name, _, _ in builds] == once * 2


def test_a_run_searches_each_single_unit_orbit_once(monkeypatch):
    # _search is the search under detect_cycle and every lane of
    # certify_lanes.  x_cycle's search is the only one of each x_i orbit:
    # sum_bounds reads x_i off that proof, and no lane of y or w(d) starts
    # on it.  Only the v_i orbits recur: v_fixed searches v_i, and so does
    # every w(d) with d >= i, whose lane i is v_i (ROADMAP item 2)
    searched = Counter()
    search = neurec.cycles._search

    def counted(cs, init, budget):
        searched[cs, bytes(init)] += 1
        return search(cs, init, budget)

    monkeypatch.setattr("neurec.cycles._search", counted)
    gridded = [claim for claim in ALL_CLAIMS if neurec.verify._TABLE[claim].grid is not None]
    assert all(r.passed for r in run_claims(ms=(6, 11), claims=gridded))
    want = {}
    for m in (6, 11):
        p = window_params(m)
        for i in range(p.rho):
            v = member(p, "v", i)
            want[v.cs, v.system.init] = 1 + p.rho - i
    assert {key: n for key, n in searched.items() if n > 1} == want


def test_remembered_certificates_change_no_result():
    # every result of a full run, steps included, equals its claim run
    # alone, whichever order the claims run in
    alone = {claim: run_claims(ms=(11,), claims=[claim]) for claim in ALL_CLAIMS}
    for order in (ALL_CLAIMS, ALL_CLAIMS[::-1]):
        assert run_claims(ms=(11,), claims=order) == [res for c in order for res in alone[c]]


def test_a_remembered_certificate_past_a_later_cap_is_built_again(builds):
    # one cap for every claim: sum_bounds certifies w(2)'s lanes at m = 11 in
    # 546 steps, within the budget; z_summary's d = 2 certificate reuses y's
    # lanes (87 steps), so 513 are left for w(2)'s, which it builds again,
    # and their search passes that rest: z_summary fails as it does alone
    want = {"error": "BudgetExceeded", "steps": 601, "budget": 600}
    results = run_claims(ms=(11,), claims=["sum_bounds", "z_summary"], budget=600)
    assert results[0].passed and results[-1].detail == want
    w2 = build_w(window_params(11), 2)
    lanes = [(cs, init) for name, cs, init in builds if name == "certify_lanes"]
    assert len(lanes) == 5 and lanes.count((compile_system(w2), w2.init)) == 2
    (alone,) = run_claims(ms=(11,), claims=["z_summary"], ds=[2], budget=600)
    assert alone.detail == want
    # without a budget z(2)'s certificate, the one past DETECT_CUTOFF, reads
    # sum_bounds' lanes
    builds.clear()
    assert all(r.passed for r in run_claims(ms=(11,), claims=["sum_bounds", "z_summary"]))
    assert [name for name, _, _ in builds] == ["certify_lanes"] * 4 + ["handoff_certificate"]


def test_a_remembered_certificate_is_read_exactly_while_its_steps_fit_the_cap(builds):
    # inside a run, m = 6 z(0)'s certificate is read again at a cap equal to
    # its steps, and one below it is built again, on the remembered lanes,
    # and raises with the same steps
    with neurec.verify.proof_memo():
        z = member(window_params(6), "z", 0)
        cert, cost = _certificate(z.cs, z.system.init, z.handoff, MEASURE_CUTOFF)
        builds.clear()
        assert _certificate(z.cs, z.system.init, z.handoff, cost) == (cert, cost)
        assert builds == []
        with pytest.raises(BudgetExceeded) as exc:
            _certificate(z.cs, z.system.init, z.handoff, cost - 1)
        assert (exc.value.steps, exc.value.budget) == (cost, cost - 1)
        assert [name for name, _, _ in builds] == ["handoff_certificate"]


# --- the shared entry point --------------------------------------------------


def test_run_claims_m6_all_green():
    results = run_claims(ms=(6,))
    assert len(results) >= 20
    bad = [r for r in results if not r.passed]
    assert bad == [], [(r.claim, r.params, r.detail) for r in bad]
    assert {r.claim for r in results} == set(ALL_CLAIMS)


def test_every_claim_passes_at_every_scale_from_5_to_20():
    # each m brings its own primes, beta, mu and basin grid
    results = run_claims(ms=range(5, 21))
    assert len(results) == 409
    bad = [(r.claim, r.params, r.detail) for r in results if r.passed is not True]
    assert bad == []


@pytest.mark.long
def test_long_tier_every_claim_passes_at_every_scale_from_21_to_45():
    results = run_claims(ms=range(21, 46))
    assert len(results) == 984
    bad = [(r.claim, r.params, r.detail) for r in results if r.passed is not True]
    assert bad == []


@pytest.mark.long
def test_long_tier_every_claim_passes_at_m50():
    results = run_claims(ms=(50,))
    assert len(results) == 49
    bad = [(r.claim, r.params, r.detail) for r in results if r.passed is not True]
    assert bad == []


def test_run_claims_rejects_unknown():
    with pytest.raises(ValueError):
        run_claims(ms=(6,), claims=["prop1", "made_up"])


def test_run_claims_turns_budget_blowups_into_failures():
    results = run_claims(ms=(6,), claims=["z_summary"], budget=50)
    assert results, "expected instances"
    assert all(not r.passed for r in results)
    assert all(r.detail.get("error") == "BudgetExceeded" for r in results)


def test_one_budget_routes_every_proof_and_caps_every_certificate():
    # a blind search runs only within both DETECT_CUTOFF and the budget, so
    # each orbit past the budget is proved on its certificate, and the
    # default grid passes at 1,292, the steps of m = 11 z(2)'s certificate
    assert all(r.passed for r in run_claims(ms=(6, 11), budget=1292))
    failed = [(r.claim, r.params) for r in run_claims(ms=(6, 11), budget=1291) if not r.passed]
    assert failed == [
        (claim, {"m": 11, "d": 2} if claim != "chain" else {"m": 11})
        for claim in ("phases", "z_summary", "chain", "basin")
    ]


def test_the_budget_caps_the_certificates_claims_read():
    # sum_bounds, y_deshuffle and phases read their certificates within the
    # budget too: y's lanes at m = 11 take 87 steps
    want = {"error": "BudgetExceeded", "steps": 81, "budget": 80}
    results = run_claims(ms=(11,), claims=["sum_bounds", "y_deshuffle", "phases"], budget=80)
    assert [(r.claim, r.detail) for r in results] == [
        (claim, want) for claim in ("sum_bounds", "y_deshuffle", "phases", "phases", "phases")
    ]
    # phases and z_summary read one certificate per z(d), and fail alike
    for d in range(3):
        phases, z_summary = run_claims(ms=(11,), claims=["phases", "z_summary"], ds=[d], budget=500)
        assert phases.passed is False and phases.detail == z_summary.detail, d
        assert phases.detail["error"] == "BudgetExceeded", d


def test_every_claim_that_proves_or_certifies_members_is_priced(monkeypatch):
    # each instance is priced at the largest proof_work among the members it
    # proves or certifies, each lane at the bound of its search, so under a
    # low cutoff it runs and passes, or is skipped; none is attempted and aborted
    monkeypatch.setattr("neurec.verify.MEASURE_CUTOFF", 60)
    results = run_claims(ms=(6,))
    assert [r for r in results if r.passed is False] == []
    skipped = [(r.claim, r.detail["work"]) for r in results if r.passed is None]
    assert skipped == [
        ("sum_bounds", 140), ("w_cycle", 82), ("w_cycle", 140), ("phases", 548),
        ("phases", 602), ("z_summary", 548), ("z_summary", 602), ("chain", 602),
        ("basin", 548), ("basin", 602),
    ]
    p = window_params(6)
    assert [claim_grid(c, 6)[0][1] for c in ("x_cycle", "v_fixed", "y_cycle")] == [None] * 3
    assert proof_work(p, "v", 1) == 58 and proof_work(p, "y") == 36
    # m = 11 y's lane searches take 87 slides for a summed lane T + P of 83,
    # priced 102: under a cutoff below the price it is skipped, and at its
    # price it passes
    y_claims = ["y_cycle", "y_deshuffle"]
    monkeypatch.setattr("neurec.verify.MEASURE_CUTOFF", 85)
    assert [(r.passed, r.detail["work"]) for r in run_claims(ms=(11,), claims=y_claims)] == [
        (None, 102), (None, 102),
    ]
    monkeypatch.setattr("neurec.verify.MEASURE_CUTOFF", proof_work(window_params(11), "y"))
    assert [r.passed for r in run_claims(ms=(11,), claims=y_claims)] == [True, True]
    # m = 6 z(1)'s handoff certificate takes 318 steps, its price 602: at
    # the z claims' price, z(1)'s, they pass
    monkeypatch.setattr("neurec.verify.MEASURE_CUTOFF", proof_work(p, "z", 1))
    results = run_claims(ms=(6,), claims=["phases", "z_summary", "chain", "basin"])
    assert [(r.claim, r.passed) for r in results] == [
        ("phases", True), ("phases", True), ("z_summary", True), ("z_summary", True),
        ("chain", True), ("basin", True), ("basin", True),
    ]


def test_every_certificate_takes_at_most_its_price():
    # the lane searches are bounded by find_repeat's proven bound, and a
    # handoff's tabulation, explicit steps and search nodes by the rest of
    # z(d)'s price
    for m in range(5, 21):
        p = window_params(m)
        for family, index in [("y", None), *((f, d) for f in "wz" for d in range(p.rho))]:
            mem = member(p, family, index)
            cert, steps = _certificate(mem.cs, mem.system.init, mem.handoff, MEASURE_CUTOFF)
            assert cert.closes and steps <= proof_work(p, family, index), (m, family, index, steps)


def test_run_claims_reports_scale_rejection(monkeypatch):
    # rho = 1 is a scale the window parameters reject: it raises before any
    # instance runs, even beside a valid scale
    ran = []
    monkeypatch.setattr(neurec.verify, "attempt", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(RhoTooSmall):
        run_claims(ms=(6, 4), claims=["prop1"])
    assert ran == []
