"""Claim registry behavior: inventory, dispatch, grids, failure capture."""

import dataclasses
import json

import pytest

import neurec.verify
from neurec import (
    ALL_CLAIMS,
    BudgetExceeded,
    HypothesisUnmet,
    IndexOutOfRange,
    PredictionFailed,
    RecurrenceSystem,
    check_basin,
    check_chain,
    check_composition,
    check_phases,
    measure_cycle,
    predicted_cycle,
    run_claims,
    single_system,
    window_params,
)
from neurec.cli import main
from neurec.verify import MEASURE_CUTOFF, claim_grid


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


def test_measure_cycle_certifies_the_prediction(monkeypatch):
    p = window_params(6)
    s = single_system(p, 0)
    rep = measure_cycle(s, predicted_cycle(p, "x", 0))
    assert (rep.measured_transient, rep.measured_period) == (0, 17)
    # a wrong pair raises from the probe it fails, whether the blind search
    # disagrees with it or runs out of budget on it
    for wrong, check in (((0, 34), "period_minimality"), ((1, 17), "transient_minimality")):
        with pytest.raises(PredictionFailed) as exc:
            measure_cycle(s, wrong)
        assert exc.value.check == check
    y = neurec.build_y(p)
    with pytest.raises(PredictionFailed) as exc:
        measure_cycle(y, (0, 10))  # true period 442
    assert exc.value.check == "period"
    # a budget caps the proof before it takes a step
    with pytest.raises(BudgetExceeded) as exc:
        measure_cycle(s, (0, 17), budget=16)
    assert (exc.value.steps, exc.value.budget) == (0, 16)
    assert measure_cycle(s, (0, 17), budget=17) == rep
    # past DETECT_CUTOFF the proof is one pass of exactly T + P slides
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)
    assert measure_cycle(s, (0, 17)) == dataclasses.replace(rep, steps_executed=17)
    with pytest.raises(PredictionFailed):
        measure_cycle(s, (1, 17))


@pytest.fixture
def z_transient_one_too_large(monkeypatch):
    """Overstate every z(d) transient by one, in verify and in the CLI,
    which binds its own copy of predicted_cycle."""
    original = neurec.verify.predicted_cycle

    def overstated(params, family, index=None):
        t, p = original(params, family, index)
        return (t + 1, p) if family == "z" else (t, p)

    for module in ("neurec.verify", "neurec.cli"):
        monkeypatch.setattr(f"{module}.predicted_cycle", overstated)


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
    assert res.detail["variants_checked"] == 4
    assert res.detail["mode"] == "exhaustive"
    assert res.detail["mismatched_variants"] == []

    res = check_basin(6, 1)
    assert res.passed
    assert res.detail["free_bits"] == 1
    assert res.detail["variants_total"] == 2


def test_basin_rotation_reaches_other_attractors(monkeypatch):
    # negative control: x(n) = x(n - h) rotates every window, so no variant
    # merges and each free prefix lands on a cycle of its own
    original = neurec.verify.cons.build_z

    def rotation(params, d):
        z = original(params, d)
        return RecurrenceSystem(z.memory, (0,) * (z.memory - 1) + (1,), 1, z.init)

    def rotation_cycle(params, family, index=None):
        # the reference is proved: its true (T, P) is the rotation's, (0, h)
        return (0, params.h) if family == "z" else predicted_cycle(params, family, index)

    monkeypatch.setattr("neurec.verify.cons.build_z", rotation)
    monkeypatch.setattr("neurec.verify.predicted_cycle", rotation_cycle)
    res = check_basin(6, 0)
    assert res.passed is False
    assert res.detail["mismatched_variants"] == [1, 2, 3]


def test_basin_fallback_search_agrees_with_the_merge(proof_calls, monkeypatch):
    # a merge step that never merges leaves every variant to the blind search
    cases = [((6, 0), {}), ((11, 1), {"seed": 3})]
    merged = [check_basin(*args, **kw) for args, kw in cases]
    monkeypatch.setattr("neurec.verify.advance_word", lambda cs, word, steps: object())
    for (args, kw), expected in zip(cases, merged):
        proof_calls.clear()
        res = check_basin(*args, **kw)
        assert res.passed
        assert res == expected
        # the reference proof, then one search per variant
        assert len(proof_calls) == 1 + res.detail["variants_checked"]


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
    res = check_composition("divisor_rule", seed=1, rounds=30)
    assert res.passed
    assert res.detail["violations"] == []
    assert set(res.detail["periods_seen"]) <= set(range(1, 9))
    with pytest.raises(ValueError):
        check_composition("nope")


# --- instance grids ---------------------------------------------------------


def test_grid_skips_infeasible_scales():
    # the full interleaved cycle at m=21 is ~1.9e9 states: never measured blind
    assert runnable("y_cycle", 21) == []
    assert runnable("chain", 21) == []
    # m=21 w-cycles: d=0 exceeds the cutoff, later steps shrink back in
    ds = [kw["d"] for kw in runnable("w_cycle", 21)]
    assert 0 not in ds and ds != []
    # basin runs exactly the z(d) proofs of z_summary that lie on its grid
    for m in (16, 21, 26):
        grid = [kw for kw, _ in claim_grid("basin", m)]
        assert runnable("basin", m) == [kw for kw in runnable("z_summary", m) if kw in grid]
    # desk scales keep everything
    assert runnable("y_cycle", 6) == [{}]
    assert [kw["d"] for kw in runnable("phases", 6)] == [0, 1]
    with pytest.raises(ValueError):
        claim_grid("nope", 6)
    with pytest.raises(ValueError):
        claim_grid("divisor_rule", 6)  # scale-free: no grid


def test_grid_reports_skipped_instances_without_running_them(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a skipped instance was simulated")

    for name in ("compile_system", "measure_cycle", "detect_cycle", "verify_predicted"):
        monkeypatch.setattr(f"neurec.verify.{name}", no_simulation)
    results = run_claims(ms=(21,), claims=["y_cycle", "chain"])
    assert [(r.claim, r.params, r.passed) for r in results] == [
        ("y_cycle", {"m": 21}, None),
        ("chain", {"m": 21}, None),
    ]
    for res in results:
        assert res.detail["skipped"] == "predicted work exceeds cutoff"
        assert res.detail["work"] > res.detail["cutoff"] == MEASURE_CUTOFF


def test_run_claims_on_requested_steps():
    # requested steps run in the order given, each keeping its grid skip detail
    results = run_claims(ms=(6,), claims=["w_cycle"], ds=[1, 0])
    assert [(r.params, r.passed) for r in results] == [
        ({"m": 6, "d": 1}, True),
        ({"m": 6, "d": 0}, True),
    ]
    (skipped,) = run_claims(ms=(21,), claims=["w_cycle"], ds=[0])
    assert skipped.passed is None and skipped.detail["work"] > skipped.detail["cutoff"]
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
    """Every system detect_cycle or verify_predicted is asked to prove."""
    calls = []
    for name in ("detect_cycle", "verify_predicted"):
        original = getattr(neurec.verify, name)

        def counted(cs, init, *args, _original=original, **kwargs):
            calls.append((cs, tuple(init)))
            return _original(cs, init, *args, **kwargs)

        monkeypatch.setattr(f"neurec.verify.{name}", counted)
    return calls


CHAIN_CLAIMS = ["y_cycle", "z_summary", "chain"]


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
        return dataclasses.replace(system, init=(1 - system.init[0],) + system.init[1:])

    monkeypatch.setattr("neurec.verify.cons.chain_perturbation", flip_first_init_bit)
    run_claims(ms=(6,), claims=["z_summary", "chain"])
    # z(0), z(1) for z_summary; y and the altered z(1) for chain
    assert len(proof_calls) == 4
    z1 = neurec.build_z(window_params(6), 1)
    altered = (1 - z1.init[0],) + z1.init[1:]
    assert [init for _, init in proof_calls].count(altered) == 1


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


# --- the shared entry point --------------------------------------------------


def test_run_claims_m6_all_green():
    results = run_claims(ms=(6,))
    assert len(results) >= 20
    bad = [r for r in results if not r.passed]
    assert bad == [], [(r.claim, r.params, r.detail) for r in bad]
    assert {r.claim for r in results} == set(ALL_CLAIMS)


def test_run_claims_rejects_unknown():
    with pytest.raises(ValueError):
        run_claims(ms=(6,), claims=["prop1", "made_up"])


def test_run_claims_turns_budget_blowups_into_failures():
    results = run_claims(ms=(6,), claims=["z_summary"], budget=50)
    assert results, "expected instances"
    assert all(not r.passed for r in results)
    assert all(r.detail.get("error") == "BudgetExceeded" for r in results)


def test_run_claims_reports_scale_rejection():
    results = run_claims(ms=(4,), claims=["prop1"])
    assert len(results) == 1
    assert not results[0].passed
    assert "error" in results[0].detail
