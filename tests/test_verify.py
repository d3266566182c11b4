"""Claim registry behavior: inventory, dispatch, grids, failure capture."""

import pytest

from neurec import (
    ALL_CLAIMS,
    HypothesisUnmet,
    IndexOutOfRange,
    check_basin,
    check_chain,
    check_composition,
    check_phases,
    claim_instances,
    measure_cycle,
    predicted_cycle,
    run_claims,
    single_system,
    window_params,
)
from neurec.verify import MEASURE_CUTOFF


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


def test_measure_cycle_detect_route():
    p = window_params(6)
    s = single_system(p, 0)
    rep, route = measure_cycle(s, predicted_cycle(p, "x", 0))
    assert route == "detect"
    assert rep.matches is True


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
        assert res.detail["route"] == "detect"


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


def test_basin_hypothesis_unmet():
    # m=18 has min beta = 2 with rho = 5, so d = 2 breaks the hypothesis
    p = window_params(18)
    assert min(p.beta_m) == 2
    with pytest.raises(HypothesisUnmet):
        check_basin(18, 2)
    # and the instance grid respects the same boundary
    assert all(kw["d"] < 2 for kw in claim_instances("basin", 18))


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
    assert claim_instances("y_cycle", 21) == []
    assert claim_instances("chain", 21) == []
    # m=21 w-cycles: d=0 exceeds the cutoff, later steps shrink back in
    ds = [kw["d"] for kw in claim_instances("w_cycle", 21)]
    assert 0 not in ds and ds != []
    # desk scales keep everything
    assert claim_instances("y_cycle", 6) == [{}]
    assert [kw["d"] for kw in claim_instances("phases", 6)] == [0, 1]
    with pytest.raises(ValueError):
        claim_instances("nope", 6)
    with pytest.raises(ValueError):
        claim_instances("divisor_rule", 6)  # scale-free: no grid


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
