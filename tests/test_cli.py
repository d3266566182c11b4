"""End-to-end CLI runs in temporary directories."""

import csv
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurec import build_z, check_basin, predicted_cycle, window_params
from neurec.cli import (
    export_trace,
    import_trace,
    main,
    system_to_json,
)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def read_csv(out_dir):
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def priced_as_simulations(monkeypatch):
    """Price every proof at its own T + P, the cost of simulating it.

    The skip path of the cycle, chain and basin modes needs an instance past
    MEASURE_CUTOFF, and none is at the scales tested: y, w(d) and z(d) are
    priced at their lanes.  At this price z(4) at m = 21 (T + P = 1.9e9)
    and z(0) there (3.2e7) pass the cutoff.
    """
    monkeypatch.setattr(
        "neurec.verify.proof_work",
        lambda params, family, index=None: sum(predicted_cycle(params, family, index)),
    )


# --- serialization helpers ---------------------------------------------------


def test_system_json_roundtrip_exact():
    p = window_params(6)
    z = build_z(p, 0)
    doc = system_to_json(z)
    assert doc["format"] == "neurec-system" and doc["version"] == 1
    assert doc["threshold"] == "241/80"
    assert doc["weights"]["34"] == "19/10"
    assert doc["weights"]["26"] == "2"
    assert doc["memory"] == z.memory
    assert doc["init"] == "".join(map(str, z.init))
    # the rationals are exact: they parse back to the system's own values
    assert Fraction(doc["threshold"]) == z.threshold == Fraction(241, 80)
    weights = {j: Fraction(w) for j, w in enumerate(z.weights, start=1) if w != 0}
    assert {int(j): Fraction(w) for j, w in doc["weights"].items()} == weights


def test_trace_roundtrip_both_formats(tmp_path):
    trace = [0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1]
    for fmt, name in (("text-bits", "t.txt"), ("run-length", "t.rle")):
        path = tmp_path / name
        export_trace(trace, path, fmt, memory=5)
        assert import_trace(path) == trace
    # text-bits wraps at the window width
    lines = (tmp_path / "t.txt").read_text().splitlines()
    assert lines[0] == "00111" and len(lines) == 3
    # run-length compresses the constant stretches
    assert (tmp_path / "t.rle").read_text().splitlines()[0] == "0×2"


def test_import_trace_accepts_ascii_x(tmp_path):
    path = tmp_path / "plain.rle"
    path.write_text("1x3\n0x2\n")
    assert import_trace(path) == [1, 1, 1, 0, 0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=200),
    st.sampled_from(["text-bits", "run-length"]),
    st.integers(min_value=1, max_value=17),
)
def test_trace_roundtrip_random(tmp_path_factory, bits, fmt, memory):
    path = tmp_path_factory.mktemp("traces") / "t.out"
    export_trace(bits, path, fmt, memory)
    assert import_trace(path) == bits


# --- verify mode --------------------------------------------------------------


def test_verify_mode_green(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "--mode", "verify",
            "--m", "6",
            "--claims", "prop1, prop2 ,z_summary",
            "--out", str(out),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "PASS prop1 m=6" in err
    assert "FAIL" not in err
    assert err.splitlines()[-1] == "neurec: 4 passed, 0 failed, 0 skipped"
    report = read_report(out)
    assert report["mode"] == "verify"
    assert report["version"] == "0.1.0"
    assert all(r["passed"] for r in report["claim_results"])
    rows = read_csv(out)
    z_rows = {(r["system"], r["d"]): r for r in rows}
    assert z_rows[("z_summary", "0")]["T_measured"] == "139"
    assert z_rows[("z_summary", "0")]["P_measured"] == "26"
    assert z_rows[("z_summary", "0")]["match"] == "True"


def test_summary_csv_holds_the_basin_reference_orbit(tmp_path):
    out = tmp_path / "basin"
    code = main(["--mode", "verify", "--m", "6", "--claims", "basin", "--out", str(out)])
    assert code == 0
    rows = {(r["system"], r["d"]): r for r in read_csv(out)}
    ref = rows[("basin[reference]", "0")]
    assert (ref["T_measured"], ref["P_measured"]) == ("139", "26")
    assert (ref["T_predicted"], ref["P_predicted"]) == ("139", "26")
    assert ref["match"] == ""  # the verdict belongs to the claim, not to its reference orbit


def test_verify_mode_stdout_json_when_no_out(capsys):
    code = main(["--mode", "verify", "--m", "6", "--claims", "prop2"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["claim_results"][0]["claim"] == "prop2"


def test_verify_mode_budget_failure_exits_1(tmp_path, capsys):
    code = main(
        ["--mode", "verify", "--m", "6", "--claims", "z_summary", "--budget", "50"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL z_summary m=6" in err


# --- cycle mode ----------------------------------------------------------------


def test_cycle_mode_m6(tmp_path):
    out = tmp_path / "cyc"
    code = main(["--mode", "cycle", "--m", "6", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    by_system = {r["system"]: r for r in rows}
    z0 = by_system["z[m=6,d=0]"]
    assert (z0["T_measured"], z0["P_measured"]) == ("139", "26")
    assert z0["match"] == "True"
    x0 = by_system["x[m=6,i=0]"]
    assert (x0["T_measured"], x0["P_measured"]) == ("0", "17")
    assert x0["d"] == ""  # lane systems carry no bifurcation step
    assert len(rows) == 9


def test_cycle_mode_skips_past_cutoff(tmp_path, priced_as_simulations):
    out = tmp_path / "big"
    code = main(["--mode", "cycle", "--m", "21", "--system", "z", "--d", "4", "--out", str(out)])
    assert code == 0  # a skip is not a failure
    report = read_report(out)
    (row,) = report["cycle_reports"]
    assert row["T_measured"] is None
    assert "cutoff" in row["note"]


def test_cycle_mode_proves_y_at_m21_on_its_lanes(tmp_path):
    out = tmp_path / "lanes"
    code = main(["--mode", "cycle", "--m", "21", "--system", "y", "--out", str(out)])
    assert code == 0
    (row,) = read_report(out)["cycle_reports"]
    assert (row["T_measured"], row["P_measured"]) == (0, 1_927_498_435)
    assert row["match"] is True
    assert row["steps"] < 10_000  # lane slides, not the 1.9e9 of a simulation


@pytest.mark.parametrize(
    "system, steps", [(["y"], 1_379), (["z", "--d", "4"], 19_062)], ids=["y", "z4"]
)
def test_cycle_mode_budget_caps_the_proof_on_its_route_at_m21(tmp_path, system, steps):
    # T + P is 1.9e9 for both, but the lane and handoff proofs take far fewer
    # steps: a budget of 10^6 lets them run, and one below them fails
    out = tmp_path / "budget"
    argv = ["--mode", "cycle", "--m", "21", "--system", *system, "--out", str(out)]
    assert main([*argv, "--budget", "1000000"]) == 0
    (row,) = read_report(out)["cycle_reports"]
    assert row["match"] is True and row["steps"] == steps
    assert main([*argv, "--budget", str(steps // 2)]) == 1
    (row,) = read_report(out)["cycle_reports"]
    assert (row["error"], row["budget"]) == ("BudgetExceeded", steps // 2)


@pytest.mark.long
def test_long_tier_cycle_mode_proves_every_z_at_m21(tmp_path):
    out = tmp_path / "z21"
    code = main(["--mode", "cycle", "--m", "21", "--system", "z", "--out", str(out)])
    assert code == 0
    rows = read_report(out)["cycle_reports"]
    assert [row["d"] for row in rows] == [0, 1, 2, 3, 4]
    assert all(row["match"] is True for row in rows)
    assert (rows[4]["T_measured"], rows[4]["P_measured"]) == (1_927_501_345, 1)


def test_cycle_mode_budget_failure_exits_1(tmp_path):
    out = tmp_path / "tight"
    code = main(
        ["--mode", "cycle", "--m", "6", "--system", "z", "--budget", "50", "--out", str(out)]
    )
    assert code == 1
    rows = read_report(out)["cycle_reports"]
    assert [row["system"] for row in rows] == ["z[m=6,d=0]", "z[m=6,d=1]"]
    for row in rows:
        assert row["match"] is False and row["T_measured"] is None
        assert (row["error"], row["budget"]) == ("BudgetExceeded", 50)


def test_cycle_mode_lane_filter(tmp_path):
    out = tmp_path / "lane"
    code = main(
        ["--mode", "cycle", "--m", "6", "--system", "v", "--lane", "1", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert [r["system"] for r in rows] == ["v[m=6,i=1]"]
    assert rows[0]["T_measured"] == "57"


# --- construct and simulate modes ------------------------------------------------


def test_construct_mode_emits_descriptions(capsys):
    code = main(["--mode", "construct", "--m", "6", "--system", "z", "--d", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (doc,) = report["cycle_reports"]
    assert doc["label"] == "z[m=6,d=0]"
    assert doc["threshold"] == "241/80"
    assert doc["predicted_transient"] == 139
    assert doc["predicted_period"] == 26


def test_simulate_mode_with_traces(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "--mode", "simulate",
            "--m", "6",
            "--system", "y",
            "--steps", "300",
            "--emit-traces",
            "--trace-format", "run-length",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = read_report(out)
    (row,) = report["cycle_reports"]
    assert row["steps"] == 300
    assert row["trace_len"] == 140 + 300
    trace = import_trace(out / "y_m_6.rle")
    assert len(trace) == 440
    assert sum(trace) == row["ones"]


def test_simulate_defaults_to_y(capsys):
    code = main(["--mode", "simulate", "--m", "6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (row,) = report["cycle_reports"]
    assert row["system"] == "y[m=6]"
    assert row["steps"] == 2 * 140


# --- chain and basin modes --------------------------------------------------------


def test_chain_mode(capsys):
    code = main(["--mode", "chain", "--m", "6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (res,) = report["claim_results"]
    assert res["claim"] == "chain" and res["passed"]
    assert res["detail"]["periods"] == [442, 26, 1]


def test_chain_mode_skips_past_cutoff(capsys, priced_as_simulations):
    code = main(["--mode", "chain", "--m", "21"])
    assert code == 0  # a skip is not a failure
    captured = capsys.readouterr()
    (res,) = json.loads(captured.out)["claim_results"]
    assert res["passed"] is None and res["detail"]["work"] > res["detail"]["cutoff"]
    assert captured.err.splitlines() == ["SKIP chain m=21", "neurec: 0 passed, 0 failed, 1 skipped"]


def test_basin_mode_selected_d_past_cutoff_is_skipped(capsys, priced_as_simulations):
    code = main(["--mode", "basin", "--m", "21", "--d", "0"])
    assert code == 0
    assert "SKIP basin m=21 d=0" in capsys.readouterr().err


def test_basin_mode_off_grid_d_exits_2(capsys):
    # m = 18 has rho = 5 and min beta = 2: d = 2 breaks the hypothesis, d = 5 the lane range
    for d in ("2", "5"):
        assert main(["--mode", "basin", "--m", "18", "--d", d]) == 2
        assert "neurec:" in capsys.readouterr().err


def test_basin_mode_selected_d(capsys):
    code = main(["--mode", "basin", "--m", "6", "--d", "1", "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (res,) = report["claim_results"]
    assert res["params"] == {"m": 6, "d": 1}
    assert res["passed"] and res["detail"]["mode"] == "exhaustive"


def test_basin_mode_samples_the_table_variant_count(capsys):
    code = main(["--mode", "basin", "--m", "11", "--d", "0", "--seed", "5"])
    assert code == 0
    (res,) = json.loads(capsys.readouterr().out)["claim_results"]
    assert res["detail"]["mode"] == "sampled"
    assert res["detail"]["variants_checked"] == 8
    assert res["detail"] == check_basin(11, 0, seed=5).detail


# --- configuration ------------------------------------------------------------------


def test_repeated_scales_and_steps_run_once(tmp_path, capsys):
    assert main(["--mode", "verify", "--m", "6", "--m", "6", "--claims", "prop2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["config"]["m"] == [6]
    assert captured.err.splitlines() == ["PASS prop2 m=6", "neurec: 1 passed, 0 failed, 0 skipped"]
    # first-seen order, in every mode, and --long adds only scales not yet named
    out = tmp_path / "basin"
    argv = ["--mode", "basin", "--m", "11", "--m", "6", "--m", "11"]
    assert main([*argv, "--d", "1", "--d", "0", "--d", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["config"]["m"] == [11, 6] and report["config"]["d"] == [1, 0]
    assert [r["params"] for r in report["claim_results"]] == [
        {"m": m, "d": d} for m in (11, 6) for d in (1, 0)
    ]
    assert len(read_csv(out)) == 4  # one reference orbit per instance
    main(["--mode", "cycle", "--m", "6", "--m", "6", "--system", "w", "--d", "0", "--d", "0"])
    (row,) = json.loads(capsys.readouterr().out)["cycle_reports"]
    assert (row["system"], row["match"]) == ("w[m=6,d=0]", True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "construct", "m": [16, 6, 16], "long": True, "system": "y"}))
    assert main(["--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["m"] for s in report["params_summary"]] == [16, 6, 21]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "cycle", "m": [6], "system": "x", "lane": 0}))
    code = main(["--config", str(cfg), "--system", "v"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["system"] == "v"  # flag wins
    assert report["config"]["m"] == [6]  # file value survives
    (row,) = report["cycle_reports"]
    assert row["system"] == "v[m=6,i=0]"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "verify", "turbo": True}))
    assert main(["--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_reports_are_deterministic(tmp_path):
    args = ["--mode", "verify", "--m", "6", "--claims", "basin,divisor_rule", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    rep_a, rep_b = read_report(out_a), read_report(out_b)
    for rep in (rep_a, rep_b):
        rep.pop("wall_clock_s")
        rep["config"].pop("out")
    assert rep_a == rep_b


# --- error handling -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "verify", "--claims", "prop1,bogus"],
        ["--mode", "verify", "--m", "1"],
        ["--mode", "simulate", "--m", "6", "--emit-traces"],
        ["--mode", "simulate", "--m", "6", "--steps", "-4"],
        ["--mode", "verify", "--m", "6", "--budget", "0"],
        ["--config", "/nonexistent/cfg.json"],
        # a non-string stands for a config file holding it as JSON
        ["--config", {"m": 6}],
        ["--config", {"budget": "10", "m": [6], "claims": ["z_summary"]}],
        ["--config", {"claims": "prop1", "m": [6]}],
        ["--config", [6]],
        # an empty claim list would run nothing and pass
        ["--mode", "verify", "--m", "6", "--claims", ","],
        ["--mode", "verify", "--m", "6", "--claims", ""],
        ["--config", {"claims": []}],
        # verify and chain do not read --d
        ["--mode", "verify", "--m", "6", "--claims", "prop2", "--d", "7"],
        ["--mode", "chain", "--m", "6", "--d", "0"],
    ],
)
def test_config_errors_exit_2(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            cfg.write_text(json.dumps(arg))
            argv = argv[:i] + [str(cfg)] + argv[i + 1 :]
    assert main(argv) == 2
    assert "neurec:" in capsys.readouterr().err


def test_scale_rejection_paths(capsys):
    # cycle mode hits the constructor directly: configuration-level failure
    assert main(["--mode", "cycle", "--m", "4"]) == 2
    capsys.readouterr()
    # the claim modes fold the same rejection into a failing claim instead
    assert main(["--mode", "verify", "--m", "4", "--claims", "prop1"]) == 1
    assert "FAIL prop1 m=4" in capsys.readouterr().err
    for mode in ("chain", "basin"):
        assert main(["--mode", mode, "--m", "4"]) == 1
        assert f"FAIL {mode} m=4" in capsys.readouterr().err


def test_bad_mode_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "warp"])
    assert exc.value.code == 2
