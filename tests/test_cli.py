"""End-to-end CLI runs in temporary directories."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neurec.cli
import neurec.verify
from neurec import (
    Member,
    RecurrenceSystem,
    advance_word,
    build_y,
    build_z,
    check_basin,
    compile_system,
    dense_oracle_run,
    member,
    predicted_cycle,
    run,
    window_params,
    word_from_bits,
    z_handoff,
)
from neurec.cli import (
    _RUN_BLOCK,
    _WRITE,
    MAX_STEPS,
    MODES,
    TRACE_FORMATS,
    export_trace,
    import_trace,
    main,
    system_to_json,
)
from neurec.cycles import Lanes
from neurec.engine import Trace
from neurec.verify import MEASURE_CUTOFF, _certificate, simulated_trace


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
    and z(0) there (3.2e7) pass the cutoff.  The CLI binds its own copy of
    proof_work.
    """
    for module in ("neurec.verify", "neurec.cli"):
        monkeypatch.setattr(
            f"{module}.proof_work",
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
    assert tuple((int(j), Fraction(w)) for j, w in doc["weights"].items()) == z.taps


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


def test_memory_zero_text_trace_is_one_line(tmp_path):
    # a memory-0 system has no window to wrap at: the whole trace is one line
    trace = run(compile_system(RecurrenceSystem(0, (), 0, b"")), b"", 5)
    path = tmp_path / "t.txt"
    export_trace(trace, path, "text-bits", 0)
    assert path.read_text() == "11111\n"
    assert import_trace(path) == list(trace)


def test_import_trace_accepts_ascii_x(tmp_path):
    path = tmp_path / "plain.rle"
    path.write_text("1x3\n0x2\n")
    assert import_trace(path) == [1, 1, 1, 0, 0]


def test_import_trace_skips_blank_lines_between_runs(tmp_path):
    path = tmp_path / "gap.rle"
    path.write_text("1×3\n\n0×2\n")
    assert import_trace(path) == [1, 1, 1, 0, 0]


@pytest.mark.parametrize("fmt", ["text-bits", "run-length"])
def test_empty_trace_is_one_newline(tmp_path, fmt):
    path = tmp_path / "empty"
    export_trace(b"", path, fmt, memory=5)
    assert path.read_text() == "\n"
    assert import_trace(path) == []


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


def test_summary_csv_lists_lanes_in_lane_order_past_ten_lanes(tmp_path):
    # m = 60 has rho = 11 lanes, so lane 10 sorts before lane 2 as a string
    out = tmp_path / "m60"
    assert main(["--mode", "verify", "--m", "60", "--claims", "x_cycle", "--out", str(out)]) == 0
    systems = [row["system"] for row in read_csv(out)]
    assert systems == [f"x_cycle[i={i}]" for i in range(11)]


def test_verify_mode_stdout_json_when_no_out(capsys):
    code = main(["--mode", "verify", "--m", "6", "--claims", "prop2"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["claim_results"][0]["claim"] == "prop2"


def test_verify_mode_budget_failure_exits_1(tmp_path, capsys):
    code = main(
        ["--mode", "verify", "--m", "6", "--claims", "z_summary,basin", "--budget", "50"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL z_summary m=6" in err
    assert "FAIL basin m=6 d=0" in err  # the budget caps basin's reference proof


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
    "system, steps", [(["y"], 282), (["z", "--d", "4"], 6_657)], ids=["y", "z4"]
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


def test_cycle_mode_without_a_budget_caps_the_fallback_at_the_cutoff(
    tmp_path, capped_simulation, misplaced_handoff
):
    # z(4)'s certificate does not close, and simulating its T + P = 1.9e9
    # would pass MEASURE_CUTOFF: the row fails at once rather than hang
    out = tmp_path / "fallback"
    argv = ["--mode", "cycle", "--m", "21", "--system", "z", "--d", "4", "--out", str(out)]
    assert main(argv) == 1
    (row,) = read_report(out)["cycle_reports"]
    assert row["match"] is False and row["T_measured"] is None
    assert (row["error"], row["budget"]) == ("BudgetExceeded", MEASURE_CUTOFF)
    assert 0 < row["steps"] < 10**5


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "simulate", "--m", "16", "--system", "z", "--steps", "1000000"],
        ["--mode", "cycle", "--m", "16"],
    ],
)
def test_member_modes_certify_each_lane_set_once_per_run(argv, monkeypatch):
    # one memo per run: every z(d) certificate reads the one set of y's
    # lanes, and w(d)'s are shared with w(d)'s own row, so a run at m = 16
    # certifies y and w(0..3) once each
    built = []
    original = neurec.verify.certify_lanes

    def counted(cs, init, *args):
        built.append((cs, tuple(init)))
        return original(cs, init, *args)

    monkeypatch.setattr("neurec.verify.certify_lanes", counted)
    assert main(argv) == 0
    assert len(built) == len(set(built)) == 5


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


def test_construct_mode_keeps_no_member(monkeypatch, capsys):
    # construct proves nothing, so it opens no run memo to keep members in
    def no_memo():
        raise AssertionError("construct opened proof_memo")

    monkeypatch.setattr("neurec.cli.proof_memo", no_memo)
    assert main(["--mode", "construct", "--m", "6"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cycle_reports"]) == 9


def test_construct_mode_compiles_nothing(monkeypatch, capsys):
    # a member compiles its system on first use, and construct uses none
    def no_compile(system):
        raise AssertionError(f"construct compiled {system.label}")

    monkeypatch.setattr("neurec.verify.compile_system", no_compile)
    monkeypatch.setattr("neurec.cycles.compile_system", no_compile)
    assert main(["--mode", "construct", "--m", "6", "--m", "11"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cycle_reports"]) == 9 + 13


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


@pytest.mark.parametrize("fmt, suffix", [("text-bits", "txt"), ("run-length", "rle")])
def test_simulate_traces_read_back_as_stepped(tmp_path, fmt, suffix):
    # 4992 steps run past every z(d) transient at m = 6, so each file holds
    # a periodic fill, and z(0)'s ends in a 1, which the row's ones counts;
    # the reference slides the window one step at a time
    out = tmp_path / "sim"
    argv = ["--mode", "simulate", "--m", "6", "--system", "z", "--steps", "4992"]
    assert main([*argv, "--emit-traces", "--trace-format", fmt, "--out", str(out)]) == 0
    params = window_params(6)
    rows = read_report(out)["cycle_reports"]
    for d, row in zip(range(params.rho), rows, strict=True):
        z = build_z(params, d)
        cs = compile_system(z)
        word = word_from_bits(z.init)
        expect = list(z.init)
        for _ in range(4992):
            word = advance_word(cs, word, 1)
            expect.append(word & 1)
        assert import_trace(out / f"z_m_6_d_{d}.{suffix}") == expect
        assert (row["trace_len"], row["ones"]) == (len(expect), sum(expect))


def test_simulate_defaults_to_y(capsys):
    code = main(["--mode", "simulate", "--m", "6"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (row,) = report["cycle_reports"]
    assert row["system"] == "y[m=6]"
    assert row["steps"] == 2 * 140


@pytest.mark.parametrize(
    "selection, labels",
    [
        (["--system", "x", "--lane", "1"], ["x[m=6,i=1]"]),
        (["--system", "w", "--d", "1"], ["w[m=6,d=1]"]),
        (["--system", "z"], ["z[m=6,d=0]", "z[m=6,d=1]"]),
        (
            [],
            [
                "x[m=6,i=0]", "x[m=6,i=1]", "v[m=6,i=0]", "v[m=6,i=1]", "y[m=6]",
                "w[m=6,d=0]", "w[m=6,d=1]", "z[m=6,d=0]", "z[m=6,d=1]",
            ],
        ),
    ],
)
def test_member_modes_list_the_same_members(capsys, selection, labels):
    for mode in ("construct", "cycle", "simulate"):
        assert main(["--mode", mode, "--m", "6", *selection]) == 0
        rows = json.loads(capsys.readouterr().out)["cycle_reports"]
        # without --system, simulate traces y alone
        expect = ["y[m=6]"] if mode == "simulate" and not selection else labels
        assert [row.get("label", row.get("system")) for row in rows] == expect, mode
        assert all(row.get("m", 6) == 6 for row in rows), mode


# --- simulate traces read off certificates ----------------------------------------


def laned_members(p):
    """y, every w(d) and every z(d); only z(d)'s handoff is not None."""
    yield member(p, "y")
    for family in "wz":
        for d in range(p.rho):
            yield member(p, family, d)


def fresh(mem):
    """A copy of mem that keeps no proof or certificate yet."""
    return Member(mem.family, mem.index, mem.system, mem.predicted, mem.handoff)


def step_counts(mem):
    """Simulations that end at S_0, S_1, past T + P, and for z(d) just
    before, exactly at and one past its handoff time at."""
    counts = {0, 1, sum(mem.predicted) + 1}
    if mem.handoff is not None:
        at = mem.handoff().at
        counts |= {at - 1, at, at + 1}
    return sorted(counts)


def assert_simulate_traces_equal_run(m, oracle_steps):
    # each trace, whether read off the uncapped certificate or as simulate
    # takes it, equals run's; run's equals the dense oracle on its first
    # oracle_steps steps
    p = window_params(m)
    for mem in laned_members(p):
        s = mem.system
        cs = compile_system(s)
        oracle = dense_oracle_run(s, s.init, oracle_steps)
        for steps in step_counts(mem):
            want = run(cs, s.init, steps)
            n = min(len(want), len(oracle))
            assert want[:n] == oracle[:n], (s.label, steps)
            trace = simulated_trace(mem, steps)[0]
            assert trace[:] == want, (s.label, steps)
            blocks = (trace[a : a + 999] for a in range(0, len(trace), 999))
            assert b"".join(blocks) == want, (s.label, steps)
            cert, _ = _certificate(fresh(mem), 10**9)
            assert cert.closes and cert.trace(0, s.memory + steps) == want, (s.label, steps)


@pytest.mark.parametrize("m", [6, 11])
def test_simulate_traces_equal_run_and_the_oracle(m):
    # m = 6 is checked against the oracle in full, m = 11 on its first
    # 4,096 steps, which pass z(0)'s and z(1)'s handoffs
    assert_simulate_traces_equal_run(m, oracle_steps=4096)


def test_a_wrong_lane_trace_fails_the_equality_check(monkeypatch):
    # negative control: one flipped byte in every lane trace is seen
    exact = Lanes.trace

    def flipped(self, start, stop):
        buf = exact(self, start, stop)
        buf[-1:] = bytes(1 - b for b in buf[-1:])
        return buf

    monkeypatch.setattr(Lanes, "trace", flipped)
    with pytest.raises(AssertionError):
        assert_simulate_traces_equal_run(6, oracle_steps=0)


SIMULATED = dict.fromkeys("xvywz", "simulated")
# at m = 11 only y (T + P = 62,031) and z(2) (62,548) pass DETECT_CUTOFF
PAST_CUTOFF = SIMULATED | {"y": "lanes", "z": ("simulated", "simulated", "handoff")}


@pytest.mark.parametrize(
    "m, steps, routes",
    [
        # every m = 6 orbit is shorter than DETECT_CUTOFF = 4,096 slides,
        # so run takes at most that many however many steps are asked
        (6, "5000", SIMULATED),
        # run would take min(T + P, steps) slides: the certificate is read
        # only when that exceeds 4,096, as with the default 2 * 585 steps
        # it does not
        (11, None, SIMULATED),
        (11, "4096", SIMULATED),
        (11, "4097", PAST_CUTOFF),
        (11, "70000", PAST_CUTOFF),
    ],
)
def test_simulate_rows_report_their_route(tmp_path, m, steps, routes):
    for family, want in routes.items():
        out = tmp_path / family
        argv = ["--mode", "simulate", "--m", str(m), "--system", family, "--out", str(out)]
        assert main(argv + (["--steps", steps] if steps else [])) == 0
        rows = read_report(out)["cycle_reports"]
        got = tuple(row["route"] for row in rows)
        assert got == (want if isinstance(want, tuple) else (want,) * len(rows)), family
        for row in rows:
            assert (row["certificate_steps"] > 0) == (row["route"] != "simulated")
            assert row["certificate_steps"] <= row["steps"]


@pytest.mark.parametrize("shift", [-1, 1])
def test_an_off_by_one_handoff_simulates_the_same_trace(tmp_path, monkeypatch, shift):
    # negative control: z(2) at m = 11 is past DETECT_CUTOFF and reads
    # "handoff" with its own handoff time, but one off by one cannot close,
    # so the row is simulated and its trace is still run's
    def shifted(p, d):
        handoff = z_handoff(p, d)
        return handoff._replace(at=handoff.at + shift)

    monkeypatch.setattr("neurec.verify.z_handoff", shifted)
    out = tmp_path / "sim"
    argv = ["--mode", "simulate", "--m", "11", "--system", "z", "--d", "2", "--steps", "5000"]
    assert main([*argv, "--emit-traces", "--trace-format", "run-length", "--out", str(out)]) == 0
    rows = read_report(out)["cycle_reports"]
    assert [(row["route"], row["certificate_steps"]) for row in rows] == [("simulated", 0)]
    p = window_params(11)
    z = build_z(p, 2)
    cs = compile_system(z)
    shifted_z = Member("z", 2, z, predicted_cycle(p, "z", 2), partial(shifted, p, 2))
    cert, _ = _certificate(shifted_z, 10**9)
    assert not cert.closes
    assert import_trace(out / "z_m_11_d_2.rle") == list(run(cs, z.init, 5000))


@pytest.mark.parametrize("m", [6, 11])
def test_simulate_below_the_certificate_cost_runs_the_same_trace(monkeypatch, m):
    # negative control: with the cutoff at 0 every certificate is tried,
    # and steps too few for it fall back to run; a z(d) handoff
    # certificate closes at exactly its uncapped cost
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)
    p = window_params(m)
    for mem in laned_members(p):
        s = mem.system
        cs = compile_system(s)
        _, cost = _certificate(fresh(mem), 10**9)
        for steps in (cost // 2, cost - 1) if mem.family == "z" else (cost // 2,):
            trace, route, spent = simulated_trace(mem, steps)
            assert (route, spent) == ("simulated", 0), (s.label, steps)
            assert trace[:] == run(cs, s.init, steps), (s.label, steps)
        if mem.family == "z":
            assert simulated_trace(mem, cost)[1:] == ("handoff", cost), s.label


@pytest.mark.long
def test_long_tier_simulated_z_traces_at_m16_equal_run(tmp_path):
    # the traces16 benchmark command: 10^6 steps of every z(d) at m = 16,
    # whose transients run to 12,264,800 slides
    out = tmp_path / "z16"
    argv = ["--mode", "simulate", "--m", "16", "--system", "z", "--steps", "1000000"]
    assert main([*argv, "--emit-traces", "--trace-format", "run-length", "--out", str(out)]) == 0
    rows = read_report(out)["cycle_reports"]
    assert [row["route"] for row in rows] == ["handoff"] * 4
    p = window_params(16)
    for d in range(p.rho):
        z = build_z(p, d)
        want = run(compile_system(z), z.init, 1_000_000)
        assert bytes(import_trace(out / f"z_m_16_d_{d}.rle")) == want, d


def test_simulate_writes_each_trace_before_tracing_the_next_member(tmp_path, monkeypatch):
    # each trace file is written before the next member is traced; that a
    # run holds no whole trace meanwhile is test_simulate_peaks_alike_at_any_steps
    calls = []
    traced, export = neurec.cli.simulated_trace, neurec.cli.export_trace

    def tracing(mem, steps):
        calls.append(("trace", mem.system.label))
        return traced(mem, steps)

    def exporting(trace, path, *args):
        calls.append(("export", Path(path).name))
        export(trace, path, *args)

    monkeypatch.setattr("neurec.cli.simulated_trace", tracing)
    monkeypatch.setattr("neurec.cli.export_trace", exporting)
    argv = ["--mode", "simulate", "--m", "6", "--m", "11", "--system", "z", "--steps", "500"]
    assert main([*argv, "--emit-traces", "--out", str(tmp_path / "sim")]) == 0
    assert calls == [
        (what, f"z[m={m},d={d}]" if what == "trace" else f"z_m_{m}_d_{d}.txt")
        for m, rho in ((6, 2), (11, 3))
        for d in range(rho)
        for what in ("trace", "export")
    ]


# how far tracemalloc's peak of a simulate run may grow from 200,000 steps to
# 2,000,000: a block is 64 KiB, and holding any one trace whole would add 1.8 MB
PEAK_GROWTH = 64 * 1024


@pytest.mark.parametrize("fmt", ["text-bits", "run-length"])
def test_simulate_peaks_alike_at_any_steps(tmp_path, fmt):
    # every trace is read in blocks off its first-repeat prefix or its
    # certificate, so ten times the steps peaks within PEAK_GROWTH: here z(0)
    # and z(1) at m = 11 are simulated and z(2) is read off its handoff
    def peak(steps):
        argv = ["--mode", "simulate", "--m", "11", "--system", "z", "--steps", str(steps)]
        argv += ["--emit-traces", "--trace-format", fmt, "--out", str(tmp_path / str(steps))]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200_000)  # imports and caches of a first run
    low, high = peak(200_000), peak(2_000_000)
    assert high - low < PEAK_GROWTH, (low, high)
    rows = read_report(tmp_path / "2000000")["cycle_reports"]
    assert [row["route"] for row in rows] == ["simulated", "simulated", "handoff"]


def test_simulated_z_traces_past_several_periods_are_one_line_per_run(tmp_path, monkeypatch):
    # 70,000 steps at m = 11 run past T + 3P of every z(d): z(0) (T 583,
    # P 2,001) and z(1) (T 3,194, P 69) repeat one period's lines, and z(2)
    # (T 62,547, P 1) ends in a constant run
    cuts = []
    periodic_cut = neurec.cli._periodic_cut
    monkeypatch.setattr(
        "neurec.cli._periodic_cut", lambda *a: cuts.append(periodic_cut(*a)) or cuts[-1]
    )
    out = tmp_path / "sim"
    argv = ["--mode", "simulate", "--m", "11", "--system", "z", "--steps", "70000"]
    assert main([*argv, "--emit-traces", "--trace-format", "run-length", "--out", str(out)]) == 0
    assert [cut > 0 for cut in cuts] == [True, True, False]
    p = window_params(11)
    for d in range(p.rho):
        z = build_z(p, d)
        want = per_run_lines(run(compile_system(z), z.init, 70_000))
        assert (out / f"z_m_11_d_{d}.rle").read_bytes() == want, d


def test_simulated_traces_are_read_once_and_count_their_ones(tmp_path, monkeypatch):
    # the run-length export reads each byte of z(0..2) at m = 11 once: their
    # periods, 2,001, 69 and 1, are carried by the check, which feeds the
    # encoder the bytes it reads; each row's ones is its file's 1s
    reads = {}
    traced = neurec.cli.simulated_trace

    def tracing(mem, steps):
        trace, route, spent = traced(mem, steps)
        seen = reads[mem.system.label] = bytearray(len(trace))

        def read(start, stop):
            seen[start:stop] = bytes(b + 1 for b in seen[start:stop])
            return trace.read(start, stop)

        return Trace(read, len(trace)), route, spent

    monkeypatch.setattr("neurec.cli.simulated_trace", tracing)
    out = tmp_path / "sim"
    argv = ["--mode", "simulate", "--m", "11", "--system", "z", "--steps", "70000"]
    assert main([*argv, "--emit-traces", "--trace-format", "run-length", "--out", str(out)]) == 0
    assert {label: set(seen) for label, seen in reads.items()} == {
        f"z[m=11,d={d}]": {1} for d in range(3)
    }
    for row in read_report(out)["cycle_reports"]:
        d = row["system"][-2]
        assert row["ones"] == import_trace(out / f"z_m_11_d_{d}.rle").count(1), row["system"]


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
    assert res["passed"] and res["detail"]["unforced_slide"] is None


def test_basin_mode_covers_every_free_prefix(capsys):
    # 2^9 prefixes at m = 11, d = 0, all of them forced; --seed changes nothing
    for seed in ("5", "6"):
        code = main(["--mode", "basin", "--m", "11", "--d", "0", "--seed", seed])
        assert code == 0
        (res,) = json.loads(capsys.readouterr().out)["claim_results"]
        assert res["detail"]["variants_total"] == 2 ** res["detail"]["free_bits"] == 512
        assert res["detail"]["unforced_slide"] is None
        assert res["detail"] == check_basin(11, 0).detail


# --- configuration ------------------------------------------------------------------


def test_repeated_scales_and_steps_run_once(tmp_path, capsys):
    assert main(["--mode", "verify", "--m", "6", "--m", "6", "--claims", "prop2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["config"]["m"] == [6]
    assert captured.err.splitlines() == ["PASS prop2 m=6", "neurec: 1 passed, 0 failed, 0 skipped"]
    assert main(["--mode", "verify", "--m", "6", "--claims", "prop1,prop2,prop1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["config"]["claims"] == ["prop1", "prop2"]
    assert captured.err.splitlines() == [
        "PASS prop1 m=6", "PASS prop2 m=6", "neurec: 2 passed, 0 failed, 0 skipped"
    ]
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


@pytest.mark.parametrize(
    "values, message",
    [
        ({"m": 6}, "config key 'm' must be list[int], got 6"),
        ({"m": [6], "budget": "10"}, "config key 'budget' must be int | None, got '10'"),
        ({"m": [6], "claims": "prop1"}, "config key 'claims' must be list[str] | None, got 'prop1'"),
        ({"m": [6], "long": 1}, "config key 'long' must be bool, got 1"),
    ],
)
def test_config_file_type_error_names_the_annotation(tmp_path, capsys, values, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"neurec: {message}\n"


def test_each_config_starts_from_its_own_defaults():
    first = neurec.cli.ExperimentConfig()
    first.m.append(16)
    assert neurec.cli.ExperimentConfig().m == [6, 11]
    assert vars(neurec.cli.ExperimentConfig()) == {
        "mode": "verify", "m": [6, 11], "d": None, "system": None, "lane": None, "steps": None,
        "budget": None, "claims": None, "out": None, "emit_traces": False,
        "trace_format": "text-bits", "seed": 0, "long": False,
    }


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
        # only verify reads --claims
        ["--mode", "chain", "--m", "6", "--claims", "prop1"],
        ["--mode", "basin", "--m", "6", "--claims", "basin"],
        ["--mode", "cycle", "--m", "6", "--claims", "prop1"],
        ["--config", {"mode": "cycle", "m": [6], "claims": ["prop1"]}],
        # only simulate reads --steps, --emit-traces and --trace-format
        ["--mode", "verify", "--claims", "prop2", "--m", "6", "--system", "x", "--lane", "7",
         "--budget", "3", "--steps", "4"],
        ["--mode", "cycle", "--m", "6", "--steps", "4"],
        ["--mode", "cycle", "--m", "6", "--emit-traces", "--out", "OUT"],
        ["--mode", "construct", "--m", "6", "--trace-format", "run-length"],
        ["--config", {"mode": "basin", "m": [6], "steps": 4}],
        ["--config", {"mode": "chain", "m": [6], "emit_traces": True, "out": "OUT"}],
        ["--config", {"mode": "verify", "m": [6], "trace_format": "run-length"}],
        # only construct, cycle and simulate read --system and --lane
        ["--mode", "verify", "--m", "6", "--claims", "prop2", "--system", "x"],
        ["--mode", "basin", "--m", "6", "--lane", "0"],
        ["--config", {"mode": "verify", "system": "q"}],
        ["--config", {"mode": "chain", "m": [6], "lane": 0}],
        # construct and simulate do not read --budget
        ["--mode", "construct", "--m", "6", "--budget", "10"],
        ["--mode", "simulate", "--m", "6", "--budget", "10"],
        ["--config", {"mode": "simulate", "m": [6], "budget": 10}],
        # in the member modes only x and v read --lane and only w and z read --d
        ["--mode", "cycle", "--m", "6", "--system", "x", "--d", "1"],
        ["--mode", "cycle", "--m", "6", "--system", "y", "--lane", "1"],
        ["--mode", "construct", "--m", "6", "--system", "z", "--lane", "0"],
        ["--mode", "simulate", "--m", "6", "--lane", "0", "--steps", "3"],  # simulate selects y
        ["--config", {"mode": "simulate", "m": [6], "system": "v", "d": [0]}],
        # a family outside x, v, y, w, z
        ["--config", {"mode": "cycle", "m": [6], "system": "q"}],
        # config values no flag can give
        ["--config", {"mode": "bogus"}],
        ["--config", {"trace_format": "bogus"}],
        ["--config", {"m": []}],
        # an empty d list selects nothing to run
        ["--config", {"mode": "cycle", "m": [6], "system": "w", "d": []}],
        ["--config", {"mode": "basin", "m": [6], "d": []}],
        # d = 2 is on m = 11's range but off m = 6's: no m = 11 trace is written first
        ["--mode", "simulate", "--m", "11", "--m", "6", "--system", "z", "--d", "2",
         "--steps", "100", "--emit-traces", "--out", "OUT"],
        # --steps past MAX_STEPS, one too large for a machine int and one that
        # once ran out of memory, and a negative one
        ["--mode", "simulate", "--m", "6", "--system", "v", "--lane", "0",
         "--steps", "100000000000000000000"],
        ["--mode", "simulate", "--m", "6", "--steps", str(10**12), "--emit-traces", "--out", "OUT"],
        ["--config", {"mode": "simulate", "m": [6], "steps": MAX_STEPS + 1}],
        ["--mode", "simulate", "--m", "6", "--steps", "-1"],
    ],
)
def test_config_errors_exit_2(argv, tmp_path, capsys):
    # OUT stands for a fresh output directory, which no rejected run writes
    out = tmp_path / "out"
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            cfg.write_text(json.dumps(arg).replace('"OUT"', json.dumps(str(out))))
            argv = argv[:i] + [str(cfg)] + argv[i + 1 :]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("neurec: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_steps_past_the_ceiling_name_steps(capsys):
    # MAX_STEPS itself is a valid step count (nothing here runs); one more,
    # or a negative count, is rejected by a message that names --steps
    parse = neurec.cli._build_parser().parse_args
    config = neurec.cli._merge_config(parse(["--mode", "simulate", "--steps", str(MAX_STEPS)]))
    assert config.steps == MAX_STEPS
    for steps in (MAX_STEPS + 1, 10**20, -1):
        assert main(["--mode", "simulate", "--m", "6", "--steps", str(steps)]) == 2
        assert "--steps" in capsys.readouterr().err, steps


@pytest.mark.parametrize(
    "argv",
    [
        # --seed and --long apply in every mode; the benchmark passes --seed to simulate
        ["--mode", "simulate", "--m", "6", "--system", "x", "--lane", "0", "--steps", "4",
         "--seed", "3", "--trace-format", "run-length"],
        ["--mode", "construct", "--m", "6", "--system", "v", "--lane", "1", "--seed", "3"],
        ["--mode", "cycle", "--m", "6", "--system", "w", "--d", "0", "--budget", "10000"],
        # without --system every family is selected, so some family reads each
        ["--mode", "cycle", "--m", "6", "--lane", "0"],
        ["--mode", "cycle", "--m", "6", "--d", "0"],
        ["--mode", "verify", "--m", "6", "--claims", "prop2", "--no-emit-traces", "--seed", "3"],
    ],
)
def test_settings_a_mode_reads_are_accepted(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err


def test_scale_rejection_paths(capsys):
    # a scale the construction rejects (rho = 1 at m = 2..4) is
    # configuration trouble in every mode, the claim modes included: exit 2
    # with one neurec: line and no claim lines
    for mode in MODES:
        for m in (2, 3, 4):
            assert main(["--mode", mode, "--m", str(m)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("neurec: ") and len(err.splitlines()) == 1, (mode, m, err)
    # a claim subset, a scale-free claim and a valid scale beside it change nothing
    for argv in (["--claims", "prop1"], ["--claims", "divisor_rule"], ["--m", "6"]):
        assert main(["--mode", "verify", "--m", "4", *argv]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1, argv


SRC = Path(__file__).resolve().parent.parent / "src"


def per_run_lines(trace: bytes) -> bytes:
    """The run-length file written one formatted line per run."""
    lines = "".join(f"{run[0][0]}×{len(run[0])}\n" for run in re.finditer(rb"\x00+|\x01+", trace))
    return (lines or "\n").encode()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 1),
    st.lists(st.one_of(st.integers(1, 4), st.integers(1, 2 * _RUN_BLOCK)), max_size=40),
)
@example(0, [])
@example(0, [3 * _RUN_BLOCK])
@example(1, [3 * _RUN_BLOCK])
@example(0, [1] * (2 * _RUN_BLOCK + 5))
@example(1, [_RUN_BLOCK, _RUN_BLOCK, 1])
@example(0, [_RUN_BLOCK - 1, 2, _RUN_BLOCK])
@example(1, [_WRITE - 1, 1, _WRITE])
@example(0, [_WRITE + _RUN_BLOCK, 3 * _WRITE])
def test_run_length_blocks_write_every_run_once(tmp_path_factory, first, runs):
    # export_trace reads the trace in blocks and formats it in smaller ones;
    # a run that crosses the edge of either is carried into the next, and
    # the file equals one line per run; it returns the trace's 1s, counted
    # on those blocks, for bytes and a Trace read by range, in both formats
    trace = b"".join(bytes([(first + i) % 2]) * n for i, n in enumerate(runs))
    path = tmp_path_factory.mktemp("blocks") / "t.rle"
    assert export_trace(trace, path, "run-length", 5) == trace.count(1)
    assert path.read_bytes() == per_run_lines(trace)
    assert import_trace(path) == list(trace)
    ranged = Trace(lambda start, stop: trace[start:stop], len(trace))
    for source in (trace, ranged):
        for fmt in TRACE_FORMATS:
            assert export_trace(source, path, fmt, 5) == trace.count(1), fmt


@pytest.mark.parametrize("memory", [0, 1, 7, _WRITE + 1])
def test_text_bits_blocks_hold_whole_lines(tmp_path, memory):
    # a trace of several write blocks reads as lines of memory symbols each
    trace = bytes(i * 7919 % 11 % 2 for i in range(3 * _WRITE + 5))
    path = tmp_path / "t.txt"
    export_trace(trace, path, "text-bits", memory)
    chars = "".join(map(str, trace))
    width = memory or len(chars)
    # compared as lists of lines, whose first difference a failure names at once
    lines = [chars[i : i + width] for i in range(0, len(chars), width)]
    assert path.read_text().split("\n") == [*lines, ""]


@st.composite
def hinted_periodic_traces(draw):
    """A random transient, then a random cycle repeated (sometimes past
    _WRITE bytes, with one byte flipped), and a (T, P) hint for it: the
    right one, or one that is wrong, past the end, P = 1, P = 2 or T = 0."""
    transient = bytes(draw(st.lists(st.integers(0, 1), max_size=40)))
    cycle = bytes(draw(st.lists(st.integers(0, 1), min_size=1, max_size=12)))
    reps = draw(st.integers(0, 40) | st.integers(_WRITE // len(cycle), _WRITE // len(cycle) + 40))
    trace = bytearray(transient + cycle * reps + cycle[: draw(st.integers(0, len(cycle)))])
    if trace and draw(st.booleans()):
        trace[draw(st.integers(0, len(trace) - 1))] ^= 1
    t, p = len(transient), len(cycle)
    right = [(t, p), (t + 3, 2 * p), (0, p), (t, 1), (t, 2), (len(trace), p), (t, len(trace))]
    wrong = st.tuples(st.integers(0, len(trace) + 2), st.integers(1, 2 * p + 2))
    return bytes(trace), draw(st.one_of(st.sampled_from(right), wrong))


def flip_last(trace: bytes) -> bytes:
    return flip_at(trace, len(trace) - 1)


def flip_at(trace: bytes, i: int) -> bytes:
    return trace[:i] + bytes([1 - trace[i]]) + trace[i + 1 :]


# a period longer than a block, which the check reads a second time a period on
LONG_CYCLE = bytes(i * 7919 % 11 % 2 for i in range(_WRITE + 5))


@settings(max_examples=80, deadline=None)
@given(hinted_periodic_traces())
@example((b"\x01" * 3 + b"\x00" * 50, (3, 1)))  # a constant tail: no change of bit after T
@example((b"\x00\x01" * 40, (0, 2)))
@example((b"\x00" + b"\x01\x01\x00" * _WRITE, (1, 3)))  # more periods than one write holds
@example((b"\x00" + b"\x01\x01\x00" * _WRITE + b"\x01", (1, 3)))  # wrong in the last byte only
# wrong only at byte _WRITE - 2, late in the first chunk the check compares
@example((b"\x01\x01\x00" * 21_844 + b"\x01" * 3 + b"\x01\x01\x00" * 21_844, (0, 3)))
# wrong only in the last byte of the last whole period, which one comparison
# alone reads, the last of a block: P = 3 after a change of bit at 1, and a
# period longer than a block after one at 3
@example((flip_last(b"\x01\x00\x00" * 21_846 + b"\x01"), (0, 3)))
@example((flip_last(b"\x01\x00\x00" * 21_846 + b"\x01\x00"), (0, 3)))  # wrong last byte, read alone in a last block
@example((b"\x01" + LONG_CYCLE * 3 + LONG_CYCLE[:9], (1, len(LONG_CYCLE))))
@example((flip_last(b"\x01" + LONG_CYCLE * 3 + LONG_CYCLE[:2]), (1, len(LONG_CYCLE))))
# wrong only at byte _WRITE, the first of the second block, whose one
# comparison, with the byte P before, reads the bytes carried from the first
@example((flip_at(b"\x01\x00\x00" * (_WRITE // 3 + 1), _WRITE)[: _WRITE + 2], (0, 3)))
# the longest period whose bytes are carried, and the shortest read again
@example((b"\x01" + LONG_CYCLE[:_WRITE] * 3 + LONG_CYCLE[:9], (1, _WRITE)))
@example((flip_last(b"\x01" + LONG_CYCLE[: _WRITE + 1] * 3 + LONG_CYCLE[:9]), (1, _WRITE + 1)))
def test_a_hinted_trace_file_is_the_unhinted_one(tmp_path_factory, case):
    # the hint's (T, P) is checked on the bytes, so right or wrong it leaves
    # the file as one line per run (compared as lists of lines, whose first
    # difference a failure names at once) and the count of 1s returned
    trace, hint = case
    path = tmp_path_factory.mktemp("hinted") / "t.rle"
    want = per_run_lines(trace).split(b"\n")
    assert export_trace(trace, path, "run-length", 5, hint) == trace.count(1)
    assert path.read_bytes().split(b"\n") == want
    assert export_trace(trace, path, "run-length", 5) == trace.count(1)
    assert path.read_bytes().split(b"\n") == want
    # a Trace is read by the same slices, a range at a time
    ranged = Trace(lambda start, stop: trace[start:stop], len(trace))
    assert export_trace(ranged, path, "run-length", 5, hint) == trace.count(1)
    assert path.read_bytes().split(b"\n") == want
    assert export_trace(ranged, path, "text-bits", 5, hint) == trace.count(1)
    assert export_trace(trace, path, "text-bits", 5, hint) == trace.count(1)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--mode", "verify", "--m", "6", "--claims", "prop2"], 0),
        (["--mode", "verify", "--m", "6", "--claims", "z_summary", "--budget", "50"], 1),
        (["--mode", "verify", "--m", "4"], 2),
        (["--mode", "simulate", "--m", "6", "--system", "v", "--lane", "0", "--steps", "1e20"], 2),
    ],
)
def test_exit_contract_through_the_module_entry_point(tmp_path, argv, code):
    # python -m neurec.cli in a fresh interpreter, as a user runs it
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "neurec.cli", *argv],
        cwd=tmp_path,
        env=os.environ | {"PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    # against a bare interpreter, so that what site loads on a given host does not count
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def loaded(statement):
        code = f"{statement}; import sys; print(' '.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=os.environ | {"PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import neurec.cli") - loaded("pass")
    assert "neurec.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_run_length_traces_are_utf8_in_an_ascii_locale(tmp_path):
    # the C locale with no UTF-8 coercion encodes text as ASCII; trace files
    # are written and read as UTF-8 regardless
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = os.environ | {
        "PYTHONPATH": path, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
    }
    argv = ["--mode", "simulate", "--m", "6", "--emit-traces", "--trace-format", "run-length"]

    def python(*args):
        proc = subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    python("-m", "neurec.cli", *argv, "--out", "out")
    assert b"\xc3\x97" in (tmp_path / "out" / "y_m_6.rle").read_bytes()
    read = "from neurec.cli import import_trace; print(bytes(import_trace('out/y_m_6.rle')).hex())"
    (row,) = read_report(tmp_path / "out")["cycle_reports"]
    y = build_y(window_params(6))
    assert bytes.fromhex(python("-c", read)) == run(compile_system(y), y.init, row["steps"])


def test_out_of_memory_exits_2_without_a_traceback(monkeypatch, capsys):
    # a scale too large to build: the builder's MemoryError is configuration
    # trouble, not a crash (raised here without allocating anything)
    def too_large(params):
        raise MemoryError

    monkeypatch.setattr("neurec.construction.single_weights", too_large)
    assert main(["--mode", "construct", "--m", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("neurec: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_bad_mode_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "warp"])
    assert exc.value.code == 2
