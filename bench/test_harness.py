"""Fast self-test of the benchmark harness (no CLI pass is run).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import gate
import run
import spans

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
EXPECTED = json.loads((HERE / "expected.json").read_text())


def report_from_pins(pins: dict) -> dict:
    """A report.json whose instances and (T, P) values are exactly the pins."""
    results = {}
    for key in pins["instances"]:
        claim, *params = key.split()
        results[key] = {
            "claim": claim,
            "params": {k: int(v) for k, v in (p.split("=") for p in params)},
            "passed": True,
            "detail": {},
        }
    for path, (t, p) in pins["cycles"].items():
        key, *inner = path.split("/")
        node = results[key]["detail"]
        for name in inner:
            node = node.setdefault(name, {})
        node |= {"T": t, "P": p}
    return {"claim_results": list(results.values())}


def test_gate_accepts_the_pinned_report():
    for workload in ("desk", "proofs16"):
        pins = EXPECTED[workload]
        assert gate.check_claims(report_from_pins(pins), 0, pins) == (len(pins["instances"]), [])


def test_gate_rejects_a_wrong_period():
    pins = EXPECTED["proofs16"]
    report = report_from_pins(pins)
    chain = next(r for r in report["claim_results"] if r["claim"] == "chain")
    chain["detail"]["systems"]["z1"]["P"] = 3034
    attempted, notes = gate.check_claims(report, 0, pins)
    assert attempted == 6
    assert len(notes) == 1 and notes[0].startswith("chain m=16:")


def test_gate_rejects_a_missing_instance():
    pins = EXPECTED["desk"]
    report = report_from_pins(pins)
    kept = [r for r in report["claim_results"] if gate.instance_key(r) != "basin m=11 d=1"]
    report["claim_results"] = kept
    attempted, notes = gate.check_claims(report, 0, pins)
    assert attempted == 49
    assert notes == ["basin m=11 d=1: missing"]


def test_gate_rejects_extra_failing_and_crashed_passes():
    pins = EXPECTED["proofs16"]
    report = report_from_pins(pins)
    report["claim_results"][0]["passed"] = False
    extra = copy.deepcopy(report["claim_results"][1])
    extra["params"]["m"] = 21
    report["claim_results"].append(extra)
    attempted, notes = gate.check_claims(report, 0, pins)
    assert attempted == 7
    assert sorted(n.split(":")[0] for n in notes) == ["y_cycle m=16", "z_summary m=21 d=0"]
    assert len(gate.check_claims(report_from_pins(pins), 1, pins)[1]) == 6
    assert len(gate.check_claims(None, 0, pins)[1]) == 6


def test_trace_check_against_reference_and_pinned_cycle():
    yref = [0, 1, 0, 1, 1, 1, 1, 1, 1, 1]
    trace = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    pin = {"length": 10, "ones": 5, "agrees_with_y_until": 3, "T": 0, "P": 2}
    assert gate.check_trace(trace, pin, yref) is None
    assert "not periodic" in gate.check_trace(trace, pin | {"P": 3}, yref)
    assert "transient" in gate.check_trace(trace, pin | {"T": 1}, yref)
    assert "leave y" in gate.check_trace(trace, pin | {"agrees_with_y_until": 2}, yref)
    flipped = trace[:2] + [1] + trace[3:]
    assert "shared prefix" in gate.check_trace(flipped, pin | {"ones": 6}, yref)


def test_y_reference_matches_y_closed_form():
    from neurec.construction import y_closed_form
    from neurec.numtheory import window_params

    params = window_params(11)
    yref = gate.y_reference(params.primes, params.beta_m, params.rho, 5000)
    assert yref == [y_closed_form(params, t) for t in range(5000)]
    assert gate.check_y_reference(yref, y_closed_form, params, seed=1) == []
    assert gate.check_y_reference([1 - b for b in yref], y_closed_form, params, seed=1, samples=3)


def test_self_time_subtracts_nested_children():
    fake = [
        ("cli.main", 0.0, 10.0, -1),
        ("verify.check_chain", 1.0, 4.0, 0),
        ("engine.advance", 2.0, 3.0, 1),
        ("engine.compile", 5.0, 6.0, 0),
        ("import", 10.0, 10.5, -1),
    ]
    assert spans.self_times(fake) == [6.0, 2.0, 1.0, 1.0, 0.5]
    m = spans.layer_metrics({"spans": fake, "counts": {"engine.advance.steps": 4e6}})
    assert (m["cli.self_s"], m["verify.self_s"], m["engine.self_s"]) == (6.0, 2.0, 2.0)
    assert m["engine.advance.msteps_per_s"] == 4.0
    assert m["trace.self_s"] == 10.5


def test_self_time_merges_overlapping_children():
    fake = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("d", 9.0, 12.0, 0)]
    assert spans.self_times(fake)[0] == 10.0 - 6.0 - 1.0


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda cs, word, steps: word + 1, "engine.advance", spans.HOOKS["engine.advance"])
    outer = tracer.wrap(lambda n: inner(None, n, 7) * 2, "cycles.detect")
    assert outer(1) == 4
    assert tracer.spans == [("cycles.detect", 0.0, 3.0, -1), ("engine.advance", 1.0, 2.0, 0)]
    assert tracer.counts["engine.advance.steps"] == 7


def test_install_wraps_every_binding_of_a_layer_function():
    import neurec
    import neurec.cli

    tracer = spans.Tracer()
    spans.install(tracer, neurec)
    assert neurec.verify.detect_cycle is neurec.cycles.detect_cycle is neurec.detect_cycle
    assert neurec.cycles.advance_word is neurec.verify.advance_word
    assert neurec.cli.export_trace.__wrapped__.__module__ == "neurec.cli"
    assert all(r.passed for r in neurec.cli.run_claims(ms=(6,), claims=["chain"]))
    m = spans.layer_metrics(tracer.dump())
    # chain at m = 6 proves y, z(0) and z(1) by blind search
    assert (m["verify.instances"], m["verify.proofs.total"], m["verify.proofs.distinct"]) == (1, 3, 3)
    assert m["cycles.detect.calls"] == 3 and m["verify.claim.chain.s"] > 0


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_peak_rss_wrapper_runs_the_module_and_keeps_its_exit_code(tmp_path):
    out = tmp_path / "rss"
    ok = subprocess.run([sys.executable, str(HERE / "peak_rss.py"), str(out), "timeit", "-n", "1", "pass"])
    assert ok.returncode == 0 and int(out.read_text()) > 1000
    bad = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), str(out), "json.tool", str(tmp_path / "missing.json")],
        capture_output=True,
    )
    assert bad.returncode != 0 and int(out.read_text()) > 1000
