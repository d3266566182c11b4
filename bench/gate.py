"""Correctness gate for one benchmark pass.

A pass counts only if the CLI exited 0 and its outputs match literals
pinned in ``expected.json``: the exact set of ``(claim, m, d)`` instances,
each one PASS, and every measured ``(T, P)`` in the report.  For trace
workloads each written file is read back and compared against references
that do not use ``engine.run``.  Anything missing, extra or wrong counts as
a failed item.
"""

from __future__ import annotations

import random
from pathlib import Path


def instance_key(result: dict) -> str:
    """``claim m=.. d=..`` for one entry of ``report["claim_results"]``."""
    params = result["params"]
    parts = [result["claim"]] + [f"{k}={params[k]}" for k in ("m", "d") if k in params]
    return " ".join(parts)


def cycle_pairs(report: dict) -> dict[str, list[int]]:
    """Every measured ``[T, P]`` in the claim details, keyed by instance and path."""
    out: dict[str, list[int]] = {}

    def walk(node, key: str) -> None:
        if not isinstance(node, dict):
            return
        if "T" in node and "P" in node:
            out[key] = [node["T"], node["P"]]
        for name, child in sorted(node.items()):
            walk(child, f"{key}/{name}")

    for res in report.get("claim_results", []):
        walk(res["detail"], instance_key(res))
    return out


def check_claims(report: dict | None, exit_code: int, expected: dict) -> tuple[int, list[str]]:
    """Gate a verify-mode pass; return (instances attempted, failure notes).

    One failure note per failed instance, so ``len(notes)`` is the failed
    count.  A pass that did not exit 0 or left no report fails every
    expected instance.
    """
    want = expected["instances"]
    if report is None or exit_code != 0:
        return len(want), [f"{key}: exit {exit_code}" for key in want]
    bad: dict[str, str] = {}
    got = {instance_key(r): r for r in report["claim_results"]}
    if len(got) != len(report["claim_results"]):
        bad["duplicate"] = "an instance is reported twice"
    for key in want:
        if key not in got:
            bad[key] = "missing"
        elif not got[key]["passed"]:
            bad[key] = "FAIL"
    for key in sorted(set(got) - set(want)):
        bad[key] = "not on the pinned grid"
    pairs = cycle_pairs(report)
    for path, tp in expected["cycles"].items():
        key = path.split("/", 1)[0]
        if pairs.get(path) != tp and key not in bad:
            bad[key] = f"{path} measured {pairs.get(path)}, pinned {tp}"
    for path in sorted(set(pairs) - set(expected["cycles"])):
        key = path.split("/", 1)[0]
        bad.setdefault(key, f"{path} has no pinned (T, P)")
    return len(want) + len(set(bad) - set(want)), [f"{k}: {v}" for k, v in bad.items()]


def y_reference(primes, beta, rho: int, length: int) -> list[int]:
    """The de-shuffled interleave y(rho*q + i) = 1[(1 + q) mod p_i == beta_i]."""
    return [
        1 if (t // rho + 1) % primes[t % rho] == beta[t % rho] else 0 for t in range(length)
    ]


def check_y_reference(yref: list[int], y_closed_form, params, seed: int, samples: int = 256) -> list[str]:
    """Tie the fast reference to the package's own closed form on sampled positions."""
    rng = random.Random(seed)
    ts = rng.sample(range(len(yref)), min(samples, len(yref)))
    bad = [t for t in ts if yref[t] != y_closed_form(params, t)]
    return [f"y reference differs from y_closed_form at t={t}" for t in bad]


def check_trace(trace: list[int], pin: dict, yref: list[int]) -> str | None:
    """Check one read-back trace against the y prefix and its pinned cycle."""
    n = len(trace)
    if n != pin["length"]:
        return f"length {n}, pinned {pin['length']}"
    if sum(trace) != pin["ones"]:
        return f"{sum(trace)} ones, pinned {pin['ones']}"
    agree = min(pin["agrees_with_y_until"] + 1, n)
    if trace[:agree] != yref[:agree]:
        t = next(t for t in range(agree) if trace[t] != yref[t])
        return f"differs from y at t={t} inside the shared prefix"
    if agree < n and not (trace[agree] == 0 and yref[agree] == 1):
        return f"does not leave y at t={agree} as pinned"
    T, P = pin["T"], pin["P"]
    if T + P < n and trace[T + P :] != trace[T : n - P]:
        return f"not periodic with P={P} from T={T}"
    if 0 < T and T - 1 + P < n and trace[T - 1 + P] == trace[T - 1]:
        return f"transient shorter than pinned T={T}"
    return None


def check_traces(
    report: dict | None, exit_code: int, out_dir: Path, expected: dict, yref: list[int], import_trace
) -> tuple[int, list[str]]:
    """Gate a simulate pass that wrote traces; return (traces attempted, failure notes)."""
    want = expected["traces"]
    if report is None or exit_code != 0:
        return len(want), [f"{label}: exit {exit_code}" for label in want]
    bad: dict[str, str] = {}
    rows = {row["system"]: row for row in report["cycle_reports"]}
    for label, pin in want.items():
        path = out_dir / pin["file"]
        if label not in rows or not path.is_file():
            bad[label] = "missing"
            continue
        if rows[label]["ones"] != pin["ones"] or rows[label]["trace_len"] != pin["length"]:
            bad[label] = f"report row {rows[label]} disagrees with the pins"
            continue
        note = check_trace(import_trace(path), pin, yref)
        if note:
            bad[label] = note
    for label in sorted(set(rows) - set(want)):
        bad[label] = "not pinned"
    files = {p.name for p in out_dir.iterdir()} - {"report.json", "summary.csv"}
    for name in sorted(files - {pin["file"] for pin in want.values()}):
        bad[name] = "unexpected file"
    return len(want) + len(set(bad) - set(want)), [f"{k}: {v}" for k, v in bad.items()]
