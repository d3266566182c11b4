"""Machine checks for every claim the construction is supposed to satisfy.

Claims are data: one ordered table holds a Claim(name, grid, cost, run)
per checkable statement.  grid(params) lists the structurally valid
instances at one scale (keyword dicts, at most a bifurcation step d each)
and is None for the scale-free composition claims; cost states an
instance's predicted work and the cutoff it must stay within; run produces
the ClaimResult of one instance.  ALL_CLAIMS is the table's names in order,
claim_grid pairs each grid instance with its skip detail, and run_claims
loops over the table, on each claim's whole grid or on requested
bifurcation steps.  It is the one entry point of the test suite and of the
CLI's verify, chain and basin modes, so no other module knows a claim's
grid, cutoff or knobs.  attempt is the one place where an instance is
decided: skipped past its cutoff, failing on a proof or search past its
budget (BudgetExceeded) or a refuted prediction (PredictionFailed), or
whatever its check returns.

Some claims re-derive combinatorial facts (index-set cardinalities, weight
band sums, the two routes to the perturbation set, the chain update).  The
others simulate and compare against closed forms or predicted (transient,
period) pairs.  measure_cycle certifies every predicted pair: it measures
desk-sized orbits blind with detect_cycle and proves larger ones with
verify_predicted in one pass of T + P slides, and on either route a wrong
prediction raises PredictionFailed from verify_predicted's probes, so it
never comes back as a verdict.
Cutoffs below bound the work per claim instance.  Each grid lists every
structurally valid instance, and the table states each claim's predicted
work and cutoff; skip_detail compares the two, and an instance past its
cutoff is reported as skipped (passed None) rather than attempted and
aborted.

A run proves each distinct orbit once.  While run_claims runs, measure_cycle
remembers every completed proof under its compiled system, init and
prediction, so the chain reuses the proofs of y_cycle and z_summary, and a
detail's steps is the cost of that one proof.  The memo is dropped when
run_claims returns.  A certified proof also
reports its entry window S_T, so v_fixed's and the chain's all-zero
attractors are read from it rather than walking the transient again.
basin shares its reference proof with z_summary; each free-prefix variant
that merges into the reference window once its free bits slide out
provably has the same attractor, and only one that does not is searched.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable, Sequence

from . import construction as cons
from .construction import RecurrenceSystem
from .cycles import CycleReport, detect_cycle, verify_predicted
from .engine import advance_word, compile_system, run, walk, word_from_bits
from .errors import BudgetExceeded, HypothesisUnmet, PredictionFailed, RhoTooSmall
from .numtheory import WindowParams, cycle_lengths, window_params

__all__ = [
    "ALL_CLAIMS",
    "ClaimResult",
    "predicted_cycle",
    "measure_cycle",
    "check_phases",
    "check_chain",
    "check_basin",
    "check_composition",
    "attempt",
    "run_claims",
]

# Routing and feasibility bounds, in window slides.  measure_cycle routes on
# DETECT_CUTOFF; the claim table names which bound skips each claim's instances.
DETECT_CUTOFF = 1_000_000      # above this predicted T+P, verify instead of search
MEASURE_CUTOFF = 20_000_000    # above this predicted T+P, skip the proof
TRACE_CUTOFF = 2_000_000       # longest trace a phase comparison may record
BASIN_VARIANTS = 8             # free-prefix variants check_basin checks at most

# Completed proofs of the current run_claims call, keyed by (compiled system,
# init, predicted); None outside run_claims.
_proofs: dict | None = None

@dataclass
class ClaimResult:
    """One verified, refuted or skipped (passed None) claim instance."""

    claim: str
    params: dict
    passed: bool | None
    detail: dict = field(default_factory=dict)


def predicted_cycle(params: WindowParams, family: str, index: int | None = None) -> tuple[int, int]:
    """Formula-level (transient, period) for a family member.

    family picks the system: "x"/"v" take a lane index i, "w"/"z" a
    bifurcation step d, "y" takes none.
    """
    if family == "x":
        params.check_lane(index)
        return (0, params.primes[index])
    if family == "v":
        params.check_lane(index)
        return (params.k - params.primes[index], 1)
    if family == "y":
        return (0, cycle_lengths(params, 0)[2])
    if family == "w":
        params.check_lane(index, "d")
        l0 = cycle_lengths(params, index)[0]
        t = params.rho * (params.k - params.primes[index] - 1) + index + 1
        return (t, l0)
    if family == "z":
        params.check_lane(index, "d")
        l0, l1, _ = cycle_lengths(params, index)
        t = l1 + params.h + index + 1 - params.rho * (1 + params.primes[index])
        return (t, l0)
    raise ValueError(f"unknown family {family!r}")


def _default_budget(t: int, p: int, memory: int) -> int:
    return 6 * (t + p) + 4 * memory + 64


def measure_cycle(
    system: RecurrenceSystem,
    predicted: tuple[int, int],
    budget: int | None = None,
) -> CycleReport:
    """Certify a system's predicted (T, P) as its minimal pair.

    Orbits up to DETECT_CUTOFF are measured blind with detect_cycle; larger
    ones are proved with verify_predicted in exactly T + P slides.  On
    either route a refuted prediction (a search that disagrees or runs out
    of its default budget) goes to verify_predicted, which raises
    PredictionFailed naming the first probe it fails, so a returned report
    always equals the prediction.  A budget caps the proof: when T + P
    exceeds it, BudgetExceeded is raised before any step is taken.

    Inside run_claims a completed proof is remembered for the rest of that
    call, keyed by the compiled system, init and prediction, and a repeated
    request returns the same report without walking the orbit again.  A
    failed proof raises as usual and is not remembered; outside run_claims
    every call proves afresh.
    """
    t_pred, p_pred = predicted
    if budget is not None and t_pred + p_pred > budget:
        raise BudgetExceeded(0, budget)
    cs = compile_system(system)
    proofs = _proofs
    key = (cs, tuple(system.init), predicted)
    if proofs is not None and key in proofs:
        return proofs[key]
    rep = None
    if t_pred + p_pred <= DETECT_CUTOFF:
        with suppress(BudgetExceeded):  # the prediction understates the orbit
            rep = detect_cycle(cs, system.init, _default_budget(t_pred, p_pred, system.memory))
    if rep is None or (rep.measured_transient, rep.measured_period) != predicted:
        rep = verify_predicted(cs, system.init, t_pred, p_pred)
    if proofs is not None:
        proofs[key] = rep
    return rep


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _report_dict(rep: CycleReport, predicted: tuple[int, int]) -> dict:
    return {
        "T": rep.measured_transient,
        "P": rep.measured_period,
        "T_pred": predicted[0],
        "P_pred": predicted[1],
        "steps": rep.steps_executed,
    }


# ---------------------------------------------------------------------------
# static claims


def _run_window_param_bounds(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    bad: list[str] = []
    rho = params.rho
    for i, p in enumerate(params.primes):
        if not 2 * m < p < 3 * m:
            bad.append(f"p_{i}={p} outside (2m, 3m)")
        if params.alphas[i] != 3 * m - p:
            bad.append(f"alpha_{i} mismatch")
    if list(params.primes) != sorted(params.primes, reverse=True):
        bad.append("primes not descending")
    if params.k != (6 * m - 1) * rho or params.h != rho * params.k:
        bad.append("memory length identities broken")
    l2 = cycle_lengths(params, 0)[2]
    prev_l0 = None
    prev_l1 = None
    for d in range(rho):
        l0, l1, l2_again = cycle_lengths(params, d)
        if l2_again != l2:
            bad.append(f"L2 varies with d={d}")
        if l2 % l0 or l2 % l1:
            bad.append(f"L0/L1 at d={d} do not divide L2")
        if prev_l0 is not None and prev_l0 % l0:
            bad.append(f"L0({d}) does not divide L0({d - 1})")
        if prev_l1 is not None and l1 % prev_l1:
            bad.append(f"L1({d - 1}) does not divide L1({d})")
        prev_l0, prev_l1 = l0, l1
    detail = params.summary() | {"violations": bad}
    return ClaimResult("window_param_bounds", {"m": m}, not bad, detail)


def _run_prop1(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    F = cons.index_sets(params).F
    rho = params.rho
    worst = 0
    bad: list[list[int]] = []
    for i, p in enumerate(params.primes):
        for off in range(1, p):
            card = len(cons.q_set(params, i, off) & F)
            worst = max(worst, card)
            if card > rho - 1:
                bad.append([i, off, card])
    detail = {"bound": rho - 1, "worst_observed": worst, "violations": bad}
    return ClaimResult("prop1", {"m": m}, not bad, detail)


def _run_prop2(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    weights, theta = cons.single_weights(params)
    sums = []
    for i in range(params.rho):
        s = sum(weights[j - 1] for j in cons.pos_set(params, i))
        sums.append(s)
    ok = all(s == theta for s in sums)
    return ClaimResult("prop2", {"m": m}, ok, {"per_lane_sums": sums, "threshold": theta})


def _run_pos_disjoint(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    sets = cons.index_sets(params)
    weights, _ = cons.single_weights(params)
    bad: list[str] = []
    for i in range(params.rho):
        for j in range(i + 1, params.rho):
            overlap = sets.pos[i] & sets.pos[j]
            if overlap:
                bad.append(f"Pos({i}) and Pos({j}) share {sorted(overlap)[:4]}")
    union = frozenset().union(*sets.pos)
    if union != sets.F:
        bad.append("F is not the union of the Pos sets")
    support = frozenset(j for j, w in enumerate(weights, start=1) if w != 0)
    if support != sets.F:
        bad.append("weight support differs from F")
    if sets.G != frozenset(range(1, params.k + 1)) - sets.F:
        bad.append("G is not the complement of F")
    detail = {"card_F": len(sets.F), "card_G": len(sets.G), "violations": bad}
    return ClaimResult("pos_disjoint", {"m": m}, not bad, detail)


def _run_b0_methods_agree(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    per_d = {}
    ok = True
    for d in range(params.rho):
        definitional = cons.compute_B0(params, d, "definitional")
        algebraic = cons.compute_B0(params, d, "algebraic")
        agree = definitional == algebraic
        ok = ok and agree
        per_d[str(d)] = {"tot": len(definitional), "agree": agree}
    return ClaimResult("b0_methods_agree", {"m": m}, ok, {"per_d": per_d})


def _run_chain_equals_direct(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    plans = [cons.perturbation_plan(params, d) for d in range(params.rho)]
    current = cons.build_z(params, 0)
    per_step = {}
    ok = True
    for d in range(params.rho - 1):
        chained = cons.chain_perturbation(current, plans[d], plans[d + 1])
        direct = cons.build_z(params, d + 1)
        same = (
            chained.weights == direct.weights
            and chained.threshold == direct.threshold
            and chained.init == direct.init
        )
        ok = ok and same
        per_step[f"{d}->{d + 1}"] = {
            "weights_equal": chained.weights == direct.weights,
            "threshold_equal": chained.threshold == direct.threshold,
            "theta2": _frac(direct.threshold),
        }
        current = direct
    return ClaimResult("chain_equals_direct", {"m": m}, ok, {"per_step": per_step})


# ---------------------------------------------------------------------------
# dynamic claims


def _run_x_cycle(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    per_lane = {}
    ok = True
    for i in range(params.rho):
        system = cons.single_system(params, i)
        pred = predicted_cycle(params, "x", i)
        rep = measure_cycle(system, pred, budget)
        cs = compile_system(system)
        horizon = params.k + 2 * params.primes[i]
        trace = run(cs, system.init, horizon - params.k)
        mismatch = next(
            (t for t in range(len(trace)) if trace[t] != cons.x_closed_form(params, i, t)),
            None,
        )
        ok = ok and mismatch is None
        per_lane[str(i)] = _report_dict(rep, pred) | {"closed_form_mismatch_at": mismatch}
    return ClaimResult("x_cycle", {"m": m}, ok, {"per_lane": per_lane})


def _run_v_fixed(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    k = params.k
    per_lane = {}
    ok = True
    for i in range(params.rho):
        system = cons.destabilized_system(params, i)
        pred = predicted_cycle(params, "v", i)
        rep = measure_cycle(system, pred, budget)
        cs = compile_system(system)
        attractor_zero = rep.entry_window == 0
        trace = run(cs, system.init, k + 1)
        dead_from = k - params.primes[i]
        late_one = next((t for t in range(dead_from, len(trace)) if trace[t]), None)
        # After the window clears the initial pattern the affine sum must sit
        # at least two whole units below the threshold.
        ceiling = cs.scaled_threshold - 2 * cs.denominator
        orbit = walk(cs, word_from_bits(system.init))
        margin_ok = all(s <= ceiling for _, s in islice(orbit, k + 1))
        ok = ok and attractor_zero and late_one is None and margin_ok
        per_lane[str(i)] = _report_dict(rep, pred) | {
            "attractor_all_zero": attractor_zero,
            "first_late_one": late_one,
            "sum_margin_ok": margin_ok,
        }
    return ClaimResult("v_fixed", {"m": m}, ok, {"per_lane": per_lane})


def _window_popcounts(system: RecurrenceSystem, horizon: int) -> tuple[int, int]:
    """(min, max) of the window popcount over times memory..memory+horizon."""
    orbit = walk(compile_system(system), word_from_bits(system.init))
    counts = {word.bit_count() for word, _ in islice(orbit, horizon + 1)}
    return min(counts), max(counts)


def _run_sum_bounds(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    rho, k = params.rho, params.k
    detail: dict = {}
    ok = True

    for i in range(params.rho):
        lo, hi = _window_popcounts(cons.single_system(params, i), 2 * params.primes[i])
        mu = params.mu[i]
        lane_ok = mu <= lo and hi <= mu + 1
        ok = ok and lane_ok
        detail[f"x{i}"] = {"min": lo, "max": hi, "bounds": [mu, mu + 1]}

    mu_sum = sum(params.mu)
    l2 = cycle_lengths(params, 0)[2]
    horizon = min(l2 + 1, 300_000)
    lo, hi = _window_popcounts(cons.build_y(params), horizon)
    y_ok = mu_sum <= lo and hi <= rho + mu_sum
    ok = ok and y_ok
    detail["y"] = {"min": lo, "max": hi, "bounds": [mu_sum, rho + mu_sum], "horizon": horizon}

    for d in range(rho):
        t_w, l0 = predicted_cycle(params, "w", d)
        horizon = min(t_w + 2 * l0 + 1, 300_000)
        lo, hi = _window_popcounts(cons.build_w(params, d), horizon)
        low_bound = sum(params.mu[d + 1 :])
        high_bound = rho - d - 1 + mu_sum
        w_ok = low_bound <= lo and hi <= high_bound
        ok = ok and w_ok
        detail[f"w{d}"] = {
            "min": lo,
            "max": hi,
            "bounds": [low_bound, high_bound],
            "horizon": horizon,
        }
    return ClaimResult("sum_bounds", {"m": m}, ok, detail)


def _run_s1_range(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    theta = params.theta_single
    per_lane = {}
    ok = True
    worst_gap = None
    for i in range(params.rho):
        system = cons.single_system(params, i)
        orbit = walk(compile_system(system), word_from_bits(system.init))
        low = -2 * (1 + params.mu[i])
        lane_ok = True
        max_sub = None
        for _, s in islice(orbit, 2 * params.primes[i] + 1):
            if s >= theta:
                lane_ok = lane_ok and s == theta
            else:
                lane_ok = lane_ok and low <= s <= theta - 1
                max_sub = s if max_sub is None else max(max_sub, s)
        gap = None if max_sub is None else theta - max_sub
        if gap is not None:
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
        ok = ok and lane_ok
        per_lane[str(i)] = {"range": [low, theta - 1], "max_subthreshold": max_sub, "ok": lane_ok}
    # The perturbation depth -1 is admissible iff every sub-threshold sum
    # sits at least one whole unit below the threshold.
    lambda_ok = worst_gap is None or worst_gap >= 1
    ok = ok and lambda_ok
    return ClaimResult(
        "s1_range",
        {"m": m},
        ok,
        {"per_lane": per_lane, "min_gap_below_threshold": worst_gap, "lambda_minus_one_ok": lambda_ok},
    )


def _run_y_cycle(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    system = cons.build_y(params)
    pred = predicted_cycle(params, "y")
    rep = measure_cycle(system, pred, budget)
    return ClaimResult("y_cycle", {"m": m}, True, _report_dict(rep, pred))


def _run_y_deshuffle(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    system = cons.build_y(params)
    cs = compile_system(system)
    l2 = cycle_lengths(params, 0)[2]
    horizon = params.h + min(l2, 100_000)
    trace = run(cs, system.init, horizon - params.h)
    mismatch = next(
        (t for t in range(len(trace)) if trace[t] != cons.y_closed_form(params, t)),
        None,
    )
    return ClaimResult(
        "y_deshuffle",
        {"m": m},
        mismatch is None,
        {"horizon": horizon, "mismatch_at": mismatch},
    )


def _run_w_cycle(m: int, d: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    system = cons.build_w(params, d)
    pred = predicted_cycle(params, "w", d)
    rep = measure_cycle(system, pred, budget)
    return ClaimResult("w_cycle", {"m": m, "d": d}, True, _report_dict(rep, pred))


def _run_z_summary(m: int, d: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    system = cons.build_z(params, d)
    pred = predicted_cycle(params, "z", d)
    rep = measure_cycle(system, pred, budget)
    plan = cons.perturbation_plan(params, d)
    detail = _report_dict(rep, pred) | {
        "tot": plan.tot,
        "beta_d": _frac(plan.beta_d),
        "xi_d": _frac(plan.xi_d),
        "theta2": _frac(plan.theta2),
    }
    return ClaimResult("z_summary", {"m": m, "d": d}, True, detail)


# ---------------------------------------------------------------------------
# phase structure, chain, basin


def check_phases(m: int, d: int) -> ClaimResult:
    """Compare z(., d) bit for bit against y then w across its five phases."""
    params = window_params(m)
    params.check_lane(d, "d")
    rho, h, k = params.rho, params.h, params.k
    p_d = params.primes[d]
    l0, l1, _ = cycle_lengths(params, d)
    l3 = l1 + 2 * h + d - rho * (1 + p_d)
    l4 = l3 - h + 1

    phase5_span = min(l0, 10_000) + h
    z_top = max(l3, l4 + phase5_span)
    w_top = max(h + rho * (k - 1 - p_d) + d, phase5_span + h + d + 1 - rho * (1 + p_d))
    y_top = l1 + h - 1

    z_sys = cons.build_z(params, d)
    z_trace = run(compile_system(z_sys), z_sys.init, z_top + 1 - h)
    y_sys = cons.build_y(params)
    y_trace = run(compile_system(y_sys), y_sys.init, y_top + 1 - h)
    w_sys = cons.build_w(params, d)
    w_trace = run(compile_system(w_sys), w_sys.init, w_top + 1 - h)

    bad: list[str] = []

    p1_end = l1 + h - 1 - rho
    if any(z_trace[t] != y_trace[t] for t in range(0, p1_end + 1)):
        t = next(t for t in range(0, p1_end + 1) if z_trace[t] != y_trace[t])
        bad.append(f"phase1 mismatch at t={t}")

    p2_lo, p2_hi = l1 + h - rho, l1 + h - rho + d
    anomalies = 0
    for t in range(p2_lo, p2_hi + 1):
        if not (z_trace[t] == 0 and y_trace[t] == 1):
            bad.append(f"phase2 expected z=0,y=1 at t={t}, got z={z_trace[t]},y={y_trace[t]}")
        else:
            anomalies += 1
    if anomalies != d + 1:
        bad.append(f"phase2 anomaly count {anomalies} != {d + 1}")

    p3_lo, p3_hi = l1 + h - rho + d + 1, l1 + h - 1
    phase3_empty = p3_lo > p3_hi
    if phase3_empty != (d == rho - 1):
        bad.append("phase3 emptiness does not track d == rho-1")
    for t in range(p3_lo, p3_hi + 1):
        if z_trace[t] != y_trace[t]:
            bad.append(f"phase3 mismatch at t={t}")
            break

    for t in range(0, rho * (k - 1 - p_d) + d + 1):
        if z_trace[l1 + h + t] != w_trace[h + t]:
            bad.append(f"phase4 mismatch at offset t={t}")
            break

    w_shift = h + d + 1 - rho * (1 + p_d)
    for t in range(0, phase5_span + 1):
        if z_trace[t + l4] != w_trace[t + w_shift]:
            bad.append(f"phase5 mismatch at offset t={t}")
            break

    detail = {
        "phase1": [0, p1_end],
        "phase2": [p2_lo, p2_hi],
        "phase3": None if phase3_empty else [p3_lo, p3_hi],
        "phase3_empty": phase3_empty,
        "phase4_z": [l1 + h, l3],
        "phase5_start": l4,
        "anomalies": anomalies,
        "violations": bad,
    }
    return ClaimResult("phases", {"m": m, "d": d}, not bad, detail)


def check_chain(m: int, budget: int | None = None) -> ClaimResult:
    """Measure the full period chain y, z(.,0), ..., z(.,rho-1).

    Every member's (T, P) is proved against its formula (a refuted one
    raises PredictionFailed).  Passes when each period divides its
    predecessor, the final period is 1, and the final attractor is the
    all-zero window: the last member's certified entry window is 0.
    """
    params = window_params(m)
    rho = params.rho
    y_pred = predicted_cycle(params, "y")
    y_rep = measure_cycle(cons.build_y(params), y_pred, budget)
    steps_detail = {"y": _report_dict(y_rep, y_pred)}

    plans = [cons.perturbation_plan(params, d) for d in range(rho)]
    systems = [cons.build_z(params, 0)]
    for d in range(rho - 1):
        systems.append(cons.chain_perturbation(systems[d], plans[d], plans[d + 1]))

    periods = [y_rep.measured_period]
    for d, system in enumerate(systems):
        pred = predicted_cycle(params, "z", d)
        rep = measure_cycle(system, pred, budget)
        steps_detail[f"z{d}"] = _report_dict(rep, pred)
        periods.append(rep.measured_period)

    divides = all(periods[i] % periods[i + 1] == 0 for i in range(len(periods) - 1))
    ends_at_one = periods[-1] == 1
    attractor_zero = rep.entry_window == 0
    ok = divides and ends_at_one and attractor_zero

    detail = {
        "periods": periods,
        "divisor_chain": divides,
        "final_period_one": ends_at_one,
        "final_attractor_all_zero": attractor_zero,
        "systems": steps_detail,
    }
    return ClaimResult("chain", {"m": m}, ok, detail)


def check_basin(m: int, d: int, seed: int = 0, budget: int | None = None) -> ClaimResult:
    """Free-prefix insensitivity of z(., d).

    With e the lane minimizing beta_i and d < beta_e, the first
    beta_e - d window bits of z(., d) are free: every assignment must fall
    into the basin of the same attractor.  Enumerates all 2^(beta_e - d)
    assignments when there are at most BASIN_VARIANTS, otherwise samples
    BASIN_VARIANTS of them.  A variant whose window after beta_e - d slides
    equals the reference's shares its future, so its attractor.  One that
    does not merge is searched blind and shares the attractor iff its period
    is the reference P and its entry window lies on the reference cycle.
    Raises HypothesisUnmet when d >= beta_e.
    """
    params = window_params(m)
    params.check_lane(d, "d")
    beta_e = min(params.beta_m)
    if d >= beta_e:
        raise HypothesisUnmet(f"d={d} >= min beta = {beta_e} at m={m}")
    n_free = beta_e - d

    system = cons.build_z(params, d)
    pred = predicted_cycle(params, "z", d)
    ref_rep = measure_cycle(system, pred, budget)
    period = ref_rep.measured_period
    cs = compile_system(system)
    merged = advance_word(cs, word_from_bits(system.init), n_free)

    total = 2**n_free
    if total <= BASIN_VARIANTS:
        chosen = list(range(total))
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(total), BASIN_VARIANTS))
        mode = "sampled"

    tail = system.init[n_free:]
    bad: list[int] = []
    for vid in chosen:
        prefix = tuple((vid >> (n_free - 1 - q)) & 1 for q in range(n_free))
        variant = prefix + tail
        if advance_word(cs, word_from_bits(variant), n_free) == merged:
            continue
        b = budget if budget is not None else _default_budget(*pred, params.h)
        rep = detect_cycle(cs, variant, b)
        ref_cycle = (w for w, _ in islice(walk(cs, ref_rep.entry_window), period))
        if rep.measured_period != period or rep.entry_window not in ref_cycle:
            bad.append(vid)

    detail = {
        "free_bits": n_free,
        "variants_total": total,
        "variants_checked": len(chosen),
        "mode": mode,
        "attractor_size": period,
        "reference": _report_dict(ref_rep, pred),
        "mismatched_variants": bad,
    }
    return ClaimResult("basin", {"m": m, "d": d}, not bad, detail)


# ---------------------------------------------------------------------------
# composition claims


def _constant_lane(bit: int) -> RecurrenceSystem:
    """Memory-1 unit fixed at its own output: x(n) = 1[2 x(n-1) - 1]."""
    return RecurrenceSystem(
        memory=1, weights=(2,), threshold=1, init=(bit,), label=f"const{bit}"
    )


def _composed_cycle(bits: Sequence[int], budget: int = 10_000) -> CycleReport:
    composed = cons.shuffle_compose([_constant_lane(b) for b in bits])
    return detect_cycle(compile_system(composed), composed.init, budget)


def check_composition(claim: str, seed: int = 0, rounds: int = 100) -> ClaimResult:
    """Shuffles of fixed-point lanes: alternating patterns and the divisor rule."""
    if claim == "example1_period2":
        rep = _composed_cycle((0, 1, 0, 1, 0, 1))
        ok = rep.measured_transient == 0 and rep.measured_period == 2
        return ClaimResult(claim, {}, ok, {"T": rep.measured_transient, "P": rep.measured_period})
    if claim == "example1_period3":
        rep = _composed_cycle((0, 0, 1, 0, 0, 1))
        ok = rep.measured_transient == 0 and rep.measured_period == 3
        return ClaimResult(claim, {}, ok, {"T": rep.measured_transient, "P": rep.measured_period})
    if claim == "divisor_rule":
        rng = random.Random(seed)
        bad: list[dict] = []
        periods_seen: set[int] = set()
        for _ in range(rounds):
            r = rng.randint(2, 8)
            bits = tuple(rng.randint(0, 1) for _ in range(r))
            rep = _composed_cycle(bits)
            periods_seen.add(rep.measured_period)
            if rep.measured_transient != 0 or r % rep.measured_period != 0:
                bad.append({"bits": list(bits), "T": rep.measured_transient, "P": rep.measured_period})
        detail = {"rounds": rounds, "seed": seed, "periods_seen": sorted(periods_seen), "violations": bad}
        return ClaimResult(claim, {"seed": seed}, not bad, detail)
    raise ValueError(f"unknown composition claim {claim!r}")


# ---------------------------------------------------------------------------
# instance grids and predicted work


def _once(params: WindowParams) -> list[dict]:
    return [{}]


def _every_d(params: WindowParams) -> list[dict]:
    return [{"d": d} for d in range(params.rho)]


def _basin_grid(params: WindowParams) -> list[dict]:
    # check_basin needs d < min beta
    return [{"d": d} for d in range(min(params.rho, min(params.beta_m)))]


def _proof_work(family: str) -> Callable[..., int]:
    """Predicted T + P of the family member an instance proves."""
    return lambda params, **kw: sum(predicted_cycle(params, family, kw.get("d")))


def _chain_work(params: WindowParams) -> int:
    """The largest member proof of the chain: y or one of the z(d)."""
    members = [("y", None)] + [("z", d) for d in range(params.rho)]
    return max(sum(predicted_cycle(params, fam, d)) for fam, d in members)


def _phases_work(params: WindowParams, d: int) -> int:
    """Bits of the longest trace check_phases records for z(d)."""
    rho, h = params.rho, params.h
    l0, l1, _ = cycle_lengths(params, d)
    l4 = l1 + h + d + 1 - rho * (1 + params.primes[d])
    return l4 + min(l0, 10_000) + 2 * h


def skip_detail(work: int, cutoff: int) -> dict | None:
    """Why an instance is skipped, or None when it runs.

    An instance whose predicted work (in window slides) exceeds its cutoff
    is skipped rather than attempted and aborted.  This is the one place a
    cutoff is compared.
    """
    if work <= cutoff:
        return None
    return {"skipped": "predicted work exceeds cutoff", "work": work, "cutoff": cutoff}


# ---------------------------------------------------------------------------
# the claim table


@dataclass(frozen=True)
class Claim:
    """One checkable statement.

    grid(params) lists its structurally valid instances at one scale, or is
    None for a scale-free claim.  cost is None when every instance runs, and
    otherwise (work, cutoff): work(params, **instance) predicts the work of
    one instance, which is skipped when that exceeds cutoff.
    run(m, seed=, budget=, **instance) checks one instance; a scale-free
    claim's run takes only seed.
    """

    name: str
    grid: Callable[[WindowParams], list[dict]] | None
    cost: tuple[Callable[..., int], int] | None
    run: Callable[..., ClaimResult]


def _composition(name: str) -> Claim:
    return Claim(name, None, None, lambda seed: check_composition(name, seed=seed))


# The phases, chain, basin and composition runners look the public check
# functions up by name when called, so a wrapper bound over one of those
# names (a profiler's, say) sees every call.
_TABLE = {
    claim.name: claim
    for claim in (
        Claim("window_param_bounds", _once, None, _run_window_param_bounds),
        Claim("prop1", _once, None, _run_prop1),
        Claim("prop2", _once, None, _run_prop2),
        Claim("pos_disjoint", _once, None, _run_pos_disjoint),
        Claim("x_cycle", _once, None, _run_x_cycle),
        Claim("v_fixed", _once, None, _run_v_fixed),
        Claim("sum_bounds", _once, None, _run_sum_bounds),
        Claim("s1_range", _once, None, _run_s1_range),
        Claim("y_cycle", _once, (_proof_work("y"), MEASURE_CUTOFF), _run_y_cycle),
        Claim("y_deshuffle", _once, None, _run_y_deshuffle),
        Claim("w_cycle", _every_d, (_proof_work("w"), MEASURE_CUTOFF), _run_w_cycle),
        Claim("b0_methods_agree", _once, None, _run_b0_methods_agree),
        Claim("chain_equals_direct", _once, None, _run_chain_equals_direct),
        Claim(
            "phases",
            _every_d,
            (_phases_work, TRACE_CUTOFF),
            lambda m, d, **_: check_phases(m, d),
        ),
        Claim("z_summary", _every_d, (_proof_work("z"), MEASURE_CUTOFF), _run_z_summary),
        Claim(
            "chain",
            _once,
            (_chain_work, MEASURE_CUTOFF),
            lambda m, budget, **_: check_chain(m, budget=budget),
        ),
        Claim(
            "basin",
            _basin_grid,
            (_proof_work("z"), MEASURE_CUTOFF),
            lambda m, d, seed, budget: check_basin(m, d, seed=seed, budget=budget),
        ),
        _composition("example1_period2"),
        _composition("example1_period3"),
        _composition("divisor_rule"),
    )
}

ALL_CLAIMS = tuple(_TABLE)


def claim_grid(claim: str, m: int) -> list[tuple[dict, dict | None]]:
    """Every structurally valid instance of claim at scale m, each with its
    skip detail (None when the instance runs)."""
    entry = _TABLE.get(claim)
    if entry is None or entry.grid is None:
        raise ValueError(f"unknown claim {claim!r}")
    params = window_params(m)
    if entry.cost is None:
        return [(kw, None) for kw in entry.grid(params)]
    work, cutoff = entry.cost
    return [(kw, skip_detail(work(params, **kw), cutoff)) for kw in entry.grid(params)]


def attempt(
    claim: str, ident: dict, skip: dict | None, check: Callable[..., ClaimResult], *args, **kwargs
) -> ClaimResult:
    """Decide the instance ident of claim: PASS, FAIL or SKIP, in one place.

    With a skip detail the result is skipped (passed None) and check is not
    called.  Otherwise it is check(*args, **kwargs), or a failing result
    when a proof or search ran past its budget or a prediction was refuted.
    """
    if skip is not None:
        return ClaimResult(claim, ident, None, skip)
    try:
        return check(*args, **kwargs)
    except BudgetExceeded as exc:
        detail = {"error": "BudgetExceeded", "steps": exc.steps, "budget": exc.budget}
    except PredictionFailed as exc:
        detail = {"error": "PredictionFailed", "check": exc.check} | exc.detail
    return ClaimResult(claim, ident, False, detail)


def run_claims(
    ms: Sequence[int] = (6, 11),
    claims: Sequence[str] | None = None,
    seed: int = 0,
    budget: int | None = None,
    ds: Sequence[int] | None = None,
) -> list[ClaimResult]:
    """Run a claim selection, in the order given, over a scale grid.

    Composition claims are scale-free and run once.  Every grid instance
    yields one result: an instance past its cutoff is skipped (passed None)
    and nothing runs for it, while a scale the window parameters reject, a
    failed search and a refuted prediction become failing results rather
    than exceptions, so one bad instance cannot take down a whole report.
    With ds, a claim's instances are the requested bifurcation steps, in
    that order; a step off the claim's grid, or a claim without steps,
    raises ValueError before any instance runs.  Each distinct orbit is
    proved once per call (see measure_cycle).
    """
    global _proofs
    selected = list(claims) if claims is not None else list(ALL_CLAIMS)
    unknown = sorted(set(selected) - set(ALL_CLAIMS))
    if unknown:
        raise ValueError(f"unknown claims: {', '.join(unknown)}")
    jobs: list[Callable[[], ClaimResult]] = []
    for claim in (_TABLE[name] for name in selected):
        if claim.grid is None:
            if ds is not None:
                raise ValueError(f"claim {claim.name} takes no d")
            jobs.append(partial(claim.run, seed=seed))
            continue
        for m in ms:
            try:
                grid = claim_grid(claim.name, m)
            except RhoTooSmall as exc:
                jobs.append(partial(ClaimResult, claim.name, {"m": m}, False, {"error": str(exc)}))
                continue
            if ds is not None:
                by_d = {kw.get("d"): (kw, skip) for kw, skip in grid}
                off_grid = [d for d in ds if d not in by_d]
                if off_grid:
                    raise ValueError(f"d={off_grid[0]} is not on the {claim.name} grid at m={m}")
                grid = [by_d[d] for d in ds]
            jobs.extend(
                partial(
                    attempt, claim.name, {"m": m} | kw, skip, claim.run, m,
                    seed=seed, budget=budget, **kw,
                )
                for kw, skip in grid
            )
    _proofs = {}
    try:
        return [job() for job in jobs]
    finally:
        _proofs = None
