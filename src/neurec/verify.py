"""Machine checks for every claim the construction is supposed to satisfy.

Claims are data: one ordered table holds a Claim(name, grid, cost, run)
per checkable statement.  grid(params) lists the structurally valid
instances at one scale (keyword dicts, at most a bifurcation step d each)
and is None for the scale-free composition claims; cost predicts an
instance's work, which must stay within MEASURE_CUTOFF; run produces
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
period) pairs.  Member.prove is the one router of a proof: it searches
orbits of predicted T + P up to DETECT_CUTOFF, which bench/test_harness.py
pins, blind with detect_cycle, and proves the rest with verify_predicted,
the one prover, on the windows of a certificate.  _certificate is the one
place a certificate is picked, capped and kept on its member.  Every z(d)
reads its handoff certificate (handoff_certificate), its orbit y's up to its
first disagreement and w(d)'s from L1(d) on, proved on the lanes of y and
w(d).  Any other system with more than one lane reads its lanes
(certify_lanes), as y and every w(d), rho-way shuffles of single units, do.
A single unit, x_i or v_i, reads none and is searched or simulated.  On
every route a wrong prediction raises PredictionFailed from the one probe
rule in cycles.
member wires each family member in one place, its system, compiled on
first use (Member.cs), predicted_cycle pair and, for z(d), handoff builder;
no claim but chain_equals_direct, about the builders, builds a family
system otherwise.  check_phases reads z(d)'s five phases off its handoff
certificate, sum_bounds and y_deshuffle read y and every w(d) off their
lanes, all exact for all time, and sum_bounds reads each x_i as one lane,
its run trace to T + P; v_fixed and s1_range scatter their sums from run's
trace (_window_sums).  One cap, the budget or else MEASURE_CUTOFF (_cap),
picks a proof's route and bounds every certificate: past it _certificate
raises BudgetExceeded, as a simulation does unrun.  simulated_trace routes
simulate alike, capped at its steps, to a Trace read by range.  _priced
prices an instance at the largest proof_work (predicted T + P, each lane at
the bound of its search, a handoff at its prefix, phases, steps and an
allowance for its nodes) of the members it proves or certifies, and
skip_detail skips (passed None) one past MEASURE_CUTOFF rather than attempt
it.

A run builds and compiles each member once, proves it once, certifies it
once and searches each orbit once: proof_memo, open for one run_claims call
or a CLI cycle or simulate run, keeps every member built, and opens
cycles.search_memo, which keeps every orbit searched (its report and the
first T + P + memory bytes of its trace, shared with the Lanes that read
it); a member keeps its completed proof and closed certificate.  So v_fixed's
v_i is the lane i of every w(d) with d >= i, searched once, a kept search
answers a later budget as a fresh one would, and z(d)'s handoff reads the run's
y and w(d), sum_bounds reuses the proofs of earlier claims, the chain
reuses them for every chained z(d) equal to the run's (any other is a
fresh member, freed once the chain moves past it), phases and z_summary share
each z(d)'s certificate, y_cycle, y_deshuffle, sum_bounds and every z(d)
share y's lanes, and a detail's steps do not depend on which claim ran
first.  The memo is dropped when the run ends.  A certified proof also
reports its entry window S_T, so v_fixed's and the chain's all-zero
attractors are read from it rather than walking the transient again.  basin
shares z_summary's proof, and one interval pass proves that every free
prefix merges into the reference window.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, suppress
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple, Sequence

from . import construction as cons
from .construction import PerturbationPlan, RecurrenceSystem, _ratio
from .cycles import (
    CycleReport,
    HandoffCertificate,
    Lanes,
    certify_lanes,
    detect_cycle,
    handoff_certificate,
    lane_count,
    search_memo,
    verify_predicted,
)
from .engine import CompiledSystem, Trace, _ones, advance_word, bits_from_word, compile_system, periodic_slice
from .engine import run, simulate, word_from_bits
from .errors import BudgetExceeded, HypothesisUnmet, PredictionFailed
from .numtheory import WindowParams, cycle_lengths, window_params

__all__ = [
    "ALL_CLAIMS",
    "ClaimResult",
    "predicted_cycle",
    "Member",
    "member",
    "simulated_trace",
    "Handoff",
    "z_handoff",
    "proof_work",
    "check_phases",
    "check_chain",
    "check_basin",
    "check_composition",
    "attempt",
    "run_claims",
]

# Routing and feasibility bounds, in window slides.  Member.prove routes on
# DETECT_CUTOFF and the cap; skip_detail skips instances past MEASURE_CUTOFF.
# A search costs T + P slides, a certificate about sum(p_i) + h.  Best of 3,
# 3 runs, 2 cores, CPython 3.11 (tools/route_crossover.py --repeats 3), with
# spike-driven searches: lanes tie at m = 6 y (442: 0.18 ms blind, 0.16
# certified) and win from 2,491 (m = 11 w(0): 0.59 / 0.35 ms), a handoff
# from between 3,263 (m = 11 z(1): 0.96 / 1.03 ms) and 15,498 (m = 16 z(1):
# 3.76 / 1.85 ms).  DETECT_CUTOFF stays above 557, the largest m = 6 orbit,
# as bench/test_harness.py pins m = 6 chain's 3 searches.
DETECT_CUTOFF = 4_096          # above this predicted T+P, verify instead of search
MEASURE_CUTOFF = 20_000_000    # above this predicted T+P, skip the proof

_members: dict | None = None


@contextmanager
def proof_memo() -> Iterator[None]:
    """Open _members for one run: each member built, under (m, family,
    index), with the proof and certificate it keeps (Member); and with it
    cycles.search_memo, each orbit searched."""
    global _members
    _members = {}
    try:
        with search_memo():
            yield
    finally:
        _members = None


class ClaimResult(NamedTuple):
    """One verified, refuted or skipped (passed None) claim instance."""

    claim: str
    params: dict
    passed: bool | None
    detail: dict


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


class Handoff(NamedTuple):
    """The orbit a system is claimed to follow from head's init: head's, then
    from time at on tail's, S_n being tail's window at n - at.  head and tail
    are Members, each decimating into lanes (see lane_count)."""

    head: Member
    tail: Member
    at: int


def z_handoff(params: WindowParams, d: int) -> Handoff:
    """The orbit z(d) is claimed to follow: y's, then w(d)'s from time L1(d) on."""
    return Handoff(member(params, "y"), member(params, "w", d), cycle_lengths(params, d)[1])


class Member:
    """One family member, equal only to itself: its system, compiled once on
    first use (cs), its predicted (T, P) and, for z(d) only, its Handoff's
    builder, called only when a proof or trace needs the handoff certificate,
    and the PerturbationPlan its system was built from (plan, else None).
    It keeps its completed proof (prove) and its closed certificate with that
    certificate's steps (_certificate), so each is freed with the member."""

    def __init__(
        self, family: str, index: int | None, system: RecurrenceSystem, predicted: tuple[int, int],
        handoff: Callable[[], Handoff] | None, plan: PerturbationPlan | None = None,
    ) -> None:
        self.family, self.index, self.system = family, index, system
        self.predicted, self.handoff, self.plan = predicted, handoff, plan
        self.proof: CycleReport | None = None
        self.certificate: tuple[Lanes | HandoffCertificate, int] | None = None

    @cached_property
    def cs(self) -> CompiledSystem:
        return compile_system(self.system)

    def prove(self, budget: int | None = None) -> CycleReport:
        """Certify the predicted (T, P) from the system's init as its minimal pair.

        One cap, budget or else MEASURE_CUTOFF (_cap), picks the route and
        bounds it.  An orbit whose T + P fits both the cap and DETECT_CUTOFF is
        measured blind with detect_cycle in exactly T + P slides.  Any other,
        or one the search does not confirm, is proved by verify_predicted on
        the certificate _certificate picks for the member, or else on the
        windows of engine.simulate's trace, unless its T + P plus the
        certificate's steps pass the cap: then BudgetExceeded is raised before
        a step.  A refuted prediction raises PredictionFailed naming the first
        probe it fails, so a returned report always equals the prediction; its
        steps are the certificate's, plus T + P when simulated.

        A completed proof is kept on the member, and a repeat returns the same
        report without walking the orbit again.  A failed proof raises and
        keeps nothing.
        """
        if self.proof is not None:
            return self.proof
        t_pred, p_pred = self.predicted
        work = t_pred + p_pred
        cap = _cap(budget)
        rep, cert, spent = None, None, 0
        if work <= min(DETECT_CUTOFF, cap):
            with suppress(BudgetExceeded):  # the prediction understates the orbit
                rep = detect_cycle(self.cs, self.system.init, work)
        else:
            cert, spent = _certificate(self, cap)
        if rep is None or (rep.measured_transient, rep.measured_period) != self.predicted:
            trace = cert.trace if cert is not None and cert.closes else None
            if trace is None and spent + work > cap:
                raise BudgetExceeded(spent, cap)
            rep = verify_predicted(self.cs, self.system.init, t_pred, p_pred, trace)
            rep = rep._replace(steps_executed=spent + rep.steps_executed)
        self.proof = rep
        return rep


def member(
    params: WindowParams,
    family: str,
    index: int | None = None,
    system: RecurrenceSystem | None = None,
    plan: PerturbationPlan | None = None,
) -> Member:
    """The member family(index), "x"/"v" taking a lane i and "w"/"z" a step d.

    The one place verify builds a family system.  predicted_cycle raises on
    an unknown family or an index off its range.  Inside proof_memo a built
    member is kept, so a run builds and compiles each one once, z(d) on the
    run's y and on its own plan, which it keeps, and proves and certifies it
    once; outside it every call builds afresh.  A given system (the chain's
    incremental z(d), with the plan it was built on) gets the kept member
    when it equals that member's system, and otherwise a fresh member that
    is never kept.  Builders and z_handoff are looked up at each build, so a
    rebound name is seen.
    """
    memo = _members if _members is not None else {}
    kept = memo.get((params.m, family, index))
    if kept is not None and (system is None or system == kept.system):
        return kept
    predicted = predicted_cycle(params, family, index)
    handoff = partial(z_handoff, params, index) if family == "z" else None
    if system is not None:
        return Member(family, index, system, predicted, handoff, plan)
    build = {
        "x": cons.single_system, "v": cons.destabilized_system, "y": cons.build_y,
        "w": cons.build_w, "z": cons.build_z,
    }[family]
    if family == "z":
        plan = cons.perturbation_plan(params, index)
    extra = (member(params, "y").system, plan) if family == "z" else ()
    system = build(params) if family == "y" else build(params, index, *extra)
    mem = memo[params.m, family, index] = Member(family, index, system, predicted, handoff, plan)
    return mem


def _cap(budget: int | None) -> int:
    return MEASURE_CUTOFF if budget is None else budget


def _certificate(mem: Member, cap: int) -> tuple[Lanes | HandoffCertificate | None, int]:
    """The certificate mem reads from its init and its steps, within cap:
    with a handoff (every z(d)), the handoff certificate on head's and
    tail's lanes, built here first; without, mem's lanes when it has more
    than one (y and every w(d)).  A single unit, or a handoff whose init is
    not head's or with a one-lane part, gets (None, 0) unbuilt.  Its
    builders keep the budget contract of cycles, so it returns within cap or
    raises BudgetExceeded, adding the steps of the parts already built.  One
    that closes is kept on mem with its steps and read again while its steps
    fit cap, so a kept one changes no result."""
    plan = None if mem.handoff is None else mem.handoff()
    if plan is None and lane_count(mem.cs) == 1:
        return None, 0
    if mem.certificate is not None and mem.certificate[1] <= cap:
        return mem.certificate
    init = mem.system.init
    if plan is None:
        cert, spent = certify_lanes(mem.cs, init, cap)
    else:
        parts = (plan.head, plan.tail)
        if init != plan.head.system.init or any(lane_count(part.cs) == 1 for part in parts):
            return None, 0
        lanes, spent = [], 0
        try:
            for part in parts:
                lane, steps = _certificate(part, cap - spent)
                lanes.append(lane)
                spent += steps
            cert, steps = handoff_certificate(mem.cs, init, *lanes, plan.at, cap - spent)
        except BudgetExceeded as exc:
            raise BudgetExceeded(spent + exc.steps, cap) from None
        spent += steps
    if cert is not None and cert.closes:
        mem.certificate = cert, spent
    return cert, spent


def simulated_trace(mem: Member, steps: int) -> tuple[Trace, str, int]:
    """x(0..memory+steps-1) of a member as a Trace, read by slice (trace[:]
    is the whole as bytes), its route and the certificate's steps.  simulate stops at the first repeat, so it
    takes min(T + P, steps) slides and keeps as many bytes; past
    DETECT_CUTOFF the trace is read off mem's certificate (_certificate) if
    it closes within steps slides, and a range of it costs its length.
    Either way no whole trace is built, and a reader holds the member's
    first-repeat prefix or certificate and the range it asks for; the
    Trace's ones reads the times of the 1s in a range off the same prefix
    or certificate (its ones), without a byte.  Below the cutoff the
    simulation is the cheaper for a handoff (tools/route_crossover.py
    --repeats 3, default steps, each trace's 1s read in full, 3 runs: m = 11
    z(1) 0.48-0.52 ms by run, 0.92-0.99 by certificate)."""
    cert, spent = None, 0
    if min(sum(mem.predicted), steps) > DETECT_CUTOFF:
        with suppress(BudgetExceeded):
            cert, spent = _certificate(mem, steps)
    if cert is None or not cert.closes:
        return simulate(mem.cs, mem.system.init, steps), "simulated", 0
    trace = Trace(cert.trace, mem.system.memory + steps, cert.ones)
    return trace, "handoff" if mem.handoff else "lanes", spent


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
    taps, theta = cons.single_weights(params)
    weights = dict(taps)
    sums = [sum(weights.get(j, 0) for j in cons.pos_set(params, i)) for i in range(params.rho)]
    ok = all(s == theta for s in sums)
    return ClaimResult("prop2", {"m": m}, ok, {"per_lane_sums": sums, "threshold": theta})


def _run_pos_disjoint(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    sets = cons.index_sets(params)
    taps, _ = cons.single_weights(params)
    bad: list[str] = []
    for i in range(params.rho):
        for j in range(i + 1, params.rho):
            overlap = sets.pos[i] & sets.pos[j]
            if overlap:
                bad.append(f"Pos({i}) and Pos({j}) share {sorted(overlap)[:4]}")
    union = frozenset().union(*sets.pos)
    if union != sets.F:
        bad.append("F is not the union of the Pos sets")
    support = frozenset(j for j, _ in taps)
    if support != sets.F:
        bad.append("weight support differs from F")
    if sets.G != frozenset(range(1, params.k + 1)) - sets.F:
        bad.append("G is not the complement of F")
    detail = {"card_F": len(sets.F), "card_G": len(sets.G), "violations": bad}
    return ClaimResult("pos_disjoint", {"m": m}, not bad, detail)


def _run_b0_methods_agree(m: int, **_: object) -> ClaimResult:
    """compute_B0's residue classes against B_0(d)'s definition: the f in
    [1, h - d] at which the closed-form y puts a 1 at time h + L1(d) - rho - f.

    The scan reads y as its closed form defines it, y(rho q + i) =
    x_i(1 + q), with no residue arithmetic of compute_B0's: each lane's
    x_closed_form over one period p_i, sum(p_i) calls in all, laid out by
    periodic_slice over the times each d reads and interleaved into y's
    bytes, whose 1s bytes.find lists (_ones)."""
    params = window_params(m)
    rho, h = params.rho, params.h
    periods = [
        bytes(cons.x_closed_form(params, i, 1 + q) for q in range(p)) for i, p in enumerate(params.primes)
    ]
    per_d = {}
    ok = True
    for d in range(rho):
        base = h + cycle_lengths(params, d)[1] - rho
        q0, q1 = (base - h + d) // rho, -(-base // rho)  # y(t) for base - h + d <= t < base
        ys = bytearray(rho * (q1 - q0))  # y(rho * q0 + n) at n
        for i, (lane, p) in enumerate(zip(periods, params.primes)):
            ys[i::rho] = periodic_slice(lane, 0, p, q0, q1)
        top = base - rho * q0
        scan = {top - n for n in _ones(ys, top - h + d, top)}
        agree = scan == cons.compute_B0(params, d)
        ok = ok and agree
        per_d[str(d)] = {"tot": len(scan), "agree": agree}
    return ClaimResult("b0_methods_agree", {"m": m}, ok, {"per_d": per_d})


def _run_chain_equals_direct(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    y = member(params, "y").system
    plan = cons.perturbation_plan(params, 0)
    current = cons.build_z(params, 0, y, plan)
    per_step = {}
    ok = True
    for d in range(params.rho - 1):
        plan_next = cons.perturbation_plan(params, d + 1)
        chained = cons.chain_perturbation(current, plan, plan_next)
        direct = cons.build_z(params, d + 1, y, plan_next)
        taps_equal = (chained.taps, chained.denominator) == (direct.taps, direct.denominator)
        threshold_equal = (chained.threshold, chained.denominator) == (direct.threshold, direct.denominator)
        ok = ok and taps_equal and threshold_equal and chained.init == direct.init
        per_step[f"{d}->{d + 1}"] = {
            "weights_equal": taps_equal,
            "threshold_equal": threshold_equal,
            "theta2": _ratio(direct.threshold, direct.denominator),
        }
        plan, current = plan_next, direct
    return ClaimResult("chain_equals_direct", {"m": m}, ok, {"per_step": per_step})


# ---------------------------------------------------------------------------
# dynamic claims


def _window_sums(cs: CompiledSystem, trace: bytes, count: int) -> list[int]:
    """D times the affine sum on each window S_0 .. S_{count-1} of trace,
    scattered from its 1s: S_n reads x(n + memory - j) at tap (j, w), so a
    1 at x(t) adds w to S_{t - memory + j}."""
    sums = [0] * (count + 2 * cs.memory)  # S_n at sums[memory + n]
    for t in _ones(trace, 0, cs.memory + count - 1):
        for j, w in cs.taps:
            sums[t + j] += w
    return sums[cs.memory : cs.memory + count]


def _x_mismatch(params: WindowParams, i: int, x: Member) -> int | None:
    """The first t < k + p_i where x_i's trace departs from its closed form,
    or None: then S_{p_i} = S_0, and the two agree for all time."""
    trace = run(x.cs, x.system.init, params.primes[i])
    return next((t for t, bit in enumerate(trace) if bit != cons.x_closed_form(params, i, t)), None)


def _run_x_cycle(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    per_lane = {}
    ok = True
    for i in range(params.rho):
        x = member(params, "x", i)
        rep = x.prove(budget)
        mismatch = _x_mismatch(params, i, x)
        ok = ok and mismatch is None
        per_lane[str(i)] = _report_dict(rep, x.predicted) | {"closed_form_mismatch_at": mismatch}
    return ClaimResult("x_cycle", {"m": m}, ok, {"per_lane": per_lane})


def _run_v_fixed(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    k = params.k
    per_lane = {}
    ok = True
    for i in range(params.rho):
        v = member(params, "v", i)
        rep = v.prove(budget)
        cs = v.cs
        attractor_zero = rep.entry_window == 0
        trace = run(cs, v.system.init, k + 1)
        late_one = next((t for t in range(k - params.primes[i], len(trace)) if trace[t]), None)
        # After the window clears the initial pattern the affine sum must sit
        # at least two whole units below the threshold.
        ceiling = cs.scaled_threshold - 2 * cs.denominator
        margin_ok = all(s <= ceiling for s in _window_sums(cs, trace, k + 1))
        ok = ok and attractor_zero and late_one is None and margin_ok
        per_lane[str(i)] = _report_dict(rep, v.predicted) | {
            "attractor_all_zero": attractor_zero,
            "first_late_one": late_one,
            "sum_margin_ok": margin_ok,
        }
    return ClaimResult("v_fixed", {"m": m}, ok, {"per_lane": per_lane})


def _run_sum_bounds(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    rho, mu = params.rho, params.mu
    mu_sum = sum(mu)
    envelopes = [(f"x{i}", member(params, "x", i), mu[i], mu[i] + 1) for i in range(rho)]
    envelopes.append(("y", member(params, "y"), mu_sum, rho + mu_sum))
    for d in range(rho):
        envelopes.append((f"w{d}", member(params, "w", d), sum(mu[d + 1 :]), rho - d - 1 + mu_sum))
    detail: dict = {}
    ok = True
    for name, mem, low, high in envelopes:
        lanes, _ = _certificate(mem, _cap(budget))
        if lanes is None:  # a single unit: one lane, its trace to its proved T + P
            rep = mem.prove(budget)
            lanes = Lanes(mem.cs, ((run(mem.cs, mem.system.init, sum(mem.predicted)), rep),))
        lo, hi = lanes.popcount_range() or (None, None)
        ok = ok and lo is not None and low <= lo and hi <= high
        detail[name] = {"min": lo, "max": hi, "bounds": [low, high]}
    return ClaimResult("sum_bounds", {"m": m}, ok, detail)


def _run_s1_range(m: int, **_: object) -> ClaimResult:
    params = window_params(m)
    theta = params.theta_single
    per_lane = {}
    ok = True
    subthreshold = []  # every lane's sums below the threshold
    for i in range(params.rho):
        x = member(params, "x", i)
        windows = 2 * params.primes[i] + 1
        sums = _window_sums(x.cs, run(x.cs, x.system.init, windows), windows)
        low = -2 * (1 + params.mu[i])
        sub = [s for s in sums if s < theta]  # integers, so each at most theta - 1
        lane_ok = all(s == theta for s in sums if s >= theta) and all(low <= s for s in sub)
        max_sub = max(sub, default=None)
        subthreshold += sub
        ok = ok and lane_ok
        per_lane[str(i)] = {"range": [low, theta - 1], "max_subthreshold": max_sub, "ok": lane_ok}
    # The perturbation depth -1 is admissible iff every sub-threshold sum
    # sits at least one whole unit below the threshold.
    worst_gap = theta - max(subthreshold) if subthreshold else None
    lambda_ok = worst_gap is None or worst_gap >= 1
    ok = ok and lambda_ok
    return ClaimResult(
        "s1_range",
        {"m": m},
        ok,
        {"per_lane": per_lane, "min_gap_below_threshold": worst_gap, "lambda_minus_one_ok": lambda_ok},
    )


def _run_y_cycle(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    y = member(window_params(m), "y")
    return ClaimResult("y_cycle", {"m": m}, True, _report_dict(y.prove(budget), y.predicted))


def _run_y_deshuffle(m: int, budget: int | None = None, **_: object) -> ClaimResult:
    """y(rho*q + i) = x_i(1 + q) for all time: y's lane i obeys x_i's
    recurrence (so y has rho lanes, of memory k) from x_i's window after one
    slide, and x_i is its closed form."""
    params = window_params(m)
    y = member(params, "y")
    lanes, _ = _certificate(y, _cap(budget))
    bad: list[str] = []
    for i, (trace, _) in zip(range(params.rho), lanes.orbits):
        x = member(params, "x", i)
        if lanes.cs != x.cs:
            bad.append(f"lane {i} does not obey x_{i}'s recurrence")
        if word_from_bits(trace[: x.cs.memory]) != advance_word(x.cs, word_from_bits(x.system.init), 1):
            bad.append(f"lane {i} does not start at x_{i}'s window after one slide")
        t = _x_mismatch(params, i, x)
        if t is not None:
            bad.append(f"x_{i} departs from its closed form at t={t}")
    detail = {"lanes": len(lanes.orbits), "violations": bad}
    return ClaimResult("y_deshuffle", {"m": m}, not bad, detail)


def _run_w_cycle(m: int, d: int, budget: int | None = None, **_: object) -> ClaimResult:
    w = member(window_params(m), "w", d)
    detail = _report_dict(w.prove(budget), w.predicted)
    return ClaimResult("w_cycle", {"m": m, "d": d}, True, detail)


def _run_z_summary(m: int, d: int, budget: int | None = None, **_: object) -> ClaimResult:
    params = window_params(m)
    z = member(params, "z", d)
    rep = z.prove(budget)
    plan = z.plan
    detail = _report_dict(rep, z.predicted) | {
        "tot": plan.tot,
        "beta_d": _ratio(plan.beta_d, plan.denominator),
        "xi_d": _ratio(plan.xi_d, plan.denominator),
        "theta2": _ratio(plan.theta2, plan.denominator),
    }
    return ClaimResult("z_summary", {"m": m, "d": d}, True, detail)


# ---------------------------------------------------------------------------
# phase structure, chain, basin


def check_phases(m: int, d: int, budget: int | None = None) -> ClaimResult:
    """Read z(., d)'s five phases against y and w off its handoff certificate.

    The certificate, the one z_summary proves z(d) on, is exact for all time
    and built within the same cap, budget or else MEASURE_CUTOFF.  Phase 1
    (z = y) ends at its boundary exactly when z first disagrees with y at
    L1 - rho.  Phases 2-3 are the rho newest bits of z's window at L1, the
    certificate's landed, against y's outputs at the same times: d + 1
    anomalies z = 0, y = 1, then equality.  Phases 4-5 (z from L1 on is w)
    hold when z's window there is w's first h outputs and z never leaves
    w's orbit.
    """
    params = window_params(m)
    z = member(params, "z", d)
    rho, h, k = params.rho, params.h, params.k
    p_d = params.primes[d]
    l1 = cycle_lengths(params, d)[1]
    w_shift = h + d + 1 - rho * (1 + p_d)
    p2_lo, p2_hi = l1 + h - rho, l1 + h - rho + d
    p3_lo, p3_hi = p2_hi + 1, l1 + h - 1
    phase3_empty = p3_lo > p3_hi

    cert, _ = _certificate(z, _cap(budget))

    bad: list[str] = []
    anomalies = 0
    if phase3_empty != (d == rho - 1):
        bad.append("phase3 emptiness does not track d == rho-1")
    if cert is None:
        bad.append("no handoff certificate of z from y into w")
    else:
        if cert.first is not None and cert.first < l1 - rho:
            bad.append(f"phase1 mismatch at t={cert.first + h}")
        # z's window at L1 is its outputs at L1 .. L1 + h - 1; the rho newest are at p2_lo..p3_hi
        z_window = bits_from_word(cert.landed, h)
        y_bits = cert.head.trace(p2_lo, p3_hi + 1)
        bits = list(zip(range(p2_lo, p3_hi + 1), z_window[h - rho :], y_bits))
        for t, z, y in bits[: d + 1]:
            if z == 0 and y == 1:
                anomalies += 1
            else:
                bad.append(f"phase2 expected z=0,y=1 at t={t}, got z={z},y={y}")
        if anomalies != d + 1:
            bad.append(f"phase2 anomaly count {anomalies} != {d + 1}")
        t = next((t for t, z, y in bits[d + 1 :] if z != y), None)
        if t is not None:
            bad.append(f"phase3 mismatch at t={t}")
        n = cert.tail_first
        if z_window != cert.tail.trace(0, h):
            bad.append(f"phase4 mismatch: z's window at L1 = {l1} is not w's init")
        elif n is not None and n <= rho * (k - 1 - p_d) + d:
            bad.append(f"phase4 mismatch at offset t={n}")
        elif n is not None:
            bad.append(f"phase5 mismatch at offset t={n + h - w_shift}")

    detail = {
        "phase1": [0, p2_lo - 1],
        "phase2": [p2_lo, p2_hi],
        "phase3": None if phase3_empty else [p3_lo, p3_hi],
        "phase3_empty": phase3_empty,
        "phase4_z": [l1 + h, l1 + w_shift + h - 1],
        "phase5_start": l1 + w_shift,
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
    y = member(params, "y")
    rep = y.prove(budget)
    steps_detail, periods = {"y": _report_dict(rep, y.predicted)}, [rep.measured_period]
    mem = member(params, "z", 0)
    for d in range(rho):
        if d:  # chained from z(d - 1) once that is proved, and then dropped
            kept = (_members or {}).get((m, "z", d))  # the run's z(d), built on its plan
            plan = cons.perturbation_plan(params, d) if kept is None else kept.plan
            mem = member(params, "z", d, cons.chain_perturbation(mem.system, mem.plan, plan), plan)
        rep = mem.prove(budget)
        steps_detail[f"z{d}"] = _report_dict(rep, mem.predicted)
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


def _first_unforced_slide(mem: Member, n_free: int) -> int | None:
    """The first of n_free slides whose output the oldest n_free bits of
    mem's init can change, or None when every output is forced.

    At slide s the taps at offsets j > memory - n_free + s read unknown
    bits.  Known bits count exactly; an unknown tap of scaled weight w adds
    min(0, w) to the sum's lower bound and max(0, w) to its upper bound.
    The free bits are independent and reach both bounds, so the pass is
    exact: at the first unforced slide two prefixes output different bits.
    """
    cs = mem.cs
    theta = cs.scaled_threshold
    known = cs.mask >> n_free
    word = word_from_bits(mem.system.init) & known
    for s in range(n_free):
        lo = hi = 0
        for w, gm in cs.groups:
            exact = w * (word & gm).bit_count()
            free = w * (gm & ~known).bit_count()
            lo += exact + min(0, free)
            hi += exact + max(0, free)
        if lo < theta <= hi:
            return s
        word = ((word << 1) | (lo >= theta)) & cs.mask
        known = known << 1 | 1
    return None


def check_basin(m: int, d: int, budget: int | None = None) -> ClaimResult:
    """Free-prefix insensitivity of z(., d), exact over every prefix.

    With e the lane minimizing beta_i and d < beta_e, the first
    n_free = beta_e - d window bits of z(., d) are free.  The instance
    passes when _first_unforced_slide forces every output: then all
    2^n_free prefixes reach one window after n_free slides, so they share
    the reference's future and attractor.  Otherwise it fails, naming
    unforced_slide.  The reference z(d) is the run's member, proved within
    budget.  Raises HypothesisUnmet when d >= beta_e.
    """
    params = window_params(m)
    params.check_lane(d, "d")
    beta_e = min(params.beta_m)
    if d >= beta_e:
        raise HypothesisUnmet(f"d={d} >= min beta = {beta_e} at m={m}")
    n_free = beta_e - d

    z = member(params, "z", d)
    ref_rep = z.prove(budget)
    unforced = _first_unforced_slide(z, n_free)
    detail = {
        "free_bits": n_free,
        "variants_total": 2**n_free,
        "unforced_slide": unforced,
        "reference": _report_dict(ref_rep, z.predicted),
    }
    return ClaimResult("basin", {"m": m, "d": d}, unforced is None, detail)


# ---------------------------------------------------------------------------
# composition claims


# the memory-1 units fixed at their own output, x(n) = 1[2 x(n-1) - 1], from 0 and from 1
_CONSTANT_LANES = tuple(
    RecurrenceSystem(memory=1, taps=((1, 2),), threshold=1, init=bytes([bit]), label=f"const{bit}")
    for bit in (0, 1)
)


def _constant_lane(bit: int) -> RecurrenceSystem:
    """The memory-1 unit fixed at bit, built once per process."""
    return _CONSTANT_LANES[bit]


def _composed_cycle(bits: Sequence[int]) -> CycleReport:
    composed = cons.shuffle_compose([_constant_lane(b) for b in bits])
    return detect_cycle(compile_system(composed), composed.init, 10_000)


def check_composition(claim: str, seed: int = 0) -> ClaimResult:
    """Shuffles of fixed-point lanes: alternating patterns and the divisor rule."""
    examples = {"example1_period2": ((0, 1) * 3, 2), "example1_period3": ((0, 0, 1) * 2, 3)}
    if claim in examples:
        bits, period = examples[claim]
        rep = _composed_cycle(bits)
        ok = rep.measured_transient == 0 and rep.measured_period == period
        return ClaimResult(claim, {}, ok, {"T": rep.measured_transient, "P": rep.measured_period})
    if claim == "divisor_rule":
        rng = random.Random(seed)
        bad: list[dict] = []
        periods_seen: set[int] = set()
        for _ in range(100):
            r = rng.randint(2, 8)
            bits = tuple(rng.randint(0, 1) for _ in range(r))
            rep = _composed_cycle(bits)
            periods_seen.add(rep.measured_period)
            if rep.measured_transient != 0 or r % rep.measured_period != 0:
                bad.append({"bits": list(bits), "T": rep.measured_transient, "P": rep.measured_period})
        detail = {"rounds": 100, "seed": seed, "periods_seen": sorted(periods_seen), "violations": bad}
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


def proof_work(params: WindowParams, family: str, index: int | None = None) -> int:
    """Predicted T + P of the orbits Member.prove proves for a family member.

    This is the one price of a proof, shared by the claim table and the
    CLI's cycle mode.  x_i and v_i are priced at their own T + P, and y,
    w(d) and z(d) at their lanes on every route, far below MEASURE_CUTOFF
    wherever a blind search is the cheaper.  The rho lanes of y and w(d)
    are single units of memory k, x_i for every lane of y and for the lanes
    i > d of w(d), v_i for the lanes i <= d, each priced at the most slides
    its search takes (find_repeat): M + M // 8, M = T + P + (T + P) // 8.
    z(d) is proved on the lanes of y and w(d) (handoff_certificate) and is
    priced at both lane prices plus what each search for a disagreement
    counts before its branch and bound (_first_disagreement): rho times the
    longest lane transient and the sum of the lane periods.  Between the
    two searches come at most h explicit steps, priced at h, and the branch
    and bound's nodes, which have no proven bound and are allowed another h;
    at m = 5 to 40 they take at most 0.14 h (m = 5 z(1): 16 nodes, h = 116).
    """
    if family not in ("y", "w", "z"):
        return sum(predicted_cycle(params, family, index))

    def lanes(collapsed: int) -> tuple[int, int]:
        """The price of the lane searches and of a search on them, v_i on lanes i <= collapsed."""
        orbits = [predicted_cycle(params, "v" if i <= collapsed else "x", i) for i in range(params.rho)]
        searched = sum(n + n // 8 for n in (t + p + (t + p) // 8 for t, p in orbits))
        return searched, params.rho * max(t for t, _ in orbits) + sum(p for _, p in orbits)

    if family == "z":
        return sum(lanes(-1)) + sum(lanes(index)) + 2 * params.h
    return lanes(index if family == "w" else -1)[0]


def _priced(families: str) -> Callable[..., int]:
    """The one price of an instance: the largest proof_work among the members
    of families it proves or certifies, at its step d or else every index."""

    def work(params: WindowParams, d: int | None = None) -> int:
        indices = range(params.rho) if d is None else (d,)
        return max(proof_work(params, f, i) for f in families for i in ((None,) if f == "y" else indices))

    return work


def skip_detail(work: int) -> dict | None:
    """Why an instance is skipped, or None when it runs.

    An instance whose predicted work (in window slides) exceeds
    MEASURE_CUTOFF, the one cutoff of every claim, is skipped rather than
    attempted and aborted.  This is the one place a cutoff is compared.
    """
    if work <= MEASURE_CUTOFF:
        return None
    return {"skipped": "predicted work exceeds cutoff", "work": work, "cutoff": MEASURE_CUTOFF}


# ---------------------------------------------------------------------------
# the claim table


class Claim(NamedTuple):
    """One checkable statement.

    grid(params) lists its structurally valid instances at one scale, or is
    None for a scale-free claim.  cost is None when every instance runs, and
    otherwise cost(params, **instance) predicts the work of one instance,
    which skip_detail compares with MEASURE_CUTOFF.
    run(m, seed=, budget=, **instance) checks one instance; a scale-free
    claim's run takes only seed.
    """

    name: str
    grid: Callable[[WindowParams], list[dict]] | None
    cost: Callable[..., int] | None
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
        Claim("x_cycle", _once, _priced("x"), _run_x_cycle),
        Claim("v_fixed", _once, _priced("v"), _run_v_fixed),
        Claim("sum_bounds", _once, _priced("xyw"), _run_sum_bounds),
        Claim("s1_range", _once, None, _run_s1_range),
        Claim("y_cycle", _once, _priced("y"), _run_y_cycle),
        Claim("y_deshuffle", _once, _priced("y"), _run_y_deshuffle),
        Claim("w_cycle", _every_d, _priced("w"), _run_w_cycle),
        Claim("b0_methods_agree", _once, None, _run_b0_methods_agree),
        Claim("chain_equals_direct", _once, None, _run_chain_equals_direct),
        Claim(
            "phases",
            _every_d,
            _priced("z"),
            lambda m, d, budget, **_: check_phases(m, d, budget=budget),
        ),
        Claim("z_summary", _every_d, _priced("z"), _run_z_summary),
        Claim(
            "chain",
            _once,
            _priced("yz"),
            lambda m, budget, **_: check_chain(m, budget=budget),
        ),
        Claim(
            "basin",
            _basin_grid,
            _priced("z"),
            lambda m, d, budget, **_: check_basin(m, d, budget=budget),
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
    return [(kw, skip_detail(entry.cost(params, **kw))) for kw in entry.grid(params)]


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
    and nothing runs for it, while a failed search and a refuted prediction
    become failing results rather than exceptions, so one bad instance
    cannot take down a whole report.  A scale the window parameters reject
    raises RhoTooSmall, and with ds a step off a claim's grid, or a claim
    without steps, raises ValueError, both before any instance runs; with
    ds, a claim's instances are the requested steps, in that order.  Each
    member is built, proved and certified once per call (see member).
    """
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
            grid = claim_grid(claim.name, m)
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
    with proof_memo():
        return [job() for job in jobs]
