"""Minimal transient and period measurement over packed window states.

The state sequence is S_0, S_1, ... where S_n is the window after n slides
(S_0 is the init itself) and the dynamics are deterministic, so it is
eventually periodic with a unique minimal transient T and period P.

One probe rule proves a predicted pair, on windows read off outputs (_windows):

    S_{T+P}    == S_T         (P is a period at T)
    S_{T+P/q}  != S_T         for every prime q | P  (P is minimal)
    S_{T-1+P}  != S_{T-1}     when T > 0            (T is minimal)

which suffices: on a deterministic orbit any period is a multiple of the
minimal one, so a smaller period would survive into some P/q probe.  A
refuted pair raises PredictionFailed naming the first violated probe.

verify_predicted is the one prover of a prediction.  It probes the
windows of the outputs a range reader supplies, a closed certificate's
trace, or with none a simulation in one forward pass of exactly T + P
steps.  The two certificates share the closes / trace protocol: closes
is a value, and trace(start, stop), which takes no step, reads the
outputs x(start..stop-1) lane by lane, each lane's from its own lane time
in the range, so a range costs its length and not its start:

Lanes, built by certify_lanes, decimate a system whose memory and tap
offsets share a stride r > 1 (see lane_count): times i, i + r, i + 2r, ...
then obey their own recurrence, so x(n) is lane n mod r's output at lane
time n // r.  Each lane orbit is stepped once, by the detect_cycle search
that certifies it, whose trace it keeps: every later output or popcount
is a slice of that trace.
Lanes always close, and a proof then costs the lane searches, not T + P.
Lanes.popcount_range reads the window popcount range off them.

A HandoffCertificate covers a system that starts on one laned orbit (head)
and ends on another (tail) from a time at on, as z(d) starts on y's orbit
and ends on w(d)'s.  handoff_certificate builds it from head's and tail's
certified Lanes, which it is handed and does not build itself;
check_phases reads z(d)'s five phases off the same parts.  One search over
head's lanes finds the first time the system's own rule disagrees with
head's.  Through the lane transients it reads the system's sum and head's
next bit off the lane windows, each shifted to a checked time in one
shift.  Past them it scatters each lane's term of the sum from the 1s of
one period of the lane's outputs, and runs a branch and bound over the
lane phases with the Chinese remainder theorem.  Where the paper's margin
premises hold (_fires_only_with), as for z(d) on y and on w(d), only the
times whose next bit is 1 are checked, and otherwise every time is.  One
advance_word call from head's window there steps the system to the
handoff time, landing on S_at, and the same search over tail's lanes
finds any disagreement on tail's orbit.  The certificate closes when the
landed window is tail's S_0 and there is none: x(n) is then head's before
at and tail's x(n - at) from at on.  A proof costs a few explicit steps
and search nodes.

detect_cycle measures (T, P) blind, taking no prediction.
engine.find_repeat, which run also stops on, steps a trace to a window
that already occurred; the pair read off the trace is certified by the
same probe rule on the trace's own windows, so no slide is taken twice.

All report the window S_T the probes read as the certified entry_window,
so a caller that needs the attractor starts from it instead of walking the
transient again.

The budget contract: a function here that takes a step budget returns
within it or raises BudgetExceeded(steps, budget), every part's steps
counted, save that a search takes one slide even at budget 0.  A None
certificate is a structural refusal, never a spent budget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, product
from math import gcd, lcm, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .construction import RecurrenceSystem
from .engine import (
    CompiledSystem,
    _ones,
    advance_word,
    compile_system,
    find_repeat,
    periodic_slice,
    word_from_bits,
)
from .errors import BudgetExceeded, PredictionFailed, ShapeMismatch
from .numtheory import prime_factors

__all__ = [
    "CycleReport",
    "detect_cycle",
    "verify_predicted",
    "Lanes",
    "certify_lanes",
    "HandoffCertificate",
    "handoff_certificate",
    "lane_count",
]


class CycleReport(NamedTuple):
    """A certified minimal (transient, period) of one orbit.

    entry_window is the window S_T at the transient: the first window of
    the attractor, certified by the probes.  steps_executed counts the
    slides taken: a blind search's own, whose probes read its trace, or a
    proof's, T + P when it simulates and 0 when it reads a certificate, to
    which verify.Member.prove adds the certificate's.
    """

    measured_transient: int
    measured_period: int
    entry_window: int
    steps_executed: int


def _check_init(cs: CompiledSystem, init: Sequence[int]) -> int:
    if len(init) != cs.memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {cs.memory}")
    return word_from_bits(init)


# A reader maps a window time n, ascending from call to call, to the window S_n.
Reader = Callable[[int], int]
# An output-range reader maps (start, stop) to the outputs x(start..stop-1), one byte 0/1 each.
Outputs = Callable[[int, int], bytes]


def _windows(trace: Outputs, memory: int) -> Reader:
    """The window rule: S_n is the outputs x(n..n + memory - 1), packed into a word."""
    return lambda n: word_from_bits(trace(n, n + memory))


def _simulated(cs: CompiledSystem, word0: int) -> Reader:
    """Read S_n by advancing the full system from S_0 = word0."""
    last = [0, word0]

    def read(n: int) -> int:
        last[:] = n, advance_word(cs, last[1], n - last[0])
        return last[1]

    return read


def lane_count(cs: CompiledSystem) -> int:
    """The number r of decimated lanes: gcd of the memory and every tap offset.

    Each residue class of times mod r then obeys its own recurrence, with
    memory memory / r and taps (j / r, w).
    """
    return gcd(cs.memory, *(j for j, _ in cs.taps))


def _lane_system(cs: CompiledSystem, r: int) -> CompiledSystem:
    memory = cs.memory // r
    lane_taps = tuple((j // r, w) for j, w in cs.taps)
    return compile_system(RecurrenceSystem(memory, lane_taps, cs.scaled_threshold, bytes(memory)))


def _outputs(orbit: tuple[bytes, CycleReport], start: int, stop: int) -> bytes:
    """A lane's outputs x(start..stop-1): its trace to T, then trace[T : T + P] repeated."""
    trace, rep = orbit
    return periodic_slice(trace, rep.measured_transient, rep.measured_period, start, stop)


class Lanes(NamedTuple):
    """The decimated lanes of one orbit, each lane orbit certified.

    cs is the lane recurrence; orbits[i] is lane i's trace, the first
    T + P + memory bytes its detect_cycle search wrote, and its report.
    trace(start, stop) reads any range of the orbit's outputs off them, in
    time and space O(stop - start) beyond the lanes, whatever the start.
    """

    cs: CompiledSystem
    orbits: tuple[tuple[bytes, CycleReport], ...]

    closes = True  # each lane orbit is certified, so every output is exact

    def trace(self, start: int, stop: int) -> bytearray:
        """The orbit's outputs x(start..stop-1), one byte 0/1 each."""
        buf = bytearray(max(stop - start, 0))
        _fill(self, buf, 0, start, stop)
        return buf

    @property
    def coprime(self) -> bool:
        """Whether the lane periods are pairwise coprime."""
        periods = [rep.measured_period for _, rep in self.orbits]
        return lcm(*periods) == prod(periods)

    def popcount_range(self) -> tuple[int, int] | None:
        """(min, max) window popcount over S_n for all n >= 0, or None unless the
        lane periods are coprime.

        S_{r*Q + c} holds lane i at lane time Q + [i < c], so its popcount is
        a sum over lanes: explicit before r * q0 (q0 the longest lane
        transient), and past it, where every tuple of lane phases occurs in
        every slot c, the sum of each lane's extremes over its cycle.
        """
        if not self.coprime:
            return None
        memory = self.cs.memory
        q0 = max(rep.measured_transient for _, rep in self.orbits)

        def counts(orbit: tuple[bytes, CycleReport], s: int, n: int) -> list[int]:
            # the popcounts at lane times s .. s + n - 1, by prefix sums of the outputs
            pre = list(accumulate(_outputs(orbit, s, s + n + memory - 1), initial=0))
            return [b - a for a, b in zip(pre, pre[memory:])]

        heads = [counts(orbit, 0, q0 + 1) for orbit in self.orbits]
        cycles = [counts(o, o[1].measured_transient, o[1].measured_period) for o in self.orbits]
        sums = set()
        for q in range(q0):
            s = sum(h[q] for h in heads)
            sums.add(s)
            for h in heads[:-1]:  # the next slot reads one more lane at q + 1
                s += h[q + 1] - h[q]
                sums.add(s)
        lo, hi = sum(map(min, cycles)), sum(map(max, cycles))
        return min(sums | {lo}), max(sums | {hi})


def _fill(lanes: Lanes, buf: bytearray, at: int, start: int, stop: int) -> None:
    """Write x(start..stop-1) of the orbit on lanes over buf[at : at + stop - start]:
    lane i's outputs from its first time in range into every r-th byte from
    there, a bytearray slice write (a strided memoryview write is about ten
    times slower)."""
    r = len(lanes.orbits)
    for i, orbit in enumerate(lanes.orbits):
        first = start + (i - start) % r  # at lane time (first - i) / r
        s = (first - i) // r
        outs = _outputs(orbit, s, s + len(range(first, stop, r)))
        buf[at + first - start : at + stop - start : r] = outs


def certify_lanes(cs: CompiledSystem, init: Sequence[int], budget: int) -> tuple[Lanes, int]:
    """Certify each of the lane_count(cs) lanes with _search, the search
    detect_cycle wraps, keeping the first T + P + memory bytes of its trace.

    Lane i is the trace at times i, i + r, i + 2r, ..., with init
    init[i::r]; with r = 1 the one lane is the system itself.  Returns the
    lanes and the slides the searches took, or raises BudgetExceeded past
    budget (the budget contract), as when a lane left no budget takes a slide.
    """
    r = lane_count(cs)
    lane_cs = _lane_system(cs, r)
    orbits, spent = [], 0
    for i in range(r):
        try:
            rep, trace = _search(lane_cs, init[i::r], budget - spent)
        except BudgetExceeded as exc:
            raise BudgetExceeded(spent + exc.steps, budget) from None
        spent += rep.steps_executed
        if spent > budget:
            raise BudgetExceeded(spent, budget)
        kept = rep.measured_transient + rep.measured_period + lane_cs.memory
        orbits.append((bytes(trace[:kept]), rep))
    return Lanes(lane_cs, tuple(orbits)), spent


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int]:
    """The x mod M = prod(moduli) with x = residues[i] mod moduli[i], for
    pairwise coprime moduli."""
    x, mod = 0, 1
    for a, p in zip(residues, moduli):
        x += mod * ((a - x) * pow(mod, -1, p) % p)
        mod *= p
    return x, mod


def _lane_terms(cs: CompiledSystem, lanes: Lanes) -> Iterator[tuple[list[list[int]], bytes]]:
    """Slot by slot, each lane's term of cs's affine sum on S_{r*Q + c} past
    the lane transients, terms[i][x] at Q = x mod P_i, and the orbit's next
    bit there, bits[x]: lane c's output at lane time Q.

    From T_i - memory on, lane i's outputs repeat cycle[x] at the lane times
    = x mod P_i.  Tap j reads lane l = -j mod r lag = (j + l) / r lane times
    back in slot 0, and lane (l + c) mod r in slot c, at lane time Q + [i < c].
    So each 1 of lane i's cycle, at phase u, adds w to its term at phase
    u + lag - [i < c] for each such tap (lag, w).
    """
    r, memory = len(lanes.orbits), lanes.cs.memory
    lags: list[list[tuple[int, int]]] = [[] for _ in range(r)]  # slot 0's taps by lane
    for j, w in cs.taps:
        lags[-j % r].append(((j - 1) // r + 1, w))
    cycles = []
    for orbit in lanes.orbits:
        t, p = orbit[1].measured_transient, orbit[1].measured_period
        q = -(-t // p) * p  # ceil(T / P) * P: past T, and at phase 0
        cycles.append(_outputs(orbit, memory + q, memory + q + p))
    ones = [list(_ones(cyc)) for cyc in cycles]
    for c in range(r):
        terms = [[0] * len(cyc) for cyc in cycles]
        for i, lane in enumerate(terms):
            p = len(lane)
            for u in ones[i]:
                u -= i < c
                for lag, w in lags[(i - c) % r]:
                    lane[(u + lag) % p] += w
        yield terms, cycles[c]


def _fires_only_with(cs: CompiledSystem, lanes: Lanes) -> bool:
    """Whether cs's rule fires only where the orbit on lanes does: the
    paper's margin argument behind s1_range, checked in exact integers.

    With D = cs.denominator and the lane rule's integer taps at offsets
    j * r, it holds when each of cs's scaled weights is at most D times
    the lane rule's at the same offset, over both tap sets with a missing
    tap 0, and cs.scaled_threshold > D * (lane threshold - 1).  Where the
    orbit's next bit is 0 its lane sum is at most the lane threshold less
    one, so cs's sum, at most D times it on a window of 0/1 bits, falls
    below cs's threshold: cs does not fire either.
    """
    d, r = cs.denominator, len(lanes.orbits)
    margin: Counter[int] = Counter()  # D * lane weight - cs's weight, by offset
    for j, w in lanes.cs.taps:
        margin[r * j] += d * w
    for j, w in cs.taps:
        margin[j] -= w
    return min(margin.values(), default=0) >= 0 and cs.scaled_threshold > d * (
        lanes.cs.scaled_threshold - 1
    )


def _first_disagreement(cs: CompiledSystem, lanes: Lanes, budget: int) -> tuple[int | None, int]:
    """The first time n at which cs's rule, applied to the window S_n of
    the orbit on lanes, disagrees with the orbit's next bit, or None when
    they agree forever; and the steps taken.

    Write n = r*Q + c.  S_n holds lane i's window at lane time Q + [i < c],
    so cs's affine sum on S_n is a sum of one term per lane, and the
    orbit's next bit is lane c's output at lane time Q.  Before r * q0,
    where q0 is the longest lane transient, the times are checked in turn,
    each lane window brought to its lane time in one shift by the gap.
    From there on each lane's term is a function of Q mod P_i, scattered
    from the 1s of one period of the lane's outputs (_lane_terms).  For
    each slot c and each value of the next bit, a branch and bound over
    boxes of lane phases, bounded by the sum of each lane's least and
    greatest term, finds every box of phase tuples on which cs's bit
    differs; the lane periods are pairwise coprime, so the Chinese
    remainder theorem maps each tuple to one Q mod prod(P_i).

    Where _fires_only_with holds (every z(d) on y's and w(d)'s lanes), cs
    cannot fire where the next bit is 0, so only the times whose next bit
    is 1 are checked: the prefix finds them with bytes.find and shifts no
    window for any other, and the branch and bound runs only its bit = 1
    half.  Where a premise fails every time is checked, the exact scan.

    steps counts the r * q0 times of the prefix, checked or not, the P_i
    phases of each lane, and the nodes and tuples of the search, so it
    does not depend on how a time is reached.  Raises BudgetExceeded past
    budget steps, checked before the prefix, after the phases and at each
    node and tuple.
    """
    r, memory, lane_mask = len(lanes.orbits), lanes.cs.memory, lanes.cs.mask
    q0 = max(rep.measured_transient for _, rep in lanes.orbits)
    theta = cs.scaled_threshold
    if r * q0 > budget:
        raise BudgetExceeded(r * q0, budget)
    checked = (1,) if _fires_only_with(cs, lanes) else (0, 1)  # the next bits to check

    # flat[c]: cs's taps on the lane windows in slot c, as (lane, weight, lane
    # mask); tap j reads lane (c - j) mod r, so slot c's lanes are slot 0's rotated
    slot0: list[dict[int, int]] = [{} for _ in range(r)]
    for j, w in cs.taps:
        lane = slot0[-j % r]
        lane[w] = lane.get(w, 0) | 1 << ((j - 1) // r)
    flat = [[(i, w, m) for i in range(r) for w, m in slot0[(i - c) % r].items()] for c in range(r)]

    # lane i's outputs through the prefix, and its window at lane time at[i]
    outs = [_outputs(orbit, 0, q0 + memory) for orbit in lanes.orbits]
    windows, at = [word_from_bits(out[:memory]) for out in outs], [0] * r
    # every time, or the n = r*q + c whose next bit, lane c's output at lane time q, is 1
    times = range(r * q0) if 0 in checked else sorted(
        r * (u - memory) + c for c, out in enumerate(outs) for u in _ones(out, memory, memory + q0)
    )
    for n in times:
        q, c = divmod(n, r)
        for i, out in enumerate(outs):
            gap = q + (i < c) - at[i]
            if gap:
                fresh = word_from_bits(out[memory + at[i] : memory + at[i] + gap])
                windows[i], at[i] = (windows[i] << gap | fresh) & lane_mask, at[i] + gap
        s = sum(w * (windows[i] & mask).bit_count() for i, w, mask in flat[c])
        if (s >= theta) != outs[c][q + memory]:
            return n, n + 1

    steps = r * q0 + sum(rep.measured_period for _, rep in lanes.orbits)  # and each lane phase
    if steps > budget:
        raise BudgetExceeded(steps, budget)

    best = None
    for c, (terms, bits) in enumerate(_lane_terms(cs, lanes)):
        by_term = [sorted(range(len(t)), key=t.__getitem__) for t in terms]
        for bit in checked:
            box = list(by_term)
            box[c] = [x for x in by_term[c] if bits[x] == bit]
            stack = [box] if box[c] else []
            while stack:
                box = stack.pop()
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(steps, budget)
                lo = sum(t[xs[0]] for t, xs in zip(terms, box))
                hi = sum(t[xs[-1]] for t, xs in zip(terms, box))
                if (lo >= theta) != (hi >= theta):
                    i = max(range(r), key=lambda i: terms[i][box[i][-1]] - terms[i][box[i][0]])
                    half = len(box[i]) // 2
                    stack.append(box[:i] + [box[i][:half]] + box[i + 1 :])
                    stack.append(box[:i] + [box[i][half:]] + box[i + 1 :])
                    continue
                if (lo >= theta) == bit:
                    continue
                # every tuple in the box disagrees; a lane with all its
                # phases in the box constrains nothing
                fixed = [(xs, len(t)) for xs, t in zip(box, terms) if len(xs) < len(t)]
                moduli = [p for _, p in fixed]
                for residues in product(*(xs for xs, _ in fixed)):
                    steps += 1
                    if steps > budget:
                        raise BudgetExceeded(steps, budget)
                    x, mod = _crt(residues, moduli)
                    n = r * (q0 + (x - q0) % mod) + c
                    best = n if best is None else min(best, n)
    return best, steps


class HandoffCertificate(NamedTuple):
    """A system's orbit on head's orbit and then tail's, each part exact.

    head and tail are the certified lanes of the two orbits; first and
    tail_first are the first times the system's rule disagrees with head's
    next bit on head's orbit and with tail's on tail's, or None when it
    never does.  Up to first S_n is head's window; landed is S_at, stepped
    with the system's rule from head's window at min(first, at).  closes:
    landed is tail's S_0 and tail_first is None.
    """

    head: Lanes
    first: int | None
    landed: int
    at: int
    tail: Lanes
    tail_first: int | None
    closes: bool

    def trace(self, start: int, stop: int) -> bytearray:
        """x(start..stop-1) of a closed certificate: head's before at, tail's
        x(n - at) from at on."""
        buf = bytearray(max(stop - start, 0))
        cut = min(max(self.at, start), stop)
        _fill(self.head, buf, 0, start, cut)
        _fill(self.tail, buf, cut - start, cut - self.at, stop - self.at)
        return buf


def handoff_certificate(
    cs: CompiledSystem, init: Sequence[int], head: Lanes, tail: Lanes, at: int, budget: int
) -> tuple[HandoffCertificate | None, int]:
    """The system's HandoffCertificate from init, on head's orbit and from
    time at on tail's, and the steps it took: the first disagreement with
    head on head's orbit (_first_disagreement), the at - split explicit
    steps from split = min(first, at) to at, at most memory of them, and the
    same search on tail's orbit.  None with 0 steps when init is not head's
    first memory outputs, the lanes do not cover the system's memory or
    their periods share a factor, and with the head search's when the first
    disagreement comes more than memory slides before at.  Past budget it
    raises BudgetExceeded (the budget contract)."""
    _check_init(cs, init)
    memory = cs.memory
    covered = {len(lanes.orbits) * lanes.cs.memory for lanes in (head, tail)}
    coprime = head.coprime and tail.coprime
    if head.trace(0, memory) != bytes(init) or covered != {memory} or not coprime:
        return None, 0
    first, spent = _first_disagreement(cs, head, budget)
    split = at if first is None else min(first, at)
    if at - split > memory:
        return None, spent
    landed = advance_word(cs, _windows(head.trace, memory)(split), at - split)
    spent += at - split
    try:
        tail_first, steps = _first_disagreement(cs, tail, budget - spent)
    except BudgetExceeded as exc:
        raise BudgetExceeded(spent + exc.steps, budget) from None
    closes = landed == _windows(tail.trace, memory)(0) and tail_first is None
    return HandoffCertificate(head, first, landed, at, tail, tail_first, closes), spent + steps


def _probe_pass(read: Reader, transient: int, period: int) -> int:
    """Run the certification probes on the windows read supplies, and
    return the window S_T."""
    checkpoints: set[int] = {transient, transient + period}
    checkpoints.update(transient + period // q for q in prime_factors(period))
    if transient > 0:
        checkpoints.update((transient - 1, transient - 1 + period))
    snap = {n: read(n) for n in sorted(checkpoints)}
    if snap[transient + period] != snap[transient]:
        raise PredictionFailed(
            "period", {"transient": transient, "period": period, "reason": "window does not recur"}
        )
    for q in prime_factors(period):
        if snap[transient + period // q] == snap[transient]:
            raise PredictionFailed(
                "period_minimality",
                {"transient": transient, "period": period, "smaller_period": period // q},
            )
    if transient > 0 and snap[transient - 1 + period] == snap[transient - 1]:
        raise PredictionFailed(
            "transient_minimality",
            {"transient": transient, "period": period},
        )
    return snap[transient]


def detect_cycle(cs: CompiledSystem, init: Sequence[int], step_budget: int) -> CycleReport:
    """Measure the minimal (transient, period) of the orbit from init, blind.

    It takes no prediction: a caller that has one compares the measured
    pair itself, or proves it in fewer steps with verify_predicted.
    engine.find_repeat steps the trace to a window S_n that already
    occurred, first at S_i; i lies on the cycle, so the next S_i after i is
    one minimal period on, and the transient is the first t with
    S_t == S_{t + P}, found by bisection over the trace.  The search
    succeeds exactly when T + P <= max(step_budget, 1) and otherwise raises
    BudgetExceeded.  It takes n slides and holds the trace, about
    9/8 (T + P) + memory bytes; the probe rule re-proves the measured pair
    on the trace's windows, so a buggy lookup or bisection cannot return.
    """
    return _search(cs, init, step_budget)[0]


def _search(cs: CompiledSystem, init: Sequence[int], budget: int) -> tuple[CycleReport, bytearray]:
    """detect_cycle's report and the trace it probed, at least T + P + memory bytes."""
    _check_init(cs, init)
    memory = cs.memory
    trace = bytearray(init)
    limit = max(budget, 1)
    n, i = find_repeat(cs, trace, limit)
    if i == n:
        raise BudgetExceeded(limit + 1, budget)
    lam = trace.find(trace[i : i + memory], i + 1, n + memory) - i
    mu = bisect_left(
        range(i + 1), True, key=lambda t: trace[t : t + memory] == trace[t + lam : t + lam + memory]
    )
    if not 0 < lam <= len(trace) - memory - mu:  # a probe would read past the trace
        raise PredictionFailed("period", {"transient": mu, "period": lam, "reason": "off the trace"})
    entry = _probe_pass(_windows(lambda a, b: trace[a:b], memory), mu, lam)
    return CycleReport(mu, lam, entry, n), trace


def verify_predicted(
    cs: CompiledSystem,
    init: Sequence[int],
    predicted_transient: int,
    predicted_period: int,
    trace: Outputs | None = None,
) -> CycleReport:
    """Prove a predicted (T, P) minimal: the one prover of a prediction.

    The probes read the windows of the outputs trace supplies (a closed
    certificate's trace), or with none a simulation of one pass of T + P
    slides.  Raises PredictionFailed naming the first violated probe.  On
    success the measured fields echo the now-proved prediction, and
    steps_executed is T + P when it simulates and 0 when it reads a
    certificate.
    """
    if predicted_transient < 0 or predicted_period < 1:
        raise ValueError(f"need T >= 0 and P >= 1, got ({predicted_transient}, {predicted_period})")
    word0 = _check_init(cs, init)
    read = _simulated(cs, word0) if trace is None else _windows(trace, cs.memory)
    steps = predicted_transient + predicted_period if trace is None else 0
    entry = _probe_pass(read, predicted_transient, predicted_period)
    return CycleReport(predicted_transient, predicted_period, entry, steps)
