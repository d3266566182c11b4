"""Minimal transient and period measurement over packed window states.

The state sequence is S_0, S_1, ... where S_n is the window after n slides
(S_0 is the init itself) and the dynamics are deterministic, so it is
eventually periodic with a unique minimal transient T and period P.

One probe rule proves a predicted pair, on windows that a reader supplies:

    S_{T+P}    == S_T         (P is a period at T)
    S_{T+P/q}  != S_T         for every prime q | P  (P is minimal)
    S_{T-1+P}  != S_{T-1}     when T > 0            (T is minimal)

which suffices: on a deterministic orbit any period is a multiple of the
minimal one, so a smaller period would survive into some P/q probe.  A
refuted pair raises PredictionFailed naming the first violated probe.

verify_predicted is the one prover of a prediction.  It reads the probed
windows from one of three sources: a simulation, in one forward pass of
exactly T + P steps, or one of two certificates, which share the closes /
read protocol and which a caller passes as certify(cap):

Lanes, built by certify_lanes, decimate a system whose memory and tap
offsets share a stride r > 1 (see lane_count): times i, i + r, i + 2r, ...
then obey their own recurrence, so S_n is the exact interleave of the r
lane windows at lane time ceil((n - i) / r), each read off a lane orbit
that detect_cycle certified.  Lanes always close, and a proof then costs
lane slides, not T + P.  Lanes.popcount_range reads the window popcount
range off them.

A HandoffCertificate, built by handoff_certificate, covers a system that
starts on one laned orbit (head) and ends on another (tail), as z(d)
starts on y's orbit and ends on w(d)'s; check_phases reads z(d)'s five
phases off the same parts.  Branch and bound over head's lane phases,
with the Chinese remainder theorem, finds the first time the system's own
rule disagrees with head's; explicit steps from there reach the handoff
time; and the same search over tail's lane phases finds any disagreement
on tail's orbit.  The certificate closes when the stepped window is
tail's init and there is none: S_n is then head's window before the
disagreement, an explicit step before the handoff, and tail's window at
n - at after it.  A proof costs lane slides, a few explicit steps and
search nodes.

A certificate that cannot be built within min(T + P, budget) steps, or
that does not close, leaves the proof to the simulation.

detect_cycle measures (T, P) blind, taking no prediction, with a
constant-memory search: a teleporting anchor pass recovers the exact
minimal period, then two offset pointers recover the transient.  The
measured pair is then certified by the same probe rule, so it is never an
artifact of the search itself.

All report the window S_T the probes read as the certified entry_window,
so a caller that needs the attractor starts from it instead of walking the
transient again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import gcd, lcm, prod
from typing import Callable, NamedTuple, Sequence

from .construction import RecurrenceSystem
from .engine import CompiledSystem, advance_word, compile_system, walk, word_from_bits
from .errors import BudgetExceeded, PredictionFailed, ShapeMismatch

__all__ = [
    "CycleReport",
    "detect_cycle",
    "verify_predicted",
    "Lanes",
    "certify_lanes",
    "Handoff",
    "HandoffCertificate",
    "handoff_certificate",
    "lane_count",
    "prime_factors",
]


@dataclass(frozen=True)
class CycleReport:
    """A certified minimal (transient, period) of one orbit.

    entry_window is the window S_T at the transient: the first window of
    the attractor, certified by the probes.  steps_executed counts the
    slides taken, probes included; read off Lanes they are lane slides,
    searches and reads together, and off a HandoffCertificate lane slides,
    explicit steps and search nodes.
    """

    measured_transient: int
    measured_period: int
    entry_window: int
    steps_executed: int


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors, ascending.

    Trial division: fast for the periods proved here, whose prime factors
    are all small.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _check_init(cs: CompiledSystem, init: Sequence[int]) -> int:
    if len(init) != cs.memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {cs.memory}")
    return word_from_bits(init)


# A reader maps a window time n, ascending from call to call, to the window
# S_n and the slides it took to get it.
Reader = Callable[[int], tuple[int, int]]


def _simulated(cs: CompiledSystem, word0: int) -> Reader:
    """Read S_n by advancing the full system from S_0 = word0."""
    last = [0, word0]

    def read(n: int) -> tuple[int, int]:
        steps = n - last[0]
        last[:] = n, advance_word(cs, last[1], steps)
        return last[1], steps

    return read


def lane_count(cs: CompiledSystem) -> int:
    """The number r of decimated lanes: gcd of the memory and every tap offset.

    Each residue class of times mod r then obeys its own recurrence, with
    memory memory / r and taps (j / r, w).
    """
    return gcd(cs.memory, *(j for j, _ in cs.taps))


def _lane_system(cs: CompiledSystem, r: int) -> CompiledSystem:
    memory = cs.memory // r
    weights = [0] * memory
    for j, w in cs.taps:
        weights[j // r - 1] = w
    lane = RecurrenceSystem(memory, tuple(weights), cs.scaled_threshold, (0,) * memory)
    return compile_system(lane)


class Lanes(NamedTuple):
    """The decimated lanes of one orbit, each lane orbit certified.

    cs is the lane recurrence; orbits[i] is lane i's init word and its
    detect_cycle report.
    """

    cs: CompiledSystem
    orbits: tuple[tuple[int, CycleReport], ...]

    closes = True  # each lane orbit is certified, so every window is exact

    def read(self, n: int) -> tuple[int, int]:
        """S_n and the lane slides taken to read it.

        S_n interleaves lane i's window at lane time ceil((n - i) / r), read
        off its certified orbit, so a read costs at most one lane transient
        or period per lane.
        """
        r = len(self.orbits)
        memory = self.cs.memory
        buf = bytearray(r * memory)
        slides = 0
        for i, (word0, rep) in enumerate(self.orbits):
            s = -((i - n) // r)  # ceil((n - i) / r)
            t, p = rep.measured_transient, rep.measured_period
            if s < t:
                word, steps = word0, s
            else:
                word, steps = rep.entry_window, (s - t) % p
            slides += steps
            word = advance_word(self.cs, word, steps)
            buf[(i - n) % r :: r] = format(word, f"0{memory}b").encode()
        return int(buf, 2), slides

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
        q0 = max(rep.measured_transient for _, rep in self.orbits)

        def counts(word: int, n: int) -> list[int]:
            return [w.bit_count() for w, _ in islice(walk(self.cs, word), n)]

        heads = [counts(word0, q0 + 1) for word0, _ in self.orbits]
        cycles = [counts(rep.entry_window, rep.measured_period) for _, rep in self.orbits]
        sums = set()
        for q in range(q0):
            s = sum(h[q] for h in heads)
            sums.add(s)
            for h in heads[:-1]:  # the next slot reads one more lane at q + 1
                s += h[q + 1] - h[q]
                sums.add(s)
        lo, hi = sum(map(min, cycles)), sum(map(max, cycles))
        return min(sums | {lo}), max(sums | {hi})


def certify_lanes(
    cs: CompiledSystem, init: Sequence[int], budget: int
) -> tuple[Lanes | None, int]:
    """Certify each of the lane_count(cs) lanes with detect_cycle.

    Lane i is the trace at times i, i + r, i + 2r, ..., with init
    init[i::r]; with r = 1 the one lane is the system itself.  Returns the
    lanes, or None when the searches together would take more than budget
    slides, and the slides the searches took.
    """
    r = lane_count(cs)
    lane_cs = _lane_system(cs, r)
    orbits = []
    spent = 0
    for i in range(r):
        lane_init = init[i::r]
        try:
            rep = detect_cycle(lane_cs, lane_init, budget - spent)
        except BudgetExceeded as exc:
            return None, spent + exc.steps
        spent += rep.steps_executed
        if spent > budget:
            return None, spent
        orbits.append((word_from_bits(lane_init), rep))
    return Lanes(lane_cs, tuple(orbits)), spent


class Handoff(NamedTuple):
    """The orbit a system is claimed to follow: head's, then tail's.

    The system starts from head's init and runs head's orbit until its own
    rule first disagrees with head's; from time at on, its window S_n is
    tail's window at n - at.  head and tail each decimate into lanes (see
    lane_count).
    """

    head: RecurrenceSystem
    tail: RecurrenceSystem
    at: int


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int]:
    """The x mod M = prod(moduli) with x = residues[i] mod moduli[i], for
    pairwise coprime moduli."""
    x, mod = 0, 1
    for a, p in zip(residues, moduli):
        x += mod * ((a - x) * pow(mod, -1, p) % p)
        mod *= p
    return x, mod


def _lane_terms(table: Sequence[int], masks: dict[int, int], shift: bool) -> list[int]:
    """One lane's term of an affine sum at every lane phase x: the sum over
    masks {weight: lane mask} on the lane window at phase x + shift."""
    p = len(table)
    return [
        sum(w * (table[(x + shift) % p] & mask).bit_count() for w, mask in masks.items())
        for x in range(p)
    ]


def _first_disagreement(
    cs: CompiledSystem, ref: CompiledSystem, lanes: Lanes, budget: int
) -> tuple[int | None, int]:
    """The first time n at which cs's rule, applied to the window S_n of
    ref's orbit on lanes, disagrees with ref's next bit, or None when they
    agree forever; and the steps taken.

    Times before r * q0, where q0 is the longest lane transient, are stepped
    explicitly.  From there on write n = r*Q + c.  S_n holds lane i's window
    at lane time Q + [i < c], so cs's affine sum on S_n is a sum of one term
    per lane, each a function of Q mod P_i, and ref's next bit is lane c's
    newest bit at lane time Q + 1.  For each slot c and each value of that
    bit, a branch and bound over boxes of lane phases, bounded by the sum of
    each lane's least and greatest term, finds every box of phase tuples on
    which cs's bit differs; the lane periods are pairwise coprime, so the
    Chinese remainder theorem maps each tuple to one Q mod prod(P_i).
    steps counts the explicit steps, the lane slides that tabulate the lane
    cycles, and the nodes and tuples of the search.  Raises BudgetExceeded
    past budget steps.
    """
    r = len(lanes.orbits)
    q0 = max(rep.measured_transient for _, rep in lanes.orbits)
    word0, _ = lanes.read(0)
    if r * q0 > budget:
        raise BudgetExceeded(r * q0, budget)
    for n, (word, s) in zip(range(r * q0), walk(ref, word0)):
        if (s >= ref.scaled_threshold) != (next(walk(cs, word))[1] >= cs.scaled_threshold):
            return n, n + 1
    steps = r * q0

    # tables[i][x]: lane i's window at every lane time s >= T_i with s = x mod P_i
    tables = []
    for _, rep in lanes.orbits:
        t, p = rep.measured_transient, rep.measured_period
        table = [0] * p
        for s, (word, _) in zip(range(t, t + p), walk(lanes.cs, rep.entry_window)):
            table[s % p] = word
        tables.append(table)
        steps += p

    # masks[c][i]: cs's taps on lane i's window in slot c, as {weight: lane mask}
    masks: list[list[dict[int, int]]] = [[{} for _ in range(r)] for _ in range(r)]
    for j, w in cs.taps:
        for c in range(r):
            lane = masks[c][(c - j) % r]
            lane[w] = lane.get(w, 0) | 1 << ((j - 1) // r)

    theta = cs.scaled_threshold
    best = None
    for c in range(r):
        terms = [_lane_terms(table, masks[c][i], i < c) for i, table in enumerate(tables)]
        by_term = [sorted(range(len(t)), key=t.__getitem__) for t in terms]
        out_lane = tables[c]
        for bit in (0, 1):
            box = list(by_term)
            box[c] = [x for x in by_term[c] if out_lane[(x + 1) % len(out_lane)] & 1 == bit]
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
                fixed = [(xs, len(t)) for xs, t in zip(box, tables) if len(xs) < len(t)]
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
    """A system's orbit against a Handoff, each part exact.

    head and tail are the certified lanes of head's and tail's orbits;
    first and tail_first are the first times the system's rule disagrees
    with head's next bit on head's orbit and with tail's on tail's, or None
    when it never does.  Up to first S_n is head's window; stepped holds
    S_split .. S_at, stepped with the system's rule from min(first, at).
    """

    head: Lanes
    first: int | None
    stepped: tuple[int, ...]
    at: int
    tail: Lanes
    tail_first: int | None

    @property
    def closes(self) -> bool:
        """S_at is tail's init and the system never leaves tail's orbit."""
        return self.stepped[-1] == self.tail.read(0)[0] and self.tail_first is None

    def read(self, n: int) -> tuple[int, int]:
        """S_n of a closed certificate and the lane slides taken to read it."""
        split = self.at + 1 - len(self.stepped)
        if n >= self.at:
            return self.tail.read(n - self.at)
        if n >= split:
            return self.stepped[n - split], 0
        return self.head.read(n)


def handoff_certificate(
    cs: CompiledSystem, init: Sequence[int], handoff: Handoff, budget: int
) -> tuple[HandoffCertificate | None, int]:
    """The system's HandoffCertificate from init, and the steps it took.

    Certify head's and tail's lanes; find the system's first disagreement
    with head on head's orbit (_first_disagreement); step the system
    explicitly from there to time at, at most memory slides; and search
    tail's orbit for a disagreement the same way.  None when head's init
    differs, a system has one lane, lane periods share a factor, the first
    disagreement comes more than memory slides before at, or the work
    passes budget steps.
    """
    head, tail = compile_system(handoff.head), compile_system(handoff.tail)
    if (
        tuple(init) != handoff.head.init
        or not head.memory == tail.memory == cs.memory
        or min(lane_count(head), lane_count(tail)) == 1
    ):
        return None, 0
    head_lanes, spent = certify_lanes(head, init, budget)
    if head_lanes is None:
        return None, spent
    tail_lanes, slides = certify_lanes(tail, handoff.tail.init, budget - spent)
    spent += slides
    if tail_lanes is None or not (head_lanes.coprime and tail_lanes.coprime):
        return None, spent

    try:
        first, steps = _first_disagreement(cs, head, head_lanes, budget - spent)
    except BudgetExceeded as exc:
        return None, spent + exc.steps
    spent += steps
    at = handoff.at
    split = at if first is None else min(first, at)
    if at - split > cs.memory:
        return None, spent
    word, slides = head_lanes.read(split)
    stepped = [word]
    for _ in range(at - split):
        stepped.append(advance_word(cs, stepped[-1], 1))
    spent += slides + at - split
    try:
        tail_first, steps = _first_disagreement(cs, tail, tail_lanes, budget - spent)
    except BudgetExceeded as exc:
        return None, spent + exc.steps
    spent += steps
    return HandoffCertificate(head_lanes, first, tuple(stepped), at, tail_lanes, tail_first), spent


def _probe_pass(read: Reader, transient: int, period: int) -> tuple[int, int]:
    """Run the certification probes on the windows read supplies.

    Returns the slides read took and the window S_T.
    """
    checkpoints: set[int] = {transient, transient + period}
    checkpoints.update(transient + period // q for q in prime_factors(period))
    if transient > 0:
        checkpoints.update((transient - 1, transient - 1 + period))
    reads = {n: read(n) for n in sorted(checkpoints)}
    snap = {n: word for n, (word, _) in reads.items()}
    steps = sum(slides for _, slides in reads.values())
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
    return steps, snap[transient]


def detect_cycle(cs: CompiledSystem, init: Sequence[int], step_budget: int) -> CycleReport:
    """Measure the minimal (transient, period) of the orbit from init, blind.

    It takes no prediction: a caller that has one compares the measured
    pair itself, or proves it in fewer steps with verify_predicted.  Raises
    BudgetExceeded if the search has not met a repeat within step_budget
    slides.  The measured pair is always re-proved by the probe rule on
    simulated windows, so a buggy search cannot return quietly.
    """
    word0 = _check_init(cs, init)

    # Anchor pass: teleport the anchor to the probe at powers of two; the
    # first probe state equal to the anchor is exactly one minimal period
    # ahead of it.
    probes = walk(cs, word0)
    anchor, _ = next(probes)
    steps = 1  # the slide to the first probe
    power = 1
    lam = 0
    for probe, _ in probes:
        lam += 1
        if probe == anchor:
            break
        if power == lam:
            anchor = probe
            power *= 2
            lam = 0
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(steps, step_budget)

    # Transient pass: two pointers lam apart meet first at S_T.
    steps += lam
    mu = 0
    for (trail, _), (lead, _) in zip(walk(cs, word0), walk(cs, advance_word(cs, word0, lam))):
        if trail == lead:
            break
        steps += 2
        mu += 1
        if steps > step_budget:
            raise BudgetExceeded(steps, step_budget)

    probe_steps, entry = _probe_pass(_simulated(cs, word0), mu, lam)
    steps += probe_steps

    return CycleReport(mu, lam, entry, steps)


def _check_pair(transient: int, period: int) -> None:
    if transient < 0 or period < 1:
        raise ValueError(f"need T >= 0 and P >= 1, got ({transient}, {period})")


def verify_predicted(
    cs: CompiledSystem,
    init: Sequence[int],
    predicted_transient: int,
    predicted_period: int,
    certify: Callable[[int], tuple[Lanes | HandoffCertificate | None, int]] | None = None,
    *,
    budget: int | None = None,
) -> CycleReport:
    """Prove a predicted (T, P) minimal: the one prover of a prediction.

    certify(cap), when given, builds a certificate (Lanes or a
    HandoffCertificate) within cap = min(T + P, budget) steps and returns it,
    or None, with the steps it took.  A certificate that closes supplies the
    probed windows; otherwise they are simulated in one pass of T + P
    slides, or BudgetExceeded is raised when the spent steps plus T + P pass
    budget.  Raises PredictionFailed naming the first violated probe.  On
    success the measured fields echo the now-proved prediction, and
    steps_executed counts the certificate's steps plus the reads.
    """
    _check_pair(predicted_transient, predicted_period)
    word0 = _check_init(cs, init)
    work = predicted_transient + predicted_period
    cert, spent = None, 0
    if certify is not None:
        cert, spent = certify(work if budget is None else min(work, budget))
    if cert is not None and cert.closes:
        read = cert.read
    elif budget is not None and spent + work > budget:
        raise BudgetExceeded(spent, budget)
    else:
        read = _simulated(cs, word0)
    steps, entry = _probe_pass(read, predicted_transient, predicted_period)
    return CycleReport(predicted_transient, predicted_period, entry, spent + steps)
