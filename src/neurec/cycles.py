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

verify_predicted reads the probed windows by simulating, in one forward
pass of exactly T + P steps.  verify_lanes reads them from the decimated
lanes of a system whose memory and tap offsets share a stride r > 1 (see
lane_count): times i, i + r, i + 2r, ... then obey their own recurrence, so
S_n is the exact interleave of the r lane windows at lane time
ceil((n - i) / r), each read off a lane orbit that detect_cycle certified.
A proof then costs lane slides, not T + P.

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
from math import gcd
from typing import Callable, Sequence

from .construction import RecurrenceSystem
from .engine import CompiledSystem, advance_word, compile_system, walk, word_from_bits
from .errors import BudgetExceeded, PredictionFailed, ShapeMismatch

__all__ = [
    "CycleReport",
    "detect_cycle",
    "verify_predicted",
    "verify_lanes",
    "lane_count",
    "prime_factors",
]


@dataclass(frozen=True)
class CycleReport:
    """A certified minimal (transient, period) of one orbit.

    entry_window is the window S_T at the transient: the first window of
    the attractor, certified by the probes.  steps_executed counts the
    slides taken, probes included; on the lane route (verify_lanes) they
    are lane slides, searches and reads together.
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


# A reader maps ascending window times n to the windows S_n, and reports the
# slides it took to get them.
Reader = Callable[[Sequence[int]], tuple[list[int], int]]


def _simulated(cs: CompiledSystem, word0: int, spent: int = 0) -> Reader:
    """Read S_n by advancing the full system from S_0 = word0.

    spent counts slides already taken on the caller's behalf.
    """

    def read(times: Sequence[int]) -> tuple[list[int], int]:
        windows = []
        word = word0
        n = 0
        for target in times:
            word = advance_word(cs, word, target - n)
            n = target
            windows.append(word)
        return windows, spent + n

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


def _laned(cs: CompiledSystem, init: Sequence[int], r: int, budget: int) -> Reader:
    """Read S_n exactly from the r decimated lanes of the system.

    Lane i is the trace at times i, i + r, i + 2r, ..., with init init[i::r].
    Each lane orbit is certified with detect_cycle, and S_n
    interleaves lane i's window at lane time ceil((n - i) / r), read off
    its certified orbit, so a read costs at most one lane transient or
    period per lane.  The lane searches together may take at most budget
    slides; past it the reader simulates the full system instead, and its
    slide count includes the searches.
    """
    lane_cs = _lane_system(cs, r)
    memory = lane_cs.memory
    lanes = []
    spent = 0
    for i in range(r):
        lane_init = init[i::r]
        try:
            rep = detect_cycle(lane_cs, lane_init, budget - spent)
        except BudgetExceeded as exc:
            return _simulated(cs, word_from_bits(init), spent + exc.steps)
        spent += rep.steps_executed
        if spent > budget:
            return _simulated(cs, word_from_bits(init), spent)
        lanes.append((word_from_bits(lane_init), rep))

    def read(times: Sequence[int]) -> tuple[list[int], int]:
        windows = []
        slides = spent
        for n in times:
            buf = bytearray(cs.memory)
            for i, (word0, rep) in enumerate(lanes):
                s = -((i - n) // r)  # ceil((n - i) / r)
                t, p = rep.measured_transient, rep.measured_period
                if s < t:
                    word, steps = word0, s
                else:
                    word, steps = rep.entry_window, (s - t) % p
                slides += steps
                word = advance_word(lane_cs, word, steps)
                buf[(i - n) % r :: r] = format(word, f"0{memory}b").encode()
            windows.append(int(buf, 2))
        return windows, slides

    return read


def _probe_pass(read: Reader, transient: int, period: int) -> tuple[int, int]:
    """Run the certification probes on the windows read supplies.

    Returns the slides read took and the window S_T.
    """
    checkpoints: set[int] = {transient, transient + period}
    checkpoints.update(transient + period // q for q in prime_factors(period))
    if transient > 0:
        checkpoints.update((transient - 1, transient - 1 + period))
    times = sorted(checkpoints)
    windows, steps = read(times)
    snap = dict(zip(times, windows))
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
) -> CycleReport:
    """Prove a predicted (T, P) minimal in one pass of T + P slides.

    Raises PredictionFailed naming the first violated probe.  On success the
    measured fields simply echo the now-proved prediction.
    """
    _check_pair(predicted_transient, predicted_period)
    read = _simulated(cs, _check_init(cs, init))
    steps, entry = _probe_pass(read, predicted_transient, predicted_period)
    return CycleReport(predicted_transient, predicted_period, entry, steps)


def verify_lanes(
    cs: CompiledSystem,
    init: Sequence[int],
    predicted_transient: int,
    predicted_period: int,
) -> CycleReport:
    """Prove a predicted (T, P) minimal on the system's decimated lanes.

    The probes are verify_predicted's, on windows assembled exactly from
    the certified orbits of the lane_count(cs) lanes, so a refuted pair
    raises the same PredictionFailed.  steps_executed counts lane slides:
    the lane searches plus the reads.  When the searches would take more
    than T + P slides the windows are simulated instead.  Raises ValueError
    when the system has one lane only.
    """
    _check_pair(predicted_transient, predicted_period)
    _check_init(cs, init)
    r = lane_count(cs)
    if r == 1:
        raise ValueError("the taps and memory share no stride: the system has one lane")
    read = _laned(cs, init, r, predicted_transient + predicted_period)
    steps, entry = _probe_pass(read, predicted_transient, predicted_period)
    return CycleReport(predicted_transient, predicted_period, entry, steps)
