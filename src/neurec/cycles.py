"""Minimal transient and period measurement over packed window states.

The state sequence is S_0, S_1, ... where S_n is the window after n slides
(S_0 is the init itself) and the dynamics are deterministic, so it is
eventually periodic with a unique minimal transient T and period P.

detect_cycle finds (T, P) with a constant-memory search: a teleporting
anchor pass recovers the exact minimal period, then two offset pointers
recover the transient.  Every detection is certified afterwards by the same
probe set verify_predicted uses, so a reported pair is never an artifact of
the search itself.

verify_predicted confirms a theoretically predicted pair in one forward pass
of exactly T + P steps, checking

    S_{T+P}    == S_T         (P is a period at T)
    S_{T+P/q}  != S_T         for every prime q | P  (P is minimal)
    S_{T-1+P}  != S_{T-1}     when T > 0            (T is minimal)

which suffices: on a deterministic orbit any period is a multiple of the
minimal one, so a smaller period would survive into some P/q probe.

Both routes report the window S_T the probe pass snapshots as the
certified entry_window, so a caller that needs the attractor starts from
it instead of walking the transient again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import CompiledSystem, advance_word, walk, word_from_bits
from .errors import BudgetExceeded, PredictionFailed, ShapeMismatch

__all__ = ["CycleReport", "detect_cycle", "verify_predicted", "prime_factors"]


@dataclass(frozen=True)
class CycleReport:
    """Outcome of one cycle measurement or verification.

    entry_window is the window S_T at the measured transient: the first
    window of the attractor, certified by the probe pass.
    """

    measured_transient: int
    measured_period: int
    entry_window: int
    predicted_transient: int | None = None
    predicted_period: int | None = None
    transient_match: bool | None = None
    period_match: bool | None = None
    steps_executed: int = 0

    @property
    def matches(self) -> bool | None:
        """Both match flags, or None when no prediction was supplied."""
        if self.transient_match is None or self.period_match is None:
            return None
        return self.transient_match and self.period_match


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors, ascending.  Trial division; n stays desk-sized."""
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


def _probe_pass(cs: CompiledSystem, word0: int, transient: int, period: int) -> tuple[int, int]:
    """Run the certification probes in one forward pass.

    Returns the steps used and the window S_T.
    """
    checkpoints: set[int] = {transient, transient + period}
    checkpoints.update(transient + period // q for q in prime_factors(period))
    if transient > 0:
        checkpoints.update((transient - 1, transient - 1 + period))
    snap: dict[int, int] = {}
    word = word0
    n = 0
    for target in sorted(checkpoints):
        word = advance_word(cs, word, target - n)
        n = target
        snap[target] = word
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
    return n, snap[transient]


def detect_cycle(
    cs: CompiledSystem,
    init: Sequence[int],
    step_budget: int,
    predicted: tuple[int, int] | None = None,
) -> CycleReport:
    """Measure the minimal (transient, period) of the orbit from init.

    Raises BudgetExceeded if the anchor search has not met a repeat within
    step_budget slides.  The measured pair is always re-proved by the probe
    pass, so a buggy search cannot return quietly.
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

    probe_steps, entry = _probe_pass(cs, word0, mu, lam)
    steps += probe_steps

    t_pred, p_pred = predicted if predicted is not None else (None, None)
    return CycleReport(
        measured_transient=mu,
        measured_period=lam,
        entry_window=entry,
        predicted_transient=t_pred,
        predicted_period=p_pred,
        transient_match=None if predicted is None else mu == t_pred,
        period_match=None if predicted is None else lam == p_pred,
        steps_executed=steps,
    )


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
    if predicted_transient < 0 or predicted_period < 1:
        raise ValueError(
            f"need T >= 0 and P >= 1, got ({predicted_transient}, {predicted_period})"
        )
    word0 = _check_init(cs, init)
    steps, entry = _probe_pass(cs, word0, predicted_transient, predicted_period)
    return CycleReport(
        measured_transient=predicted_transient,
        measured_period=predicted_period,
        entry_window=entry,
        predicted_transient=predicted_transient,
        predicted_period=predicted_period,
        transient_match=True,
        period_match=True,
        steps_executed=steps,
    )
