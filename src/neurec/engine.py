"""Exact simulation of recurrence systems over sliding bit windows.

Two independent evaluation routes:

  compiled   weights are scaled by the lcm D of their denominators so the
             affine form becomes an integer; taps with equal scaled weight
             are fused into one bitmask, so a step is a handful of
             big-int AND / popcount operations on the packed window.
  oracle     a deliberately naive evaluator that walks the full dense weight
             vector with Fraction arithmetic every step.  No scaling, no
             sparsity.  It exists to cross-check the compiled route bit for
             bit and for nothing else.

The compiled route steps in exactly two loops: advance_word slides the
window, and walk also yields each window with its affine sum.  run slides
with advance_word, at most memory slides at a time, and reads the new
outputs off the low bits of the window.  Its stopping rule: at check
points spaced max(memory, n // 8) slides apart it looks the newest window
S_n up in the trace so far, and at the first S_i == S_n with i < n it
fills the rest of the trace by periodic extension with period n - i.  No
window repeats before S_{T + P} on an orbit of transient T and period P,
so a trace of it costs min(steps, T + P) slides at least and
T + P + max(memory, (T + P) // 8) + memory at most, however many steps it
asks for.  find_repeat walks to the first window equal to Brent's
teleporting anchor in constant memory; it is detect_cycle's anchor pass.

Window packing convention: bit (j - 1) of the word holds x(n - j), so the
newest output sits at bit 0 and a step is (word << 1 | out) masked back to
memory bits.  Sign is preserved exactly: sum(D * a_j * x(n-j)) >= D * theta
iff the rational affine form is >= theta, because D > 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .construction import RecurrenceSystem
from .errors import ShapeMismatch

__all__ = [
    "CompiledSystem",
    "compile_system",
    "advance_word",
    "walk",
    "find_repeat",
    "run",
    "dense_oracle_run",
    "word_from_bits",
    "bits_from_word",
]


def word_from_bits(bits: Sequence[int]) -> int:
    """Pack x(t-memory)..x(t-1) into an int; bits[0] is the oldest."""
    w = 0
    for b in bits:
        w = (w << 1) | (b & 1)
    return w


def bits_from_word(word: int, memory: int) -> tuple[int, ...]:
    """Unpack to the same oldest-first order word_from_bits consumes."""
    return tuple((word >> (memory - 1 - q)) & 1 for q in range(memory))


@dataclass(frozen=True)
class CompiledSystem:
    """Scaled-integer form of a RecurrenceSystem.

    taps lists (offset j, scaled weight) for the nonzero weights only;
    groups fuses taps of equal scaled weight into (weight, or-mask) pairs;
    denominator is the common scale D (8 * Tot(d) for z-systems, 1 for the
    integer-weight families).
    """

    memory: int
    taps: tuple[tuple[int, int], ...]
    scaled_threshold: int
    denominator: int
    groups: tuple[tuple[int, int], ...]
    mask: int


def _scaled(value, d: int) -> int:
    f = Fraction(value)
    return f.numerator * (d // f.denominator)


def compile_system(system: RecurrenceSystem) -> CompiledSystem:
    """Clear denominators and fuse equal-weight taps into bitmasks."""
    denoms = [Fraction(w).denominator for w in system.weights if w != 0]
    denoms.append(Fraction(system.threshold).denominator)
    d = lcm(*denoms) if denoms else 1
    taps = tuple(
        (j, _scaled(w, d))
        for j, w in enumerate(system.weights, start=1)
        if w != 0
    )
    by_weight: dict[int, int] = {}
    for j, w in taps:
        by_weight[w] = by_weight.get(w, 0) | (1 << (j - 1))
    groups = tuple(sorted(by_weight.items()))
    return CompiledSystem(
        memory=system.memory,
        taps=taps,
        scaled_threshold=_scaled(system.threshold, d),
        denominator=d,
        groups=groups,
        mask=(1 << system.memory) - 1,
    )


def advance_word(cs: CompiledSystem, word: int, steps: int) -> int:
    """Slide the window forward without recording a trace."""
    groups = cs.groups
    theta = cs.scaled_threshold
    mask = cs.mask
    for _ in range(steps):
        s = 0
        for w, gm in groups:
            hit = word & gm
            if hit:
                s += w * hit.bit_count()
        word = ((word << 1) | (1 if s >= theta else 0)) & mask
    return word


def walk(cs: CompiledSystem, word: int) -> Iterator[tuple[int, int]]:
    """Yield (window, D * sum_j a_j x(n-j)) from word on, forever.

    The sum decides the next output: it is 1 iff the sum is at least the
    scaled threshold.  advance_word is the same step with the loop inlined,
    for callers that only need where the window ends up.
    """
    groups = cs.groups
    theta = cs.scaled_threshold
    mask = cs.mask
    while True:
        s = 0
        for w, gm in groups:
            hit = word & gm
            if hit:
                s += w * hit.bit_count()
        yield word, s
        word = ((word << 1) | (1 if s >= theta else 0)) & mask


def find_repeat(cs: CompiledSystem, word: int, limit: int) -> tuple[int, int]:
    """Walk S_0 = word .. S_limit to the first window equal to the anchor.

    Brent's teleporting anchor: the anchor jumps to the current window
    after 1, 2, 4, ... slides, so the first window equal to it, S_n, is one
    minimal period lam past it: S_n == S_{n - lam}, and every later window
    repeats with period lam.  On an orbit of transient T and period P, n is
    below 2 * max(T + 1, P) + P.  Returns (n, lam), or (limit, 0) when no
    window up to S_limit is a repeat.  It holds two windows, whatever n.
    """
    anchor, power, lam = word, 1, 0
    for n, (window, _) in zip(range(limit + 1), walk(cs, word)):
        if window == anchor and lam:
            return n, lam
        if lam == power:
            anchor, power, lam = window, 2 * power, 0
        lam += 1
    return limit, 0


def run(cs: CompiledSystem, init: Sequence[int], steps: int) -> bytes:
    """Full trace x(0)..x(memory+steps-1), one byte 0/1 each; the prefix is init.

    Slides advance_word at most memory slides at a time; the outputs of a
    chunk are the low bits of the window it ends on.  Window S_n is
    trace[n : n + memory].  At check points max(memory, n // 8) slides
    apart, the newest window is looked up in the trace so far; equal
    windows have equal futures, so once S_i == S_n for some i < n the
    remaining outputs repeat the last n - i.  The trace is exact: an orbit
    that does not repeat within steps slides is stepped in full.
    """
    memory = cs.memory
    if len(init) != memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {memory}")
    if not memory:
        # no window to read outputs off, and every step sees the same empty sum
        return bytes([cs.scaled_threshold <= 0]) * max(steps, 0)
    trace = bytearray(memory + max(steps, 0))
    trace[:memory] = bytes(init)
    to_bits = bytes.maketrans(b"01", b"\x00\x01")
    word = word_from_bits(init)
    n = check = 0
    while n < steps:
        c = min(memory, steps - n)
        word = advance_word(cs, word, c)
        trace[memory + n : memory + n + c] = (
            format(word & ((1 << c) - 1), f"0{c}b").encode().translate(to_bits)
        )
        n += c
        if n < check:
            continue
        i = trace.find(trace[n : n + memory], 0, n + memory)
        if i < n:
            src = memoryview(trace)
            start, pos, end = i + memory, n + memory, len(trace)
            while pos < end:
                # [start, pos) has period n - i and a length that is a
                # multiple of it, so copying it forward doubles it
                k = min(pos - start, end - pos)
                trace[pos : pos + k] = src[start : start + k]
                pos += k
            break
        check = n + max(memory, n // 8)
    return bytes(trace)


def dense_oracle_run(system: RecurrenceSystem, init: Sequence[int], steps: int) -> bytes:
    """Reference trace via a full-length rational dot product every step.

    Kept intentionally slow and direct: it touches every weight each step
    and compares against the threshold in Fraction arithmetic.
    """
    if len(init) != system.memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {system.memory}")
    trace = list(init)
    window = deque(init, maxlen=system.memory)
    weights = system.weights
    theta = Fraction(system.threshold)
    for _ in range(steps):
        s = Fraction(0)
        for a, bit in zip(weights, reversed(window)):
            if bit:
                s = s + a
        out = 1 if s >= theta else 0
        trace.append(out)
        window.append(out)
    return bytes(trace)
