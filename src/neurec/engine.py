"""Exact simulation of recurrence systems over sliding bit windows.

Two independent evaluation routes:

  compiled   the system's taps are scaled by the lcm D of their
             denominators so the affine form becomes an integer; taps with
             equal scaled weight are fused into one bitmask, so a step is a
             handful of big-int AND / popcount operations on the packed
             window.
  oracle     a deliberately naive evaluator that expands the taps into the
             full dense weight vector itself and walks all of it with
             Fraction arithmetic every step.  No scaling, no sparsity.  It
             exists to cross-check the compiled route bit for bit and for
             nothing else.

The compiled route steps in one loop, advance_word, which slides the
window; a caller that needs the affine sums of an orbit's windows adds
them up from the 1s of its trace instead of stepping again.  find_repeat
is the one search for a repeated window, used by run and by
cycles.detect_cycle.  It slides advance_word in chunks of at most memory
slides, writes each chunk's outputs, the low bits of the window, into a
trace with bits_from_word, and at check points spaced max(1, n // 8)
slides apart looks the newest window S_n up in the trace so far.  No
window repeats before S_{T + P} on an orbit of transient T and period P,
so it stops after min(limit, T + P) slides at least and M + M // 8 at
most, M = T + P + (T + P) // 8, whatever the memory.  run fills the rest
of its trace by periodic extension from the first S_i == S_n with i < n,
however many steps it asks for.

Window packing convention: bit (j - 1) of the word holds x(n - j), so the
newest output sits at bit 0 and a step is (word << 1 | out) masked back to
memory bits.  Sign is preserved exactly: sum(D * a_j * x(n-j)) >= D * theta
iff the rational affine form is >= theta, because D > 0.  word_from_bits
and bits_from_word are the one codec between words and bytes of 0/1,
oldest bit first; both go through a base-2 literal, in time linear in the
memory.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .construction import RecurrenceSystem
from .errors import ShapeMismatch

__all__ = [
    "CompiledSystem",
    "compile_system",
    "advance_word",
    "find_repeat",
    "run",
    "dense_oracle_run",
    "word_from_bits",
    "bits_from_word",
]


# translate tables between bit bytes and the digits of a base-2 literal
_DIGITS = b"01" * 128  # any byte -> b"0" or b"1" by its low bit
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def word_from_bits(bits: Sequence[int]) -> int:
    """Pack x(t-memory)..x(t-1) into an int; bits[0] is the oldest.

    Only the low bit of each byte value counts; no bits pack to 0.
    """
    return int(bytes(bits).translate(_DIGITS) or b"0", 2)


def bits_from_word(word: int, memory: int) -> bytes:
    """The low memory bits of word as bytes 0/1, in the oldest-first order
    word_from_bits consumes."""
    # a guard bit at position memory keeps the leading zeros, and leaves no digits at memory 0
    return format(word & ((1 << memory) - 1) | 1 << memory, "b")[1:].encode().translate(_BITS)


@dataclass(frozen=True)
class CompiledSystem:
    """Scaled-integer form of a RecurrenceSystem.

    taps lists (offset j, scaled weight) for the system's taps, in order;
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
    """Clear denominators and fuse equal-weight taps into bitmasks, each
    set in one bytearray, offset j at index memory - j, and packed once."""
    memory = system.memory
    denoms = [Fraction(w).denominator for _, w in system.taps]
    d = lcm(Fraction(system.threshold).denominator, *denoms)
    taps = tuple((j, _scaled(w, d)) for j, w in system.taps)
    by_weight: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(memory))
    for j, w in taps:
        by_weight[w][memory - j] = 1
    groups = tuple(sorted((w, word_from_bits(bits)) for w, bits in by_weight.items()))
    return CompiledSystem(
        memory=memory,
        taps=taps,
        scaled_threshold=_scaled(system.threshold, d),
        denominator=d,
        groups=groups,
        mask=(1 << memory) - 1,
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


def find_repeat(cs: CompiledSystem, trace: bytearray, limit: int) -> tuple[int, int]:
    """Extend trace from S_0 = trace[:memory] to the first check point n <= limit
    at which S_n already occurred.

    Window S_n is trace[n : n + memory].  advance_word slides in chunks of
    min(memory, limit - n, max(1, n // 8)) and writes each chunk's outputs,
    the low bits of the window it ends on, to trace[memory + n ...]; writing
    past the end of trace grows it.  At check points max(1, n // 8) slides
    apart, and always at limit, S_n is looked up in trace[: n + memory].
    Returns (n, i) for the first check point n at which S_n == S_i for some
    i < n, with i the first such time, or (n, n) at n = limit when there is
    none.  On an orbit of transient T and period P, a repeat is found
    exactly when T + P <= limit, and then T <= i < T + P.  A memory-0 system
    has empty windows, so S_1 repeats S_0.

    It stops within M + M // 8 slides, M = N + N // 8, N = T + P, whatever
    the memory.  Each n >= N repeats S_{n - P}, so it stops at the first
    check point n1 >= N.  With g(x) = x + max(1, x // 8), nondecreasing, the
    last check point n0 < N set the next at g(n0) <= g(N - 1), and n1 ends a
    chunk from some n < g(N - 1), so n1 <= g(g(N - 1) - 1).  Every n <= 16
    is a check point, and for N > 16, g(g(N - 1) - 1) <= g(M - 2) <= M + M // 8.
    """
    memory = cs.memory
    word = word_from_bits(trace[:memory])
    n = check = 0
    while True:
        if n >= check or n == limit:
            i = trace.find(trace[n : n + memory], 0, n + memory)
            if i < n or n == limit:
                return n, i
            check = n + max(1, n // 8)
        c = max(1, min(memory, limit - n, n // 8))
        word = advance_word(cs, word, c)
        trace[memory + n : memory + n + c] = bits_from_word(word, c)
        n += c


def run(cs: CompiledSystem, init: Sequence[int], steps: int) -> bytes:
    """Full trace x(0)..x(memory+steps-1), one byte 0/1 each; the prefix is init.

    find_repeat steps the trace to the first check point n at which the
    newest window S_n already occurred at some i < n; equal windows have
    equal futures, so the remaining outputs repeat the last n - i.  The
    trace is exact: an orbit that does not repeat within steps slides is
    stepped in full.
    """
    memory = cs.memory
    if len(init) != memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {memory}")
    if not memory:
        # no window to read outputs off, and every step sees the same empty sum
        return bytes([cs.scaled_threshold <= 0]) * max(steps, 0)
    trace = bytearray(memory + max(steps, 0))
    trace[:memory] = bytes(init)
    n, i = find_repeat(cs, trace, max(steps, 0))
    src = memoryview(trace)
    start, pos, end = i + memory, n + memory, len(trace)
    while pos < end:
        # [start, pos) has period n - i and a length that is a multiple of
        # it, so copying it forward doubles it
        k = min(pos - start, end - pos)
        trace[pos : pos + k] = src[start : start + k]
        pos += k
    return bytes(trace)


def dense_oracle_run(system: RecurrenceSystem, init: Sequence[int], steps: int) -> bytes:
    """Reference trace via a full-length rational dot product every step.

    Kept intentionally slow and direct: it expands the taps into the dense
    weight list, touches every weight each step and compares against the
    threshold in Fraction arithmetic.
    """
    if len(init) != system.memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {system.memory}")
    trace = list(init)
    window = deque(init, maxlen=system.memory)
    weights = [0] * system.memory
    for j, w in system.taps:
        weights[j - 1] = w
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
