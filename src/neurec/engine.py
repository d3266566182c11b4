"""Exact simulation of recurrence systems over sliding bit windows.

A system is compiled once: its int weights over its one denominator D make
the affine form, scaled by D, an integer, and taps with equal weight are
fused into one bitmask.  The independent oracle, a dense evaluator that
walks every weight in rational arithmetic each step, lives with the tests,
which check every route here against it bit for bit.

The compiled form steps an orbit by spike_steps, which is event-driven
(Brette et al., J. Comput. Neurosci. 23, 2007; Mattia and Del Giudice,
Neural Comput. 12, 2000): a slide pops one pending sum, and an output 1
adds its taps' weights to the sums they reach.  The family's units fire
about once a prime period over windows of thousands of bits, so their
searches run several times faster by it.  A caller that needs the affine
sums of an orbit's windows adds them up from the 1s of its trace instead
of stepping again.  advance_word slides a packed window, a handful of
big-int AND / popcount operations on all of it a slide: it is the dense
step in compiled form and steps a window read off a trace, at most memory
slides.

find_repeat is the one search for a repeated window, used by simulate and
by cycles.detect_cycle, and steps by spike_steps.  It appends each chunk
of at most memory slides to a trace, and at check points spaced
max(1, n // 8) slides apart looks the newest window S_n up in the trace
so far.  No window repeats before S_{T + P} on an orbit of transient T
and period P, so it stops after min(limit, T + P) slides at least and
M + M // 8 at most, M = T + P + (T + P) // 8, whatever the memory.  Its
schedule (_check_points) does not read the orbit, so where it stops
follows from T + P and the limit alone: repeat_stop finds it without a
step, for a search already made.

A trace is read by range, never built whole unless a caller asks for all
of it.  simulate keeps find_repeat's trace up to the first S_i == S_n with
i < n and returns a Trace, whose slice trace[start:stop] reads
x(start..stop-1) off it by periodic_slice: a slice of the kept trace, and
past it the last n - i outputs repeated, however many steps it asks for.
It holds memory + n bytes, whatever the range.  run is the full read of
it, as bytes.  Its ones(start, stop) lists the times of the 1s in a range
by periodic_ones, from the same rule and without a byte: the kept trace's
1s, then one range of step n - i per 1 of the cycle, so an encoder that
writes runs works per 1 as spike_steps steps per 1.  The lane certificates
of cycles read their lanes' outputs by the same periodic_slice and their
1s by the same periodic_ones.

Window packing convention: bit (j - 1) of the word holds x(n - j), so the
newest output sits at bit 0 and a step is (word << 1 | out) masked back to
memory bits.  Sign is preserved exactly: sum(D * a_j * x(n-j)) >= D * theta
iff the rational affine form is >= theta, because D > 0.  word_from_bits
and bits_from_word are the one codec between words and bytes of 0/1,
oldest bit first; both go through a base-2 literal, in time linear in the
memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import partial
from typing import Callable, Generator, Iterator, NamedTuple, Sequence

from .construction import RecurrenceSystem
from .errors import ShapeMismatch

__all__ = [
    "CompiledSystem",
    "compile_system",
    "advance_word",
    "find_repeat",
    "Trace",
    "periodic_slice",
    "periodic_ones",
    "simulate",
    "run",
    "word_from_bits",
    "bits_from_word",
]


# translate tables between bit bytes and the digits of a base-2 literal
_DIGITS = b"01" * 128  # any byte -> b"0" or b"1" by its low bit
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _ones(bits: bytes, start: int = 0, stop: int | None = None) -> Iterator[int]:
    """The indices of the 1s of bits[start:stop], ascending, by bytes.find."""
    i = bits.find(1, start, stop)
    while i >= 0:
        yield i
        i = bits.find(1, i + 1, stop)


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


class CompiledSystem(NamedTuple):
    """Scaled-integer form of a RecurrenceSystem.

    taps is the system's own tuple of (offset j, weight), its weights
    already ints over the common scale denominator (8 * Tot(d) for
    z-systems, 1 for the integer-weight families), as scaled_threshold is;
    groups fuses taps of equal weight into (weight, or-mask) pairs.
    """

    memory: int
    taps: tuple[tuple[int, int], ...]
    scaled_threshold: int
    denominator: int
    groups: tuple[tuple[int, int], ...]
    mask: int


def compile_system(system: RecurrenceSystem) -> CompiledSystem:
    """Fuse equal-weight taps into bitmasks, each set in one bytearray,
    offset j at index memory - j, and packed once."""
    memory = system.memory
    by_weight: defaultdict[int, bytearray] = defaultdict(lambda: bytearray(memory))
    for j, w in system.taps:
        by_weight[w][memory - j] = 1
    groups = tuple(sorted((w, word_from_bits(bits)) for w, bits in by_weight.items()))
    return CompiledSystem(
        memory=memory,
        taps=system.taps,
        scaled_threshold=system.threshold,
        denominator=system.denominator,
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


def spike_steps(cs: CompiledSystem, trace: bytearray) -> Generator[None, int, None]:
    """The spike-driven loop: started by next(), each send(count) appends the
    next count outputs to trace, which holds the init window x(0..memory-1).

    A ring of memory slots holds the scaled sums to come, x(t)'s at slot
    t % memory.  A slide pops its slot and compares it with the threshold;
    a 1 at x(t) adds its taps' weights into the slots of x(t + j), the
    popped slot being x(t + memory)'s.  The init's 1s are seeded alike, by
    the taps that reach past the window, up to a reach of 32 * memory / taps
    slides, then eightfold each time the slides pass it, so a short search
    pays little more than what it reads.  A memory-0 unit has no taps, so
    its one slot stays 0.
    """
    memory, theta, taps = cs.memory, cs.scaled_threshold, cs.taps
    offsets = [j for j, _ in taps]
    slots = memory or 1
    ring = [0] * slots
    ones = list(_ones(trace, 0, memory))
    t, first = memory, 32 * memory // max(len(taps), 1)
    reach = 0  # the init's terms are in ring for x(memory .. memory + reach - 1)
    while True:
        stop = t + (yield)
        if stop - memory > reach:
            low, reach = reach, max(stop - memory, 8 * reach + 7, first)
            for u in ones:
                base = u - memory
                for j, w in taps[bisect_left(offsets, low - base) : bisect_left(offsets, reach - base)]:
                    ring[base + j] += w
        trace += bytes(stop - t)
        for t in range(t, stop):
            k = t % slots
            s = ring[k]
            ring[k] = 0
            if s >= theta:
                trace[t] = 1
                base = k - memory
                for j, w in taps:
                    ring[base + j] += w
        t = stop


def find_repeat(cs: CompiledSystem, trace: bytearray, limit: int) -> tuple[int, int]:
    """Extend trace, which holds exactly the init window S_0, to the first
    check point n <= limit at which S_n already occurred.

    Window S_n is trace[n : n + memory].  spike_steps appends the outputs
    in chunks of min(memory, limit - n, max(1, n // 8)) slides.  At check
    points max(1, n // 8) slides apart, and always at limit, S_n is looked
    up in trace[: n + memory].
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
    if len(trace) != memory:
        raise ShapeMismatch(f"trace length {len(trace)} != system memory {memory}")
    spikes = spike_steps(cs, trace).send
    spikes(None)
    for n, chunks in _check_points(memory, limit):
        for c in chunks:
            spikes(c)
        i = trace.find(trace[n : n + memory], 0, n + memory)
        if i < n:
            break
    return n, i


def _check_points(memory: int, limit: int) -> Iterator[tuple[int, list[int]]]:
    """find_repeat's schedule under limit, the same on every orbit: each check
    point n, ascending and limit last, with the chunks of slides that reach
    it from the one before."""
    n = check = 0
    chunks: list[int] = []
    while n < limit:
        if n >= check:
            yield n, chunks
            check, chunks = n + max(1, n // 8), []
        c = max(1, min(memory, limit - n, n // 8))
        chunks.append(c)
        n += c
    yield limit, chunks


def repeat_stop(memory: int, limit: int, first: int) -> int:
    """The slides find_repeat takes under limit on an orbit whose first
    repeated window is S_first, first = T + P, without a step: its first
    check point at or past first, or limit, where it finds no repeat when
    limit < first."""
    return next((n for n, _ in _check_points(memory, limit) if n >= first), limit)


class Trace:
    """x(0..len(trace)-1) of an orbit, held as the rules that read any range:
    a length, a range reader and a reader of its 1s.  The slice
    trace[start:stop] is read(start, stop), bytes 0/1, so a reader takes it
    a block at a time and never holds it whole.  A slice of bytes reads the
    same range alike; trace[:] is the whole trace as bytes.  It is read by
    slice only: an int index, iteration or count raises TypeError.
    ones(start, stop) lists the times of the 1s in the range, ascending: by
    the rule the trace comes from when one is given, which builds no byte,
    else by bytes.find on the range read."""

    __slots__ = ("read", "length", "ones")

    def __init__(
        self,
        read: Callable[[int, int], bytes],
        length: int,
        ones: Callable[[int, int], list[int]] | None = None,
    ) -> None:
        self.read, self.length = read, length
        self.ones = ones or partial(_read_ones, read)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key: slice) -> bytes:
        if not isinstance(key, slice):
            raise TypeError("a trace is read by slice")
        start, stop, step = key.indices(self.length)
        if step != 1:
            raise ValueError("a trace is read by contiguous range")
        return self.read(start, max(start, stop))


def _read_ones(read: Callable[[int, int], bytes], start: int, stop: int) -> list[int]:
    """The times of the 1s of read(start, stop), found in its bytes."""
    return list(map(start.__add__, _ones(read(start, stop))))


def periodic_slice(head: bytes, t: int, p: int, start: int, stop: int) -> bytes:
    """x(start..stop-1) of a sequence periodic from t with period p whose first
    t + p terms or more are head: a slice of head, and past its end the cycle
    head[t : t + p] repeated, in time and space O(stop - start).  p may be 0
    when no read passes the end of head."""
    if stop > len(head) and start >= t + p:  # the same phase as many periods back as it goes
        shift = (start - t) // p * p
        start, stop = start - shift, stop - shift
    if stop <= len(head):
        return head[start:stop]
    whole, part = divmod(stop - t - p, p)  # start < t + p <= len(head) < stop here
    cycles = head[t : t + p] * whole if whole else b""
    return b"".join((head[start : t + p], cycles, head[t : t + part]))


def periodic_ones(
    head: bytes, t: int, p: int, start: int, stop: int, scale: int = 1, offset: int = 0
) -> list[int]:
    """offset + scale * n for each 1 x(n), start <= n < stop, of the sequence
    periodic_slice reads, in time O(its 1s plus the cycle's), building no
    byte: head's 1s before t + p, ascending, then one range, step p, per 1
    of the cycle head[t : t + p], so the list is ascending only when the
    cycle has at most one 1.  With p = 0 every time read lies in head."""
    end = t + p if p else len(head)
    out = [offset + scale * n for n in _ones(head, start, min(stop, end))]
    if stop > end:
        lo, stride = max(start, end), scale * p
        for u in _ones(head, t, end):
            out.extend(range(offset + scale * (lo + (u - lo) % p), offset + scale * stop, stride))
    return out


def simulate(cs: CompiledSystem, init: Sequence[int], steps: int) -> Trace:
    """The trace x(0)..x(memory+steps-1), read by range; its prefix is init.

    find_repeat steps the trace to the first check point n at which the
    newest window S_n already occurred at some i < n, and simulate keeps it;
    equal windows have equal futures, so every later output repeats the one
    n - i before it.  The trace is exact: an orbit that does not repeat
    within steps slides is stepped in full.  It holds memory + n bytes,
    n <= min(steps, M + M // 8) as find_repeat says.
    """
    memory = cs.memory
    if len(init) != memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {memory}")
    steps = max(steps, 0)
    if not memory:
        # no window to read outputs off, and every step sees the same empty sum
        head, t, p = bytes([cs.scaled_threshold <= 0]), 0, 1
    else:
        trace = bytearray(init)
        n, i = find_repeat(cs, trace, steps)
        head, t, p = bytes(trace), i, n - i  # no repeat within steps: p = 0, and head is all of it
    ones = partial(periodic_ones, head, t, p)
    return Trace(partial(periodic_slice, head, t, p), memory + steps, lambda a, b: sorted(ones(a, b)))


def run(cs: CompiledSystem, init: Sequence[int], steps: int) -> bytes:
    """Full trace x(0)..x(memory+steps-1), one byte 0/1 each: simulate's
    trace read in one range."""
    return simulate(cs, init, steps)[:]

