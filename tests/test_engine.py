"""Engine correctness against a from-scratch list evaluator.

ref_run below is the third, dumbest evaluation route (plain list history,
rational dot product per step), returned as bytes like the other two.  Both shipped routes must reproduce it
exactly: the compiled bitmask kernel (run, advance_word) and the dense
oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurec import (
    RecurrenceSystem,
    ShapeMismatch,
    advance_word,
    bits_from_word,
    build_w,
    build_y,
    build_z,
    compile_system,
    dense_oracle_run,
    destabilized_system,
    predicted_cycle,
    run,
    single_system,
    window_params,
    word_from_bits,
)
from neurec.engine import Trace, find_repeat, simulate, spike_steps


def ref_run(system, steps):
    """x(n) = 1 exactly when sum_j a_j x(n-j) - theta >= 0."""
    hist = list(system.init)
    for _ in range(steps):
        s = sum(Fraction(w) * hist[-j] for j, w in system.taps)
        hist.append(1 if s - Fraction(system.threshold) >= 0 else 0)
    return bytes(hist)


def taps_of(weights):
    """The taps of a dense weight list, weights[j-1] multiplying x(n-j)."""
    return tuple((j, w) for j, w in enumerate(weights, start=1) if w)


def weights_of(system):
    """The dense weight list of a system, weights[j-1] multiplying x(n-j)."""
    weights = [0] * system.memory
    for j, w in system.taps:
        weights[j - 1] = w
    return weights


def affine_sum(cs, word):
    """D times the affine form on the window word, one popcount per weight group."""
    return sum(w * (word & mask).bit_count() for w, mask in cs.groups)


def dense_system(weights, threshold, init, label=""):
    """The RecurrenceSystem of a dense weight list and a sequence of init bits."""
    return RecurrenceSystem(len(weights), taps_of(weights), threshold, bytes(init), label)


# --- packing ---------------------------------------------------------------


def test_word_packing_orientation():
    # oldest bit lands highest so the newest output is bit 0
    assert word_from_bits([1, 0, 0]) == 4
    assert word_from_bits([0, 0, 1]) == 1
    assert bits_from_word(4, 3) == bytes([1, 0, 0])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_word_roundtrip(bits):
    w = word_from_bits(bits)
    assert list(bits_from_word(w, len(bits))) == bits
    assert 0 <= w < (1 << len(bits))


def loop_word_from_bits(bits):
    """Oracle: shift the bits in one at a time, keeping each low bit."""
    w = 0
    for b in bits:
        w = (w << 1) | (b & 1)
    return w


def loop_bits_from_word(word, memory):
    """Oracle: read bit memory - 1 - q of word for each q, oldest first."""
    return tuple((word >> (memory - 1 - q)) & 1 for q in range(memory))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=300), st.integers(0, 2**320))
@example([], 5)
@example([255, 0, 2, 3] * 75, 2**320)
def test_codec_matches_the_per_bit_loops(values, high):
    memory = len(values)
    word = word_from_bits(values)
    assert word == loop_word_from_bits(values)  # only the low bit of a byte counts
    wide = word | high << memory  # bits at memory and above are not read
    assert bits_from_word(wide, memory) == bytes(loop_bits_from_word(wide, memory))
    assert bits_from_word(wide, memory) == bytes(b & 1 for b in values)
    assert word_from_bits(bits_from_word(wide, memory)) == word
    assert bits_from_word(high, 0) == b"" and word_from_bits(b"") == 0


# --- compilation -----------------------------------------------------------


def test_compile_frozen_m6():
    p = window_params(6)
    cy = compile_system(build_y(p))
    assert cy.denominator == 1
    assert len(cy.taps) == 8
    assert [g[0] for g in cy.groups] == [-2, 2]
    assert cy.scaled_threshold == 4

    cz = compile_system(build_z(p, 0))
    assert cz.denominator == 80
    assert len(cz.taps) == 14
    assert sorted(g[0] for g in cz.groups) == [-168, -160, -8, 152, 160]
    assert cz.scaled_threshold == 241


def test_compile_structure():
    p = window_params(11)
    z = build_z(p, 1)
    cs = compile_system(z)
    assert cs.mask == (1 << z.memory) - 1
    covered = 0
    for w, gm in cs.groups:
        assert w != 0
        assert covered & gm == 0  # groups partition the taps
        covered |= gm
    assert covered == sum(1 << (j - 1) for j, _ in cs.taps)
    for j, w in cs.taps:
        assert 1 <= j <= z.memory
    assert cs.taps == tuple((j, w * cs.denominator) for j, w in z.taps)
    assert Fraction(cs.scaled_threshold, cs.denominator) == z.threshold


def test_compile_drops_zero_weights():
    s = dense_system((0, 3, 0, -1), 1, (1, 0, 0, 1))
    cs = compile_system(s)
    assert cs.taps == ((2, 3), (4, -1))


# --- stepping --------------------------------------------------------------


def stepped_outputs(cs, init, steps):
    """init and the newest bit of each window, advance_word one slide at a time."""
    word, outs = word_from_bits(init), bytearray(init)
    for _ in range(steps):
        word = advance_word(cs, word, 1)
        outs.append(word & 1)
    return bytes(outs)


def test_advance_word_and_run_agree():
    # y at m = 6 is purely periodic with P = 442 and memory 140, so run
    # steps 461 slides, finds S_461 == S_19 and fills the last 139
    p = window_params(6)
    y = build_y(p)
    cs = compile_system(y)
    assert run(cs, y.init, 600) == stepped_outputs(cs, y.init, 600)


def test_affine_sum_sign_drives_output():
    p = window_params(6)
    z = build_z(p, 0)
    cs = compile_system(z)
    trace = run(cs, z.init, 300)
    word = word_from_bits(z.init)
    for n in range(1, 301):
        nxt = advance_word(cs, word, 1)
        assert nxt == ((word << 1) | (nxt & 1)) & cs.mask
        assert nxt == word_from_bits(trace[n : n + z.memory])
        assert (nxt & 1) == (1 if affine_sum(cs, word) >= cs.scaled_threshold else 0)
        word = nxt


def test_run_prefix_law():
    p = window_params(6)
    y = build_y(p)
    cs = compile_system(y)
    assert run(cs, y.init, 0) == bytes(y.init)
    long = run(cs, y.init, 500)
    assert run(cs, y.init, 120) == long[: y.memory + 120]


# --- periodic fill ---------------------------------------------------------


@pytest.mark.parametrize("m", [6, 11])
def test_run_fill_matches_the_oracle_on_z1(m):
    # run stops stepping at the first check point past T + P and fills the
    # rest, so three (T + P) cover the transient, the hit and many periods
    # of fill
    p = window_params(m)
    z = build_z(p, 1)
    t, per = predicted_cycle(p, "z", 1)
    steps = 3 * (t + per)
    assert run(compile_system(z), z.init, steps) == dense_oracle_run(z, z.init, steps)


@pytest.mark.parametrize("m", [6, 11])
def test_run_fill_around_the_first_repeat(m):
    # S_{T + P} is the first window that repeats, so steps = T + P - 1 and
    # T + P leave nothing to fill, and T + P + 1 can fill one output
    p = window_params(m)
    z = build_z(p, 1)
    cs = compile_system(z)
    tp = sum(predicted_cycle(p, "z", 1))
    expect = dense_oracle_run(z, z.init, tp + 1)
    for steps in (tp - 1, tp, tp + 1):
        assert run(cs, z.init, steps) == expect[: z.memory + steps]


def counted_slides(count_slides):
    """Count the slides run asks of either stepping loop, one entry a chunk."""
    slides = []
    count_slides(slides.append)
    return slides


def test_run_stops_stepping_once_the_orbit_repeats(count_slides):
    p = window_params(11)
    z = build_z(p, 1)
    t, per = predicted_cycle(p, "z", 1)
    slides = counted_slides(count_slides)
    trace = run(compile_system(z), z.init, 10**6)
    assert len(trace) == z.memory + 10**6
    # no window repeats before S_{T + P}; the first check point past it is
    # at most one check gap and one chunk later
    tp = t + per
    assert tp <= sum(slides) <= tp + tp // 8 + z.memory
    assert max(slides) <= z.memory
    assert trace[-per:] == trace[-2 * per : -per]


def test_run_fill_past_the_geometric_checks(count_slides):
    # z(2) at m = 11 has T + P = 62,548, over 100 chunks of 585 slides, so
    # the check points spread to n // 8 apart before the first repeat
    p = window_params(11)
    z = build_z(p, 2)
    cs = compile_system(z)
    tp = sum(predicted_cycle(p, "z", 2))
    steps = 2 * tp + 7
    expect = stepped_outputs(cs, z.init, steps)
    slides = counted_slides(count_slides)
    assert run(cs, z.init, steps) == expect
    assert tp <= sum(slides) <= tp + tp // 8 + z.memory


# --- the two stepping loops -------------------------------------------------


def spiked_outputs(cs, init, chunks):
    """init and the outputs spike_steps appends, sent one chunk at a time."""
    trace = bytearray(init)
    loop = spike_steps(cs, trace)
    next(loop)
    for c in chunks:
        loop.send(c)
    return bytes(trace)


@st.composite
def spike_systems(draw):
    """Taps often negative, on a few offsets or on all of them, often one at
    offset memory (a full window); memory 1 often; zero and negative
    thresholds; all-0 and all-1 inits."""
    memory = draw(st.one_of(st.just(1), st.integers(1, 48)))
    offsets = draw(st.one_of(st.sets(st.integers(1, memory), max_size=memory), st.just(set(range(1, memory + 1)))))
    if draw(st.booleans()):
        offsets.add(memory)
    taps = tuple((j, draw(rationals.filter(bool))) for j in sorted(offsets))
    theta = draw(st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=0, max_denominator=5), rationals))
    bits = st.lists(st.integers(0, 1), min_size=memory, max_size=memory).map(bytes)
    init = draw(st.one_of(st.just(bytes(memory)), st.just(b"\x01" * memory), bits))
    return RecurrenceSystem(memory, taps, theta, init, label="spikes")


@settings(max_examples=200, deadline=None)
@given(spike_systems(), st.lists(st.integers(0, 60), max_size=6))
@example(RecurrenceSystem(1, ((1, Fraction(-1)),), 0, b"\x01"), [5, 0, 3])
@example(RecurrenceSystem(3, ((3, Fraction(1)),), 1, b"\x01\x00\x01"), [1, 1, 7])
def test_the_spike_loop_steps_as_advance_word_and_the_oracle(s, chunks):
    # called directly, in random chunks: the init's 1s are seeded lazily, so
    # chunks that stop anywhere, and a reach passed many times over (a tap
    # at every offset of a 48-bit window), all read the same
    cs = compile_system(s)
    steps = sum(chunks)
    expect = stepped_outputs(cs, s.init, steps)
    assert spiked_outputs(cs, s.init, chunks) == expect
    assert expect == dense_oracle_run(s, s.init, steps)


def word_search(cs, init, limit):
    """(n, i) of find_repeat's check points, chunks and lookups, stepped by
    advance_word."""
    memory, trace = cs.memory, bytearray(init)
    word = word_from_bits(init)
    n = check = 0
    while True:
        if n >= check or n == limit:
            i = trace.find(trace[n : n + memory], 0, n + memory)
            if i < n or n == limit:
                return n, i
            check = n + max(1, n // 8)
        c = max(1, min(memory, limit - n, n // 8))
        word = advance_word(cs, word, c)
        trace += bits_from_word(word, c)
        n += c


@settings(max_examples=200, deadline=None)
@given(spike_systems(), st.integers(0, 400))
@example(RecurrenceSystem(0, (), 0, b""), 5)
@example(RecurrenceSystem(0, (), 1, b""), 0)
def test_find_repeat_is_the_search_advance_word_steps(s, limit):
    # the same check points and repeat as the search stepped by words, and
    # the oracle's trace (a memory-0 window keeps no output for advance_word)
    cs = compile_system(s)
    trace = bytearray(s.init)
    n, i = find_repeat(cs, trace, limit)
    assert (n, i) == word_search(cs, s.init, limit)
    assert trace == dense_oracle_run(s, s.init, n)


def test_find_repeat_refuses_a_trace_past_its_init_window():
    # the loop appends to trace, so a longer one would misplace every window
    z = build_z(window_params(6), 1)
    with pytest.raises(ShapeMismatch):
        find_repeat(compile_system(z), bytearray(z.init + b"\x00"), 100)


def test_run_steps_a_long_lane_orbit_by_spikes_as_advance_word_does():
    # v_0 at m = 21 collapses after k - p_0 slides; its 50 taps over a
    # 625-bit window seed the init's 1s past 400 slides and again past 3,207
    p = window_params(21)
    v = destabilized_system(p, 0)
    cs = compile_system(v)
    steps = p.k + 1
    assert run(cs, v.init, steps) == stepped_outputs(cs, v.init, steps)


# --- cross-route equality ---------------------------------------------------


@pytest.mark.parametrize("m", [6])
def test_three_routes_agree_on_families(m):
    p = window_params(m)
    systems = [
        single_system(p, 0),
        build_y(p),
        build_w(p, 0),
        build_z(p, 0),
        build_z(p, 1),
    ]
    for s in systems:
        expect = ref_run(s, 1200)
        assert run(compile_system(s), s.init, 1200) == expect
        assert dense_oracle_run(s, s.init, 1200) == expect


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def small_systems(draw):
    memory = draw(st.integers(min_value=1, max_value=8))
    weights = [draw(rationals) for _ in range(memory)]
    theta = draw(rationals)
    init = [draw(st.integers(0, 1)) for _ in range(memory)]
    return dense_system(weights, theta, init, label="rand")


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_three_routes_agree_on_random_systems(s):
    expect = ref_run(s, 48)
    cs = compile_system(s)
    assert run(cs, s.init, 48) == expect
    assert dense_oracle_run(s, s.init, 48) == expect
    # window n is the memory outputs ending at x(memory + n - 1)
    word0 = word_from_bits(s.init)
    for n in range(49):
        assert bits_from_word(advance_word(cs, word0, n), s.memory) == expect[n : n + s.memory]


@st.composite
def sparse_systems(draw):
    # memory 0 and 1, systems with no taps and negative thresholds all come
    # up often; weights are sparse so both kinds of tap set occur
    memory = draw(st.integers(min_value=0, max_value=12))
    tapped = draw(st.booleans())
    weights = [
        draw(st.one_of(st.just(Fraction(0)), rationals)) if tapped else Fraction(0)
        for _ in range(memory)
    ]
    theta = draw(st.one_of(rationals, st.fractions(min_value=-4, max_value=0, max_denominator=5)))
    init = [draw(st.integers(0, 1)) for _ in range(memory)]
    return dense_system(weights, theta, init)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(small_systems(), sparse_systems()),
    st.integers(0, 40),
    st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, 12)),
)
@example(RecurrenceSystem(0, (), 0, b""), 5, 0)
@example(RecurrenceSystem(0, (), Fraction(1, 3), b""), 0, 1)
@example(RecurrenceSystem(1, ((1, Fraction(-1)),), Fraction(-1, 2), bytes(1)), 3, 1)
@example(RecurrenceSystem(3, (), -1, bytes([0, 1, 0])), 1, -1)
def test_run_fill_on_random_systems(s, laps, offset):
    # run slides in chunks of at most memory: steps at a multiple of memory,
    # one either side of it, or part of it put the last partial chunk and
    # the repeat anywhere in a chunk.  A window of at most 12 bits repeats
    # within 4096 slides, and most of these settle on a fixed point or a
    # short cycle far sooner, so long traces here are mostly fill
    steps = max(laps * max(s.memory, 1) + offset, 0)
    assert run(compile_system(s), s.init, steps) == dense_oracle_run(s, s.init, steps)


@st.composite
def full_systems(draw):
    """Every offset of the window weighted, none by 0, often negatively, with
    a zero threshold half the time and an all-1 init some of the time."""
    memory = draw(st.integers(min_value=1, max_value=8))
    weights = [draw(rationals.filter(bool)) for _ in range(memory)]
    theta = draw(st.one_of(st.just(Fraction(0)), rationals))
    bits = st.lists(st.integers(0, 1), min_size=memory, max_size=memory)
    init = draw(st.one_of(st.just([1] * memory), bits))
    return dense_system(weights, theta, init, label="full")


def read_in_blocks(trace, start, stop, size):
    """trace[start:stop] read size bytes at a time."""
    return b"".join(trace[a : min(a + size, stop)] for a in range(start, stop, size))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_systems(), sparse_systems(), full_systems()), st.integers(0, 200), st.data())
@example(RecurrenceSystem(0, (), 0, b""), 70, None)
@example(RecurrenceSystem(2, ((1, Fraction(-1)), (2, Fraction(-1))), 0, bytes([1, 1])), 100, None)
def test_simulate_reads_every_range_as_run_and_the_oracle(s, steps, data):
    # a range read, in one read or in blocks of any size, is that slice of
    # run's trace and of the oracle's; most orbits here repeat within a few
    # dozen slides, so most ranges start or stop past the first repeat
    cs = compile_system(s)
    trace, full = simulate(cs, s.init, steps), run(cs, s.init, steps)
    assert full == dense_oracle_run(s, s.init, steps)
    assert isinstance(full, bytes) and len(trace) == len(full) == s.memory + steps
    starts = st.integers(0, len(full))
    start, stop = (0, len(full)) if data is None else sorted((data.draw(starts), data.draw(starts)))
    size = 7 if data is None else data.draw(st.integers(1, 80))
    assert trace[start:stop] == full[start:stop]
    assert read_in_blocks(trace, start, stop, size) == full[start:stop]


def test_a_trace_slices_as_bytes_do():
    full = bytes(i * 7 % 5 % 2 for i in range(50))
    trace = Trace(lambda start, stop: full[start:stop], len(full))
    keys = (slice(None), slice(3, 9), slice(9, 3), slice(-4, None), slice(40, 90), slice(None, -45))
    for key in keys:
        assert trace[key] == full[key], key
    with pytest.raises(ValueError):
        trace[::2]
    # read by slice only: trace[:] is the bytes, and an index or iteration is refused
    assert trace[:].count(1) == full.count(1)
    with pytest.raises(TypeError, match="read by slice"):
        trace[5]
    with pytest.raises(TypeError):
        list(trace)


# --- edges -----------------------------------------------------------------


def test_weightless_system_threshold_sign():
    fire = RecurrenceSystem(memory=2, taps=(), threshold=0, init=bytes([0, 0]))
    assert run(compile_system(fire), fire.init, 3) == bytes([0, 0, 1, 1, 1])
    mute = RecurrenceSystem(memory=2, taps=(), threshold=Fraction(1, 7), init=bytes([1, 1]))
    assert run(compile_system(mute), mute.init, 3) == bytes([1, 1, 0, 0, 0])


def test_shape_mismatch_guards():
    p = window_params(6)
    cs = compile_system(build_y(p))
    with pytest.raises(ShapeMismatch):
        run(cs, (0, 1), 5)
    with pytest.raises(ShapeMismatch):
        dense_oracle_run(build_y(p), (0,), 5)
