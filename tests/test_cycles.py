"""Cycle measurement against a brute-force state dictionary.

naive_cycle records every window it sees; the first repeat pins (T, P)
with no cleverness at all.  detect_cycle must agree with it everywhere it
is feasible to run, and, searching blind, must find the formula-level
(T, P) of every family member at the desk scales.
"""

import random
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import neurec.cycles
from neurec import (
    BudgetExceeded,
    CycleReport,
    Handoff,
    Member,
    PredictionFailed,
    RecurrenceSystem,
    ShapeMismatch,
    advance_word,
    build_w,
    build_y,
    build_z,
    chain_perturbation,
    compile_system,
    cycle_lengths,
    dense_oracle_run,
    destabilized_system,
    detect_cycle,
    find_repeat,
    lane_count,
    perturbation_plan,
    predicted_cycle,
    prime_factors,
    run,
    shuffle_compose,
    single_system,
    verify_predicted,
    window_params,
    word_from_bits,
)
from neurec.cycles import (
    _fires_only_with,
    _first_disagreement,
    _lane_terms,
    _probe_pass,
    _windows,
    certify_lanes,
    handoff_certificate,
    search_memo,
)
from neurec.verify import MEASURE_CUTOFF, _certificate, _constant_lane, member, proof_memo, z_handoff
from neurec.engine import Trace
from test_engine import (
    affine_sum,
    dense_system,
    read_in_blocks,
    sparse_systems,
    taps_of,
    weights_of,
)


def as_part(system, predicted=(0, 0), handoff=None):
    """A fresh Member on any system, keeping no proof or certificate yet: a
    handoff part, or with handoff (a builder of a Handoff) the system that
    follows that handoff."""
    return Member("part", None, system, predicted, handoff)


def naive_cycle(cs, init, cap=200_000):
    seen, word = {}, word_from_bits(init)
    for n in range(cap + 1):
        if word in seen:
            first = seen[word]
            return first, n - first
        seen[word] = n
        word = advance_word(cs, word, 1)
    raise AssertionError("no repeat within cap")


M6_EXPECTED = [
    ("x0", 0, 17),
    ("x1", 0, 13),
    ("v0", 53, 1),
    ("v1", 57, 1),
    ("y", 0, 442),
    ("w0", 105, 26),
    ("w1", 114, 1),
    ("z0", 139, 26),
    ("z1", 556, 1),
]


def m6_systems():
    p = window_params(6)
    return {
        "x0": single_system(p, 0),
        "x1": single_system(p, 1),
        "v0": destabilized_system(p, 0),
        "v1": destabilized_system(p, 1),
        "y": build_y(p),
        "w0": build_w(p, 0),
        "w1": build_w(p, 1),
        "z0": build_z(p, 0),
        "z1": build_z(p, 1),
    }


def test_detect_agrees_with_naive_on_m6_families():
    systems = m6_systems()
    for name, t_want, p_want in M6_EXPECTED:
        s = systems[name]
        cs = compile_system(s)
        assert naive_cycle(cs, s.init) == (t_want, p_want), name
        rep = detect_cycle(cs, s.init, step_budget=50_000)
        assert (rep.measured_transient, rep.measured_period) == (t_want, p_want), name


def family_members(p):
    """(family, index, system) for every x, v, y, w(d) and z(d) at one scale."""
    for i in range(p.rho):
        yield "x", i, single_system(p, i)
        yield "v", i, destabilized_system(p, i)
    yield "y", None, build_y(p)
    for d in range(p.rho):
        yield "w", d, build_w(p, d)
        yield "z", d, build_z(p, d)


@pytest.mark.parametrize("m", [6, 11])
def test_blind_search_finds_every_predicted_cycle(m):
    # the claims certify the formulas; this measures each orbit with no prediction
    p = window_params(m)
    for family, index, s in family_members(p):
        want = predicted_cycle(p, family, index)
        rep = detect_cycle(compile_system(s), s.init, step_budget=6 * sum(want) + 4 * s.memory + 64)
        assert (rep.measured_transient, rep.measured_period) == want, (family, index)


def test_budget_exceeded():
    p = window_params(6)
    y = build_y(p)
    with pytest.raises(BudgetExceeded) as exc:
        detect_cycle(compile_system(y), y.init, step_budget=50)
    assert exc.value.budget == 50
    assert exc.value.steps > 50


@pytest.mark.parametrize("name", ["y", "z0", "z1", "w0"])
def test_search_succeeds_exactly_within_t_plus_p(name):
    # the search needs T + P slides to meet the first repeat, and no more
    s = m6_systems()[name]
    want = next((t, p) for n, t, p in M6_EXPECTED if n == name)
    cs = compile_system(s)
    rep = detect_cycle(cs, s.init, step_budget=sum(want))
    assert (rep.measured_transient, rep.measured_period) == want
    with pytest.raises(BudgetExceeded) as exc:
        detect_cycle(cs, s.init, step_budget=sum(want) - 1)
    assert exc.value.steps > exc.value.budget == sum(want) - 1


def test_a_blind_search_steps_its_orbit_once(count_slides):
    # the probes read the search's own trace, so the only slides are the
    # search's: find_repeat's bound, and well short of a second T + P pass
    slides = [0]

    def counting(steps):
        slides[0] += max(steps, 0)

    count_slides(counting)
    p = window_params(6)
    for family, index, s in family_members(p):
        want = predicted_cycle(p, family, index)
        work = sum(want)
        slides[0] = 0
        rep = detect_cycle(compile_system(s), s.init, step_budget=50_000)
        assert (rep.measured_transient, rep.measured_period) == want
        assert slides[0] == rep.steps_executed, (family, index)
        assert work <= slides[0] <= work + work // 8 + s.memory, (family, index)
        assert slides[0] < 2 * work, (family, index)


@pytest.mark.parametrize("shift", [-1, 1])
def test_the_probe_rule_guards_a_corrupted_search(monkeypatch, shift):
    # find_repeat reports a repeat index off the true first occurrence: the
    # period lookup and the bisection then read the wrong windows, and the
    # probes on the trace must refute the pair or find it true anyway
    def corrupted(cs, trace, limit):
        n, i = find_repeat(cs, trace, limit)
        return n, i + shift

    monkeypatch.setattr("neurec.cycles.find_repeat", corrupted)
    refuted = 0
    for family, index, s in family_members(window_params(6)):
        cs = compile_system(s)
        try:
            rep = detect_cycle(cs, s.init, step_budget=50_000)
        except PredictionFailed:
            refuted += 1
            continue
        assert (rep.measured_transient, rep.measured_period) == naive_cycle(cs, s.init)
    assert refuted > 0


def test_verify_predicted_accepts_true_pair(count_slides):
    # with no certificate the probes read simulate's trace: at most T + P
    # spike-driven slides, and none of advance_word's
    spiked, advanced = [], []
    count_slides(spiked.append, advanced.append)
    p = window_params(6)
    y = build_y(p)
    rep = verify_predicted(compile_system(y), y.init, 0, 442)
    assert (rep.measured_transient, rep.measured_period) == (0, 442)
    assert rep.steps_executed == 442  # T + P
    assert sum(spiked) <= 442 and advanced == []

    spiked.clear()
    v = destabilized_system(p, 0)
    rep = verify_predicted(compile_system(v), v.init, 53, 1)
    assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (53, 1, 0)
    assert rep.steps_executed == 54
    assert sum(spiked) <= 54 and advanced == []


def test_verify_predicted_rejects_wrong_pairs():
    p = window_params(6)
    y = build_y(p)
    cy = compile_system(y)
    with pytest.raises(PredictionFailed) as exc:
        verify_predicted(cy, y.init, 0, 221)  # not a period at all
    assert exc.value.check == "period"
    with pytest.raises(PredictionFailed) as exc:
        verify_predicted(cy, y.init, 0, 884)  # a period, but 2x minimal
    assert exc.value.check == "period_minimality"
    with pytest.raises(PredictionFailed) as exc:
        verify_predicted(cy, y.init, 1, 442)  # transient overstated
    assert exc.value.check == "transient_minimality"

    v = destabilized_system(p, 0)
    cv = compile_system(v)
    with pytest.raises(PredictionFailed) as exc:
        verify_predicted(cv, v.init, 54, 1)
    assert exc.value.check == "transient_minimality"
    with pytest.raises(PredictionFailed) as exc:
        verify_predicted(cv, v.init, 53, 2)  # 2 recurs but is not minimal
    assert exc.value.check == "period_minimality"


def test_verify_predicted_argument_guards():
    p = window_params(6)
    y = build_y(p)
    cy = compile_system(y)
    with pytest.raises(ValueError):
        verify_predicted(cy, y.init, -1, 442)
    with pytest.raises(ValueError):
        verify_predicted(cy, y.init, 0, 0)
    # an init of the wrong length is refused, as detect_cycle refuses it
    for init in (y.init[1:], y.init + b"\x00"):
        with pytest.raises(ShapeMismatch):
            verify_predicted(cy, init, 0, 442)
        with pytest.raises(ShapeMismatch):
            detect_cycle(cy, init, step_budget=1_000)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(2) == (2,)
    assert prime_factors(12) == (2, 3)
    assert prime_factors(442) == (2, 13, 17)
    assert prime_factors(62031) == (3, 23, 29, 31)
    with pytest.raises(ValueError):
        prime_factors(0)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_systems(draw):
    memory = draw(st.integers(min_value=1, max_value=9))
    weights = [draw(rationals) for _ in range(memory)]
    theta = draw(rationals)
    init = [draw(st.integers(0, 1)) for _ in range(memory)]
    return dense_system(weights, theta, init, label="rand")


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_detect_agrees_with_naive_on_random_systems(s):
    cs = compile_system(s)
    t_ref, p_ref = naive_cycle(cs, s.init, cap=2000)
    rep = detect_cycle(cs, s.init, step_budget=20_000)
    assert (rep.measured_transient, rep.measured_period) == (t_ref, p_ref)
    # and the one-pass prover accepts exactly that pair
    proof = verify_predicted(cs, s.init, t_ref, p_ref)
    assert proof.steps_executed == t_ref + p_ref
    # both routes certify the same entry window S_T
    entry = advance_word(cs, word_from_bits(s.init), t_ref)
    assert rep.entry_window == proof.entry_window == entry


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_detect_agrees_with_naive_on_sparse_systems(s):
    # memory 0 to 12, tapless systems and negative thresholds
    cs = compile_system(s)
    t, p = naive_cycle(cs, s.init)
    rep = detect_cycle(cs, s.init, step_budget=t + p)
    entry = advance_word(cs, word_from_bits(s.init), t)
    assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (t, p, entry)
    # the prover without a certificate, on simulate's trace, takes that
    # pair and refuses every wrong one, memory 0 included
    assert verify_predicted(cs, s.init, t, p)[:3] == (t, p, entry)
    for pair in wrong_pairs(t, p):
        with pytest.raises(PredictionFailed):
            verify_predicted(cs, s.init, *pair)


# --- proofs on decimated lanes -------------------------------------------------


def wrong_pairs(t, p):
    """Every pair one probe must refuse: T - 1, T + 1, P / q and 2P."""
    pairs = [(t + 1, p), (t, 2 * p)] + [(t, p // q) for q in prime_factors(p)]
    return pairs + ([(t - 1, p)] if t > 0 else [])


def laned(cs, init):
    """The windows read off the uncapped lane certificate's trace, which must close."""
    lanes, _ = certify_lanes(cs, init, budget=10**9)
    assert lanes is not None, "the lane searches did not close"
    return _windows(lanes.trace, cs.memory)


def on_certificate(s, t, p, handoff=None):
    """verify_predicted on the certificate verify builds for a fresh member
    on system s, handoff's or else s's lanes, capped at MEASURE_CUTOFF: on
    its trace when it closes, else simulated.  Its steps count the
    certificate's and the reads."""
    mem = as_part(s, (t, p), None if handoff is None else lambda: handoff)
    cert, spent = _certificate(mem, MEASURE_CUTOFF)
    trace = cert.trace if cert is not None and cert.closes else None
    rep = verify_predicted(mem.cs, s.init, t, p, trace)
    return rep._replace(steps_executed=spent + rep.steps_executed)


def simulated(s, t, p):
    """verify_predicted on the simulated windows of system s."""
    return verify_predicted(compile_system(s), s.init, t, p)


def lanes_uncapped(s, t, p):
    """The lane proof with no cap on the lane searches, so it never simulates."""
    return CycleReport(t, p, _probe_pass(laned(compile_system(s), s.init), t, p), 0)


def refusal(prove, s, pair):
    with pytest.raises(PredictionFailed) as exc:
        prove(s, *pair)
    return exc.value.check


def assert_lane_reads_are_exact(cs, init, times):
    # every window the uncapped lane reader assembles is S_n
    times = sorted(times)
    read = laned(cs, init)
    windows = [read(n) for n in times]
    word0 = word_from_bits(init)
    assert windows == [advance_word(cs, word0, n) for n in times]


@st.composite
def laned_systems(draw):
    """Systems whose taps all sit on multiples of r = 2..4.

    One lane recurrence, memory 1..4, with lane inits of one of four kinds:
    random (lanes with transients), identical, shifted copies of one lane
    orbit, and lanes that all collapse to 0 (P = 1).
    """
    r = draw(st.integers(2, 4))
    memory = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "identical", "shifted", "zero"]))
    weights = [draw(rationals) for _ in range(memory)]
    theta = draw(rationals)
    if kind == "zero":
        theta = sum(w for w in weights if w > 0) + draw(st.fractions(1, 3, max_denominator=4))
    lane = dense_system(weights, theta, [0] * memory)
    bits = st.tuples(*[st.integers(0, 1)] * memory)
    if kind == "identical":
        inits = [draw(bits)] * r
    elif kind == "shifted":
        base = draw(bits)
        shifts = draw(st.lists(st.integers(0, 12), min_size=r, max_size=r))
        trace = run(compile_system(lane), base, max(shifts))
        inits = [tuple(trace[s : s + memory]) for s in shifts]
    else:
        inits = [draw(bits) for _ in range(r)]
    taps = tuple((r * j, w) for j, w in lane.taps)
    init = bytes(inits[i][q] for q in range(memory) for i in range(r))
    return RecurrenceSystem(r * memory, taps, theta, init, label=kind)


@settings(max_examples=200, deadline=None)
@given(laned_systems())
def test_lane_route_agrees_with_detect_cycle(s):
    cs = compile_system(s)
    assert lane_count(cs) > 1
    ref = detect_cycle(cs, s.init, step_budget=10**6)
    t, p = ref.measured_transient, ref.measured_period
    if s.label == "zero":
        assert p == 1 and ref.entry_window == 0
    for prove in (on_certificate, lanes_uncapped):
        rep = prove(s, t, p)
        assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (
            t,
            p,
            ref.entry_window,
        )
    for pair in wrong_pairs(t, p):
        want = refusal(simulated, s, pair)
        assert refusal(on_certificate, s, pair) == want, pair
        assert refusal(lanes_uncapped, s, pair) == want, pair
    assert_lane_reads_are_exact(cs, s.init, {t, t + 1, t + p, t + 2 * p, max(t - 1, 0)})


@settings(max_examples=100, deadline=None)
@given(small_systems())
def test_one_lane_systems_never_take_the_lane_route(s):
    cs = compile_system(s)
    assume(lane_count(cs) == 1)
    rep = detect_cycle(cs, s.init, step_budget=20_000)
    pred = (rep.measured_transient, rep.measured_period)

    def no_lanes(*args, **kwargs):
        raise AssertionError("a one-lane system took the lane route")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("neurec.verify.DETECT_CUTOFF", 0)  # always the proving route
        mp.setattr("neurec.verify.certify_lanes", no_lanes)
        assert as_part(s, pred).prove() == rep._replace(steps_executed=sum(pred))


@settings(max_examples=200, deadline=None)
@given(st.one_of(laned_systems(), small_systems()))
def test_popcount_range_equals_the_walk_over_the_whole_orbit(s):
    cs = compile_system(s)
    lanes, _ = certify_lanes(cs, s.init, budget=10**6)
    t, p = naive_cycle(cs, s.init)
    trace = run(cs, s.init, t + p)
    counts = {sum(trace[n : n + s.memory]) for n in range(t + p)}
    want = (min(counts), max(counts)) if lanes.coprime else None
    assert lanes.popcount_range() == want


@st.composite
def rotating_systems(draw):
    """x(n) = [x(n - memory) + x(n - j) >= theta], theta 1 or 2: a rotation
    when j = memory, else the OR or AND of two taps, with orbits of up to a
    few hundred slides and transients."""
    memory = draw(st.integers(1, 160))
    j = draw(st.integers(1, memory))
    weights = [0] * memory
    weights[memory - 1] += 1
    weights[j - 1] += 1
    init = draw(st.lists(st.integers(0, 1), min_size=memory, max_size=memory))
    return dense_system(weights, draw(st.integers(1, 2)), init)


def search_bound(tp):
    """The most slides find_repeat takes on an orbit of T + P = tp, whatever
    the memory: the price verify.proof_work puts on each lane."""
    n = tp + tp // 8
    return n + n // 8


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_systems(), laned_systems(), rotating_systems()))
def test_searches_stay_within_the_bound_a_lane_is_priced_at(s):
    cs = compile_system(s)
    rep = detect_cycle(cs, s.init, step_budget=10**6)
    assert rep.steps_executed <= search_bound(rep.measured_transient + rep.measured_period)
    lanes, steps = certify_lanes(cs, s.init, budget=10**6)
    orbits = [lane.measured_transient + lane.measured_period for _, lane in lanes.orbits]
    assert steps <= sum(search_bound(tp) for tp in orbits)


@pytest.mark.parametrize(
    "m, families",
    [(6, ("y", "w")), (11, ("y", "w")), (16, ("w",))],
)
def test_lane_route_agrees_with_simulation_on_y_and_w(m, families):
    p = window_params(m)
    members = [("y", None, build_y(p))] if "y" in families else []
    members += [("w", d, build_w(p, d)) for d in range(p.rho)]
    for family, index, s in members:
        cs = compile_system(s)
        assert lane_count(cs) == p.rho
        t, period = predicted_cycle(p, family, index)
        sim = verify_predicted(cs, s.init, t, period)
        for prove in (on_certificate, lanes_uncapped):
            rep = prove(s, t, period)
            assert rep == sim._replace(steps_executed=rep.steps_executed), (family, index)
        for pair in wrong_pairs(t, period):
            want = refusal(simulated, s, pair)
            assert refusal(lanes_uncapped, s, pair) == want, (family, index, pair)


def test_lane_route_refuses_y_with_a_raised_threshold():
    # negative control: one whole unit more threshold breaks y's m = 16 cycle
    p = window_params(16)
    y = build_y(p)
    assert on_certificate(y, *predicted_cycle(p, "y")).steps_executed < 10_000
    raised = y._replace(threshold=y.threshold + 1)
    with pytest.raises(PredictionFailed) as exc:
        on_certificate(raised, *predicted_cycle(p, "y"))
    assert exc.value.check == "period"


# --- proofs of z(d) by lane handoff ---------------------------------------------


def z_members(p):
    """(d, system) for every z(d) and every chain_perturbation member at one scale."""
    plans = [perturbation_plan(p, d) for d in range(p.rho)]
    chained = build_z(p, 0)
    for d in range(p.rho):
        yield d, build_z(p, d)
        if d > 0:
            chained = chain_perturbation(chained, plans[d - 1], plans[d])
            yield d, chained


def handoff_reader(s, handoff, budget):
    """The windows read off system s's handoff certificate's trace when it
    closes, else None; and the steps the certificate took.  The certificate
    is built as verify builds it, for a fresh member: head's and tail's
    lanes certified first, then handoff_certificate on them, their steps
    counted in."""
    cert, spent = _certificate(as_part(s, handoff=lambda: handoff), budget)
    closed = cert is not None and cert.closes
    return (_windows(cert.trace, s.memory) if closed else None), spent


def handoff_uncapped(s, t, p, handoff):
    """The handoff proof with no cap on its work, so it never simulates;
    the certificate must close."""
    read, _ = handoff_reader(s, handoff, budget=10**9)
    assert read is not None, "the handoff certificate did not close"
    return CycleReport(t, p, _probe_pass(read, t, p), 0)


@pytest.mark.parametrize("m", [6, 11])
def test_handoff_route_agrees_with_simulation_on_every_z(m, monkeypatch):
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)  # always the proving route
    p = window_params(m)
    for d, s in z_members(p):
        cs = compile_system(s)
        t, period = predicted_cycle(p, "z", d)
        sim = verify_predicted(cs, s.init, t, period)
        handoff = z_handoff(p, d)
        rep = handoff_uncapped(s, t, period, handoff)
        assert rep == sim._replace(steps_executed=rep.steps_executed), d
        assert rep.steps_executed < 10_000
        routed = as_part(s, (t, period), lambda: handoff).prove()
        assert routed == sim._replace(steps_executed=routed.steps_executed), d
        for pair in wrong_pairs(t, period):
            want = refusal(simulated, s, pair)
            assert refusal(handoff_uncapped, s, (*pair, handoff)) == want, (d, pair)


@pytest.mark.parametrize("m", [6, 11])
def test_handoff_certificate_refuses_z_with_a_raised_threshold(m):
    # negative control: one whole unit more threshold, and z no longer
    # follows y into w(d); the certificate cannot close and the proof
    # falls back to the simulated verdict
    p = window_params(m)
    for d in range(p.rho):
        z = build_z(p, d)
        raised = z._replace(threshold=z.threshold + 1)
        handoff = z_handoff(p, d)
        read, _ = handoff_reader(raised, handoff, budget=10**9)
        assert read is None, d
        pred = predicted_cycle(p, "z", d)
        want = refusal(simulated, raised, pred)
        assert refusal(on_certificate, raised, (*pred, handoff)) == want, d


def test_handoff_falls_back_when_head_is_not_the_start():
    # a z whose init is not y's cannot follow y's orbit: simulate
    p = window_params(6)
    z = build_z(p, 0)
    flipped = z._replace(init=bytes([1 - z.init[0]]) + z.init[1:])
    cs = compile_system(flipped)
    assert handoff_reader(flipped, z_handoff(p, 0), budget=10**9) == (None, 0)
    ref = detect_cycle(cs, flipped.init, step_budget=10**6)
    pair = (ref.measured_transient, ref.measured_period)
    rep = on_certificate(flipped, *pair, z_handoff(p, 0))
    assert rep == ref._replace(steps_executed=sum(pair))


def test_handoff_certificate_refuses_lanes_it_cannot_prove_on():
    # negative controls: handoff_certificate proves only on lanes that
    # start at init, cover the system's memory and have coprime periods,
    # and refuses any other at no cost
    p = window_params(6)
    z, y, w = build_z(p, 0), build_y(p), build_w(p, 0)
    cs = compile_system(z)
    head, _ = certify_lanes(compile_system(y), y.init, 10**9)
    tail, _ = certify_lanes(compile_system(w), w.init, 10**9)
    at = z_handoff(p, 0).at
    cert, spent = handoff_certificate(cs, z.init, head, tail, at, 10**9)
    assert cert.closes and spent > 0
    flipped = bytes([1 - z.init[0]]) + z.init[1:]
    assert handoff_certificate(cs, flipped, head, tail, at, 10**9) == (None, 0)
    w11 = build_w(window_params(11), 0)
    wider, _ = certify_lanes(compile_system(w11), w11.init, 10**9)
    assert handoff_certificate(cs, z.init, head, wider, at, 10**9) == (None, 0)
    shared = head._replace(orbits=(head.orbits[0],) * len(head.orbits))
    assert not shared.coprime
    assert handoff_certificate(cs, z.init, head, shared, at, 10**9) == (None, 0)


def test_a_one_lane_or_misstarted_handoff_is_refused_before_any_lane_search(monkeypatch):
    # verify refuses a handoff with a one-lane part, or an init that is not
    # head's, before it certifies any lanes
    p = window_params(6)
    z = build_z(p, 0)
    cs = compile_system(z)
    handoff = z_handoff(p, 0)
    assert lane_count(cs) == 1

    def no_search(*args, **kwargs):
        raise AssertionError("a lane search ran")

    monkeypatch.setattr("neurec.cycles._search", no_search)  # under detect_cycle too
    flipped = bytes([1 - z.init[0]]) + z.init[1:]
    one_lane = as_part(z)
    cases = [
        (z.init, handoff._replace(head=one_lane)),
        (z.init, handoff._replace(tail=one_lane)),
        (flipped, handoff),
    ]
    for init, refused in cases:
        started = as_part(z._replace(init=init), handoff=lambda: refused)
        assert _certificate(started, 10**9) == (None, 0)


def full_window_first_disagreement(cs, ref, lanes):
    """Oracle: step ref's orbit on lanes window by window from S_0, and apply
    cs's rule to each full window.

    Past r * q0 a window is fixed by its slot and the lane phases, so every
    window of the orbit occurs before r * (q0 + prod(P_i)).  Returns the
    first disagreement n and n + 1, the steps of an explicit loop that stops
    there, or (None, None).
    """
    r = len(lanes.orbits)
    q0 = max(rep.measured_transient for _, rep in lanes.orbits)
    horizon = r * (q0 + prod(rep.measured_period for _, rep in lanes.orbits))
    word = _windows(lanes.trace, ref.memory)(0)
    for n in range(horizon):
        fires = affine_sum(cs, word) >= cs.scaled_threshold
        if (affine_sum(ref, word) >= ref.scaled_threshold) != fires:
            return n, n + 1
        word = advance_word(ref, word, 1)
    return None, None


def test_lane_prefix_finds_a_disagreement_inside_the_lane_transients():
    # negative control: z(d) never leaves w(d)'s orbit, so perturb it, one
    # tap weight or the threshold at a time, until it does; wherever it
    # first disagrees before r * q0 the lane-stepped prefix must find the
    # same time, at the same cost, as the full-window loop
    p = window_params(6)
    inside = 0
    for d in range(p.rho):
        z, w = build_z(p, d), build_w(p, d)
        ref = compile_system(w)
        lanes, _ = certify_lanes(ref, w.init, 10**9)
        r = len(lanes.orbits)
        q0 = max(rep.measured_transient for _, rep in lanes.orbits)
        assert q0 > 0
        shifts = (Fraction(t, 8) for t in range(-16, 17))
        perturbed = [z._replace(threshold=z.threshold + t) for t in shifts]
        for j in range(z.memory):
            weights = weights_of(z)
            weights[j] -= 1
            perturbed.append(z._replace(taps=taps_of(weights)))
        for system in perturbed:
            cs = compile_system(system)
            first, steps = _first_disagreement(cs, lanes, 10**9)
            want = full_window_first_disagreement(cs, ref, lanes)
            assert first == want[0]
            if first is not None and first < r * q0:
                assert steps == want[1]
                inside += 0 < first
    assert inside >= 10


def test_first_disagreement_budget_counts_search_nodes_and_crt_tuples():
    # a rule that always fires, on y's lanes, which start on their cycles
    # (q0 = 0): once the lane cycles are tabulated, slot 0's first box,
    # lane 0's phases before a 0, disagrees whole, and each of its phases
    # is one CRT tuple; the budget is checked at the node and at each tuple
    p = window_params(6)
    y = build_y(p)
    lanes, _ = certify_lanes(compile_system(y), y.init, 10**9)
    assert max(rep.measured_transient for _, rep in lanes.orbits) == 0
    fires = compile_system(y._replace(taps=(), threshold=-1))
    trace = run(compile_system(y), y.init, y.memory)
    assert _first_disagreement(fires, lanes, 10**9)[0] == trace.index(0, y.memory) - y.memory
    tables = sum(rep.measured_period for _, rep in lanes.orbits)
    for budget in (tables, tables + 1):  # stopped at the node, then at the first tuple
        with pytest.raises(BudgetExceeded) as exc:
            _first_disagreement(fires, lanes, budget)
        assert (exc.value.steps, exc.value.budget) == (budget + 1, budget)


def test_a_handoff_past_its_budget_raises_with_every_part_counted():
    # each search raises with its own steps at one below them, and the
    # handoff adds the head search's steps and the explicit ones before the
    # tail's: on w(d)'s lanes, which start with transients, the tail search
    # raises at its prefix (r * q0 times) and past it at its end
    p = window_params(6)
    y = build_y(p)
    head, _ = certify_lanes(compile_system(y), y.init, 10**9)
    for d in range(p.rho):
        z, w = build_z(p, d), build_w(p, d)
        cs, at = compile_system(z), z_handoff(p, d).at
        tail, _ = certify_lanes(compile_system(w), w.init, 10**9)
        cert, cost = handoff_certificate(cs, z.init, head, tail, at, 10**9)
        head_steps = _first_disagreement(cs, head, 10**9)[1]
        prefix = len(tail.orbits) * max(rep.measured_transient for _, rep in tail.orbits)
        split = at if cert.first is None else min(cert.first, at)
        before_tail = head_steps + at - split
        assert prefix > 0, d
        for steps in (head_steps, before_tail + prefix, cost):
            with pytest.raises(BudgetExceeded) as exc:
                handoff_certificate(cs, z.init, head, tail, at, steps - 1)
            assert (exc.value.steps, exc.value.budget) == (steps, steps - 1), d
        with pytest.raises(BudgetExceeded) as exc:
            _first_disagreement(cs, tail, prefix - 1)
        assert (exc.value.steps, exc.value.budget) == (prefix, prefix - 1), d


@pytest.mark.parametrize("m", [6, 11])
def test_a_handoff_certificate_capped_one_step_below_its_cost_is_refused(m):
    # the lane tables count against the budget as soon as they are built:
    # a search that runs only its bit = 1 half may run no node to catch an
    # overrun (m = 6 z(1) costs 318 steps)
    p = window_params(m)
    for d in range(p.rho):
        z, handoff = build_z(p, d), partial(z_handoff, p, d)
        cert, cost = _certificate(as_part(z, handoff=handoff), MEASURE_CUTOFF)
        assert cert.closes
        assert _certificate(as_part(z, handoff=handoff), cost)[0] == cert
        with pytest.raises(BudgetExceeded) as exc:
            _certificate(as_part(z, handoff=handoff), cost - 1)
        assert exc.value.steps > exc.value.budget == cost - 1, d


def test_lanes_past_their_budget_raise_with_every_lane_counted():
    # two constant lanes take one slide each; at budget 1 the second search,
    # left no budget, still takes its one slide, and the pair raises
    composed = shuffle_compose([_constant_lane(0), _constant_lane(1)])
    cs = compile_system(composed)
    with pytest.raises(BudgetExceeded) as exc:
        certify_lanes(cs, composed.init, 1)
    assert (exc.value.steps, exc.value.budget) == (2, 1)
    lanes, steps = certify_lanes(cs, composed.init, 2)
    assert (len(lanes.orbits), steps) == (2, 2)


def test_every_certificate_returns_within_its_cap_or_raises_past_it():
    # y, every w(d) and every z(d): every cap from 0 past the cost at m = 6,
    # a spread at m = 11.  A certificate returns within its cap, or raises
    # with more steps than a budget equal to the cap, and it returns from a
    # least cap on.  A handoff's least cap is its cost.  Lanes can close
    # below theirs: find_repeat always checks at its limit, so the last lane
    # search closes once its limit reaches its T + P, short of the slides it
    # takes uncapped
    for m in (6, 11):
        p = window_params(m)
        for family, index in [("y", None), *((f, d) for f in "wz" for d in range(p.rho))]:
            mem = member(p, family, index)
            cert, cost = _certificate(mem, MEASURE_CUTOFF)
            least = cost
            if mem.handoff is None:
                last = cert.orbits[-1][1]
                least -= last.steps_executed - last.measured_transient - last.measured_period
            if m == 6:
                caps = range(cost + 2)
            else:
                caps = sorted({*range(0, cost, cost // 16), least - 1, least, cost - 1, cost})
            for cap in caps:
                try:
                    got, steps = _certificate(as_part(mem.system, handoff=mem.handoff), cap)
                except BudgetExceeded as exc:
                    assert exc.steps > exc.budget == cap < least, (m, family, index, cap)
                    continue
                assert got.closes and steps <= cap and cap >= least, (m, family, index, cap)
                if cap >= cost:
                    assert (got, steps) == (cert, cost), (m, family, index, cap)


def test_every_z_fires_only_with_both_its_parts_at_every_scale_from_5_to_20():
    # the family never falls back to the exact scan: the margin premises
    # hold for z(d) on y's lanes and on w(d)'s
    with proof_memo():
        for m in range(5, 21):
            p = window_params(m)
            for d in range(p.rho):
                mem = member(p, "z", d)
                cs = mem.cs
                cert, _ = _certificate(mem, MEASURE_CUTOFF)
                assert _fires_only_with(cs, cert.head) and _fires_only_with(cs, cert.tail), (m, d)


def test_the_margin_premises_are_checked_at_their_boundaries():
    # z(0) on w(0)'s lanes at m = 6, its threshold and one weight moved to
    # the edge of each premise and one scaled unit past it
    p = window_params(6)
    w = build_w(p, 0)
    lanes, _ = certify_lanes(compile_system(w), w.init, 10**9)
    cs = compile_system(build_z(p, 0))
    r, d = len(lanes.orbits), cs.denominator
    assert _fires_only_with(cs, lanes)
    floor = d * (lanes.cs.scaled_threshold - 1)
    assert _fires_only_with(cs._replace(scaled_threshold=floor + 1), lanes)
    assert not _fires_only_with(cs._replace(scaled_threshold=floor), lanes)
    j, weight = lanes.cs.taps[0]
    others = tuple(tap for tap in cs.taps if tap[0] != r * j)
    for extra, fires_only in ((0, True), (1, False)):
        taps = ((r * j, d * weight + extra), *others)
        assert _fires_only_with(cs._replace(taps=taps), lanes) is fires_only
    off_stride = next(j for j in range(1, cs.memory + 1) if j % r)  # no lane tap: weight 0
    for weight, fires_only in ((0, True), (-1, True), (1, False)):
        taps = (*cs.taps, (off_stride, weight))
        assert _fires_only_with(cs._replace(taps=taps), lanes) is fires_only


@pytest.mark.parametrize("m", [6, 11])
def test_handoff_certificate_parts_equal_the_full_window_loop(m):
    p = window_params(m)
    for d in range(p.rho):
        z = build_z(p, d)
        cs = compile_system(z)
        handoff = z_handoff(p, d)
        cert, _ = _certificate(as_part(z, handoff=lambda: handoff), 10**9)
        head, tail = handoff.head.cs, handoff.tail.cs
        first, _ = full_window_first_disagreement(cs, head, cert.head)
        split = handoff.at if first is None else min(first, handoff.at)
        stepped = [advance_word(head, word_from_bits(z.init), split)]
        for _ in range(handoff.at - split):
            stepped.append(advance_word(cs, stepped[-1], 1))
        tail_first, _ = full_window_first_disagreement(cs, tail, cert.tail)
        assert (cert.first, cert.landed, cert.tail_first) == (first, stepped[-1], tail_first), d


def test_handoff_takes_over_at_l1():
    # z's window is y's up to its first disagreement at l1 - rho, then
    # build_w(d)'s init at l1 exactly
    p = window_params(11)
    for d in range(p.rho):
        z = build_z(p, d)
        l1 = cycle_lengths(p, d)[1]
        cs = compile_system(z)
        read, _ = handoff_reader(z, z_handoff(p, d), budget=10**9)
        y_cs = compile_system(build_y(p))
        word0 = word_from_bits(z.init)
        times = [l1 - p.rho - 1, l1 - p.rho, l1 - p.rho + 1, l1]
        windows = [read(n) for n in times]
        assert windows == [advance_word(cs, word0, n) for n in times]
        assert windows[:2] == [advance_word(y_cs, word0, n) for n in times[:2]]
        assert windows[2] != advance_word(y_cs, word0, times[2])
        assert windows[3] == word_from_bits(build_w(p, d).init)


@pytest.mark.parametrize("m", [6, 11])
def test_certificate_traces_agree_with_their_reads(m):
    # the window at n read off a range of a certificate's trace is the
    # window at n of one long read of it and the stepped full system's S_n,
    # on y's and every w(d)'s lanes and on every z(d)'s handoff certificate
    p = window_params(m)
    rng = random.Random(m)
    members = [("y", None, build_y(p), None)]
    members += [("w", d, build_w(p, d), None) for d in range(p.rho)]
    members += [("z", d, build_z(p, d), z_handoff(p, d)) for d in range(p.rho)]
    for family, index, s, handoff in members:
        cs = compile_system(s)
        if handoff is None:
            cert, _ = certify_lanes(cs, s.init, budget=10**9)
            times = {0, 1}
        else:
            cert, _ = _certificate(as_part(s, handoff=lambda: handoff), 10**9)
            times = {0, handoff.at - 1, handoff.at, handoff.at + 1}
        assert cert.closes
        horizon = sum(predicted_cycle(p, family, index)) + s.memory
        times |= set(rng.sample(range(horizon), 40))
        trace = cert.trace(0, max(times) + s.memory)
        windows, word, at = _windows(cert.trace, s.memory), word_from_bits(s.init), 0
        for n in sorted(times):
            word, at = advance_word(cs, word, n - at), n
            assert windows(n) == word_from_bits(trace[n : n + s.memory]) == word, (s.label, n)


def test_certificate_traces_cut_off_the_lane_stride():
    # each lane is written through a stride from the cut on, so a handoff
    # at a time off the stride, and lengths off it, before at or past it,
    # still trace the orbit: here y at m = 11 (3 lanes) hands off to itself
    p = window_params(11)
    y = build_y(p)
    cs = compile_system(y)
    full = run(cs, y.init, 3 * p.h)
    lanes, _ = certify_lanes(cs, y.init, budget=10**6)
    lengths = (1, 50, 98, 101, 2 * p.h + 1)
    assert all(length % 3 for length in lengths)
    for length in lengths:
        assert lanes.trace(0, length) == full[:length], length
    for at in (100, 101):
        tail = y._replace(init=full[at : at + y.memory])
        handoff = Handoff(as_part(y), as_part(tail), at)
        cert, _ = _certificate(as_part(y, handoff=lambda: handoff), 10**7)
        assert cert.closes and cert.at == at
        for length in lengths:
            assert cert.trace(0, length) == full[:length], (at, length)


@pytest.mark.parametrize("m", [6, 11])
def test_lane_orbits_are_stepped_only_by_their_certifying_search(m, monkeypatch, count_slides):
    # certify_lanes slides each lane exactly as far as its searches report;
    # reads, traces, popcounts and disagreement searches on the lanes then
    # slice the kept traces, and take no slide of any kind
    slides = [0]

    def counting(steps):
        slides[0] += max(steps, 0)

    def counted_run(cs, init, steps):
        slides[0] += max(steps, 0)
        return run(cs, init, steps)

    count_slides(counting)
    for module in ("neurec.engine", "neurec.cycles"):
        # raising=False: a module that does not import a name gets the wrapper anyway
        monkeypatch.setattr(f"{module}.run", counted_run, raising=False)
    p = window_params(m)
    for d in range(p.rho):
        z = compile_system(build_z(p, d))
        for s in (build_y(p), build_w(p, d)):
            slides[0] = 0
            lanes, spent = certify_lanes(compile_system(s), s.init, 10**9)
            assert slides[0] == spent, (s.label, d)
            slides[0] = 0
            lane_horizon = max(rep.measured_transient + 2 * rep.measured_period for _, rep in lanes.orbits)
            horizon = len(lanes.orbits) * lane_horizon
            windows = _windows(lanes.trace, s.memory)
            for n in range(0, horizon, 7):
                windows(n)
            lanes.trace(0, horizon + s.memory)
            lanes.popcount_range()
            _first_disagreement(z, lanes, 10**9)
            assert slides[0] == 0, (s.label, d)


def outcome(search, *args):
    """A search's report, or its BudgetExceeded as (steps, budget)."""
    try:
        return search(*args)
    except BudgetExceeded as exc:
        return exc.steps, exc.budget


@pytest.fixture
def searches(monkeypatch):
    """Every (cs, init) cycles._search searches, in order."""
    calls = []
    search = neurec.cycles._search

    def counted(cs, init, budget):
        calls.append((cs, bytes(init)))
        return search(cs, init, budget)

    monkeypatch.setattr("neurec.cycles._search", counted)
    return calls


def test_a_kept_search_answers_every_budget_as_a_fresh_one(searches):
    # m = 6 v_0 has T + P = 54, and its unlimited search stops at the check
    # point 57: at a budget of 54 to 56 a fresh search stops at the budget,
    # and below 54 it raises.  A kept search answers each budget alike,
    # steps and BudgetExceeded detail included, and takes no slide
    v = destabilized_system(window_params(6), 0)
    cs = compile_system(v)
    fresh = {b: outcome(detect_cycle, cs, v.init, b) for b in range(60)}
    assert fresh[53] == (54, 53) and [fresh[b].steps_executed for b in (54, 55, 56, 57, 59)] == [54, 55, 56, 57, 57]
    searches.clear()
    with search_memo():
        kept = detect_cycle(cs, v.init, 10**6)
        assert kept.steps_executed == 57
        # at a budget equal to its steps, and one below, as a fresh search
        assert detect_cycle(cs, v.init, 57) == kept and outcome(detect_cycle, cs, v.init, 56) == fresh[56]
        assert {b: outcome(detect_cycle, cs, v.init, b) for b in range(60)} == fresh
    assert searches == [(cs, v.init)]


@pytest.mark.parametrize("m", [6, 11])
def test_kept_lane_searches_certify_as_fresh_ones(m, searches):
    # each w(d) has v_i as its lane i <= d: in a search memo each v_i is
    # searched once, after which a lane set at its own steps, one below, half
    # of them or none is what certify_lanes builds without the memo
    p = window_params(m)
    systems = [compile_system(build_w(p, d)) for d in range(p.rho)]
    inits = [build_w(p, d).init for d in range(p.rho)]
    costs = [certify_lanes(cs, init, 10**9)[1] for cs, init in zip(systems, inits)]
    budgets = {(d, b) for d, cost in enumerate(costs) for b in (cost, cost - 1, cost // 2, 0)}
    fresh = {(d, b): outcome(certify_lanes, systems[d], inits[d], b) for d, b in budgets}
    searches.clear()
    with search_memo():
        for d in range(p.rho):
            certify_lanes(systems[d], inits[d], 10**9)
        assert len(searches) == len(set(searches))
        lanes = len(searches)
        assert {(d, b): outcome(certify_lanes, systems[d], inits[d], b) for d, b in budgets} == fresh
    assert len(searches) == lanes
    # outside the memo nothing is kept
    certify_lanes(systems[0], inits[0], 10**9)
    assert len(searches) == lanes + p.rho


def test_budget_caps_the_certificate_proofs_at_m11(monkeypatch):
    # y on its lanes and every z(d) on its handoff, through Member.prove:
    # one below the least budget the certificate closes within fails with
    # the steps the certificate spent, and one that covers the whole proof
    # changes nothing.  A search may overshoot T + P between its check
    # points and still close on a lower limit, so the least budget is found
    # by bisection, not read off the certificate's cost.
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)  # always the proving route
    p = window_params(11)
    cases = [(build_y(p), predicted_cycle(p, "y"), None)]
    cases += [
        (build_z(p, d), predicted_cycle(p, "z", d), partial(z_handoff, p, d)) for d in range(p.rho)
    ]
    for s, (t, period), handoff in cases:
        cs, init = compile_system(s), s.init
        full = as_part(s, (t, period), handoff).prove()
        assert full == verify_predicted(cs, init, t, period)._replace(
            steps_executed=full.steps_executed
        )

        def closes(budget):
            try:
                cert, _ = _certificate(as_part(s, handoff=handoff), budget)
            except BudgetExceeded:
                return False
            return cert is not None and cert.closes

        assert closes(t + period)
        # bisect_left returns a b that closes with b - 1 not closing, or b = 0
        least = bisect_left(range(t + period + 1), True, key=closes)
        assert 0 < least <= t + period and closes(least) and not closes(least - 1)
        budget = least - 1
        with pytest.raises(BudgetExceeded) as capped:
            _certificate(as_part(s, handoff=handoff), budget)
        with pytest.raises(BudgetExceeded) as exc:
            as_part(s, (t, period), handoff).prove(budget)
        assert (exc.value.steps, exc.value.budget) == (capped.value.steps, budget)
        for budget in (full.steps_executed, 10**9):
            assert as_part(s, (t, period), handoff).prove(budget) == full


@pytest.mark.long
def test_long_tier_handoff_route_agrees_with_simulation_at_m16():
    # z(3) alone is a 12,264,801-slide simulation
    p = window_params(16)
    for d in range(p.rho):
        z = build_z(p, d)
        cs = compile_system(z)
        pred = predicted_cycle(p, "z", d)
        sim = verify_predicted(cs, z.init, *pred)
        rep = on_certificate(z, *pred, z_handoff(p, d))
        assert rep == sim._replace(steps_executed=rep.steps_executed), d
        assert rep.steps_executed < 10_000
    assert (sim.measured_transient, sim.measured_period) == (12_264_800, 1)


@st.composite
def handoff_cases(draw):
    """A system s that perturbs a laned head's taps and threshold off the
    lane stride, and the Handoff from head to a tail on head's taps started
    from s's own window at a time at, up to one memory past s's first
    disagreement with head.

    Head lanes start either anywhere (lanes with transients) or on their
    cycle, so the first disagreement is found both by explicit steps and
    by the search over lane phases.
    """
    r = draw(st.integers(2, 3))
    memory = draw(st.integers(2, 5))
    weights = [draw(st.integers(-2, 2)) for _ in range(memory)]
    theta = draw(st.sampled_from([0, 1, 2, Fraction(1, 2)]))
    lane = compile_system(dense_system(weights, theta, [0] * memory))
    bits = st.tuples(*[st.integers(0, 1)] * memory)
    settled = draw(st.booleans())
    inits = []
    for _ in range(r):
        lane_init = draw(bits)
        if settled:
            trace = run(lane, lane_init, 40)
            lane_init = tuple(trace[40 : 40 + memory])
        inits.append(lane_init)
    taps = tuple((r * j, w) for j, w in taps_of(weights))
    init = bytes(inits[i][q] for q in range(memory) for i in range(r))
    head = RecurrenceSystem(r * memory, taps, theta, init)
    perturbed = weights_of(head)
    for j in draw(st.lists(st.integers(0, r * memory - 1), min_size=1, max_size=3)):
        perturbed[j] += draw(st.sampled_from([Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4)]))
    nudge = draw(st.sampled_from([Fraction(-1, 8), 0, Fraction(1, 8)]))
    system = head._replace(taps=taps_of(perturbed), threshold=theta + nudge)
    cs, head_cs = compile_system(system), compile_system(head)
    word, first = word_from_bits(init), 0
    while first < 500 and (affine_sum(head_cs, word) >= head_cs.scaled_threshold) == (
        affine_sum(cs, word) >= cs.scaled_threshold
    ):
        word, first = advance_word(head_cs, word, 1), first + 1
    at = first + draw(st.integers(0, r * memory))
    tail_init = run(cs, init, at)[at:]
    return system, Handoff(as_part(head), as_part(head._replace(init=tail_init)), at)


@settings(max_examples=200, deadline=None)
@given(st.one_of(laned_systems(), handoff_cases()), st.integers(0, 60))
def test_a_certificate_traces_the_true_orbit(case, steps):
    # a laned system's lanes, or a closed handoff certificate
    if isinstance(case, RecurrenceSystem):
        cs, init = compile_system(case), case.init
        cert, _ = certify_lanes(cs, init, budget=10**6)
    else:
        s, handoff = case
        cs, init = compile_system(s), s.init
        cert, _ = _certificate(as_part(s, handoff=lambda: handoff), 10**7)
        if cert is None or not cert.closes:
            return  # e.g. lane periods that share a factor
    assert cert.trace(0, cs.memory + steps) == run(cs, init, steps)


@settings(max_examples=200, deadline=None)
@given(st.one_of(laned_systems(), handoff_cases()), st.integers(0, 150), st.data())
def test_a_certificate_reads_every_range_of_the_true_orbit(case, steps, data):
    # a range of a laned system's lanes or of a closed handoff certificate,
    # read at once, as a Trace or in blocks of any size, is that slice of
    # run's trace and of the oracle's, wherever it starts: before or past a
    # handoff, whose trace runs up to 150 steps past it, and the lane
    # transients, empty, or at the end
    if isinstance(case, RecurrenceSystem):
        s = case
        cert, _ = certify_lanes(compile_system(s), s.init, budget=10**6)
    else:
        s, handoff = case
        cert, _ = _certificate(as_part(s, handoff=lambda: handoff), 10**7)
        if cert is None or not cert.closes:
            return  # e.g. lane periods that share a factor
        steps += handoff.at
    full = run(compile_system(s), s.init, steps)
    assert full == dense_oracle_run(s, s.init, steps)
    start, stop = sorted(data.draw(st.integers(0, len(full))) for _ in range(2))
    size = data.draw(st.integers(1, 40))
    trace = Trace(cert.trace, len(full))
    assert cert.trace(start, stop) == trace[start:stop] == full[start:stop]
    assert read_in_blocks(trace, start, stop, size) == full[start:stop]


@settings(max_examples=300, deadline=None)
@given(handoff_cases())
def test_a_closed_handoff_certificate_reads_the_true_orbit(case):
    s, handoff = case
    cs, init = compile_system(s), s.init
    read, _ = handoff_reader(s, handoff, budget=10**7)
    if read is None:
        return  # e.g. lane periods that share a factor: the proof simulates
    ref = detect_cycle(cs, init, step_budget=10**6)
    t, p = ref.measured_transient, ref.measured_period
    times = list(range(t + 2 * p + 2 * cs.memory))
    windows = [read(n) for n in times]
    word0 = word_from_bits(init)
    assert windows == [advance_word(cs, word0, n) for n in times]
    for prove in (on_certificate, handoff_uncapped):
        rep = prove(s, t, p, handoff)
        assert rep == ref._replace(steps_executed=rep.steps_executed)
    for pair in wrong_pairs(t, p):
        want = refusal(simulated, s, pair)
        assert refusal(handoff_uncapped, s, (*pair, handoff)) == want, pair


@settings(max_examples=300, deadline=None)
@given(handoff_cases())
def test_the_margin_filter_finds_the_exact_scans_first_disagreement(case):
    # on each part of a generic handoff, _first_disagreement finds the same
    # time whether it checks the margin premises or always scans every time;
    # the system with its threshold a whole unit lower also fires where the
    # part's next bit is 0, which only the exact scan sees
    s, handoff = case
    cs = compile_system(s)
    lowered = cs._replace(scaled_threshold=cs.scaled_threshold - cs.denominator)
    for part in (handoff.head, handoff.tail):
        lanes, _ = certify_lanes(part.cs, part.system.init, 10**6)
        if not lanes.coprime:
            continue  # the branch and bound needs coprime lane periods
        for system in (cs, lowered):
            filtered, _ = _first_disagreement(system, lanes, 10**9)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("neurec.cycles._fires_only_with", lambda cs, lanes: False)
                exact, _ = _first_disagreement(system, lanes, 10**9)
            assert filtered == exact


def assert_lane_terms_are_window_popcounts(cs, lanes):
    """Each slot c's scattered term on each lane i at each phase x is the
    weighted popcount of cs's taps on lane i's window at lane time
    Q + [i < c], Q = x mod P_i past the transients, read off the lane trace;
    and the next bit is lane c's output at lane time Q."""
    r, memory = len(lanes.orbits), lanes.cs.memory
    for c, (terms, bits) in enumerate(_lane_terms(cs, lanes)):
        assert len(terms) == r
        for i, (trace, rep) in enumerate(lanes.orbits):
            t, p = rep.measured_transient, rep.measured_period
            masks = {}  # cs's taps on lane i's window in slot c, by weight
            for j, w in cs.taps:
                if (c - j) % r == i:
                    masks[w] = masks.get(w, 0) | 1 << (j - 1) // r
            assert len(terms[i]) == p
            for x in range(p):
                s = t + (x + (i < c) - t) % p
                word = word_from_bits(trace[s : s + memory])
                want = sum(w * (word & mask).bit_count() for w, mask in masks.items())
                assert terms[i][x] == want, (c, i, x)
        trace, rep = lanes.orbits[c]
        t, p = rep.measured_transient, rep.measured_period
        assert bits == bytes(trace[memory + t + (x - t) % p] for x in range(p)), c


@settings(max_examples=200, deadline=None)
@given(handoff_cases())
def test_scattered_lane_terms_are_the_lane_window_popcounts(case):
    s, handoff = case
    cs = compile_system(s)
    for part in (handoff.head, handoff.tail):
        lanes, _ = certify_lanes(part.cs, part.system.init, 10**6)
        assert_lane_terms_are_window_popcounts(cs, lanes)


@pytest.mark.parametrize("m", [6, 11])
def test_scattered_lane_terms_of_every_z_on_y_and_w(m):
    p = window_params(m)
    y = build_y(p)
    y_lanes, _ = certify_lanes(compile_system(y), y.init, 10**9)
    for d in range(p.rho):
        z, w = compile_system(build_z(p, d)), build_w(p, d)
        w_lanes, _ = certify_lanes(compile_system(w), w.init, 10**9)
        for lanes in (y_lanes, w_lanes):
            assert_lane_terms_are_window_popcounts(z, lanes)


@settings(max_examples=200, deadline=None)
@given(st.one_of(laned_systems(), handoff_cases()))
def test_certificate_reads_and_traces_equal_the_stepped_full_system(case):
    # the oracle steps the full system, advance_word for S_n and run for
    # x(0..length-1), out to T + 3P + memory: past every lane transient and
    # over more than one period of each lane's stored cycle
    if isinstance(case, RecurrenceSystem):
        cs, init = compile_system(case), case.init
        cert, _ = certify_lanes(cs, init, budget=10**6)
    else:
        s, handoff = case
        cs, init = compile_system(s), s.init
        cert, _ = _certificate(as_part(s, handoff=lambda: handoff), 10**7)
        if cert is None or not cert.closes:
            return  # e.g. lane periods that share a factor
    ref = detect_cycle(cs, init, step_budget=10**6)
    horizon = ref.measured_transient + 3 * ref.measured_period + cs.memory
    windows, word = _windows(cert.trace, cs.memory), word_from_bits(init)
    for n in range(horizon + 1):
        assert windows(n) == word, n
        word = advance_word(cs, word, 1)
    full = run(cs, init, horizon)
    for length in range(horizon + 1):
        assert cert.trace(0, length) == full[:length], length
