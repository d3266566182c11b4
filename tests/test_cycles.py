"""Cycle measurement against a brute-force state dictionary.

naive_cycle records every window it sees; the first repeat pins (T, P)
with no cleverness at all.  detect_cycle must agree with it everywhere it
is feasible to run, and, searching blind, must find the formula-level
(T, P) of every family member at the desk scales.
"""

import dataclasses
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neurec import (
    BudgetExceeded,
    CycleReport,
    Handoff,
    PredictionFailed,
    RecurrenceSystem,
    advance_word,
    build_w,
    build_y,
    build_z,
    chain_perturbation,
    compile_system,
    cycle_lengths,
    destabilized_system,
    detect_cycle,
    lane_count,
    measure_cycle,
    perturbation_plan,
    predicted_cycle,
    prime_factors,
    run,
    single_system,
    verify_predicted,
    walk,
    window_params,
    word_from_bits,
)
from neurec.cycles import _probe_pass, certify_lanes, handoff_certificate
from neurec.verify import z_handoff


def naive_cycle(cs, init, cap=200_000):
    seen = {}
    for n, (word, _) in enumerate(walk(cs, word_from_bits(init))):
        if word in seen:
            first = seen[word]
            return first, n - first
        if n == cap:
            raise AssertionError("no repeat within cap")
        seen[word] = n


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


def test_verify_predicted_accepts_true_pair():
    p = window_params(6)
    y = build_y(p)
    rep = verify_predicted(compile_system(y), y.init, 0, 442)
    assert (rep.measured_transient, rep.measured_period) == (0, 442)
    assert rep.steps_executed == 442  # exactly T + P slides

    v = destabilized_system(p, 0)
    rep = verify_predicted(compile_system(v), v.init, 53, 1)
    assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (53, 1, 0)
    assert rep.steps_executed == 54


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
    weights = tuple(draw(rationals) for _ in range(memory))
    theta = draw(rationals)
    init = tuple(draw(st.integers(0, 1)) for _ in range(memory))
    return RecurrenceSystem(
        memory=memory, weights=weights, threshold=theta, init=init, label="rand"
    )


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


# --- proofs on decimated lanes -------------------------------------------------


def wrong_pairs(t, p):
    """Every pair one probe must refuse: T - 1, T + 1, P / q and 2P."""
    pairs = [(t + 1, p), (t, 2 * p)] + [(t, p // q) for q in prime_factors(p)]
    return pairs + ([(t - 1, p)] if t > 0 else [])


def laned(cs, init):
    """The reader of the uncapped lane certificate, which must close."""
    lanes, _ = certify_lanes(cs, init, budget=10**9)
    assert lanes is not None, "the lane searches did not close"
    return lanes.read


def on_lanes(cs, init, t, p, **kwargs):
    """verify_predicted on the lane certificate, capped at T + P (or budget)."""
    return verify_predicted(cs, init, t, p, partial(certify_lanes, cs, init), **kwargs)


def lanes_uncapped(cs, init, t, p):
    """The lane proof with no cap on the lane searches, so it never simulates."""
    steps, entry = _probe_pass(laned(cs, init), t, p)
    return CycleReport(t, p, entry, steps)


def refusal(prove, cs, init, pair):
    with pytest.raises(PredictionFailed) as exc:
        prove(cs, init, *pair)
    return exc.value.check


def assert_lane_reads_are_exact(cs, init, times):
    # every window the uncapped lane reader assembles is S_n
    times = sorted(times)
    read = laned(cs, init)
    windows = [read(n)[0] for n in times]
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
    lane = RecurrenceSystem(memory, tuple(weights), theta, (0,) * memory)
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
    full = [0] * (r * memory)
    for j, w in enumerate(weights, start=1):
        full[r * j - 1] = w
    init = tuple(inits[i][q] for q in range(memory) for i in range(r))
    return RecurrenceSystem(r * memory, tuple(full), theta, init, label=kind)


@settings(max_examples=200, deadline=None)
@given(laned_systems())
def test_lane_route_agrees_with_detect_cycle(s):
    cs = compile_system(s)
    assert lane_count(cs) > 1
    ref = detect_cycle(cs, s.init, step_budget=10**6)
    t, p = ref.measured_transient, ref.measured_period
    if s.label == "zero":
        assert p == 1 and ref.entry_window == 0
    # these orbits are short, so the capped route mostly simulates
    for prove in (on_lanes, lanes_uncapped):
        rep = prove(cs, s.init, t, p)
        assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (
            t,
            p,
            ref.entry_window,
        )
    for pair in wrong_pairs(t, p):
        want = refusal(verify_predicted, cs, s.init, pair)
        assert refusal(on_lanes, cs, s.init, pair) == want, pair
        assert refusal(lanes_uncapped, cs, s.init, pair) == want, pair
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
        assert measure_cycle(s, pred) == dataclasses.replace(rep, steps_executed=sum(pred))


@settings(max_examples=200, deadline=None)
@given(st.one_of(laned_systems(), small_systems()))
def test_popcount_range_equals_the_walk_over_the_whole_orbit(s):
    cs = compile_system(s)
    lanes, _ = certify_lanes(cs, s.init, budget=10**6)
    t, p = naive_cycle(cs, s.init)
    counts = {word.bit_count() for word, _ in islice(walk(cs, word_from_bits(s.init)), t + p)}
    want = (min(counts), max(counts)) if lanes.coprime else None
    assert lanes.popcount_range() == want


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
        for prove in (on_lanes, lanes_uncapped):
            rep = prove(cs, s.init, t, period)
            assert rep == dataclasses.replace(sim, steps_executed=rep.steps_executed), (family, index)
        for pair in wrong_pairs(t, period):
            want = refusal(verify_predicted, cs, s.init, pair)
            assert refusal(lanes_uncapped, cs, s.init, pair) == want, (family, index, pair)


def test_lane_route_refuses_y_with_a_raised_threshold():
    # negative control: one whole unit more threshold breaks y's m = 16 cycle
    p = window_params(16)
    y = build_y(p)
    cs = compile_system(y)
    assert on_lanes(cs, y.init, *predicted_cycle(p, "y")).steps_executed < 10_000
    raised = dataclasses.replace(y, threshold=y.threshold + 1)
    with pytest.raises(PredictionFailed) as exc:
        on_lanes(compile_system(raised), raised.init, *predicted_cycle(p, "y"))
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


def handoff_reader(cs, init, handoff, budget):
    """The reader of the handoff certificate when it closes, else None; and
    the steps the certificate took."""
    cert, spent = handoff_certificate(cs, init, handoff, budget)
    closed = cert is not None and cert.closes
    return (cert.read if closed else None), spent


def on_handoff(cs, init, t, p, handoff, **kwargs):
    """verify_predicted on the handoff certificate, capped at T + P (or budget)."""
    certify = partial(handoff_certificate, cs, init, handoff)
    return verify_predicted(cs, init, t, p, certify, **kwargs)


def handoff_uncapped(cs, init, t, p, handoff):
    """The handoff proof with no cap on its work, so it never simulates;
    the certificate must close."""
    read, _ = handoff_reader(cs, init, handoff, budget=10**9)
    assert read is not None, "the handoff certificate did not close"
    steps, entry = _probe_pass(read, t, p)
    return CycleReport(t, p, entry, steps)


@pytest.mark.parametrize("m", [6, 11])
def test_handoff_route_agrees_with_simulation_on_every_z(m, monkeypatch):
    monkeypatch.setattr("neurec.verify.DETECT_CUTOFF", 0)  # always the proving route
    p = window_params(m)
    for d, s in z_members(p):
        cs = compile_system(s)
        t, period = predicted_cycle(p, "z", d)
        sim = verify_predicted(cs, s.init, t, period)
        handoff = z_handoff(p, d)
        rep = handoff_uncapped(cs, s.init, t, period, handoff)
        assert rep == dataclasses.replace(sim, steps_executed=rep.steps_executed), d
        assert rep.steps_executed < 10_000
        routed = measure_cycle(s, (t, period), handoff=lambda: handoff)
        assert routed == dataclasses.replace(sim, steps_executed=routed.steps_executed), d
        for pair in wrong_pairs(t, period):
            want = refusal(verify_predicted, cs, s.init, pair)
            assert refusal(handoff_uncapped, cs, s.init, (*pair, handoff)) == want, (d, pair)


@pytest.mark.parametrize("m", [6, 11])
def test_handoff_certificate_refuses_z_with_a_raised_threshold(m):
    # negative control: one whole unit more threshold, and z no longer
    # follows y into w(d); the certificate cannot close and the proof
    # falls back to the simulated verdict
    p = window_params(m)
    for d in range(p.rho):
        z = build_z(p, d)
        raised = dataclasses.replace(z, threshold=z.threshold + 1)
        cs = compile_system(raised)
        handoff = z_handoff(p, d)
        read, _ = handoff_reader(cs, raised.init, handoff, budget=10**9)
        assert read is None, d
        pred = predicted_cycle(p, "z", d)
        want = refusal(verify_predicted, cs, raised.init, pred)
        assert refusal(on_handoff, cs, raised.init, (*pred, handoff)) == want, d


def test_handoff_falls_back_when_head_is_not_the_start():
    # a z whose init is not y's cannot follow y's orbit: simulate
    p = window_params(6)
    z = build_z(p, 0)
    flipped = dataclasses.replace(z, init=(1 - z.init[0],) + z.init[1:])
    cs = compile_system(flipped)
    assert handoff_reader(cs, flipped.init, z_handoff(p, 0), budget=10**9) == (None, 0)
    ref = detect_cycle(cs, flipped.init, step_budget=10**6)
    pair = (ref.measured_transient, ref.measured_period)
    rep = on_handoff(cs, flipped.init, *pair, z_handoff(p, 0))
    assert rep == dataclasses.replace(ref, steps_executed=sum(pair))


def test_handoff_takes_over_at_l1():
    # z's window is y's up to its first disagreement at l1 - rho, then
    # build_w(d)'s init at l1 exactly
    p = window_params(11)
    for d in range(p.rho):
        z = build_z(p, d)
        l1 = cycle_lengths(p, d)[1]
        cs = compile_system(z)
        read, _ = handoff_reader(cs, z.init, z_handoff(p, d), budget=10**9)
        y_cs = compile_system(build_y(p))
        word0 = word_from_bits(z.init)
        times = [l1 - p.rho - 1, l1 - p.rho, l1 - p.rho + 1, l1]
        windows = [read(n)[0] for n in times]
        assert windows == [advance_word(cs, word0, n) for n in times]
        assert windows[:2] == [advance_word(y_cs, word0, n) for n in times[:2]]
        assert windows[2] != advance_word(y_cs, word0, times[2])
        assert windows[3] == word_from_bits(build_w(p, d).init)


def test_budget_caps_the_certificate_proofs_at_m11():
    # y on its lanes and every z(d) on its handoff: a budget below both the
    # certificate's cost and T + P fails with the steps the certificate
    # spent, and one that covers the whole proof changes nothing
    p = window_params(11)
    cases = [(build_y(p), predicted_cycle(p, "y"), None)]
    cases += [(build_z(p, d), predicted_cycle(p, "z", d), z_handoff(p, d)) for d in range(p.rho)]
    for s, (t, period), handoff in cases:
        cs, init = compile_system(s), s.init
        if handoff is None:
            certify = partial(certify_lanes, cs, init)
        else:
            certify = partial(handoff_certificate, cs, init, handoff)
        full = verify_predicted(cs, init, t, period, certify)
        assert full == dataclasses.replace(
            verify_predicted(cs, init, t, period), steps_executed=full.steps_executed
        )
        cert, cost = certify(t + period)
        assert cert is not None and cert.closes
        budget = min(cost, t + period) - 1
        with pytest.raises(BudgetExceeded) as exc:
            verify_predicted(cs, init, t, period, certify, budget=budget)
        assert (exc.value.steps, exc.value.budget) == (certify(budget)[1], budget)
        for budget in (full.steps_executed, 10**9):
            assert verify_predicted(cs, init, t, period, certify, budget=budget) == full


@pytest.mark.long
def test_long_tier_handoff_route_agrees_with_simulation_at_m16():
    # z(3) alone is a 12,264,801-slide simulation
    p = window_params(16)
    for d in range(p.rho):
        z = build_z(p, d)
        cs = compile_system(z)
        pred = predicted_cycle(p, "z", d)
        sim = verify_predicted(cs, z.init, *pred)
        rep = on_handoff(cs, z.init, *pred, z_handoff(p, d))
        assert rep == dataclasses.replace(sim, steps_executed=rep.steps_executed), d
        assert rep.steps_executed < 10_000
    assert (sim.measured_transient, sim.measured_period) == (12_264_800, 1)


@st.composite
def handoff_cases(draw):
    """A laned head, a system cs that perturbs head's taps and threshold off
    the lane stride, and a tail on head's taps started from cs's own window
    at a time at, up to one memory past cs's first disagreement with head.

    Head lanes start either anywhere (lanes with transients) or on their
    cycle, so the first disagreement is found both by explicit steps and
    by the search over lane phases.
    """
    r = draw(st.integers(2, 3))
    memory = draw(st.integers(2, 5))
    weights = [draw(st.integers(-2, 2)) for _ in range(memory)]
    theta = draw(st.sampled_from([0, 1, 2, Fraction(1, 2)]))
    lane = compile_system(RecurrenceSystem(memory, tuple(weights), theta, (0,) * memory))
    bits = st.tuples(*[st.integers(0, 1)] * memory)
    settled = draw(st.booleans())
    inits = []
    for _ in range(r):
        lane_init = draw(bits)
        if settled:
            trace = run(lane, lane_init, 40)
            lane_init = tuple(trace[40 : 40 + memory])
        inits.append(lane_init)
    full = [0] * (r * memory)
    for j, w in enumerate(weights, start=1):
        full[r * j - 1] = w
    init = tuple(inits[i][q] for q in range(memory) for i in range(r))
    head = RecurrenceSystem(r * memory, tuple(full), theta, init)
    perturbed = list(full)
    for j in draw(st.lists(st.integers(0, r * memory - 1), min_size=1, max_size=3)):
        perturbed[j] += draw(st.sampled_from([Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4)]))
    nudge = draw(st.sampled_from([Fraction(-1, 8), 0, Fraction(1, 8)]))
    cs = compile_system(dataclasses.replace(head, weights=tuple(perturbed), threshold=theta + nudge))
    head_cs = compile_system(head)
    word0 = word_from_bits(init)
    first = next(
        (
            n
            for n, ((_, s), (_, z)) in enumerate(zip(walk(head_cs, word0), walk(cs, word0)))
            if n == 500 or (s >= head_cs.scaled_threshold) != (z >= cs.scaled_threshold)
        )
    )
    at = first + draw(st.integers(0, r * memory))
    tail_init = tuple(run(cs, init, at)[at:])
    return cs, init, Handoff(head, dataclasses.replace(head, init=tail_init), at)


@settings(max_examples=300, deadline=None)
@given(handoff_cases())
def test_a_closed_handoff_certificate_reads_the_true_orbit(case):
    cs, init, handoff = case
    read, _ = handoff_reader(cs, init, handoff, budget=10**7)
    if read is None:
        return  # e.g. lane periods that share a factor: the proof simulates
    ref = detect_cycle(cs, init, step_budget=10**6)
    t, p = ref.measured_transient, ref.measured_period
    times = list(range(t + 2 * p + 2 * cs.memory))
    windows = [read(n)[0] for n in times]
    word0 = word_from_bits(init)
    assert windows == [advance_word(cs, word0, n) for n in times]
    for prove in (on_handoff, handoff_uncapped):
        rep = prove(cs, init, t, p, handoff)
        assert rep == dataclasses.replace(ref, steps_executed=rep.steps_executed)
    for pair in wrong_pairs(t, p):
        want = refusal(verify_predicted, cs, init, pair)
        assert refusal(handoff_uncapped, cs, init, (*pair, handoff)) == want, pair
