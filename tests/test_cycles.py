"""Cycle measurement against a brute-force state dictionary.

naive_cycle records every window it sees; the first repeat pins (T, P)
with no cleverness at all.  detect_cycle must agree with it everywhere it
is feasible to run, and, searching blind, must find the formula-level
(T, P) of every family member at the desk scales.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neurec import (
    BudgetExceeded,
    CycleReport,
    PredictionFailed,
    RecurrenceSystem,
    advance_word,
    build_w,
    build_y,
    build_z,
    compile_system,
    destabilized_system,
    detect_cycle,
    lane_count,
    measure_cycle,
    predicted_cycle,
    prime_factors,
    run,
    single_system,
    verify_lanes,
    verify_predicted,
    walk,
    window_params,
    word_from_bits,
)
from neurec.cycles import _laned, _probe_pass


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


def lanes_uncapped(cs, init, t, p):
    """The lane proof with no cap on the lane searches, so it never simulates."""
    steps, entry = _probe_pass(_laned(cs, init, lane_count(cs), budget=10**9), t, p)
    return CycleReport(t, p, entry, steps)


def refusal(prove, cs, init, pair):
    with pytest.raises(PredictionFailed) as exc:
        prove(cs, init, *pair)
    return exc.value.check


def assert_lane_reads_are_exact(cs, init, times):
    # every window the uncapped lane reader assembles is S_n
    times = sorted(times)
    windows, _ = _laned(cs, init, lane_count(cs), budget=10**9)(times)
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
    for prove in (verify_lanes, lanes_uncapped):
        rep = prove(cs, s.init, t, p)
        assert (rep.measured_transient, rep.measured_period, rep.entry_window) == (
            t,
            p,
            ref.entry_window,
        )
    for pair in wrong_pairs(t, p):
        want = refusal(verify_predicted, cs, s.init, pair)
        assert refusal(verify_lanes, cs, s.init, pair) == want, pair
        assert refusal(lanes_uncapped, cs, s.init, pair) == want, pair
    assert_lane_reads_are_exact(cs, s.init, {t, t + 1, t + p, t + 2 * p, max(t - 1, 0)})


@settings(max_examples=100, deadline=None)
@given(small_systems())
def test_one_lane_systems_never_take_the_lane_route(s):
    cs = compile_system(s)
    assume(lane_count(cs) == 1)
    rep = detect_cycle(cs, s.init, step_budget=20_000)
    pred = (rep.measured_transient, rep.measured_period)
    with pytest.raises(ValueError):
        verify_lanes(cs, s.init, *pred)

    def no_lanes(*args, **kwargs):
        raise AssertionError("a one-lane system took the lane route")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("neurec.verify.DETECT_CUTOFF", 0)  # always the proving route
        mp.setattr("neurec.verify.verify_lanes", no_lanes)
        assert measure_cycle(s, pred) == dataclasses.replace(rep, steps_executed=sum(pred))


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
        for prove in (verify_lanes, lanes_uncapped):
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
    assert verify_lanes(cs, y.init, *predicted_cycle(p, "y")).steps_executed < 10_000
    raised = dataclasses.replace(y, threshold=y.threshold + 1)
    with pytest.raises(PredictionFailed) as exc:
        verify_lanes(compile_system(raised), raised.init, *predicted_cycle(p, "y"))
    assert exc.value.check == "period"
