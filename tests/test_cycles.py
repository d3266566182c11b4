"""Cycle measurement against a brute-force state dictionary.

naive_cycle records every window it sees; the first repeat pins (T, P)
with no cleverness at all.  detect_cycle must agree with it everywhere it
is feasible to run, and, searching blind, must find the formula-level
(T, P) of every family member at the desk scales.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurec import (
    BudgetExceeded,
    PredictionFailed,
    RecurrenceSystem,
    advance_word,
    build_w,
    build_y,
    build_z,
    compile_system,
    destabilized_system,
    detect_cycle,
    predicted_cycle,
    prime_factors,
    single_system,
    verify_predicted,
    walk,
    window_params,
    word_from_bits,
)


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
