"""System construction checked against hand-derived profiles.

The reference facts used here were worked out by hand from the defining
rules (band layout of the weights, lane-comb initial patterns, residue
classes) and are asserted as literal constants, so these tests do not lean
on the code under test for their expected values.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurec import (
    LAMBDA,
    IndexOutOfRange,
    MixedShapes,
    PlanInvariantViolated,
    RecurrenceSystem,
    ShapeMismatch,
    build_w,
    build_y,
    build_z,
    chain_perturbation,
    compile_system,
    compute_B0,
    cycle_lengths,
    destabilized_system,
    gamma,
    index_sets,
    initial_config_v,
    initial_config_x,
    perturbation_plan,
    pos_set,
    q_set,
    run,
    shuffle_compose,
    single_system,
    single_weights,
    window_params,
    x_closed_form,
    y_closed_form,
)
from neurec.errors import RhoTooSmall


def ref_lane_bit(params, i, t):
    """Independent closed form: lane i fires exactly on t = beta_i (mod p_i)."""
    return 1 if (t - params.beta_m[i]) % params.primes[i] == 0 else 0


# --- weight profiles -------------------------------------------------------


def test_m6_weights_frozen():
    p = window_params(6)
    a, theta = single_weights(p)
    assert theta == 4
    expect = {13: 2, 17: 2, 26: 2, 34: 2, 39: 2, 51: 2, 52: -2, 68: -2}
    assert a == tuple(sorted(expect.items()))


def test_m11_weights_frozen():
    p = window_params(11)
    a, theta = single_weights(p)
    assert theta == 6
    got = dict(a)
    expect = {}
    for prime in (31, 29, 23):
        for ell in (1, 2, 3, 4):
            expect[ell * prime] = 2
        for ell in (5, 6):
            expect[ell * prime] = -1
    assert got == expect


def test_m16_weight_bands():
    # even rho=4: +2 up to l=6, -2 at l=7,8
    p = window_params(16)
    taps, theta = single_weights(p)
    a = dict(taps)
    assert theta == 8
    for prime in p.primes:
        for ell in range(1, 9):
            assert a[ell * prime] == (2 if ell <= 6 else -2)


def test_m21_weight_bands():
    # odd rho=5: +2 up to l=7, -2 at l=8, -1 at l=9,10
    p = window_params(21)
    a = dict(single_weights(p)[0])
    for prime in p.primes:
        for ell in range(1, 11):
            if ell <= 7:
                assert a[ell * prime] == 2
            elif ell == 8:
                assert a[ell * prime] == -2
            else:
                assert a[ell * prime] == -1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=5, max_value=60))
def test_lane_sums_and_support(m):
    try:
        p = window_params(m)
    except RhoTooSmall:
        return
    taps, theta = single_weights(p)
    a = dict(taps)
    assert theta == 2 * p.rho
    sets = index_sets(p)
    # each lane's weights add to the threshold
    for i in range(p.rho):
        assert sum(a.get(j, 0) for j in pos_set(p, i)) == 2 * p.rho
    # support is exactly F, zero on G
    assert set(a) == set(sets.F)
    assert not set(a) & sets.G
    # lanes never collide
    for i in range(p.rho):
        for j in range(i + 1, p.rho):
            assert not pos_set(p, i) & pos_set(p, j)


# --- sampling sets and the intersection bound ------------------------------


def test_q_set_m6_examples():
    p = window_params(6)
    # d on the low side of beta: one extra sample
    assert q_set(p, 0, 2) == frozenset({2, 19, 36, 53, 70})
    # d above beta: one fewer
    assert q_set(p, 0, 13) == frozenset({13, 30, 47, 64})
    # E(alpha_i, d): Q(alpha_i, d) on the weight support F
    assert q_set(p, 0, 13) & index_sets(p).F == frozenset({13})
    assert q_set(p, 0, 2) & index_sets(p).F == frozenset()
    with pytest.raises(IndexOutOfRange):
        q_set(p, 0, 0)
    with pytest.raises(IndexOutOfRange):
        q_set(p, 0, 17)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=5, max_value=26))
def test_intersection_bound_exhaustive(m):
    try:
        p = window_params(m)
    except RhoTooSmall:
        return
    F = index_sets(p).F
    for i, prime in enumerate(p.primes):
        for d in range(1, prime):
            assert len(q_set(p, i, d) & F) <= p.rho - 1


# --- initial configurations ------------------------------------------------


def test_m6_initial_patterns_frozen():
    p = window_params(6)
    x0 = initial_config_x(p, 0)
    assert [j for j, b in enumerate(x0) if b] == [2, 19, 36, 53]
    x1 = initial_config_x(p, 1)
    assert [j for j, b in enumerate(x1) if b] == [5, 18, 31, 44, 57]
    v0 = initial_config_v(p, 0)
    assert [j for j, b in enumerate(v0) if b] == [1, 18, 35, 52]
    v1 = initial_config_v(p, 1)
    assert [j for j, b in enumerate(v1) if b] == [4, 17, 30, 43, 56]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=5, max_value=40))
def test_config_structure(m):
    try:
        p = window_params(m)
    except RhoTooSmall:
        return
    for i in range(p.rho):
        x = initial_config_x(p, i)
        v = initial_config_v(p, i)
        assert len(x) == len(v) == p.k
        # comb with mu_i teeth after beta_i silence
        assert sum(x) == p.mu[i]
        assert all(x[j] == ref_lane_bit(p, i, j) for j in range(p.k))
        # v is x advanced one step with the newest bit knocked out
        assert v[: p.k - 1] == x[1:]
        assert v[p.k - 1] == 0
        # closed forms agree with the patterns
        assert all(x_closed_form(p, i, j) == x[j] for j in range(p.k))


def test_closed_form_spot_values():
    p = window_params(6)
    assert x_closed_form(p, 0, 70) == 1
    assert all(x_closed_form(p, 0, t) == 0 for t in range(71, 87))
    assert x_closed_form(p, 1, 5) == 1
    # interleaving: slot rho*q + i replays lane i at time 1 + q
    assert y_closed_form(p, 2) == 1  # lane 0 at time 2 = beta_0
    assert y_closed_form(p, 3) == 0
    for t in range(0, 400):
        q, i = divmod(t, p.rho)
        assert y_closed_form(p, t) == ref_lane_bit(p, i, 1 + q)


# --- assembled systems ------------------------------------------------------


def test_single_system_dynamics_reproduce_closed_form():
    for m in (6, 11):
        p = window_params(m)
        for i in range(p.rho):
            sys_i = single_system(p, i)
            trace = run(compile_system(sys_i), sys_i.init, 3 * p.primes[i])
            assert all(
                trace[t] == ref_lane_bit(p, i, t) for t in range(len(trace))
            )


def test_destabilized_system_reaches_all_zero():
    p = window_params(6)
    for i in range(p.rho):
        v = destabilized_system(p, i)
        trace = run(compile_system(v), v.init, p.k + 5)
        # after the transient the lane is silent for good
        assert all(b == 0 for b in trace[-(p.primes[i] + 5) :])


def test_build_y_frozen():
    p = window_params(6)
    y = build_y(p)
    assert y.memory == 140
    assert y.threshold == 4
    expect = {26: 2, 34: 2, 52: 2, 68: 2, 78: 2, 102: 2, 104: -2, 136: -2}
    assert y.taps == tuple(sorted(expect.items()))
    for t in range(p.h):
        q, i = divmod(t, p.rho)
        assert y.init[t] == ref_lane_bit(p, i, 1 + q)


def test_gamma_values():
    p6 = window_params(6)
    assert gamma(p6, 0, 1) == 17 % 13 == 4
    p11 = window_params(11)
    assert gamma(p11, 0, 1) == 31 % 29 == 2
    assert gamma(p11, 0, 2) == 31 % 23 == 8
    assert gamma(p11, 1, 2) == (2697 // 3) % 23 == 2
    with pytest.raises(IndexOutOfRange):
        gamma(p6, 0, 0)  # lane must sit above d
    with pytest.raises(IndexOutOfRange):
        gamma(p6, 1, 2)


def test_build_z_takes_a_plan_for_its_own_d_only():
    params = window_params(6)
    y = build_y(params)
    assert build_z(params, 1, y, perturbation_plan(params, 1)) == build_z(params, 1)
    with pytest.raises(IndexOutOfRange):
        build_z(params, 1, y, perturbation_plan(params, 0))


def test_build_w_init_layout():
    for m, d in ((6, 0), (11, 1)):
        p = window_params(m)
        w = build_w(p, d)
        y = build_y(p)
        assert w.taps == y.taps and w.threshold == y.threshold
        for j in range(p.k):
            for i in range(p.rho):
                bit = w.init[p.rho * j + i]
                if i <= d:
                    assert bit == initial_config_v(p, i)[j]
                else:
                    assert bit == ref_lane_bit(p, i, 1 + gamma(p, d, i) + j)


# --- perturbation bookkeeping ----------------------------------------------


def test_b0_m6_d0_frozen():
    p = window_params(6)
    b0 = compute_B0(p, 0)
    assert b0 == frozenset({7, 33, 34, 59, 68, 85, 102, 111, 136, 137})
    assert len(b0) == 10


def simulated_B0(params, d):
    """Oracle by dynamics: run y long enough and read the window directly."""
    l1 = cycle_lengths(params, d)[1]
    y = build_y(params)
    trace = run(compile_system(y), y.init, params.h + l1)
    base = params.h + l1 - params.rho
    return frozenset(
        f for f in range(1, params.h - d + 1) if trace[base - f] == 1
    )


def scanned_B0(params, d):
    """Oracle by definition: the f in [1, h - d] at which the closed-form y
    puts a 1 at time h + L1(d) - rho - f."""
    base = params.h + cycle_lengths(params, d)[1] - params.rho
    return frozenset(
        f for f in range(1, params.h - d + 1) if y_closed_form(params, base - f) == 1
    )


@pytest.mark.parametrize("m", [6, 11])
def test_b0_routes_agree_with_simulation(m):
    p = window_params(m)
    for d in range(p.rho):
        assert compute_B0(p, d) == scanned_B0(p, d) == simulated_B0(p, d)


@pytest.mark.long
@pytest.mark.parametrize("m", [21, 26, 36, 50])
def test_long_tier_b0_residue_classes_equal_the_scan(m):
    p = window_params(m)
    for d in range(p.rho):
        assert compute_B0(p, d) == scanned_B0(p, d), d


def test_plan_m6_d0_frozen():
    p = window_params(6)
    plan = perturbation_plan(p, 0)
    assert plan.tot == 10
    assert LAMBDA == Fraction(-1)
    # ints over the plan's one denominator 8 * Tot = 80
    assert plan.denominator == 80
    assert Fraction(plan.beta_d, plan.denominator) == Fraction(-1, 10)
    assert Fraction(plan.xi_d, plan.denominator) == Fraction(-79, 80)
    assert Fraction(plan.theta2, plan.denominator) == Fraction(241, 80)
    assert plan.A == plan.B0


def test_plan_shift_union():
    p = window_params(11)
    for d in range(p.rho):
        plan = perturbation_plan(p, d)
        assert plan.tot == len(plan.B0)
        assert plan.A == frozenset(
            f + s for f in plan.B0 for s in range(d + 1)
        )
        assert max(plan.A) <= p.h
        assert plan.denominator == 8 * plan.tot
        beta, xi, theta2 = (Fraction(v, plan.denominator) for v in (plan.beta_d, plan.xi_d, plan.theta2))
        assert beta == Fraction(LAMBDA, plan.tot)
        assert xi == LAMBDA - beta / 8
        assert theta2 == 2 * p.rho + xi


def test_build_z_m6_d0_coefficients():
    p = window_params(6)
    z = build_z(p, 0)
    weights = dict(z.taps)  # ints over the denominator 8 * Tot = 80
    assert (z.threshold, z.denominator) == (241, 80)  # 241/80
    assert weights[7] == -8  # touched zero weight: -1/10
    assert weights[34] == 152  # touched +2: 19/10
    assert weights[136] == -168  # touched -2: -21/10
    assert weights[26] == 160  # untouched: 2
    assert len(weights) == 14
    assert z.init == build_y(p).init


@pytest.mark.parametrize("m", [6, 11])
def test_chain_matches_direct_build(m):
    p = window_params(m)
    plans = [perturbation_plan(p, d) for d in range(p.rho)]
    z = build_z(p, 0)
    for d in range(1, p.rho):
        z = chain_perturbation(z, plans[d - 1], plans[d])
        direct = build_z(p, d)
        assert z.taps == direct.taps  # exact rational equality
        assert z.threshold == direct.threshold
        assert z.init == direct.init
        assert z.label == direct.label


def test_chain_perturbation_crosses_a_change_of_denominator():
    # Tot(d) changes with d, so z(d) and z(d + 1) are written over different
    # denominators 8 * Tot: at m = 6, Tot goes 10 -> 9 and D 80 -> 72
    p = window_params(6)
    plan0, plan1 = perturbation_plan(p, 0), perturbation_plan(p, 1)
    z0 = build_z(p, 0)
    z1 = chain_perturbation(z0, plan0, plan1)
    assert (z0.denominator, z1.denominator) == (80, 72)
    assert z1 == build_z(p, 1)
    for m in range(5, 22):
        p = window_params(m)
        y = build_y(p)
        plans = [perturbation_plan(p, d) for d in range(p.rho)]
        for d in range(p.rho - 1):
            chained = chain_perturbation(build_z(p, d, y), plans[d], plans[d + 1])
            assert chained == build_z(p, d + 1, y), (m, d)
            # in Fractions: y's weights with beta(d + 1) added on A(d + 1)
            plan = plans[d + 1]
            want = dict(y.taps)
            for f in plan.A:
                want[f] = want.get(f, 0) + Fraction(plan.beta_d, plan.denominator)
            got = {j: Fraction(w, chained.denominator) for j, w in chained.taps}
            assert got == {j: w for j, w in want.items() if w}, (m, d)
            assert Fraction(chained.threshold, chained.denominator) == Fraction(plan.theta2, plan.denominator)


@pytest.mark.parametrize("m", [6, 11])
def test_every_family_weight_is_an_int_over_one_denominator(m):
    # no Fraction per tap: x, v, y and w(d) are over 1, z(d) over 8 * Tot(d)
    p = window_params(m)
    systems = [f(p, i) for f in (single_system, destabilized_system) for i in range(p.rho)]
    systems += [build_y(p), *(build_w(p, d) for d in range(p.rho))]
    zs = [build_z(p, d) for d in range(p.rho)]
    for s in systems + zs:
        assert type(s.threshold) is int and all(type(w) is int for _, w in s.taps), s.label
    assert all(s.denominator == 1 for s in systems)
    assert [z.denominator for z in zs] == [8 * perturbation_plan(p, d).tot for d in range(p.rho)]


rational_weights = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def written_profiles(draw):
    """A rational profile (memory, taps, threshold, init) and a scale c to
    write it at: its numerators over c times the least common denominator."""
    memory = draw(st.integers(0, 8))
    offsets = sorted(draw(st.sets(st.integers(1, max(memory, 1)), max_size=memory)))
    taps = tuple((j, draw(rational_weights.filter(bool))) for j in offsets)
    theta = draw(st.one_of(st.just(Fraction(0)), rational_weights))
    init = bytes(draw(st.lists(st.integers(0, 1), min_size=memory, max_size=memory)))
    return memory, taps, theta, init, draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(written_profiles())
def test_a_system_is_its_profile_in_lowest_terms(case):
    memory, taps, theta, init, c = case
    d = lcm(theta.denominator, *(w.denominator for _, w in taps))

    def written(scale):
        ints = tuple((j, int(w * scale)) for j, w in taps)
        return RecurrenceSystem(memory, ints, int(theta * scale), init, "profile", scale)

    s, least = written(c * d), written(d)
    assert s == least and hash(s) == hash(least)
    cs = compile_system(s)
    assert cs == compile_system(least)
    assert cs.taps is s.taps
    # the lcm rule: each reduced rational times the lcm of their denominators
    assert cs.denominator == d
    assert cs.taps == tuple((j, w.numerator * (d // w.denominator)) for j, w in taps)
    assert cs.scaled_threshold == theta.numerator * (d // theta.denominator)


def test_chain_rejects_non_consecutive():
    p = window_params(11)
    plans = [perturbation_plan(p, d) for d in range(3)]
    z0 = build_z(p, 0)
    with pytest.raises(IndexOutOfRange):
        chain_perturbation(z0, plans[0], plans[2])


# --- composition ------------------------------------------------------------


def constant_lane(bit):
    return RecurrenceSystem(
        memory=1, taps=((1, 2),), threshold=1, init=bytes([bit]), label=f"const{bit}"
    )


def test_shuffle_compose_layout():
    lanes = [constant_lane(0), constant_lane(1), constant_lane(0)]
    c = shuffle_compose(lanes)
    assert c.memory == 3
    assert c.taps == ((3, 2),)
    assert c.threshold == 1
    assert c.init == bytes([0, 1, 0])


def test_shuffle_compose_single_units_period():
    p = window_params(6)
    lanes = [single_system(p, 0), single_system(p, 1)]
    c = shuffle_compose(lanes)
    assert c.memory == 2 * p.k
    assert dict(c.taps)[2 * 17] == 2 and dict(c.taps)[2 * 13] == 2
    trace = run(compile_system(c), c.init, 3 * 442)
    assert trace[: len(trace) - 442] == trace[442:]
    assert trace[: len(trace) - 221] != trace[221:]


def test_shuffle_compose_rejections():
    with pytest.raises(MixedShapes):
        shuffle_compose([])
    a = constant_lane(0)
    b = RecurrenceSystem(memory=1, taps=((1, 2),), threshold=0, init=bytes(1))
    with pytest.raises(MixedShapes):
        shuffle_compose([a, b])
    c = RecurrenceSystem(memory=2, taps=((2, 2),), threshold=1, init=bytes(2))
    with pytest.raises(MixedShapes):
        shuffle_compose([a, c])
    d = RecurrenceSystem(memory=1, taps=((1, 1),), threshold=1, init=bytes(1))
    with pytest.raises(MixedShapes):
        shuffle_compose([a, d])
    # the same ints over another denominator are another profile
    e = RecurrenceSystem(memory=1, taps=((1, 2),), threshold=1, init=bytes(1), denominator=3)
    with pytest.raises(MixedShapes):
        shuffle_compose([a, e])


MALFORMED = {
    "tap-offset-0": {"taps": ((0, 1), (3, 1))},
    "tap-offset-past-memory": {"taps": ((1, 1), (4, 1))},
    "repeated-offset": {"taps": ((1, 1), (1, 2))},
    "unsorted-offsets": {"taps": ((3, 1), (1, 1))},
    "zero-weight": {"taps": ((1, 1), (2, 0))},
    "zero-rational-weight": {"taps": ((2, Fraction(0)),)},
    "fraction-weight": {"taps": ((1, 2), (3, Fraction(-1, 2)))},
    "fraction-threshold": {"threshold": Fraction(1, 2)},
    "zero-denominator": {"denominator": 0},
    "negative-denominator": {"denominator": -2},
    "short-init": {"init": bytes(2)},
    "long-init": {"init": bytes(4)},
    "init-byte-2": {"init": bytes([0, 2, 0])},
    "init-not-bytes": {"init": (0, 1, 0)},
}


@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED)
def test_recurrence_system_validation(fields):
    # each case breaks one field of a well-formed system, built anew or
    # replaced into one (_replace builds through _make, which checks too)
    good = dict(memory=3, taps=((1, 2), (3, -1)), threshold=0, init=bytes([0, 1, 0]), label="", denominator=2)
    system = RecurrenceSystem(**good)
    renamed = system._replace(label="renamed")
    assert type(renamed) is RecurrenceSystem and renamed == (*(good | {"label": "renamed"}).values(),)
    with pytest.raises(ShapeMismatch):
        RecurrenceSystem(**good | fields)
    with pytest.raises(ShapeMismatch):
        system._replace(**fields)
    with pytest.raises(ShapeMismatch):
        RecurrenceSystem._make((good | fields).values())
