"""Scale parameters checked against an independent prime sieve.

The reference sieve below is deliberately written from scratch (trial
division, ascending scan) so that window_params is never compared against
its own internals.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurec import (
    IndexOutOfRange,
    RhoTooSmall,
    cycle_lengths,
    window_params,
)


def reference_primes(lo, hi):
    """All primes p with lo < p < hi, ascending, by trial division."""
    found = []
    for n in range(max(lo + 1, 2), hi):
        if all(n % q for q in range(2, math.isqrt(n) + 1)):
            found.append(n)
    return found


def test_reference_sieve_sanity():
    assert reference_primes(1, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert reference_primes(12, 18) == [13, 17]
    assert reference_primes(8, 12) == [11]


# --- frozen desk-scale parameter sets -------------------------------------


def test_m6_parameters():
    p = window_params(6)
    assert list(p.primes) == sorted(reference_primes(12, 18), reverse=True)
    assert p.primes == (17, 13)
    assert p.rho == 2
    assert p.alphas == (1, 5)
    assert p.k == 70
    assert p.h == 140
    assert p.mu == (4, 5)
    assert p.beta_m == (2, 5)
    assert p.theta_single == 4


def test_m11_parameters():
    p = window_params(11)
    assert list(p.primes) == sorted(reference_primes(22, 33), reverse=True)
    assert p.primes == (31, 29, 23)
    assert p.rho == 3
    assert p.alphas == (2, 4, 10)
    assert p.k == 195
    assert p.h == 585
    assert p.mu == (6, 6, 8)
    assert p.beta_m == (9, 21, 11)
    assert p.theta_single == 6


def test_m16_parameters():
    p = window_params(16)
    assert list(p.primes) == sorted(reference_primes(32, 48), reverse=True)
    assert p.primes == (47, 43, 41, 37)
    assert p.rho == 4
    assert p.k == 380
    assert p.h == 1520
    assert p.mu == (8, 8, 9, 10)
    assert p.beta_m == (4, 36, 11, 10)


def test_m21_parameters():
    p = window_params(21)
    assert list(p.primes) == sorted(reference_primes(42, 63), reverse=True)
    assert p.primes == (61, 59, 53, 47, 43)
    assert p.rho == 5
    assert p.k == 625


def test_rho_too_small():
    for m in (2, 3, 4):
        with pytest.raises(RhoTooSmall) as exc:
            window_params(m)
        assert exc.value.m == m
        assert exc.value.rho < 2
    # m=5 squeaks by with {11, 13}
    assert window_params(5).rho == 2


def test_check_lane_bounds():
    p = window_params(6)
    p.check_lane(0)
    p.check_lane(1)
    with pytest.raises(IndexOutOfRange):
        p.check_lane(2)
    with pytest.raises(IndexOutOfRange):
        p.check_lane(-1)


# --- cycle length tables ---------------------------------------------------


def test_cycle_lengths_m6():
    p = window_params(6)
    l0, l1, l2 = cycle_lengths(p, 0)
    assert (l0, l1, l2) == (26, 34, 442)
    l0, l1, l2 = cycle_lengths(p, 1)
    assert (l0, l1, l2) == (1, 442, 442)


def test_cycle_lengths_m11():
    p = window_params(11)
    assert cycle_lengths(p, 0) == (2001, 93, 62031)
    assert cycle_lengths(p, 1) == (69, 2697, 62031)
    assert cycle_lengths(p, 2) == (1, 62031, 62031)


def test_cycle_lengths_last_step_collapses():
    for m in (5, 6, 11, 16):
        p = window_params(m)
        l0, l1, l2 = cycle_lengths(p, p.rho - 1)
        assert l0 == 1
        assert l1 == l2


def test_cycle_lengths_rejects_bad_d():
    p = window_params(6)
    with pytest.raises(IndexOutOfRange):
        cycle_lengths(p, -1)
    with pytest.raises(IndexOutOfRange):
        cycle_lengths(p, p.rho)


# --- property checks over the m grid --------------------------------------


def params_or_none(m):
    try:
        return window_params(m)
    except RhoTooSmall:
        return None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=120))
def test_window_invariants(m):
    p = params_or_none(m)
    ref = reference_primes(2 * m, 3 * m)
    if p is None:
        assert len(ref) < 2
        return
    assert list(p.primes) == sorted(ref, reverse=True)
    assert p.rho == len(ref) >= 2
    assert p.rho <= math.ceil((m - 1) / 2)
    assert p.k == (6 * m - 1) * p.rho
    assert p.h == p.rho * p.k
    for i, prime in enumerate(p.primes):
        assert p.alphas[i] == 3 * m - prime
        assert 0 < p.alphas[i] < m
        assert p.mu[i] == p.k // prime
        assert 2 * p.rho <= p.mu[i] <= 3 * p.rho
        assert p.beta_m[i] == p.k - prime * p.mu[i]
        assert 0 <= p.beta_m[i] < prime


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=80))
def test_cycle_length_divisibility(m):
    p = params_or_none(m)
    if p is None:
        return
    tuples = [cycle_lengths(p, d) for d in range(p.rho)]
    for d in range(p.rho):
        l0, l1, l2 = tuples[d]
        assert l2 == p.rho * math.lcm(*p.primes)
        assert l1 % p.rho == 0 and l0 % 1 == 0
        assert l2 % l1 == 0
        assert l2 % l0 == 0
        # interleaved product: the two halves cover all primes once
        assert l0 * l1 == p.rho * l2 if d == 0 and p.rho == 2 else True
        if d > 0:
            assert tuples[d - 1][0] % l0 == 0  # tail lcm shrinks
            assert l1 % tuples[d - 1][1] == 0  # head lcm grows
