"""Number-theoretic scale parameters.

Everything else in the package is driven by a single integer m >= 2.  From it
we take the rho(m) primes lying strictly between 2m and 3m, ordered
descending, p_0 > p_1 > ... > p_{rho-1}, and derive

    alpha_i = 3m - p_i
    k       = (6m - 1) * rho(m)      single-unit memory length
    h       = rho(m) * k             shuffled memory length
    mu_i    = floor(k / p_i)
    beta_i  = k - p_i * mu_i         (the remainder of k mod p_i)

Bertrand-style bounds give 2*rho <= mu_i <= 3*rho and
rho(m) <= ceil((m - 1) / 2); both are enforced eagerly so downstream code can
rely on them.  All arithmetic is exact integer work, no dependencies, and
each scale is derived once.
prime_factors is the one trial division, for the primes and for the probes
in cycles that prove a period minimal.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from .errors import IndexOutOfRange, RhoTooSmall

__all__ = [
    "WindowParams",
    "window_params",
    "primes_between",
    "prime_factors",
    "cycle_lengths",
]


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p < hi, ascending: the p >= 2 that are their own
    only prime factor."""
    return [p for p in range(max(lo + 1, 2), hi) if prime_factors(p) == (p,)]


class WindowParams(NamedTuple):
    """All scale parameters derived from m.

    primes are descending: primes[0] is the largest prime below 3m.
    """

    m: int
    primes: tuple[int, ...]
    alphas: tuple[int, ...]
    k: int
    h: int
    mu: tuple[int, ...]
    beta_m: tuple[int, ...]

    @property
    def rho(self) -> int:
        return len(self.primes)

    @property
    def theta_single(self) -> int:
        """Threshold shared by the single units and their shuffles: 2*rho."""
        return 2 * self.rho

    def summary(self) -> dict:
        """The scale as reports show it: rho, primes, k, h, mu and beta."""
        return {
            "rho": self.rho,
            "primes": list(self.primes),
            "k": self.k,
            "h": self.h,
            "mu": list(self.mu),
            "beta": list(self.beta_m),
        }

    def check_lane(self, i: int, what: str = "i") -> None:
        if not 0 <= i <= self.rho - 1:
            raise IndexOutOfRange(f"{what}={i} not in [0, {self.rho - 1}] for m={self.m}")


@cache
def window_params(m: int) -> WindowParams:
    """Derive all scale parameters for a given m, once per m per process:
    a WindowParams is immutable, so every caller shares it.

    Raises RhoTooSmall when the open interval (2m, 3m) holds fewer than two
    primes (for m >= 2 that only happens at m in {2, 3, 4}).
    """
    ascending = primes_between(2 * m, 3 * m)
    rho = len(ascending)
    if rho < 2:
        raise RhoTooSmall(m, rho)
    primes = tuple(reversed(ascending))
    k = (6 * m - 1) * rho
    h = rho * k
    mu = tuple(k // p for p in primes)
    beta = tuple(k - p * q for p, q in zip(primes, mu))

    # Enforce the stated bounds up front rather than trusting them downstream.
    if rho > math.ceil((m - 1) / 2):
        raise AssertionError(f"rho({m})={rho} exceeds ceil((m-1)/2)")
    for i, (p, q, b) in enumerate(zip(primes, mu, beta)):
        if not 2 * rho <= q <= 3 * rho:
            raise AssertionError(f"mu[{i}]={q} outside [2*rho, 3*rho] at m={m}")
        if not 0 <= b < p:
            raise AssertionError(f"beta[{i}]={b} outside [0, p_{i}) at m={m}")
        if p * q + b != k:
            raise AssertionError(f"division identity broken at i={i}, m={m}")
    return WindowParams(
        m=m,
        primes=primes,
        alphas=tuple(3 * m - p for p in primes),
        k=k,
        h=h,
        mu=mu,
        beta_m=beta,
    )


def cycle_lengths(params: WindowParams, d: int) -> tuple[int, int, int]:
    """(L0(d), L1(d), L2) for bifurcation step d.

    L1(d) = rho * lcm(p_0..p_d) grows along the chain, L0(d) =
    rho * lcm(p_{d+1}..p_{rho-1}) shrinks (L0(rho-1) = 1 by convention), and
    L2 = rho * lcm of all the primes is the full unperturbed cycle length.
    """
    params.check_lane(d, "d")
    rho = params.rho
    l1 = rho * math.lcm(*params.primes[: d + 1])
    l0 = rho * math.lcm(*params.primes[d + 1 :]) if d <= rho - 2 else 1
    l2 = rho * math.lcm(*params.primes)
    return (l0, l1, l2)
