"""Construction of every recurrence system in the bifurcation family.

A system is one threshold unit with memory:

    x(n) = 1[ sum_{j=1..memory} a_j * x(n-j) - theta ]      for n >= memory,

where 1[u] is 0 for u < 0 and 1 for u >= 0.  The family built here, all
parameterized by the scale m through WindowParams:

  x_i    single unit of memory k, integer weights a_1..a_k with threshold
         2*rho; started from 0^{beta_i} (1 0^{p_i-1})^{mu_i} it is purely
         periodic with period p_i, and x_i(t) = 1 exactly when
         t = beta_i (mod p_i).
  v_i    the same unit started from x_i's trace shifted by one step with the
         final window bit forced to 0; it collapses to the all-zero fixed
         point after k - p_i steps.
  y      the rho-way shuffle of x_0..x_{rho-1}: memory h = rho*k, weight b_f
         nonzero only at f = rho*j where it copies a_j; purely periodic with
         period L2.
  w(d)   the shuffle with lanes 0..d replaced by v-traces and lanes i > d
         time-shifted by gamma_i(d); it converges onto a cycle of length
         L0(d) after rho*(k - p_d - 1) + d + 1 steps.
  z(d)   y with every weight on the index set A(d) depressed by beta(d) and
         the threshold lowered by xi(d); it sheds lanes 0..d and lands on
         w(d)'s cycle, so its period divides y's and successive steps
         d -> d+1 form a divisor chain ending at the all-zero fixed point.

Weights and thresholds are exact rationals: plain ints everywhere except the
z-systems, whose perturbations live in (1/(8*Tot(d)))Z.  Nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

from .errors import IndexOutOfRange, MixedShapes, PlanInvariantViolated, ShapeMismatch
from .numtheory import WindowParams, cycle_lengths

Rational = Union[int, Fraction]
Bits = tuple[int, ...]

# The perturbation depth: the largest admissible value, since every
# sub-threshold affine sum of the single units sits at least one whole unit
# below the threshold (the s1_range claim re-checks that on every run).
LAMBDA = Fraction(-1)

__all__ = [
    "LAMBDA",
    "RecurrenceSystem",
    "IndexSets",
    "PerturbationPlan",
    "single_weights",
    "initial_config_x",
    "initial_config_v",
    "x_closed_form",
    "y_closed_form",
    "single_system",
    "destabilized_system",
    "pos_set",
    "index_sets",
    "q_set",
    "build_y",
    "gamma",
    "build_w",
    "compute_B0",
    "perturbation_plan",
    "build_z",
    "chain_perturbation",
    "shuffle_compose",
]


@dataclass(frozen=True)
class RecurrenceSystem:
    """One threshold unit plus its initial window.

    weights[j-1] multiplies x(n-j); init lists x(0)..x(memory-1).
    """

    memory: int
    weights: tuple[Rational, ...]
    threshold: Rational
    init: Bits
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.weights) != self.memory:
            raise ShapeMismatch(
                f"{self.label or 'system'}: {len(self.weights)} weights for memory {self.memory}"
            )
        if len(self.init) != self.memory:
            raise ShapeMismatch(
                f"{self.label or 'system'}: init length {len(self.init)} for memory {self.memory}"
            )
        if any(b not in (0, 1) for b in self.init):
            raise ShapeMismatch(f"{self.label or 'system'}: init must be 0/1 bits")


@dataclass(frozen=True)
class IndexSets:
    """Weight-support bookkeeping for one scale m.

    pos[i] = {j * p_i : 1 <= j <= 2*rho} is where lane i's window holds its
    ones once periodic; F is their disjoint union; G = [1, k] \\ F.
    """

    pos: tuple[frozenset[int], ...]
    F: frozenset[int]
    G: frozenset[int]


def pos_set(params: WindowParams, i: int) -> frozenset[int]:
    """Window positions {j*p_i : 1 <= j <= 2*rho} carrying nonzero weight for lane i."""
    params.check_lane(i)
    p = params.primes[i]
    return frozenset(j * p for j in range(1, 2 * params.rho + 1))


def index_sets(params: WindowParams) -> IndexSets:
    pos = tuple(pos_set(params, i) for i in range(params.rho))
    union: set[int] = set()
    for s in pos:
        union |= s
    F = frozenset(union)
    G = frozenset(range(1, params.k + 1)) - F
    return IndexSets(pos=pos, F=F, G=G)


def q_set(params: WindowParams, i: int, d: int) -> frozenset[int]:
    """Sampled positions Q(alpha_i, d) = {d + j*p_i} inside the memory window.

    The range of j depends on which side of beta_i the offset d falls:
    j runs to mu_i for 0 < d <= beta_i and to mu_i - 1 for beta_i < d < p_i.
    """
    params.check_lane(i)
    p = params.primes[i]
    if not 0 < d < p:
        raise IndexOutOfRange(f"d={d} not in (0, {p}) for lane i={i}")
    top = params.mu[i] if d <= params.beta_m[i] else params.mu[i] - 1
    return frozenset(d + j * p for j in range(top + 1))


def single_weights(params: WindowParams) -> tuple[tuple[int, ...], int]:
    """Integer weight profile (a_1..a_k) and threshold 2*rho for the single units.

    Weights are zero off F.  On Pos(alpha_i) they split into bands by the
    multiple l in j = l * p_i:

      rho even:  +2 for l <= 3*rho/2, -2 above.
      rho odd:   +2 for l <= (3*rho - 1)/2, -2 for (3*rho + 1)/2 <= l
                 <= 2*rho - 2, -1 at l in {2*rho - 1, 2*rho}.

    Either way each lane's weights over its own Pos sum to 2*rho.
    """
    rho = params.rho
    a = [0] * (params.k + 1)
    for p in params.primes:
        for l in range(1, 2 * rho + 1):
            j = l * p
            if rho % 2 == 0:
                a[j] = 2 if 2 * l <= 3 * rho else -2
            else:
                if 2 * l <= 3 * rho - 1:
                    a[j] = 2
                elif 3 * rho + 1 <= 2 * l <= 2 * (2 * rho - 2):
                    a[j] = -2
                else:
                    a[j] = -1
    return tuple(a[1:]), 2 * rho


def _x_window(params: WindowParams, i: int, start: int) -> Bits:
    """x_i(start + j) for j < k: ones where start + j = beta_i (mod p_i)."""
    p = params.primes[i]
    bits = [0] * params.k
    for j in range((params.beta_m[i] - start) % p, params.k, p):
        bits[j] = 1
    return tuple(bits)


def initial_config_x(params: WindowParams, i: int) -> Bits:
    """phi_i = 0^{beta_i} (1 0^{p_i - 1})^{mu_i}: ones at beta_i + l*p_i, l < mu_i."""
    params.check_lane(i)
    return _x_window(params, i, 0)


def initial_config_v(params: WindowParams, i: int) -> Bits:
    """x_i's trace advanced one step, with the final bit complemented to 0.

    v(j) = x_i(j + 1) for j < k - 1 and v(k - 1) = 0 (x_i(k) would be 1).
    The shape is 0^{beta_i - 1} (1 0^{p_i - 1})^{mu_i} 0.
    """
    params.check_lane(i)
    return _x_window(params, i, 1)[:-1] + (0,)


def x_closed_form(params: WindowParams, i: int, t: int) -> int:
    """x_i(t) for the phi_i start: 1 exactly when t = beta_i (mod p_i)."""
    params.check_lane(i)
    return 1 if t % params.primes[i] == params.beta_m[i] else 0


def y_closed_form(params: WindowParams, t: int) -> int:
    """De-shuffled value of y: y(rho*q + i) = x_i(1 + q) for every t >= 0."""
    q, i = divmod(t, params.rho)
    return x_closed_form(params, i, 1 + q)


def single_system(params: WindowParams, i: int) -> RecurrenceSystem:
    """The periodic single unit x_i."""
    weights, theta = single_weights(params)
    return RecurrenceSystem(
        memory=params.k,
        weights=weights,
        threshold=theta,
        init=initial_config_x(params, i),
        label=f"x[m={params.m},i={i}]",
    )


def destabilized_system(params: WindowParams, i: int) -> RecurrenceSystem:
    """The same unit started from the collapsing configuration v_i."""
    weights, theta = single_weights(params)
    return RecurrenceSystem(
        memory=params.k,
        weights=weights,
        threshold=theta,
        init=initial_config_v(params, i),
        label=f"v[m={params.m},i={i}]",
    )


def _shuffle(params: WindowParams, windows: Sequence[Bits], label: str) -> RecurrenceSystem:
    """shuffle_compose of the single units started from windows, relabelled."""
    weights, theta = single_weights(params)
    lanes = [RecurrenceSystem(params.k, weights, theta, init) for init in windows]
    return replace(shuffle_compose(lanes), label=label)


def build_y(params: WindowParams) -> RecurrenceSystem:
    """The rho-way shuffle of the single units, each started one step in.

    Memory h = rho*k; weight b_f = a_j when f = rho*j and 0 otherwise;
    threshold unchanged; init y(rho*j + i) = x_i(1 + j).
    """
    windows = [_x_window(params, i, 1) for i in range(params.rho)]
    return _shuffle(params, windows, f"y[m={params.m}]")


def gamma(params: WindowParams, d: int, i: int) -> int:
    """Lane-i phase shift (L1(d) / rho) mod p_i for the surviving lanes i > d."""
    params.check_lane(d, "d")
    if not d + 1 <= i <= params.rho - 1:
        raise IndexOutOfRange(f"i={i} not in [{d + 1}, {params.rho - 1}] for d={d}")
    l1 = cycle_lengths(params, d)[1]
    return (l1 // params.rho) % params.primes[i]


def build_w(params: WindowParams, d: int) -> RecurrenceSystem:
    """The shuffle with lanes 0..d collapsing and lanes i > d phase-shifted.

    Same weights and threshold as y.  Init lanes:

      i <= d:  w(rho*j + i) = v_i(j)
      i >  d:  w(rho*j + i) = x_i(1 + gamma_i(d) + j)
    """
    params.check_lane(d, "d")
    windows = [initial_config_v(params, i) for i in range(d + 1)]
    windows += [_x_window(params, i, 1 + gamma(params, d, i)) for i in range(d + 1, params.rho)]
    return _shuffle(params, windows, f"w[m={params.m},d={d}]")


def compute_B0(params: WindowParams, d: int, method: str = "definitional") -> frozenset[int]:
    """The base perturbation index set B_0(d), by either of two routes.

    definitional: scan f in [1, h - d] and keep the indices where the
    closed-form y puts a 1 at time h + L1(d) - rho - f.

    algebraic: union over lanes of the residue class
    f = L1(d) - i (mod rho * p_i) intersected with [1, h].  Reading the class
    as a full congruence class is what matches the definitional scan; one
    representative per lane gives a far smaller set.  The b0_methods_agree
    claim compares both routes.
    """
    params.check_lane(d, "d")
    l1 = cycle_lengths(params, d)[1]
    h, rho = params.h, params.rho
    if method == "definitional":
        base = h + l1 - rho
        return frozenset(f for f in range(1, h - d + 1) if y_closed_form(params, base - f) == 1)
    if method == "algebraic":
        out: set[int] = set()
        for i, p in enumerate(params.primes):
            mod = rho * p
            r = (l1 - i) % mod
            start = r if r >= 1 else mod
            out.update(range(start, h + 1, mod))
        return frozenset(out)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PerturbationPlan:
    """Everything needed to depress y into z(., d).

    B0 is the base index set; A is the union of its unit shifts
    B_0, B_0 + 1, ..., B_0 + d; tot = card B_0 (each shifted copy has the
    same cardinality); beta_d = LAMBDA / tot is the per-index weight
    depression and xi_d = LAMBDA - beta_d / 8 the threshold depression, so
    theta2 = 2*rho + xi_d.
    """

    d: int
    B0: frozenset[int]
    A: frozenset[int]
    tot: int
    lam: Fraction
    beta_d: Fraction
    xi_d: Fraction
    theta2: Fraction


def perturbation_plan(params: WindowParams, d: int) -> PerturbationPlan:
    params.check_lane(d, "d")
    b0 = compute_B0(params, d, "definitional")
    if not b0:
        raise PlanInvariantViolated(f"empty B0 at m={params.m}, d={d}")
    if max(b0) + d > params.h:
        raise PlanInvariantViolated(
            f"max(B0)+d = {max(b0) + d} exceeds h={params.h} at m={params.m}, d={d}"
        )
    a = frozenset(f + s for s in range(d + 1) for f in b0)
    tot = len(b0)
    beta_d = LAMBDA / tot
    xi_d = LAMBDA - beta_d / 8
    return PerturbationPlan(
        d=d,
        B0=b0,
        A=a,
        tot=tot,
        lam=LAMBDA,
        beta_d=beta_d,
        xi_d=xi_d,
        theta2=params.theta_single + xi_d,
    )


def build_z(params: WindowParams, d: int) -> RecurrenceSystem:
    """y with weights depressed by beta(d) on A(d) and threshold 2*rho + xi(d)."""
    y = build_y(params)
    plan = perturbation_plan(params, d)
    weights: list[Rational] = list(y.weights)
    for f in plan.A:
        weights[f - 1] = weights[f - 1] + plan.beta_d
    return RecurrenceSystem(
        memory=params.h,
        weights=tuple(weights),
        threshold=plan.theta2,
        init=y.init,
        label=f"z[m={params.m},d={d}]",
    )


def chain_perturbation(
    z_prev: RecurrenceSystem,
    plan_prev: PerturbationPlan,
    plan_next: PerturbationPlan,
) -> RecurrenceSystem:
    """Rebuild z(., d+1) from z(., d) by the four-case weight update.

    For each index f the update depends only on membership in the two A
    sets: unchanged off both, beta swap on both, beta removed when leaving,
    beta added when entering.  The threshold trades xi(d) for xi(d+1).
    The result must equal build_z(params, d+1) exactly; the
    chain_equals_direct claim enforces that.
    """
    if plan_next.d != plan_prev.d + 1:
        raise IndexOutOfRange(
            f"plans must be consecutive, got d={plan_prev.d} then d={plan_next.d}"
        )
    weights: list[Rational] = list(z_prev.weights)
    for f in plan_prev.A | plan_next.A:
        in_prev = f in plan_prev.A
        in_next = f in plan_next.A
        if in_prev and in_next:
            weights[f - 1] = weights[f - 1] - plan_prev.beta_d + plan_next.beta_d
        elif in_prev:
            weights[f - 1] = weights[f - 1] - plan_prev.beta_d
        else:
            weights[f - 1] = weights[f - 1] + plan_next.beta_d
    threshold = z_prev.threshold - plan_prev.xi_d + plan_next.xi_d
    label = z_prev.label.replace(f"d={plan_prev.d}", f"d={plan_next.d}")
    return RecurrenceSystem(
        memory=z_prev.memory,
        weights=tuple(weights),
        threshold=threshold,
        init=z_prev.init,
        label=label or f"z[d={plan_next.d}]",
    )


def shuffle_compose(systems: Sequence[RecurrenceSystem]) -> RecurrenceSystem:
    """Interleave r systems sharing one weight profile into one unit.

    The composed unit has memory k*r, weight a_j copied to position r*j and
    zero elsewhere, the common threshold, and init c(r*j + i) =
    systems[i].init[j].  Lane i of the composed trace then replays lane i's
    own trace, so the composed period is determined by the lane periods
    (lcm times r when some lane period exceeds 1, a divisor of r when every
    lane is a fixed point).
    """
    if not systems:
        raise MixedShapes("cannot compose zero systems")
    first = systems[0]
    for s in systems[1:]:
        if s.memory != first.memory:
            raise MixedShapes(f"memory {s.memory} != {first.memory}")
        if s.threshold != first.threshold:
            raise MixedShapes(f"threshold {s.threshold} != {first.threshold}")
        if s.weights != first.weights:
            raise MixedShapes("lane weight profiles differ")
    r = len(systems)
    weights: list[Rational] = [0] * (first.memory * r)
    weights[r - 1 :: r] = first.weights
    return RecurrenceSystem(
        memory=first.memory * r,
        weights=tuple(weights),
        threshold=first.threshold,
        init=tuple(bit for window in zip(*(s.init for s in systems)) for bit in window),
        label=f"shuffle[{','.join(s.label or '?' for s in systems)}]",
    )
