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
         A(d) is the union of the shifts B_0(d) + s for s <= d, and
         compute_B0 builds B_0(d) from its residue classes mod rho * p_i.

A RecurrenceSystem stores only its nonzero weights, as taps: (j, a_j) pairs
sorted by the offset j, so a system of memory h = rho*k costs its support,
not h.  Its init is bytes of 0/1, x(0) first, the form of every trace and
window in engine and cycles.  Weights and threshold are exact rationals in
one lattice, held as int numerators over the system's one denominator, in
lowest terms: 1 for x, v, y and w(d), and 8*Tot(d) for z(d), whose
perturbations live in (1/(8*Tot(d)))Z.  So z(d) and the chain step are
built by integer adds, and nothing here ever touches floating point.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter, lt
from typing import NamedTuple, Sequence

from .errors import IndexOutOfRange, MixedShapes, PlanInvariantViolated, ShapeMismatch
from .numtheory import WindowParams, cycle_lengths

Taps = tuple[tuple[int, int], ...]

# The perturbation depth: the largest admissible value, since every
# sub-threshold affine sum of the single units sits at least one whole unit
# below the threshold (the s1_range claim re-checks that on every run).
LAMBDA = -1

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


class _SystemFields(NamedTuple):
    memory: int
    taps: Taps
    threshold: int
    init: bytes
    label: str = ""
    denominator: int = 1


class RecurrenceSystem(_SystemFields):
    """One threshold unit plus its initial window.

    taps lists (j, a_j) for the nonzero weights, by rising offset j in
    1..memory; a_j / denominator multiplies x(n-j), every other weight is
    0, and the unit fires when the sum reaches threshold / denominator.  All
    are ints in lowest terms, so == and hash compare values.  init is
    x(0)..x(memory-1), bytes of 0/1.  Every construction checks the shape,
    _replace too, as it builds through _make.
    """

    __slots__ = ()

    def __new__(
        cls, memory: int, taps: Taps, threshold: int, init: bytes, label: str = "", denominator: int = 1
    ):
        name = label or "system"
        offsets, weights = (0, *map(itemgetter(0), taps), memory + 1), tuple(map(itemgetter(1), taps))
        if not all(map(lt, offsets, offsets[1:])):
            raise ShapeMismatch(f"{name}: tap offsets must rise within 1..{memory}")
        if {*map(type, weights), type(threshold)} != {int}:
            raise ShapeMismatch(f"{name}: weights and threshold must be ints over the denominator")
        if 0 in weights:
            raise ShapeMismatch(f"{name}: a tap has weight 0")
        if type(denominator) is not int or denominator < 1:
            raise ShapeMismatch(f"{name}: denominator must be a positive int")
        if not isinstance(init, bytes) or len(init) != memory:
            raise ShapeMismatch(f"{name}: init must be {memory} bytes")
        if init.translate(None, b"\x00\x01"):
            raise ShapeMismatch(f"{name}: init must be 0/1 bits")
        g = gcd(denominator, threshold, *weights)
        if g > 1:  # each distinct weight divided once, so equal weights share one int
            reduced = {w: w // g for w in set(weights)}
            taps = tuple(zip(offsets[1:-1], map(reduced.__getitem__, weights)))
            threshold, denominator = threshold // g, denominator // g
        return super().__new__(cls, memory, taps, threshold, init, label, denominator)

    @classmethod
    def _make(cls, iterable) -> RecurrenceSystem:
        return cls(*iterable)


def _ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator in lowest terms, the sign on the numerator and
    no denominator when it divides: the one formatter of an int over a
    denominator in every report and system description."""
    g = gcd(numerator, denominator)
    return f"{numerator // g}" if g == denominator else f"{numerator // g}/{denominator // g}"


class IndexSets(NamedTuple):
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


def single_weights(params: WindowParams) -> tuple[Taps, int]:
    """Integer weight profile, as taps (j, a_j), and threshold 2*rho for the single units.

    Weights are zero off F.  On Pos(alpha_i) they split into bands by the
    multiple l in j = l * p_i:

      rho even:  +2 for l <= 3*rho/2, -2 above.
      rho odd:   +2 for l <= (3*rho - 1)/2, -2 for (3*rho + 1)/2 <= l
                 <= 2*rho - 2, -1 at l in {2*rho - 1, 2*rho}.

    Either way each lane's weights over its own Pos sum to 2*rho.
    """
    rho = params.rho
    a: dict[int, int] = {}
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
    return tuple(sorted(a.items())), 2 * rho


def _x_window(params: WindowParams, i: int, start: int) -> bytes:
    """x_i(start + j) for j < k: ones where start + j = beta_i (mod p_i)."""
    p = params.primes[i]
    bits = bytearray(params.k)
    for j in range((params.beta_m[i] - start) % p, params.k, p):
        bits[j] = 1
    return bytes(bits)


def initial_config_x(params: WindowParams, i: int) -> bytes:
    """phi_i = 0^{beta_i} (1 0^{p_i - 1})^{mu_i}: ones at beta_i + l*p_i, l < mu_i."""
    params.check_lane(i)
    return _x_window(params, i, 0)


def initial_config_v(params: WindowParams, i: int) -> bytes:
    """x_i's trace advanced one step, with the final bit complemented to 0.

    v(j) = x_i(j + 1) for j < k - 1 and v(k - 1) = 0 (x_i(k) would be 1).
    The shape is 0^{beta_i - 1} (1 0^{p_i - 1})^{mu_i} 0.
    """
    params.check_lane(i)
    return _x_window(params, i, 1)[:-1] + b"\x00"


def x_closed_form(params: WindowParams, i: int, t: int) -> int:
    """x_i(t) for the phi_i start: 1 exactly when t = beta_i (mod p_i)."""
    params.check_lane(i)
    return 1 if t % params.primes[i] == params.beta_m[i] else 0


def y_closed_form(params: WindowParams, t: int) -> int:
    """De-shuffled value of y: y(rho*q + i) = x_i(1 + q) for every t >= 0."""
    q, i = divmod(t, params.rho)
    return x_closed_form(params, i, 1 + q)


def _single(params: WindowParams, init: bytes, label: str) -> RecurrenceSystem:
    """The single unit of memory k, weights single_weights(params), started from init."""
    return RecurrenceSystem(params.k, *single_weights(params), init, label)


def single_system(params: WindowParams, i: int) -> RecurrenceSystem:
    """The periodic single unit x_i."""
    return _single(params, initial_config_x(params, i), f"x[m={params.m},i={i}]")


def destabilized_system(params: WindowParams, i: int) -> RecurrenceSystem:
    """The same unit started from the collapsing configuration v_i."""
    return _single(params, initial_config_v(params, i), f"v[m={params.m},i={i}]")


def _shuffle(params: WindowParams, windows: Sequence[bytes], label: str) -> RecurrenceSystem:
    """shuffle_compose of the single units started from windows, relabelled."""
    taps, theta = single_weights(params)
    lanes = [RecurrenceSystem(params.k, taps, theta, init) for init in windows]
    return shuffle_compose(lanes)._replace(label=label)


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


def compute_B0(params: WindowParams, d: int) -> frozenset[int]:
    """The base perturbation index set B_0(d): the union over lanes of the
    residue class f = L1(d) - i (mod rho * p_i), intersected with [1, h].

    These are the f at which the closed-form y puts a 1 at time
    h + L1(d) - rho - f.  Reading each class as a full congruence class is
    what matches that definition; one representative per lane gives a far
    smaller set.  The b0_methods_agree claim scans the definition and
    compares.
    """
    params.check_lane(d, "d")
    l1 = cycle_lengths(params, d)[1]
    out: set[int] = set()
    for i, p in enumerate(params.primes):
        mod = params.rho * p
        out.update(range((l1 - i - 1) % mod + 1, params.h + 1, mod))
    return frozenset(out)


class PerturbationPlan(NamedTuple):
    """Everything needed to depress y into z(., d).

    B0 is the base index set; A is the union of its unit shifts
    B_0, B_0 + 1, ..., B_0 + d; tot = card B_0 (each shifted copy has the
    same cardinality).  beta_d, xi_d and theta2 are int numerators over the
    plan's one denominator 8 * tot: beta(d) = LAMBDA / tot is the per-index
    weight depression, 8 * LAMBDA over it, and xi(d) = LAMBDA - beta(d) / 8
    the threshold depression, LAMBDA * (8 * tot - 1) over it, so theta2 is
    2*rho + xi(d).
    """

    d: int
    B0: frozenset[int]
    A: frozenset[int]
    tot: int
    beta_d: int
    xi_d: int
    theta2: int

    @property
    def denominator(self) -> int:
        return 8 * self.tot


def perturbation_plan(params: WindowParams, d: int) -> PerturbationPlan:
    params.check_lane(d, "d")
    b0 = compute_B0(params, d)
    if not b0:
        raise PlanInvariantViolated(f"empty B0 at m={params.m}, d={d}")
    if max(b0) + d > params.h:
        raise PlanInvariantViolated(
            f"max(B0)+d = {max(b0) + d} exceeds h={params.h} at m={params.m}, d={d}"
        )
    a = frozenset(f + s for s in range(d + 1) for f in b0)
    tot = len(b0)
    xi_d = LAMBDA * (8 * tot - 1)
    return PerturbationPlan(d, b0, a, tot, 8 * LAMBDA, xi_d, params.theta_single * 8 * tot + xi_d)


def _perturbed(s: RecurrenceSystem, plan: PerturbationPlan, sign: int, label: str) -> RecurrenceSystem:
    """s with sign * beta(d) added on A(d), dropping every weight that
    becomes 0, and sign * xi(d) added to its threshold, over the lcm of its
    denominator and the plan's 8*Tot(d); the constructor reduces the result.
    Each distinct weight is shifted once, so the taps it sets equal share one
    int, and A(d) is visited in order, so the taps it adds come in order and
    the closing sort has two runs to merge."""
    D = lcm(s.denominator, plan.denominator)
    scale, lift = D // s.denominator, sign * (D // plan.denominator)
    weights = {j: w * scale for j, w in s.taps}
    delta = lift * plan.beta_d
    shifted = {w: w + delta for w in {0, *weights.values()}}
    for f in sorted(plan.A):
        w = shifted[weights.get(f, 0)]
        if w:
            weights[f] = w
        else:
            weights.pop(f, None)
    threshold = s.threshold * scale + lift * plan.xi_d
    return RecurrenceSystem(s.memory, tuple(sorted(weights.items())), threshold, s.init, label, D)


def build_z(
    params: WindowParams,
    d: int,
    y: RecurrenceSystem | None = None,
    plan: PerturbationPlan | None = None,
) -> RecurrenceSystem:
    """y, build_y(params) unless given, with weights depressed by beta(d) on
    A(d) and threshold 2*rho + xi(d), as plan, perturbation_plan(params, d)
    unless given, sets them.  Over D = 8*Tot(d) that is y's weights times D
    with D * beta(d) = -8 added on A(d), and threshold (2*rho - 1) * D + 1."""
    y = build_y(params) if y is None else y
    plan = perturbation_plan(params, d) if plan is None else plan
    if plan.d != d:
        raise IndexOutOfRange(f"plan for d={plan.d} given to build z(d={d})")
    return _perturbed(y, plan, 1, f"z[m={params.m},d={d}]")


def chain_perturbation(
    z_prev: RecurrenceSystem,
    plan_prev: PerturbationPlan,
    plan_next: PerturbationPlan,
) -> RecurrenceSystem:
    """Rebuild z(., d+1) from z(., d) by the four-case weight update.

    For each index f the update depends only on membership in the two A
    sets: unchanged off both, beta swap on both, beta removed when leaving,
    beta added when entering.  The threshold trades xi(d) for xi(d+1).  It
    takes beta(d) and xi(d) off, which leaves y's integer weights over 1,
    then puts beta(d+1) and xi(d+1) on; Tot(d) changes with d, so each step
    is made over the lcm of the denominators.  The result must equal
    build_z(params, d+1) exactly; the chain_equals_direct claim enforces that.
    """
    if plan_next.d != plan_prev.d + 1:
        raise IndexOutOfRange(
            f"plans must be consecutive, got d={plan_prev.d} then d={plan_next.d}"
        )
    label = z_prev.label.replace(f"d={plan_prev.d}", f"d={plan_next.d}") or f"z[d={plan_next.d}]"
    return _perturbed(_perturbed(z_prev, plan_prev, -1, label), plan_next, 1, label)


def shuffle_compose(systems: Sequence[RecurrenceSystem]) -> RecurrenceSystem:
    """Interleave r systems sharing one weight profile into one unit.

    The composed unit has memory k*r, taps (r*j, a_j), the common
    threshold, and init c(r*j + i) = systems[i].init[j].  Lane i of the
    composed trace then replays lane i's own trace, so the composed period
    is determined by the lane periods (lcm times r when some lane period exceeds 1, a divisor of r when every
    lane is a fixed point).
    """
    if not systems:
        raise MixedShapes("cannot compose zero systems")
    first = systems[0]
    for s in systems[1:]:
        if s.memory != first.memory:
            raise MixedShapes(f"memory {s.memory} != {first.memory}")
        if (s.threshold, s.denominator) != (first.threshold, first.denominator):
            raise MixedShapes(f"threshold {s.threshold}/{s.denominator} != {first.threshold}/{first.denominator}")
        if s.taps != first.taps:
            raise MixedShapes("lane weight profiles differ")
    r = len(systems)
    init = bytearray(first.memory * r)
    for i, s in enumerate(systems):
        init[i::r] = s.init
    return RecurrenceSystem(
        memory=first.memory * r,
        taps=tuple((r * j, w) for j, w in first.taps),
        threshold=first.threshold,
        init=bytes(init),
        label=f"shuffle[{','.join(s.label or '?' for s in systems)}]",
        denominator=first.denominator,
    )
