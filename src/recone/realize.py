"""End-to-end realization: target vector -> state pair -> verification.

A single ray, lam times the indicator of an up-set U, is realized by any
perfect secret-sharing scheme for U: take rho = table(0) and sigma = the
weight-p mix of the two tables with p = 2**(-lam).  Authorized subsets
then sit at exactly -log2(p) bits (the two tables never collide, so the
cross term vanishes; note this is -log2(p), not the binary entropy of p,
which the mixture form might suggest) and unauthorized subsets at exactly
0.  General members decompose into nested rays, each kept as a Factor
(its scheme and its weight) of a ProductPair: relative entropies add
over tensor products, so the achieved vector is the sum of the rays'
vectors.  Every scheme here is linear, so a ray's vector follows from
the rank of each group's forms (recone.schemes) and synthesis, like
verify, builds no share table; the tables and their tensor product are
built only on request, by dense_pair, the one fold of a product.

The scheme's table size sets the cost of the dense path, so each ray is
planned before anything is built.  Each candidate is a formula shape
laid out by recone.schemes.formula_layout: the XOR scheme, the flat DNF
of U's minimal sets, and, when U is the k-of-T threshold up-set (its
minimal sets are all C(|T|, k) k-subsets of their union T), one k-of-|T|
Shamir gate over GF(q), q the smallest prime above |T|.  The DNF's
ANDs over GF(2) take |S| - 1 random bits per minimal set S, so its size
is 2**sum(|S| - 1); the gate's, q**R, is read from its layout, and the
gate is built as Scheme(*layout) from that one layout.  The smaller
table is chosen, ties going to XOR.  The chosen scheme is built once per
up-set and kept with its plan.  dense_pair, which a ProductPair's rho
and sigma read, refuses before building any table when the product of
the factors' sigma supports exceeds MAX_SIGMA_ATOMS.

The weight is exact from the start: p is the double nearest 2**(-lam),
taken as an exact Fraction, which is 2**(-lam) itself for integer lam.
For lam up to about 8.0e-17 that double is 1.0, so p is the largest
double below 1, and the achieved entry, 3.2e-16 bits, is within TOL.
That double carries 53 significant bits down to 2**-1022, so achieved
values match targets well within the cone's TOL for lam from 1e-9 up to
1022 bits.  Past 1022 bits the double is subnormal and coarser, and
synthesis reports any miss; MAX_RAY_BITS bounds lam.  Synthesis and
verify judge a pair by one comparison, taken over level sets, with
tolerance TOL for synthesis; per-subset rows are derived only to print.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter, or_

from .cone import (
    TOL,
    RayDecomposition,
    REVector,
    Violation,
    check_membership,
    layer_cake_decompose,
)
from .lattice import UpSet, mask_label, subsets_in_order
from .record import Record
from .schemes import Scheme, dnf_scheme, formula_layout, scheme_state_pair, smallest_prime_above
from .states import Factor, JointDistribution, ProductPair, StatePair, re_vector, tensor

#: largest sigma support a product is multiplied out to.  At about 620
#: bytes of peak memory per sigma atom (780 with the pair JSON), some 0.65
#: to 0.8 GB
MAX_SIGMA_ATOMS = 1 << 20

#: largest ray coefficient in bits: 2**-1074 is the smallest positive double
MAX_RAY_BITS = 1074


def _dyadic_weight(lam) -> Fraction:
    if not 0 < lam <= MAX_RAY_BITS:
        error = RealizationError if lam > MAX_RAY_BITS else ValueError
        raise error(f"ray coefficient must be a number of bits in (0, {MAX_RAY_BITS}], got {lam}")
    p = 2.0 ** -float(lam)
    return Fraction(p if p < 1 else math.nextafter(1.0, 0.0))  # p is 1.0 below about 8.0e-17 bits


class RealizationError(ValueError):
    """Refused: a product's predicted sigma support exceeds
    MAX_SIGMA_ATOMS, a ray's coefficient exceeds the bits a weight can
    carry, or a pair missed its target beyond the allowed tolerance."""


RayPlan = namedtuple("RayPlan", "kind table_atoms candidates")
RayPlan.__doc__ = """The scheme chosen for one ray, "xor" or "shamir", its table atoms,
and the table sizes it beat: (kind, table atoms) per candidate."""


def _candidates(u: UpSet):
    """(kind, exact table atoms, builder) for each scheme that realizes u,
    XOR first.  The XOR builder looks dnf_scheme up when called; the
    Shamir gate is laid out once, sized by its R and built from that
    layout."""
    minimal = u.minimal_sets()
    yield "xor", 2 ** sum(m.bit_count() - 1 for m in minimal), lambda: dnf_scheme(u)
    k, group = minimal[0].bit_count(), reduce(or_, minimal)
    if all(m.bit_count() == k for m in minimal) and len(minimal) == math.comb(group.bit_count(), k):
        q = smallest_prime_above(group.bit_count())
        layout = formula_layout(u.n, (k, [i for i in range(u.n) if group >> i & 1]), q)
        yield "shamir", q ** layout[2], lambda: Scheme(*layout)


@lru_cache(maxsize=256)
def _plan(n: int, table: int):
    """The chosen plan and its scheme for the up-set with this truth
    table, built once: both depend on the up-set alone, the ray's
    coefficient entering only through the factor's weight, so every ray
    on it shares this immutable scheme and its rank table.  The key is
    the up-set's (n, table), two ints that hash and compare in C; a miss
    rebuilds the UpSet from them."""
    candidates = list(_candidates(UpSet._from_table(n, table)))
    kind, atoms, build = min(candidates, key=itemgetter(1))  # first minimum: ties go to XOR
    return RayPlan(kind, atoms, tuple(c[:2] for c in candidates)), build()


def plan_ray(u: UpSet) -> RayPlan:
    """The table size of each candidate scheme for u, read from its
    layout; only the chosen scheme is built, and no table."""
    return _plan(u.n, u.table)[0]


def realize_ray(u: UpSet, lam) -> Factor:
    """Factor, u's planned scheme with the exact weight, whose
    relative-entropy vector is lam times the indicator of u, up to the
    rounding of the mixing weight 2**(-lam) to a double.  The scheme is
    the one kept per up-set, the same object for every lam; no table is
    built, whatever its size.  A lam above MAX_RAY_BITS raises
    RealizationError naming the ray's up-set by its minimal sets."""
    try:
        weight = _dyadic_weight(lam)
    except RealizationError as error:
        generators = ", ".join(map(mask_label, u.minimal_sets()))
        raise RealizationError(f"{error}, on the up-set generated by {generators}") from error
    return Factor(_plan(u.n, u.table)[1], weight)


class VerificationReport(Record):
    """The one verdict on a pair: target against achieved within tol,
    and the monotonicity recheck of achieved, with its violations.  The
    per-subset rows are derived from the two vectors on request."""

    __slots__ = _fields = ("target", "achieved", "tol", "max_abs_error", "monotone_ok",
                           "violations", "passed")

    def __init__(self, target: REVector, achieved: REVector, tol: float, max_abs_error: float,
                 monotone_ok: bool, violations: tuple[Violation, ...], passed: bool):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "achieved", achieved)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_abs_error", max_abs_error)
        object.__setattr__(self, "monotone_ok", monotone_ok)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "passed", passed)

    def deviations(self):
        """(mask, target, achieved, deviation) per subset, in canonical order."""
        t, a = self.target.values, self.achieved.values
        return zip(subsets_in_order(self.target.n), t, a, map(_deviation, t, a))

    def failing_subsets(self) -> tuple[int, ...]:
        return tuple(mask for mask, _, _, dev in self.deviations() if not dev <= self.tol)

    def worst_violation(self) -> Violation | None:
        """The recheck's (superset, subset) pair that drops the most."""
        return max(self.violations, key=lambda x: x.v_subset - x.v_superset, default=None)


def _deviation(t, a) -> float:
    """|a - t| in floats; matching +inf entries are exact."""
    return abs(float(a) - float(t)) if t != math.inf != a else 0.0 if t == a else math.inf


def _compare(v: REVector, achieved: REVector, tol: float) -> VerificationReport:
    """Judge achieved against v: the largest deviation, taken once per
    pair of intersecting level sets of the two, and the monotonicity
    recheck of achieved under the cone's tolerance policy."""
    max_err = 0.0
    for t, t_table in v.levels.items():
        for a, a_table in achieved.levels.items():
            if t_table & a_table and (err := _deviation(t, a)) > max_err:
                max_err = err
    recheck = check_membership(achieved)
    return VerificationReport(target=v, achieved=achieved, tol=tol, max_abs_error=max_err,
                              monotone_ok=recheck.member, violations=recheck.violations,
                              passed=bool(max_err <= tol and recheck.member))


def verify(v: REVector, pair: StatePair | ProductPair, tol: float = TOL) -> VerificationReport:
    """Recompute the pair's relative-entropy vector and compare to v: a
    ProductPair's from each factor's authorized table, found by rank when
    its scheme was built, or kept from a recent walk of the same layout,
    a StatePair's from its tables.

    Reports the worst deviation, taken over level sets as synthesize
    takes it, and whether the achieved vector itself still passes the
    monotonicity check; the per-subset rows are derived from the report
    on request.  Raises ValueError unless 0 <= tol < inf.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if v.n != pair.n:
        raise ValueError(f"vector has {v.n} parties but pair has {pair.n}")
    return _compare(v, re_vector(pair), tol)


class RealizationResult(Record):
    """What synthesize built: one plan and one factor of pair per term of
    the decomposition, and the achieved vector with its largest error."""

    __slots__ = _fields = ("target", "decomposition", "plans", "pair", "achieved",
                           "max_abs_error")

    def __init__(self, target: REVector, decomposition: RayDecomposition,
                 plans: tuple[RayPlan, ...], pair: ProductPair, achieved: REVector,
                 max_abs_error: float):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "plans", plans)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "achieved", achieved)
        object.__setattr__(self, "max_abs_error", max_abs_error)


def dense_pair(pair: ProductPair) -> StatePair:
    """The package's one fold of a product: pair's factors, each built
    from its share tables, tensored onto the one-atom pair.  Raises
    RealizationError, naming both sizes (the predicted one as a power of
    two, which no size overflows), before building any table when the
    product's sigma support, read from the layouts, exceeds
    MAX_SIGMA_ATOMS."""
    if (atoms := pair.sigma_atoms) > MAX_SIGMA_ATOMS:
        raise RealizationError(f"predicted sigma support of 2**{math.log2(atoms):.1f} atoms "
                               f"exceeds the budget of {MAX_SIGMA_ATOMS} atoms")
    point = JointDistribution._trusted(pair.n, (1,) * pair.n, (((0,) * pair.n, 1),), 1)
    return reduce(tensor, (scheme_state_pair(f.scheme, f.weight) for f in pair.factors),
                  StatePair(point, point))


def synthesize(v: REVector) -> RealizationResult:
    """Build and check a state pair realizing a finite cone member.

    Decomposes v over its level sets, then, in one pass over the terms,
    plans a scheme per nested ray (or reuses the one kept for its up-set)
    and realizes the ray as one factor of a ProductPair; the factors'
    vectors are summed, from rank, into the achieved vector, and no share
    table is built.  The achieved vector is judged as verify judges it,
    with tolerance TOL: compared with v once per pair of intersecting
    level sets and rechecked for membership.  Raises RealizationError,
    naming the worst subset, unless that verdict passes.
    """
    decomposition = layer_cake_decompose(v)  # also enforces membership
    plans, factors = [], []
    for coeff, upset in decomposition.terms:
        plans.append(plan_ray(upset))
        factors.append(realize_ray(upset, coeff))
    pair = ProductPair(v.n, tuple(factors))
    achieved = re_vector(pair)
    report = _compare(v, achieved, TOL)
    if not report.passed:
        raise RealizationError(f"synthesized pair fails verification: {describe_deviation(report)}")
    return RealizationResult(target=v, decomposition=decomposition, plans=tuple(plans), pair=pair,
                             achieved=achieved, max_abs_error=report.max_abs_error)


def describe_deviation(report: VerificationReport) -> str:
    """One-line summary naming the worst subset, or, when every subset is
    within tolerance but the recheck failed, the worst monotonicity pair."""
    if report.monotone_ok or report.failing_subsets():
        mask, _, _, worst = max(report.deviations(), key=itemgetter(3))
        return f"max |achieved - target| = {worst:.3e} at subset {mask_label(mask)}"
    pair = report.worst_violation()
    if pair is None:  # only the +inf entries fail to form an up-set
        return "achieved vector fails the monotonicity recheck"
    return (f"achieved vector fails the monotonicity recheck: "
            f"{mask_label(pair.superset)} = {float(pair.v_superset):.6g} < "
            f"{mask_label(pair.subset)} = {float(pair.v_subset):.6g}")
