"""End-to-end realization: target vector -> state pair -> verification.

A single ray, lam times the indicator of an up-set U, is realized by the
XOR scheme for U: take rho = table(0) and sigma = the weight-p mix of the
two tables with p = 2**(-lam).  Authorized subsets then sit at exactly
-log2(p) bits (the two tables never collide, so the cross term vanishes;
note this is -log2(p), not the binary entropy of p, which the mixture
form might suggest) and unauthorized subsets at exactly 0.  General
members decompose into nested rays whose realizations combine by tensor
product.

The weight is exact from the start: p = 1 / 2**lam for integer lam, so
entries come out machine-exact, and otherwise p is the double nearest
2**(-lam), taken as an exact Fraction.  That double carries 53
significant bits down to 2**-1022, so achieved values match targets to
well below 1e-6 for lam from 1e-9 up to 1000 bits.  Past 1022 bits the
double is subnormal and coarser, and synthesis reports any miss;
MAX_RAY_BITS bounds lam for both kinds of weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cone import (
    NotInConeError,
    RayDecomposition,
    REVector,
    Violation,
    check_membership,
    layer_cake_decompose,
)
from .lattice import UpSet, mask_label, subsets_in_order
from .schemes import dnf_scheme, scheme_state_pair
from .states import StatePair, point_pair, re_vector, tensor

DYADIC_TOL = 1e-9
GENERAL_TOL = 1e-6
MONOTONICITY_RECHECK_TOL = 1e-12
#: largest ray coefficient in bits: 2**-1074 is the smallest positive double
MAX_RAY_BITS = 1074


class RealizationError(ValueError):
    """Synthesized pair missed the target beyond the allowed tolerance."""


def _dyadic_weight(lam) -> Fraction:
    if not 0 < lam <= MAX_RAY_BITS:
        raise ValueError(
            f"ray coefficient must be a number of bits in (0, {MAX_RAY_BITS}], got {lam}")
    if lam == int(lam):
        return Fraction(1, 1 << int(lam))
    p = Fraction(2.0 ** -float(lam))
    if not 0 < p < 1:
        raise ValueError(f"ray coefficient {lam} leaves no representable mixing weight")
    return p


def realize_ray(u: UpSet, lam) -> StatePair:
    """State pair whose relative-entropy vector is lam times the indicator
    of u, up to the rounding of the mixing weight 2**(-lam) to a double."""
    scheme = dnf_scheme(u)
    return scheme_state_pair(scheme, _dyadic_weight(lam))


@dataclass(frozen=True)
class RealizationResult:
    target: REVector
    decomposition: RayDecomposition
    pair: StatePair
    achieved: REVector
    max_abs_error: float


def _auto_tolerance(decomposition: RayDecomposition) -> float:
    dyadic = all(
        (isinstance(c, int) and not isinstance(c, bool))
        or (isinstance(c, float) and c.is_integer())
        or (isinstance(c, Fraction) and c.denominator == 1)
        for c, _ in decomposition.terms)
    return DYADIC_TOL if dyadic else GENERAL_TOL


def synthesize(v: REVector, tol: float | None = None) -> RealizationResult:
    """Build and check a state pair realizing a finite cone member.

    Decomposes v over its level sets, realizes each nested ray, tensors
    the realizations together and recomputes the achieved vector.  When
    tol is None it defaults to 1e-9 for integer-level targets (exact
    dyadic weights) and 1e-6 otherwise.  Raises RealizationError if the
    achieved vector misses the target beyond the tolerance.
    """
    decomposition = layer_cake_decompose(v)  # also enforces membership
    pair = point_pair(v.n)
    for coeff, upset in decomposition.terms:
        pair = tensor(pair, realize_ray(upset, coeff))
    achieved = re_vector(pair)
    max_err = max((abs(a - t) for a, t in zip(achieved.values, v.values)), default=0.0)
    if tol is None:
        tol = _auto_tolerance(decomposition)
    if max_err > tol:
        raise RealizationError(
            f"achieved vector misses the target by {max_err:.3e} > {tol:.1e}")
    return RealizationResult(target=v, decomposition=decomposition, pair=pair,
                             achieved=achieved, max_abs_error=max_err)


@dataclass(frozen=True)
class SubsetDeviation:
    mask: int
    target: object
    achieved: object
    deviation: float


@dataclass(frozen=True)
class VerificationReport:
    n: int
    tol: float
    deviations: tuple[SubsetDeviation, ...]
    max_abs_error: float
    monotone_ok: bool
    violations: tuple[Violation, ...]  # of the monotonicity recheck
    passed: bool

    def failing_subsets(self) -> tuple[int, ...]:
        return tuple(d.mask for d in self.deviations if not d.deviation <= self.tol)

    def worst_violation(self) -> Violation | None:
        """The recheck's (superset, subset) pair that drops the most."""
        return max(self.violations, key=lambda x: x.v_subset - x.v_superset, default=None)


def verify(v: REVector, pair: StatePair, tol: float = DYADIC_TOL) -> VerificationReport:
    """Recompute the pair's relative-entropy vector and compare to v.

    Reports the per-subset deviation, the worst deviation, and whether
    the achieved vector itself still passes the monotonicity check (with
    a 1e-12 cushion for float noise in independent marginal sums).
    """
    if v.n != pair.n:
        raise ValueError(f"vector has {v.n} parties but pair has {pair.n}")
    achieved = re_vector(pair)
    deviations = []
    for mask in subsets_in_order(v.n):
        t, a = v.value(mask), achieved.value(mask)
        if t == math.inf or a == math.inf:
            dev = 0.0 if t == a else math.inf
        else:
            dev = abs(float(a) - float(t))
        deviations.append(SubsetDeviation(mask, t, a, dev))
    max_err = max(d.deviation for d in deviations)
    recheck = check_membership(achieved, tol=MONOTONICITY_RECHECK_TOL)
    return VerificationReport(n=v.n, tol=tol, deviations=tuple(deviations),
                              max_abs_error=max_err, monotone_ok=recheck.member,
                              violations=recheck.violations,
                              passed=bool(max_err <= tol and recheck.member))


def describe_deviation(report: VerificationReport) -> str:
    """One-line summary naming the worst subset, or, when every subset is
    within tolerance but the recheck failed, the worst monotonicity pair."""
    if report.monotone_ok or report.failing_subsets():
        worst = max(report.deviations, key=lambda d: d.deviation)
        return (f"max |achieved - target| = {worst.deviation:.3e} "
                f"at subset {mask_label(worst.mask)}")
    pair = report.worst_violation()
    if pair is None:  # only the +inf entries fail to form an up-set
        return "achieved vector fails the monotonicity recheck"
    return (f"achieved vector fails the monotonicity recheck: "
            f"{mask_label(pair.superset)} = {float(pair.v_superset):.6g} < "
            f"{mask_label(pair.subset)} = {float(pair.v_subset):.6g}")
