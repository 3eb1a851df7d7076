"""Exact classical joint distributions over n party registers.

A distribution stands in for a diagonal density matrix on a product
basis: each party holds one register with a finite alphabet, and the atom
list assigns an exact rational probability to each occupied symbol tuple.
Probabilities stay exact through marginalization, mixing and tensor
products; base-2 logs are taken in double precision only at the very end,
after atoms with identical likelihood ratio have been pooled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cone import REVector
from .lattice import subsets_in_order, validate_mask


def _log2_fraction(r: Fraction) -> float:
    """log2 of a positive rational; exact when both sides are powers of 2."""
    num, den = r.numerator, r.denominator
    if num == den:
        return 0.0
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return float(num.bit_length() - den.bit_length())
    try:
        as_float = num / den
    except OverflowError:
        as_float = 0.0
    if as_float == 0.0 or math.isinf(as_float):
        return math.log2(num) - math.log2(den)
    return math.log2(as_float)


@dataclass(frozen=True)
class JointDistribution:
    """Exact probability table over a product alphabet.

    atoms holds (symbol tuple, probability) pairs, sorted by symbols;
    zero-probability atoms are never stored.
    """

    n: int
    alphabet_sizes: tuple[int, ...]
    atoms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        sizes = tuple(self.alphabet_sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        if self.n < 1 or len(sizes) != self.n:
            raise ValueError(f"need one alphabet size per party, got {sizes} for n={self.n}")
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        atoms = tuple(sorted((tuple(sym), Fraction(p)) for sym, p in self.atoms))
        object.__setattr__(self, "atoms", atoms)
        total = Fraction(0)
        seen = set()
        for sym, p in atoms:
            if len(sym) != self.n or any(not 0 <= x < s for x, s in zip(sym, sizes)):
                raise ValueError(f"symbol tuple {sym} outside the alphabets {sizes}")
            if p <= 0:
                raise ValueError(f"atom probability must be positive, got {p}")
            if sym in seen:
                raise ValueError(f"duplicate symbol tuple {sym}")
            seen.add(sym)
            total += p
        if total != 1:
            raise ValueError(f"probabilities must sum to 1, got {total}")

    @classmethod
    def from_mapping(cls, n: int, alphabet_sizes, mapping) -> "JointDistribution":
        return cls(n, tuple(alphabet_sizes), tuple(mapping.items()))

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(sym for sym, _ in self.atoms)


def marginal(d: JointDistribution, mask: int) -> JointDistribution:
    """Restrict to the parties of mask, summing probabilities exactly."""
    validate_mask(mask, d.n)
    keep = [i for i in range(d.n) if mask >> i & 1]
    totals: dict[tuple[int, ...], Fraction] = {}
    for sym, p in d.atoms:
        key = tuple(sym[i] for i in keep)
        totals[key] = totals.get(key, Fraction(0)) + p
    return JointDistribution(len(keep), tuple(d.alphabet_sizes[i] for i in keep),
                             tuple(totals.items()))


def _same_shape(a: JointDistribution, b: JointDistribution) -> None:
    if a.n != b.n or a.alphabet_sizes != b.alphabet_sizes:
        raise ValueError(
            f"distributions must share alphabets, got {a.alphabet_sizes} vs {b.alphabet_sizes}")


def mix(d0: JointDistribution, d1: JointDistribution, p) -> JointDistribution:
    """Atomwise p*d0 + (1-p)*d1 with an exact rational weight 0 < p < 1."""
    _same_shape(d0, d1)
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"mixing weight must satisfy 0 < p < 1, got {p}")
    totals: dict[tuple[int, ...], Fraction] = {}
    for sym, q in d0.atoms:
        totals[sym] = totals.get(sym, Fraction(0)) + p * q
    for sym, q in d1.atoms:
        totals[sym] = totals.get(sym, Fraction(0)) + (1 - p) * q
    return JointDistribution(d0.n, d0.alphabet_sizes, tuple(totals.items()))


def _product(a: JointDistribution, b: JointDistribution) -> JointDistribution:
    """Party-wise product: party i's register pair is flattened into one
    symbol a_i * |B_i| + b_i, so the factors stay n-party objects and
    marginals of the product factor subset by subset."""
    if a.n != b.n:
        raise ValueError(f"party counts differ: {a.n} vs {b.n}")
    sizes = tuple(sa * sb for sa, sb in zip(a.alphabet_sizes, b.alphabet_sizes))
    atoms = []
    for sym_a, pa in a.atoms:
        for sym_b, pb in b.atoms:
            sym = tuple(x * sb + y for x, y, sb in zip(sym_a, sym_b, b.alphabet_sizes))
            atoms.append((sym, pa * pb))
    return JointDistribution(a.n, sizes, tuple(atoms))


def relative_entropy(P: JointDistribution, Q: JointDistribution) -> float:
    """D(P||Q) in bits; +inf when the support of P escapes that of Q.

    Atoms are pooled by their exact ratio P(x)/Q(x) before any float is
    produced, so D(P, P) is exactly 0 and orthogonal-support mixtures come
    out exact.
    """
    _same_shape(P, Q)
    q_of = dict(Q.atoms)
    weight_by_ratio: dict[Fraction, Fraction] = {}
    for sym, p in P.atoms:
        q = q_of.get(sym)
        if q is None:
            return math.inf
        ratio = p / q
        weight_by_ratio[ratio] = weight_by_ratio.get(ratio, Fraction(0)) + p
    return math.fsum(float(w) * _log2_fraction(r)
                     for r, w in weight_by_ratio.items() if r != 1)


def shannon_entropy(P: JointDistribution) -> float:
    """H(P) = -sum p log2 p in bits."""
    weight_by_value: dict[Fraction, Fraction] = {}
    for _, p in P.atoms:
        weight_by_value[p] = weight_by_value.get(p, Fraction(0)) + p
    return math.fsum(-float(w) * _log2_fraction(v)
                     for v, w in weight_by_value.items() if v != 1)


def mutual_information(P: JointDistribution, split_mask: int) -> float:
    """I(S : complement) = D(P || P_S x P_Sbar) for a proper split."""
    full = (1 << P.n) - 1
    validate_mask(split_mask, P.n)
    if split_mask == full:
        raise ValueError("split must leave a nonempty complement")
    comp = full & ~split_mask
    keep_s = [i for i in range(P.n) if split_mask >> i & 1]
    keep_c = [i for i in range(P.n) if comp >> i & 1]
    ms, mc = marginal(P, split_mask), marginal(P, comp)
    atoms = []
    for sym_s, ps in ms.atoms:
        for sym_c, pc in mc.atoms:
            sym = [0] * P.n
            for pos, x in zip(keep_s, sym_s):
                sym[pos] = x
            for pos, x in zip(keep_c, sym_c):
                sym[pos] = x
            atoms.append((tuple(sym), ps * pc))
    product = JointDistribution(P.n, P.alphabet_sizes, tuple(atoms))
    return relative_entropy(P, product)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if p in (0, 1):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@dataclass(frozen=True)
class StatePair:
    """Two distributions over one product alphabet, the arguments of
    D(rho || sigma)."""

    rho: JointDistribution
    sigma: JointDistribution

    def __post_init__(self):
        _same_shape(self.rho, self.sigma)

    @property
    def n(self) -> int:
        return self.rho.n


def tensor(a: StatePair, b: StatePair) -> StatePair:
    """Party-wise tensor product; relative entropies add entry by entry."""
    return StatePair(_product(a.rho, b.rho), _product(a.sigma, b.sigma))


def point_pair(n: int) -> StatePair:
    """Deterministic rho = sigma pair; its relative-entropy vector is zero."""
    d = JointDistribution(n, (1,) * n, (((0,) * n, Fraction(1)),))
    return StatePair(d, d)


def re_vector(pair: StatePair) -> REVector:
    """All 2^n - 1 relative entropies of the marginal pairs, in bits."""
    values = tuple(relative_entropy(marginal(pair.rho, m), marginal(pair.sigma, m))
                   for m in subsets_in_order(pair.n))
    return REVector(pair.n, values)
