"""Exact classical joint distributions over n party registers.

A distribution stands in for a diagonal density matrix on a product
basis: each party holds one register with a finite alphabet, and the atom
list assigns a positive integer weight to each occupied symbol tuple, all
over one common denominator.  Probabilities stay exact through
marginalization, mixing and tensor products, which add and multiply
integers only; base-2 logs are taken in double precision only at the very
end, after atoms with identical likelihood ratio have been pooled exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add, contains, itemgetter

from .cone import REVector
from .lattice import subsets_in_order, validate_mask


def _log2_ratio(num: int, den: int) -> float:
    """log2(num / den) for a ratio in lowest terms; exact when both sides
    are powers of 2."""
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


def _set_lowest_terms(d: "JointDistribution", atoms, denominator: int) -> None:
    """Store atoms sorted by symbol and divided, with the denominator, by
    the gcd of the weights, so equal distributions compare equal."""
    atoms = sorted(atoms)
    g = math.gcd(*(w for _, w in atoms))
    if g > 1:
        atoms = [(sym, w // g) for sym, w in atoms]
        denominator //= g
    object.__setattr__(d, "atoms", tuple(atoms))
    object.__setattr__(d, "denominator", denominator)


@dataclass(frozen=True)
class JointDistribution:
    """Exact probability table over a product alphabet.

    atoms holds (symbol tuple, weight) pairs sorted by symbols; the
    probability of an atom is weight / denominator.  Weights are positive
    integers summing to the denominator, zero-probability atoms are never
    stored, and the table is kept in lowest terms (the weights share no
    common factor), so dataclass equality is equality of distributions.
    The constructor validates everything; use from_mapping to start from
    exact probabilities.
    """

    n: int
    alphabet_sizes: tuple[int, ...]
    atoms: tuple[tuple[tuple[int, ...], int], ...]
    denominator: int

    def __post_init__(self):
        sizes = tuple(self.alphabet_sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        if self.n < 1 or len(sizes) != self.n:
            raise ValueError(f"need one alphabet size per party, got {sizes} for n={self.n}")
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        den = self.denominator
        if not isinstance(den, int) or isinstance(den, bool) or den < 1:
            raise ValueError(f"denominator must be a positive integer, got {den!r}")
        atoms = [(tuple(sym), w) for sym, w in self.atoms]
        ranges = [range(s) for s in sizes]
        total = 0
        seen = set()
        for sym, w in atoms:
            if len(sym) != self.n or not all(map(contains, ranges, sym)):
                raise ValueError(f"symbol tuple {sym} outside the alphabets {sizes}")
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise ValueError(f"atom weight must be a positive integer, got {w!r}")
            if sym in seen:
                raise ValueError(f"duplicate symbol tuple {sym}")
            seen.add(sym)
            total += w
        if total != den:
            raise ValueError(f"probabilities must sum to 1, got {Fraction(total, den)}")
        _set_lowest_terms(self, atoms, den)

    @classmethod
    def _trusted(cls, n: int, alphabet_sizes: tuple[int, ...], atoms,
                 denominator: int) -> "JointDistribution":
        """Build from atoms the caller derived from valid tables: brought
        to lowest terms, not re-validated."""
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "alphabet_sizes", alphabet_sizes)
        _set_lowest_terms(d, atoms, denominator)
        return d

    @classmethod
    def from_mapping(cls, n: int, alphabet_sizes, mapping) -> "JointDistribution":
        """Distribution from a {symbol tuple: exact probability} mapping;
        the probabilities are scaled to integers over their common
        denominator."""
        probs = [(sym, Fraction(p)) for sym, p in mapping.items()]
        den = math.lcm(*(p.denominator for _, p in probs))
        return cls(n, tuple(alphabet_sizes),
                   tuple((sym, p.numerator * (den // p.denominator)) for sym, p in probs), den)

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(sym for sym, _ in self.atoms)


def marginal(d: JointDistribution, mask: int) -> JointDistribution:
    """Restrict to the parties of mask, summing weights exactly."""
    validate_mask(mask, d.n)
    keep = [i for i in range(d.n) if mask >> i & 1]
    key = itemgetter(*keep)
    totals: defaultdict[object, int] = defaultdict(int)
    for sym, w in d.atoms:
        totals[key(sym)] += w
    # itemgetter of one index returns the bare value, not a 1-tuple
    atoms = totals.items() if len(keep) > 1 else (((x,), w) for x, w in totals.items())
    return JointDistribution._trusted(len(keep), tuple(d.alphabet_sizes[i] for i in keep),
                                      atoms, d.denominator)


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
    common = math.lcm(d0.denominator, d1.denominator)
    scale0 = p.numerator * (common // d0.denominator)
    scale1 = (p.denominator - p.numerator) * (common // d1.denominator)
    totals: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for sym, w in d0.atoms:
        totals[sym] += scale0 * w
    for sym, w in d1.atoms:
        totals[sym] += scale1 * w
    return JointDistribution._trusted(d0.n, d0.alphabet_sizes, totals.items(),
                                      p.denominator * common)


def _product(a: JointDistribution, b: JointDistribution) -> JointDistribution:
    """Party-wise product: party i's register pair is flattened into one
    symbol a_i * |B_i| + b_i, so the factors stay n-party objects and
    marginals of the product factor subset by subset."""
    if a.n != b.n:
        raise ValueError(f"party counts differ: {a.n} vs {b.n}")
    sizes = tuple(sa * sb for sa, sb in zip(a.alphabet_sizes, b.alphabet_sizes))
    atoms = []
    for sym_a, wa in a.atoms:
        high = tuple(x * sb for x, sb in zip(sym_a, b.alphabet_sizes))
        atoms.extend((tuple(map(add, high, sym_b)), wa * wb) for sym_b, wb in b.atoms)
    return JointDistribution._trusted(a.n, sizes, atoms, a.denominator * b.denominator)


def relative_entropy(P: JointDistribution, Q: JointDistribution) -> float:
    """D(P||Q) in bits; +inf when the support of P escapes that of Q.

    Atoms are pooled by their exact ratio P(x)/Q(x), which over fixed
    denominators is the ratio of weights in lowest terms, before any float
    is produced, so D(P, P) is exactly 0 and orthogonal-support mixtures
    come out exact.
    """
    _same_shape(P, Q)
    q_of = dict(Q.atoms)
    weight_by_ratio: defaultdict[tuple[int, int], int] = defaultdict(int)
    for sym, wp in P.atoms:
        wq = q_of.get(sym)
        if wq is None:
            return math.inf
        g = math.gcd(wp, wq)
        weight_by_ratio[wp // g, wq // g] += wp
    terms = []
    for (a, b), w in weight_by_ratio.items():
        num, den = a * Q.denominator, b * P.denominator
        if num != den:
            g = math.gcd(num, den)
            terms.append(w / P.denominator * _log2_ratio(num // g, den // g))
    return math.fsum(terms)


def shannon_entropy(P: JointDistribution) -> float:
    """H(P) = -sum p log2 p in bits."""
    weight_by_value: defaultdict[int, int] = defaultdict(int)
    for _, w in P.atoms:
        weight_by_value[w] += w
    terms = []
    for v, w in weight_by_value.items():
        if v != P.denominator:
            g = math.gcd(v, P.denominator)
            terms.append(-(w / P.denominator) * _log2_ratio(v // g, P.denominator // g))
    return math.fsum(terms)


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
    d = JointDistribution(n, (1,) * n, (((0,) * n, 1),), 1)
    return StatePair(d, d)


def re_vector(pair: StatePair) -> REVector:
    """All 2^n - 1 relative entropies of the marginal pairs, in bits.

    Each proper subset's marginals are summed from those of its parent,
    the subset plus its lowest missing party, so every subset is reached
    once and the full tables are reduced only n times per side.  The walk
    is depth first, so only one chain of marginals is alive at a time.
    """
    values = {}

    def walk(mask: int, rho: JointDistribution, sigma: JointDistribution) -> None:
        values[mask] = relative_entropy(rho, sigma)
        own = (1 << rho.n) - 1
        # parties below the lowest missing one sit at their own index in rho
        for i in range(((mask + 1) & ~mask).bit_length() - 1):
            if mask != 1 << i:
                rest = own ^ 1 << i
                walk(mask ^ 1 << i, marginal(rho, rest), marginal(sigma, rest))

    walk((1 << pair.n) - 1, pair.rho, pair.sigma)
    return REVector(pair.n, tuple(values[m] for m in subsets_in_order(pair.n)))
