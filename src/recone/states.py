"""Exact classical joint distributions over n party registers.

A distribution stands in for a diagonal density matrix on a product
basis: each party holds one register with a finite alphabet, and the atom
list assigns a positive integer weight to each occupied symbol tuple, all
over one common denominator.  Probabilities stay exact through
marginalization, mixing and tensor products, which add and multiply
integers only; base-2 logs are taken in double precision only at the very
end, after atoms with identical likelihood ratio have been pooled exactly.

A ProductPair stands for a tensor product of ray factors.  A Factor is a
linear secret-sharing scheme and an exact weight p, standing for the pair
(table(0), p table(0) + (1 - p) table(1)); its vector comes from the
scheme's rank; only recone.realize.dense_pair multiplies a product out,
within its MAX_SIGMA_ATOMS budget, and a product's rho and sigma read it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from operator import add, contains, itemgetter

from .cone import REVector
from .lattice import subsets_in_order, validate_mask, validate_party_count
from .record import Record

def _log2_ratio(num: int, den: int) -> float:
    """log2(num / den) for a ratio in lowest terms; exact when both sides
    are powers of 2."""
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


class JointDistribution(Record):
    """Exact probability table over a product alphabet.

    atoms holds (symbol tuple, weight) pairs sorted by symbols; the
    probability of an atom is weight / denominator.  Weights are positive
    integers summing to the denominator, zero-probability atoms are never
    stored, and the table is kept in lowest terms (the weights share no
    common factor), so record equality, field by field, is equality of
    distributions.  The constructor validates everything.
    """

    __slots__ = _fields = ("n", "alphabet_sizes", "atoms", "denominator")

    def __init__(self, n: int, alphabet_sizes: tuple[int, ...],
                 atoms: tuple[tuple[tuple[int, ...], int], ...], denominator: int):
        sizes = tuple(alphabet_sizes)
        if len(sizes) != n or n < 1:  # a count that is not a number fails the first test
            raise ValueError(f"need one alphabet size per party, got {sizes} for n={n}")
        validate_party_count(n)
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        den = denominator
        if not isinstance(den, int) or isinstance(den, bool) or den < 1:
            raise ValueError(f"denominator must be a positive integer, got {den!r}")
        atoms = [(tuple(sym), w) for sym, w in atoms]
        ranges = [range(s) for s in sizes]
        total = 0
        seen = set()
        for sym, w in atoms:
            if len(sym) != n or not all(map(contains, ranges, sym)):
                raise ValueError(f"symbol tuple {sym} outside the alphabets {sizes}")
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise ValueError(f"atom weight must be a positive integer, got {w!r}")
            if sym in seen:
                raise ValueError(f"duplicate symbol tuple {sym}")
            seen.add(sym)
            total += w
        if total != den:
            raise ValueError(f"probabilities must sum to 1, got {Fraction(total, den)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alphabet_sizes", sizes)
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


class StatePair(Record):
    """Two distributions over one product alphabet, the arguments of
    D(rho || sigma)."""

    __slots__ = _fields = ("rho", "sigma")

    def __init__(self, rho: JointDistribution, sigma: JointDistribution):
        _same_shape(rho, sigma)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.rho.n


def tensor(a: StatePair, b: StatePair) -> StatePair:
    """Party-wise tensor product; relative entropies add entry by entry."""
    return StatePair(_product(a.rho, b.rho), _product(a.sigma, b.sigma))


class Factor(Record):
    """One ray of a ProductPair: a linear scheme and an exact weight
    0 < p < 1, standing for rho = table(0) and sigma = the p-mix of
    table(0) and table(1).  By linearity its relative entropy on a group
    is exactly -log2(p) where the group recovers the secret and exactly
    0 elsewhere (see recone.schemes)."""

    __slots__ = _fields = ("scheme", "weight")

    def __init__(self, scheme: Scheme, weight: Fraction):
        if not (isinstance(weight, Fraction) and 0 < weight.numerator < weight.denominator):
            raise ValueError(f"weight must be an exact fraction with 0 < p < 1, got {weight}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "weight", weight)

    @property
    def n(self) -> int:
        return self.scheme.n


class ProductPair(Record):
    """The tensor product of ray factors over the same n parties, kept as
    its factors.  Relative entropies add over tensor products, so its
    vector is the sum of the factors' vectors; with no factors it is the
    zero vector.  rho and sigma each build all of dense_pair(self), both
    sides: a caller who needs both reads dense_pair once."""

    __slots__ = _fields = ("n", "factors")

    def __init__(self, n: int, factors: tuple[Factor, ...]):
        validate_party_count(n)
        factors = tuple(factors)
        for i, f in enumerate(factors, start=1):
            if not isinstance(f, Factor):
                raise ValueError(f"factor {i} is a {type(f).__name__}, not a Factor")
            if f.n != n:
                raise ValueError(f"factor {i} has {f.n} parties, the product has {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)

    @property
    def sigma_atoms(self) -> int:
        """Sigma support of the multiplied-out product, read from the
        layouts: each factor's sigma covers both tables, 2 * q**R atoms
        when they are disjoint, as they are for every ray, and fewer
        otherwise."""
        return math.prod(2 * f.scheme.q ** f.scheme.randomness for f in self.factors)

    # read by the tests and the benchmark; realize imports states, so dense_pair is imported late
    @property
    def rho(self) -> JointDistribution:
        from .realize import dense_pair
        return dense_pair(self).rho

    @property
    def sigma(self) -> JointDistribution:
        from .realize import dense_pair
        return dense_pair(self).sigma


def re_vector(pair: StatePair | ProductPair | Factor) -> REVector:
    """All 2^n - 1 relative entropies of the marginal pairs, in bits.

    A ProductPair's vector is built level by level, from rank, with no
    table: each factor's authorized() table splits the cells of subsets
    that share their factors, and a cell's value is the math.fsum of
    -log2(p), the log of the exact ratio 1/p a dense recomputation pools,
    over its factors.  fsum rounds once, so this is the per-subset sum bit
    for bit; equal cells form one level.  A Factor's vector is that of its
    one-factor ProductPair.

    For a StatePair each proper subset's marginals are summed from those
    of its parent, the subset plus its lowest missing party, so every
    subset is reached once and the full tables are reduced only n times
    per side.  The walk is depth first, so only one chain of marginals is
    alive at a time.
    """
    if isinstance(pair, Factor):
        pair = ProductPair(pair.n, (pair,))
    if isinstance(pair, ProductPair):
        cells = {(1 << (1 << pair.n)) - 2: []}  # truth table -> the bits of its factors
        for f in pair.factors:
            recovers = f.scheme.authorized()
            bits = _log2_ratio(f.weight.denominator, f.weight.numerator)
            split = {}
            for table, terms in cells.items():
                if inside := table & recovers:
                    split[inside] = terms + [bits]
                if outside := table & ~recovers:
                    split[outside] = terms
            cells = split
        levels = {}
        for table, terms in cells.items():
            value = math.fsum(terms)
            levels[value] = levels.get(value, 0) | table
        return REVector._from_levels(pair.n, levels)
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
