"""Shared generators for exact random distributions, state pairs and
cone members, the direct lattice, cone, scheme and primality algorithms
kept as test oracles, and the lattice, vector and scheme helpers only
tests use."""

import math
import random
from functools import partial, reduce
from itertools import product

from recone.cone import (
    InfiniteEntryError,
    MembershipReport,
    NotInConeError,
    RayDecomposition,
    REVector,
    Violation,
    _slack,
)
from recone.lattice import (
    UpSet,
    _check_closed,
    _closure,
    _closure_steps,
    _one_party_up,
    _table_of,
    enumerate_upsets,
    subset_index,
    subsets_in_order,
)
from recone.schemes import Scheme, _digits, _extend_gf2, _extend_gfq, formula_layout
from recone.states import JointDistribution, StatePair, _log2_ratio, _product, mix


def is_upset(family, n):
    """True iff the family of masks is nonempty and closed under supersets."""
    table = _table_of(family, n)
    try:
        _check_closed((table,), n)
    except ValueError:
        return False
    return True


def upward_closure(seed, n):
    """Smallest up-set containing the given nonempty seed of masks.

    >>> sorted(upward_closure({0b001}, 3).members)
    [1, 3, 5, 7]
    """
    table = _table_of(seed, n)
    if not table:
        raise ValueError("seed must be nonempty")
    return UpSet._from_table(n, _closure(table, n))


def value(v, mask):
    """The entry of the vector v on the subset mask."""
    return v.values[subset_index(v.n)[mask]]


def add(v, other):
    """The entrywise sum of two vectors on the same parties, or
    NotImplemented, as an __add__ returns it, for anything else."""
    if not isinstance(other, REVector) or other.n != v.n:
        return NotImplemented
    return REVector(v.n, tuple(a + b for a, b in zip(v.values, other.values)))


def random_distribution(rng, n, sizes, full_support=False):
    """Random exact distribution over the given product alphabet: integer
    weights in 1..20 over their sum."""
    symbols = list(product(*[range(s) for s in sizes]))
    chosen = [s for s in symbols if full_support or rng.random() < 0.7]
    if not chosen:
        chosen = [symbols[rng.randrange(len(symbols))]]
    weights = [rng.randint(1, 20) for _ in chosen]
    return JointDistribution(n, tuple(sizes), tuple(zip(chosen, weights)), sum(weights))


def random_pair(rng, n, sizes, sigma_full_support=False):
    rho = random_distribution(rng, n, sizes)
    sigma = random_distribution(rng, n, sizes, full_support=sigma_full_support)
    return StatePair(rho, sigma)


def shamir_scheme(n, allocation, k, q):
    """One k-of-m Shamir gate over GF(q), party i a leaf allocation[i]
    times: Scheme(*formula_layout(...)), with no checks of its own."""
    leaves = [party for party, a in enumerate(allocation) for _ in range(a)]
    return Scheme(*formula_layout(n, (k, leaves), q))


def trial_division_prime(m):
    """Oracle for schemes.is_prime: no divisor from 2 up to sqrt(m)."""
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def multiplied_out(pair):
    """Oracle for dense_pair and a ProductPair's rho and sigma: each side
    folded on its own with the party-wise product of its tables, from the
    one-atom table; no budget is checked."""
    n = pair.n
    point = JointDistribution._trusted(n, (1,) * n, (((0,) * n, 1),), 1)
    rho = reduce(_product, (f.scheme.distribution(0) for f in pair.factors), point)
    sigma = reduce(_product, (mix(f.scheme.distribution(0), f.scheme.distribution(1), f.weight)
                              for f in pair.factors), point)
    return StatePair(rho, sigma)


def random_members(seed, n, count):
    """count cone members at n parties, as acceptance criterion 5 draws
    them: sums of 1 to 4 distinct random rays, coefficients U(0.1, 3.0)."""
    rng = random.Random(seed)
    upsets = enumerate_upsets(n)
    order = subsets_in_order(n)
    for _ in range(count):
        picks = rng.sample(upsets, rng.randint(1, 4))
        coeffs = [rng.uniform(0.1, 3.0) for _ in picks]
        yield REVector(n, tuple(math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
                                for mask in order))


def closure_members(seed, n, count):
    """count cone members at n parties, drawn without enumerating the
    up-sets, as members are drawn for n >= 6: sums of 1 to 4 upward
    closures, each of 1 to 4 random seed masks, coefficients U(0.1, 3.0)."""
    rng = random.Random(seed)
    order = subsets_in_order(n)
    for _ in range(count):
        rays = [upward_closure({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))}, n)
                for _ in range(rng.randint(1, 4))]
        coeffs = [rng.uniform(0.1, 3.0) for _ in rays]
        yield REVector(n, tuple(math.fsum(c for c, u in zip(coeffs, rays) if mask in u)
                                for mask in order))


def weighted_member(seed, shape):
    """The n = 8 cone member v(S) = shape(sum of w_i over the parties i
    of S), w_i ~ U(0.1, 1) from random.Random(seed), for a nondecreasing
    shape: with the identity from seed 8 the additive member, with
    math.sqrt from seed 1 the concave one, each 255 distinct levels."""
    rng = random.Random(seed)
    w = [rng.uniform(0.1, 1) for _ in range(8)]
    return REVector(8, tuple(shape(sum(w[i] for i in range(8) if mask >> i & 1))
                             for mask in subsets_in_order(8)))


def is_closed(table, n):
    """Oracle for the batch closure check: one truth table at a time, true
    iff it is a nonempty up-set of nonempty masks of [n]."""
    up = 0
    for j in range(n):
        up |= (table & _closure_steps(n)[j][0]) << (1 << j)
    return table > 0 and not table & 1 and not table >> (1 << n) and not up & ~table


def fixpoint_closure(table, n):
    """Oracle for lattice._closure: add every member plus one party until
    nothing changes."""
    while (closed := table | _one_party_up(table, n)) != table:
        table = closed
    return table


def submask_walk_authorized(s):
    """Oracle for Scheme.authorized: the same depth-first walk of the
    groups, but once a group recovers the secret, every group the walk
    would grow from it is marked by enumerating the submasks of the
    parties above the one just added.  Its rows and kernels are the
    walk's: the packed forms over GF(2), their digit lists over GF(q)."""
    n, q = s.n, s.q
    rows, extend = s.forms, _extend_gf2
    if q != 2:
        rows, extend = [[_digits(f, q) for f in forms] for forms in rows], partial(_extend_gfq, q)
    table = 0
    stack = [(0, {}, 0)]  # (group, its basis, first party the walk may add)
    while stack:
        mask, basis, first = stack.pop()
        for j in range(first, n):
            grown = dict(basis)
            if extend(grown, rows[j]):
                above = (1 << n) - (2 << j)
                sub = above
                while True:
                    table |= 1 << (mask | 1 << j | sub)
                    if not sub:
                        break
                    sub = (sub - 1) & above
            else:
                stack.append((mask | 1 << j, grown, j + 1))
    return table


def proper_submasks(mask):
    """Proper nonempty submasks of a mask."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def grouped_levels(v):
    """Oracle for REVector.levels: (key, truth table) pairs in first-seen
    canonical order, each entry compared with the keys seen so far."""
    levels = []
    for m, val in v.entries():
        for i, (key, table) in enumerate(levels):
            if key == val:
                levels[i] = (key, table | 1 << m)
                break
        else:
            levels.append((val, 1 << m))
    return levels


def fsum_columns(pair):
    """Oracle for re_vector of a ProductPair: one column per factor,
    -log2(p) on the groups its scheme authorizes and 0.0 elsewhere, summed
    subset by subset with math.fsum."""
    order = subsets_in_order(pair.n)
    columns = [[_log2_ratio(f.weight.denominator, f.weight.numerator)
                if f.scheme.authorized() >> m & 1 else 0.0 for m in order]
               for f in pair.factors]
    return REVector(pair.n, tuple(map(math.fsum, zip(*columns))) if columns
                    else (0.0,) * len(order))


def pair_walk_report(v):
    """Oracle for check_membership: walk all 3^n comparable pairs."""
    slack = _slack(v.values)
    value = dict(v.entries())
    infinite = {m for m, val in value.items() if val == math.inf}
    infinite_ok = not infinite or is_upset(infinite, v.n)
    violations = []
    for mask, vs in value.items():
        if vs == math.inf:
            continue
        for sub in proper_submasks(mask):
            vsub = value[sub]
            if vsub != math.inf and vs < vsub - slack:
                violations.append(Violation(mask, sub, vs, vsub))
    violations.sort(key=lambda x: (x.superset, x.subset))
    return MembershipReport(member=not violations and infinite_ok,
                            violations=tuple(violations), infinite_part_ok=infinite_ok)


def hull_decompose(v):
    """Oracle for layer_cake_decompose: the per-mask monotone hull, its
    levels keyed by value, grouped from the top."""
    report = pair_walk_report(v)
    if not report.member:
        raise NotInConeError(report)
    if not v.is_finite():
        raise InfiniteEntryError("decomposition is defined for finite vectors only")
    slack = _slack(v.values)
    value = dict(v.entries())
    hull = {}  # subsets first: a running maximum over m less one party
    for m, val in value.items():
        top, rest = val, m
        while rest:
            bit = rest & -rest
            rest ^= bit
            if m != bit and hull[m ^ bit] > top:
                top = hull[m ^ bit]
        hull[m] = top
    lowest = {}  # hull level -> smallest original entry lifted onto it
    for m, h in hull.items():
        lowest[h] = min(lowest.get(h, h), value[m])
    levels = []  # group tops, descending
    top_of = {}
    for level in sorted(lowest, reverse=True):
        if not levels or levels[-1] - lowest[level] > slack:
            levels.append(level)
        top_of[level] = levels[-1]
    if levels and levels[-1] <= slack:
        levels.pop()
    terms = []
    table = 0
    for i, t in enumerate(levels):
        table |= sum(1 << m for m, h in hull.items() if top_of[h] == t)
        t_next = levels[i + 1] if i + 1 < len(levels) else 0
        terms.append((t - t_next, UpSet._from_table(v.n, table)))
    return RayDecomposition(v.n, tuple(terms))
