"""Classical secret-sharing schemes for a single bit, all linear.

A scheme fixes a register layout (each party holds an ordered list of
share slots) and, for each secret value b in {0, 1}, an exact uniform
JointDistribution over share assignments: every share tuple has weight 1
over the table size.  In those distributions a party's symbol is its
slot values in mixed radix, first slot most significant.

Every scheme here is linear (a monotone span program): each slot holds a
linear form c0*b + c1*r1 + ... + cR*rR over GF(q) in the secret and R
uniform random symbols.  A Scheme is these forms, its generator rows:
Scheme(q, slots, R) enumerates each table as the image of GF(q)^R, so a
table has exactly q**R atoms whenever the layout is injective.  Two
layouts feed it:

* Shamir threshold sharing over a prime field, in a weighted variant
  that hands several consecutive shares to one party: share x holds
  b + r1*x + ... + r(k-1)*x**(k-1), so q**(k - 1) atoms;
* a per-minimal-set XOR construction that realizes an arbitrary access
  structure: each minimal authorized set S gets its own independent
  all-or-nothing additive sharing over GF(2), so 2**sum(|S| - 1) atoms.

Ray realization (recone.realize) reads a candidate's size from its layout.

An exhaustive auditor checks the defining property subset by subset
against an up-set of authorized groups: authorized groups see disjoint
supports for b = 0 and b = 1, while unauthorized groups see identical
marginal distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice

from .lattice import UpSet, mask_label, parties
from .states import JointDistribution, StatePair, marginal, mix


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def smallest_prime_above(m: int) -> int:
    p = m + 1
    while not is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class Scheme:
    """Scheme given by its generator rows, linear forms over GF(q), q prime.

    slots[i] lists party i+1's slots, each a coefficient tuple
    (c0, c1, ..., cR) for the slot value c0*b + c1*r1 + ... + cR*rR mod q,
    R = randomness.  distributions[b] lists the share tuples of all
    (r1, ..., rR) in GF(q)^R, each with weight 1; a layout that maps two
    of them to one tuple is refused as a duplicate.  registers[i] lists
    the alphabet sizes of party i+1's slots, one degenerate (1,) register
    for a party with no slot.
    """

    q: int
    slots: tuple[tuple[tuple[int, ...], ...], ...]
    randomness: int
    distributions: tuple[JointDistribution, JointDistribution] = field(
        init=False, repr=False, compare=False)  # index by secret bit

    def __post_init__(self):
        q, randomness = self.q, self.randomness
        slots = tuple(tuple(map(tuple, forms)) for forms in self.slots)
        object.__setattr__(self, "slots", slots)
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        for form in chain.from_iterable(slots):
            if len(form) != randomness + 1:
                raise ValueError(f"form {form} needs {randomness + 1} coefficients")
        sizes = tuple(q ** len(forms) for forms in slots)
        rows = q ** randomness
        shifted = {}  # c -> v -> [v + t*c mod q for t in GF(q)]
        columns = []
        for forms in slots:
            packed = [0] * 2 * rows
            for c0, *coeffs in forms:
                # column by column over (b, r1, ..., rR), b most significant:
                # the values for r1..rj are those for r1..r(j-1), each
                # followed by its q shifts by t*cj
                values = [0, c0 % q]
                for c in coeffs:
                    c %= q
                    if c not in shifted:
                        shifted[c] = [[(v + t * c) % q for t in range(q)] for v in range(q)]
                    values = list(chain.from_iterable(map(shifted[c].__getitem__, values)))
                packed = [p * q + v for p, v in zip(packed, values)]
            columns.append(packed)
        symbols = list(zip(*columns))
        tables = symbols[:rows], symbols[rows:]
        for b, table in enumerate(tables):  # range, weights and sum hold by construction
            if len(set(table)) < rows:
                raise ValueError(f"duplicate symbol tuple in the table for b = {b}: "
                                 f"two random choices give the same shares")
        object.__setattr__(self, "distributions", tuple(
            JointDistribution._trusted(self.n, sizes, [(sym, 1) for sym in t], rows) for t in tables))

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def registers(self) -> tuple[tuple[int, ...], ...]:
        return tuple((self.q,) * len(forms) or (1,) for forms in self.slots)

    def table(self, b: int):
        return self.distributions[b].atoms


def threshold_layout(allocation, k: int, q: int):
    """(q, slots, R) of the k-out-of-m Shamir scheme over GF(q) whose
    m = sum(allocation) shares go to the parties in consecutive runs:
    share x = 1..m holds b + r1*x + ... + r(k-1)*x**(k-1)."""
    m = sum(allocation)
    if any(a < 0 for a in allocation):
        raise ValueError(f"need nonnegative share counts, got {tuple(allocation)}")
    if q <= m:
        raise ValueError(f"need q > share count for distinct evaluation points, got q={q}, m={m}")
    if not 1 <= k <= m:
        raise ValueError(f"threshold must satisfy 1 <= k <= {m}, got {k}")
    points = iter(range(1, m + 1))
    slots = [[tuple(pow(x, j, q) for j in range(k)) for x in islice(points, a)]
             for a in allocation]
    return q, slots, k - 1


def weighted_threshold_scheme(n: int, allocation, k: int, q: int) -> Scheme:
    """Shamir scheme whose m = sum(allocation) shares go to the parties in
    consecutive runs; a group is authorized iff its share count reaches k.
    A party allocated no share holds one degenerate (1,) register, as in
    the XOR construction for a party outside every clause.
    """
    if len(allocation) != n:
        raise ValueError(f"need one share count per party, got {len(allocation)} for n={n}")
    return Scheme(*threshold_layout(allocation, k, q))


def dnf_layout(u: UpSet):
    """(2, slots, R) of the XOR construction: per minimal set, its members
    but the last, in ascending party order, each hold a fresh bit, and the
    last holds the secret plus those bits.  A party outside every clause
    holds no slot."""
    clauses = [parties(m) for m in u.minimal_sets()]
    randomness = sum(len(c) - 1 for c in clauses)
    slots = [[] for _ in range(u.n)]
    used = 0
    for *free, last in clauses:
        parity = [1] + [0] * randomness
        for party in free:
            used += 1
            form = [0] * (randomness + 1)
            form[used] = parity[used] = 1
            slots[party - 1].append(form)
        slots[last - 1].append(parity)
    return 2, slots, randomness


def dnf_scheme(u: UpSet) -> Scheme:
    """XOR construction: an independent all-or-nothing GF(2) sharing per
    minimal authorized set.  Realizes exactly the given up-set.
    """
    return Scheme(*dnf_layout(u))


@dataclass(frozen=True)
class SubsetFinding:
    mask: int
    authorized: bool
    detail: str


@dataclass(frozen=True)
class SchemeAudit:
    passed: bool
    failures: tuple[SubsetFinding, ...]


def verify_scheme(s: Scheme, u: UpSet) -> SchemeAudit:
    """Exhaustive audit of the secret-sharing property for the up-set u
    of authorized groups.

    For every nonempty group: authorized groups must see disjoint
    supports for the two secret values, unauthorized groups identical
    marginal distributions.  Exact rational arithmetic throughout.
    """
    if s.n != u.n:
        raise ValueError(f"scheme has {s.n} parties but the up-set has {u.n}")
    failures = []
    for mask in range(1, 1 << s.n):
        m0, m1 = (marginal(d, mask) for d in s.distributions)
        if mask in u:
            overlap = m0.support() & m1.support()
            if overlap:
                failures.append(SubsetFinding(
                    mask, True,
                    f"authorized group {mask_label(mask)} sees {len(overlap)} shared share tuples"))
        elif m0 != m1:
            failures.append(SubsetFinding(
                mask, False,
                f"unauthorized group {mask_label(mask)} can distinguish the secret"))
    return SchemeAudit(passed=not failures, failures=tuple(failures))


def party_digits(layout, flat: int) -> tuple[int, ...]:
    """Slot values of a party's mixed-radix symbol, first slot most
    significant."""
    digits = []
    for size in reversed(layout):
        digits.append(flat % size)
        flat //= size
    return tuple(reversed(digits))


def scheme_state_pair(s: Scheme, weight=Fraction(1, 2)) -> StatePair:
    """State pair (table for 0, weight-mix of the two tables)."""
    rho0, rho1 = s.distributions
    return StatePair(rho0, mix(rho0, rho1, weight))
