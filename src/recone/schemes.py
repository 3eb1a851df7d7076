"""Classical secret-sharing schemes for a single bit, all linear.

A scheme fixes a register layout (each party holds an ordered list of
share slots) and, for each secret value b in {0, 1}, an exact uniform
JointDistribution over share assignments: every share tuple has weight 1
over the table size.  In those distributions a party's symbol is its
slot values in mixed radix, first slot most significant.

Every scheme here is linear (a monotone span program): each slot holds a
linear form c0*b + c1*r1 + ... + cR*rR over GF(q) in the secret and R
uniform random symbols.  A Scheme is these forms, its generator rows.
The constructor checks that the random columns have rank R, so that the
table of each secret is the injective image of GF(q)^R with exactly
q**R atoms; the tables themselves are enumerated only when read.

Linearity decides a group's view by rank alone.  Group S's marginal is
uniform on a coset of the image of S's random columns, shifted by b
times S's secret column.  The two cosets coincide unless the secret
column e0 = (1, 0, ..., 0) lies in the row span of S's forms, and are
disjoint when it does: then S recovers b, otherwise its view does not
depend on b.  Scheme.authorized finds these groups by one GF(q)
elimination basis, extended party by party along a walk of the subsets.

Two layouts feed the constructor:

* Shamir threshold sharing over a prime field, in a weighted variant
  that hands several consecutive shares to one party: share x holds
  b + r1*x + ... + r(k-1)*x**(k-1), so q**(k - 1) atoms;
* a per-minimal-set XOR construction that realizes an arbitrary access
  structure: each minimal authorized set S gets its own independent
  all-or-nothing additive sharing over GF(2), so 2**sum(|S| - 1) atoms.

Ray realization (recone.realize) reads a candidate's size from its
layout.  A scheme realizes the up-set u exactly when authorized() equals
u.table, its truth table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

from .lattice import MAX_PARTIES, UpSet, parties
from .states import JointDistribution, StatePair, mix

#: largest field size a scheme may use; trial division proves primality
MAX_MODULUS = 1 << 31


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


def _insert(basis: dict[int, dict[int, int]], row: dict[int, int], q: int,
            secret: int) -> bool:
    """Reduce a sparse row {column: nonzero coefficient} over GF(q) by the
    echelon basis {pivot: row with 1 at its pivot and 0 before it}, lowest
    column first, and enter what is left as a new basis row.  The secret
    column comes last, so True, with the basis unchanged, means that
    only the secret column was left: then e0 lies in the span."""
    reduced = row  # shared with the caller and with other bases: copied before a change
    while reduced:
        col = min(reduced)
        pivot_row = basis.get(col)
        if pivot_row is None:
            if col == secret:
                return True
            inverse = pow(reduced[col], -1, q)
            basis[col] = reduced if inverse == 1 else {
                c: x * inverse % q for c, x in reduced.items()}
            return False
        if reduced is row:
            reduced = dict(row)
        f = reduced[col]
        for c, x in pivot_row.items():
            y = (reduced.get(c, 0) - f * x) % q
            if y:
                reduced[c] = y
            else:
                del reduced[c]
    return False


@dataclass(frozen=True)
class Scheme:
    """Scheme given by its generator rows, linear forms over GF(q), q prime.

    slots[i] lists party i+1's slots, each a coefficient tuple
    (c0, c1, ..., cR), integers in range(q), for the slot value
    c0*b + c1*r1 + ... + cR*rR mod q, R = randomness.  A layout whose
    random columns have rank below R maps two random choices to one share
    tuple, and is refused as a duplicate.  distributions[b] lists the
    share tuples of all (r1, ..., rR) in GF(q)^R, each with weight 1; it
    is enumerated on first read.
    """

    q: int
    slots: tuple[tuple[tuple[int, ...], ...], ...]
    randomness: int

    def __post_init__(self):
        q, randomness = self.q, self.randomness
        try:
            slots = tuple(tuple(map(tuple, forms)) for forms in self.slots)
        except TypeError:
            raise ValueError("slots must list each party's forms as lists of coefficients") from None
        object.__setattr__(self, "slots", slots)
        if type(q) is not int or not q < MAX_MODULUS:
            raise ValueError(f"modulus must be an integer below 2**31, got {q!r}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        if type(randomness) is not int or randomness < 0:
            raise ValueError(f"randomness must be a nonnegative integer, got {randomness!r}")
        if not 1 <= len(slots) <= MAX_PARTIES:
            raise ValueError(f"party count must be in 1..{MAX_PARTIES}, got {len(slots)}")
        for form in chain.from_iterable(slots):
            if len(form) != randomness + 1:
                raise ValueError(f"form {form} needs {randomness + 1} coefficients")
        coefficients = list(chain.from_iterable(chain.from_iterable(slots)))
        if coefficients and not (set(map(type, coefficients)) <= {int}
                                 and min(coefficients) >= 0 and max(coefficients) < q):
            form = next(f for f in chain.from_iterable(slots)
                        if not all(type(c) is int and 0 <= c < q for c in f))
            raise ValueError(f"form {form} needs integer coefficients in 0..{q - 1}")
        # per party, its forms as sparse rows {column: coefficient}, r1..rR
        # in columns 0..R-1 and the secret last, in column R
        rows = tuple([{c: x for c, x in enumerate(form[1:] + form[:1]) if x} for form in forms]
                     for forms in slots)
        basis = {}
        for row in chain.from_iterable(rows):
            _insert(basis, row, q, randomness)
        if len(basis) < randomness:  # no pivot but on a random column
            raise ValueError("duplicate symbol tuple in the table for b = 0: "
                             "two random choices give the same shares")
        object.__setattr__(self, "_rows", rows)

    @property
    def n(self) -> int:
        return len(self.slots)

    def authorized(self) -> int:
        """Truth table of the groups that recover the secret: bit m is set
        iff e0 lies in the row span of group m's forms.  Recomputed on
        every call: a depth-first walk adds one party at a time, above
        the group's highest, to a copy of the group's elimination basis.
        Once a group recovers the secret, so does every group the walk
        grows from it, and the walk marks them without extending."""
        n, q, secret, rows = self.n, self.q, self.randomness, self._rows
        table = 0
        stack = [(0, {}, 0)]  # (group, its basis, first party the walk may add)
        while stack:
            mask, basis, first = stack.pop()
            for j in range(first, n):
                grown = dict(basis)
                for row in rows[j]:
                    if _insert(grown, row, q, secret):
                        above = (1 << n) - (2 << j)
                        sub = above
                        while True:
                            table |= 1 << (mask | 1 << j | sub)
                            if not sub:
                                break
                            sub = (sub - 1) & above
                        break
                else:
                    stack.append((mask | 1 << j, grown, j + 1))
        return table

    @cached_property
    def distributions(self) -> tuple[JointDistribution, JointDistribution]:
        """The share tables, indexed by the secret bit."""
        q = self.q
        sizes = tuple(q ** len(forms) for forms in self.slots)
        rows = q ** self.randomness
        shifted = {}  # c -> v -> [v + t*c mod q for t in GF(q)]
        columns = []
        for forms in self.slots:
            packed = [0] * 2 * rows
            for c0, *coeffs in forms:
                # column by column over (b, r1, ..., rR), b most significant:
                # the values for r1..rj are those for r1..r(j-1), each
                # followed by its q shifts by t*cj
                values = [0, c0]
                for c in coeffs:
                    if c not in shifted:
                        shifted[c] = [[(v + t * c) % q for t in range(q)] for v in range(q)]
                    values = list(chain.from_iterable(map(shifted[c].__getitem__, values)))
                packed = [p * q + v for p, v in zip(packed, values)]
            columns.append(packed)
        symbols = list(zip(*columns))
        # range, weights, sum and distinct tuples hold by construction
        return tuple(JointDistribution._trusted(self.n, sizes, [(sym, 1) for sym in table], rows)
                     for table in (symbols[:rows], symbols[rows:]))

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


def scheme_state_pair(s: Scheme, weight=Fraction(1, 2)) -> StatePair:
    """State pair (table for 0, weight-mix of the two tables): the dense
    form of a ray factor, built from the full tables."""
    rho0, rho1 = s.distributions
    return StatePair(rho0, mix(rho0, rho1, weight))
