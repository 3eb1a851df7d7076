"""Classical secret-sharing schemes for a single bit, all linear.

A scheme fixes a register layout (each party holds an ordered list of
share slots) and, for each secret value b in {0, 1}, an exact uniform
JointDistribution over share assignments: every share tuple has weight 1
over the table size.  In those distributions a party's symbol is its
slot values in mixed radix, first slot most significant.

Every scheme here is linear (a monotone span program): each slot holds a
linear form c0*b + c1*r1 + ... + cR*rR over GF(q) in the secret and R
uniform random symbols, packed into one int as its coefficient list
written in base q (see Scheme), so the secret's coefficient is digit 0.
Each secret's table is the injective image of GF(q)^R, with exactly
q**R atoms, and is enumerated on every read and never kept, so a scheme
holds only its forms and its authorized table.

Linearity decides a group's view by rank alone.  Group S's marginal is
uniform on a coset of the image of S's random columns, shifted by b
times S's secret column.  The two cosets coincide unless the secret
column e0 = (1, 0, ..., 0) lies in the row span of S's forms, and are
disjoint when it does: then S recovers b, otherwise its view does not
depend on b.  One elimination, _walk, finds the table: it extends one
GF(q) basis party by party, first along the prefix chain of the parties,
whose last basis gives the rank check, then along the other branches of
a walk of the subsets, records each group where the walk first finds the
secret, and closes those groups upward.  The table depends on the layout
(q, forms, R) alone, so _walk is memoised by layout, the 256 most recent
kept as realize._plan keeps its plans: a scheme equal to one built
recently takes its table, whether or not that one is still alive.
Elimination reduces the highest column first and the secret's last.
Over GF(2) a row is the packed int itself, reduced by XOR against a
basis keyed by bit length, Gaussian elimination on machine words as in
M4RI (Albrecht and Bard).  Base-q digits do not add digit by digit in an
int, so over q > 2 a row is the list of its form's digits.

Every scheme here is Scheme(*formula_layout(n, formula, q)): the secret
shared down a monotone formula of threshold gates (Benaloh and Leichter
1988).  Weighted Shamir sharing is one k-of-m gate with each party a
leaf once per share, q a prime above m, and the XOR scheme (Ito, Saito
and Nishizeki 1987) is the flat DNF over GF(2).  A scheme realizes the
up-set u exactly when authorized() equals u.table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

from .lattice import UpSet, _closure, validate_party_count
from .record import Record
from .states import JointDistribution, StatePair, mix

#: largest field size a scheme may use; is_prime is exact up to it
MAX_MODULUS = 1 << 31


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: division by 2, 3, 5 and 7 decides every
    m below 121, and those four bases, exact below 3 215 031 751, the rest
    up to MAX_MODULUS."""
    for p in (2, 3, 5, 7):
        if m % p == 0:
            return m == p
    if m < 121:
        return m > 1
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s with d odd
    d = (m - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


def smallest_prime_above(m: int) -> int:
    p = m + 1
    while not is_prime(p):
        p += 1
    return p


_NOT_LISTS = "slots must list each party's forms as packed ints or as lists of coefficients"
_NOT_INJECTIVE = ("duplicate symbol tuple in the table for b = 0: "
                  "two random choices give the same shares")


def _extend_gf2(basis: dict[int, int], rows) -> bool:
    """Reduce each packed GF(2) row by the echelon basis {bit length: row
    of that length}, highest column first, and enter what is left.  The
    secret's bit is bit 0, so a row reduced to 1 is not entered, and
    True, when some row was, means that e0 lies in the span."""
    recovers = False
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                if row == 1:
                    recovers = True
                else:
                    basis[top] = row
                break
            row ^= pivot
    return recovers


def _digits(f: int, q: int) -> list[int]:
    """f's base-q digits, lowest first, up to its highest nonzero one."""
    digits = []
    while f:
        f, c = divmod(f, q)
        digits.append(c)
    return digits


def _extend_gfq(q: int, basis: dict[int, list[int]], rows) -> bool:
    """_extend_gf2 over GF(q), on digit lists (0 past their end) keyed by
    their highest nonzero column: basis rows are kept with 1 there, and a
    row is replaced, never changed, so rows may be shared between bases."""
    recovers = False
    for row in rows:
        for col in range(len(row) - 1, -1, -1):
            f = row[col]
            if f:
                pivot = basis.get(col)
                if pivot is not None:
                    row = [(x - f * y) % q for x, y in zip(row, pivot)]
                    continue
                if col == 0:
                    recovers = True
                else:
                    inverse = pow(f, -1, q)
                    basis[col] = [x * inverse % q for x in row]
                break
    return recovers


@lru_cache(maxsize=256)
def _walk(q: int, forms, randomness: int) -> int:
    """The one elimination: the authorized table of the layout (q, forms,
    R), or ValueError if the random columns' rank is below R; a refusal
    is never cached.  A row is the packed form itself over GF(2), its
    digit list over GF(q), so rows cost what the forms hold, not R.  One
    basis takes the prefix chain {0}, {0, 1}, ..., [n], keeping each
    prefix's basis; the last gives the rank.  A depth-first walk from
    each prefix that does not recover the secret then adds one party at
    a time, above the group's highest, to a copy of the group's basis
    (the last party to the basis itself), and records, without
    extending, each group that first recovers it.  Every recovering
    group holds the first recovering prefix of its parties: the table
    closes the records."""
    n = len(forms)
    if q == 2:
        rows, extend = forms, _extend_gf2
    else:
        rows, extend = [[_digits(f, q) for f in party] for party in forms], partial(_extend_gfq, q)
    stack, basis, found = [], {}, 0  # stack: (group, its basis, first party the walk may add)
    for j in range(n):
        if not found and j < n - 1:  # the prefix's branches add a party above j
            stack.append(((1 << j) - 1, dict(basis), j + 1))
        if extend(basis, rows[j]) and not found:
            found = 1 << ((2 << j) - 1)
    if len(basis) < randomness:  # no pivot but on a random column
        raise ValueError(_NOT_INJECTIVE)
    while stack:
        mask, basis, first = stack.pop()
        for j in range(first, n):
            grown = dict(basis) if j < n - 1 else basis
            if extend(grown, rows[j]):
                found |= 1 << (mask | 1 << j)
            elif j < n - 1:
                stack.append((mask | 1 << j, grown, j + 1))
    return _closure(found, n)


class Scheme(Record):
    """Scheme given by its generator rows, linear forms over GF(q), q prime.

    Scheme(q, slots, R): slots[i] lists party i+1's slots, each the form
    c0*b + c1*r1 + ... + cR*rR mod q, R = randomness, given either as its
    coefficient sequence (c0, c1, ..., cR), integers in range(q), or
    packed into one int, that sequence written in base q: digit i is ci.
    A scheme holds its forms once, packed, per party in forms;
    coefficient_lists unpacks them on every call.
    A layout whose random columns have rank below R maps two random
    choices to one share tuple, and is refused as a duplicate, by the
    first pass of the layout's one walk, which also builds the
    authorized() table; the constructor takes it from _walk after every
    other check.  distribution(b), the one enumerator of a share table,
    lists the share tuples of all (r1, ..., rR) in GF(q)^R, each with
    weight 1, anew on every call; table(b) is its atoms.  A scheme keeps
    its fields and its table in its dict.
    """

    _fields = ("q", "forms", "randomness")

    def __init__(self, q: int, slots, randomness: int):
        try:
            slots = tuple(map(tuple, slots))
        except TypeError:
            raise ValueError(_NOT_LISTS) from None
        if type(q) is not int or not q < MAX_MODULUS:
            raise ValueError(f"modulus must be an integer below 2**31, got {q!r}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        if type(randomness) is not int or randomness < 0:
            raise ValueError(f"randomness must be a nonnegative integer, got {randomness!r}")
        validate_party_count(len(slots))
        forms, flat = [], []  # one pass: each coefficient sequence is packed as it is checked
        for party in slots:
            start = len(flat)
            for form in party:
                if type(form) is not int:
                    if type(form) is not list and type(form) is not tuple:
                        raise ValueError(_NOT_LISTS)
                    if len(form) != randomness + 1:
                        raise ValueError(f"form {tuple(form)} needs {randomness + 1} coefficients")
                    value = 0
                    for c in reversed(form):  # Horner from digit R down to digit 0
                        if type(c) is not int or not 0 <= c < q:
                            raise ValueError(f"form {tuple(form)} needs integer coefficients "
                                             f"in 0..{q - 1}")
                        value = value * q + c
                    form = value
                flat.append(form)
            forms.append(tuple(flat[start:]))
        if len(flat) < randomness:  # fewer forms than R cannot have rank R
            raise ValueError(_NOT_INJECTIVE)
        if flat:
            # 2**short <= q**(R + 1): a form shorter than short bits fits, so
            # the bound itself is built, once, only for a form about as long
            short = (q.bit_length() - 1) * (randomness + 1)
            bound = pow(q, randomness + 1) if max(flat).bit_length() > short else 1 << short
            if not (min(flat) >= 0 and max(flat) < bound):
                form = next(f for f in flat if not 0 <= f < bound)
                raise ValueError(f"packed form {form} needs {randomness + 1} digits in base {q}")
        forms = tuple(forms)
        vars(self).update(q=q, forms=forms, randomness=randomness,  # frozen: no __setattr__
                          _authorized=_walk(q, forms, randomness))

    @property
    def n(self) -> int:
        return len(self.forms)

    def coefficient_lists(self) -> list[list[list[int]]]:
        """Each party's forms as coefficient lists [c0, c1, ..., cR]: the
        base-q digits of each packed form."""
        q, width = self.q, self.randomness + 1
        return [[(_digits(f, q) + [0] * width)[:width] for f in forms] for forms in self.forms]

    def authorized(self) -> int:
        """Truth table of the groups that recover the secret: bit m is set
        iff e0 lies in the row span of group m's forms."""
        return self._authorized

    def distribution(self, b: int) -> JointDistribution:
        """Secret b's share table, built anew on each call: q**R atoms,
        which a kept scheme should not hold."""
        q, slots = self.q, self.coefficient_lists()
        sizes = tuple(q ** len(forms) for forms in slots)
        rows = q ** self.randomness
        shifted = {}  # c -> v -> [v + t*c mod q for t in GF(q)]
        columns = []
        for forms in slots:
            packed = [0] * rows
            for c0, *coeffs in forms:
                # column by column over (r1, ..., rR): the values for
                # r1..rj are those for r1..r(j-1), each followed by its q
                # shifts by t*cj
                values = [b * c0]
                for c in coeffs:
                    if c not in shifted:
                        shifted[c] = [[(v + t * c) % q for t in range(q)] for v in range(q)]
                    values = list(chain.from_iterable(map(shifted[c].__getitem__, values)))
                packed = [p * q + v for p, v in zip(packed, values)]
            columns.append(packed)
        # range, weights, sum and distinct tuples hold by construction
        return JointDistribution._trusted(self.n, sizes, [(sym, 1) for sym in zip(*columns)], rows)

    def table(self, b: int):
        return self.distribution(b).atoms


def formula_layout(n: int, formula, q: int):
    """(q, slots, R) of the scheme that shares the secret down a monotone
    formula over GF(q), forms packed as in Scheme.  A leaf, a party in
    0..n-1, appends its input form s to the party's slots.  A k-of-m gate
    (k, children) hands s on: as it is if k = 1 (OR); as a fresh bit to
    each child but the last, and s plus those bits to the last, if k = m
    over GF(2) (AND); else as s + r_a*x + ... + r_(a+k-2)*x**(k-1) to
    child x = 1..m (Shamir, q > m).  A gate takes its fresh digits, from 1
    up, before its children do, so a child's packed form is an integer
    sum.  Other gates, and leaves outside 0..n-1, raise ValueError."""
    slots, used = [[] for _ in range(n)], 1  # used: the next fresh digit

    def share(gate, s):
        nonlocal used
        k, children = gate
        m = len(children)
        if type(k) is not int or not 1 <= k <= m:
            raise ValueError(f"threshold must satisfy 1 <= k <= {m}, got {k!r}")
        if k == 1:
            forms = [s] * m
        elif q == 2 and k == m:
            forms = [1 << d for d in range(used, used + m - 1)]
            forms.append(s + sum(forms))
        elif m < q:
            forms = [s + sum(pow(x, j, q) * q ** (used + j - 1) for j in range(1, k))
                     for x in range(1, m + 1)]
        else:
            raise ValueError(f"a {k}-of-{m} gate needs q > {m} for distinct points, got q={q}")
        used += k - 1
        for child, form in zip(children, forms):
            if type(child) is not int:
                share(child, form)
            elif 0 <= child < n:
                slots[child].append(form)
            else:
                raise ValueError(f"leaf {child} is not a party in 0..{n - 1}")

    share((1, (formula,)) if type(formula) is int else formula, 1)  # a leaf root: an OR of one
    return q, slots, used - 1


def dnf_formula(u: UpSet):
    """An OR of one AND per minimal set of u, over its parties in order."""
    return 1, tuple((m.bit_count(), tuple(i for i in range(u.n) if m >> i & 1))
                    for m in u.minimal_sets())


def dnf_scheme(u: UpSet) -> Scheme:
    """XOR construction: an independent all-or-nothing GF(2) sharing per
    minimal authorized set, so 2**sum(|S| - 1) atoms.  Realizes exactly u."""
    return Scheme(*formula_layout(u.n, dnf_formula(u), 2))


def scheme_state_pair(s: Scheme, weight=Fraction(1, 2)) -> StatePair:
    """State pair (table for 0, weight-mix of the two tables): the dense
    form of a ray factor, built from the full tables."""
    rho0 = s.distribution(0)
    return StatePair(rho0, mix(rho0, s.distribution(1), weight))
