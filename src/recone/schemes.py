"""Classical secret-sharing schemes for a single bit.

A scheme fixes a register layout (each party holds an ordered list of
share slots) and, for each secret value b in {0, 1}, an exact uniform
JointDistribution over share assignments: every share tuple has weight 1
over the table size.  In those distributions a party's symbol is its
slot values in mixed radix, first slot most significant.  Three
constructions are provided:

* Shamir threshold tables over a prime field, with a weighted variant
  that hands several consecutive shares to one party;
* a per-minimal-set XOR construction that realizes an arbitrary access
  structure: each minimal authorized set gets its own independent
  all-or-nothing additive sharing over GF(2);
* a per-minimal-set threshold variant where every clause of size m runs
  an (m, m) Shamir scheme over the smallest prime above m.

Ray realization (recone.realize) builds, per ray, the smaller of two:
the XOR construction, with 2**sum(|S| - 1) atoms over the minimal sets S,
and, for a k-of-T threshold up-set, the weighted Shamir scheme with one
share per party of T and none elsewhere, with q**(k - 1) atoms over
GF(q), q the smallest prime above |T|.  The per-clause threshold variant
is never smaller than XOR (p**(m - 1) >= 2**(m - 1) per clause), so only
the demos use it.

An exhaustive auditor checks the defining property subset by subset
against an up-set of authorized groups: authorized groups see disjoint
supports for b = 0 and b = 1, while unauthorized groups see identical
marginal distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


def shamir_table(p: int, k: int, m: int, b: int) -> list[tuple[int, ...]]:
    """All share tuples (y(1), ..., y(m)) of the degree-(k-1) polynomials
    with constant term b over GF(p); exactly p^(k-1) tuples, uniform.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p <= m:
        raise ValueError(f"need p > share count for distinct evaluation points, got p={p}, m={m}")
    if not 1 <= k <= m:
        raise ValueError(f"threshold must satisfy 1 <= k <= {m}, got {k}")
    if b not in (0, 1):
        raise ValueError(f"secret must be a bit, got {b}")
    tuples = []
    for coeffs in product(range(p), repeat=k - 1):
        shares = []
        for x in range(1, m + 1):
            y = b
            power = 1
            for a in coeffs:
                power = power * x % p
                y += a * power
            shares.append(y % p)
        tuples.append(tuple(shares))
    return tuples


def xor_share_table(m: int, b: int) -> list[tuple[int, ...]]:
    """All-or-nothing additive sharing of a bit among m slots: the first
    m - 1 slots are free and the last carries the parity."""
    if m < 1:
        raise ValueError("need at least one slot")
    if b not in (0, 1):
        raise ValueError(f"secret must be a bit, got {b}")
    out = []
    for free in product((0, 1), repeat=m - 1):
        parity = b
        for r in free:
            parity ^= r
        out.append(free + (parity,))
    return out


@dataclass(frozen=True)
class Scheme:
    """Register layout plus one uniform share distribution per secret bit.

    registers[i] lists the alphabet sizes of party i+1's slots; in
    distributions[b], party i+1's symbol packs its slot values in mixed
    radix over that layout, first slot most significant.
    """

    registers: tuple[tuple[int, ...], ...]
    distributions: tuple[JointDistribution, JointDistribution]  # index by secret bit

    def __post_init__(self):
        regs = tuple(tuple(r) for r in self.registers)
        object.__setattr__(self, "registers", regs)
        sizes = tuple(math.prod(r) for r in regs)
        for d in self.distributions:
            if d.alphabet_sizes != sizes:
                raise ValueError(
                    f"alphabets {d.alphabet_sizes} do not match the register layout {regs}")
            if d.denominator != len(d.atoms):  # positive integer weights: all 1
                raise ValueError("share tables must be uniform over their support")

    @property
    def n(self) -> int:
        return len(self.registers)

    def table(self, b: int):
        return self.distributions[b].atoms


def weighted_threshold_scheme(n: int, allocation, k: int, p: int) -> Scheme:
    """Shamir scheme whose m = sum(allocation) shares go to the parties in
    consecutive runs; a group is authorized iff its share count reaches k.
    A party allocated no share holds one degenerate (1,) register, as in
    the XOR construction for a party outside every clause.
    """
    allocation = tuple(allocation)
    if len(allocation) != n or any(a < 0 for a in allocation):
        raise ValueError(f"need one nonnegative share count per party, got {allocation}")
    registers = tuple((p,) * a if a else (1,) for a in allocation)
    sizes = tuple(p ** a for a in allocation)
    distributions = []
    for b in (0, 1):
        raw = shamir_table(p, k, sum(allocation), b)
        atoms = []
        for shares in raw:
            rest = iter(shares)
            sym = []
            for a in allocation:
                flat = 0
                for _ in range(a):
                    flat = flat * p + next(rest)
                sym.append(flat)
            atoms.append((tuple(sym), 1))
        distributions.append(JointDistribution(n, sizes, tuple(atoms), len(atoms)))
    return Scheme(registers, tuple(distributions))


def _clause_scheme(u: UpSet, clause_table, clause_alphabet) -> Scheme:
    """Product of independent per-clause sharings, one clause per minimal
    authorized set.  Within a clause, shares go to its members in
    ascending party order; parties outside every clause keep a single
    degenerate register so each party always holds something.
    """
    members = [parties(c) for c in u.minimal_sets()]
    alphabets = [clause_alphabet(len(mem)) for mem in members]
    registers: list[list[int]] = [[] for _ in range(u.n)]
    for mem, alphabet in zip(members, alphabets):
        for party in mem:
            registers[party - 1].append(alphabet)
    registers = tuple(tuple(r) or (1,) for r in registers)
    sizes = tuple(math.prod(r) for r in registers)
    distributions = []
    for b in (0, 1):
        per_clause = [clause_table(len(mem), b) for mem in members]
        symbols = []
        for combo in product(*per_clause):
            sym = [0] * u.n
            for mem, alphabet, shares in zip(members, alphabets, combo):
                for party, share in zip(mem, shares):
                    sym[party - 1] = sym[party - 1] * alphabet + share
            symbols.append(tuple(sym))
        atoms = tuple((sym, 1) for sym in symbols)
        distributions.append(JointDistribution(u.n, sizes, atoms, len(atoms)))
    return Scheme(registers, tuple(distributions))


def dnf_scheme(u: UpSet) -> Scheme:
    """XOR construction: an independent all-or-nothing GF(2) sharing per
    minimal authorized set.  Realizes exactly the given up-set.
    """
    return _clause_scheme(u, xor_share_table, lambda m: 2)


def threshold_clause_scheme(u: UpSet) -> Scheme:
    """Threshold construction: every minimal set of size m runs its own
    (m, m) Shamir scheme over GF(smallest prime above m)."""

    def table(m, b):
        return shamir_table(smallest_prime_above(m), m, m, b)

    return _clause_scheme(u, table, smallest_prime_above)


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
