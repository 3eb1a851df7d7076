import hashlib
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import pytest
from conftest import (
    closure_members,
    shamir_scheme,
    submask_walk_authorized,
    trial_division_prime,
    upward_closure,
)
from hypothesis import assume, given, settings, strategies as st

from recone import realize, schemes
from recone.cone import layer_cake_decompose
from recone.lattice import UpSet, enumerate_upsets, mask_label
from recone.realize import _dyadic_weight
from recone.schemes import (
    Scheme,
    dnf_scheme,
    formula_layout,
    is_prime,
    scheme_state_pair,
    smallest_prime_above,
)
from recone.states import Factor, JointDistribution, marginal, re_vector

A, B, C = 0b001, 0b010, 0b100
AB, BC = 0b011, 0b110

RAY6_STRUCTURE = upward_closure({A, BC}, 3)
TWO_PAIRS_STRUCTURE = upward_closure({0b0011, 0b1100}, 4)
# two (2, 2) Shamir clauses over GF(3): A = b + r1, B = b + 2 r1, C = b + r2, D = b + 2 r2
TWO_GF3_CLAUSES = [[(1, 1, 0)], [(1, 2, 0)], [(1, 0, 1)], [(1, 0, 2)]]


@dataclass(frozen=True)
class FieldElement:
    """Element of the prime field GF(p); the oracle for Shamir correctness."""

    value: int
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"field modulus must be at least 2, got {self.p}")
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "FieldElement") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.value + other.value, self.p)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.value - other.value, self.p)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.value * other.value, self.p)

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no inverse")
        return FieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        return self * other.inverse()


def dense_authorized(s: Scheme) -> int:
    """Truth table of the groups that recover the secret, read from the
    share tables, the oracle for Scheme.authorized's rank test: bit m is
    set iff group m's marginals for the two secret values have disjoint
    supports.  Asserts the rest of the secret-sharing property, that
    every other group sees identical marginals.  Exact arithmetic."""
    table = 0
    for mask in range(1, 1 << s.n):
        m0, m1 = (marginal(s.distribution(b), mask) for b in (0, 1))
        if {sym for sym, _ in m0.atoms}.isdisjoint(sym for sym, _ in m1.atoms):
            table |= 1 << mask
        else:
            assert m0 == m1, f"group {mask_label(mask)} sees the secret only in part"
    return table


SMALL_UPSETS = [u for n in (1, 2, 3, 4) for u in enumerate_upsets(n)]
CANDIDATES = [(u, kind, build) for u in SMALL_UPSETS for kind, _, build in realize._candidates(u)]


def interpolate_at_zero(points, p: int) -> int:
    """Lagrange interpolation at x = 0 over GF(p) from (x, y) pairs."""
    total = FieldElement(0, p)
    for i, (xi, yi) in enumerate(points):
        term = FieldElement(yi, p)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * FieldElement(xj, p) / (FieldElement(xj, p) - FieldElement(xi, p))
        total = total + term
    return total.value


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [m for m in range(1 << 16) if is_prime(m) != trial_division_prime(m)] == []
    carmichael = (561, 1105, 1729)
    # 1373653 is also a strong pseudoprime to base 3, and 25326001 to bases 3 and 5
    strong_base_2 = (2047, 3277, 4033, 4681, 8321, 1373653, 25326001)
    # 46327 and 46337 are the two largest primes below sqrt(2**31)
    near_2_31 = (*range(2 ** 31 - 100, 2 ** 31), 46337 ** 2, 46327 * 46337)
    for m in (*carmichael, *strong_base_2, *near_2_31):
        assert is_prime(m) == trial_division_prime(m), m
    assert not any(map(is_prime, carmichael + strong_base_2 + (46337 ** 2,)))
    assert is_prime(2 ** 31 - 1) and is_prime(46337) and not is_prime(2 ** 31 - 3)
    assert smallest_prime_above(4) == 5
    assert smallest_prime_above(2) == 3
    assert smallest_prime_above(1) == 2


def test_field_arithmetic():
    x = FieldElement(3, 5)
    y = FieldElement(4, 5)
    assert (x + y).value == 2
    assert (x * y).value == 2
    assert (x - y).value == 4
    assert (y / x).value == 3  # 4 * 3^-1 = 4 * 2 = 8 = 3 mod 5
    assert x.inverse().value == 2
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, 5).inverse()
    with pytest.raises(ValueError):
        x + FieldElement(1, 7)


def shamir_table(p, k, m, b):
    """Share tuples, one share per party, of the k-of-m Shamir scheme."""
    return [sym for sym, _ in shamir_scheme(m, (1,) * m, k, p).table(b)]


def test_shamir_table_gf5():
    assert shamir_table(5, 2, 4, 0) == sorted([
        (0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)])
    assert shamir_table(5, 2, 4, 1) == sorted([
        (1, 1, 1, 1), (2, 3, 4, 0), (3, 0, 2, 4), (4, 2, 0, 3), (0, 4, 3, 2)])


def test_shamir_table_constant_polynomial():
    assert shamir_table(3, 1, 2, 1) == [(1, 1)]


def test_shamir_table_parameter_errors():
    with pytest.raises(ValueError):
        Scheme(*formula_layout(3, (2, (0, 1, 2)), 4))  # not prime
    with pytest.raises(ValueError):
        Scheme(*formula_layout(3, (2, (0, 0, 1, 1, 2)), 5))  # q <= share count
    with pytest.raises(ValueError):
        Scheme(*formula_layout(4, (0, (0, 1, 2, 3)), 5))
    with pytest.raises(ValueError):
        Scheme(*formula_layout(2, (3, (0, 1)), 5))  # k above the share count
    with pytest.raises(ValueError, match="1 <= k <= 2, got 1.5"):
        Scheme(*formula_layout(2, (1.5, (0, 1)), 5))


def test_linear_scheme_rejects_bad_layouts():
    with pytest.raises(ValueError, match="needs 2 coefficients"):
        Scheme(3, [[(1, 1)], [(1, 2, 0)]], 1)
    # r2 reaches no slot, so every share tuple comes up twice
    with pytest.raises(ValueError, match="duplicate symbol tuple"):
        Scheme(2, [[(1, 1, 0)], [(1, 0, 0)]], 2)
    # r1 and r2 reach the slots only as r1 + r2
    with pytest.raises(ValueError, match="duplicate symbol tuple"):
        Scheme(3, [[(1, 1, 1)], [(0, 2, 2)]], 2)
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        Scheme(4, [[(1, 1)], [(1, 3)]], 1)
    for coefficient in (True, 1.0, -1, 3):
        with pytest.raises(ValueError, match="integer coefficients in 0..2"):
            Scheme(3, [[(1, coefficient)]], 1)
    with pytest.raises(ValueError, match="below 2"):
        Scheme(2 ** 61 - 1, [[(1, 1)]], 1)
    with pytest.raises(ValueError, match="party count"):
        Scheme(2, [[]] * 9, 0)
    for slots in (5, [1]):  # not a list of parties, or a party not a list of forms
        with pytest.raises(ValueError, match="as lists of coefficients"):
            Scheme(2, slots, 0)


def test_scheme_builds_no_table_until_read():
    scheme = dnf_scheme(TWO_PAIRS_STRUCTURE)
    kept = {"q", "forms", "randomness", "_authorized"}
    assert vars(scheme).keys() == kept
    assert scheme.authorized() == TWO_PAIRS_STRUCTURE.table
    assert vars(scheme).keys() == kept
    assert len(scheme.table(0)) == 4 and vars(scheme).keys() == kept  # built, not kept


def test_a_table_read_builds_that_table_alone(monkeypatch):
    scheme, built = shamir_scheme(3, (1, 1, 1), 2, 5), []
    both = scheme.distribution(0), scheme.distribution(1)
    trusted = JointDistribution._trusted.__func__
    monkeypatch.setattr(JointDistribution, "_trusted", classmethod(
        lambda cls, *args, **kwargs: built.append(args) or trusted(cls, *args, **kwargs)))
    for b in (0, 1):
        assert scheme.distribution(b) == both[b] and scheme.table(b) == both[b].atoms
    assert len(built) == 4  # one table per read


@pytest.mark.parametrize("kernel, u, build", [
    ("_extend_gf2", TWO_PAIRS_STRUCTURE, dnf_scheme),
    ("_extend_gfq", upward_closure({AB, 0b101, BC}, 3),
     lambda u: shamir_scheme(3, (1, 1, 1), 2, 5)),
], ids=["gf2", "gf5"])
def test_authorized_walks_once_per_scheme(kernel, u, build, monkeypatch):
    realize._plan.cache_clear()  # a kept scheme equal to the one built here was walked already
    schemes._walk.cache_clear()
    calls, extend = [], getattr(schemes, kernel)
    monkeypatch.setattr(schemes, kernel, lambda *args: calls.append(args) or extend(*args))
    scheme = build(u)
    walked = len(calls)
    assert walked  # construction walks
    assert scheme.authorized() == u.table and len(calls) == walked
    equal = build(u)  # an equal scheme, another object: the walk cache lends the table
    assert equal is not scheme and equal == scheme
    assert equal.authorized() == u.table and len(calls) == walked
    del scheme, equal
    third = build(u)  # no equal scheme is alive: the cache keeps the table, not a scheme
    assert third.authorized() == u.table and len(calls) == walked
    schemes._walk.cache_clear()
    again = build(u)  # a cold cache walks again, to the same table
    assert again == third and again.authorized() == u.table and len(calls) == 2 * walked


@pytest.mark.parametrize("q, slots, randomness, message", [
    (2, [[2], [2], [2]], 2, "duplicate symbol tuple"),  # r1 thrice: rank 1 below R = 2
    (3, [[1], [27], [3]], 2, "packed form 27 needs 3 digits in base 3"),  # 27 = 3 ** (R + 1)
    (3, [[1], [(1, 1)], [3]], 2, r"form \(1, 1\) needs 3 coefficients"),
], ids=["rank", "range", "length"])
def test_a_refused_layout_never_enters_the_scheme_table(q, slots, randomness, message,
                                                         monkeypatch):
    calls, kernel = [], "_extend_gf2" if q == 2 else "_extend_gfq"
    extend = getattr(schemes, kernel)
    monkeypatch.setattr(schemes, kernel, lambda *args: calls.append(args) or extend(*args))
    with pytest.raises(ValueError, match=message) as first:
        Scheme(q, slots, randomness)
    # the prefix chain alone: a rank below R is refused before any branch is walked
    assert len(calls) <= len(slots)
    walked = len(calls)
    # the walk cache keeps no refusal: the second attempt walks as far again
    with pytest.raises(ValueError, match=message) as second:
        Scheme(q, slots, randomness)
    assert str(second.value) == str(first.value) and len(calls) == 2 * walked


def test_packed_forms_are_read_as_their_base_q_digits():
    # digit i in base q is the coefficient ci, the secret's c0 at digit 0
    packed = Scheme(3, [[1 + 1 * 3], [1 + 2 * 3], [1 + 1 * 9], [1 + 2 * 9]], 2)
    assert packed == Scheme(3, TWO_GF3_CLAUSES, 2) and packed.forms == ((4,), (7,), (10,), (19,))
    assert coefficient_tuples(packed) == tuple(map(tuple, TWO_GF3_CLAUSES))
    for form in (27, -1):
        with pytest.raises(ValueError, match=f"packed form {form} needs 3 digits in base 3"):
            Scheme(3, [[form], [1], [3]], 2)
    with pytest.raises(ValueError, match="as lists of coefficients"):
        Scheme(2, [[True]], 0)


def test_too_few_forms_are_refused_before_any_size_r_work():
    # fewer forms than R cannot have rank R; q ** (R + 1) would not fit in memory
    for q, slots, randomness in ((2, [[], []], 10 ** 9), (3, [[]] * 3, 10 ** 12)):
        with pytest.raises(ValueError, match="duplicate symbol tuple"):
            Scheme(q, slots, randomness)


def test_a_large_scheme_holds_its_forms_once():
    # R = 197 random bits: all 4-sets of eight parties plus ABC
    u = upward_closure({0b111} | {m for m in range(1 << 8) if m.bit_count() == 4}, 8)
    dnf_scheme(u)  # fills the lattice's caches first
    tracemalloc.start()
    try:
        scheme = dnf_scheme(u)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.randomness == 197
    assert retained < 128 * 1024


#: SHA-256 of the repr of every CANDIDATES scheme's slots, as the layouts
#: gave them when a Scheme kept each form as its coefficient tuple
CANDIDATE_SLOTS_SHA256 = "e2aa7d2f2c50f63f0e9671e4086fb526bd481f81b8f8e53780774033cd1718dc"


def coefficient_tuples(scheme):
    """Each party's forms as coefficient tuples (c0, c1, ..., cR)."""
    return tuple(tuple(map(tuple, forms)) for forms in scheme.coefficient_lists())


def assert_rebuilds_from_its_slots(scheme):
    again = Scheme(scheme.q, coefficient_tuples(scheme), scheme.randomness)
    assert again == scheme and hash(again) == hash(scheme)
    assert scheme.authorized() == scheme.authorized()


def test_candidates_rebuild_from_their_slots():
    slots = []
    for u, kind, build in CANDIDATES:
        scheme = build()
        assert_rebuilds_from_its_slots(scheme)
        slots.append(coefficient_tuples(scheme))
    assert hashlib.sha256(repr(slots).encode()).hexdigest() == CANDIDATE_SLOTS_SHA256


@pytest.mark.parametrize("p,k,m", [(5, 2, 4), (7, 3, 5), (3, 2, 2)])
def test_shamir_privacy(p, k, m):
    # any k-1 coordinates are uniform on GF(p)^(k-1) whatever the secret
    tables = {b: shamir_table(p, k, m, b) for b in (0, 1)}
    for coords in combinations(range(m), k - 1):
        counts = {}
        for b in (0, 1):
            counts[b] = {}
            for shares in tables[b]:
                key = tuple(shares[i] for i in coords)
                counts[b][key] = counts[b].get(key, 0) + 1
        expected = {key: p ** max(0, k - 1 - len(coords))
                    for key in product(range(p), repeat=len(coords))}
        assert counts[0] == expected
        assert counts[1] == expected


@pytest.mark.parametrize("p,k,m", [(5, 2, 4), (7, 3, 5), (3, 2, 2), (2, 1, 1)])
def test_shamir_correctness(p, k, m):
    # any k shares interpolate back to the secret at x = 0
    for b in (0, 1):
        for shares in shamir_table(p, k, m, b):
            for coords in combinations(range(m), k):
                points = [(i + 1, shares[i]) for i in coords]
                assert interpolate_at_zero(points, p) == b


def test_xor_share_table():
    # all-or-nothing sharing among m parties: the m-of-m XOR scheme
    def xor_share_table(m, b):
        return [sym for sym, _ in dnf_scheme(upward_closure({(1 << m) - 1}, m)).table(b)]

    assert xor_share_table(1, 1) == [(1,)]
    assert xor_share_table(2, 0) == [(0, 0), (1, 1)]
    assert xor_share_table(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def test_weighted_scheme_matches_ray6_structure():
    scheme = shamir_scheme(3, (2, 1, 1), 2, 5)
    assert scheme.q == 5 and [len(forms) for forms in scheme.forms] == [2, 1, 1]
    assert len(scheme.table(0)) == scheme.distribution(0).denominator == 5
    assert all(w == 1 for _, w in scheme.table(0))
    assert scheme.authorized() == RAY6_STRUCTURE.table


def test_two_of_two_scheme_realizes_pair_only():
    scheme = shamir_scheme(2, (1, 1), 2, 3)
    assert scheme.authorized() == UpSet(2, frozenset({0b11})).table


def test_single_party_scheme():
    scheme = shamir_scheme(1, (1,), 1, 2)
    assert scheme.table(0) == (((0,), 1),)
    assert scheme.table(1) == (((1,), 1),)
    assert [scheme.distribution(b).denominator for b in (0, 1)] == [1, 1]
    assert scheme.authorized() == UpSet(1, frozenset({1})).table


def test_authorized_table_names_the_groups_an_upset_gets_wrong():
    scheme = shamir_scheme(2, (1, 1), 2, 3)
    wrong = upward_closure({0b01}, 2)  # claims A alone suffices
    for recovers in (scheme.authorized(), dense_authorized(scheme)):
        # A is the one group the up-set gets wrong, and A cannot recover
        assert recovers ^ wrong.table == 1 << 0b01
        assert not recovers >> 0b01 & 1
    # the other way round: B alone recovers the secret of the 1-of-2 scheme
    scheme = shamir_scheme(2, (1, 1), 1, 3)
    for recovers in (scheme.authorized(), dense_authorized(scheme)):
        assert recovers ^ wrong.table == 1 << 0b10
        assert recovers >> 0b10 & 1


def test_rank_audit_agrees_with_the_dense_audit():
    # every candidate scheme of every up-set with n <= 4: the rank test,
    # the dense tables and the up-set give one truth table, so every
    # other up-set is told apart from it on the same groups
    for u, kind, build in CANDIDATES:
        scheme = build()
        assert dense_authorized(scheme) == scheme.authorized() == u.table, (kind, u)


@pytest.mark.parametrize("lam", [1, 1.7, 1050.5])
def test_rank_vector_is_bit_identical_to_the_dense_vector(lam):
    # every planner candidate, XOR and Shamir, of every up-set with n <= 4.
    # At 1050.5 bits p is a subnormal double, not a power of 2, whose 1/p
    # overflows a float, so both sides take log2 of each side of the ratio;
    # p's 24 significant bits put -log2(p) 2.47e-8 above lam
    weight = _dyadic_weight(lam)
    bits = {1050.5: 1050.5000000246907}.get(lam, lam)
    for u, kind, build in CANDIDATES:
        scheme = build()
        rank = re_vector(Factor(scheme, weight)).values
        assert repr(rank) == repr(re_vector(scheme_state_pair(scheme, weight)).values), (kind, u)
        assert rank == tuple(bits if x else 0.0 for x in u.indicator_values())


def test_rank_test_finds_every_upset_at_five():
    # the XOR layout of each of the 7 579 up-sets of five parties
    upsets = enumerate_upsets(5)
    assert len(upsets) == 7579
    for u in upsets:
        assert dnf_scheme(u).authorized() == u.table, u


@st.composite
def random_forms(draw):
    """(q, slots, R) of an injective layout over GF(q) with arbitrary
    forms, as a pair file may carry them: q in {2, 3, 5, 7, 11}, n <= 3,
    R <= 3."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 3))
    r = draw(st.integers(0, 3))
    form = st.tuples(*[st.integers(0, q - 1)] * (r + 1))
    slots = draw(st.lists(st.lists(form, max_size=3), min_size=n, max_size=n))
    # unit forms make the random columns full rank; they go to random parties
    for i in range(r):
        unit = tuple(int(j == i + 1) for j in range(r + 1))
        slots[draw(st.integers(0, n - 1))].append(unit)
    return q, slots, r


@st.composite
def random_layouts(draw):
    """A scheme of random_forms and a weight, exact or dyadic."""
    q, slots, r = draw(random_forms())
    den = draw(st.integers(2, 100))
    weight = Fraction(draw(st.integers(1, den - 1)), den) if draw(st.booleans()) else \
        _dyadic_weight(draw(st.floats(min_value=0.05, max_value=6)))
    return Scheme(q, slots, r), weight


@settings(max_examples=150, deadline=None)
@given(random_forms())
def test_random_forms_rebuild_from_their_slots(layout):
    q, slots, r = layout
    scheme = Scheme(q, slots, r)
    assert coefficient_tuples(scheme) == tuple(tuple(map(tuple, forms)) for forms in slots)
    assert all(packed == sum(c * q ** i for i, c in enumerate(coefficients))
               for party, forms in zip(scheme.forms, slots) for packed, coefficients in zip(party, forms))
    assert_rebuilds_from_its_slots(scheme)
    assert Scheme(q, scheme.forms, r) == scheme


@settings(max_examples=150, deadline=None)
@given(random_forms())
def test_authorized_closes_what_the_submask_walk_marks_on_any_forms(layout):
    scheme = Scheme(*layout)
    assert scheme.authorized() == submask_walk_authorized(scheme)


def test_authorized_closes_what_the_submask_walk_marks_on_every_n8_ray():
    for v in closure_members(8, 8, 20):
        for coeff, u in layer_cake_decompose(v).terms:
            scheme = realize.realize_ray(u, coeff).scheme
            assert scheme.authorized() == submask_walk_authorized(scheme) == u.table, u


@settings(max_examples=150, deadline=None)
@given(random_layouts())
def test_rank_vector_matches_the_dense_vector_on_any_forms(layout):
    scheme, weight = layout
    rank = re_vector(Factor(scheme, weight)).values
    dense = re_vector(scheme_state_pair(scheme, weight)).values
    assert repr(rank) == repr(dense)
    recovers = scheme.authorized()  # a family closed under supersets
    assert all(recovers >> (m | 1 << j) & 1
               for m in range(1, 1 << scheme.n) if recovers >> m & 1 for j in range(scheme.n))


def test_dnf_scheme_two_pair_clauses():
    scheme = dnf_scheme(TWO_PAIRS_STRUCTURE)
    assert scheme.q == 2 and [len(forms) for forms in scheme.forms] == [1, 1, 1, 1]
    atoms0 = {sym for sym, _ in scheme.table(0)}
    assert atoms0 == {(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)}
    assert scheme.authorized() == TWO_PAIRS_STRUCTURE.table


def test_dnf_scheme_single_party():
    scheme = dnf_scheme(UpSet(1, frozenset({1})))
    assert scheme.table(0) == (((0,), 1),)
    assert scheme.table(1) == (((1,), 1),)
    assert [scheme.distribution(b).denominator for b in (0, 1)] == [1, 1]


def test_dnf_scheme_ray6_clause_layout():
    scheme = dnf_scheme(RAY6_STRUCTURE)
    # clause one: A alone holds the bit; clause two: B free share, C parity
    assert scheme.q == 2 and [len(forms) for forms in scheme.forms] == [1, 1, 1]
    atoms1 = {sym for sym, _ in scheme.table(1)}
    assert atoms1 == {(1, 0, 1), (1, 1, 0)}
    assert scheme.authorized() == RAY6_STRUCTURE.table


def test_dnf_scheme_party_outside_all_clauses():
    # only AB is ever authorized at n=3, so C holds no slot and its
    # register is degenerate
    structure = upward_closure({AB}, 3)
    scheme = dnf_scheme(structure)
    assert scheme.forms[2] == () and scheme.distribution(0).alphabet_sizes[2] == 1
    assert scheme.authorized() == structure.table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dnf_scheme_exhaustive_small(n):
    for u in enumerate_upsets(n):
        assert dnf_scheme(u).authorized() == u.table, u


def formula_table(formula, n: int) -> int:
    """Truth table of a monotone formula of threshold gates: bit m is set
    iff group m satisfies it, a leaf counting once per occurrence."""
    def holds(node, mask):
        if type(node) is int:
            return bool(mask >> node & 1)
        k, children = node
        return sum(holds(child, mask) for child in children) >= k
    return sum(1 << mask for mask in range(1, 1 << n) if holds(formula, mask))


def widest_gate(node) -> int:
    return 0 if type(node) is int else max(len(node[1]), *map(widest_gate, node[1]))


@st.composite
def random_formulas(draw):
    """(n, formula, q), n <= 4: AND and OR gates over GF(2), or gates of
    any threshold over the smallest prime above the widest gate; the
    table has at most 2**12 atoms."""
    n = draw(st.integers(1, 4))
    gf2 = draw(st.booleans())

    def gate(children):
        threshold = (lambda m: st.sampled_from([1, m])) if gf2 else (lambda m: st.integers(1, m))
        return st.lists(children, min_size=1, max_size=4).flatmap(
            lambda kids: threshold(len(kids)).map(lambda k: (k, kids)))

    formula = draw(st.recursive(st.integers(0, n - 1), gate, max_leaves=10))
    q = 2 if gf2 else smallest_prime_above(widest_gate(formula))
    assume(q ** formula_layout(n, formula, q)[2] <= 2 ** 12)
    return n, formula, q


@settings(max_examples=100, deadline=None)
@given(random_formulas())
def test_formula_layout_realizes_its_formula(case):
    n, formula, q = case
    scheme = Scheme(*formula_layout(n, formula, q))
    assert dense_authorized(scheme) == scheme.authorized() == formula_table(formula, n)


# at least three gates deep, AND, OR and 2-of-3 gates mixed: 2-of-3 of
# A, B or (C and D), and BCD, over GF(5), and over GF(2) with the
# 2-of-3 gate written as the OR of its three pairs
B_OR_CD, BCD = (1, (1, (2, (2, 3)))), (3, (1, 2, 3))
NESTED_FORMULAS = [
    (4, (2, (0, B_OR_CD, BCD)), 5),
    (4, (1, ((2, (0, B_OR_CD)), (2, (0, BCD)), (2, (B_OR_CD, BCD)))), 2),
]


@pytest.mark.parametrize("n,formula,q", NESTED_FORMULAS)
def test_nested_formula_layout(n, formula, q):
    scheme = Scheme(*formula_layout(n, formula, q))
    assert dense_authorized(scheme) == scheme.authorized() == formula_table(formula, n)


def test_formula_layout_by_hand():
    # A and (B or C): A holds r1, B and C both hold b + r1
    assert formula_layout(3, (2, (0, (1, (1, 2)))), 2) == (2, [[0b10], [0b11], [0b11]], 1)
    # the flat XOR scheme of the same up-set spends a bit per clause
    assert dnf_scheme(upward_closure({AB, 0b101}, 3)).randomness == 2
    # example6: (A and B) or (C and D), two 2-of-2 Shamir gates over GF(3)
    assert formula_layout(4, (1, ((2, (0, 1)), (2, (2, 3)))), 3) == \
        (3, [[1 + 1 * 3], [1 + 2 * 3], [1 + 1 * 9], [1 + 2 * 9]], 2)


@pytest.mark.parametrize("n,formula,q,message", [
    (3, (2, (0, 1, 2)), 2, "needs q > 3"),  # 1 < k < m over GF(2)
    (4, (2, (0, 1, 2, 3)), 3, "needs q > 4"),
    (3, (3, (0, 1, 2)), 3, "needs q > 3"),  # an AND over GF(3) is Shamir
    (2, (0, (0, 1)), 3, "1 <= k <= 2, got 0"),
    (2, (3, (0, 1)), 3, "1 <= k <= 2, got 3"),
    (2, (1, ()), 3, "1 <= k <= 0, got 1"),
    (2, (1.0, (0, 1)), 3, "1 <= k <= 2, got 1.0"),
    (2, (1, (0, 2)), 3, "leaf 2"),
    (2, (1, (-1, 1)), 3, "leaf -1"),
])
def test_formula_layout_refusals(n, formula, q, message):
    with pytest.raises(ValueError, match=message):
        formula_layout(n, formula, q)


def test_threshold_clause_scheme_matches_printed_tables():
    scheme = Scheme(3, TWO_GF3_CLAUSES, 2)
    assert [len(forms) for forms in scheme.forms] == [1, 1, 1, 1]
    atoms0 = sorted(sym for sym, _ in scheme.table(0))
    assert atoms0 == [
        (0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 1),
        (1, 2, 0, 0), (1, 2, 1, 2), (1, 2, 2, 1),
        (2, 1, 0, 0), (2, 1, 1, 2), (2, 1, 2, 1)]
    atoms1 = sorted(sym for sym, _ in scheme.table(1))
    assert atoms1 == [
        (0, 2, 0, 2), (0, 2, 1, 1), (0, 2, 2, 0),
        (1, 1, 0, 2), (1, 1, 1, 1), (1, 1, 2, 0),
        (2, 0, 0, 2), (2, 0, 1, 1), (2, 0, 2, 0)]
    assert scheme.distribution(0).denominator == 9
    assert all(w == 1 for _, w in scheme.table(0))
    assert scheme.authorized() == TWO_PAIRS_STRUCTURE.table


def test_threshold_clause_scheme_vector():
    pair = scheme_state_pair(Scheme(3, TWO_GF3_CLAUSES, 2))
    assert re_vector(pair).values == (
        0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_threshold_clause_pair_marginals():
    pair = scheme_state_pair(Scheme(3, TWO_GF3_CLAUSES, 2))
    rho_ab = marginal(pair.rho, 0b0011)
    assert rho_ab.atoms == (((0, 0), 1), ((1, 2), 1), ((2, 1), 1))
    assert rho_ab.denominator == 3
    assert marginal(pair.rho, 0b0110) == marginal(pair.sigma, 0b0110)


def test_scheme_distribution_flattening():
    scheme = shamir_scheme(3, (2, 1, 1), 2, 5)
    dist = scheme.distribution(0)
    assert dist.alphabet_sizes == (25, 5, 5)
    # A's two GF(5) slots pack into one symbol, first slot most significant
    assert {sym for sym, _ in dist.atoms} == \
        {(0, 0, 0), (7, 3, 4), (14, 1, 3), (16, 4, 2), (23, 2, 1)}


def test_weighted_scheme_vector_is_ray6():
    pair = scheme_state_pair(shamir_scheme(3, (2, 1, 1), 2, 5))
    assert re_vector(pair).values == (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
