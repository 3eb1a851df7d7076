from dataclasses import dataclass
from itertools import combinations, product

import pytest

from recone.lattice import UpSet, enumerate_upsets, upward_closure
from recone.schemes import (
    Scheme,
    dnf_scheme,
    is_prime,
    party_digits,
    scheme_state_pair,
    shamir_table,
    smallest_prime_above,
    threshold_clause_scheme,
    verify_scheme,
    weighted_threshold_scheme,
    xor_share_table,
)
from recone.states import JointDistribution, marginal, re_vector

A, B, C = 0b001, 0b010, 0b100
AB, BC = 0b011, 0b110

RAY6_STRUCTURE = upward_closure({A, BC}, 3)
TWO_PAIRS_STRUCTURE = upward_closure({0b0011, 0b1100}, 4)


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


def test_shamir_table_gf5():
    assert shamir_table(5, 2, 4, 0) == [
        (0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)]
    assert shamir_table(5, 2, 4, 1) == [
        (1, 1, 1, 1), (2, 3, 4, 0), (3, 0, 2, 4), (4, 2, 0, 3), (0, 4, 3, 2)]


def test_shamir_table_constant_polynomial():
    assert shamir_table(3, 1, 2, 1) == [(1, 1)]


def test_shamir_table_parameter_errors():
    with pytest.raises(ValueError):
        shamir_table(4, 2, 3, 0)  # not prime
    with pytest.raises(ValueError):
        shamir_table(5, 2, 5, 0)  # p <= m
    with pytest.raises(ValueError):
        shamir_table(5, 0, 4, 0)
    with pytest.raises(ValueError):
        shamir_table(5, 2, 4, 2)


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
    assert xor_share_table(1, 1) == [(1,)]
    assert sorted(xor_share_table(2, 0)) == [(0, 0), (1, 1)]
    assert sorted(xor_share_table(3, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def test_weighted_scheme_matches_ray6_structure():
    scheme = weighted_threshold_scheme(3, (2, 1, 1), 2, 5)
    assert scheme.registers == ((5, 5), (5,), (5,))
    assert len(scheme.table(0)) == scheme.distributions[0].denominator == 5
    assert all(w == 1 for _, w in scheme.table(0))
    audit = verify_scheme(scheme, RAY6_STRUCTURE)
    assert audit.passed, audit.failures


def test_two_of_two_scheme_realizes_pair_only():
    scheme = weighted_threshold_scheme(2, (1, 1), 2, 3)
    audit = verify_scheme(scheme, UpSet(2, frozenset({0b11})))
    assert audit.passed


def test_single_party_scheme():
    scheme = weighted_threshold_scheme(1, (1,), 1, 2)
    assert scheme.table(0) == (((0,), 1),)
    assert scheme.table(1) == (((1,), 1),)
    assert [d.denominator for d in scheme.distributions] == [1, 1]
    audit = verify_scheme(scheme, UpSet(1, frozenset({1})))
    assert audit.passed


def test_verify_scheme_reports_failure():
    scheme = weighted_threshold_scheme(2, (1, 1), 2, 3)
    wrong = upward_closure({0b01}, 2)  # claims A alone suffices
    audit = verify_scheme(scheme, wrong)
    assert not audit.passed
    assert [f.mask for f in audit.failures] == [0b01]
    assert audit.failures[0].authorized


def test_dnf_scheme_two_pair_clauses():
    scheme = dnf_scheme(TWO_PAIRS_STRUCTURE)
    assert scheme.registers == ((2,), (2,), (2,), (2,))
    atoms0 = {sym for sym, _ in scheme.table(0)}
    assert atoms0 == {(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)}
    assert verify_scheme(scheme, TWO_PAIRS_STRUCTURE).passed


def test_dnf_scheme_single_party():
    scheme = dnf_scheme(UpSet(1, frozenset({1})))
    assert scheme.table(0) == (((0,), 1),)
    assert scheme.table(1) == (((1,), 1),)
    assert [d.denominator for d in scheme.distributions] == [1, 1]


def test_dnf_scheme_ray6_clause_layout():
    scheme = dnf_scheme(RAY6_STRUCTURE)
    # clause one: A alone holds the bit; clause two: B free share, C parity
    assert scheme.registers == ((2,), (2,), (2,))
    atoms1 = {sym for sym, _ in scheme.table(1)}
    assert atoms1 == {(1, 0, 1), (1, 1, 0)}
    assert verify_scheme(scheme, RAY6_STRUCTURE).passed


def test_dnf_scheme_party_outside_all_clauses():
    # only AB is ever authorized at n=3, so C gets a degenerate register
    structure = upward_closure({AB}, 3)
    scheme = dnf_scheme(structure)
    assert scheme.registers[2] == (1,)
    assert verify_scheme(scheme, structure).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dnf_scheme_exhaustive_small(n):
    for u in enumerate_upsets(n):
        audit = verify_scheme(dnf_scheme(u), u)
        assert audit.passed, (u, audit.failures)


def test_threshold_clause_scheme_matches_printed_tables():
    scheme = threshold_clause_scheme(TWO_PAIRS_STRUCTURE)
    assert scheme.registers == ((3,), (3,), (3,), (3,))
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
    assert scheme.distributions[0].denominator == 9
    assert all(w == 1 for _, w in scheme.table(0))
    assert verify_scheme(scheme, TWO_PAIRS_STRUCTURE).passed


def test_threshold_clause_scheme_vector():
    pair = scheme_state_pair(threshold_clause_scheme(TWO_PAIRS_STRUCTURE))
    assert re_vector(pair).values == (
        0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_threshold_clause_pair_marginals():
    pair = scheme_state_pair(threshold_clause_scheme(TWO_PAIRS_STRUCTURE))
    rho_ab = marginal(pair.rho, 0b0011)
    assert rho_ab.atoms == (((0, 0), 1), ((1, 2), 1), ((2, 1), 1))
    assert rho_ab.denominator == 3
    assert marginal(pair.rho, 0b0110) == marginal(pair.sigma, 0b0110)


def test_scheme_distribution_flattening():
    scheme = weighted_threshold_scheme(3, (2, 1, 1), 2, 5)
    dist = scheme.distributions[0]
    assert dist.alphabet_sizes == (25, 5, 5)
    assert dist.support() == {(0, 0, 0), (7, 3, 4), (14, 1, 3), (16, 4, 2), (23, 2, 1)}
    assert party_digits((5, 5), 7) == (1, 2)
    assert party_digits((1,), 0) == (0,)


def test_weighted_scheme_vector_is_ray6():
    pair = scheme_state_pair(weighted_threshold_scheme(3, (2, 1, 1), 2, 5))
    assert re_vector(pair).values == (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_scheme_validation():
    one = JointDistribution(1, (2,), (((1,), 1),), 1)
    with pytest.raises(ValueError):  # table 0 sums to 1/2
        Scheme(((2,),), (JointDistribution(1, (2,), (((0,), 1),), 2), one))
    with pytest.raises(ValueError):  # table 0 is not uniform
        Scheme(((2,),), (JointDistribution(1, (2,), (((0,), 3), ((1,), 1)), 4), one))
    with pytest.raises(ValueError):  # alphabet 2 does not match the layout (3,)
        Scheme(((3,),), (one, one))
    with pytest.raises(ValueError):
        verify_scheme(weighted_threshold_scheme(2, (1, 1), 2, 3), RAY6_STRUCTURE)
