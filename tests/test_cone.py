import math
import random
from fractions import Fraction

import pytest
from conftest import (
    add,
    closure_members,
    grouped_levels,
    hull_decompose,
    is_upset,
    pair_walk_report,
    upward_closure,
    value,
)
from hypothesis import given, seed, settings, strategies as st

import recone.cone
from recone.cone import (
    TOL,
    InfiniteEntryError,
    MembershipReport,
    NotInConeError,
    RayDecomposition,
    REVector,
    check_membership,
    layer_cake_decompose,
)
from recone.lattice import UpSet, enumerate_upsets, subsets_in_order

A, B, C = 0b001, 0b010, 0b100
AB, AC, BC, ABC = 0b011, 0b101, 0b110, 0b111

RAY6 = upward_closure({A, BC}, 3)
RAY6_VECTOR = REVector(3, (1, 0, 0, 1, 1, 1, 1))


def recompose(d: RayDecomposition) -> REVector:
    """Sum of coefficient * indicator over the decomposition terms."""
    totals = [0] * ((1 << d.n) - 1)
    order = subsets_in_order(d.n)
    for coeff, upset in d.terms:
        for i, mask in enumerate(order):
            if mask in upset.members:
                totals[i] = totals[i] + coeff
    return REVector(d.n, tuple(totals))


def test_revector_validation():
    with pytest.raises(ValueError):
        REVector(2, (1, 2))  # needs 3 entries
    with pytest.raises(ValueError):
        REVector(2, (1, -0.5, 2))
    with pytest.raises(ValueError):
        REVector(2, (1, math.nan, 2))
    REVector(2, (1, 0, math.inf))  # inf is a value, not an error
    for mapping in ({0b01: 1, 0b10: 0}, {0b01: 1, 0b10: 0, 0b11: 1, 0b100: 1}):
        with pytest.raises(ValueError, match="every nonempty subset exactly once"):
            REVector.from_mapping(2, mapping)


def test_revector_accessors():
    v = REVector.from_mapping(2, {0b01: 1, 0b10: 2, 0b11: 3})
    assert value(v, 0b10) == 2
    assert list(v.entries()) == [(0b01, 1), (0b10, 2), (0b11, 3)]
    assert REVector(3, RAY6.indicator_values()).values == (1, 0, 0, 1, 1, 1, 1)
    assert add(v, v).values == (2, 4, 6)
    for other in ((1, 2, 3), REVector(1, (1,))):  # not a vector, or another n
        assert add(v, other) is NotImplemented
        with pytest.raises(TypeError):
            v + other


def test_membership_ray6():
    report = check_membership(RAY6_VECTOR)
    assert report.member
    assert report.violations == ()
    assert report.infinite_part_ok


def test_membership_violation_listed():
    report = check_membership(REVector(2, (1, 0, 0.5)))
    assert not report.member
    assert len(report.violations) == 1
    vio = report.violations[0]
    assert (vio.superset, vio.subset) == (0b11, 0b01)
    assert (vio.v_superset, vio.v_subset) == (0.5, 1)


def test_membership_violations_exhaustive():
    # every comparable pair is reported, not just the first failure
    report = check_membership(REVector(2, (1, 1, 0)))
    assert {(v.superset, v.subset) for v in report.violations} == {(0b11, 0b01), (0b11, 0b10)}


def test_membership_infinite_entries():
    member = REVector(2, (math.inf, 0, math.inf))
    assert check_membership(member).member
    # inf on a singleton without inf on the pair breaks upward closure
    broken = REVector(2, (math.inf, 0, 1.0))
    report = check_membership(broken)
    assert not report.member
    assert not report.infinite_part_ok


class Bits(float):
    """A float subclass: an entry that is not exact."""


def test_membership_tolerance():
    # floats within TOL count as equal; exact entries compare exactly
    jittered = REVector(2, (1.0, 0.0, 1.0 - 1e-15))
    assert check_membership(jittered).member
    assert not check_membership(REVector(2, (1.0, 0.0, 1.0 - 2 * TOL))).member
    assert not check_membership(REVector(2, (1, 0, 1 - Fraction(1, 10**15)))).member
    # neither a float subclass nor a bool is exact, so either keeps TOL
    assert check_membership(REVector(2, (1, 0, Bits(1.0 - 1e-15)))).member
    assert check_membership(REVector(2, (True, 0, 1 - Fraction(1, 10**15)))).member
    assert not check_membership(REVector(2, (True, 0, 1 - Fraction(2, 10**9)))).member


def test_layer_cake_single_ray():
    d = layer_cake_decompose(RAY6_VECTOR)
    assert len(d.terms) == 1
    coeff, upset = d.terms[0]
    assert coeff == 1
    assert upset == RAY6


def test_layer_cake_two_levels():
    v = REVector(2, (0.5, 0, 2.0))
    d = layer_cake_decompose(v)
    assert [(c, sorted(u.members)) for c, u in d.terms] == [
        (1.5, [0b11]),
        (0.5, [0b01, 0b11]),
    ]
    assert recompose(d).values == (0.5, 0, 2.0)


def test_layer_cake_zero_vector():
    d = layer_cake_decompose(REVector(3, (0,) * 7))
    assert d.terms == ()
    assert recompose(d).values == (0,) * 7


def test_layer_cake_rejects_nonmember():
    with pytest.raises(NotInConeError) as err:
        layer_cake_decompose(REVector(2, (1, 0, 0.5)))
    assert isinstance(err.value.report, MembershipReport)
    assert err.value.report.violations


@pytest.mark.parametrize("n", [3, 8])
def test_layer_cake_error_carries_the_membership_report(n, monkeypatch):
    # seeded members with their first entry raised above the rest, at n = 3
    # also +inf entries that are not an up-set; one sweep decides and the
    # pair walk writes the report, as check_membership would
    members = closure_members(n, n, 5)
    nonmembers = [REVector(n, (max(v.values) + 1,) + v.values[1:]) for v in members]
    if n == 3:
        nonmembers.append(REVector(3, (math.inf, 0, 0, 1, math.inf, 0, math.inf)))
    sweep = recone.cone._sweep
    sweeps = []

    def counted(v, slack):
        sweeps.append(v)
        return sweep(v, slack)

    for v in nonmembers:
        report = check_membership(v)
        assert not report.member
        monkeypatch.setattr(recone.cone, "_sweep", counted)
        sweeps.clear()
        with pytest.raises(NotInConeError) as err:
            layer_cake_decompose(v)
        monkeypatch.undo()
        assert err.value.report == report
        assert sweeps == [v]


def test_layer_cake_rejects_infinite():
    with pytest.raises(InfiniteEntryError):
        layer_cake_decompose(REVector(2, (math.inf, 0, math.inf)))


def test_layer_cake_merges_float_noise():
    base = 1.0
    jitter = base + base * 1e-13  # within merge tolerance, one level
    v = REVector(2, (base, 0.0, jitter))
    d = layer_cake_decompose(v)
    assert len(d.terms) == 1


def test_layer_cake_decomposes_monotone_hull():
    # AB sits 1e-15 below A: the hull lifts it onto A's level
    d = layer_cake_decompose(REVector(2, (1.0, 0.0, 1.0 - 1e-15)))
    assert [(c, sorted(u.members)) for c, u in d.terms] == [(1.0, [0b01, 0b11])]
    # levels within TOL of 0 are dropped; levels further apart stay apart
    assert layer_cake_decompose(REVector(2, (0.0, 0.0, 0.9 * TOL))).terms == ()
    d = layer_cake_decompose(REVector(2, (1.0, 0.0, 1.0 + 2 * TOL)))
    assert [sorted(u.members) for _, u in d.terms] == [[0b11], [0b01, 0b11]]


def test_layer_cake_level_keeps_its_first_entry():
    # C's int 1 lifts BC and ABC onto the level AC's float 1.0 also sits
    # on; the level's coefficient is C's entry, the first on the level
    d = layer_cake_decompose(REVector(3, (0, 0, 1, 0, 1.0, 1 - 0.5e-9, 1 - 0.5e-9)))
    assert d.terms == ((1, upward_closure({C}, 3)),) and type(d.terms[0][0]) is int


def test_layer_cake_moves_no_entry_beyond_tol():
    # AB is lifted 0.9e-9 onto A's level, which sits 0.9e-9 below the top
    # group: joining that group would move AB by 1.8e-9, so A's level stays apart
    v = REVector(3, (1.0, 0.0, 1 + 0.9e-9, 1 - 0.9e-9, 1 + 0.9e-9, 1 + 0.9e-9, 1 + 0.9e-9))
    d = layer_cake_decompose(v)
    assert [sorted(u.members) for _, u in d.terms] == [[4, 5, 6, 7], [1, 3, 4, 5, 6, 7]]
    assert max(abs(a - b) for a, b in zip(recompose(d).values, v.values)) <= TOL
    # AB lifted 0.4e-9 onto A's level, 0.5e-9 below the top: 0.9e-9 in all, one group
    d = layer_cake_decompose(REVector(3, (1.0, 0.0, 0.0, 1 - 0.4e-9, 1 + 0.5e-9, 0.0, 1 + 0.5e-9)))
    assert [(c, sorted(u.members)) for c, u in d.terms] == [(1 + 0.5e-9, [1, 3, 5, 7])]


def test_layer_cake_exact_rationals_not_merged():
    tick = Fraction(1, 10**15)
    v = REVector(2, (Fraction(1), Fraction(0), Fraction(1) + tick))
    d = layer_cake_decompose(v)
    assert len(d.terms) == 2
    assert recompose(d).values == v.values  # exact round trip


def test_recompose_examples():
    d = RayDecomposition(3, ((1, RAY6),))
    assert recompose(d).values == (1, 0, 0, 1, 1, 1, 1)
    assert recompose(RayDecomposition(2, ())).values == (0, 0, 0)
    d2 = RayDecomposition(2, (
        (1.5, UpSet(2, frozenset({0b11}))),
        (0.5, UpSet(2, frozenset({0b01, 0b11}))),
    ))
    assert recompose(d2).values == (0.5, 0, 2.0)


def test_decomposition_validation():
    inner = UpSet(2, frozenset({0b11}))
    outer = UpSet(2, frozenset({0b01, 0b11}))
    with pytest.raises(ValueError):
        RayDecomposition(2, ((0, inner),))
    with pytest.raises(ValueError):
        RayDecomposition(2, ((1, outer), (1, inner)))  # not nested inner-first
    with pytest.raises(ValueError, match="up-set party count mismatch"):
        RayDecomposition(3, ((1, inner),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_random_cone_members(n):
    rng = random.Random(1000 + n)
    upsets = enumerate_upsets(n)
    for _ in range(60):
        picks = rng.sample(upsets, rng.randint(1, min(4, len(upsets))))
        coeffs = [rng.uniform(0.1, 3.0) for _ in picks]
        values = tuple(
            math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
            for mask in subsets_in_order(n))
        v = REVector(n, values)
        assert check_membership(v).member
        d = layer_cake_decompose(v)
        back = recompose(d)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back.values, v.values))
        assert len(d.terms) <= len({x for x in values if x > 0})


def test_level_sets_of_members_are_upsets():
    rng = random.Random(7)
    upsets = enumerate_upsets(3)
    for _ in range(40):
        picks = rng.sample(upsets, rng.randint(1, 4))
        coeffs = [Fraction(rng.randint(1, 30), 10) for _ in picks]
        mapping = {mask: sum((c for c, u in zip(coeffs, picks) if mask in u.members),
                             start=Fraction(0))
                   for mask in subsets_in_order(3)}
        v = REVector.from_mapping(3, mapping)
        for t in sorted({x for x in v.values if x > 0}):
            level = {m for m, val in v.entries() if val >= t}
            assert is_upset(level, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_indicators_accepted_superset_breaks_rejected(n):
    # zeroing any member strictly above a minimal member (which stays at 1)
    # must break monotonicity
    order = subsets_in_order(n)
    for u in enumerate_upsets(n):
        ind = REVector(n, u.indicator_values())
        assert check_membership(ind).member
        for m in u.minimal_sets():
            for s in u.members:
                if s != m and s & m == m:
                    values = list(ind.values)
                    values[order.index(s)] = 0
                    assert not check_membership(REVector(n, tuple(values))).member


@given(st.lists(st.fractions(min_value=0, max_value=4), min_size=3, max_size=3))
def test_exact_decomposition_round_trips(raw):
    va, vb, vab = sorted(raw)
    v = REVector.from_mapping(2, {0b01: va, 0b10: vb, 0b11: max(vab, va, vb)})
    if not check_membership(v).member:
        v = REVector.from_mapping(2, {0b01: min(va, vab), 0b10: min(vb, vab), 0b11: vab})
    d = layer_cake_decompose(v)
    assert recompose(d).values == v.values


def _outcome(decompose, v):
    """Term tables, coefficients and their types, or the error and its report."""
    try:
        d = decompose(v)
    except (NotInConeError, InfiniteEntryError) as err:
        return type(err), getattr(err, "report", None)
    return [(c, type(c), u.table) for c, u in d.terms]


def assert_agrees_with_oracles(v):
    assert check_membership(v) == pair_walk_report(v)
    assert _outcome(layer_cake_decompose, v) == _outcome(hull_decompose, v)


def test_layer_cake_names_levels_by_entries_not_lifted():
    # A lifts AB's float 1.0 onto its level, so BC's int 1 names the level
    # below, the last group, and its coefficient stays an int
    h = 1 + 0.6e-9
    v = REVector(4, (h, 0, 0, 0, 1.0, h, h, 1, 0, 0, h, h, h, 1 - 0.6e-9, h))
    assert_agrees_with_oracles(v)
    assert type(layer_cake_decompose(v).terms[-1][0]) is int


def test_layer_cake_compares_the_lowest_entry_of_its_own_level():
    # BC's float 1.0, lifted onto B's level, is that level's lowest entry;
    # C's int 1 is equal but on another level.  A is 1 + d with d just under
    # TOL, but float(A) - 1.0 rounds above it, so B's level starts a group
    d = Fraction(45035995, 10) / 2**52
    v = REVector(3, (1 + d, 1 + d / 2, 1, 1 + d, 1 + d, 1.0, 1 + d))
    assert_agrees_with_oracles(v)
    assert len(layer_cake_decompose(v).terms) == 2


def test_layer_cake_compares_the_smallest_lifted_entry():
    # A's level, 0.45e-9 below C's, lifts AB (0.4e-9 below A) and AD and ABD
    # (0.7e-9 below): AD is 1.15e-9 below C's level, so A's level stays apart
    top = 1 + 0.45e-9
    v = REVector(4, (1.0, 0, top, 0, 1 - 0.4e-9, top, 1 - 0.7e-9, top, 0, top, top,
                     1 - 0.7e-9, top, top, top))
    assert_agrees_with_oracles(v)
    assert len(layer_cake_decompose(v).terms) == 2


def _near(b, kind, k):
    """Base value b as an exact int, or shifted by k quarters of TOL as a
    Fraction or a float."""
    if kind is float:
        return abs(b + k * TOL / 4)
    return abs(b + Fraction(k, 4 * 10**9)) if kind is Fraction else b


@st.composite
def near_tie_vectors(draw, n=None):
    """n <= 5 vectors whose entries mix ints, Fractions and floats within
    a few TOL of the values of a small random vector, often made monotone
    first; its top value sometimes becomes +inf, an up-set only when the
    vector was monotone.  n is drawn unless given."""
    n = draw(st.integers(1, 5)) if n is None else n
    order = subsets_in_order(n)
    entries = st.lists(st.integers(0, 3), min_size=len(order), max_size=len(order))
    base = dict(zip(order, draw(entries)))
    if draw(st.booleans()):
        for m in order:  # subsets first: a running maximum over m less one party
            base[m] = max([base[m]] + [base[m & ~(1 << j)] for j in range(n) if m & ~(1 << j)])
    top = max(base.values()) if draw(st.booleans()) else None
    kinds = draw(st.lists(st.sampled_from((int, Fraction, float)), min_size=len(order),
                          max_size=len(order)))
    shifts = draw(st.lists(st.integers(-5, 5), min_size=len(order), max_size=len(order)))
    return REVector(n, tuple(math.inf if base[m] == top else _near(base[m], kind, k)
                             for m, kind, k in zip(order, kinds, shifts)))


@seed(1)
@settings(max_examples=600, deadline=None)
@given(near_tie_vectors())
def test_sweep_agrees_with_pair_walk_and_hull(v):
    assert_agrees_with_oracles(v)


def test_sweep_agrees_with_oracles_at_n8():
    # the seeded n = 8 members, and each with its full-set entry lowered to 0
    for v in closure_members(8, 8, 20):
        assert check_membership(v).member
        assert_agrees_with_oracles(v)
        lowered = REVector(8, v.values[:-1] + (0,))
        assert check_membership(lowered).violations
        assert_agrees_with_oracles(lowered)


def _typed(levels):
    return [(type(key), key, table) for key, table in levels]


@seed(1)
@settings(max_examples=300, deadline=None)
@given(near_tie_vectors())
def test_levels_group_the_entries_under_their_first_key(v):
    assert _typed(v.levels.items()) == _typed(grouped_levels(v))
    assert v.is_finite() == (math.inf not in v.values)
    rebuilt = REVector._from_levels(v.n, dict(v.levels))
    assert rebuilt == REVector(v.n, [key for m in subsets_in_order(v.n)
                                     for key, table in v.levels.items() if table >> m & 1])
    assert rebuilt.levels == v.levels


def test_levels_keep_the_first_of_equal_int_and_float_entries():
    v = REVector(3, (1, 0.0, 0, 1.0, Fraction(1), 2.0, 2))
    assert _typed(v.levels.items()) == [(int, 1, 1 << A | 1 << AB | 1 << AC),
                                        (float, 0.0, 1 << B | 1 << C),
                                        (float, 2.0, 1 << BC | 1 << ABC)]
    assert v.levels is v.levels  # built once


@pytest.mark.parametrize("levels,message", [
    ({0.5: 1 << A | 1 << AB, math.nan: 1 << B}, "NaN entry"),
    ({0.5: 1 << A | 1 << AB, -1.0: 1 << B}, "negative entry -1.0"),
])
def test_from_levels_checks_each_value_as_an_entry(levels, message):
    with pytest.raises(ValueError, match=message):
        REVector._from_levels(2, levels)
    with pytest.raises(ValueError, match=message):
        REVector(2, (0.5, *(key for key in levels if key != 0.5), 0.5))
