import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closure_members, random_members, upward_closure
from test_cone import near_tie_vectors
from recone import realize
from recone.cone import (
    TOL,
    MembershipReport,
    NotInConeError,
    REVector,
    Violation,
    layer_cake_decompose,
)
from recone.jsonio import pair_from_json, pair_to_json
from recone.lattice import enumerate_upsets, subsets_in_order
from recone.realize import (
    MAX_RAY_BITS,
    MAX_SIGMA_ATOMS,
    RealizationError,
    _dyadic_weight,
    dense_pair,
    describe_deviation,
    plan_ray,
    realize_ray,
    synthesize,
    verify,
)
from recone.schemes import Scheme, scheme_state_pair
from recone.states import JointDistribution, ProductPair, StatePair, re_vector

RAY6 = upward_closure({0b001, 0b110}, 3)


def k_of_n(k, n):
    return upward_closure({m for m in range(1, 1 << n) if m.bit_count() == k}, n)


K_OF_5 = [k_of_n(k, 5) for k in range(1, 6)]
SMALL_UPSETS = [u for n in (1, 2, 3, 4) for u in enumerate_upsets(n)]


def test_realize_ray_unit_coefficient():
    pair = realize_ray(RAY6, 1)
    assert re_vector(pair).values == (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_realize_ray_two_bits():
    pair = realize_ray(RAY6, 2)
    assert re_vector(pair).values == (2.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0)


def test_realize_ray_fractional_coefficient():
    lam = 0.7315
    vec = re_vector(realize_ray(RAY6, lam))
    for mask, val in vec.entries():
        if mask in RAY6.members:
            assert abs(val - lam) < 1e-12
        else:
            assert val == 0.0


def test_realize_ray_unauthorized_entries_exactly_zero():
    for u in enumerate_upsets(3):
        vec = re_vector(realize_ray(u, 0.9))
        for mask, val in vec.entries():
            if mask not in u.members:
                assert val == 0.0


def test_realize_ray_rejects_bad_coefficient():
    for lam in (0, -1, math.inf, math.nan, 1075, 10 ** 400):
        with pytest.raises(ValueError):
            realize_ray(RAY6, lam)


def test_integer_ray_beyond_53_bits_is_exact():
    result = synthesize(REVector(1, (60,)))
    assert result.achieved.values == (60.0,)
    assert result.max_abs_error == 0.0
    assert re_vector(realize_ray(RAY6, 60)).values == (60.0, 0.0, 0.0, 60.0, 60.0, 60.0, 60.0)


def test_an_integer_weight_is_the_power_of_two_itself():
    # down to the smallest subnormal, 2**-1074, the double nearest 2**-k is exact
    for k in range(1, MAX_RAY_BITS + 1):
        assert Fraction(2.0 ** -float(k)) == Fraction(1, 1 << k) == _dyadic_weight(k)


@pytest.mark.parametrize("lam", [40.5, 52.7])
def test_fractional_ray_near_double_precision(lam):
    assert abs(synthesize(REVector(1, (lam,))).achieved.values[0] - lam) <= 1e-6


@pytest.mark.parametrize("v", [
    REVector(1, (Fraction(1, 10 ** 20),)),
    REVector(2, (0, 0, Fraction(1, 10 ** 20))),
    REVector(3, (1, 0, 0, 1, 1, 1, 1 + Fraction(1, 10 ** 20))),  # RAY6 and a 1e-20-bit top layer
], ids=["n1", "n2", "n3-on-top"])
def test_an_exact_ray_below_the_weight_resolution_synthesizes(v):
    # 2**-lam rounds to 1.0 below about 8.0e-17 bits: the weight is the largest double below 1
    result = synthesize(v)
    assert 0 < result.max_abs_error <= 4e-16 and verify(v, result.pair).passed
    weights = [f.weight for f in result.pair.factors]
    assert weights.count(Fraction(math.nextafter(1.0, 0.0))) == 1 and max(weights) < 1


@given(st.one_of(st.floats(min_value=1e-9, max_value=1022), st.integers(1, 1022)))
def test_single_ray_lands_within_auto_tolerance(lam):
    # synthesize raises RealizationError if the miss exceeds TOL
    result = synthesize(REVector(1, (lam,)))
    assert result.max_abs_error <= 1e-9


def test_synthesize_ray6_vector():
    result = synthesize(REVector(3, (1, 0, 0, 1, 1, 1, 1)))
    assert result.max_abs_error <= 1e-9
    assert [len(u.members) for _, u in result.decomposition.terms] == [5]


def test_synthesize_two_level_vector():
    target = REVector(2, (0.5, 0, 2.0))
    result = synthesize(target)
    assert result.max_abs_error <= 1e-9
    # independent recomputation of the assembled pair
    again = re_vector(result.pair)
    assert all(abs(a - t) <= 1e-9 for a, t in zip(again.values, target.values))
    assert len(result.decomposition.terms) == 2


def test_synthesize_zero_vector():
    result = synthesize(REVector(3, (0,) * 7))
    assert result.max_abs_error == 0.0
    assert result.pair == ProductPair(3, ())
    dense = dense_pair(result.pair)
    assert dense.rho == dense.sigma
    assert result.decomposition.terms == ()


def test_decomposition_drift_stays_within_tol():
    # AB sits just below A, which the hull lifts it onto, and A's level sits
    # just below the top group: grouping by the hull alone moved AB by
    # 1.8e-9, twice TOL, and synthesis refused this member
    v = REVector(3, (1.0, 0.0, 1 + 0.9e-9, 1 - 0.9e-9, 1 + 0.9e-9, 1 + 0.9e-9, 1 + 0.9e-9))
    result = synthesize(v)
    assert result.max_abs_error <= TOL
    assert [len(u.members) for _, u in result.decomposition.terms] == [4, 6]


def test_synthesize_rejects_nonmember():
    with pytest.raises(NotInConeError) as err:
        synthesize(REVector(2, (1, 0, 0.5)))
    assert err.value.report.violations


def test_synthesize_honors_explicit_tolerance():
    # 2**-1073.5 rounds to a subnormal double, so the ray lands half a bit
    # off: a miss beyond TOL, reported at its subset.  Refusal is the one
    # path on which synthesize builds the per-subset report
    with pytest.raises(RealizationError) as err:
        synthesize(REVector(2, (0, 0, 1073.5)))
    assert str(err.value) == ("synthesized pair fails verification: "
                              "max |achieved - target| = 5.000e-01 at subset AB")


def test_level_within_tol_of_zero_synthesizes_to_zero_pair():
    result = synthesize(REVector(2, (0.0, 0.0, 1e-17)))
    assert result.decomposition.terms == ()
    dense = dense_pair(result.pair)
    assert dense.rho == dense.sigma
    assert result.max_abs_error == 1e-17


def test_float_noise_below_tol_synthesizes():
    result = synthesize(REVector(2, (1.0, 0.0, 1.0 - 1e-15)))
    assert [(c, sorted(u.members)) for c, u in result.decomposition.terms] == [(1.0, [1, 3])]
    assert result.max_abs_error == pytest.approx(1e-15)


@st.composite
def ray_sums(draw):
    """Sums of a few random rays: up to three at n = 2, two at n = 3."""
    n = draw(st.sampled_from([2, 3]))
    upsets = enumerate_upsets(n)
    picks = draw(st.lists(st.sampled_from(upsets), min_size=1, max_size=5 - n))
    coeffs = draw(st.lists(st.floats(min_value=0.01, max_value=40),
                           min_size=len(picks), max_size=len(picks)))
    return REVector(n, tuple(math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
                             for mask in subsets_in_order(n)))


@settings(max_examples=40, deadline=None)
@given(ray_sums())
def test_achieved_vector_synthesizes_again(v):
    # the relent -> synthesize round trip: float noise in a recomputed
    # vector stays within TOL of a member and of its own levels
    achieved = re_vector(synthesize(v).pair)
    assert synthesize(achieved).max_abs_error <= 1e-9


def test_verify_passes_on_synthesized_pair():
    target = REVector(3, (1, 0, 0, 1, 1, 1, 1))
    result = synthesize(target)
    report = verify(target, result.pair, tol=1e-9)
    assert report.passed
    assert report.monotone_ok
    assert report.max_abs_error <= 1e-9
    assert report.failing_subsets() == ()
    assert "max |achieved - target|" in describe_deviation(report)


def test_verify_flags_corrupted_sigma():
    target = REVector(3, (1, 0, 0, 1, 1, 1, 1))
    dense = dense_pair(synthesize(target).pair)
    rho = dense.rho
    # tilt sigma off the half mix: move weight onto rho's first atom
    # (9/10 of sigma, plus 1/10 on that atom, over ten times sigma's denominator)
    sigma = dense.sigma
    first = rho.atoms[0][0]
    atoms = {sym: 9 * w for sym, w in sigma.atoms}
    atoms[first] = atoms.get(first, 0) + sigma.denominator
    corrupted = StatePair(rho, JointDistribution(3, rho.alphabet_sizes, tuple(atoms.items()),
                                                 10 * sigma.denominator))
    report = verify(target, corrupted, tol=1e-9)
    assert not report.passed
    assert report.failing_subsets()


def test_verify_rejects_dimension_mismatch():
    result = synthesize(REVector(2, (0, 0, 1)))
    with pytest.raises(ValueError):
        verify(REVector(3, (0,) * 7), result.pair)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_verify_rejects_tolerance_outside_zero_to_inf(tol):
    target = REVector(2, (0, 0, 1))
    result = synthesize(target)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        verify(target, result.pair, tol=tol)
    assert verify(target, result.pair, tol=0.0).passed


def test_verify_infinite_target_mismatch():
    result = synthesize(REVector(2, (0, 0, 1)))
    report = verify(REVector(2, (0, 0, math.inf)), result.pair)
    assert not report.passed
    assert report.max_abs_error == math.inf


def test_deviations_of_exact_and_infinite_entries():
    third = Fraction(1, 3)
    report = realize._compare(REVector(2, (third, math.inf, 1)),
                              REVector(2, (0.5, 2.0, math.inf)), TOL)
    assert tuple(report.deviations()) == ((0b01, third, 0.5, abs(0.5 - float(third))),
                                          (0b10, math.inf, 2.0, math.inf),
                                          (0b11, 1, math.inf, math.inf))
    assert report.max_abs_error == math.inf and report.monotone_ok
    assert report.failing_subsets() == (0b01, 0b10, 0b11)
    both = realize._compare(REVector(1, (math.inf,)), REVector(1, (math.inf,)), 0.0)
    assert tuple(both.deviations()) == ((0b1, math.inf, math.inf, 0.0),) and both.passed


@st.composite
def vector_pairs(draw):
    """Two near-tie vectors at one n: ints, Fractions, floats and +inf."""
    v = draw(near_tie_vectors())
    return v, draw(near_tie_vectors(v.n))


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_max_deviation_is_the_largest_per_subset_deviation(vectors):
    v, achieved = vectors
    per_subset = [abs(float(a) - float(t)) if math.inf not in (t, a) else
                  0.0 if t == a else math.inf for t, a in zip(v.values, achieved.values)]
    assert repr(realize._compare(v, achieved, TOL).max_abs_error) == repr(max(per_subset))


def test_max_deviation_of_equal_int_float_and_infinite_entries():
    v = REVector(2, (1, math.inf, Fraction(1, 2)))

    def max_err(achieved):
        return realize._compare(v, REVector(2, achieved), TOL).max_abs_error
    assert max_err((1.0, math.inf, 0.5)) == 0.0
    assert max_err((1.0, 2.0, 0.5)) == math.inf
    assert max_err((1.25, math.inf, 0.5)) == 0.25


@pytest.mark.parametrize("judge", ["verify", "synthesize"])
def test_a_passing_verdict_compares_once_per_pair_of_level_sets(judge, monkeypatch):
    # a 2-of-5 ray: the target and the achieved vector each hold two levels,
    # 0 and 3 bits on the same subsets, so two of the four pairs intersect
    # (not one comparison per subset, 31), and no per-subset row is built
    target = REVector(5, tuple(3 if x else 0 for x in K_OF_5[1].indicator_values()))
    pair = synthesize(target).pair
    deviation, calls = realize._deviation, []

    def counted(t, a):
        calls.append((t, a))
        return deviation(t, a)
    monkeypatch.setattr(realize, "_deviation", counted)
    if judge == "verify":
        assert verify(target, pair).passed
    else:
        assert synthesize(target).max_abs_error == 0.0
    assert sorted(calls) == [(0, 0.0), (3, 3.0)]


def test_synthesize_refuses_a_failed_recheck_within_tolerance(monkeypatch):
    # every entry lands on its target, so only the recheck can refuse
    recheck = MembershipReport(member=False, violations=(Violation(0b11, 0b01, 0.5, 1.0),),
                               infinite_part_ok=True)
    monkeypatch.setattr(realize, "check_membership", lambda v: recheck)
    with pytest.raises(RealizationError) as err:
        synthesize(REVector(2, (1, 0, 1)))
    assert str(err.value) == ("synthesized pair fails verification: achieved vector fails "
                              "the monotonicity recheck: AB = 0.5 < A = 1")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ray_realizes_at_unit_level(n):
    for u in enumerate_upsets(n):
        vec = re_vector(realize_ray(u, 1))
        assert all(abs(a - t) <= 1e-9 for a, t in zip(vec.values, u.indicator_values()))


def _threshold_oracle(u):
    # u is k-of-T iff it is exactly the family of sets meeting T, the union
    # of its minimal sets, in at least k parties
    group = 0
    for m in u.minimal_sets():
        group |= m
    k = min(m.bit_count() for m in u.minimal_sets())
    meets = {m for m in range(1, 1 << u.n) if (m & group).bit_count() >= k}
    return (k, group) if meets == set(u.members) else None


@pytest.mark.parametrize("u", SMALL_UPSETS + K_OF_5, ids=lambda u: f"n{u.n}-{u.table >> 1:x}")
def test_planned_scheme_is_the_smallest_exact_scheme(u):
    plan = plan_ray(u)
    sizes = dict(plan.candidates)
    threshold = _threshold_oracle(u)
    if threshold is None:
        assert set(sizes) == {"xor"}
    else:
        k, group = threshold
        q = next(q for q in range(group.bit_count() + 1, 100)
                 if all(q % d for d in range(2, q)))
        assert sizes["shamir"] == q ** (k - 1)
    # the smallest candidate, ties to XOR
    assert plan.table_atoms == min(sizes.values())
    assert plan.kind == ("xor" if sizes["xor"] == plan.table_atoms else "shamir")
    scheme = realize_ray(u, 1).scheme
    assert len(scheme.table(0)) == plan.table_atoms
    assert scheme.authorized() == u.table
    for lam in (1, 1.7):
        assert re_vector(realize_ray(u, lam)).values == \
            tuple(lam if x else 0.0 for x in u.indicator_values())


def test_xor_size_prediction_matches_built_tables():
    # every candidate, the losing ones too (XOR for 2-of-3, Shamir for 2-of-2)
    for u in SMALL_UPSETS:
        for kind, atoms, build in realize._candidates(u):
            scheme = build()
            assert len(scheme.table(0)) == len(scheme.table(1)) == atoms, (kind, u)
            assert (kind, atoms) in plan_ray(u).candidates


def test_synthesize_plans_each_upset_once(monkeypatch):
    calls, rays = [], []
    candidates, realize_one = realize._candidates, realize.realize_ray
    monkeypatch.setattr(realize, "_candidates", lambda u: calls.append(u) or candidates(u))
    monkeypatch.setattr(realize, "realize_ray", lambda u, lam: rays.append(u) or realize_one(u, lam))
    realize._plan.cache_clear()
    target = REVector(3, (0, 0, 0, 2, 2, 2, 3))  # two rays: ABC and 2-of-3
    upsets = [u for _, u in synthesize(target).decomposition.terms]
    assert len(upsets) == 2
    assert sorted(calls, key=repr) == sorted(upsets, key=repr)
    assert rays == upsets  # one realize_ray call, the traced span, per ray
    synthesize(target)
    assert len(calls) == 2 and len(rays) == 4


def test_a_ray_scheme_is_built_once_per_upset(monkeypatch):
    builds = []
    for name in ("dnf_scheme", "Scheme"):
        build = getattr(realize, name)
        monkeypatch.setattr(realize, name,
                            lambda *args, name=name, build=build: builds.append(name) or build(*args))
    realize._plan.cache_clear()
    for seeds in ({0b001, 0b110}, {0b011, 0b101, 0b110}):  # {A, BC} plans XOR, 2-of-3 Shamir
        first, second = (realize_ray(upward_closure(seeds, 3), lam) for lam in (1, 2.5))
        assert second.scheme is first.scheme and second.weight != first.weight
    assert builds == ["dnf_scheme", "Scheme"]


def test_a_warm_synthesis_matches_a_cold_one():
    for v in (*random_members(5, 3, 10), *closure_members(8, 8, 2)):
        realize._plan.cache_clear()
        cold = synthesize(v)
        warm = synthesize(v)
        assert [f.scheme for f in warm.pair.factors] == [f.scheme for f in cold.pair.factors]
        assert warm.achieved == cold.achieved
        assert json.dumps(pair_to_json(warm.pair)) == json.dumps(pair_to_json(cold.pair))


def test_dense_pair_keeps_no_table_on_the_kept_schemes():
    # seven nested rays, the largest dense sigma of an n = 3 member, and
    # one n = 5 XOR ray on seven 3-sets, whose tables have 2**14 atoms each
    seven_3_sets = upward_closure([m for m in range(32) if m.bit_count() == 3][:7], 5)
    for target, atoms in ((REVector(3, (1, 2, 3, 4, 5, 6, 7)), 40960),
                          (REVector(5, seven_3_sets.indicator_values()), 2 ** 15)):
        pair = synthesize(target).pair
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(dense_pair(pair).sigma.atoms) == atoms
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for f, (_, u) in zip(pair.factors, layer_cake_decompose(target).terms):
            assert realize_ray(u, 1).scheme is f.scheme
            assert vars(f.scheme).keys() == {"q", "forms", "randomness", "_authorized"}
        assert peak - before > 4 << 20  # the tables and their product were built
        assert after - before < 1 << 20  # and are gone, but for freed objects Python keeps for reuse


def test_planner_changes_only_strictly_smaller_threshold_rays():
    shamir = [u.n for u in SMALL_UPSETS if plan_ray(u).kind == "shamir"]
    assert [shamir.count(n) for n in (1, 2, 3, 4)] == [0, 0, 1, 6]
    assert [plan_ray(u).kind for u in K_OF_5] == ["xor", "shamir", "shamir", "shamir", "xor"]
    assert [plan_ray(u).table_atoms for u in K_OF_5] == [1, 7, 49, 343, 16]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_every_threshold_ray_of_five_synthesizes_exactly(k):
    u = K_OF_5[k - 1]
    for lam in (3, 1.7):
        target = REVector(5, tuple(lam if x else 0 for x in u.indicator_values()))
        result = synthesize(target)
        assert result.achieved.values == tuple(map(float, target.values))
        assert result.pair.sigma_atoms == len(dense_pair(result.pair).sigma.atoms) == \
            2 * plan_ray(u).table_atoms


def test_result_records_each_rays_scheme():
    two_of_three = k_of_n(2, 3)
    result = synthesize(REVector(3, (0, 0, 0, 2, 2, 2, 3)))
    assert [(p.kind, p.table_atoms) for p in result.plans] == [("xor", 4), ("shamir", 5)]
    assert result.plans[1].candidates == (("xor", 8), ("shamir", 5))
    assert result.decomposition.terms[1][1] == two_of_three
    assert result.pair.sigma_atoms == len(dense_pair(result.pair).sigma.atoms) == 80


def no_tables(*args):
    raise AssertionError("a share table was built")


def test_oversized_target_refused_before_building(monkeypatch):
    # strictly monotone at n = 4: fifteen levels, one nested ray each; the
    # factors are small, their product is far above the budget
    target = REVector(4, tuple(range(1, 16)))
    result = synthesize(target)
    assert len(result.pair.factors) == len(result.plans) == 15
    monkeypatch.setattr(realize, "tensor", no_tables)
    monkeypatch.setattr(realize, "scheme_state_pair", no_tables)
    monkeypatch.setattr(Scheme, "distribution", no_tables)
    start = time.perf_counter()
    with pytest.raises(RealizationError, match=f"budget of {MAX_SIGMA_ATOMS} atoms") as err:
        dense_pair(result.pair)
    assert time.perf_counter() - start < 1
    assert f"support of 2**{math.log2(result.pair.sigma_atoms):.1f} atoms" in str(err.value)


def test_oversized_ray_refused_before_building(monkeypatch):
    # n = 8, every 4-set plus ABC: not a threshold, and its XOR table has
    # 2**(65 * 3 + 2) atoms.  Synthesis reads its vector from rank and
    # builds no table; only the dense product is refused
    n = 8
    u = upward_closure({m for m in range(1 << n) if m.bit_count() == 4} | {0b111}, n)
    assert plan_ray(u).table_atoms == 2 ** 197
    monkeypatch.setattr(Scheme, "distribution", no_tables)
    start = time.perf_counter()
    result = synthesize(REVector(u.n, u.indicator_values()))
    assert result.achieved.values == tuple(map(float, u.indicator_values()))
    assert result.pair.sigma_atoms == 2 * 2 ** 197
    with pytest.raises(RealizationError, match=f"budget of {MAX_SIGMA_ATOMS} atoms") as err:
        dense_pair(result.pair)
    assert time.perf_counter() - start < 1
    assert "predicted sigma support of 2**198.0 atoms" in str(err.value)
    assert realize_ray(u, 1).scheme.randomness == 197


def test_multiplying_out_an_over_budget_product_is_refused(monkeypatch):
    # member 1 of the n = 8 command line members: three small factors
    # whose product has a 2**43-atom sigma
    pair = synthesize(list(closure_members(8, 8, 2))[1]).pair
    assert len(pair.factors) == 3 and pair.sigma_atoms == 2 ** 43
    monkeypatch.setattr(Scheme, "distribution", no_tables)
    start = time.perf_counter()
    for side in ("rho", "sigma"):
        with pytest.raises(RealizationError, match=f"budget of {MAX_SIGMA_ATOMS} atoms") as err:
            getattr(pair, side)
        assert str(err.value).startswith("predicted sigma support of 2**43.0 atoms exceeds")
    assert time.perf_counter() - start < 1


def predicted_sigma_atoms(decomposition):
    # clause-product supports: each level contributes 2**(free bits + 1)
    total = 1
    for _, u in decomposition.terms:
        bits = sum(m.bit_count() - 1 for m in u.minimal_sets())
        total *= 2 ** (bits + 1)
    return total


def test_random_members_round_trip_n4():
    # a sum of <= 4 rays splits into up to 15 levels at n = 4; one factor
    # per level keeps every draw small, however large the product
    for target in random_members(2024, 4, 20):
        result = synthesize(target)
        assert result.max_abs_error <= 1e-6
        assert verify(target, result.pair, tol=1e-6).passed
        # the planned supports are exact and never above the XOR ones
        assert [len(scheme_state_pair(f.scheme, f.weight).sigma.atoms)
                for f in result.pair.factors] == [2 * plan.table_atoms for plan in result.plans]
        assert result.pair.sigma_atoms <= predicted_sigma_atoms(result.decomposition)


# SHA-256 of the dense pair JSON, one document per member below whose
# product fits MAX_SIGMA_ATOMS (115 of them), as synthesize wrote it when
# it tensored the rays itself
DENSE_PAIRS_SHA256 = "d21921dfca0bdca84d9b196dce5d6fc3a0d6e02228dc004decf77bd566ac2d53"


def test_dense_pair_audits_the_factored_pair():
    # the members of test_random_members_round_trip_n4 and of acceptance
    # criterion 5
    digest = hashlib.sha256()
    audited = 0
    for seed, n, count in ((2024, 4, 20), (555, 3, 100)):
        for target in random_members(seed, n, count):
            result = synthesize(target)
            if result.pair.sigma_atoms > MAX_SIGMA_ATOMS:
                continue
            dense = dense_pair(result.pair)
            assert len(dense.sigma.atoms) == result.pair.sigma_atoms
            for a, b in zip(re_vector(dense).values, result.achieved.values):
                assert abs(a - b) <= 1e-12
            digest.update(json.dumps(pair_to_json(dense), sort_keys=True,
                                     separators=(",", ":")).encode())
            audited += 1
    assert audited == 115
    assert digest.hexdigest() == DENSE_PAIRS_SHA256


# SHA-256 over the repr of each achieved vector's values, synthesize's
# max_abs_error and verify's on the pair read back from JSON: the floats
# pinned bit for bit
ACHIEVED_SHA256 = "0634974006bd82ce50e61da212e3ffa031b1141ae50eab27d31ca0dbbbf36df9"


def test_achieved_vectors_golden_digest():
    rays = [REVector(5, tuple(lam if m.bit_count() >= k else 0.0 for m in subsets_in_order(5)))
            for k, lam in ((1, 1.3), (2, 2.7), (5, 0.9))]
    digest = hashlib.sha256()
    targets = (*random_members(3, 3, 50), *random_members(5, 5, 20), *closure_members(8, 8, 5), *rays)
    for target in targets:
        result = synthesize(target)
        back = pair_from_json(json.loads(json.dumps(pair_to_json(result.pair))))
        checked = verify(target, back).max_abs_error
        digest.update(repr((result.achieved.values, result.max_abs_error, checked)).encode())
    assert len(targets) == 78
    assert digest.hexdigest() == ACHIEVED_SHA256
