import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recone.cone import NotInConeError, REVector
from recone.lattice import enumerate_upsets, subsets_in_order, upward_closure
from recone.realize import (
    RealizationError,
    describe_deviation,
    realize_ray,
    synthesize,
    verify,
)
from recone.states import JointDistribution, StatePair, re_vector

RAY6 = upward_closure({0b001, 0b110}, 3)


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


@pytest.mark.parametrize("lam", [40.5, 52.7])
def test_fractional_ray_near_double_precision(lam):
    assert abs(synthesize(REVector(1, (lam,))).achieved.values[0] - lam) <= 1e-6


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
    assert result.pair.rho == result.pair.sigma
    assert result.decomposition.terms == ()


def test_synthesize_rejects_nonmember():
    with pytest.raises(NotInConeError) as err:
        synthesize(REVector(2, (1, 0, 0.5)))
    assert err.value.report.violations


def test_synthesize_honors_explicit_tolerance():
    # 2**-1073.5 rounds to a subnormal double, so the ray lands half a bit
    # off: a miss beyond TOL, reported at its subset
    with pytest.raises(RealizationError, match="at subset AB"):
        synthesize(REVector(2, (0, 0, 1073.5)))


def test_level_within_tol_of_zero_synthesizes_to_zero_pair():
    result = synthesize(REVector(2, (0.0, 0.0, 1e-17)))
    assert result.decomposition.terms == ()
    assert result.pair.rho == result.pair.sigma
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
    result = synthesize(target)
    rho = result.pair.rho
    # tilt sigma off the half mix: move weight onto rho's first atom
    sigma = result.pair.sigma
    first = rho.atoms[0][0]
    bump = Fraction(1, 10)
    scale = 1 - bump
    atoms = {sym: Fraction(w, sigma.denominator) * scale for sym, w in sigma.atoms}
    atoms[first] = atoms.get(first, Fraction(0)) + bump
    corrupted = StatePair(rho, JointDistribution.from_mapping(3, rho.alphabet_sizes, atoms))
    report = verify(target, corrupted, tol=1e-9)
    assert not report.passed
    assert report.failing_subsets()


def test_verify_rejects_dimension_mismatch():
    result = synthesize(REVector(2, (0, 0, 1)))
    with pytest.raises(ValueError):
        verify(REVector(3, (0,) * 7), result.pair)


def test_verify_infinite_target_mismatch():
    result = synthesize(REVector(2, (0, 0, 1)))
    report = verify(REVector(2, (0, 0, math.inf)), result.pair)
    assert not report.passed
    assert report.max_abs_error == math.inf


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ray_realizes_at_unit_level(n):
    for u in enumerate_upsets(n):
        vec = re_vector(realize_ray(u, 1))
        target = REVector.indicator(u)
        assert all(abs(a - t) <= 1e-9 for a, t in zip(vec.values, target.values))


def predicted_sigma_atoms(decomposition):
    # clause-product supports: each level contributes 2**(free bits + 1)
    total = 1
    for _, u in decomposition.terms:
        bits = sum(m.bit_count() - 1 for m in u.minimal_sets())
        total *= 2 ** (bits + 1)
    return total


def test_random_members_round_trip_n4():
    # a sum of <= 4 rays can split into up to 15 levels at n=4 and the
    # tensor support multiplies across levels, so keep only the samples
    # whose predicted support stays desk-scale (deterministic given seed)
    from recone.cone import layer_cake_decompose

    rng = random.Random(2024)
    upsets = enumerate_upsets(4)
    order = subsets_in_order(4)
    ran = 0
    for _ in range(20):
        picks = rng.sample(upsets, rng.randint(1, 4))
        coeffs = [rng.uniform(0.1, 3.0) for _ in picks]
        values = tuple(
            math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
            for mask in order)
        target = REVector(4, values)
        if predicted_sigma_atoms(layer_cake_decompose(target)) > 1 << 13:
            continue
        result = synthesize(target)
        assert result.max_abs_error <= 1e-6
        assert verify(target, result.pair, tol=1e-6).passed
        ran += 1
    assert ran >= 10
