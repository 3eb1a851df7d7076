import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add,
    fsum_columns,
    multiplied_out,
    proper_submasks,
    random_distribution,
    random_pair,
    upward_closure,
    value,
)
from recone.cone import check_membership
from recone.lattice import enumerate_upsets, subsets_in_order, validate_mask
from recone.realize import dense_pair, realize_ray
from recone.schemes import scheme_state_pair
from recone.states import (
    JointDistribution,
    ProductPair,
    StatePair,
    _log2_ratio,
    marginal,
    mix,
    re_vector,
    relative_entropy,
    tensor,
)


def point_pair(n: int) -> StatePair:
    """Deterministic rho = sigma pair, the empty product multiplied out;
    its relative-entropy vector is zero."""
    return dense_pair(ProductPair(n, ()))


def shannon_entropy(P: JointDistribution) -> float:
    """H(P) = -sum p log2 p in bits."""
    weight_by_value = {}
    for _, w in P.atoms:
        weight_by_value[w] = weight_by_value.get(w, 0) + w
    terms = []
    for v, w in weight_by_value.items():
        if v != P.denominator:
            g = math.gcd(v, P.denominator)
            terms.append(-(w / P.denominator) * _log2_ratio(v // g, P.denominator // g))
    return math.fsum(terms)


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if p in (0, 1):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def mutual_information(P: JointDistribution, split_mask: int) -> float:
    """I(S : complement) = D(P || P_S x P_Sbar) for a proper split."""
    full = (1 << P.n) - 1
    validate_mask(split_mask, P.n)
    if split_mask == full:
        raise ValueError("split must leave a nonempty complement")
    comp = full & ~split_mask
    keep_s = [i for i in range(P.n) if split_mask >> i & 1]
    keep_c = [i for i in range(P.n) if comp >> i & 1]
    ms, mc = marginal(P, split_mask), marginal(P, comp)
    atoms = []
    for sym_s, ws in ms.atoms:
        for sym_c, wc in mc.atoms:
            sym = [0] * P.n
            for pos, x in zip(keep_s, sym_s):
                sym[pos] = x
            for pos, x in zip(keep_c, sym_c):
                sym[pos] = x
            atoms.append((tuple(sym), ws * wc))
    product = JointDistribution(P.n, P.alphabet_sizes, tuple(atoms),
                                ms.denominator * mc.denominator)
    return relative_entropy(P, product)


def gf5_table(b):
    """Share tuples (y(1),...,y(4)) of y(x) = b + a*x mod 5, grouped as
    (A two slots, B, C) and flattened to (25, 5, 5) alphabets; weight 1
    each over 5."""
    atoms = []
    for a in range(5):
        y = [(b + a * x) % 5 for x in (1, 2, 3, 4)]
        atoms.append(((y[0] * 5 + y[1], y[2], y[3]), 1))
    return atoms


def example5_pair():
    rho0 = JointDistribution(3, (25, 5, 5), tuple(gf5_table(0)), 5)
    rho1 = JointDistribution(3, (25, 5, 5), tuple(gf5_table(1)), 5)
    return StatePair(rho0, mix(rho0, rho1, Fraction(1, 2)))


def test_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(2, (2, 2), (((0, 0), 1),), 2)  # sums to 1/2
    with pytest.raises(ValueError):
        JointDistribution(2, (2, 2), (((0, 2), 1),), 1)  # symbol out of range
    with pytest.raises(ValueError):
        JointDistribution(2, (2, 2), (((0, 0), 1), ((0, 0), 1)), 2)
    with pytest.raises(ValueError):
        JointDistribution(2, (2, 2), (((0, 0), 3), ((0, 1), -1)), 2)
    with pytest.raises(ValueError):  # weights are integers, not probabilities
        JointDistribution(2, (2, 2), (((0, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2))), 1)
    with pytest.raises(ValueError):
        JointDistribution(2, (2, 2), (((0, 0), 0),), 0)
    with pytest.raises(ValueError):  # 1/2 + 1/3 over the common denominator 6
        JointDistribution(1, (2,), (((0,), 3), ((1,), 2)), 6)
    for n, sizes in ((0, ()), (2, (2,)), ("2", (2, 2)), (None, ())):
        with pytest.raises(ValueError, match="need one alphabet size per party"):
            JointDistribution(n, sizes, (((0,) * len(sizes), 1),), 1)
    with pytest.raises(ValueError, match="alphabet sizes must be positive"):
        JointDistribution(2, (2, 0), (((0, 0), 1),), 1)


def test_atoms_sorted_and_exact():
    d = JointDistribution(1, (3,), (((2,), 1), ((0,), 2)), 3)
    assert d.atoms == (((0,), 2), ((2,), 1)) and d.denominator == 3
    assert dict(d.atoms)[(0,)] == 2
    assert (1,) not in dict(d.atoms)
    # the same probabilities, listed in another order over a larger denominator
    assert JointDistribution(1, (3,), (((2,), 2), ((0,), 4)), 6) == d


def test_tables_kept_in_lowest_terms():
    d = JointDistribution(1, (3,), (((0,), 4), ((2,), 2)), 6)
    assert d.atoms == (((0,), 2), ((2,), 1)) and d.denominator == 3
    e = JointDistribution(2, (2, 2), (((0, 0), 1), ((0, 1), 1)), 2)
    assert marginal(e, 0b01) == JointDistribution(1, (2,), (((0,), 1),), 1)
    assert marginal(e, 0b01).denominator == 1


def test_marginal_weighted_scheme_party_a():
    pair = example5_pair()
    rho_a = marginal(pair.rho, 0b001)
    # A-register pairs 00, 12, 24, 31, 43 flattened in base 5
    assert rho_a.atoms == tuple(((s,), 1) for s in (0, 7, 14, 16, 23))
    assert rho_a.denominator == 5
    sigma_a = marginal(pair.sigma, 0b001)
    assert len(sigma_a.atoms) == sigma_a.denominator == 10
    assert all(w == 1 for _, w in sigma_a.atoms)


def test_marginal_weighted_scheme_party_b():
    pair = example5_pair()
    rho_b = marginal(pair.rho, 0b010)
    assert rho_b.atoms == tuple(((s,), 1) for s in range(5)) and rho_b.denominator == 5
    assert rho_b == marginal(pair.sigma, 0b010)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_marginal_is_the_exact_fraction_sum(n):
    rng = random.Random(100 + n)
    sizes = (3, 5, 3, 5, 3)[:n]
    for _ in range(4):
        d = random_distribution(rng, n, sizes)
        for mask in subsets_in_order(n):
            keep = [i for i in range(n) if mask >> i & 1]
            expected = {}
            for sym, w in d.atoms:
                key = tuple(sym[i] for i in keep)
                expected[key] = expected.get(key, Fraction(0)) + Fraction(w, d.denominator)
            part = marginal(d, mask)
            assert {sym: Fraction(w, part.denominator) for sym, w in part.atoms} == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_re_vector_matches_marginals_of_the_full_tables(n):
    # re_vector sums each subset from a reduced parent; the oracle sums
    # every subset from the full tables, and the floats must agree bit for bit
    rng = random.Random(200 + n)
    sizes = (5, 3, 5, 3, 5)[:n]
    for _ in range(6):
        pair = random_pair(rng, n, sizes, sigma_full_support=rng.random() < 0.5)
        expected = tuple(relative_entropy(marginal(pair.rho, m), marginal(pair.sigma, m))
                         for m in subsets_in_order(n))
        assert re_vector(pair).values == expected


def test_marginal_full_mask_is_identity():
    d = random_distribution(random.Random(3), 3, (2, 3, 2))
    assert marginal(d, 0b111) == d


def test_mix_examples():
    pair = example5_pair()
    assert len(pair.sigma.atoms) == pair.sigma.denominator == 10
    assert all(w == 1 for _, w in pair.sigma.atoms)
    d = random_distribution(random.Random(5), 2, (2, 2))
    assert mix(d, d, Fraction(1, 3)) == d
    rho0 = JointDistribution(3, (25, 5, 5), tuple(gf5_table(0)), 5)
    rho1 = JointDistribution(3, (25, 5, 5), tuple(gf5_table(1)), 5)
    quarter = mix(rho0, rho1, Fraction(1, 4))
    probs = sorted(set(Fraction(w, quarter.denominator) for _, w in quarter.atoms))
    assert probs == [Fraction(1, 20), Fraction(3, 20)]


def test_mix_rejects_bad_weight_and_shape():
    d = random_distribution(random.Random(5), 2, (2, 2))
    with pytest.raises(ValueError):
        mix(d, d, Fraction(0))
    with pytest.raises(ValueError):
        mix(d, d, Fraction(1))
    e = random_distribution(random.Random(5), 2, (2, 3))
    with pytest.raises(ValueError):
        mix(d, e, Fraction(1, 2))


def test_relative_entropy_weighted_scheme():
    pair = example5_pair()
    d_a = relative_entropy(marginal(pair.rho, 0b001), marginal(pair.sigma, 0b001))
    assert d_a == 1.0
    d_b = relative_entropy(marginal(pair.rho, 0b010), marginal(pair.sigma, 0b010))
    assert d_b == 0.0


def test_relative_entropy_support_escape():
    p = JointDistribution(1, (2,), (((0,), 1), ((1,), 1)), 2)
    q = JointDistribution(1, (2,), (((0,), 1),), 1)
    assert relative_entropy(p, q) == math.inf
    assert relative_entropy(q, p) == 1.0  # log2(1 / (1/2)) weighted by 1


def test_relative_entropy_identity_and_positivity():
    rng = random.Random(11)
    for _ in range(50):
        d = random_distribution(rng, 2, (3, 2))
        assert relative_entropy(d, d) == 0.0
        e = random_distribution(rng, 2, (3, 2))
        assert relative_entropy(d, e) >= 0.0


def test_re_vector_weighted_scheme():
    vec = re_vector(example5_pair())
    assert vec.values == (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_re_vector_trivial_pair_is_zero():
    assert re_vector(point_pair(3)).values == (0.0,) * 7


def test_tensor_adds_vectors():
    pair = example5_pair()
    assert re_vector(tensor(pair, point_pair(3))).values == re_vector(pair).values
    doubled = re_vector(tensor(pair, pair))
    assert doubled.values == (2.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0)


def test_tensor_rejects_party_mismatch():
    with pytest.raises(ValueError):
        tensor(point_pair(3), point_pair(4))


def random_factor(rng, n):
    """The planned factor of a random ray at n parties, at a random level."""
    return realize_ray(rng.choice(enumerate_upsets(n)), rng.choice([1, 2, rng.uniform(0.1, 3)]))


def dense(f):
    return scheme_state_pair(f.scheme, f.weight)


def test_product_pair_vector_is_the_sum_of_its_factors():
    rng = random.Random(17)
    for _ in range(30):
        a, b = random_factor(rng, 2), random_factor(rng, 2)
        factored = re_vector(ProductPair(2, (a, b)))
        expected = [math.fsum(x) for x in zip(re_vector(a).values, re_vector(b).values)]
        assert list(factored.values) == expected
        for x, y in zip(factored.values, re_vector(tensor(dense(a), dense(b))).values):
            assert abs(x - y) <= 1e-10
    factor = realize_ray(enumerate_upsets(3)[5], 1)
    assert re_vector(ProductPair(3, (factor,))).values == re_vector(dense(factor)).values
    assert re_vector(ProductPair(3, ())).values == (0.0,) * 7


@st.composite
def product_pairs(draw):
    """ProductPairs of 0 to 4 rays at n <= 5, each the upward closure of
    1 to 3 random masks, so the up-sets need not nest, at levels drawn
    from a small pool, so equal weights recur, or at any level."""
    n = draw(st.integers(1, 5))
    masks = st.integers(1, (1 << n) - 1)
    levels = st.sampled_from([1, 2, 0.5, 1.75]) | st.floats(0.01, 40)
    rays = draw(st.lists(st.tuples(st.sets(masks, min_size=1, max_size=3), levels), max_size=4))
    return ProductPair(n, tuple(realize_ray(upward_closure(seeds, n), lam) for seeds, lam in rays))


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_product_pair_vector_is_the_fsum_of_its_factor_columns(pair):
    vec, expected = re_vector(pair), fsum_columns(pair)
    assert repr(vec.values) == repr(expected.values)
    assert vec.levels == expected.levels


def test_cells_of_equal_value_merge_into_one_level():
    # A and B each carry one unit ray: their cells, A alone and B alone,
    # both sum to 1.0, and AB to 2.0
    a, b = (realize_ray(upward_closure({m}, 2), 1) for m in (0b01, 0b10))
    vec = re_vector(ProductPair(2, (a, b)))
    assert vec.values == (1.0, 1.0, 2.0)
    assert vec.levels == {1.0: 1 << 0b01 | 1 << 0b10, 2.0: 1 << 0b11}


def test_product_pair_multiplies_out_on_request():
    rng = random.Random(23)
    a, b, c = (random_factor(rng, 2) for _ in range(3))
    product = ProductPair(2, (a, b, c))
    multiplied = tensor(tensor(dense(a), dense(b)), dense(c))
    assert (product.rho, product.sigma) == (multiplied.rho, multiplied.sigma)
    assert ProductPair(2, (a,)).sigma == dense(a).sigma
    one = JointDistribution(3, (1, 1, 1), (((0, 0, 0), 1),), 1)
    assert (ProductPair(3, ()).rho, ProductPair(3, ()).sigma) == (one, one)
    assert point_pair(3) == StatePair(one, one)


def test_the_one_fold_matches_each_side_multiplied_out():
    # random products at n <= 3, the empty products, and a 2-of-3 Shamir
    # factor alone and between two others
    rng = random.Random(31)
    shamir = realize_ray(upward_closure({0b011, 0b101, 0b110}, 3), 1.5)
    assert shamir.scheme.q == 5
    pairs = [ProductPair(n, ()) for n in (1, 2, 3)]
    pairs += [ProductPair(3, (shamir,)),
              ProductPair(3, (random_factor(rng, 3), shamir, random_factor(rng, 3)))]
    for _ in range(40):
        n = rng.randint(1, 3)
        pairs.append(ProductPair(n, tuple(random_factor(rng, n) for _ in range(rng.randint(0, 3)))))
    for pair in pairs:
        expected = multiplied_out(pair)
        assert dense_pair(pair) == expected
        assert (pair.rho, pair.sigma) == (expected.rho, expected.sigma)


def test_product_pair_rejects_party_mismatch():
    rng = random.Random(29)
    with pytest.raises(ValueError, match="factor 2 has 4 parties"):
        ProductPair(3, (random_factor(rng, 3), random_factor(rng, 4)))
    with pytest.raises(ValueError, match="factor 1 is a StatePair, not a Factor"):
        ProductPair(3, (point_pair(3),))


def test_shannon_entropy_uniform():
    d = JointDistribution(1, (5,), tuple(((i,), 1) for i in range(5)), 5)
    assert shannon_entropy(d) == pytest.approx(math.log2(5), abs=1e-14)


def test_mutual_information_product_is_zero():
    da = JointDistribution(1, (2,), (((0,), 1), ((1,), 2)), 3)
    db = JointDistribution(1, (3,), (((0,), 1), ((2,), 1)), 2)
    joint = JointDistribution(2, (2, 3), tuple(
        ((xa[0], xb[0]), wa * wb) for xa, wa in da.atoms for xb, wb in db.atoms), 6)
    assert mutual_information(joint, 0b01) == 0.0


def test_mutual_information_correlated_pair():
    joint = JointDistribution(2, (2, 2), (((0, 0), 1), ((1, 1), 1)), 2)
    assert mutual_information(joint, 0b01) == 1.0


def test_mutual_information_rejects_full_split():
    d = random_distribution(random.Random(2), 2, (2, 2))
    with pytest.raises(ValueError):
        mutual_information(d, 0b11)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_monotonicity_random_pairs():
    rng = random.Random(42)
    order = subsets_in_order(3)
    for _ in range(200):
        pair = random_pair(rng, 3, (2, 3, 2))
        vec = re_vector(pair)
        for mask in order:
            for sub in proper_submasks(mask):
                assert value(vec, mask) >= value(vec, sub) - 1e-12


def test_ssa_on_random_states():
    rng = random.Random(43)
    for _ in range(200):
        rho = random_distribution(rng, 3, (2, 2, 3))
        h = lambda m: shannon_entropy(marginal(rho, m))
        assert h(0b011) + h(0b110) >= h(0b111) + h(0b010) - 1e-12


def test_additivity_random_pairs():
    rng = random.Random(44)
    for _ in range(60):
        a = random_pair(rng, 2, (2, 3), sigma_full_support=True)
        b = random_pair(rng, 2, (3, 2), sigma_full_support=True)
        lhs = re_vector(tensor(a, b))
        rhs = add(re_vector(a), re_vector(b))
        assert all(abs(x - y) <= 1e-10 for x, y in zip(lhs.values, rhs.values))


@pytest.mark.parametrize("lam", [Fraction(1, 100), Fraction(1, 10), Fraction(3, 10)])
def test_dilution_bound(lam):
    # diluted pair (lam*rho + (1-lam)*sigma, sigma): each entry drops below
    # lam * v by at most the binary entropy of lam
    rng = random.Random(45)
    h2 = binary_entropy(float(lam))
    for _ in range(25):
        pair = random_pair(rng, 2, (3, 3), sigma_full_support=True)
        v = re_vector(pair)
        diluted = StatePair(mix(pair.rho, pair.sigma, lam), pair.sigma)
        w = re_vector(diluted)
        for mask in subsets_in_order(2):
            alpha = float(lam) * value(v, mask) - value(w, mask)
            assert 0.0 <= alpha <= h2


def test_orthogonal_support_half_mix_is_one_bit():
    # whenever the two tables never collide, the half mix sits exactly one
    # bit away regardless of support size
    rng = random.Random(46)
    for size in (2, 3, 5, 8):
        syms = list(range(size))
        rng.shuffle(syms)
        half = size // 2 or 1
        w0 = [rng.randint(1, 9) for _ in range(half)]
        w1 = [rng.randint(1, 9) for _ in range(size - half)] or [1]
        d0 = JointDistribution(1, (size + 1,), tuple(
            ((s,), w) for s, w in zip(syms[:half], w0)), sum(w0))
        d1 = JointDistribution(1, (size + 1,), tuple(
            ((s,), w) for s, w in zip(syms[half:] + [size], w1)), sum(w1))
        sigma = mix(d0, d1, Fraction(1, 2))
        assert relative_entropy(d0, sigma) == 1.0


def test_monotone_achieved_vectors_pass_membership():
    rng = random.Random(47)
    for _ in range(40):
        pair = random_pair(rng, 3, (2, 2, 2), sigma_full_support=True)
        vec = re_vector(pair)
        assert check_membership(vec).member
        # no pair drops by more than the 1e-12 float-noise cushion
        assert all(value(vec, mask) >= value(vec, sub) - 1e-12
                   for mask in subsets_in_order(3) for sub in proper_submasks(mask))


@st.composite
def exact_distributions(draw, n=2, sizes=(2, 2)):
    from itertools import product as iproduct
    symbols = list(iproduct(*[range(s) for s in sizes]))
    weights = draw(st.lists(st.integers(min_value=0, max_value=9),
                            min_size=len(symbols), max_size=len(symbols)))
    if not any(weights):
        weights[draw(st.integers(min_value=0, max_value=len(symbols) - 1))] = 1
    atoms = tuple((sym, w) for sym, w in zip(symbols, weights) if w)
    return JointDistribution(n, sizes, atoms, sum(weights))


@given(exact_distributions(), exact_distributions())
@settings(max_examples=150, deadline=None)
def test_relative_entropy_monotone_under_restriction(p, q):
    d_full = relative_entropy(p, q)
    for mask in (0b01, 0b10):
        d_sub = relative_entropy(marginal(p, mask), marginal(q, mask))
        if d_sub == math.inf:
            assert d_full == math.inf
        else:
            assert d_full >= d_sub - 1e-12


@given(exact_distributions())
@settings(max_examples=100, deadline=None)
def test_entropy_bounds(p):
    h = shannon_entropy(p)
    assert -1e-12 <= h <= math.log2(len(p.atoms)) + 1e-12
