"""Shared generators for exact random distributions, state pairs and
cone members."""

import math
import random
from itertools import product

from recone.cone import REVector
from recone.lattice import enumerate_upsets, subsets_in_order, upward_closure
from recone.states import JointDistribution, StatePair


def random_distribution(rng, n, sizes, full_support=False):
    """Random exact distribution over the given product alphabet: integer
    weights in 1..20 over their sum."""
    symbols = list(product(*[range(s) for s in sizes]))
    chosen = [s for s in symbols if full_support or rng.random() < 0.7]
    if not chosen:
        chosen = [symbols[rng.randrange(len(symbols))]]
    weights = [rng.randint(1, 20) for _ in chosen]
    return JointDistribution(n, tuple(sizes), tuple(zip(chosen, weights)), sum(weights))


def random_pair(rng, n, sizes, sigma_full_support=False):
    rho = random_distribution(rng, n, sizes)
    sigma = random_distribution(rng, n, sizes, full_support=sigma_full_support)
    return StatePair(rho, sigma)


def random_members(seed, n, count):
    """count cone members at n parties, as acceptance criterion 5 draws
    them: sums of 1 to 4 distinct random rays, coefficients U(0.1, 3.0)."""
    rng = random.Random(seed)
    upsets = enumerate_upsets(n)
    order = subsets_in_order(n)
    for _ in range(count):
        picks = rng.sample(upsets, rng.randint(1, 4))
        coeffs = [rng.uniform(0.1, 3.0) for _ in picks]
        yield REVector(n, tuple(math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
                                for mask in order))


def closure_members(seed, n, count):
    """count cone members at n parties, drawn without enumerating the
    up-sets, as members are drawn for n >= 6: sums of 1 to 4 upward
    closures, each of 1 to 4 random seed masks, coefficients U(0.1, 3.0)."""
    rng = random.Random(seed)
    order = subsets_in_order(n)
    for _ in range(count):
        rays = [upward_closure({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))}, n)
                for _ in range(rng.randint(1, 4))]
        coeffs = [rng.uniform(0.1, 3.0) for _ in rays]
        yield REVector(n, tuple(math.fsum(c for c, u in zip(coeffs, rays) if mask in u)
                                for mask in order))
