"""Shared generators for exact random distributions and state pairs."""

from itertools import product

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
