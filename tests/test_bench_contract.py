"""The benchmark's tracer patches library functions by name and reads a
scheme's table size, and its self-tests read a ProductPair's sigma; these
tests fail when a refactor moves any of them, which would otherwise
silently zero the benchmark's per-layer metrics or break its self-tests."""

import importlib
import importlib.util
import random
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import recone.jsonio  # noqa: F401  (the tracer patches loaded modules only)
from conftest import random_pair, upward_closure
from recone import realize, states
from recone.cone import REVector
from recone.schemes import dnf_scheme

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_patch_point_resolves(tracing):
    for module_name, attr, _, _ in tracing.PATCH_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_table_counter_reads_the_atom_count(tracing):
    two_of_five = upward_closure({m for m in range(1, 32) if m.bit_count() == 2}, 5)
    scheme = dnf_scheme(two_of_five)
    # ten pair clauses, two XOR share tuples each
    assert len(scheme.table(0)) == len(scheme.distribution(0).atoms) == 2 ** 10
    counters = defaultdict(int)
    tracing._count_table(counters, (two_of_five,), scheme)
    assert counters["schemes.table_atoms.max"] == 1024


def test_product_pair_sigma_is_the_dense_sigma():
    # the self-tests size their members by len(synthesize(v).pair.sigma.atoms)
    result = realize.synthesize(REVector(3, (0, 0, 0, 2, 2, 2, 3)))
    sigma = result.pair.sigma
    assert len(sigma.atoms) == result.pair.sigma_atoms == 80
    assert sigma == realize.dense_pair(result.pair).sigma


def test_tracer_wraps_and_restores(tracing, capsys):
    realize._plan.cache_clear()  # a kept {AB} scheme would be built before the tracer wraps
    original = realize.dnf_scheme
    with tracing.Tracer() as tracer:
        factor = realize.realize_ray(upward_closure({0b011}, 2), 1)
        realize.dense_pair(states.ProductPair(2, (factor,)))  # the one caller of scheme_state_pair
    assert "not traced" not in capsys.readouterr().err
    assert realize.dnf_scheme is original
    assert tracer.counters["schemes.table_atoms.max"] == 2
    assert {s.name for s in tracer.spans} >= {"realize.realize_ray", "schemes.dnf_scheme",
                                             "schemes.scheme_state_pair"}


def test_re_vector_marginals_come_from_reduced_parents(tracing):
    pair = random_pair(random.Random(7), 3, (3, 2, 5))
    with tracing.Tracer() as tracer:
        states.re_vector(pair)
    names = [s.name for s in tracer.spans]
    # 2 * (2^3 - 2): one marginal per side for each proper subset, none for ABC
    assert names.count("states.marginal") == 12
    # A, B and C are no longer summed from the full tables: BC, AC and AB
    # read them, then C from AC, and B and A from AB
    ab, ac = (states.marginal(pair.rho, m) for m in (0b011, 0b101))
    ab_s, ac_s = (states.marginal(pair.sigma, m) for m in (0b011, 0b101))
    full = len(pair.rho.atoms) + len(pair.sigma.atoms)
    assert tracer.counters["states.marginal.atoms_in"] == (
        3 * full + len(ac.atoms) + len(ac_s.atoms) + 2 * (len(ab.atoms) + len(ab_s.atoms)))
