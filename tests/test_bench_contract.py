"""The benchmark's tracer patches library functions by name and reads a
scheme's table size; these tests fail when a refactor moves either, which
would otherwise silently zero the benchmark's per-layer metrics."""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import recone.jsonio  # noqa: F401  (the tracer patches loaded modules only)
from recone import realize
from recone.lattice import upward_closure
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
    assert len(scheme.table(0)) == len(scheme.distributions[0].atoms) == 2 ** 10
    counters = defaultdict(int)
    tracing._count_table(counters, (two_of_five,), scheme)
    assert counters["schemes.table_atoms.max"] == 1024


def test_tracer_wraps_and_restores(tracing, capsys):
    original = realize.dnf_scheme
    with tracing.Tracer() as tracer:
        realize.realize_ray(upward_closure({0b011}, 2), 1)
    assert "not traced" not in capsys.readouterr().err
    assert realize.dnf_scheme is original
    assert tracer.counters["schemes.table_atoms.max"] == 2
    assert {s.name for s in tracer.spans} >= {"realize.realize_ray", "schemes.dnf_scheme",
                                             "schemes.scheme_state_pair"}
