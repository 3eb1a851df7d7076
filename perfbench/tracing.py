"""Span tracing from outside the library, for the per-layer breakdown.

A Tracer replaces public library functions at the names their callers
resolve (for example ``recone.realize.tensor``, which ``synthesize`` looks
up in its own module) with wrappers that record a span per call: name,
start, end, parent span and op id.  Spans stay in memory until the run
ends.  Leaving the ``with`` block puts every original function back, so
untraced runs measure unmodified code.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter


def _count_rays(counters, args, result):
    counters["cone.rays"] += len(result.terms)


def _count_table(counters, args, result):
    counters["schemes.table_atoms.max"] = max(counters["schemes.table_atoms.max"],
                                              len(result.table(0)))


def _count_tensor(counters, args, result):
    counters["states.tensor.atoms_out"] += len(result.rho.atoms) + len(result.sigma.atoms)
    counters["states.sigma_atoms.max"] = max(counters["states.sigma_atoms.max"],
                                             len(result.sigma.atoms))


def _count_marginal(counters, args, result):
    counters["states.marginal.atoms_in"] += len(args[0].atoms)


def _count_encoded(counters, args, result):
    counters["jsonio.pair_bytes"] += len(result.encode())


# (module, attribute, span name, counter).  A function appears once for
# every module its callers resolve it from.  "json" is the stdlib module
# whose dumps/loads the round-trip workload calls.
PATCH_POINTS = (
    ("recone.lattice", "enumerate_upsets", "lattice.enumerate_upsets", None),
    ("recone.lattice", "permutation_classes", "lattice.permutation_classes", None),
    ("recone.lattice", "canonical_representative", "lattice.canonical_representative", None),
    ("recone.realize", "layer_cake_decompose", "cone.layer_cake_decompose", _count_rays),
    ("recone.cone", "check_membership", "cone.check_membership", None),
    ("recone.realize", "check_membership", "cone.check_membership", None),
    ("recone.realize", "dnf_scheme", "schemes.dnf_scheme", _count_table),
    ("recone.realize", "scheme_state_pair", "schemes.scheme_state_pair", None),
    ("recone.realize", "tensor", "states.tensor", _count_tensor),
    ("recone.states", "marginal", "states.marginal", _count_marginal),
    ("recone.states", "relative_entropy", "states.relative_entropy", None),
    ("recone.realize", "re_vector", "states.re_vector", None),
    ("recone.realize", "synthesize", "realize.synthesize", None),
    ("recone.realize", "realize_ray", "realize.realize_ray", None),
    ("recone.realize", "verify", "realize.verify", None),
    ("recone.jsonio", "pair_to_json", "jsonio.pair_to_json", None),
    ("json", "dumps", "jsonio.encode", _count_encoded),
    ("json", "loads", "jsonio.decode", None),
    ("recone.jsonio", "pair_from_json", "jsonio.pair_from_json", None),
)

OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int


class Tracer:
    """Context manager that wraps the patch points while it is active."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while the span is open
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self.op_id)

    @contextmanager
    def op(self, op_id: int):
        """Root span around one op of the workload; the benchmark's own
        glue code between library calls is its self time."""
        self.op_id = op_id
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, OP_SPAN, start)

    def _wrap(self, name, fn, count):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def __enter__(self):
        wrapped: dict[int, object] = {}
        for module_name, attr, name, count in PATCH_POINTS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: not traced, {module_name}.{attr} is missing", file=sys.stderr)
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn, count)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def write(self, path, **meta) -> None:
        doc = dict(meta, fields=["name", "start", "end", "parent", "op"],
                   spans=[[s.name, s.start, s.end, s.parent, s.op] for s in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus the time its child
    spans cover) and number of spans."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s.name] += (s.end - s.start) - _covered(children[i], s.start, s.end)
        calls[s.name] += 1
    return dict(self_s), dict(calls)
