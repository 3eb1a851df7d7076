#!/usr/bin/env python3
"""Benchmark of the recone synthesis round trip, stdlib only.

    python3 perfbench/run.py --workload roundtrip-n3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
seeded workload runs in this process on one thread: set-up (a fresh
import of recone plus building the inputs) is repeated SETUP_REPEATS
times and its median reported, then whole passes over the inputs run
until --seconds have elapsed (at least one pass), every output checked.

--trace 0 prints the end-to-end metrics, with times scaled to the
reference machine speed (clock.py); --trace 1 wraps the library's public
functions (tracing.py), prints per-layer self times and counts and writes
the spans to perfbench/out/.  Each metric is printed by name with its
unit, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 1 when any op
failed, 2 when the arguments or the library are unusable.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from clock import Clock  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
RECONE_MODULES = ("lattice", "cone", "schemes", "states", "realize", "jsonio")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: span self times, call counts and
# the counters tracing.py records.  Layers a workload does not reach
# read 0.
LAYER_SPANS = (
    "lattice.enumerate_upsets", "lattice.permutation_classes", "lattice.canonical_representative",
    "cone.layer_cake_decompose", "cone.check_membership",
    "schemes.dnf_scheme", "schemes.scheme_state_pair",
    "states.tensor", "states.marginal", "states.relative_entropy", "states.re_vector",
    "realize.synthesize", "realize.realize_ray", "realize.verify",
    "jsonio.pair_to_json", "jsonio.encode", "jsonio.decode", "jsonio.pair_from_json",
    "bench.op",
)
LAYER_CALLS = ("lattice.canonical_representative", "schemes.dnf_scheme", "states.marginal")
LAYER_COUNTERS = ("cone.rays", "schemes.table_atoms.max", "states.tensor.atoms_out",
                  "states.sigma_atoms.max", "states.marginal.atoms_in", "jsonio.pair_bytes")


def percentiles(samples_ms) -> tuple[float, float]:
    """Median and nearest-rank p90 of the op latencies."""
    ordered = sorted(samples_ms)
    return statistics.median(ordered), ordered[math.ceil(0.9 * len(ordered)) - 1]


def p90_resolved(samples: int) -> bool:
    """At least ten samples lie beyond the nearest-rank p90, which needs
    100 samples or more; with fewer it is the slowest op or close to it."""
    return samples >= 100


def fresh_import() -> SimpleNamespace:
    """Import recone from ./src anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "recone" or m.startswith("recone.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("recone")
    if Path(package.__file__).resolve().parent != SRC / "recone":
        raise ImportError(f"recone resolved to {package.__file__}, not {SRC / 'recone'}")
    return SimpleNamespace(**{m: importlib.import_module(f"recone.{m}") for m in RECONE_MODULES})


def set_up(workload, seed: int):
    """Median set-up time over SETUP_REPEATS, scaled to the reference
    speed, and the last set-up's modules and inputs.  Every repeat must
    build the same inputs."""
    digests = set()
    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            with clock.segment(-1, ops=0):
                rc = fresh_import()
                inputs, input_digest = workload.make_inputs(rc, seed)
            digests.add(input_digest)
    if len(digests) != 1:
        raise RuntimeError(f"seed {seed} built different inputs on set-up repeats: {digests}")
    return statistics.median(clock.scaled_seconds()), rc, inputs, input_digest


def measure(workload, rc, inputs, seconds: float, clock: Clock):
    """Whole passes until `seconds` have elapsed; returns the pass results."""
    results = []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        results.append(workload.run_pass(rc, inputs, clock))
    return results


def timing_values(seconds, clock: Clock, attempted: int) -> dict[str, float]:
    samples = [t * 1e3 / s.ops for t, s in zip(seconds, clock.segments) if s.ops]
    p50, p90 = percentiles(samples)
    return {"ops_per_s": attempted / sum(seconds), "op_p50_ms": p50, "op_p90_ms": p90}


def end_to_end_metrics(clock: Clock, setup_s: float, attempted: int) -> dict:
    samples = sum(1 for s in clock.segments if s.ops)
    if not p90_resolved(samples):
        print(f"op_p90_ms rests on {samples} samples, fewer than ten lie beyond it")
    raw = timing_values(clock.raw_seconds(), clock, attempted)
    print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
          + f" ({len(clock.samples)} speed probes)")
    values = {"setup_s": setup_s, **timing_values(clock.scaled_seconds(), clock, attempted),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def layer_metrics(tracer: Tracer, busy_s: float, attempted: int) -> dict:
    self_s, calls = self_times(tracer.spans)
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in LAYER_SPANS}
    metrics.update({f"{name}.calls": (calls.get(name, 0), "count") for name in LAYER_CALLS})
    metrics.update({name: (tracer.counters.get(name, 0), "count") for name in LAYER_COUNTERS})
    metrics["bench.traced_ops_per_s"] = (attempted / busy_s, "1/s")
    covered = sum(self_s.values())
    print(f"trace: {len(tracer.spans)} spans, self times sum to {covered:.3f} s of "
          f"{busy_s:.3f} s traced wall time ({covered / busy_s:.1%})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "recone" / "__init__.py").is_file():
        print(f"perfbench: no recone package under {SRC}", file=sys.stderr)
        return 2
    setup_s, rc, inputs, input_digest = set_up(workload, args.seed)
    print(f"{workload.name} seed={args.seed} inputs={input_digest}")

    if args.trace:
        with Tracer() as tracer, Clock(tracer) as clock:
            results = measure(workload, rc, inputs, args.seconds, clock)
    else:
        with Clock() as clock:
            results = measure(workload, rc, inputs, args.seconds, clock)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    busy_s = sum(clock.raw_seconds())
    print(f"passes={len(results)} ops={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g} timed={busy_s:.3f} s")

    if args.trace:
        metrics = layer_metrics(tracer, busy_s, attempted)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(span_file, workload=workload.name, seed=args.seed)
        print(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(clock, setup_s, attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
