"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench      (from the repository root)
"""

from __future__ import annotations

import io
import json
import signal
import sys
import unittest
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from clock import PROBE_REF_S, Clock, Segment  # noqa: E402
from tracing import PATCH_POINTS, Span, Tracer, self_times  # noqa: E402

TINY_QUOTA = {2: 2, 4: 1, 8: 1, 16: 1}


class PercentileRule(unittest.TestCase):
    def test_p90_resolved_with_ten_samples_beyond(self):
        samples = range(1, 101)
        p50, p90 = run.percentiles(samples)
        self.assertEqual((p50, p90), (50.5, 90))
        self.assertEqual(sum(1 for x in samples if x > p90), 10)
        self.assertTrue(run.p90_resolved(100))

    def test_p90_unresolved_below_one_hundred_samples(self):
        self.assertFalse(run.p90_resolved(99))
        self.assertEqual(run.percentiles([40.0, 1.0, 3.0, 2.0]), (2.5, 40.0))


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        with redirect_stdout(io.StringIO()):
            layers = run.layer_metrics(Tracer(), 1.0, 1)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (_, unit) in layers.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))


class SpeedScaling(unittest.TestCase):
    def test_segments_scale_by_nearby_probes(self):
        clock = Clock()
        slow, fast = 2 * PROBE_REF_S, PROBE_REF_S / 2
        clock.samples = [(float(t), slow if t < 10 else fast) for t in range(20)]
        clock.segments = [Segment(t + 0.1, t + 0.9, 1.0, 1) for t in range(20)]
        self.assertEqual(clock.scaled_seconds()[:9], [0.5] * 9)
        self.assertEqual(clock.scaled_seconds()[-9:], [2.0] * 9)

    def test_probes_inside_a_segment_are_not_timed(self):
        handler = signal.getsignal(signal.SIGALRM)
        with Clock() as clock:
            with clock.segment(0):
                end = perf_counter() + 0.3
                while perf_counter() < end:
                    pass
        (segment,) = clock.segments
        self.assertGreater(len(clock.samples), 3)
        self.assertAlmostEqual(segment.seconds + sum(p for t, p in clock.samples
                                                     if t >= segment.start), 0.3, delta=0.02)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span("op", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("leaf", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
            Span("leaf", 6.0, 6.5, 3, 0),
            Span("leaf", 6.25, 7.0, 3, 0),
            Span("op", 10.0, 12.0, -1, 1),
        ]
        self_s, calls = self_times(spans)
        # b's children overlap in [6.25, 6.5]: b's self time counts that once
        self.assertEqual(self_s, {"op": 3.0 + 2.0, "a": 2.0, "leaf": 2.25, "b": 3.0})
        self.assertEqual(calls, {"op": 2, "a": 1, "leaf": 3, "b": 1})


class Tracing(unittest.TestCase):
    def setUp(self):
        self.rc = run.fresh_import()

    def originals(self):
        return [getattr(sys.modules[m], attr) for m, attr, _, _ in PATCH_POINTS]

    def test_wrappers_restored(self):
        before = self.originals()
        with Tracer() as tracer:
            self.assertTrue(all(a is not b for a, b in zip(before, self.originals())))
            vectors, _ = wl.roundtrip_inputs(self.rc, 3, TINY_QUOTA)
            with Clock(tracer) as clock:
                result = wl.roundtrip_pass(self.rc, vectors, clock)
        self.assertEqual(result.failed, 0)
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))
        self_s, calls = self_times(tracer.spans)
        self.assertEqual(calls["bench.op"], len(vectors))
        self.assertEqual(clock.samples, [])
        self.assertEqual(calls["realize.synthesize"], len(vectors))
        self.assertGreater(calls["states.marginal"], 0)
        self.assertGreater(tracer.counters["jsonio.pair_bytes"], 0)
        roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
        self.assertAlmostEqual(sum(self_s.values()), roots, places=9)

    def test_wrappers_restored_after_an_error(self):
        before = self.originals()
        with self.assertRaises(self.rc.cone.NotInConeError):
            with Tracer() as tracer:
                self.rc.realize.synthesize(self.rc.cone.REVector(2, (1.0, 0.0, 0.5)))
        self.assertEqual([s.name for s in tracer.spans],
                         ["realize.synthesize", "cone.layer_cake_decompose",
                          "cone.check_membership"])
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        rc = run.fresh_import()
        for make in (lambda s: wl.roundtrip_inputs(rc, s, TINY_QUOTA),
                     lambda s: wl.threshold_inputs(rc, s),
                     lambda s: wl.classes_inputs(rc, s, n=3)):
            self.assertEqual(make(11)[1], make(11)[1])
            self.assertNotEqual(make(11)[1], make(12)[1])

    def test_roundtrip_quota_is_met(self):
        members = wl.roundtrip_values(5)
        self.assertEqual(len(members), 100)
        self.assertEqual(Counter(map(wl.xor_sigma_atoms, members)), Counter(wl.ROUNDTRIP_QUOTA))

    def test_size_class_matches_the_library(self):
        rc = run.fresh_import()
        vectors, _ = wl.roundtrip_inputs(rc, 9, {2: 1, 8: 1, 64: 1, 256: 1})
        for v, values in zip(vectors, wl.roundtrip_values(9, {2: 1, 8: 1, 64: 1, 256: 1})):
            pair = rc.realize.synthesize(v).pair
            self.assertEqual(len(pair.sigma.atoms), wl.xor_sigma_atoms(values))

    def test_upsets_match_the_library(self):
        rc = run.fresh_import()
        for n in (2, 3):
            self.assertEqual(wl.all_upsets(n),
                             [u.members for u in rc.lattice.enumerate_upsets(n)])
            self.assertEqual(wl.canonical_order(n), list(rc.lattice.subsets_in_order(n)))


class Smoke(unittest.TestCase):
    """Each workload on tiny inputs, and each check catching a wrong output."""

    def setUp(self):
        self.rc = run.fresh_import()

    def test_roundtrip(self):
        vectors, _ = wl.roundtrip_inputs(self.rc, 1, TINY_QUOTA)
        clock = Clock()
        result = wl.roundtrip_pass(self.rc, vectors, clock)
        self.assertEqual((result.attempted, result.failed), (5, 0))
        self.assertEqual([s.ops for s in clock.segments], [1] * 5)
        self.assertEqual(len(clock.samples), 3 * 5)

    def test_roundtrip_check_catches_a_wrong_pair(self):
        vectors, _ = wl.roundtrip_inputs(self.rc, 1, TINY_QUOTA)
        real = self.rc.jsonio.pair_from_json
        other = self.rc.realize.realize_ray(self.rc.lattice.enumerate_upsets(3)[0], 5.0)
        self.rc.jsonio.pair_from_json = lambda doc: other
        try:
            result = wl.roundtrip_pass(self.rc, vectors, Clock())
        finally:
            self.rc.jsonio.pair_from_json = real
        self.assertEqual(result.failed, result.attempted)

    def test_threshold_rays(self):
        rays, _ = wl.threshold_inputs(self.rc, 4, n=4, ks=(1, 2, 4))
        result = wl.threshold_pass(self.rc, rays, Clock())
        self.assertEqual((result.attempted, result.failed), (3, 0))

    def test_threshold_check_catches_a_wrong_vector(self):
        rays, _ = wl.threshold_inputs(self.rc, 4, n=3, ks=(2,))
        v, expected = rays[0]
        wrong = {m: x + 1e-3 for m, x in expected.items()}
        result = wl.threshold_pass(self.rc, [(v, wrong)], Clock())
        self.assertEqual(result.failed, 1)

    def test_classes(self):
        inputs, _ = wl.classes_inputs(self.rc, 2, n=3)
        clock = Clock()
        result = wl.classes_pass(self.rc, inputs, clock)
        self.assertEqual((result.attempted, result.failed), (18, 0))
        self.assertEqual([s.ops for s in clock.segments], [0] + [1] * 18)

    def test_classes_check_catches_a_missing_upset(self):
        (n, copy), _ = wl.classes_inputs(self.rc, 2, n=3)
        result = wl.classes_pass(self.rc, (n, copy[1:]), Clock())
        self.assertEqual(result.failed, result.attempted)

    def test_no_library_exits_two(self):
        real = run.SRC
        run.SRC = Path(__file__).resolve().parent / "no-such-dir"
        try:
            code = run.main(["--workload", "classes-n5", "--seed", "1", "--seconds", "1"])
        finally:
            run.SRC = real
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
