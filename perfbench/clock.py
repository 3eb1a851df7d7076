"""Timing of the library calls in a run, corrected for the machine's speed.

The shared virtual machines this benchmark was built on run each virtual
CPU in one of two speed states, about 1.7x apart, and switch between them
every few seconds for reasons outside the machine.  The same seed measured
minutes apart read up to 35 % apart.  So while a Clock is active it
samples the speed: every SAMPLE_INTERVAL_S a timer signal runs a short
fixed probe (exact dyadic Fraction sums into a dict, the kind of work the
library does) in the benchmark's own thread, and a burst of probes runs
before every timed segment.  A segment's time, less the probes inside it,
is scaled by PROBE_REF_S over the median probe time during and around it.
Times are thereby reported at the speed where one probe takes
PROBE_REF_S.  The probe shares no code with the library.

Scaled, the op latencies of roundtrip-n3 and classes-n5 spread 1-10 %
over ten seeds, against 9-35 % unscaled.  The scaling holds for ops of
up to a few seconds; a single call of 20-35 s (the 4-of-5 ray) slowed
down by anything from 0.4 to 1 times as much as the probe, depending on
the hour, so no scaling made it steady.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

PROBE_STEPS = 200
#: probe time at the reference speed: the fast state of a 2.1 GHz Xeon VM
PROBE_REF_S = 0.0005
#: probes run back to back before each segment
PROBE_BURST = 3
SAMPLE_INTERVAL_S = 0.05
#: probes this close to a segment also count towards its speed
SPEED_MARGIN_S = 0.25


def probe() -> float:
    """Seconds taken by a fixed loop of exact dyadic Fraction sums."""
    start = perf_counter()
    totals: dict[tuple[int, int], Fraction] = {}
    for i in range(PROBE_STEPS):
        key = (i % 7, i % 11)
        totals[key] = totals.get(key, Fraction(0)) + Fraction(i + 1, 1 << 53)
    return perf_counter() - start


@dataclass(frozen=True)
class Segment:
    start: float
    end: float
    seconds: float  # end - start, less the probes that ran inside it
    ops: int  # ops this segment completes; 0 for work that is no op's


class Clock:
    """Context manager collecting timed segments and speed samples.

    With a tracer, each segment is also a root span and no probes run, so
    that the trace holds only workload time and the times stay unscaled.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.segments: list[Segment] = []
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self._probe_total = 0.0
        self._saved_handler = None

    def _probe(self, *_signal_args) -> None:
        start = perf_counter()
        self.samples.append((start, probe()))
        self._probe_total += perf_counter() - start

    def __enter__(self):
        if not self.tracer:
            self._saved_handler = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.tracer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved_handler)
        return False

    @contextmanager
    def segment(self, op_id: int, ops: int = 1):
        if not self.tracer:
            for _ in range(PROBE_BURST):
                self._probe()
        scope = self.tracer.op(op_id) if self.tracer else nullcontext()
        probed = self._probe_total
        start = perf_counter()
        try:
            with scope:
                yield
        finally:
            end = perf_counter()
            self.segments.append(Segment(start, end, end - start - (self._probe_total - probed), ops))

    def raw_seconds(self) -> list[float]:
        return [s.seconds for s in self.segments]

    def speeds(self) -> list[float]:
        """Per segment, the median probe time during it and within
        SPEED_MARGIN_S of it, over PROBE_REF_S: above 1 when the machine
        ran slower than the reference."""
        times = [t for t, _ in self.samples]
        out = []
        for s in self.segments:
            lo = bisect.bisect_left(times, s.start - SPEED_MARGIN_S)
            hi = bisect.bisect_right(times, s.end + SPEED_MARGIN_S)
            out.append(statistics.median(p for _, p in self.samples[lo:hi]) / PROBE_REF_S)
        return out

    def scaled_seconds(self) -> list[float]:
        return [s.seconds / v for s, v in zip(self.segments, self.speeds())]
