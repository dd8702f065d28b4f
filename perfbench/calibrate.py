"""Host-speed calibration: a fixed piece of work timed beside every op.

The sandbox shares its cores with other tenants, and identical work
drifts by 15-25 % for minutes at a time (README, "Noise").  The drift is
a property of the host, not of the program, so the benchmark measures it
with work that never changes — nothing here imports ``repro`` — and
divides it out: a run's times are reported at the *reference* host
speed, the speed at which every part of a calibration sample takes its
``REFERENCE_S``.

A sample has four parts, one for each thing the simulator's own time is
made of: interpreter-bound arithmetic, pointer chasing through a heap of
Python objects larger than the L2 cache, numpy streaming over arrays
larger than the L2 cache, and many numpy calls on tiny arrays (dispatch
cost).  The host's slowdown is the mean of the four parts' slowdowns,
so no part outweighs another.  Any one part alone tracks only some
workloads (sizing over ten runs per workload, interquartile spread of
the median op: 14-22 % raw, 6-17 % scaled by one part, 5-9 % scaled by
the mix).
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: CPU seconds of each part on this sandbox in a quiet moment; only a
#: scale, so that normalised seconds read like the seconds one sees here
REFERENCE_S = (0.013, 0.022, 0.008, 0.012)

ARITH_STEPS = 200_000
#: The chase hops from slot ``i`` to slot ``i + STRIDE``: coprime with
#: ``SLOTS`` (one cycle through all of them), and every hop lands
#: megabytes away, on a cache line no earlier hop of the sample touched.
#: Slots hold plain ints, not instances of a class: the garbage collector
#: does not track ints, so the program's own collections cost the same
#: with the calibrator in the process as without.
SLOTS = 200_000
STRIDE = 123_457
CHASE_STEPS = 60_000
#: 8 MB in, 8 MB out: twice the L2 cache each
STREAM_TOKENS = 1_000_000
GATHER_TOKENS = 200_000
TINY_TOKENS = 64
TINY_CALLS = 2_500


class Calibrator:
    def __init__(self) -> None:
        self._next = [(i + STRIDE) % SLOTS for i in range(SLOTS)]
        self._at = 0
        rng = np.random.default_rng(0)
        self._stream = rng.random(STREAM_TOKENS)
        self._sums = np.empty(STREAM_TOKENS)
        self._gather = rng.integers(0, STREAM_TOKENS, GATHER_TOKENS)
        self._tiny = rng.random(TINY_TOKENS)
        #: CPU seconds of the four parts of every sample taken
        self.samples: List[Tuple[float, ...]] = []

    def sample(self) -> None:
        clock = time.process_time
        marks = [clock()]
        total = 0
        for i in range(ARITH_STEPS):
            total += i * i
        marks.append(clock())
        at, hop = self._at, self._next
        for _ in range(CHASE_STEPS):
            at = hop[at]
        self._at = at  # carry on from here: the next sample sees cold slots
        marks.append(clock())
        np.cumsum(self._stream, out=self._sums)
        self._sums[self._gather].sort()
        marks.append(clock())
        tiny = self._tiny
        for _ in range(TINY_CALLS):
            np.cumsum(tiny)
            tiny[tiny > 0.5]
        marks.append(clock())
        self.samples.append(tuple(b - a for a, b in zip(marks, marks[1:])))

    def seconds(self, since: int = 0) -> float:
        """Mean CPU seconds of one whole sample over ``samples[since:]``."""
        return statistics.fmean(map(sum, self.samples[since:]))

    def speed(self, since: int = 0) -> float:
        """Host speed over ``samples[since:]`` relative to the reference:
        multiply measured CPU seconds by it to get seconds at reference
        speed.  Means, not medians: an op list's total time is what
        drifts with the host, and a mean tracks a total."""
        parts = zip(*self.samples[since:])
        slowdown = statistics.fmean(
            statistics.fmean(part) / reference
            for part, reference in zip(parts, REFERENCE_S))
        return 1.0 / slowdown
