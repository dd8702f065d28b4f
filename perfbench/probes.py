"""Layer calls no workload's op can isolate: the ``streams`` kernels
called directly, and the CLI's start-up cost."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from repro.streams.batch import exact_segment_sums, sequential_segment_sums
from repro.streams.timing import compose_rate1, rate1_schedule

from perfbench.spans import Tracer

#: a three-stage chain as ``(clock, ii, delta)``: same rate, then slower
STAGES = [(0, 1, 0), (0, 1, 1), (0, 2, 0)]
REPEATS = 3


def stream_kernels(tr: Tracer, seed: int, smoke: bool = False) -> None:
    """Each kernel on one big seeded array (few huge calls: ``mtx_spmv``)
    and on many arrays of 8 tokens (thousands of tiny windows:
    ``table1_mix``).  A span covers ``calls`` calls; the metric is the
    median span divided by its call count."""
    rng = np.random.default_rng([seed, 99])
    big, many = (20_000, 200) if smoke else (1_000_000, 10_000)
    for suffix, rows, tokens in (("", 1, big), ("_small", many, 8)):
        arrivals = np.cumsum(rng.integers(0, 3, size=(rows, tokens)), axis=1)
        data = rng.uniform(0.1, 1.0, size=(rows, tokens))
        lens = rng.integers(1, 9, size=tokens // 4)
        lens = lens[np.cumsum(lens) <= tokens]
        starts = np.cumsum(lens) - lens
        kernels = (
            ("rate1_schedule", arrivals, lambda a: rate1_schedule(a, 0, 1)),
            ("compose_rate1", arrivals, lambda a: compose_rate1(a, STAGES)),
            ("segment_sums", data,
             lambda d: sequential_segment_sums(d, starts, lens)),
            ("exact_segment_sums", data,
             lambda d: exact_segment_sums(d, starts, lens)),
        )
        for name, operand, kernel in kernels:
            for _ in range(REPEATS):
                with tr.span(f"streams.{name}{suffix}_s", calls=rows,
                             tokens=rows * tokens):
                    for row in operand:
                        kernel(row)


def cli_startup(tr: Tracer, src: str) -> None:
    """One ``python -m repro --help``: the fixed cost every CLI user pays."""
    env = dict(os.environ, PYTHONPATH=src)
    with tr.span("cli.startup_s"):
        subprocess.run([sys.executable, "-m", "repro", "--help"], env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
