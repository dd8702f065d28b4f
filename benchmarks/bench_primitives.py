"""Ablation benchmarks: per-primitive throughput of the simulator.

Not a paper figure — these measure the Python simulator itself so
regressions in block implementations are visible (tokens processed per
second per block family).
"""

import numpy as np
import pytest

from repro.blocks import (
    ALU,
    Intersect,
    MergeSide,
    ScalarReducer,
    Sink,
    StreamFeeder,
    Union,
    VectorReducer,
    make_scanner,
)
from repro.formats import CompressedLevel
from repro.sim import run_blocks
from repro.streams import Channel, DONE, Stop

N = 2000


def _long_fiber_tokens(n=N):
    return list(range(n)) + [Stop(0), DONE]


def test_scanner_throughput(benchmark):
    level = CompressedLevel.from_fibers([list(range(N))])

    def run():
        ref = Channel("r", kind="ref")
        crd, out_ref = Channel("c"), Channel("f", kind="ref")
        blocks = [
            StreamFeeder([0, DONE], ref),
            make_scanner(level, ref, crd, out_ref),
            Sink(crd, name="s1"),
            Sink(out_ref, name="s2"),
        ]
        return run_blocks(blocks).cycles

    cycles = benchmark(run)
    assert cycles >= N


def test_intersect_throughput(benchmark):
    tokens = _long_fiber_tokens()

    def run():
        ca, ra = Channel("ca"), Channel("ra", kind="ref")
        cb, rb = Channel("cb"), Channel("rb", kind="ref")
        oc = Channel("oc")
        oa, ob = Channel("oa", kind="ref"), Channel("ob", kind="ref")
        blocks = [
            StreamFeeder(tokens, ca, name="f1"),
            StreamFeeder(tokens, ra, name="f2"),
            StreamFeeder(tokens, cb, name="f3"),
            StreamFeeder(tokens, rb, name="f4"),
            Intersect([MergeSide(ca, [ra]), MergeSide(cb, [rb])], oc, [[oa], [ob]]),
            Sink(oc, name="s1"),
            Sink(oa, name="s2"),
            Sink(ob, name="s3"),
        ]
        return run_blocks(blocks).cycles

    benchmark(run)


def test_union_throughput(benchmark):
    evens = [2 * i for i in range(N // 2)] + [Stop(0), DONE]
    odds = [2 * i + 1 for i in range(N // 2)] + [Stop(0), DONE]

    def run():
        ca, ra = Channel("ca"), Channel("ra", kind="ref")
        cb, rb = Channel("cb"), Channel("rb", kind="ref")
        oc = Channel("oc")
        oa, ob = Channel("oa", kind="ref"), Channel("ob", kind="ref")
        blocks = [
            StreamFeeder(evens, ca, name="f1"),
            StreamFeeder(evens, ra, name="f2"),
            StreamFeeder(odds, cb, name="f3"),
            StreamFeeder(odds, rb, name="f4"),
            Union([MergeSide(ca, [ra]), MergeSide(cb, [rb])], oc, [[oa], [ob]]),
            Sink(oc, name="s1"),
            Sink(oa, name="s2"),
            Sink(ob, name="s3"),
        ]
        return run_blocks(blocks).cycles

    benchmark(run)


def test_alu_throughput(benchmark):
    vals = [float(i) for i in range(N)] + [Stop(0), DONE]

    def run():
        a, b, out = Channel("a"), Channel("b"), Channel("o")
        blocks = [
            StreamFeeder(vals, a, name="f1"),
            StreamFeeder(vals, b, name="f2"),
            ALU("mul", a, b, out),
            Sink(out),
        ]
        return run_blocks(blocks).cycles

    benchmark(run)


def test_reducer_throughput(benchmark):
    rng = np.random.default_rng(0)
    crd_tokens, val_tokens = [], []
    for _ in range(40):
        coords = sorted(rng.choice(100, size=30, replace=False).tolist())
        crd_tokens += coords + [Stop(1)]
        val_tokens += [1.0] * 30 + [Stop(1)]
    crd_tokens.append(DONE)
    val_tokens.append(DONE)

    def run():
        c, v = Channel("c"), Channel("v")
        oc, ov = Channel("oc"), Channel("ov")
        blocks = [
            StreamFeeder(crd_tokens, c, name="f1"),
            StreamFeeder(val_tokens, v, name="f2"),
            VectorReducer(c, v, oc, ov),
            Sink(oc, name="s1"),
            Sink(ov, name="s2"),
        ]
        return run_blocks(blocks).cycles

    benchmark(run)


def test_scalar_reducer_throughput(benchmark):
    tokens = []
    for _ in range(N // 10):
        tokens += [1.0] * 10 + [Stop(0)]
    tokens[-1] = Stop(1)
    tokens.append(DONE)

    def run():
        v, out = Channel("v"), Channel("o")
        blocks = [StreamFeeder(tokens, v), ScalarReducer(v, out), Sink(out)]
        return run_blocks(blocks).cycles

    benchmark(run)


# -- timed-plane scheduling primitives ----------------------------------
#
# The timed-batch and compiled backends spend their cycles in
# ``rate1_schedule`` (one max-plus pass per block window) and
# ``compose_rate1`` (one pass per fused chain).  The batch sizes below
# bracket the real workloads: empty windows (parked readers), single
# tokens (control events), and the 1e6-token windows the scaling
# benchmark produces.


def _timed_arrivals(n: int) -> np.ndarray:
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(3)
    # mixed gaps: some bunched arrivals (0), some spaced (up to 2), so
    # the accumulate in rate1_schedule is not a no-op
    return np.cumsum(rng.integers(0, 3, size=n)).astype(np.int64) + 1


@pytest.mark.parametrize("n", [0, 1, 1_000_000], ids=["empty", "one", "1e6"])
def test_rate1_schedule_throughput(benchmark, n):
    from repro.streams.timing import rate1_schedule

    arrivals = _timed_arrivals(n)
    sched = benchmark(rate1_schedule, arrivals, 5, 1)
    assert len(sched) == n
    if n > 1:
        assert (sched[1:] - sched[:-1] >= 1).all()


@pytest.mark.parametrize("n", [0, 1, 1_000_000], ids=["empty", "one", "1e6"])
def test_compose_rate1_throughput(benchmark, n):
    from repro.streams.timing import compose_rate1, rate1_schedule

    arrivals = _timed_arrivals(n)
    # a three-member value chain at rate 1 (the fused-SpMV shape): the
    # head pays the accumulate, the interior stages collapse to
    # elementwise maxima
    stages = [(5, 1, 0), (2, 1, 1), (0, 1, 0)]

    scheds = benchmark(compose_rate1, arrivals, stages)
    assert len(scheds) == len(stages)
    # bit-identical to the members' own back-to-back passes
    ref = rate1_schedule(arrivals, 5, 1)
    assert np.array_equal(scheds[0], ref)
    ref = rate1_schedule(ref + 1, 2, 1)
    assert np.array_equal(scheds[1], ref)
    assert np.array_equal(scheds[2], rate1_schedule(ref, 0, 1))
