"""The numpy schedule and exact-sum primitives against scalar recurrences.

Each production function is compared with the loop its docstring says it
equals, written out here: ``c[k] = max(c[k-1] + ii, a[k])`` for the
schedules, left-to-right ``sum(values[a:b], 0.0)`` for the sums.  All
comparisons are bit-exact (``==`` on integers, on float bit patterns
where NaN can occur), never ``allclose``.
"""

import numpy as np
import pytest

from repro.blocks.base import Block
from repro.streams.batch import (
    exact_segment_sums,
    index_ramp,
    sequential_segment_sums,
)
from repro.streams.timing import compose_rate1, rate1_schedule


def _rate1_loop(arrivals, clock, ii):
    out, free = [], clock
    for a in arrivals:
        free = max(free, a)
        out.append(free)
        free += ii
    return out


def _compose_loop(arrivals, stages):
    out, prev = [], list(arrivals)
    for clock, ii, delta in stages:
        prev = _rate1_loop([a + delta for a in prev], clock, ii)
        out.append(prev)
    return out


def _sum_loop(data, starts, lens):
    values = data.tolist()
    return np.array(
        [sum(values[a:a + n], 0.0) for a, n in zip(starts.tolist(), lens.tolist())]
    )


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


class TestRate1Schedule:
    @pytest.mark.parametrize("ii", [1, 2, 5])
    def test_matches_recurrence(self, ii):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            arrivals = np.sort(rng.integers(0, 100, n)).astype(np.int64)
            clock = int(rng.integers(0, 50))
            got = rate1_schedule(arrivals, clock, ii)
            assert got.dtype == np.int64
            assert got.tolist() == _rate1_loop(arrivals.tolist(), clock, ii)

    def test_unsorted_arrivals(self):
        arrivals = [9, 1, 14, 2, 2]
        got = rate1_schedule(np.array(arrivals, dtype=np.int64), 3, 2)
        assert got.tolist() == _rate1_loop(arrivals, 3, 2) == [9, 11, 14, 16, 18]

    def test_empty(self):
        assert rate1_schedule(np.empty(0, dtype=np.int64), 7, 3).tolist() == []

    def test_composes_over_splits(self):
        # a window cut anywhere continues from the first half's clock
        arrivals = np.array([0, 0, 9, 9, 10, 30], dtype=np.int64)
        whole = rate1_schedule(arrivals, 4, 2)
        for cut in range(1, len(arrivals)):
            head = rate1_schedule(arrivals[:cut], 4, 2)
            tail = rate1_schedule(arrivals[cut:], int(head[-1]) + 2, 2)
            assert head.tolist() + tail.tolist() == whole.tolist()


class TestBlockAdvance:
    """``Block._t_advance`` against the rate-1 loop, carries and
    bookkeeping included: arrivals that already are the schedule come
    back as they are, any other run is scheduled afresh."""

    def test_matches_recurrence(self):
        rng = np.random.default_rng(1)
        scheduled = 0
        for _ in range(200):
            n = int(rng.integers(1, 12))
            steps = rng.integers(0, 4, n)  # a step short of 1 now and then
            arrivals = np.cumsum(steps) + int(rng.integers(0, 20))
            block = Block("timed")
            block._tclock = clock = int(rng.integers(0, 25))
            block._t_carry = carry = int(rng.choice([0, 0, rng.integers(0, 40)]))
            gated = arrivals.tolist()
            gated[0] = max(gated[0], carry)
            want = _rate1_loop(gated, clock, 1)
            got = block._t_advance(arrivals)
            assert got.tolist() == want
            is_schedule = not carry and want == arrivals.tolist()
            assert (got is arrivals) == is_schedule
            scheduled += is_schedule
            assert block._tclock == want[-1] + 1 and block._t_carry == 0
            assert block.busy_cycles == n
            assert block.stall_cycles == want[-1] + 1 - clock - n
        assert 10 < scheduled < 190  # both paths taken


def _assert_fresh(result, *others):
    """A schedule is the caller's to keep: writable, sharing memory with
    neither its input nor the read-only ramp cache."""
    assert result.dtype == np.int64 and result.flags.writeable
    for other in others + (index_ramp(len(result)),):
        assert not np.shares_memory(result, other)


class TestOneAllocation:
    """The in-place pass against the recurrence, at the edges it has."""

    CLOCKS = (0, 1, 7, 10_000)

    @pytest.mark.parametrize("ii", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_schedule_matches_loop(self, ii, dtype):
        rng = np.random.default_rng(ii)
        for clock in self.CLOCKS:
            for n in (0, 1, 2, 17, 300):
                arrivals = rng.integers(0, 400, n).astype(dtype)
                got = rate1_schedule(arrivals, clock, ii)
                assert got.tolist() == _rate1_loop(arrivals.tolist(), clock, ii)
                _assert_fresh(got, arrivals)

    @pytest.mark.parametrize("n", [65_535, 65_536, 65_537, 70_001])
    def test_across_the_ramp_cache(self, n):
        # the ramp cache holds 65 536 entries, then grows
        arrivals = np.random.default_rng(n).integers(0, 3 * n, n)
        for ii in (1, 3):
            got = rate1_schedule(arrivals, 5, ii)
            assert got.tolist() == _rate1_loop(arrivals.tolist(), 5, ii)
            _assert_fresh(got, arrivals)
        stages = [(5, 1, 0), (0, 1, 1), (9, 3, 0), (2, 2, 1)]
        got = compose_rate1(arrivals, stages)
        assert [c.tolist() for c in got] == _compose_loop(arrivals.tolist(), stages)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_compose_matches_loop(self, dtype):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(0, 50))
            arrivals = np.sort(rng.integers(0, 90, n)).astype(dtype)
            stages = [
                (int(rng.choice(self.CLOCKS)), int(rng.integers(1, 4)),
                 int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            got = compose_rate1(arrivals, stages)
            assert [c.tolist() for c in got] == _compose_loop(arrivals.tolist(), stages)
            for k, c in enumerate(got):
                _assert_fresh(c, arrivals, *got[:k])

    def test_writing_a_result_changes_nothing_else(self):
        arrivals = np.array([0, 0, 9, 9], dtype=np.int64)
        first = rate1_schedule(arrivals, 1)
        first[:] = -1
        assert arrivals.tolist() == [0, 0, 9, 9]
        assert index_ramp(4).tolist() == [0, 1, 2, 3]
        assert rate1_schedule(arrivals, 1).tolist() == [1, 2, 9, 10]


class TestComposeRate1:
    def test_matches_stagewise_recurrence(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            arrivals = np.sort(rng.integers(0, 80, n)).astype(np.int64)
            stages = [
                (int(rng.integers(0, 30)), int(rng.integers(1, 4)),
                 int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            got = compose_rate1(arrivals, stages)
            assert [c.tolist() for c in got] == _compose_loop(
                arrivals.tolist(), stages
            )

    def test_decelerating_then_accelerating_stages(self):
        # ii grows (fresh accumulate) then shrinks (elementwise maximum)
        arrivals = np.arange(0, 40, 2, dtype=np.int64)
        stages = [(0, 1, 0), (5, 3, 1), (0, 2, 1)]
        got = compose_rate1(arrivals, stages)
        assert [c.tolist() for c in got] == _compose_loop(
            arrivals.tolist(), stages
        )

    def test_unsorted_arrivals_and_head_delta(self):
        arrivals = np.array([9, 1, 14, 2, 2], dtype=np.int64)
        stages = [(3, 2, 1), (0, 5, 0), (20, 1, 1)]
        got = compose_rate1(arrivals, stages)
        assert [c.tolist() for c in got] == _compose_loop(
            arrivals.tolist(), stages
        )

    def test_empty(self):
        assert compose_rate1(np.arange(3, dtype=np.int64), []) == []
        got = compose_rate1(np.empty(0, dtype=np.int64), [(0, 1, 0), (2, 2, 1)])
        assert [c.tolist() for c in got] == [[], []]


def _table(lens):
    lens = np.asarray(lens, dtype=np.int64)
    starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lens)[:-1]])
    return starts, lens


def _wide_floats(rng, total):
    # wide exponent range: any other association changes low bits
    return (rng.uniform(0.1, 1.0, total) * 10.0 ** rng.integers(-12, 12, total)
            * rng.choice([-1.0, 1.0], total))


SUM_FUNCTIONS = [sequential_segment_sums, exact_segment_sums]


@pytest.mark.parametrize("fn", SUM_FUNCTIONS)
class TestSegmentSums:
    def test_few_segments(self, fn):
        # a short table: nine segments of up to 40 values
        rng = np.random.default_rng(2)
        starts, lens = _table(rng.integers(0, 40, 9))
        data = _wide_floats(rng, int(lens.sum()))
        assert _bits(fn(data, starts, lens)) == _bits(_sum_loop(data, starts, lens))

    def test_many_segments_with_an_overlong_one(self, fn):
        # forty segments, one of them ~70x the mean length
        rng = np.random.default_rng(3)
        lens = rng.integers(0, 12, 40)
        lens[7] = 400
        starts, lens = _table(lens)
        data = _wide_floats(rng, int(lens.sum()))
        assert _bits(fn(data, starts, lens)) == _bits(_sum_loop(data, starts, lens))

    def test_only_empty_segments_left_to_walk(self, fn):
        # every segment empty but the last
        lens = [0] * 20 + [300]
        starts, lens = _table(lens)
        data = _wide_floats(np.random.default_rng(4), 300)
        assert _bits(fn(data, starts, lens)) == _bits(_sum_loop(data, starts, lens))

    def test_special_values(self, fn):
        rng = np.random.default_rng(5)
        starts, lens = _table(rng.integers(1, 9, 32))
        data = _wide_floats(rng, int(lens.sum()))
        at = rng.choice(len(data), 24, replace=False)
        data[at] = np.resize(
            [np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308, 5e-324], len(at)
        )
        got, want = fn(data, starts, lens), _sum_loop(data, starts, lens)
        nan = np.isnan(want)
        assert nan.any() and np.isinf(want).any()
        assert np.array_equal(np.isnan(got), nan)
        assert _bits(got[~nan]) == _bits(want[~nan])

    def test_signed_zeros_and_empty_segments(self, fn):
        # 0.0 + (-0.0) is +0.0 in round-to-nearest; an empty sum is +0.0
        data = np.array([-0.0, 0.0, -0.0])
        got = fn(data, np.array([0, 1, 3]), np.array([1, 2, 0]))
        assert _bits(got) == _bits([0.0, 0.0, 0.0])
        long_starts, long_lens = _table([3] * 20)
        got = fn(np.full(60, -0.0), long_starts, long_lens)
        assert _bits(got) == _bits(np.zeros(20))

    def test_empty_table(self, fn):
        empty = np.empty(0, dtype=np.int64)
        assert fn(np.arange(4.0), empty, empty).tolist() == []

    @pytest.mark.parametrize("starts, lens", [
        ([8], [5]),           # overrun: a Python slice would truncate
        ([-2], [2]),          # negative start: fancy indexing would wrap
        ([0], [-1]),
        ([5, 0], [1, 1]),     # starts decrease
        ([0, 1], [9, 2]),     # ends decrease
        ([0, 0], [1]),        # table sides disagree
    ])
    def test_malformed_tables_raise(self, fn, starts, lens):
        with pytest.raises(ValueError):
            fn(np.arange(10.0), np.array(starts), np.array(lens))
