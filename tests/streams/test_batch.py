"""TokenBatch / batched-channel unit tests (the numpy data plane).

Batches reach a channel's queue the way they do in a run: pushed with
stamps (``push_batch_timed``) and materialised for a scalar consumer.
"""

import numpy as np
import pytest

from repro.streams import Channel, DONE, EMPTY, Stop, TokenBatch
from repro.streams.batch import (
    CODE_DONE,
    CODE_EMPTY,
    CODE_REPEAT,
    NO_TOKEN,
    concat_batches,
    decode_code,
    encode_token,
    exact_segment_sums,
    sequential_segment_sums,
)
from repro.streams.timing import (
    TimedBuilder,
    TimedReader,
    blank_fibers,
    common_front,
    consume,
    front_fibers,
    front_stream,
)

MIXED = [3, 7, EMPTY, Stop(0), 2.5, "R", Stop(1), Stop(0), DONE]


def push_batch(channel, batch):
    """Queue *batch* on *channel* as one materialised queue element."""
    if channel.timed is None:
        channel.init_timed()
    data, _, ccode = batch.remaining_arrays()
    channel.push_batch_timed(
        batch, np.zeros(len(data), np.int64), np.zeros(len(ccode), np.int64)
    )
    channel.materialize_timed()


def drain(channel):
    """Pop every queued token of *channel*, a batch as its tokens."""
    tokens = []
    for item in channel.queue:
        tokens += item.tokens() if isinstance(item, TokenBatch) else [item]
    channel.queue.clear()
    return tokens


class TestTokenBatch:
    def test_round_trip_preserves_every_token(self):
        batch = TokenBatch.from_tokens(MIXED)
        assert batch.tokens() == MIXED
        assert len(batch) == len(MIXED)

    def test_scalar_pop_matches_order(self):
        batch = TokenBatch.from_tokens(MIXED)
        popped = [batch.pop_front() for _ in range(len(MIXED))]
        assert popped == MIXED
        assert batch.exhausted
        with pytest.raises(IndexError):
            batch.pop_front()

    def test_counts_classify_like_channel_push(self):
        batch = TokenBatch.from_tokens(MIXED)
        scalar = Channel("s")
        for token in MIXED:
            scalar.push(token)
        batched = Channel("b")
        push_batch(batched, batch)
        assert scalar.token_counts() == batched.token_counts()

    def test_consecutive_controls_keep_order(self):
        tokens = [Stop(0), Stop(1), DONE]
        assert TokenBatch.from_tokens(tokens).tokens() == tokens

    def test_view_shares_arrays_not_cursors(self):
        batch = TokenBatch.from_tokens([1, 2, Stop(0)])
        view = batch.view()
        batch.pop_front()
        assert view.tokens() == [1, 2, Stop(0)]

    def test_codes(self):
        assert encode_token(Stop(3)) == 3
        assert encode_token(DONE) == CODE_DONE
        assert encode_token(EMPTY) == CODE_EMPTY
        assert encode_token("R") == CODE_REPEAT
        assert encode_token(5) is None and encode_token(1.5) is None
        for code in (0, 4, CODE_DONE, CODE_EMPTY, CODE_REPEAT):
            assert encode_token(decode_code(code)) == code


class TestChannelBatching:
    def test_scalar_consumer_splits_batches(self):
        channel = Channel("c")
        push_batch(channel, TokenBatch.from_tokens(MIXED))
        assert len(channel) == len(MIXED)
        popped = []
        while not channel.empty():
            assert channel.peek() == (
                channel.peek()
            )  # peek is stable and non-consuming
            popped.append(channel.pop())
        assert popped == MIXED

    def test_take_batch_coalesces_scalars_and_batches(self):
        channel = Channel("c")
        channel.push(1)
        push_batch(channel, TokenBatch.from_tokens([2, Stop(0)]))
        channel.push(DONE)
        window = channel.take_batch()
        assert window.tokens() == [1, 2, Stop(0), DONE]
        assert channel.empty()
        assert channel.take_batch() is None

    def test_drain_expands_batches(self):
        channel = Channel("c")
        push_batch(channel, TokenBatch.from_tokens([1, Stop(0)]))
        channel.push(2)
        assert drain(channel) == [1, Stop(0), 2]

    def test_record_history_expands_batches(self):
        channel = Channel("c", record=True)
        push_batch(channel, TokenBatch.from_tokens(MIXED))
        assert channel.history == MIXED

    def test_take_batch_is_stat_free(self):
        channel = Channel("c")
        push_batch(channel, TokenBatch.from_tokens([1, 2, DONE]))
        before = channel.token_counts()
        window = channel.take_batch()
        assert channel.token_counts() == before
        assert window.tokens() == [1, 2, DONE]


def stamped(tokens, start=1):
    """A channel holding *tokens* on the stamped plane, token k visible
    at cycle ``start + k``."""
    channel = Channel("c")
    channel.init_timed()
    is_ctrl = np.array([encode_token(t) is not None for t in tokens])
    stamps = np.arange(start, start + len(tokens))
    channel.push_batch_timed(
        TokenBatch.from_tokens(tokens), stamps[~is_ctrl], stamps[is_ctrl]
    )
    return channel


def held(tokens):
    """The held window of a reader over ``stamped(tokens)``."""
    reader = TimedReader(stamped(tokens))
    reader.pull()
    return reader.held_window()


def fibers_of(view):
    """A :class:`Fibers` view as plain lists, field by field."""
    return {name: np.asarray(field).tolist() for name, field in view._asdict().items()}


class TestTimedReader:
    def test_runs_ctrl_and_stamps(self):
        reader = TimedReader(stamped([1, 2, 3, Stop(0), 4, 5, DONE, 6]))
        reader.pull()
        window = reader.held_window()
        first = front_fibers(window, 1)
        assert fibers_of(first) == {
            "data": [1, 2, 3], "ends": [3], "lens": [3], "codes": [0],
            "sdata": [1, 2, 3], "scodes": [4], "blank": [],
        }
        assert first.span == (3, 1) and first.tail == 0 and not first.done
        consume(window, *first.span)
        assert reader.peek() == (4, 5)
        # read to the end: through the first D, and nothing after it
        rest = front_stream(window)
        assert fibers_of(rest)["data"] == [4, 5] and rest.done
        assert rest.codes.tolist() == [CODE_DONE] and rest.scodes.tolist() == [7]
        before = rest.before_done()  # what stands in front of the D
        assert before.codes.tolist() == [] and before.tail == 2
        consume(window, *before.head(0, 1).span)
        assert reader.pop() == (5, 6)
        assert reader.pop() == (DONE, 7)

    def test_run_spans_batches(self):
        channel = stamped([1, 2])
        batch = TokenBatch.from_tokens([3, Stop(0)])
        channel.push_batch_timed(batch, np.array([7]), np.array([8]))
        reader = TimedReader(channel)
        reader.pull()
        window = reader.held_window()  # one entry, cursors intact
        fiber = front_fibers(window, 1)
        assert fiber.data.tolist() == [1, 2, 3] and fiber.sdata.tolist() == [1, 2, 7]
        assert fiber.scodes.tolist() == [8]
        consume(window, *fiber.span)
        assert reader.peek() == (NO_TOKEN, 0)

    def test_densify_empty_keeps_stamps(self):
        reader = TimedReader(stamped([EMPTY, 1.0, EMPTY, Stop(0), EMPTY, DONE]))
        reader.pull()
        reader.densify_empty(0.0)
        view = front_stream(reader.held_window())
        assert fibers_of(view) == {
            "data": [0.0, 1.0, 0.0, 0.0], "ends": [3, 4], "lens": [3, 1],
            "codes": [0, CODE_DONE], "sdata": [1, 2, 3, 5], "scodes": [4, 6],
            "blank": [],
        }

    def test_blank_fibers_read_n_as_data_and_consume_it_as_n(self):
        channel = stamped([EMPTY, 4, Stop(0), 5, EMPTY, EMPTY, Stop(1), EMPTY])
        reader = TimedReader(channel)
        reader.pull()
        window = reader.held_window()
        view = blank_fibers(front_stream(window))
        assert fibers_of(view) == {
            "data": [0, 4, 5, 0, 0, 0], "ends": [2, 5], "lens": [2, 3],
            "codes": [0, 1], "sdata": [1, 2, 4, 5, 6, 8], "scodes": [3, 7],
            "blank": [0, 3, 4, 5],
        }
        assert view.tokens(1) == [5, EMPTY, EMPTY, Stop(1)]
        # two fibers and one datum of the tail: 3 data, 2 stops and 3 N
        consume(window, *view.head(1, 2).span)
        assert reader.pop() == (EMPTY, 6)
        consume(window, *blank_fibers(front_stream(window)).span)
        assert reader.peek() == (NO_TOKEN, 0)

    def test_common_front_takes_what_every_stream_has(self):
        views = [front_stream(held(tokens))
                 for tokens in ([1, 2, Stop(0), 3, 4, 5], [1, 2, Stop(0), 3, Stop(0)])]
        a, b = common_front(views)
        # the fiber both close, then the pairs both carry of the next
        assert (a.codes.tolist(), a.tail, b.codes.tolist(), b.tail) == ([0], 1, [0], 1)
        ended = [front_stream(held(tokens)) for tokens in ([1, DONE], [1, 2, Stop(0)])]
        a, b = common_front(ended)  # a D in front: nothing after it
        assert (a.codes.tolist(), a.tail, b.codes.tolist(), b.tail) == (
            [CODE_DONE], 0, [0], 0)

    def test_peek_empty(self):
        channel = Channel("c")
        channel.init_timed()
        reader = TimedReader(channel)
        reader.pull()
        assert reader.peek() == (NO_TOKEN, 0)


class TestTimedBuilder:
    def test_interleaved_build(self):
        channel = Channel("c")
        channel.init_timed()
        builder = TimedBuilder(channel)
        builder.data(np.array([1, 2]), np.array([3, 4]))
        builder.ctrl(0, 5)
        builder.data(np.array([9]), np.array([6]))
        builder.ctrl(CODE_DONE, 7)
        assert builder.flush() == 5
        (batch, sdata, sctrl), = channel.timed.pending
        assert (sdata.tolist(), sctrl.tolist()) == ([3, 4, 6], [5, 7])
        channel.materialize_timed()
        assert drain(channel) == [1, 2, Stop(0), 9, DONE]

    def test_data_with_ctrl_positions(self):
        channel = Channel("c")
        channel.init_timed()
        builder = TimedBuilder(channel)
        builder.data_with_ctrl(
            np.array([5, 6, 7]), np.array([1, 3]), np.array([0, 1]),
            np.array([1, 3, 4]), np.array([2, 5]),
        )
        builder.flush()
        channel.materialize_timed()
        assert drain(channel) == [5, Stop(0), 6, 7, Stop(1)]

    def test_blank_data_go_out_as_n(self):
        # the inverse of blank_fibers: N behind the controls in front of
        # its datum, stamped as it
        channel = Channel("c")
        channel.init_timed()
        builder = TimedBuilder(channel)
        builder.data_with_ctrl(
            np.array([5, 0, 7, 0]), np.array([1, 3, 4]), np.array([0, 1, CODE_DONE]),
            np.array([1, 2, 4, 6]), np.array([3, 5, 7]),
            blank=np.array([False, True, False, True]),
        )
        builder.flush()
        (batch, sdata, sctrl), = channel.timed.pending
        assert (sdata.tolist(), sctrl.tolist()) == ([1, 4], [3, 2, 5, 6, 7])
        channel.materialize_timed()
        assert drain(channel) == [5, Stop(0), EMPTY, 7, Stop(1), EMPTY, DONE]

    def test_empty_flush_is_noop(self):
        channel = Channel("c")
        channel.init_timed()
        assert TimedBuilder(channel).flush() == 0
        assert not channel.timed.pending


class TestSequentialSegmentSums:
    def test_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.1, 1.0, 200)
        starts = np.array([0, 3, 3, 50, 199], dtype=np.int64)
        lens = np.array([3, 0, 47, 149, 1], dtype=np.int64)
        sums = sequential_segment_sums(data, starts, lens)
        for k, (start, length) in enumerate(zip(starts, lens)):
            acc = 0.0
            for v in data[start:start + length]:
                acc += v
            assert sums[k] == acc

    def test_empty_inputs(self):
        assert sequential_segment_sums(
            np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64)
        ).size == 0
        out = sequential_segment_sums(
            np.empty(0), np.zeros(2, np.int64), np.zeros(2, np.int64)
        )
        assert out.tolist() == [0.0, 0.0]

    def test_degenerate_segments(self):
        # empty segments interleaved with real ones, zero-length tail
        data = np.array([1.5, 2.25, 4.0])
        starts = np.array([0, 1, 1, 3, 3], dtype=np.int64)
        lens = np.array([1, 0, 2, 0, 0], dtype=np.int64)
        for fn in (sequential_segment_sums, exact_segment_sums):
            assert fn(data, starts, lens).tolist() == [1.5, 0.0, 6.25, 0.0, 0.0]

    def test_exact_bit_identical_on_adversarial_floats(self):
        # forty segments, one of them ~70x the mean length, over signed
        # values and specials; the reducer calls it on every plane.
        rng = np.random.default_rng(11)
        lens = rng.integers(0, 12, 40).astype(np.int64)
        lens[3] = 5
        lens[7] = 400  # overlong: summed the scalar way
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lens)[:-1]]
        )
        total = int(lens.sum())
        # wide exponent range: any other association changes low bits
        data = rng.uniform(0.1, 1.0, total) * (
            10.0 ** rng.integers(-12, 12, total)
        ) * rng.choice([-1.0, 1.0], total)
        special = rng.choice(total, 24, replace=False)
        data[special] = np.resize(
            [-0.0, 0.0, np.inf, -np.inf, np.nan, -0.0], len(special)
        )
        # all -0.0: the 0.0 start makes the sum +0.0 on both paths
        data[starts[3]:starts[3] + 5] = -0.0
        seq = sequential_segment_sums(data, starts, lens)
        exact = exact_segment_sums(data, starts, lens)
        nan = np.isnan(seq)
        assert nan.any() and np.isinf(seq).any()
        assert not np.signbit(seq[3]) and not np.signbit(exact[3])
        assert np.array_equal(nan, np.isnan(exact))
        assert np.array_equal(
            seq[~nan].view(np.uint64), exact[~nan].view(np.uint64)
        )

    def test_malformed_tables_raise(self):
        data = np.arange(10, dtype=np.float64)
        cases = [
            # overrun: Python slices would silently truncate to data[8:10]
            ([8], [5]),
            # negative start: fancy indexing would silently wrap around
            ([-2], [2]),
            ([0], [-1]),
            # non-monotone starts / ends
            ([5, 0], [1, 1]),
            ([0, 1], [9, 2]),
        ]
        for starts, lens in cases:
            s = np.array(starts, dtype=np.int64)
            n = np.array(lens, dtype=np.int64)
            for fn in (sequential_segment_sums, exact_segment_sums):
                with pytest.raises(ValueError):
                    fn(data, s, n)
        with pytest.raises(ValueError):
            sequential_segment_sums(
                data, np.zeros(2, np.int64), np.zeros(1, np.int64)
            )


def test_concat_batches_offsets_ctrl_positions():
    a = TokenBatch.from_tokens([1, Stop(0)])
    b = TokenBatch.from_tokens([2, DONE])
    assert concat_batches([a, b]).tokens() == [1, Stop(0), 2, DONE]
