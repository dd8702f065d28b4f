"""Reducer tests, including the paper's Figure 7 example."""

import warnings

import pytest

from repro.blocks import (
    BlockError,
    MatrixReducer,
    ScalarReducer,
    StreamFeeder,
    VectorReducer,
)
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import ENGINES, TIMED


def scalar_reduce(tokens, empty_policy="zero", *, backend):
    a = Channel("a", kind="vals")
    out = Channel("o", kind="vals", record=True)
    run_blocks([
        StreamFeeder(tokens, a),
        ScalarReducer(a, out, empty_policy=empty_policy),
    ], backend=backend)
    return list(out.history)


def vector_reduce(crd_tokens, val_tokens, flush_level=1, *, backend):
    crd, val = Channel("c"), Channel("v", kind="vals")
    oc = Channel("oc", record=True)
    ov = Channel("ov", kind="vals", record=True)
    run_blocks([
        StreamFeeder(crd_tokens, crd, name="fc"),
        StreamFeeder(val_tokens, val, name="fv"),
        VectorReducer(crd, val, oc, ov, flush_level=flush_level),
    ], backend=backend)
    return list(oc.history), list(ov.history)


class TestScalarReducer:
    def test_sums_innermost_fibers(self, harness, engine):
        out = scalar_reduce(harness.paper("D, S1, 5, 4, S0, 3, 2, S0, 1", "vals"),
                            backend=engine)
        assert out == [1, 5, 9, Stop(0), DONE]

    def test_empty_fiber_policy_zero(self, engine):
        out = scalar_reduce([1.0, Stop(0), Stop(0), 2.0, Stop(1), DONE], backend=engine)
        assert out == [1.0, 0.0, 2.0, Stop(0), DONE]

    def test_empty_fiber_policy_drop(self, engine):
        out = scalar_reduce(
            [1.0, Stop(0), Stop(0), 2.0, Stop(1), DONE], empty_policy="drop",
            backend=engine,
        )
        assert out == [1.0, 2.0, Stop(0), DONE]

    def test_empty_tokens_are_zero(self, engine):
        assert scalar_reduce([EMPTY, 2.0, Stop(0), DONE], backend=engine) == [2.0, DONE]

    def test_scalar_output_shape(self, engine):
        # A full reduction chain ends with a bare "v, D" stream.
        assert scalar_reduce([1.0, 2.0, Stop(0), DONE], backend=engine) == [3.0, DONE]

    def test_unknown_policy_rejected(self):
        with pytest.raises(BlockError):
            ScalarReducer(Channel("a"), Channel("o"), empty_policy="bogus")


class TestVectorReducerFigure7:
    def test_paper_example(self, harness, engine):
        # Figure 7: accumulating the columns of the Figure 1a matrix.
        crd = harness.paper("D, S1, 3, 1, S0, 2, 0, S0, 1")
        val = harness.paper("D, S1, 5, 4, S0, 3, 2, S0, 1", "vals")
        oc, ov = vector_reduce(crd, val, backend=engine)
        assert oc == harness.paper("D, S0, 3, 2, 1, 0")
        assert ov == harness.paper("D, S0, 5, 3, 5, 2", "vals")


class TestVectorReducer:
    def test_deduplicates_and_sorts(self, engine):
        oc, ov = vector_reduce(
            [3, 1, Stop(0), 1, Stop(1), DONE],
            [1.0, 2.0, Stop(0), 10.0, Stop(1), DONE],
            backend=engine,
        )
        assert oc == [1, 3, Stop(0), DONE]
        assert ov == [12.0, 1.0, Stop(0), DONE]

    def test_regions_flush_independently(self, engine):
        oc, ov = vector_reduce(
            [0, Stop(1), 1, Stop(1), DONE],
            [1.0, Stop(1), 2.0, Stop(1), DONE],
            backend=engine,
        )
        assert oc == [0, Stop(0), 1, Stop(0), DONE]
        assert ov == [1.0, Stop(0), 2.0, Stop(0), DONE]

    def test_empty_region_emits_empty_fiber(self, engine):
        oc, _ = vector_reduce(
            [Stop(1), 4, Stop(1), DONE],
            [Stop(1), 2.0, Stop(1), DONE],
            backend=engine,
        )
        assert oc == [Stop(0), 4, Stop(0), DONE]

    def test_flush_at_done_for_outer_reductions(self, engine):
        # Reduction over the outermost variable: regions close only at D
        # (the MatTransMul dataflow).
        oc, ov = vector_reduce(
            [0, 1, Stop(0), 1, Stop(0), DONE],
            [1.0, 2.0, Stop(0), 3.0, Stop(0), DONE],
            backend=engine,
        )
        assert oc == [0, 1, Stop(0), DONE]
        assert ov == [1.0, 5.0, Stop(0), DONE]

    def test_misaligned_stops_rejected(self, engine):
        with pytest.raises(BlockError):
            vector_reduce([Stop(1), DONE], [Stop(0), DONE], backend=engine)


class TestVectorReducerProtocolErrors:
    """Malformed input is one named ``BlockError`` on every engine: both
    definitions of the block (``_run``, ``drain_timed``) run the same
    checks, so neither a raw ``TypeError`` nor a silently truncated
    coordinate can come out of one plane only."""

    CASES = {
        "fractional coordinates": (
            [1.5, 1.2, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "reduce1: non-integer coordinate 1.5",
        ),
        "fractional after integers": (
            [1, 2.5, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "reduce1: non-integer coordinate 2.5",
        ),
        "bool coordinates": (
            [True, Stop(1), DONE], [1.0, Stop(1), DONE],
            "reduce1: non-integer coordinate True",
        ),
        "infinite coordinate": (
            [1, float("inf"), Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "reduce1: non-integer coordinate inf",
        ),
        "value run short": (
            [1, 2, Stop(1), DONE], [1.0, Stop(1), DONE],
            "reduce1: misaligned inputs (2 vs S1)",
        ),
        "value stream ends early": (
            [1, 2, Stop(1), DONE], [1.0, DONE],
            "reduce1: misaligned inputs (2 vs D)",
        ),
        "empty coordinate": (
            [EMPTY, 3, Stop(1), DONE], [1, 2.0, Stop(1), DONE],
            "reduce1: misaligned inputs (N vs 1.0)",
        ),
        "non-zero value without a coordinate": (
            [3, Stop(1), DONE], [1.0, 0.0, 0.5, Stop(1), DONE],
            "reduce1: non-zero value 0.5 without a coordinate",
        ),
        "stop against done": (
            [3, Stop(1), DONE], [1.0, DONE],
            "reduce1: misaligned inputs (S1 vs D)",
        ),
        "stop levels": (
            [3, Stop(1), DONE], [1.0, Stop(0), DONE],
            "reduce1: misaligned stops S1/S0",
        ),
    }

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_message_on_every_engine(self, case, backend):
        crd, val, message = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(BlockError) as caught:
                vector_reduce(list(crd), list(val), backend=backend)
        assert str(caught.value) == message

    #: A ``TokenBatch`` stores a run of data tokens as ONE int64 or
    #: float64 array.  ``True`` never joins one: ``TokenBatch.from_tokens``
    #: judges every datum by ``batch_kind``, as a channel does a pushed
    #: one, so a feeder holding it hands the stream to the generators and
    #: every engine names it.  Known gap, below the reducer: *within a
    #: mixed run* the timed plane cannot tell ``2.0`` from ``2`` (refusing
    #: to batch such runs would push every value stream that mixes ``3``
    #: with ``0.5`` off the timed plane), so it blames the run's first
    #: token for ``[1, 2.0]``.  Strict xfails: closing the gap must delete
    #: them.
    BATCH_GAPS = {
        "bool among integers": (
            [True, 2, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "reduce1: non-integer coordinate True",
        ),
        "integral float among integers": (
            [1, 2.0, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "reduce1: non-integer coordinate 2.0",
        ),
    }

    @pytest.mark.parametrize("case, backend", [
        (case, backend)
        if case == "bool among integers" or backend not in TIMED
        else pytest.param(case, backend, marks=pytest.mark.xfail(
            strict=True, reason="a batch erases types within a mixed run"
        ))
        for case in sorted(BATCH_GAPS) for backend in ENGINES
    ])
    def test_mixed_type_runs(self, case, backend):
        crd, val, message = self.BATCH_GAPS[case]
        with pytest.raises(BlockError) as caught:
            vector_reduce(list(crd), list(val), backend=backend)
        assert str(caught.value) == message

    @pytest.mark.parametrize("backend", ENGINES)
    def test_the_first_error_in_stream_order_wins(self, backend):
        # a clean region, a non-zero phantom, then a short value run
        crd = [1, Stop(1), Stop(0), 7, 8, Stop(1), DONE]
        val = [1.0, Stop(1), 2.0, Stop(0), 3.0, Stop(1), DONE]
        with pytest.raises(BlockError, match="non-zero value 2.0 without"):
            vector_reduce(crd, val, backend=backend)


class TestMatrixReducer:
    def test_outer_product_accumulation(self, engine):
        # Two outer-product contributions to the same (i, j) point.
        outer = Channel("co")
        inner = Channel("ci")
        val = Channel("v", kind="vals")
        oo = Channel("oo", record=True)
        oi = Channel("oi", record=True)
        ov = Channel("ov", kind="vals", record=True)
        run_blocks([
            StreamFeeder([0, 2, Stop(0), 0, Stop(1), DONE], outer, name="fo"),
            StreamFeeder(
                [1, Stop(0), 1, Stop(1), 1, 2, Stop(2), DONE], inner, name="fi"
            ),
            StreamFeeder(
                [1.0, Stop(0), 5.0, Stop(1), 2.0, 3.0, Stop(2), DONE], val, name="fv"
            ),
            MatrixReducer(outer, inner, val, oo, oi, ov),
        ], backend=engine)
        assert list(oo.history) == [0, 2, Stop(0), DONE]
        assert list(oi.history) == [1, 2, Stop(0), 1, Stop(1), DONE]
        assert list(ov.history) == [3.0, 3.0, Stop(0), 5.0, Stop(1), DONE]
