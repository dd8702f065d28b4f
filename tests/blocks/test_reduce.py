"""Reducer tests, including the paper's Figure 7 example."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.blocks import (
    BlockError,
    MatrixReducer,
    ScalarReducer,
    StreamFeeder,
    VectorReducer,
)
from repro.blocks import reduce as reduce_module
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import ENGINES, TIMED, canon
from numpy_counters import numpy_calls


def scalar_reduce(tokens, empty_policy="zero", *, backend):
    a = Channel("a", kind="vals")
    out = Channel("o", kind="vals", record=True)
    run_blocks([
        StreamFeeder(tokens, a),
        ScalarReducer(a, out, empty_policy=empty_policy),
    ], backend=backend)
    return list(out.history)


def vector_reduce(crd_tokens, val_tokens, flush_level=1, *, backend, route="feeder"):
    """*route*: how the coordinates enter — a feeder on the coordinate
    channel, queued on it before the run, or a feeder on a value channel
    wired to the coordinate port."""
    crd, val = Channel("c", kind="vals" if route == "vals-link" else "crd"), Channel(
        "v", kind="vals")
    oc = Channel("oc", record=True)
    ov = Channel("ov", kind="vals", record=True)
    blocks = [
        StreamFeeder(val_tokens, val, name="fv"),
        VectorReducer(crd, val, oc, ov, flush_level=flush_level),
    ]
    if route == "queued":
        for token in crd_tokens:
            crd.push(token)
    else:
        blocks.insert(0, StreamFeeder(crd_tokens, crd, name="fc"))
    run_blocks(blocks, backend=backend)
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
    coordinate can come out of one plane only; a coordinate that is no
    integer is refused by its feeder, and reaches the block only by a
    route no feeder checks, where the run goes to ``cycle``."""

    CASES = {
        "fractional coordinates": (
            [1.5, 1.2, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "fc: non-integer coordinate 1.5",
        ),
        "fractional after integers": (
            [1, 2.5, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "fc: non-integer coordinate 2.5",
        ),
        "bool coordinates": (
            [True, Stop(1), DONE], [1.0, Stop(1), DONE],
            "fc: non-integer coordinate True",
        ),
        "infinite coordinate": (
            [1, float("inf"), Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "fc: non-integer coordinate inf",
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

    #: A non-integer coordinate is refused by the feeder that plays it,
    #: when the graph is built, so every engine names it — also inside a
    #: run of integers, where a batch of the stream would store ``2.0``
    #: as it stores ``2`` (the window engines used to blame the run's
    #: first token).
    MIXED_RUNS = {
        "bool among integers": (
            [True, 2, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "fc: non-integer coordinate True",
        ),
        "integral float among integers": (
            [1, 2.0, Stop(1), DONE], [1.0, 2.0, Stop(1), DONE],
            "fc: non-integer coordinate 2.0",
        ),
    }

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("case", sorted(MIXED_RUNS))
    def test_mixed_type_runs(self, case, backend):
        crd, val, message = self.MIXED_RUNS[case]
        with pytest.raises(BlockError) as caught:
            vector_reduce(list(crd), list(val), backend=backend)
        assert str(caught.value) == message

    #: the cases whose coordinate is no integer -> the token at fault
    NON_INTEGER = {"fractional coordinates": "1.5", "fractional after integers": "2.5",
                   "bool coordinates": "True", "infinite coordinate": "inf",
                   "bool among integers": "True", "integral float among integers": "2.0"}

    @pytest.mark.parametrize("route", ["queued", "vals-link"])
    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("case", sorted(NON_INTEGER))
    def test_the_reducer_names_what_no_feeder_checked(self, case, backend, route):
        # queued before the run, or on a value stream read as coordinates:
        # the plan hands the run to cycle, whose generator names the token
        # (a window engine used to truncate it, or raise numpy's error)
        crd, val, _ = {**self.CASES, **self.MIXED_RUNS}[case]
        with pytest.raises(BlockError) as caught:
            vector_reduce(list(crd), list(val), backend=backend, route=route)
        assert str(caught.value) == f"reduce1: non-integer coordinate {self.NON_INTEGER[case]}"

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


# -- the vector reducer's two window paths: one sum either way ------------------
#: values whose sums depend on the order they are added in, and the ones
#: whose sums are special: -0.0, NaN, the infinities, the subnormal
VALUES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e16, -1e16, 0.1, 0.2, 0.3,
                   1.0, 5e-324, 1e308, -1e308])
#: where a window's coordinates lie: (smallest, span); the last two span
#: more than any workspace holds, near 2**62 — the argsort sorts regions
#: in pieces of three, then one a piece
LAYOUTS = [(0, 1), (-5, 4), (7, 16), (0, 300), (2**62 - 50, 40), (0, 5000),
           (3, 10**6), (0, 2**61 + 1), (-(2**62), 2**63)]


@st.composite
def reducer_windows(draw):
    """``(crds, vals, sizes)``: 1-40 regions of 0-7 pairs, some empty, few
    distinct coordinates (so repeated ones) over one of :data:`LAYOUTS`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regions = draw(st.integers(1, 40))
    lo, span = draw(st.sampled_from(LAYOUTS))
    sizes = rng.integers(0, 8, regions) * (rng.random(regions) < 0.8)
    pool = np.unique(np.concatenate((
        [lo, lo + span - 1], lo + rng.integers(0, span, rng.integers(1, 9), np.uint64)
        .astype(object))).astype(np.int64))
    crds = rng.choice(pool, int(sizes.sum()))
    vals = VALUES[rng.integers(0, len(VALUES), len(crds))]
    return crds, vals, sizes.astype(np.int64)


def reference_dedup(crds, vals, sizes):
    """The generator's rule, region by region: ``table[crd] =
    table.get(crd, 0.0) + val``, flushed in coordinate order."""
    uniq, sums, counts, top = [], [], [], 0
    for size in sizes.tolist():
        table = {}
        pairs = zip(crds[top:top + size].tolist(), vals[top:top + size].tolist())
        for crd, val in pairs:
            table[crd] = table.get(crd, 0.0) + val
        top += size
        uniq += sorted(table)
        sums += [table[crd] for crd in sorted(table)]
        counts.append(len(table))
    return uniq, np.array(sums, dtype=np.float64).tobytes(), counts


def dedup(crds, vals, sizes, per_pair, floor):
    """``_dedup_regions`` under a workspace bound of ``per_pair * pairs +
    floor`` slots, and how many pieces it sorted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduce_module, "WORKSPACE_PER_PAIR", per_pair)
        patch.setattr(reduce_module, "WORKSPACE_FLOOR", floor)
        with warnings.catch_warnings(), numpy_calls("argsort") as sorted_by:
            warnings.simplefilter("error")  # inf - inf is a result, not a warning
            uniq, sums, counts = reduce_module._dedup_regions(crds, vals, sizes)
    assert uniq.dtype == np.int64 and sums.dtype == np.float64
    return (uniq.tolist(), sums.tobytes(), counts.tolist()), len(sorted_by)


class TestDedupPaths:
    """The dense workspace and the stable argsort return the generator's
    ``(uniq, sums, counts)`` bit for bit, sign bit included; the bound
    picks the workspace while ``regions * span`` is within it."""

    @given(window=reducer_windows())
    @example(window=(np.array([1, 1, 1, 1]), np.array([1e16, 1.0, -1e16, 1.0]),
                     np.array([4])))
    @example(window=(np.array([2**62, -(2**62), 2**62, 0]),
                     np.array([np.inf, -0.0, -np.inf, 0.0]), np.array([1, 0, 3, 0])))
    def test_both_paths_match_the_generator(self, window):
        crds, vals, sizes = window
        want = reference_dedup(crds, vals, sizes)
        slots = len(sizes) * (int(crds.max()) - int(crds.min()) + 1) if len(crds) else 0
        per_pair = reduce_module.WORKSPACE_PER_PAIR
        floor = reduce_module.WORKSPACE_FLOOR
        got, pieces = dedup(crds, vals, sizes, per_pair, floor)
        assert got == want
        assert (pieces == 0) == (slots <= per_pair * len(crds) + floor or not len(crds))
        assert dedup(crds, vals, sizes, 0, -1)[0] == want  # the argsort
        if slots <= 10**6:
            assert dedup(crds, vals, sizes, 0, slots) == (want, 0)  # the workspace

    def test_far_coordinates_sort_in_pieces(self):
        # span 2**61 + 1: three regions a key, ten regions in four pieces
        crds = np.array([2**61, 0, 2**61, 5, 0] * 10)
        vals = VALUES[np.arange(50) % len(VALUES)]
        sizes = np.full(10, 5)
        want = reference_dedup(crds, vals, sizes)
        assert dedup(crds, vals, sizes, 8, 4096) == (want, 4)


@st.composite
def region_streams(draw):
    """A reducer window as streams: every region a fiber or two behind
    ``S0``, closed by ``S1``, then ``D``."""
    crds, vals, sizes = draw(reducer_windows())
    cut = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    streams = ([], [])
    top = 0
    for size, split in zip(sizes.tolist(), cut):
        pairs = list(zip(crds[top:top + size].tolist(), vals[top:top + size].tolist()))
        top += size
        half = size // 2 if split else size
        for part, close in ((pairs[:half], Stop(0)), (pairs[half:], Stop(1))):
            if part or close == Stop(1) or split:
                streams[0].extend([c for c, _ in part] + [close])
                streams[1].extend([v for _, v in part] + [close])
    return streams[0] + [DONE], streams[1] + [DONE]


def reduced(crd_tokens, val_tokens, backend):
    crd, val = Channel("c"), Channel("v", kind="vals")
    oc = Channel("oc", record=True)
    ov = Channel("ov", kind="vals", record=True)
    report = run_blocks([
        StreamFeeder(crd_tokens, crd, name="fc"),
        StreamFeeder(val_tokens, val, name="fv"),
        VectorReducer(crd, val, oc, ov),
    ], backend=backend)
    return (report.cycles, report.block_activity(),
            [[canon(t) for t in ch.history] for ch in (oc, ov)])


@pytest.mark.parametrize("backend", TIMED)
@given(streams=region_streams())
def test_vector_reducer_windows_match_cycle(backend, streams):
    """Both window paths, under the engines that run them, against the
    generator ``cycle`` steps: the full report, every value's bits."""
    assert reduced(*streams, backend) == reduced(*streams, "cycle")
