"""Differential tests: ``timed-batch`` vs the ``cycle`` oracle.

``timed-batch`` runs a graph on windows (every block through
``drain_timed``) when every block can, and hands it to ``cycle`` whole
otherwise; ``cycle`` steps every generator.  The two must give
**bit-identical** outputs and reports (cycles, per-block activity,
token counts) for every kernel, including degenerate operands and real
``.mtx`` inputs resolved through the dataset registry.  Comparisons use
exact equality — float results must match to the last bit, which is why
the windowed reducers go out of their way to accumulate in the same
order as the generators.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.streams
from repro.blocks import ALU, Block, Fanout, ScalarALU, Sink, StreamFeeder
from repro.data import DatasetRegistry
from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.formats import FiberTensor
from repro.graph import capture_runs
from repro.kernels import (
    gamma_spmm,
    outerspace_spmm,
    run_spmm,
    sddmm_fused_coiter,
    sddmm_fused_locate,
    sddmm_unfused,
    spmv_locate,
    spmv_scatter,
    vecmul,
)
from repro.lang import compile_expression
from repro.sim import BACKENDS, DeadlockError, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, Stop
from repro.streams.token import is_done

from blockkit import TIMED, Slicer, block_classes

B = random_sparse_matrix(20, 24, 0.2, seed=1)
C = random_sparse_matrix(24, 18, 0.2, seed=2)
VEC = urandom_vector(24, 10, seed=3)
VB = urandom_vector(200, 40, seed=4)
VC = urandom_vector(200, 40, seed=5)
D1 = np.asarray(random_sparse_matrix(20, 6, 0.5, seed=6))
D2 = np.asarray(random_sparse_matrix(24, 6, 0.5, seed=7))


def full_report(blocks, report):
    """Everything an engine may not change about one run."""
    return report.cycles, report.block_activity(), graph_token_counts(blocks)


def both(fn, extract):
    """Run *fn* on ``cycle``, then on ``timed-batch``; per engine, the
    extracted outputs and the full report of every graph *fn* ran."""
    runs = []
    for backend in ("cycle", "timed-batch"):
        with capture_runs() as capture:
            out = extract(fn(backend))
        assert capture.runs, backend
        runs.append((out, [full_report(*run) for run in capture.runs]))
    return runs


class TestKernelBitIdentity:
    """All six kernels, ``timed-batch`` == ``cycle`` exactly."""

    def test_spmv_locate(self):
        want, got = both(
            lambda be: spmv_locate(B, VEC, backend=be),
            lambda r: (list(r[0]), list(r[1])),
        )
        assert got == want

    def test_spmv_scatter(self):
        want, got = both(
            lambda be: spmv_scatter(B, VEC[:B.shape[0]], backend=be), lambda r: r[0].tolist()
        )
        assert got == want

    @pytest.mark.parametrize("order", ["ikj", "ijk", "kij"])
    def test_spmm_orders(self, order):
        want, got = both(
            lambda be: run_spmm(B, C, order=order, backend=be),
            lambda r: r.output.to_numpy().tolist(),
        )
        assert got == want

    def test_gamma(self):
        want, got = both(
            lambda be: gamma_spmm(B, C, backend=be), lambda r: r.output.tolist()
        )
        assert got == want

    def test_outerspace(self):
        want, got = both(
            lambda be: outerspace_spmm(B, C, backend=be),
            lambda r: r.output.tolist(),
        )
        assert got == want

    @pytest.mark.parametrize(
        "variant", [sddmm_unfused, sddmm_fused_coiter, sddmm_fused_locate]
    )
    def test_sddmm(self, variant):
        want, got = both(
            lambda be: variant(np.asarray(B), D1, D2, backend=be),
            lambda r: r.output.tolist(),
        )
        assert got == want

    @pytest.mark.parametrize(
        "config", ["dense", "crd", "crd_skip", "crd_split", "bv", "bv_split"]
    )
    def test_elementwise(self, config):
        want, got = both(
            lambda be: vecmul(config, VB, VC, split=50, backend=be),
            lambda r: (r.coords.tolist(), r.values.tolist()),
        )
        assert got == want


class TestDegenerateOperands:
    """Empty fibers, all-zero operands, 0-row/0-col shapes."""

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimension_spmv(self, shape):
        dense = np.zeros(shape)
        c = np.ones(shape[1])
        want, got = both(
            lambda be: spmv_locate(dense, c, backend=be),
            lambda r: (list(r[0]), list(r[1])),
        )
        assert got == want and want[0] == ([], [])

    def test_all_zero_matrix(self):
        dense = np.zeros((6, 7))
        program = compile_expression("x(i) = B(i,j) * c(j)")
        want, got = both(
            lambda be: program.run({"B": dense, "c": np.ones(7)}, backend=be),
            lambda r: r.to_numpy().tolist(),
        )
        assert got == want and want[0] == [0.0] * 6

    def test_empty_fibers_between_rows(self):
        dense = np.zeros((8, 8))
        dense[0, 3] = 1.5
        dense[6, 1] = -2.0  # rows 1..5 have empty fibers
        want, got = both(
            lambda be: spmv_locate(dense, np.ones(8), backend=be),
            lambda r: (list(r[0]), list(r[1])),
        )
        assert got == want

    def test_all_zero_spmm(self):
        want, got = both(
            lambda be: run_spmm(np.zeros((4, 5)), np.zeros((5, 3)), backend=be),
            lambda r: r.output.to_numpy().tolist(),
        )
        assert got == want

    def test_cancelling_addition(self):
        # Union + adder where explicit values cancel to exact zeros.
        program = compile_expression("X(i,j) = B(i,j) + C(i,j)")
        b = np.array([[1.0, -2.0], [0.0, 3.0]])
        c = np.array([[-1.0, 2.0], [4.0, 0.0]])
        want, got = both(
            lambda be: program.run({"B": b, "C": c}, backend=be),
            lambda r: r.to_numpy().tolist(),
        )
        assert got == want


class TestRealMatrixViaRegistry:
    def test_registry_mtx_spmv_bit_identical(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        path = registry.materialize("G32")  # writes the stand-in .mtx
        assert registry.source("G32") == f"file:{path}"
        tensor = FiberTensor.from_scipy(registry.load_matrix("G32"), name="G32")
        c = urandom_vector(tensor.shape[1], tensor.shape[1] // 2, seed=9)
        want, got = both(
            lambda be: spmv_locate(tensor, c, backend=be),
            lambda r: (list(r[0]), list(r[1])),
        )
        assert got == want
        crd, vals = want[0]
        reference = registry.load_matrix("G32") @ c
        nonzero = np.flatnonzero(reference)
        assert np.allclose(
            np.asarray(vals)[np.isin(crd, nonzero)],
            reference[np.asarray(crd)[np.isin(crd, nonzero)]],
        )

    def test_torso2_scale_dataset_registered(self):
        registry = DatasetRegistry(data_dir="/nonexistent")
        spec = registry.spec("torso2")
        assert spec.nnz >= 1_000_000


class TestUnbatchableTokens:
    @pytest.mark.parametrize(
        "payload",
        [
            [(0, 5), (1, 7)],  # uniform tuples would silently become 2-D
            [(0, 5), (1, 2, 3)],  # ragged tuples raise from np.asarray
        ],
    )
    def test_tuple_streams_hand_the_run_to_cycle(self, payload):
        # Skip-hint style tuple tokens cannot ride the numpy plane: the
        # run goes to ``cycle`` whole, says why, and the stream arrives
        # intact.
        tokens = payload + [DONE]
        runs = {}
        for backend in ("cycle", "timed-batch"):
            # opaque payload: a reference stream, not a coordinate one
            src, a, b = (Channel(name, kind="ref") for name in "sab")
            blocks = [
                StreamFeeder(tokens, src, name="feed"),
                Fanout(src, [a, b]),
                Sink(a, name="sa"),
                Sink(b, name="sb"),
            ]
            report = run_blocks(blocks, backend=backend)
            assert blocks[2].tokens == blocks[3].tokens == tokens
            runs[backend] = full_report(blocks, report)
        assert runs["timed-batch"] == runs["cycle"]
        assert report.handoff.startswith("block 'feed' (StreamFeeder)")


class TestMixedPlaneGraphs:
    def test_generator_only_blocks_fall_back(self):
        # spmm kij's MatrixReducer has no window hook: the run goes to
        # ``cycle`` whole and names it.
        from repro.blocks import MatrixReducer

        assert MatrixReducer.drain_timed is None
        want, got = both(
            lambda be: run_spmm(B, C, order="kij", backend=be),
            lambda r: r.output.to_numpy().tolist(),
        )
        assert got == want
        with capture_runs() as capture:
            run_spmm(B, C, order="kij", backend="timed-batch")
        assert "(MatrixReducer)" in capture.runs[-1][1].handoff

    def test_token_counts_identical_across_planes(self):
        # Figure 14-style channel statistics must not depend on the plane.
        program = compile_expression("x(i) = B(i,j) * c(j)")
        want, got = both(
            lambda be: program.run({"B": np.asarray(B), "c": VEC}, backend=be),
            lambda r: {name: channel.token_counts()
                       for name, channel in r.bound.channels.items()},
        )
        assert got == want


class Relay(Block):
    """Generator-only pass-through (no timed hook) with back-pressure."""

    def __init__(self, in_, out, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            yield from self._put(self.out, token)
            yield True
            if is_done(token):
                return


#: fibers of values -> ``v.. S0 v.. S0 .. D``
fiber_streams = st.lists(
    st.lists(st.integers(0, 9).map(float), max_size=5), min_size=1, max_size=5
)


def mixed_pipeline(fibers, stages, cap_link, prefill_link, prefill, tuple_at,
                   done=True):
    """``feeder -> stage.. -> fanout -> two sinks`` with hazards planted.

    *stages* are ``"fanout"`` / ``"scale"`` (timed-capable) or
    ``"relay"`` (generator-only); link *cap_link* is a capacity-1 FIFO
    where its producer models back-pressure; link *prefill_link* already
    holds the first *prefill* stream tokens; *tuple_at* swaps one data
    token for an unbatchable tuple (scales then become fanouts, which
    pass any payload).
    """
    tokens = [t for fiber in fibers for t in fiber + [Stop(0)]]
    data_at = [k for k, t in enumerate(tokens) if not isinstance(t, Stop)]
    if tuple_at is not None and data_at:
        tokens[data_at[tuple_at % len(data_at)]] = (3, 4)
        stages = ["fanout" if s == "scale" else s for s in stages]
    if done:
        tokens.append(DONE)
    links = []
    for j in range(len(stages) + 1):
        producer = "feeder" if j == 0 else stages[j - 1]
        finite = j == cap_link and producer != "scale"
        links.append(Channel(f"l{j}", kind="vals", capacity=1 if finite else None))
    held = min(prefill, len(tokens) - 1, 1 if links[prefill_link].capacity else 99)
    for token in tokens[:held]:
        links[prefill_link].push(token)
    blocks = [StreamFeeder(tokens[held:], links[0], name="feeder")]
    for j, stage in enumerate(stages):
        src, dst, name = links[j], links[j + 1], f"s{j}_{stage}"
        if stage == "relay":
            blocks.append(Relay(src, dst, name))
        elif stage == "scale":
            blocks.append(ScalarALU("mul", 2.0, src, dst, name=name))
        else:
            blocks.append(Fanout(src, [dst], name=name))
    a = Channel("a", kind="vals", record=True)
    b = Channel("b", kind="vals", record=True)
    blocks += [Fanout(links[-1], [a, b], name="split"),
               Sink(a, name="sink_a"), Sink(b, name="sink_b")]
    return blocks, (a, b)




@pytest.mark.parametrize("capacity", [1, 2])
def test_a_finite_fifo_that_bites_runs_on_cycle(capacity):
    """An ALU whose second operand idles: on ``cycle`` the first
    operand's feeder stalls on its full FIFO; every timed engine hands
    the run to ``cycle`` and gives its report."""
    def build():
        a = Channel("a", kind="vals", capacity=capacity)
        b, out = Channel("b", kind="vals"), Channel("out", kind="vals")
        values = [1.0, 2.0, 3.0, 4.0, Stop(0), DONE]
        return [StreamFeeder(values, a, name="fa"), Slicer(values, [(1, 6)], b, "fb"),
                ALU("add", a, b, out, name="alu"), Sink(out, name="sink")]

    blocks = build()
    want = full_report(blocks, run_blocks(blocks, backend="cycle"))
    assert want[1]["fa"]["stall"] > 0  # the FIFO bites
    for backend in TIMED:
        blocks = build()
        report = run_blocks(blocks, backend=backend)
        assert full_report(blocks, report) == want, backend
        assert report.handoff.startswith("channel 'a': capacity"), backend


class TestMixedPlaneDifferential:
    """Hazards at random positions of a timed-capable pipeline."""

    @given(
        fibers=fiber_streams,
        stages=st.lists(st.sampled_from(["fanout", "scale", "relay"]),
                        min_size=1, max_size=5),
        cap_link=st.integers(0, 5),
        prefill_link=st.integers(0, 5),
        prefill=st.integers(0, 6),
        tuple_at=st.none() | st.integers(0, 30),
    )
    def test_outputs_and_reports(self, fibers, stages, cap_link,
                                 prefill_link, prefill, tuple_at):
        plan = (fibers, stages, cap_link, prefill_link % (len(stages) + 1),
                prefill, tuple_at)
        runs = {}
        for backend in ("cycle", "timed-batch"):
            blocks, outs = mixed_pipeline(*plan)
            report = run_blocks(blocks, backend=backend)
            runs[backend] = (
                [list(ch.history) for ch in outs],
                [blocks[-2].tokens, blocks[-1].tokens],
                full_report(blocks, report),
            )
        assert runs["timed-batch"] == runs["cycle"]
        if "relay" in stages:  # one generator-only block: all on ``cycle``
            assert report.handoff is not None
        # Starved: the stream never ends, so everything past the feeder
        # is stuck and must be named, in ``cycle``'s words.
        errors = []
        for backend in ("cycle", "timed-batch"):
            blocks, _ = mixed_pipeline(*plan, done=False)
            with pytest.raises(DeadlockError) as err:
                run_blocks(blocks, backend=backend)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        stuck = errors[0].split("stuck blocks: ")[1]
        assert "feeder" not in stuck
        assert all(repr(b.name) in stuck for b in blocks[1:])


class TestOneFastOneReferenceDefinition:
    """The deleted encodings stay deleted."""

    def test_no_block_has_a_batched_drain_or_a_drain(self):
        classes = list(block_classes())
        assert len(classes) >= 30
        for cls in classes:
            assert not hasattr(cls, "drain_batch"), cls
            assert not hasattr(cls, "drain"), cls

    def test_no_engine_declares_planes(self):
        # every engine runs every block's generator: nothing to declare
        for engine in BACKENDS.values():
            assert not hasattr(engine, "planes"), engine

    def test_streams_exports_no_untimed_reader_or_builder(self):
        assert not hasattr(repro.streams, "BatchReader")
        assert not hasattr(repro.streams, "BatchBuilder")

    def test_a_window_run_steps_no_generator(self):
        with capture_runs() as capture:
            spmv_locate(B, VEC, backend="timed-batch")
        blocks, report = capture.runs[-1]
        assert report.handoff is None
        assert not any(b._gen is not None for b in blocks)
