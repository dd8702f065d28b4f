"""Differential tests: the timed-batch backend vs the cycle reference.

The acceptance bar of the epoch-batched timed plane is **bit-identical**
``SimulationReport``\\ s — cycle counts, per-block busy/stall statistics
and per-channel token counts — against :class:`CycleEngine` on every
kernel, including degenerate operands and mixed-plane graphs where some
blocks fall back to the scalar timed path.
"""

import numpy as np
import pytest

from repro.data import DatasetRegistry
from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.formats import FiberTensor
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
from repro.sim import graph_token_counts, run_blocks
from repro.streams import Channel, DONE, Stop

from blockkit import TIMED

B = random_sparse_matrix(20, 24, 0.2, seed=1)
C = random_sparse_matrix(24, 18, 0.2, seed=2)
VEC = urandom_vector(24, 10, seed=3)
VB = urandom_vector(200, 40, seed=4)
VC = urandom_vector(200, 40, seed=5)
D1 = np.asarray(random_sparse_matrix(20, 6, 0.5, seed=6))
D2 = np.asarray(random_sparse_matrix(24, 6, 0.5, seed=7))


def both(fn, extract):
    """Run *fn* under the reference and the timed-batch backend."""
    return extract(fn("cycle")), extract(fn("timed-batch"))


class TestKernelBitIdentity:
    """All six kernels: identical outputs AND identical cycle counts."""

    def test_spmv_locate(self):
        ref, timed = both(
            lambda be: spmv_locate(B, VEC, backend=be),
            lambda r: (list(r[0]), list(r[1]), r[2]),
        )
        assert ref == timed

    def test_spmv_scatter(self):
        ref, timed = both(
            lambda be: spmv_scatter(B, VEC[:B.shape[0]], backend=be),
            lambda r: (r[0].tolist(), r[1]),
        )
        assert ref == timed

    @pytest.mark.parametrize("order", ["ikj", "ijk", "kij"])
    def test_spmm_orders(self, order):
        ref, timed = both(
            lambda be: run_spmm(B, C, order=order, backend=be),
            lambda r: (r.output.to_numpy().tolist(), r.cycles),
        )
        assert ref == timed

    def test_gamma(self):
        ref, timed = both(
            lambda be: gamma_spmm(B, C, lanes=4, backend=be),
            lambda r: (r.output.tolist(), r.cycles, r.critical_path),
        )
        assert ref == timed

    def test_outerspace(self):
        ref, timed = both(
            lambda be: outerspace_spmm(B, C, backend=be),
            lambda r: (r.output.tolist(), r.total_cycles),
        )
        assert ref == timed

    @pytest.mark.parametrize(
        "variant", [sddmm_unfused, sddmm_fused_coiter, sddmm_fused_locate]
    )
    def test_sddmm(self, variant):
        ref, timed = both(
            lambda be: variant(np.asarray(B), D1, D2, backend=be),
            lambda r: (r.output.tolist(), r.cycles),
        )
        assert ref == timed

    @pytest.mark.parametrize(
        "config", ["dense", "crd", "crd_skip", "crd_split", "bv", "bv_split"]
    )
    def test_elementwise(self, config):
        # bv/bv_split/crd_skip mix planes: bitvector scanners and
        # skip-wired scanners run the scalar timed path inside an
        # otherwise epoch-batched graph.
        ref, timed = both(
            lambda be: vecmul(config, VB, VC, split=50, backend=be),
            lambda r: (r.coords.tolist(), r.values.tolist(), r.cycles),
        )
        assert ref == timed


class TestActivityAndTokenCounts:
    """busy/stall per block and token counts per channel, bit for bit."""

    @pytest.mark.parametrize("order", ["ikj", "ijk"])
    def test_spmm_full_report(self, order):
        from repro.kernels.spmm import spmm_program

        prog = spmm_program(order)
        tensors = {"B": np.asarray(B, float), "C": np.asarray(C, float)}

        def run(backend):
            result = prog.run(dict(tensors), backend=backend)
            return (
                result.cycles,
                result.report.block_activity(),
                {
                    name: channel.token_counts()
                    for name, channel in result.bound.channels.items()
                },
            )

        assert run("cycle") == run("timed-batch")

    def test_graph_token_counts_helper(self):
        def build():
            src = Channel("s")
            from repro.blocks import Sink, StreamFeeder

            sink = Sink(src)
            return [StreamFeeder([1, 2, Stop(0), DONE], src), sink]

        blocks_c = build()
        run_blocks(blocks_c, backend="cycle")
        blocks_t = build()
        run_blocks(blocks_t, backend="timed-batch")
        counts_c = graph_token_counts(blocks_c)
        counts_t = graph_token_counts(blocks_t)
        assert counts_c == counts_t
        assert counts_c["feeder.out"] == {
            "data": 2, "stop": 1, "done": 1, "empty": 0,
        }


class TestDegenerateOperands:
    """Empty fibers, all-zero operands, 0-row/0-col shapes."""

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimension_spmv(self, shape):
        dense = np.zeros(shape)
        c = np.ones(shape[1])
        ref, timed = both(
            lambda be: spmv_locate(dense, c, backend=be),
            lambda r: (list(r[0]), list(r[1]), r[2]),
        )
        assert ref == timed

    def test_all_zero_matrix(self):
        program = compile_expression("x(i) = B(i,j) * c(j)")

        def run(backend):
            result = program.run(
                {"B": np.zeros((6, 7)), "c": np.ones(7)}, backend=backend
            )
            return result.to_numpy().tolist(), result.cycles

        assert run("cycle") == run("timed-batch")

    def test_empty_fibers_between_rows(self):
        dense = np.zeros((8, 8))
        dense[0, 3] = 1.5
        dense[6, 1] = -2.0  # rows 1..5 have empty fibers
        ref, timed = both(
            lambda be: spmv_locate(dense, np.ones(8), backend=be),
            lambda r: (list(r[0]), list(r[1]), r[2]),
        )
        assert ref == timed

    def test_all_zero_spmm(self):
        ref, timed = both(
            lambda be: run_spmm(np.zeros((4, 5)), np.zeros((5, 3)), backend=be),
            lambda r: (r.output.to_numpy().tolist(), r.cycles),
        )
        assert ref == timed

    def test_cancelling_addition(self):
        # Union + adder where explicit values cancel to exact zeros; the
        # post-compute union carries value streams on reference ports.
        program = compile_expression("X(i,j) = B(i,j) + C(i,j)")
        b = np.array([[1.0, -2.0], [0.0, 3.0]])
        c = np.array([[-1.0, 2.0], [4.0, 0.0]])

        def run(backend):
            result = program.run({"B": b, "C": c}, backend=backend)
            return result.to_numpy().tolist(), result.cycles

        assert run("cycle") == run("timed-batch")


class TestRealMatrixViaRegistry:
    def test_registry_mtx_spmv_bit_identical(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        registry.materialize("G32")  # writes the stand-in .mtx
        tensor = FiberTensor.from_scipy(registry.load_matrix("G32"), name="G32")
        c = urandom_vector(tensor.shape[1], tensor.shape[1] // 2, seed=9)
        ref, timed = both(
            lambda be: spmv_locate(tensor, c, backend=be),
            lambda r: (list(r[0]), list(r[1]), r[2]),
        )
        assert ref == timed


class TestPerBlockFallback:
    def test_tuple_streams_fall_back_to_scalar_timed_path(self):
        # Tuple tokens cannot ride the numpy plane: the feeder cannot
        # run its window hook, so the run goes to ``cycle`` whole.
        from repro.blocks import Fanout, Sink, StreamFeeder

        tokens = [(0, 5), (1, 7), DONE]

        def build():
            # opaque payload: a reference stream, not a coordinate one
            src, a, b = (Channel(name, kind="ref") for name in "sab")
            blocks = [
                StreamFeeder(tokens, src),
                Fanout(src, [a, b]),
                Sink(a, name="sa"),
                Sink(b, name="sb"),
            ]
            return blocks

        ref = build()
        rc = run_blocks(ref, backend="cycle")
        timed = build()
        rt = run_blocks(timed, backend="timed-batch")
        assert rc.cycles == rt.cycles
        assert rc.block_activity() == rt.block_activity()
        assert ref[2].tokens == timed[2].tokens == tokens
        assert ref[3].tokens == timed[3].tokens == tokens

    def test_generator_only_blocks_fall_back(self):
        # MatrixReducer (spmm kij) has no window hook: the whole run goes
        # to cycle and says so; OuterSPACE's two phases stay on windows
        from repro.blocks import MatrixReducer

        assert MatrixReducer.drain_timed is None
        ref, timed = both(
            lambda be: run_spmm(B, C, order="kij", backend=be),
            lambda r: (r.output.to_numpy().tolist(), r.cycles,
                       r.report.block_activity(), r.report.handoff),
        )
        assert ref[:3] == timed[:3]
        assert ref[3] is None and "(MatrixReducer): no window hook" in timed[3]
        ref, timed = both(
            lambda be: outerspace_spmm(B, C, backend=be),
            lambda r: (r.output.tolist(), r.total_cycles),
        )
        assert ref == timed


class TestFiniteFifos:
    """A finite FIFO hands the run to ``cycle``, which models
    back-pressure: every timed engine's report is ``cycle``'s, and its
    handoff names the channel."""

    @staticmethod
    def same_as_cycle(build, channel, capacity):
        blocks_c, sink_c = build()
        rc = run_blocks(blocks_c, backend="cycle")
        for backend in TIMED:
            blocks_t, sink_t = build()
            rt = run_blocks(blocks_t, backend=backend)
            assert rt.cycles == rc.cycles, backend
            assert rt.block_activity() == rc.block_activity(), backend
            assert graph_token_counts(blocks_t) == graph_token_counts(blocks_c)
            assert sink_t.tokens == sink_c.tokens, backend
            assert rt.handoff == (
                f"channel {channel!r}: capacity {capacity}: a finite FIFO runs on cycle")

    @pytest.mark.parametrize("capacity", [1, 2, 3, 7])
    def test_feeder_sink_fifo(self, capacity):
        from repro.blocks import Sink, StreamFeeder

        tokens = list(range(10)) + [Stop(0), DONE]

        def build():
            src = Channel("s", capacity=capacity)
            sink = Sink(src)
            return [StreamFeeder(tokens, src), sink], sink

        self.same_as_cycle(build, "s", capacity)

    def test_slow_consumer_backpressure(self):
        from repro.blocks import ALU, Sink, StreamFeeder

        def build():
            a = Channel("a", kind="vals", capacity=1)
            b = Channel("b", kind="vals")
            out = Channel("o", kind="vals")
            sink = Sink(out)
            blocks = [
                StreamFeeder([1.0, 2.0, 3.0, Stop(0), DONE], a, name="fa"),
                StreamFeeder([4.0, 5.0, 6.0, Stop(0), DONE], b, name="fb"),
                ALU("add", a, b, out),
                sink,
            ]
            return blocks, sink

        self.same_as_cycle(build, "a", 1)
