"""Backend equivalence and behaviour tests.

Every timed engine must be *bit-identical* to the CycleEngine: same
cycle counts and same per-block busy/stall statistics on every graph.
The FunctionalEngine must produce the same outputs (cycles are not
modelled and report as 0).
"""

import numpy as np
import pytest

from repro.blocks import ALU, Fanout, Sink, StreamFeeder
from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.kernels.elementwise import vecmul
from repro.kernels.gamma import gamma_spmm
from repro.kernels.spmv import spmv_locate, spmv_scatter
from repro.sim import (
    BACKENDS,
    CycleEngine,
    DeadlockError,
    FunctionalEngine,
    TimedBatchEngine,
    resolve_backend,
    run_blocks,
)
from repro.streams import Channel, DONE, Stop

B = random_sparse_matrix(24, 24, 0.18, seed=11)
C = random_sparse_matrix(24, 24, 0.18, seed=12)
VEC_B = urandom_vector(400, 60, seed=13)
VEC_C = urandom_vector(400, 60, seed=14)

#: every engine that models cycles on the timed plane
TIMED = tuple(
    name for name, engine in BACKENDS.items()
    if "timed" in engine.planes and not issubclass(engine, FunctionalEngine)
)


class TestRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {
            "cycle", "timed-batch", "compiled", "functional", "functional-seq",
            "event",
        }

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_backend(None) == "cycle"

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "timed-batch")
        assert resolve_backend(None) == "timed-batch"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("warp-drive")

    def test_event_names_the_cycle_engine(self, monkeypatch):
        assert BACKENDS["event"] is CycleEngine
        monkeypatch.setenv("REPRO_ENGINE", "event")
        src = Channel("s")
        report = run_blocks([StreamFeeder([1, DONE], src), Sink(src)])
        assert report.cycles == 2

    def test_engine_class_accepted(self):
        src = Channel("s")
        report = run_blocks(
            [StreamFeeder([1, DONE], src), Sink(src)], backend=TimedBatchEngine
        )
        assert report.cycles == 2


@pytest.mark.parametrize("backend", TIMED)
class TestKernelEquivalence:
    """Identical cycles and outputs across CycleEngine and every timed engine."""

    def test_spmv_locate(self, backend):
        crd_c, val_c, cyc_c = spmv_locate(B, VEC_B[:24], backend="cycle")
        crd_e, val_e, cyc_e = spmv_locate(B, VEC_B[:24], backend=backend)
        assert (crd_c.tolist(), val_c.tolist(), cyc_c) == (
            crd_e.tolist(), val_e.tolist(), cyc_e)

    def test_spmv_scatter(self, backend):
        x_c, cyc_c = spmv_scatter(B, VEC_B[:24], backend="cycle")
        x_e, cyc_e = spmv_scatter(B, VEC_B[:24], backend=backend)
        assert cyc_c == cyc_e
        assert np.array_equal(x_c, x_e)

    def test_gamma(self, backend):
        r_c = gamma_spmm(B, C, lanes=4, backend="cycle")
        r_e = gamma_spmm(B, C, lanes=4, backend=backend)
        assert r_c.cycles == r_e.cycles
        assert r_c.critical_path == r_e.critical_path
        assert np.array_equal(r_c.output, r_e.output)

    @pytest.mark.parametrize("config", ["crd", "crd_skip", "bv", "bv_split"])
    def test_elementwise(self, config, backend):
        r_c = vecmul(config, VEC_B, VEC_C, split=50, backend="cycle")
        r_e = vecmul(config, VEC_B, VEC_C, split=50, backend=backend)
        assert r_c.cycles == r_e.cycles
        assert r_c.values.tolist() == r_e.values.tolist()
        assert r_c.coords.tolist() == r_e.coords.tolist()


@pytest.mark.parametrize("backend", TIMED)
class TestStatsEquivalence:
    """Per-block busy/stall statistics match the reference exactly."""

    @pytest.mark.parametrize("order", ["ijk", "ikj", "kij"])
    def test_spmm_activity(self, order, backend):
        from repro.kernels.spmm import spmm_program

        prog = spmm_program(order)
        tensors = {
            "B": np.asarray(B, float),
            "C": np.asarray(C, float),
        }
        r_c = prog.run(dict(tensors), backend="cycle")
        r_e = prog.run(dict(tensors), backend=backend)
        assert r_c.cycles == r_e.cycles
        assert r_c.report.block_activity() == r_e.report.block_activity()
        assert np.allclose(r_c.to_numpy(), r_e.to_numpy())

    def test_hand_built_graph_activity(self, backend):
        def build():
            a, b = Channel("a", kind="vals"), Channel("b", kind="vals")
            out = Channel("o", kind="vals")
            sink = Sink(out)
            blocks = [
                StreamFeeder([1.0, 2.0, Stop(0), DONE], a, name="fa"),
                StreamFeeder([3.0, 4.0, Stop(0), DONE], b, name="fb"),
                ALU("add", a, b, out),
                sink,
            ]
            return blocks, sink

        blocks_c, sink_c = build()
        blocks_e, sink_e = build()
        r_c = CycleEngine(blocks_c).run()
        r_e = BACKENDS[backend](blocks_e).run()
        assert r_c.cycles == r_e.cycles
        assert r_c.block_activity() == r_e.block_activity()
        assert sink_c.tokens == sink_e.tokens


class TestFunctionalEngine:
    """Correctness-only backend: same outputs, no cycle model."""

    def test_outputs_match_reference(self):
        crd_c, val_c, _ = spmv_locate(B, VEC_B[:24], backend="cycle")
        crd_f, val_f, cyc_f = spmv_locate(B, VEC_B[:24], backend="functional")
        assert (crd_f.tolist(), val_f.tolist()) == (crd_c.tolist(), val_c.tolist())
        assert cyc_f == 0

    @pytest.mark.parametrize("config", ["crd", "crd_skip", "dense", "bv_split"])
    def test_elementwise_outputs(self, config):
        r_c = vecmul(config, VEC_B, VEC_C, split=50, backend="cycle")
        r_f = vecmul(config, VEC_B, VEC_C, split=50, backend="functional")
        assert r_f.values.tolist() == r_c.values.tolist()
        assert r_f.coords.tolist() == r_c.coords.tolist()
        assert r_f.cycles == 0

    def test_compiled_program(self):
        from repro.kernels.spmm import spmm_program

        prog = spmm_program("ikj")
        r_c = prog.run({"B": np.asarray(B, float), "C": np.asarray(C, float)})
        r_f = prog.run(
            {"B": np.asarray(B, float), "C": np.asarray(C, float)},
            backend="functional",
        )
        assert np.allclose(r_f.to_numpy(), r_c.to_numpy())

    def test_deadlock_detected(self):
        a, b, out = Channel("a"), Channel("b"), Channel("o")
        with pytest.raises(DeadlockError):
            run_blocks(
                [StreamFeeder([1.0, DONE], a), ALU("add", a, b, out)],
                backend="functional",
            )


class TestTimedDeadlock:
    @pytest.mark.parametrize("backend", TIMED)
    def test_deadlock_message_matches_reference(self, backend):
        def build():
            a, b, out = Channel("a"), Channel("b"), Channel("o")
            return [StreamFeeder([1.0, DONE], a), ALU("add", a, b, out)]

        with pytest.raises(DeadlockError) as exc_cycle:
            run_blocks(build(), backend="cycle")
        with pytest.raises(DeadlockError) as exc_timed:
            run_blocks(build(), backend=backend)
        assert str(exc_cycle.value) == str(exc_timed.value)


class TestFiniteCapacity:
    """Producers stall (not crash) on full finite-capacity channels."""

    @pytest.mark.parametrize("backend", ("cycle",) + TIMED)
    def test_feeder_backpressure(self, backend):
        src = Channel("s", capacity=2)
        tokens = list(range(10)) + [Stop(0), DONE]
        report = run_blocks(
            [StreamFeeder(tokens, src), Sink(src)], backend=backend
        )
        # Fully pipelined: the sink keeps pace, so capacity never bites
        # beyond the pipeline-fill cycle.
        assert report.cycles == len(tokens)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_fanout_backpressure(self, backend):
        hub = Channel("hub")
        fast = Channel("fast")
        slow = Channel("slow", capacity=1)
        tokens = [1, 2, 3, Stop(0), DONE]
        sinks = [Sink(fast, name="sink_fast"), Sink(slow, name="sink_slow")]
        report = run_blocks(
            [StreamFeeder(tokens, hub), Fanout(hub, [fast, slow])] + sinks,
            backend=backend,
        )
        assert sinks[0].tokens == tokens
        assert sinks[1].tokens == tokens

    def test_capacity_cycles_match_across_timed_backends(self):
        def build():
            src = Channel("s", capacity=1)
            feeder = StreamFeeder([1, 2, 3, 4, Stop(0), DONE], src)
            sink = Sink(src)
            return [feeder, sink]

        r_c = run_blocks(build(), backend="cycle")
        for backend in TIMED:
            r_t = run_blocks(build(), backend=backend)
            assert r_c.cycles == r_t.cycles
            assert r_c.block_activity() == r_t.block_activity()

    def test_overflow_still_raised_on_direct_push(self):
        chan = Channel("c", capacity=1)
        chan.push(1)
        with pytest.raises(OverflowError):
            chan.push(2)


class TestMaxCycles:
    @pytest.mark.parametrize("backend", ("cycle",) + TIMED)
    def test_exact_budget_passes(self, backend):
        tokens = [1, 2, 3, Stop(0), DONE]

        def build():
            src = Channel("s")
            return [StreamFeeder(tokens, src), Sink(src)]

        # The run takes exactly len(tokens) cycles: a budget of exactly
        # that many must not raise (regression test for the off-by-one).
        report = run_blocks(build(), max_cycles=len(tokens), backend=backend)
        assert report.cycles == len(tokens)
        with pytest.raises(RuntimeError):
            run_blocks(build(), max_cycles=len(tokens) - 1, backend=backend)

    def test_functional_max_cycles_is_advisory(self):
        # The functional backend models no cycles, so a cycle budget
        # neither rejects nor admits a run there: a budget that would
        # starve the timed backends must still complete (the old
        # ``max_cycles * n_blocks`` scaling could reject runs the timed
        # backends accept at the same budget, and vice versa).
        src = Channel("s")
        blocks = [StreamFeeder(list(range(100)) + [DONE], src), Sink(src)]
        report = FunctionalEngine(blocks).run(max_cycles=3)
        assert report.cycles == 0
        assert blocks[1].tokens[-1] is DONE

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("backend", ["functional", "functional-seq"])
    def test_functional_max_resumptions_exact(self, backend, mixed):
        tokens = list(range(50)) + [DONE]

        def build():
            if not mixed:
                src = Channel("s")
                return [StreamFeeder(tokens, src), Sink(src)]
            # A capacity-1 FIFO into a Fanout keeps both its endpoints
            # on their generators while the Sink stays timed: the count
            # mixes generator resumptions with busy events.
            src, out = Channel("s", capacity=1), Channel("o")
            return [StreamFeeder(tokens, src), Fanout(src, [out]), Sink(out)]

        exact = run_blocks(build(), backend=backend).resumptions
        assert exact > 0
        # An exact operation budget passes; one less raises.
        report = run_blocks(build(), backend=backend, max_resumptions=exact)
        assert report.resumptions == exact
        with pytest.raises(RuntimeError, match="max_resumptions"):
            run_blocks(build(), backend=backend, max_resumptions=exact - 1)

    def test_cross_backend_exact_budget_parity(self):
        # At the same max_cycles budget, the functional backend must
        # accept every run the timed backends accept (it never pretends
        # to know a cycle count it does not model).
        tokens = [1, 2, 3, Stop(0), DONE]

        def build():
            src = Channel("s")
            return [StreamFeeder(tokens, src), Sink(src)]

        exact = run_blocks(build(), backend="cycle").cycles
        for backend in ("cycle",) + TIMED:
            assert run_blocks(build(), max_cycles=exact, backend=backend).cycles == exact
            with pytest.raises(RuntimeError):
                run_blocks(build(), max_cycles=exact - 1, backend=backend)
        for backend in ("functional", "functional-seq"):
            for budget in (exact, exact - 1):
                report = run_blocks(build(), max_cycles=budget, backend=backend)
                assert report.cycles == 0

    @pytest.mark.parametrize("backend", ("cycle",) + TIMED)
    def test_timed_backends_reject_resumption_budget(self, backend):
        src = Channel("s")
        blocks = [StreamFeeder([1, DONE], src), Sink(src)]
        with pytest.raises(ValueError, match="max_resumptions"):
            run_blocks(blocks, backend=backend, max_resumptions=10)

    def test_resumption_budget_reaches_compiled_programs(self):
        # The functional termination budget must be reachable from the
        # main kernel/study API, not just run_blocks.
        import numpy as np

        from repro.lang import compile_expression

        program = compile_expression("x(i) = B(i,j) * c(j)")
        B, c = np.eye(4), np.ones(4)
        exact = program.run(
            {"B": B, "c": c}, backend="functional"
        ).report.resumptions
        assert (
            program.run(
                {"B": B, "c": c}, backend="functional", max_resumptions=exact
            ).report.resumptions
            == exact
        )
        with pytest.raises(RuntimeError, match="max_resumptions"):
            program.run(
                {"B": B, "c": c}, backend="functional", max_resumptions=exact - 1
            )
