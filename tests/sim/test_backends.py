"""Backend equivalence and behaviour tests.

Every timed engine must be *bit-identical* to the CycleEngine: same
cycle counts and same per-block busy/stall statistics on every graph.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.sim.backends
from repro.blocks import ALU, Fanout, Sink, StreamFeeder
from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.kernels.elementwise import vecmul
from repro.kernels.gamma import gamma_spmm
from repro.kernels.spmv import spmv_locate, spmv_scatter
from repro.sim import (
    BACKENDS,
    CompiledEngine,
    CycleEngine,
    DeadlockError,
    TimedBatchEngine,
    get_backend,
    resolve_backend,
    run_blocks,
)
from repro.streams import Channel, DONE, Stop

from blockkit import ENGINES, TIMED

B = random_sparse_matrix(24, 24, 0.18, seed=11)
C = random_sparse_matrix(24, 24, 0.18, seed=12)
VEC_B = urandom_vector(400, 60, seed=13)
VEC_C = urandom_vector(400, 60, seed=14)


class TestRegistry:
    def test_registry_names(self):
        assert ENGINES == ("cycle", "timed-batch", "compiled")
        assert set(BACKENDS.values()) == {
            CycleEngine, TimedBatchEngine, CompiledEngine,
        }
        # names kept for callers that still list them (perfbench)
        assert {k: v for k, v in BACKENDS.items() if k not in ENGINES} == {
            "event": CycleEngine,
            "functional": TimedBatchEngine,
            "functional-seq": CycleEngine,
        }

    def test_resolve_default(self, monkeypatch):
        # the suite replaces the default (tests/conftest.py); set it back
        monkeypatch.setattr(repro.sim.backends, "DEFAULT_BACKEND", "timed-batch")
        assert resolve_backend(None) == "timed-batch"
        assert get_backend(None) is TimedBatchEngine

    def test_resolve_explicit(self):
        # a named engine never reads the default
        assert resolve_backend("cycle") == "cycle"
        assert get_backend("compiled") is CompiledEngine

    def test_default_is_a_named_error_in_tests(self):
        # tests/conftest.py: a test names its engine, or takes `engine`
        with pytest.raises(ValueError, match="takes the `engine` fixture"):
            resolve_backend(None)

    def test_library_default_is_the_window_engine(self):
        # outside the suite nothing replaces the declared default
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c",
             "from repro.sim import resolve_backend; print(resolve_backend(None))"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert child.stdout == "timed-batch\n"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("warp-drive")

    def test_event_names_the_cycle_engine(self):
        assert BACKENDS["event"] is CycleEngine
        src = Channel("s")
        report = run_blocks([StreamFeeder([1, DONE], src), Sink(src)],
                            backend="event")
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


class TestTimedDeadlock:
    @pytest.mark.parametrize("backend", TIMED)
    def test_deadlock_message_matches_reference(self, backend):
        def build():
            a, b, out = (Channel(name, kind="vals") for name in "abo")
            return [StreamFeeder([1.0, DONE], a), ALU("add", a, b, out)]

        with pytest.raises(DeadlockError) as exc_cycle:
            run_blocks(build(), backend="cycle")
        with pytest.raises(DeadlockError) as exc_timed:
            run_blocks(build(), backend=backend)
        assert str(exc_cycle.value) == str(exc_timed.value)


class TestFiniteCapacity:
    """Producers stall (not crash) on full finite-capacity channels."""

    @pytest.mark.parametrize("backend", ENGINES)
    def test_feeder_backpressure(self, backend):
        src = Channel("s", capacity=2)
        tokens = list(range(10)) + [Stop(0), DONE]
        report = run_blocks(
            [StreamFeeder(tokens, src), Sink(src)], backend=backend
        )
        # Fully pipelined: the sink keeps pace, so capacity never bites
        # beyond the pipeline-fill cycle.
        assert report.cycles == len(tokens)

    @pytest.mark.parametrize("backend", ENGINES)
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
    @pytest.mark.parametrize("backend", ENGINES)
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

    def test_cycle_budget_reaches_compiled_programs(self):
        # The budget must be reachable from the main kernel/study API,
        # not just run_blocks.
        from repro.lang import compile_expression

        program = compile_expression("x(i) = B(i,j) * c(j)")
        tensors = {"B": np.eye(4), "c": np.ones(4)}
        for backend in ENGINES:
            exact = program.run(dict(tensors), backend=backend).cycles
            assert program.run(dict(tensors), backend=backend,
                               max_cycles=exact).cycles == exact
            with pytest.raises(RuntimeError, match="max_cycles"):
                program.run(dict(tensors), backend=backend,
                            max_cycles=exact - 1)
