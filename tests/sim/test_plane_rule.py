"""The plane is decided once: a timed run is all windows or all ``cycle``.

``TimedBatchEngine.run`` (and ``CompiledEngine`` through it) runs its
window worklist only when every block can use its window hook; any other
graph goes to ``cycle`` whole and ``report.handoff`` says why.  No block
changes plane mid-run: a window hook takes every well-formed stream, and
a malformed one raises the generator's error.  Pinned here,
wall-clock-free:

* **the census** — of the quick sweep's 66 engine runs, 46 stay on
  windows, and the 20 handed off name only bitvector blocks, a
  skip-wired scanner or intersecter, or a matrix reducer; both
  OuterSPACE phases run on windows;
* **a handoff is exact** — a graph with one generator-only block reports
  ``cycle``'s result through every timed engine, and names the block;
* **late inputs stay on windows** — a merger's ``N`` reference that
  arrives late, behind idle cycles, gives ``cycle``'s full report and
  steps no generator; a parallelizer's ``N`` is one error everywhere;
* **a late unbatchable token hands off** — a tuple played late, behind
  idle cycles, into blocks that have a window hook: the run goes to
  ``cycle`` whole; on a coordinate stream it is refused where it
  enters, and a value stream wired to a coordinate port hands off too.
"""

import re

import numpy as np
import pytest

from repro.blocks import (
    ALU,
    Block,
    BlockError,
    CompressedLevelWriter,
    Fanout,
    Intersect,
    LevelScanner,
    MergeSide,
    Parallelizer,
    RepeatSigGen,
    Repeater,
    Sink,
    StreamFeeder,
    Union,
    VectorReducer,
)
from repro.data.synthetic import random_sparse_matrix
from repro.formats import FiberTensor
from repro.graph import SamGraph, bind
from repro.harness import STUDY_NAMES
from repro.harness.registry import execute_spec, get_study
from repro.kernels import outerspace_spmm
from repro.sim import graph_token_counts, run_blocks
from repro.sim.backends import timed_batch
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import ENGINES, TIMED, Slicer

#: the block classes a quick-sweep run may be handed off for
OFF_WINDOWS = {"BitvectorLevelScanner", "BVIntersect", "BVExpander", "LevelScanner",
               "Intersect", "MatrixReducer"}


@pytest.fixture
def engine_runs(monkeypatch):
    """Every timed engine run as ``(handoff, {block name: block})``."""
    runs = []
    real = timed_batch.TimedBatchEngine._report

    def record(engine, cycles, handoff=None):
        runs.append((handoff, {b.name: b for b in engine.blocks}))
        return real(engine, cycles, handoff)

    monkeypatch.setattr(timed_batch.TimedBatchEngine, "_report", record)
    return runs


def skip_wired(block):
    if isinstance(block, LevelScanner):
        return block.in_skip is not None
    return any(side.skip is not None for side in block.sides)


def test_quick_sweep_census(engine_runs, default_engine):
    for name in STUDY_NAMES:
        study = get_study(name)
        for spec in study.enumerate(backend="compiled", options=study.quick_options):
            execute_spec(spec)
    assert len(engine_runs) == 66
    handed = [(h, blocks) for h, blocks in engine_runs if h is not None]
    assert len(handed) == 20
    for handoff, blocks in handed:
        name, cls = re.match(r"block '(.+)' \((\w+)\): ", handoff).groups()
        assert cls in OFF_WINDOWS, handoff
        assert type(blocks[name]).__name__ == cls
        if cls in ("LevelScanner", "Intersect"):
            assert skip_wired(blocks[name]), handoff
            assert handoff.endswith("its window hook cannot run here")
        else:
            assert handoff.endswith("no window hook")


def test_both_outerspace_phases_run_on_windows(engine_runs):
    B = random_sparse_matrix(30, 30, 0.1, seed=1)
    C = random_sparse_matrix(30, 30, 0.1, seed=2)
    got = outerspace_spmm(B, C, backend="compiled")
    assert [h for h, _ in engine_runs] == [None, None]
    want = outerspace_spmm(B, C, backend="cycle")
    assert (got.output.tolist(), got.multiply_cycles, got.merge_cycles) == (
        want.output.tolist(), want.multiply_cycles, want.merge_cycles)


def outcome(build, backend):
    """Everything a backend may not change, and the handoff."""
    blocks = build()
    report = run_blocks(blocks, backend=backend)
    stored = [b.tokens for b in blocks if isinstance(b, Sink)]
    stored += [(b.crd.tolist(), b.seg.tolist()) for b in blocks
               if isinstance(b, CompressedLevelWriter)]
    return ((report.cycles, report.block_activity(), graph_token_counts(blocks),
             stored), report.handoff)


def assert_every_engine_matches_cycle(build):
    want, _ = outcome(build, "cycle")
    for backend in TIMED:
        assert outcome(build, backend)[0] == want, backend
    return want


class GeneratorOnly(Block):
    """A pass-through with no window hook."""

    def __init__(self, in_, out, name):
        super().__init__(name)
        self.in_ = self._in("in", in_)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            self.out.push(token)
            yield True
            if token is DONE:
                return


def test_one_generator_only_block_hands_the_run_to_cycle():
    def build():
        a, b, c, d = (Channel(x) for x in "abcd")
        return [StreamFeeder([3, 1, Stop(0), 4, Stop(0), DONE], a, name="feed"),
                Fanout(a, [b], name="fan"), GeneratorOnly(b, c, "gen"),
                Fanout(c, [d], name="fan2"), Sink(d, name="sink")]

    want = assert_every_engine_matches_cycle(build)
    assert want[-1][0] == [3, 1, Stop(0), 4, Stop(0), DONE]
    for backend in TIMED:
        _, handoff = outcome(build, backend)
        assert handoff == "block 'gen' (GeneratorOnly): no window hook", backend


def late(tokens, at, gap, out, name):
    """A source pushing *tokens* a token a cycle, idling *gap* cycles
    before token *at*."""
    plan = [(1, 0)] * (at - 1) + [(1, gap)] + [(1, 0)] * (len(tokens) - at - 1)
    return Slicer(tokens, plan, out, name)


LATE = 12


@pytest.fixture
def stepped(monkeypatch):
    """The names of the blocks whose generator a run steps."""
    names, real = [], Block.step

    def step(block):
        names.append(block.name)
        return real(block)

    monkeypatch.setattr(Block, "step", step)
    return names


class TestLateInputsStayOnWindows:
    """What arrives late and behind idle cycles keeps every block on the
    plane the plan chose: a merger's ``N`` reference is payload its hook
    carries, and a parallelizer's ``N`` raises on every engine."""

    @pytest.mark.parametrize("cls", [Intersect, Union])
    @pytest.mark.parametrize("gap", [0, 5])
    def test_merger_carries_a_late_n_reference(self, cls, gap, stepped):
        # side a closes fiber LATE with a bare stop; side b carries an N
        # reference there, and side a's last fiber comes gap cycles late
        def build():
            ca, ra = Channel("ca"), Channel("ra", kind="ref")
            cb, rb = Channel("cb"), Channel("rb", kind="ref")
            oc = Channel("oc")
            oa, ob = Channel("oa", kind="ref"), Channel("ob", kind="ref")
            fibers = [([k], [k]) for k in range(LATE)] + [([], [97, 98]), ([5], [5])]
            a = [t for crds, _ in fibers for t in crds + [Stop(0)]] + [DONE]
            b = [t for _, crds in fibers for t in crds + [Stop(0)]] + [DONE]
            b_refs = list(b)
            b_refs[b.index(97)] = EMPTY
            return [late(a, len(a) - 3, gap, ca, "fca"),
                    late(a, len(a) - 3, gap, ra, "fra"),
                    StreamFeeder(b, cb, name="fcb"),
                    StreamFeeder(b_refs, rb, name="frb"),
                    cls([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                        oc, [[oa], [ob]], name="merge"),
                    Sink(oa, name="sink_a"), Sink(ob, name="sink_b"),
                    CompressedLevelWriter(oc, name="wr")]

        want = assert_every_engine_matches_cycle(build)
        assert want[0] > LATE + gap
        assert (want[1]["merge"]["stall"] > 0) == (gap > 0)
        if cls is Union:  # the N goes out on side b's reference as it came in
            assert EMPTY in want[-1][1]
        stepped.clear()
        for backend in TIMED:
            outcome(build, backend)
        assert stepped == []

    @pytest.mark.parametrize("cls", [Intersect, Union])
    def test_merger_n_reference_in_its_first_window(self, cls, stepped):
        # every input whole and its feeder done: one visit takes it all
        def build():
            ca, ra = Channel("ca"), Channel("ra", kind="ref")
            cb, rb = Channel("cb"), Channel("rb", kind="ref")
            oc = Channel("oc")
            oa, ob = Channel("oa", kind="ref"), Channel("ob", kind="ref")
            a = [Stop(0), 5, Stop(0), DONE]
            b = [97, 98, Stop(0), 5, Stop(0), DONE]
            return [StreamFeeder(a, ca, name="fca"), StreamFeeder(a, ra, name="fra"),
                    StreamFeeder(b, cb, name="fcb"),
                    StreamFeeder([EMPTY] + b[1:], rb, name="frb"),
                    cls([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                        oc, [[oa], [ob]], name="merge"),
                    Sink(oa, name="sink_a"), Sink(ob, name="sink_b"),
                    CompressedLevelWriter(oc, name="wr")]

        assert_every_engine_matches_cycle(build)
        stepped.clear()
        for backend in TIMED:
            outcome(build, backend)
        assert stepped == []

    @pytest.mark.parametrize("gap", [0, 3])
    def test_parallelizer_n_is_one_error(self, gap):
        # the generator used to read N as the end of the stream: a
        # silent truncation, reported as a success on every engine
        seen = set()
        for backend in ENGINES:
            in_ = Channel("in")
            lanes = [Channel(f"lane{i}") for i in range(2)]
            tokens = [t for k in range(LATE) for t in (k, Stop(0))]
            tokens += [EMPTY, 9, Stop(0), DONE]
            blocks = [late(tokens, len(tokens) - 4, gap, in_, "feed"),
                      Parallelizer(in_, lanes, name="par"),
                      CompressedLevelWriter(lanes[0], name="wr"),
                      Sink(lanes[1], name="sink")]
            with pytest.raises(BlockError) as caught:
                run_blocks(blocks, backend=backend)
            seen.add(str(caught.value))
        assert seen == {"par: an N has no lane (a parallelizer splits coordinate "
                        "and reference streams, which carry no N)"}


def sum_times_d():
    """``x(i) = (b(i) + c(i)) * d(i)`` drawn by hand: the union's
    references, ``N`` where ``b`` or ``c`` has no entry, are payload of
    the intersect with ``d`` (Custard cannot write the parentheses)."""
    g = SamGraph("sum_times_d")
    for t in "bcd":
        g.add("level_scanner", name=f"scan_{t}", tensor=t, depth=0)
        g.connect(g.add("root", name=f"root_{t}"), "ref", f"scan_{t}", "ref")
    g.add("union", name="union", sides=[1, 1])
    g.add("intersect", name="meet", sides=[2, 1])
    for side, t in enumerate("bc"):
        g.connect(f"scan_{t}", "crd", "union", f"crd{side}")
        g.connect(f"scan_{t}", "ref", "union", f"ref{side}_0")
        g.connect("union", f"ref{side}_0", "meet", f"ref0_{side}")
    g.connect("union", "crd", "meet", "crd0")
    g.connect("scan_d", "crd", "meet", "crd1")
    g.connect("scan_d", "ref", "meet", "ref1_0")
    for t, port in (("b", "ref0_0"), ("c", "ref0_1"), ("d", "ref1_0")):
        g.connect("meet", port, g.add("array", name=f"vals_{t}", tensor=t), "ref")
    g.add("alu", name="add", op="add")
    g.add("alu", name="mul", op="mul")
    g.connect("vals_b", "val", "add", "a")
    g.connect("vals_c", "val", "add", "b")
    g.connect("add", "val", "mul", "a")
    g.connect("vals_d", "val", "mul", "b")
    g.connect("meet", "crd", g.add("level_writer", name="write_i"), "crd")
    g.connect("mul", "val", g.add("vals_writer", name="write_vals"), "val")
    g.freeze()
    return g


def test_union_references_through_an_intersect_stay_on_windows(stepped):
    rng = np.random.default_rng(7)
    vectors = {t: (rng.random(60) < 0.4) * rng.random(60) for t in "bcd"}
    tensors = {t: FiberTensor.from_numpy(v, name=t) for t, v in vectors.items()}
    graph = sum_times_d()
    seen = []
    for backend in ENGINES:
        bound = bind(graph, tensors)
        stepped.clear()
        report = bound.run(backend=backend)
        seen.append((report.cycles, report.block_activity(),
                     graph_token_counts(bound.blocks),
                     bound.writers["write_i"].crd.tolist(),
                     bound.writers["write_vals"].vals.tolist()))
        assert report.handoff is None
        assert (stepped == []) == (backend != "cycle"), backend
    assert all(outcome == seen[0] for outcome in seen)
    want = (vectors["b"] + vectors["c"]) * vectors["d"]
    assert seen[0][3] == want.nonzero()[0].tolist()
    assert seen[0][4] == want[want != 0].tolist()
    # the union sends N on both of its reference outputs
    assert seen[0][2]["union.out_ref0_0"]["empty"] > 0


class TestLateUnbatchableToken:
    """A token no batch holds, played late into an ALU, a repeater and an
    idle chain: its source cannot batch its list, so no block runs its
    hook, and every engine gives ``cycle``'s result.  A source on a
    coordinate stream refuses such a token where it enters; played onto
    a value stream wired to a writer's or a reducer's coordinate port it
    reaches the block, and every engine raises its error at the same
    state."""

    HANDOFF = "block 'src' (Slicer): its window hook cannot run here"

    def check(self, build):
        want = assert_every_engine_matches_cycle(build)
        for backend in TIMED:
            assert outcome(build, backend)[1] == self.HANDOFF, backend
        return want

    def test_alu(self):
        def build():
            a, b, out = (Channel(x, kind="vals") for x in ("a", "b", "out"))
            left = [float(k) for k in range(LATE + 4)] + [Stop(0), DONE]
            left[LATE + 1] = (3, 4)
            right = list(range(LATE + 4)) + [Stop(0), DONE]
            return [late(left, LATE, 5, a, "src"), StreamFeeder(right, b, name="fb"),
                    ALU("mul", a, b, out, name="alu"), Sink(out, name="sink")]

        want = self.check(build)
        assert want[-1][0][LATE + 1] == (3, 4) * (LATE + 1)

    def test_repeater(self):
        def build():
            # one driving fiber of two coordinates per reference; the
            # tuple arrives as a reference, between two fibers
            crd, ref = Channel("crd"), Channel("ref", kind="ref")
            sig, out = Channel("sig", kind="repsig"), Channel("out", kind="ref")
            refs = list(range(LATE + 3))
            driver = [t for k in refs for t in (k, k, Stop(0))]
            driver[-1] = Stop(1)
            refs[LATE] = (3, 4)
            return [late(refs + [Stop(0), DONE], LATE, 5, ref, "src"),
                    StreamFeeder(driver + [DONE], crd, name="fc"),
                    RepeatSigGen(crd, sig, name="siggen"),
                    Repeater(ref, sig, out, name="repeat"), Sink(out, name="sink")]

        want = self.check(build)
        assert want[-1][0][3 * LATE:3 * LATE + 2] == [(3, 4)] * 2

    def test_the_stalls_of_an_idle_chain_are_counted(self):
        tokens = [1, 2, Stop(0), (3, 4), 5, Stop(0), DONE]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2]):
            def build():
                a, b, c = (Channel(x, kind="ref") for x in "abc")
                blocks = [late(tokens, 3, LATE, a, "src"), Fanout(a, [b], name="f1"),
                          Fanout(b, [c], name="f2"), Sink(c, name="sink")]
                return [blocks[i] for i in order]

            want = self.check(build)
            assert want[1]["sink"]["stall"] >= LATE

    @pytest.mark.parametrize("bad, kept, build", [
        ((3, 4), tuple(range(LATE)),
         lambda crds, vals: [CompressedLevelWriter(crds, name="wr")]),
        (2.5, tuple(range(LATE)),
         lambda crds, vals: [CompressedLevelWriter(crds, name="wr")]),
        (True, (), lambda crds, vals: [
            StreamFeeder([1.0] * (LATE + 1) + [Stop(1), DONE], vals, name="fv"),
            VectorReducer(crds, vals, Channel("oc"), Channel("ov", kind="vals"),
                          name="wr")]),
        (2.0, (), lambda crds, vals: [
            StreamFeeder([1.0] * (LATE + 1) + [Stop(1), DONE], vals, name="fv"),
            VectorReducer(crds, vals, Channel("oc"), Channel("ov", kind="vals"),
                          name="wr")]),
    ], ids=["writer-tuple", "writer-float", "reducer-bool", "reducer-integral-float"])
    def test_errors_are_cycle_s(self, bad, kept, build):
        # the source plays onto a value stream wired to the coordinate
        # port, which no source checks: the plan hands the run to cycle,
        # so the message is the same everywhere, and the writer's level
        # holds the same coordinates when it raises
        def blocks():
            crds, vals = Channel("crd", kind="vals"), Channel("v", kind="vals")
            tokens = list(range(LATE)) + [bad, Stop(1), DONE]
            return [late(tokens, LATE - 2, 5, crds, "src")] + build(crds, vals)

        seen = set()
        for backend in ENGINES:
            graph = blocks()
            with pytest.raises(BlockError) as caught:
                run_blocks(graph, backend=backend)
            crd = getattr(graph[-1], "crd", [])
            seen.add((str(caught.value), tuple(int(c) for c in crd)))
        assert seen == {(f"wr: non-integer coordinate {bad!r}", kept)}

    @pytest.mark.parametrize("bad", [(3, 4), True], ids=["tuple", "bool"])
    def test_a_coordinate_stream_refuses_it_where_it_enters(self, bad):
        # a writer and a reducer used to raise it, from their generators,
        # once it arrived; now no engine starts
        tokens = list(range(LATE)) + [bad, Stop(1), DONE]
        with pytest.raises(BlockError) as caught:
            late(tokens, LATE - 2, 5, Channel("crd"), "src")
        assert str(caught.value) == f"src: non-integer coordinate {bad!r}"
