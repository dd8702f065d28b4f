"""Who wakes a timed block: the timed engines' on-demand drain.

``TimedBatchEngine.run`` (and ``CompiledEngine``, which inherits the
loop) brings a timed block current when a generator is about to read
what it produced — not each time a token lands on its input — and a
generator's pushes are noted a cycle at a time and batched once, when
somebody reads them.  Four things are pinned here, all wall-clock-free:

* **visits are scale-free** — the timed-plane visits of a mixed-plane
  graph (half of Figure 13, OuterSPACE) do not grow with its operands;
* **leaving the plane late is exact** — a block that lagged behind the
  engine clock and is then sent an unbatchable token, and a block whose
  own ``drain_timed`` gives up on a chunk that arrives late, both give
  ``cycle``'s report on every engine;
* **any splice of generators is exact** — scalar relays at random links
  of the ``vecmul`` and Table-1 graphs, prefilled links, budgets at, one
  below and far above the true cycle count;
* **the bail mark is a fact about the source** — exactly the classes
  whose ``drain_timed`` mentions ``_bail_timed`` declare
  ``timed_may_bail``, and the engine names no block class.
"""

import dataclasses
import inspect
import random
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocks import (
    ALU,
    Block,
    BlockError,
    CompressedLevelWriter,
    Fanout,
    Intersect,
    MergeSide,
    Parallelizer,
    RepeatSigGen,
    Repeater,
    Sink,
    StreamFeeder,
    Union,
    VectorReducer,
)
from repro.data.synthetic import urandom_vector
from repro.graph.builder import capture_runs
from repro.kernels import outerspace_spmm
from repro.kernels.elementwise import CONFIGS, vecmul
from repro.lang import compile_expression
from repro.sim import BACKENDS, graph_token_counts, run_blocks
from repro.sim.backends import compiled, timed_batch
from repro.streams import Channel, DONE, EMPTY, Stop
from repro.studies.table1 import ENTRIES, _random_inputs

from blockkit import TIMED, UNTIMED, Relay, Slicer, block_classes, fed


# -- (a) visits are scale-free ---------------------------------------------------
@contextmanager
def visit_log(monkeypatch):
    """Counts ``drain_timed`` calls, fused-unit steps and generator steps."""
    calls = Counter()

    def counted(key, real):
        def wrapper(self, *args):
            calls[key] += 1
            return real(self, *args)
        return wrapper

    with monkeypatch.context() as patch:
        for cls in set(block_classes()):
            if vars(cls).get("drain_timed") is not None:
                patch.setattr(cls, "drain_timed",
                              counted("visit", vars(cls)["drain_timed"]))
        for unit in (compiled._ChainUnit, compiled._ScanLocateUnit):
            patch.setattr(unit, "step", counted("visit", unit.step))
        patch.setattr(Block, "step", counted("step", Block.step))
        yield calls


def _visits(monkeypatch, kernel, backend):
    """``(timed-plane visits, generator steps, blocks)`` of one kernel run."""
    with visit_log(monkeypatch) as calls, capture_runs() as capture:
        kernel(backend)
    return (calls["visit"], calls["step"],
            sum(len(blocks) for blocks, _ in capture.runs))


class TestVisitsAreScaleFree:
    """PR 17/19's idiom: what must not scale is counted, not timed."""

    @pytest.mark.parametrize("backend", TIMED)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_vecmul_visits_do_not_grow_with_the_vectors(
        self, config, backend, monkeypatch
    ):
        seen = []
        for size, nnz in ((200, 40), (2000, 400)):
            b = urandom_vector(size, nnz, seed=0)
            c = urandom_vector(size, nnz, seed=1)
            seen.append(_visits(
                monkeypatch,
                lambda be: vecmul(config, b, c, split=50, backend=be), backend,
            ))
        (small, small_steps, blocks), (large, large_steps, _) = seen
        assert small == large <= 2 * blocks, (config, seen)
        if config in ("crd_skip", "bv", "bv_split"):
            # the generators are stepped a cycle at a time, as by ``cycle``;
            # what they push no longer costs a timed visit per token
            assert large_steps > 5 * small_steps > 0, (config, seen)
        else:
            assert small_steps == large_steps == 0, (config, seen)

    @pytest.mark.parametrize("backend", TIMED)
    def test_outerspace_visits_do_not_grow_with_the_matrices(
        self, backend, monkeypatch
    ):
        seen = []
        for n in (50, 200):
            rng = np.random.default_rng(n)
            B = (rng.random((n, n)) < 0.02) * rng.random((n, n))
            C = (rng.random((n, n)) < 0.02) * rng.random((n, n))
            seen.append(_visits(
                monkeypatch, lambda be: outerspace_spmm(B, C, backend=be), backend
            ))
        (small, small_steps, blocks), (large, large_steps, _) = seen
        assert small == large <= 2 * blocks, seen
        assert large_steps > 5 * small_steps > 0, seen


# -- (b) leaving the plane late ---------------------------------------------------
def _outcome(build, backend, max_cycles=None):
    """Everything a backend may not change, or the error it ends in."""
    blocks = build()
    try:
        report = run_blocks(blocks, backend=backend, max_cycles=max_cycles)
    except (RuntimeError, ValueError) as exc:  # BlockError, DeadlockError too
        return type(exc).__name__, str(exc), _stored(blocks)
    return (report.cycles, report.block_activity(), graph_token_counts(blocks),
            _stored(blocks))


def _stored(blocks):
    """What sinks and writers hold, by block name."""
    kept = {}
    for block in blocks:
        state = {
            attr: list(getattr(block, attr))
            for attr in ("tokens", "vals", "seg", "crd")
            if not isinstance(block, StreamFeeder) and hasattr(block, attr)
        }
        if state:
            kept[block.name] = state
    return kept


def assert_every_engine_matches_cycle(build):
    """Full report on the timed engines; outputs and token counts on the
    functional ones (they model no cycles)."""
    want = _outcome(build, "cycle")
    for backend in TIMED:
        assert _outcome(build, backend) == want, backend
    for backend in UNTIMED:
        assert _outcome(build, backend)[-2:] == want[-2:], backend
    return want


#: the cycle by which the drills' late token has not yet arrived
LATE = 20


def player(tokens, out, name):
    """Scalar-only source, one token a cycle, a ``None`` idling ``LATE``
    cycles.  Unlike a feeder it never batches what it plays, so a
    ``True`` leaves it a ``bool``."""
    played, plan = [], []
    for token in tokens:
        if token is None:
            plan[-1] = (1, LATE)
        else:
            played.append(token)
            plan.append((1, 0))
    return Slicer(played, plan, out, name)


class TestLateUnbatchableToken:
    """A tuple swept into the input of a block that lagged: nobody read
    its output, so it was not visited since the run began.  It must be
    brought current before it bails — resuming its generator at the
    ``_tclock`` of a block that owes 20 cycles of work would replay them
    late (the cycle count tells)."""

    def test_alu(self):
        def build():
            a, b = Channel("a", kind="vals"), Channel("b", kind="vals")
            out = Channel("out", kind="vals")
            left = [float(k) for k in range(LATE + 4)] + [Stop(0), DONE]
            left[LATE + 1] = (3, 4)
            right = list(range(LATE + 4)) + [Stop(0), DONE]
            return fed(left, a, "fa", relay=True) + [
                StreamFeeder(right, b, name="fb"),
                ALU("mul", a, b, out, name="alu"), Sink(out, name="sink"),
            ]

        want = assert_every_engine_matches_cycle(build)
        assert want[0] > LATE
        assert want[-1]["sink"]["tokens"][LATE + 1] == (3, 4) * (LATE + 1)

    def test_repeater(self):
        def build():
            # one driving fiber of two coordinates per reference; the
            # tuple arrives as a reference, between two fibers
            crd, ref = Channel("crd"), Channel("ref", kind="ref")
            sig = Channel("sig", kind="repsig")
            out = Channel("out", kind="ref")
            refs = list(range(LATE + 3))
            driver = [t for k in refs for t in (k, k, Stop(0))]
            driver[-1] = Stop(1)
            refs[LATE] = (3, 4)
            return fed(refs + [Stop(0), DONE], ref, "fr", relay=True) + [
                StreamFeeder(driver + [DONE], crd, name="fc"),
                RepeatSigGen(crd, sig, name="siggen"),
                Repeater(ref, sig, out, name="repeat"), Sink(out, name="sink"),
            ]

        want = assert_every_engine_matches_cycle(build)
        assert want[0] > LATE
        assert want[-1]["sink"]["tokens"][3 * LATE:3 * LATE + 2] == [(3, 4)] * 2

    def test_compressed_level_writer(self):
        # the tuple is no coordinate: the level the writer then cannot
        # build is the same error, at the same state, everywhere
        def build():
            crd = Channel("crd")
            tokens = [t for k in range(LATE) for t in (k, Stop(0))]
            return fed(tokens + [(3, 4), Stop(0), DONE], crd, "fc", relay=True) + [
                CompressedLevelWriter(crd, name="wr"),
            ]

        want = _outcome(build, "cycle")
        assert want[:2] == ("BlockError", "wr: non-integer coordinate (3, 4)")
        assert want[-1]["wr"] == {"seg": list(range(LATE + 2)),
                                  "crd": list(range(LATE))}
        for backend in TIMED + UNTIMED:
            assert _outcome(build, backend) == want, backend

    def test_the_stalls_of_an_idle_block_are_counted(self):
        # Behind a generator that idles, the chain sat on the timed
        # plane with nothing to do: those cycles are its stalls.
        tokens = [1, 2, Stop(0), None, (3, 4), 5, Stop(0), DONE]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2]):
            def build():
                a, b, c = Channel("a"), Channel("b"), Channel("c")
                blocks = [player(tokens, a, "src"), Fanout(a, [b], name="f1"),
                          Fanout(b, [c], name="f2"), Sink(c, name="sink")]
                return [blocks[i] for i in order]

            want = assert_every_engine_matches_cycle(build)
            assert want[1]["sink"]["stall"] >= LATE

    @pytest.mark.parametrize("backend", sorted(set(BACKENDS) - {"functional"}))
    def test_bool_coordinates_raise_the_reducer_s_one_message(self, backend):
        # ``True`` is judged the cycle it is pushed (no batch may read
        # it as the coordinate 1), so the reducer's generator names it.
        # (``functional`` drains the source in one visit and batches the
        # run whole: ``test_reduce.py``'s BATCH_GAPS, a known gap.)
        crd, val = Channel("c"), Channel("v", kind="vals")
        outs = [Channel("oc"), Channel("ov", kind="vals")]
        crds = list(range(LATE)) + [True, Stop(1), DONE]
        vals = [1.0] * (LATE + 1) + [Stop(1), DONE]
        blocks = [
            player(crds, crd, "fc"), StreamFeeder(vals, val, name="fv"),
            VectorReducer(crd, val, *outs, name="reduce1"),
        ]
        with pytest.raises(BlockError) as caught:
            run_blocks(blocks, backend=backend)
        assert str(caught.value) == "reduce1: non-integer coordinate True"


class TestLateDirtyChunk:
    """A block whose ``drain_timed`` may itself leave the plane, fed the
    chunk it gives up on late, with a lazily woken tail below it.  Kept
    current every cycle, it bails the cycle the chunk completes and its
    generator resumes there; woken on demand it would find the chunk at
    the end of the run and resume at the ``_tclock`` of its last clean
    window."""

    @pytest.mark.parametrize("cls", [Intersect, Union])
    def test_merger(self, cls):
        # side a arrives a token a cycle and closes fiber LATE with a bare
        # stop; side b, waiting whole on its link, carries an N there
        def build():
            ca, ra = Channel("ca"), Channel("ra", kind="ref")
            cb, rb = Channel("cb"), Channel("rb", kind="ref")
            oc = Channel("oc")
            oa, ob = Channel("oa", kind="ref"), Channel("ob", kind="ref")
            fibers = [([k], [k]) for k in range(LATE)] + [([], [97, 98]), ([5], [5])]
            a = [t for crds, _ in fibers for t in crds + [Stop(0)]]
            b = [t for _, crds in fibers for t in crds + [Stop(0)]]
            b_refs = list(b)
            b_refs[b.index(97)] = EMPTY
            return (
                fed(a + [DONE], ca, "fca", relay=True)
                + fed(a + [DONE], ra, "fra", relay=True)
                + [StreamFeeder(b + [DONE], cb, name="fcb"),
                   StreamFeeder(b_refs + [DONE], rb, name="frb"),
                   cls([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                       oc, [[oa], [ob]], name="merge"),
                   Sink(oa, name="sink_a"), Sink(ob, name="sink_b"),
                   CompressedLevelWriter(oc, name="wr")]
            )

        want = assert_every_engine_matches_cycle(build)
        assert want[0] > LATE
        assert (EMPTY in want[-1]["sink_b"]["tokens"]) == (cls is Union)

    def test_parallelizer(self):
        def build():
            in_ = Channel("in")
            lanes = [Channel(f"lane{i}") for i in range(2)]
            tokens = [t for k in range(LATE) for t in (k, Stop(0))]
            return fed(tokens + [EMPTY, 9, Stop(0), DONE], in_, "feed", relay=True) + [
                Parallelizer(in_, lanes, name="par"),
                CompressedLevelWriter(lanes[0], name="wr"),
                Sink(lanes[1], name="sink"),
            ]

        want = assert_every_engine_matches_cycle(build)
        assert want[0] > LATE
        # the generator reads N as the end of the stream
        assert want[-1]["sink"]["tokens"][-1] is DONE


# -- (c) any splice of generators -------------------------------------------------
def _vecmul_graph(config):
    def wire():
        b = urandom_vector(40, 9, seed=3)
        c = urandom_vector(40, 11, seed=4)
        vecmul(config, b, c, split=8, bits_per_word=8)
    return wire


def _table1_graph(name):
    entry = next(e for e in ENTRIES if e.name == name)
    program = compile_expression(
        entry.expression, formats=entry.formats, schedule=entry.schedule
    )

    def wire():
        program.run(_random_inputs(program, 1))
    return wire


GRAPHS = {f"vecmul-{config}": _vecmul_graph(config) for config in CONFIGS}
GRAPHS.update({name: _table1_graph(name) for name in ("SpMV", "MMAdd", "MTTKRP")})


def fresh_blocks(wire):
    """The wired, not yet run block list a kernel or program launches."""
    with capture_runs(simulate=False) as capture:
        try:
            wire()
        except BlockError:
            pass  # the kernel reads results of the run that was skipped
    (blocks, _), = capture.runs
    return blocks


def _repoint(holder, old, new):
    """Swap channel *old* for *new* wherever *holder* keeps it (port
    registry, attributes, lists, a merger's ``MergeSide`` records)."""
    if isinstance(holder, dict):
        items = list(holder.items())
    elif isinstance(holder, list):
        items = list(enumerate(holder))
    else:
        items = list(vars(holder).items())
    for key, value in items:
        if value is old:
            if isinstance(holder, (dict, list)):
                holder[key] = new
            else:
                setattr(holder, key, new)
        elif isinstance(value, (dict, list)) or dataclasses.is_dataclass(value):
            _repoint(value, old, new)


def spliced(wire, picks, prefill):
    """*wire*'s graph with a scalar ``Relay`` on the links *picks* select
    and the first *prefill* tokens of every feeder already queued.

    No relay is placed downstream of another.  Known gap, older than
    the on-demand drain and untouched by it: a window-at-a-time block
    holds a fiber until its terminator arrives, so *between two
    generators* — fed a token a cycle and read a token a cycle — it
    hands the reader the fiber's first coordinate a fiber late
    (``vecmul-dense`` with relays on a scanner's input and on the
    intersecter's output: 44 cycles for ``cycle``'s 43, on the parent
    too).  Every mixed-plane graph the studies build has all-timed
    ancestors or all-timed descendants around such a block.
    """
    blocks = fresh_blocks(wire)
    readers = {ch: (block, port) for block in blocks
               for port, ch in block.inputs.items()}
    links = [(block, ch) for block in blocks for ch in block.outputs.values()
             if ch in readers]

    def below(block):
        found, stack = set(), [block]
        while stack:
            for ch in stack.pop().outputs.values():
                if ch in readers and readers[ch][0] not in found:
                    found.add(readers[ch][0])
                    stack.append(readers[ch][0])
        return found

    chosen = []
    for index in sorted({pick % len(links) for pick in picks}):
        writer, link = links[index]
        if all(writer not in below(other) | {readers[ch][0]}
               and other not in below(writer) | {readers[link][0]}
               for other, ch in chosen):
            chosen.append(links[index])
    for at, (writer, link) in enumerate(chosen):
        reader, port = readers[link]
        tail = Channel(f"{link.name}~", kind=link.kind, record=link.record)
        _repoint(vars(reader), link, tail)
        assert reader.inputs[port] is tail
        # after its reader, before it, or at either end of the list: the
        # relay's place decides every visibility delta around it
        where = [blocks.index(reader) + 1, blocks.index(reader), 0, len(blocks)]
        blocks.insert(where[(picks[0] + at) % 4], Relay(link, tail, f"relay{at}"))
    for block in blocks:
        if isinstance(block, StreamFeeder):
            held = min(prefill, len(block.tokens) - 1)
            for token in block.tokens[:held]:
                block.out.push(token)
            block.tokens = block.tokens[held:]
    return blocks


class TestSplicedGenerators:
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @given(picks=st.lists(st.integers(0, 999), max_size=4),
           prefill=st.integers(0, 2))
    def test_report_or_error_is_cycle_s(self, graph, picks, prefill):
        def build():
            return spliced(GRAPHS[graph], picks, prefill)

        want = _outcome(build, "cycle")
        assert isinstance(want[0], int), want[:2]
        for budget in (None, want[0] + 1000, want[0], want[0] - 1):
            expect = want if budget != want[0] - 1 else _outcome(
                build, "cycle", budget
            )
            assert (expect[0] == "RuntimeError") == (budget == want[0] - 1)
            for backend in TIMED:
                got = _outcome(build, backend, budget)
                if expect[0] == "RuntimeError":
                    got, expect = got[:2], expect[:2]  # stopped mid-run
                assert got == expect, (backend, budget)

    def test_a_starved_splice_deadlocks_with_cycle_s_text(self):
        # a relay whose feeder never sends D leaves every engine stuck
        # on the same blocks after the same number of cycles
        def build():
            a, b = Channel("a"), Channel("b")
            return fed([1, 2, Stop(0)], a, "feed", relay=True) + [
                Fanout(a, [b], name="fan"), Sink(b, name="sink"),
            ]

        want = _outcome(build, "cycle")
        assert want[0] == "DeadlockError"
        for backend in TIMED:
            assert _outcome(build, backend)[:2] == want[:2], backend


# -- (d) the mark is a fact about the source --------------------------------------
def test_the_bail_mark_is_derived_from_the_hooks_source():
    marked, bailing = set(), set()
    for cls in block_classes():
        if cls.drain_timed is None:
            assert not cls.timed_may_bail, cls
            continue
        if cls.timed_may_bail:
            marked.add(cls.__name__)
        if "_bail_timed" in inspect.getsource(cls.drain_timed):
            bailing.add(cls.__name__)
    assert marked == bailing
    assert {"Intersect", "Union", "Parallelizer", "StreamFeeder"} <= marked
    # the fused units re-queue their members instead (``_DISSOLVE``)
    assert "_bail_timed" not in inspect.getsource(compiled)


def test_the_engine_reads_the_mark_and_names_no_block_class():
    source = inspect.getsource(timed_batch)
    assert "timed_may_bail" in source
    assert "isinstance(" not in source
    imports = re.findall(r"^\s*(?:from|import)\s+(\S+)", source, re.M)
    assert not [m for m in imports if "blocks" in m or "formats" in m], imports
    names = {cls.__name__ for cls in block_classes()} - {"Block"}
    code = re.sub(r'""".*?"""|#[^\n]*', "", source, flags=re.S)
    assert not [name for name in names if re.search(rf"\b{name}\b", code)]


def test_one_path_from_a_push_to_the_stamped_plane():
    # no per-cycle stamp_queue and no unconditional full drain in front
    # of a scalar step: the loop notes pushes and drains a wake set
    run = inspect.getsource(timed_batch.TimedBatchEngine.run)
    assert "stamp_queue" not in run
    step = run.index("block.step()")
    before = run.rindex("for i in range(n):", 0, step)
    assert "drain_worklist()" not in run[before:step]
    assert "drain(wake_set(i))" in run[before:step]
    rng = random.Random(0)
    tokens = [rng.randrange(9) for _ in range(50)] + [Stop(0), DONE]
    calls = Counter()
    real = Channel.stamp_queue

    def stamp_queue(channel, stamp=None):
        calls[channel.name] += 1
        return real(channel, stamp)

    a, b = Channel("a"), Channel("b")
    blocks = fed(tokens, a, "feed", relay=True) + [
        Fanout(a, [b], name="fan"), Sink(b, name="sink")]
    Channel.stamp_queue = stamp_queue
    try:
        run_blocks(blocks, backend="timed-batch")
    finally:
        Channel.stamp_queue = real
    # 52 pushes, one a cycle, one batch (plus the prefill pass at bind)
    assert calls["a"] <= 3, calls
    assert blocks[-1].tokens == tokens
