"""Block-level differential tests of the compiled backend's chain unit
and of the scanner's window.

Value chains are wired by hand and fed hypothesis-drawn streams — ``N``
references, stray ``S0``/``S1`` stops, empty fibers — whole or one token
per cycle through a ``Relay`` (so units park mid-fiber and carries are
live; the one-token windows reach the unit — asserted, wall-clock-free).
Every wiring must reproduce the ``cycle`` engine's full report under
``timed-batch`` and ``compiled``.  A scanner feeding a locator is a row
of ``tests/blocks/test_window_blocks.py``.

The structural guards at the bottom pin what makes that cheap to keep
true: the units drive hooks the blocks own (no third encoding in
``compiled.py``), and only chains are partitioned.
"""

import inspect
import os
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.blocks
from repro.blocks import (
    ALU,
    ArrayLoad,
    Block,
    CompressedLevelWriter,
    ScalarALU,
    ScalarReducer,
    Sink,
    StreamFeeder,
    UncompressedLevelWriter,
    ValsWriter,
    make_scanner,
)
from repro.formats import CompressedLevel, DenseLevel
from repro.graph.bind import partition_segments
from repro.graph.builder import capture_runs
from repro.sim import graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import TIMED, Slicer, assert_windows_sliced, fed, window_log

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "graph"))
from _goldenlib import kernel_cases  # noqa: E402


def _full_report(blocks, backend):
    report = run_blocks(blocks, backend=backend)
    stored = []
    for b in blocks:
        if isinstance(b, Sink):
            stored.append(b.tokens)
        elif isinstance(b, ValsWriter):
            stored.append(b.vals.tolist())
        elif isinstance(b, CompressedLevelWriter):
            stored.append((b.level.seg.tolist(), b.level.crd.tolist()))
        elif isinstance(b, UncompressedLevelWriter):
            stored.append(b.level.num_fibers())
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        stored,
    ), report


def _assert_identity(build, kind, unrelayed, relayed=()):
    """*relayed*: the links a ``Relay`` feeds one token a cycle."""
    runs = {"cycle": _full_report(build(), "cycle")}
    for be in TIMED:
        with window_log() as log:
            runs[be] = _full_report(build(), be)
        assert runs[be][0] == runs["cycle"][0], be
        for link in relayed:
            assert_windows_sliced(log, link)
    if unrelayed:
        fusion = runs["compiled"][1].fusion
        assert fusion["kinds"] == {kind: 1}
        assert fusion["fallbacks"] == 0


# -- scanner windows -------------------------------------------------------

UNIVERSE = 12

fibers = st.lists(
    st.lists(st.integers(0, UNIVERSE - 1), unique=True, max_size=6).map(sorted),
    min_size=1, max_size=4,
)


@st.composite
def scanner_case(draw):
    """A level and a reference stream over it.

    The stream mixes data refs (zero-length fibers included), ``N``,
    stops of several levels — stray ones and ones directly after a
    fiber — and, sometimes, tokens after the ``D``.
    """
    if draw(st.booleans()):
        count = draw(st.integers(1, 3))
        level = DenseLevel(draw(st.integers(1, 4)), count)
    else:
        scanned = draw(fibers)
        count, level = len(scanned), CompressedLevel.from_fibers(scanned)
    ref = st.one_of(
        st.integers(0, count - 1),
        st.sampled_from([EMPTY, Stop(0), Stop(1), Stop(2)]),
    )
    refs = draw(st.lists(ref, max_size=9)) + [DONE]
    refs += draw(st.sampled_from([[], [0, Stop(0), DONE]]))
    return level, refs, draw(st.integers(0, 3)), draw(st.booleans())


class TestScannerWindow:
    """``LevelScanner.drain_timed`` takes whatever window it is handed:
    the whole stream, or the stream cut in two at every position (the
    second piece a few cycles later)."""

    @given(case=scanner_case())
    def test_full_report_identity_at_every_cut(self, case):
        level, refs, gap, reverse = case

        def build(cut):
            in_ref = Channel("in_ref", kind="ref")
            crd, ref = Channel("crd"), Channel("ref", kind="ref")
            if cut is None:
                blocks = [StreamFeeder(list(refs), in_ref, name="feed")]
            else:
                blocks = [Slicer(refs, [(cut, gap)], in_ref, "feed")]
            blocks.append(make_scanner(level, in_ref, crd, ref, name="scan"))
            blocks += [Sink(ch, name=f"sink_{ch.name}") for ch in (crd, ref)]
            return blocks[::-1] if reverse else blocks

        live = refs.index(DONE) + 1  # the scanner ends at the first D
        for cut in [None] + list(range(len(refs) + 1)):
            want, _ = _full_report(build(cut), "cycle")
            for be in TIMED:
                with window_log() as log:
                    got, _ = _full_report(build(cut), be)
                assert got == want, (be, cut)
                if cut is not None:
                    assert_windows_sliced(log, "in_ref",
                                          pushes=(0 < cut) + (cut < live))


# -- value chains ----------------------------------------------------------

TAILS = ("reduce", "vals", "sink", "compressed", "dense")

value = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                  allow_infinity=False, width=64)


@st.composite
def chain_case(draw):
    memory = [draw(st.lists(value, min_size=1, max_size=6)) for _ in range(2)]
    # one shared shape (value slot or stop level); each operand draws a
    # reference or N per slot, so densified structures agree
    shape = draw(st.lists(st.sampled_from(["v", "v", "v", 0, 1]), max_size=14))
    refs = []
    for mem in memory:
        slot = st.one_of(st.integers(0, len(mem) - 1), st.just(EMPTY))
        refs.append([draw(slot) if s == "v" else Stop(s) for s in shape]
                    + [DONE])
    const = draw(st.one_of(st.none(), value))
    return memory, refs, const


class TestChainUnit:
    @pytest.mark.parametrize("relay", ["whole", "relay-both", "relay-a"])
    @pytest.mark.parametrize("head", ["zip", "map"])
    @pytest.mark.parametrize("tail", TAILS)
    @given(case=chain_case())
    def test_full_report_identity(self, tail, head, relay, case):
        memory, refs, const = case
        scale = 1.5 if const is None else const  # the scaling stage's operand
        if tail in ("compressed", "dense"):
            # level writers store what they are fed as coordinates, and
            # reject a fractional one
            memory = [[float(int(v) % 50) for v in mem] for mem in memory]
            scale = 2.0 if const is None else float(int(const) % 50)

        def build():
            blocks = []
            loaded = []
            for k in range(2 if head == "zip" else 1):
                in_ref = Channel(f"ref{k}", kind="ref")
                val = Channel(f"val{k}", kind="vals")
                blocks += fed(refs[k], in_ref, f"feed{k}",
                              relay == "relay-both" or (relay == "relay-a" and k == 0))
                blocks.append(ArrayLoad(memory[k], in_ref, val, name=f"load{k}"))
                loaded.append(val)
            cur = loaded[0]
            if head == "zip":
                cur = Channel("sum", kind="vals")
                blocks.append(ALU("add", loaded[0], loaded[1], cur, name="alu"))
            if const is not None or head == "map":
                scaled = Channel("scaled", kind="vals")
                blocks.append(ScalarALU("mul", scale, cur, scaled, name="scale"))
                cur = scaled
            if tail == "reduce":
                out = Channel("reduced", kind="vals")
                blocks.append(ScalarReducer(cur, out, name="reduce"))
                blocks.append(Sink(out, name="sink"))
            elif tail == "vals":
                blocks.append(ValsWriter(cur, name="wr"))
            elif tail == "sink":
                blocks.append(Sink(cur, name="sink"))
            elif tail == "compressed":
                blocks.append(CompressedLevelWriter(cur, name="wr"))
            else:
                blocks.append(UncompressedLevelWriter(50, cur, name="wr"))
            return blocks

        kind = "value-chain" if tail in ("reduce", "sink") else "writer-tail"
        relayed = {"whole": [], "relay-a": ["ref0"],
                   "relay-both": ["ref0", "ref1"][:2 if head == "zip" else 1]}
        _assert_identity(build, kind, unrelayed=relay == "whole",
                         relayed=relayed[relay])


# -- structural guards (each fails on the pre-refactor tree) ---------------

def _table1_blocks():
    from repro.lang import compile_expression
    from repro.studies.table1 import ENTRIES, _random_inputs

    for entry in ENTRIES:
        prog = compile_expression(entry.expression, formats=entry.formats,
                                  schedule=entry.schedule)
        with capture_runs() as capture:
            prog.run(_random_inputs(prog, 0), backend="timed-batch")
        for blocks, _ in capture.runs:
            yield entry.name, blocks


def _kernel_blocks():
    for name, runner in kernel_cases():
        with capture_runs() as capture:
            runner("timed-batch")
        for blocks, _ in capture.runs:
            yield name, blocks


def test_compiled_backend_is_a_scheduler_not_a_third_encoding():
    from repro.sim.backends import compiled

    source = inspect.getsource(compiled)
    assert "isinstance(" not in source
    imports = re.findall(r"^\s*(?:from|import)\s+(\S+)", source, re.M)
    assert not [m for m in imports if "blocks" in m or "formats" in m], imports


def test_only_paying_segment_shapes_are_partitioned():
    # every segment is a chain: a scanner and its locator are two blocks
    # on the plain timed plane, handing over fiber runs
    seen = 0
    for source in (_kernel_blocks, _table1_blocks):
        for name, blocks in source():
            kinds = {s.kind for s in partition_segments(blocks)}
            assert kinds <= {"value-chain", "writer-tail"}, (name, kinds)
            seen += 1
    assert seen >= 18


def test_no_block_declares_a_co_scheduled_role():
    for _, cls in inspect.getmembers(repro.blocks, inspect.isclass):
        if issubclass(cls, Block) and cls.timing is not None:
            assert cls.timing.fuse_role not in ("merge", "repsig", "repeat"), cls


def test_region_sums_has_one_sum_kernel():
    assert "sums_fn" not in inspect.signature(ScalarReducer._region_sums).parameters
