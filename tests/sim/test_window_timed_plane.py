"""Wall-clock-free guard: a window block takes a window, not a run.

``VectorReducer.drain_timed`` walking its streams one run at a time was
43 % of a ``gamma_spmm`` op; ``Repeater``, ``CoordDropper`` and
``InterleaveSerializer`` walking theirs one fiber at a time were 58 % of
what was left (2 504 of the op's 2 548 schedules, all 3 010 of its
single events); ``ValueDropper`` walking its two same-level streams one
fiber at a time was a tenth of a ``table1_mix`` op (one run popped per
output fiber).  ``ALU``, ``Locator`` and ``ScatterValsWriter`` read
their windows the same way (one pairing per window), with no run loop
left to fall back to; the two-sided ``Intersect`` and every ``Union``
merge a window of fiber pairs at once.  Counting calls pins the window
form without a clock: on the Gamma and OuterSPACE graphs, the twelve
Table-1 programs, the scatter and iterate-locate forms of SpMV, the fused
SDDMM that locates into its dense operands and an ALU behind phantom
zeros under ``compiled``, every such block that is not fused schedules at most once per visit
(+ 1), accounts at most two single events per visit, steps no generator — and
the reports are still ``cycle``'s.  On Gamma the merge sorts nothing,
the epoch advance builds no ramp of its own, and the result tensor is
built on the writers' arrays.
"""

import numpy as np
import pytest

from repro.blocks import (
    ALU,
    Block,
    CoordDropper,
    InterleaveSerializer,
    Intersect,
    Locator,
    Repeater,
    ScatterValsWriter,
    Union,
    ValueDropper,
    VectorReducer,
)
from repro.blocks import base as blocks_base
from repro.blocks import merge as merge_module
from repro.blocks import reduce as reduce_module
from repro.data.synthetic import random_sparse_matrix
from repro.formats import FiberTensor
from repro.graph import SamGraph, bind, capture_runs
from repro.kernels import gamma as gamma_module
from repro.kernels.gamma import gamma_spmm
from repro.kernels.outerspace import outerspace_spmm
from repro.kernels.sddmm import sddmm_fused_locate
from repro.kernels.spmm import spmm_program
from repro.kernels.spmv import spmv_locate, spmv_scatter
from repro.lang import compile_expression
from repro.sim.backends.compiled import CompiledEngine
from repro.streams import DONE, EMPTY, Stop
from repro.streams import timing
from repro.studies.table1 import ENTRIES, _random_inputs

from blockkit import TIMED
from numpy_counters import lexsort_callers, numpy_calls

WINDOW_BLOCKS = (VectorReducer, Repeater, CoordDropper, InterleaveSerializer,
                 ValueDropper, ALU, Locator, ScatterValsWriter, Intersect, Union)


def run_kernel(kernel):
    B = random_sparse_matrix(60, 60, 0.1, seed=7)
    C = random_sparse_matrix(60, 60, 0.1, seed=8)
    return lambda backend: kernel(B, C, backend=backend).output


def run_entry(entry):
    prog = compile_expression(
        entry.expression, formats=entry.formats, schedule=entry.schedule
    )
    inputs = _random_inputs(prog, 0)
    return lambda backend: prog.run(inputs, backend=backend).to_numpy()


def run_scatter(backend):
    B = random_sparse_matrix(60, 60, 0.1, seed=7)
    c = random_sparse_matrix(1, 60, 0.3, seed=8)[0]
    return spmv_scatter(B, c, backend=backend)[0]


def run_spmv_locate(backend):
    """B's j coordinates probe the dense vector c (section 4.2)."""
    B = random_sparse_matrix(60, 60, 0.1, seed=7)
    c = random_sparse_matrix(1, 60, 0.3, seed=8)[0]
    x_crd, x_vals, _ = spmv_locate(B, c, backend=backend)
    return np.concatenate([x_crd, x_vals])


def run_sddmm_locate(backend):
    """Two locators into dense operands: C's row level probed with B's
    i coordinates, D's with B's j coordinates (section 6.3)."""
    B = random_sparse_matrix(30, 30, 0.15, seed=7)
    C = random_sparse_matrix(30, 8, 1.0, seed=8)
    D = random_sparse_matrix(30, 8, 1.0, seed=9)
    return sddmm_fused_locate(B, C, D, backend=backend).output


def run_phantom_alu(backend):
    """An ALU whose operands carry phantom zeros, on either side."""
    g = SamGraph("phantom_alu")
    g.add("source", name="feed_a", stream_kind="vals",
          tokens=[1.0, 0.0, Stop(0), 2.0, Stop(0), EMPTY, Stop(1), DONE])
    g.add("source", name="feed_b", stream_kind="vals",
          tokens=[3.0, Stop(0), 4.0, 0.0, EMPTY, Stop(0), Stop(1), DONE])
    g.add("alu", name="add", op="add")
    g.connect("feed_a", "out", "add", "a")
    g.connect("feed_b", "out", "add", "b")
    g.add("vals_writer", name="write")
    g.connect("add", "val", "write", "val")
    bound = bind(g, {})
    bound.run(backend=backend)
    return bound.writers["write"].vals


class Counts:
    """Per-block call counts of one run, taken by patching the hooks."""

    def __init__(self, monkeypatch):
        self.visits, self.advances, self.events = {}, {}, {}
        self.stepped, self.schedules, self.units = [], 0, []

        def counted(real, table):
            def call(block, *args):
                table[block.name] = table.get(block.name, 0) + 1
                return real(block, *args)
            return call

        def step(block, real=Block.step):
            self.stepped.append(block.name)
            return real(block)

        def schedule(*args, real=timing.rate1_schedule):
            self.schedules += 1
            return real(*args)

        def compile_segments(engine, blocks, *structure,
                             real=CompiledEngine._compile_segments):
            units = real(engine, blocks, *structure)
            self.units.append((blocks, units))
            return units

        for cls in WINDOW_BLOCKS:
            monkeypatch.setattr(cls, "drain_timed",
                                counted(cls.drain_timed, self.visits))
        # a schedule computed sparsely (a paired scanner, a walked merge)
        # books its events through ``_t_span``: an advance as well
        for name, table in (("_t_advance", self.advances), ("_t_span", self.advances),
                            ("_t_event", self.events)):
            monkeypatch.setattr(Block, name, counted(getattr(Block, name), table))
        monkeypatch.setattr(Block, "step", step)
        monkeypatch.setattr(CompiledEngine, "_compile_segments", compile_segments)
        for module in (timing, blocks_base):
            monkeypatch.setattr(module, "rate1_schedule", schedule)

    def fused(self):
        """Blocks a fused unit ran to the end (their hooks, not their drains)."""
        return {blocks[i].name for blocks, units in self.units
                for i, unit in units.items() if unit.active}


@pytest.mark.parametrize(
    "run",
    [pytest.param(run_kernel(kernel), id=kernel.__name__)
     for kernel in (gamma_spmm, outerspace_spmm)]
    + [pytest.param(run_entry(entry), id=entry.name) for entry in ENTRIES]
    + [pytest.param(run, id=run.__name__)
       for run in (run_scatter, run_spmv_locate, run_sddmm_locate, run_phantom_alu)],
)
def test_window_blocks_take_whole_windows(run, monkeypatch):
    with capture_runs() as oracle:
        want = run("cycle")
    counts = Counts(monkeypatch)
    with capture_runs() as capture:
        got = run("compiled")

    present = {b.name for blocks, _ in capture.runs for b in blocks
               if isinstance(b, WINDOW_BLOCKS) and b.timed_capable()}
    assert set(counts.visits) == present - counts.fused()
    for name, visits in counts.visits.items():
        advances, events = counts.advances.get(name, 0), counts.events.get(name, 0)
        assert advances <= visits + 1, (name, advances, visits)
        assert events <= 2 * visits, (name, events, visits)
    assert counts.stepped == []
    np.testing.assert_array_equal(got, want)
    assert len(capture.runs) == len(oracle.runs)
    for (_, report), (_, reference) in zip(capture.runs, oracle.runs):
        assert report.cycles == reference.cycles
        assert report.block_activity() == reference.block_activity()


def run_spmm_ijk(backend):
    """~1 600 (i, j) fiber pairs reach the k-level intersecter."""
    B, C = (np.asarray(random_sparse_matrix(40, 40, 0.08, seed=s), float) for s in (42, 43))
    return spmm_program("ijk").run({"B": B, "C": C}, backend=backend).to_numpy()


def run_mm_add(backend):
    rng = np.random.default_rng(5)
    operands = {name: rng.random((9, 11)) * (rng.random((9, 11)) < 0.45) for name in "BC"}
    prog = compile_expression("X(i,j) = B(i,j) + C(i,j)")
    return prog.run(operands, backend=backend).to_numpy()


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("run", [run_spmm_ijk, run_mm_add], ids=["spmm_ijk", "mm_add"])
def test_mergers_advance_at_most_once_a_visit(run, backend, monkeypatch):
    """The merge-bound graphs on both timed engines: a merger's epoch
    advances never outnumber its visits, so per-fiber stepping cannot
    come back."""
    counts = Counts(monkeypatch)
    with capture_runs() as capture:
        run(backend)
    mergers = {b.name for blocks, _ in capture.runs for b in blocks
               if isinstance(b, (Intersect, Union))}
    advanced = mergers & set(counts.advances)
    assert advanced, backend
    for name in advanced:
        assert counts.advances[name] <= counts.visits[name], (
            backend, name, counts.advances[name], counts.visits[name])


def test_gamma_op_schedules_per_visit(monkeypatch):
    """The whole op: no block left that pays a schedule per run."""
    run = run_kernel(gamma_spmm)
    counts = Counts(monkeypatch)
    visits = []
    for cls in set(_timed_classes()) - set(WINDOW_BLOCKS):
        real = cls.drain_timed

        def drain(block, real=real):
            visits.append(block.name)
            return real(block)

        monkeypatch.setattr(cls, "drain_timed", drain)
    run("compiled")
    total = len(visits) + sum(counts.visits.values())
    assert 0 < counts.schedules <= 3 * total, (counts.schedules, total)


@pytest.mark.parametrize("backend", ["compiled", "timed-batch"])
def test_gamma_sorts_and_merges_without_union_sized_lookups(backend, monkeypatch):
    """One ``gamma_spmm`` op on perfbench's 60² check operands: the vector
    reducer sums a window whose regions fit the workspace bound in its
    dense workspace, and sorts any other with one argsort, never
    ``np.lexsort``; the
    k-intersect sorts nothing and never lays out C's k level — it walks
    the C scanner's fiber runs (it used to argsort both sides' keys
    together, then to search the shorter side in a key array as long as
    the walk), so every lookup it makes is at most as long as B's side;
    the epoch advance builds no ``np.arange``."""
    walks, merges, regions = [], [], []
    real_walk = merge_module._Merger._walk_window
    real_merge = merge_module._Merger._merge_events
    real_dedup = reduce_module._dedup_regions

    def dedup(crds, vals, sizes):
        regions.append(len(sizes))
        return real_dedup(crds, vals, sizes)

    def lookup(frame, args):
        return np.size(args[0]), np.size(args[1])

    with lexsort_callers() as sorted_by, numpy_calls("argsort") as argsorted, \
            numpy_calls("arange") as ranged, \
            numpy_calls("searchsorted", lookup) as lookups:
        def walk_window(block, groups, codes, walk, runs, view, keys, *rest):
            before = len(lookups)
            real_walk(block, groups, codes, walk, runs, view, keys, *rest)
            walks.append((int(view.lens.sum()), len(keys), lookups[before:]))

        monkeypatch.setattr(merge_module._Merger, "_walk_window", walk_window)
        monkeypatch.setattr(merge_module._Merger, "_merge_events",
                            lambda block, *args: merges.append(block.name)
                            or real_merge(block, *args))
        monkeypatch.setattr(reduce_module, "_dedup_regions", dedup)
        run_kernel(gamma_spmm)(backend)
    assert walks and regions  # both window paths ran
    assert merges == []
    assert "repro.blocks.reduce" not in sorted_by
    assert "repro.blocks.merge" not in argsorted
    assert "repro.streams.timing" not in ranged
    for walked, other, searched in walks:
        assert walked > other, (walked, other)
        assert searched and all(needles <= other for _, needles in searched), searched


def test_gamma_uses_the_writers_arrays(monkeypatch):
    """The result tensor is built on what the writers stored, as
    ndarrays and without a copy."""
    built = []

    class Recorded(FiberTensor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(gamma_module, "FiberTensor", Recorded)
    with capture_runs() as capture:
        run_kernel(gamma_spmm)("compiled")
    writers = {b.name: b for blocks, _ in capture.runs for b in blocks}
    (x,) = [t for t in built if t.name == "X"]
    vals, level = writers["write_Xvals"].vals, writers["write_Xj"].level
    assert isinstance(vals, np.ndarray) and isinstance(level.crd, np.ndarray)
    assert len(vals) and np.shares_memory(x.vals, vals)
    assert x.levels[1] is level and level.crd is writers["write_Xj"].crd


def _timed_classes():
    """Every block class that defines its own ``drain_timed``."""
    seen, stack = [], [Block]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "drain_timed" in vars(cls) and cls.drain_timed is not None:
            seen.append(cls)
    return seen
