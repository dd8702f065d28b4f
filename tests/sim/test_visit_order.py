"""Wall-clock-free guard: a window run visits each block once a slab, producers first.

``TimedBatchEngine.run`` visits its worklist in dependency order
(:func:`~repro.sim.backends.plan.dependency_order`, the plan's
``order``), a fused unit at its last member, so every producer of a
block has pushed its slab before the block is visited.  A volume source
pushes at most a slab a visit (:data:`~repro.blocks.base.SLAB`); the
worklist runs each slab down the graph before it visits the source
again, and a block is visited when a producer pushed onto one of its
inputs.  Counted here, with no clock: on the twelve Table-1 programs,
Gamma, ``spmv_locate``, OuterSPACE and every quick-sweep graph that
stays on windows, under every timed engine — all far below a slab —

* every block outside a fused unit enters ``drain_timed`` exactly once;
* every fused unit steps exactly once;
* no visit comes back without progress;

and on ``spmv_locate`` with the slab patched small, every block below
the cut scanner enters (every fused unit steps) exactly once a slab.

A graph handed to ``cycle`` (``report.handoff`` names the block that
decided it) runs no worklist and is skipped.

The seed is a cost, never a result: "when a block is visited changes
nothing it computes".  Seeding the worklist in reverse dependency order
or in a shuffled order must give bit-identical reports — cycles,
per-block activity, per-channel token counts and every writer's arrays.
A Table-1 case compiles a parsed assignment on every run, and a kernel
case builds its graphs afresh, so each run plans a graph of its own and
a patched order reaches it.
"""

import random

import numpy as np
import pytest

from repro.blocks import CompressedLevelWriter, ScatterValsWriter, ValsWriter
from repro.data.synthetic import random_sparse_matrix
from repro.graph.builder import capture_runs
from repro.harness import STUDY_NAMES
from repro.harness.registry import execute_spec, get_study
from repro.kernels import gamma, gamma_spmm, outerspace, outerspace_spmm, spmv, spmv_locate
from repro.lang import compile_expression, parse
from repro.sim import graph_token_counts
from repro.blocks import base
from repro.sim.backends import plan, timed_batch
from repro.sim.backends.compiled import _ChainUnit
from repro.studies.table1 import ENTRIES, _random_inputs

from blockkit import TIMED


def table1_case(entry):
    def program():
        return compile_expression(
            parse(entry.expression), formats=entry.formats, schedule=entry.schedule
        )

    inputs = _random_inputs(program(), 0)
    return lambda backend: (program().run(inputs, backend=backend).to_numpy(),)


def operands(n=40):
    return (random_sparse_matrix(n, n, 0.1, seed=7),
            random_sparse_matrix(n, n, 0.1, seed=8))


def kernel_case(run, *builders):
    """*run* over a graph of its own each time: its builders forget the
    graphs they made, so a patched order reaches the new graphs' plans."""
    def case(backend):
        for build in builders:
            build.cache_clear()
        return run(backend)

    return case


def gamma_case():
    B, C = operands()
    return kernel_case(lambda backend: (gamma_spmm(B, C, backend=backend).output,),
                       gamma.gamma_graph)


def outerspace_case():
    B, C = operands()
    return kernel_case(
        lambda backend: (outerspace_spmm(B, C, backend=backend).output,),
        outerspace.multiply_graph, outerspace.merge_graph)


def spmv_locate_case():
    B, _ = operands()
    c = np.random.default_rng(3).random(B.shape[1])
    return kernel_case(lambda backend: spmv_locate(B, c, backend=backend),
                       spmv.locate_graph)


CASES = {entry.name: (lambda entry=entry: table1_case(entry)) for entry in ENTRIES}
CASES.update(gamma=gamma_case, spmv_locate=spmv_locate_case,
             outerspace=outerspace_case)


@pytest.fixture
def census(monkeypatch):
    """Every timed engine run as ``(engine, report, entries, steps)``:
    ``entries[i]`` the outcomes of block *i*'s ``drain_timed`` calls,
    ``steps`` the ``(unit, outcome)`` of every fused-unit step."""
    runs = []
    steps = []
    real_run, real_step = timed_batch.TimedBatchEngine.run, _ChainUnit.step

    def run(engine, max_cycles=None):
        entries, hooked = {}, []
        for i, block in enumerate(engine.blocks):
            if type(block).drain_timed is None:
                continue

            def counted(hook=block.drain_timed, i=i):
                outcome = hook()
                entries.setdefault(i, []).append(outcome)
                return outcome

            block.drain_timed = counted
            hooked.append(block)
        del steps[:]
        try:
            report = real_run(engine, max_cycles)
        finally:
            for block in hooked:
                del block.drain_timed
        runs.append((engine, report, entries, list(steps)))
        return report

    def step(unit):
        outcome = real_step(unit)
        steps.append((unit, outcome))
        return outcome

    monkeypatch.setattr(timed_batch.TimedBatchEngine, "run", run)
    monkeypatch.setattr(_ChainUnit, "step", step)
    return runs


def assert_each_visited_once(runs) -> int:
    """Check every window run of *runs*; returns how many there were."""
    window_runs = 0
    for engine, report, entries, steps in runs:
        if report.handoff is not None:
            continue
        window_runs += 1
        units = engine._segment_log[0] if hasattr(engine, "_segment_log") else []
        assert all(unit.active for unit in units), report.handoff
        fused = {i for unit in units for i in unit.members}
        for i, block in enumerate(engine.blocks):
            want = [] if i in fused else [True]
            assert entries.get(i, []) == want, (block.name, entries.get(i))
        assert sorted(id(u) for u, _ in steps) == sorted(id(u) for u in units)
        assert all(outcome is True for _, outcome in steps)
    return window_runs


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_block_visited_once(case, backend, census):
    CASES[case]()(backend)
    assert census
    assert assert_each_visited_once(census) == len(census)


@pytest.mark.parametrize("backend", TIMED)
def test_quick_sweep_blocks_visited_once(backend, census, default_engine):
    for name in STUDY_NAMES:
        study = get_study(name)
        for spec in study.enumerate(backend=backend, options=study.quick_options):
            execute_spec(spec)
    assert assert_each_visited_once(census) > 0


def slab_count(lens, slab):
    """How many visits the slab rule cuts a scanner input into, its
    fibers *lens* long: the leading fibers that total at most *slab*
    pairs, and always one, a visit."""
    count, at = 0, 0
    while at < len(lens):
        at += max(int(np.searchsorted(np.cumsum(lens[at:at + slab + 1]), slab,
                                      "right")), 1)
        count += 1
    return count


@pytest.mark.parametrize("backend", TIMED)
def test_each_block_below_a_cut_visited_once_a_slab(backend, census, monkeypatch):
    monkeypatch.setattr(base, "SLAB", 16)
    B, _ = operands()
    slabs = slab_count(np.count_nonzero(B, axis=1)[B.any(axis=1)], 16)
    assert slabs > 3
    spmv_locate_case()(backend)
    (engine, report, entries, steps), = census
    units = engine._segment_log[0] if hasattr(engine, "_segment_log") else []
    fused = {i for unit in units for i in unit.members}
    for i, block in enumerate(engine.blocks):
        if i in fused:
            want = []
        elif block.name in ("root_B", "scan_Bi"):
            want = [True]
        else:
            want = [True] * slabs
        assert entries.get(i, []) == want, (block.name, entries.get(i))
    assert [outcome for _, outcome in steps] == [True] * slabs * len(units)


def bits(value):
    """*value* (an array, a number, or a tuple of them) as exact bytes."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def written(blocks):
    """Every writer's arrays, by block name."""
    out = {}
    for block in blocks:
        if isinstance(block, CompressedLevelWriter):
            out[block.name] = bits((block.crd, block.seg))
        elif isinstance(block, (ValsWriter, ScatterValsWriter)):
            out[block.name] = bits(block.vals)
    return out


def outcome(run, backend):
    """The result and, for every run launched, the whole report."""
    with capture_runs() as capture:
        result = run(backend)
    return bits(result), [
        (report.cycles, report.block_activity(), graph_token_counts(blocks),
         written(blocks), report.handoff)
        for blocks, report in capture.runs
    ]


def reversed_order(order):
    return lambda *wiring: order(*wiring)[::-1]


def shuffled_order(order, seed):
    def shuffled(*wiring):
        seeded = order(*wiring)
        random.Random(seed).shuffle(seeded)
        return seeded
    return shuffled


SEEDS = {
    "reverse": reversed_order,
    "shuffle-0": lambda order: shuffled_order(order, 0),
    "shuffle-1": lambda order: shuffled_order(order, 1),
}


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("seed", sorted(SEEDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_independent_of_visit_order(case, seed, backend, monkeypatch):
    run = CASES[case]()
    want = outcome(run, backend)
    order, seeded = SEEDS[seed](plan.dependency_order), []

    def counted(*wiring):
        seeded.append(wiring)
        return order(*wiring)

    monkeypatch.setattr(plan, "dependency_order", counted)
    assert outcome(run, backend) == want
    assert seeded, "no run was planned under the patched order"
