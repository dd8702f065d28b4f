"""Wall-clock-free guard: a window run visits each block once, producers first.

``TimedBatchEngine.run`` seeds its worklist in dependency order
(:func:`~repro.sim.backends.plan.dependency_order`, the plan's
``order``) and a fused
unit at its last member, so every producer of a block has run — and
pushed its whole stream — before the block is first visited.  Counted
here, with no clock: on the twelve Table-1 programs, Gamma,
``spmv_locate``, OuterSPACE and every quick-sweep graph that stays on
windows, under every timed engine,

* every block outside a fused unit enters ``drain_timed`` exactly once;
* every fused unit steps exactly once;
* no visit comes back without progress.

A graph handed to ``cycle`` (``report.handoff`` names the block that
decided it) runs no worklist and is skipped.

The seed is a cost, never a result: "when a block is visited changes
nothing it computes".  Seeding the worklist in reverse dependency order
or in a shuffled order must give bit-identical reports — cycles,
per-block activity, per-channel token counts and every writer's arrays.
A Table-1 case compiles a parsed assignment on every run, so each run
plans a graph of its own and a patched order reaches it.
"""

import random

import numpy as np
import pytest

from repro.blocks import CompressedLevelWriter, ScatterValsWriter, ValsWriter
from repro.data.synthetic import random_sparse_matrix
from repro.graph.builder import capture_runs
from repro.harness import STUDY_NAMES
from repro.harness.registry import execute_spec, get_study
from repro.kernels import gamma_spmm, outerspace_spmm, spmv_locate
from repro.lang import compile_expression, parse
from repro.sim import graph_token_counts
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


def gamma_case():
    B, C = operands()
    return lambda backend: (gamma_spmm(B, C, backend=backend).output,)


def outerspace_case():
    B, C = operands()
    return lambda backend: (outerspace_spmm(B, C, backend=backend).output,)


def spmv_locate_case():
    B, _ = operands()
    c = np.random.default_rng(3).random(B.shape[1])
    return lambda backend: spmv_locate(B, c, backend=backend)


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
def test_quick_sweep_blocks_visited_once(backend, census):
    for name in STUDY_NAMES:
        study = get_study(name)
        for spec in study.enumerate(backend=backend, options=study.quick_options):
            execute_spec(spec)
    assert assert_each_visited_once(census) > 0


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
