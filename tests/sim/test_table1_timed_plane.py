"""Wall-clock-free guard: Table 1 runs whole windows on the timed plane.

The twelve Table-1 expressions are what ``table1_mix`` times, and what
made three of them two thirds of an op was structural, not arithmetic:
arity-3 unioners that could not enter the timed plane (every block
behind them was then visited one token per cycle) and a scanner that
paid one schedule per run of data references.  Counting calls pins both
without a clock: under ``compiled`` every block is timed-capable, none
bails, no generator is stepped, and a scanner schedules at most once
per visit.
"""

import pytest

from repro.blocks import Block
from repro.blocks.scanner import LevelScanner
from repro.graph.builder import capture_runs
from repro.lang import compile_expression
from repro.studies.table1 import ENTRIES, _random_inputs


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.name)
def test_table1_graph_never_leaves_the_timed_plane(entry, monkeypatch):
    stepped, bailed, visits, scheds, advances = [], [], {}, {}, {}
    real_step, real_bail = Block.step, Block._bail_timed
    real_take, real_advance = LevelScanner._t_take_events, Block._t_advance
    real_run, real_offsets = LevelScanner._t_run, LevelScanner._t_offsets

    def step(self):
        stepped.append(self.name)
        return real_step(self)

    def bail(self):
        bailed.append(self.name)
        return real_bail(self)

    def take_events(self, fibers):
        # one window taken a visit, onto the outputs or as fiber runs
        visits[self.name] = visits.get(self.name, 0) + 1
        return real_take(self, fibers)

    def schedule(real):
        def counted(self, pos, val, total):
            scheds[self.name] = scheds.get(self.name, 0) + 1
            return real(self, pos, val, total)
        return counted

    def advance(self, arrivals):
        advances[self.name] = advances.get(self.name, 0) + 1
        return real_advance(self, arrivals)

    monkeypatch.setattr(Block, "step", step)
    monkeypatch.setattr(Block, "_bail_timed", bail)
    monkeypatch.setattr(LevelScanner, "_t_take_events", take_events)
    # the dense schedule onto the outputs, the sparse one of paired runs
    monkeypatch.setattr(LevelScanner, "_t_run", schedule(real_run))
    monkeypatch.setattr(LevelScanner, "_t_offsets", schedule(real_offsets))
    monkeypatch.setattr(LevelScanner, "_t_advance", advance)

    prog = compile_expression(
        entry.expression, formats=entry.formats, schedule=entry.schedule
    )
    with capture_runs() as capture:
        prog.run(_random_inputs(prog, 0), backend="compiled")
    for blocks, _ in capture.runs:
        incapable = [b.name for b in blocks if not b.timed_capable()]
        assert incapable == []
    assert bailed == []
    assert stepped == []
    assert visits
    for name, count in visits.items():
        assert scheds.get(name, 0) <= count, (name, scheds[name], count)
        assert advances.get(name, 0) <= count, (name, advances[name], count)
