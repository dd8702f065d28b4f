"""Epoch-batched timed backend: reference timing at TokenBatch speed.

:class:`TimedBatchEngine` reproduces the CycleEngine's *entire*
``SimulationReport`` — cycle count, per-block busy/stall statistics and
per-channel token counts — without resuming a generator once per token.
Blocks with a ``drain_timed`` hook advance in **windows**: one
vectorized schedule (`rate1_schedule`) per control-free token segment,
with every produced token carrying the cycle it was pushed.  The key
facts making this exact:

* with the paper's unbounded queues, a block's busy/stall schedule is a
  deterministic function of its input tokens' *visible cycles* — the
  cycle each token becomes poppable, which is the producer's push cycle
  plus 0 or 1 depending on whether the consumer steps after the producer
  in the reference engine's block order — so *when* a block is visited
  changes nothing it computes;
* every block is a fully pipelined rate-1 machine: one generator
  ``yield`` per cycle gated only by token arrivals, so an entire
  segment's schedule is the max-plus scan ``c[k] = max(c[k-1] + 1,
  arrival[k])``.

**The structure comes from the plan** (:mod:`repro.sim.backends.plan`):
the plane, the wiring, the worklist's seed, each channel's visibility
deltas and the scanner hand-overs are decided before any channel is
touched, by :func:`~repro.sim.backends.plan.plan_blocks` — once per
frozen graph when the run comes from :func:`repro.graph.bind.bind`,
which hands the plan in (:attr:`Engine.plan`; re-checked by
:meth:`~repro.sim.backends.plan.Plan.live`), else once per run.  A run
is all windows when every block has a window hook it can use on this
instance, no channel is a finite FIFO and every token queued before the
run batches.  Otherwise the whole run goes to
:class:`~repro.sim.backends.cycle.CycleEngine` — the same report by the
repository's invariant — and ``report.handoff`` names the first block
or channel that decided it.  A window run then pairs scanners with the
locators and merger sides that read both their outputs.

A window run is a worklist visited in dependency order (the plan's
``order``: producers before consumers), so a block is visited once
every producer has pushed what it has, and takes all of it in one
visit.  A block is visited again after a producer pushed onto one of
its inputs.  **A run holds a slab, not the whole run**: a volume source
(a ``StreamFeeder``, a ``LevelScanner``) takes at most
:data:`~repro.blocks.base.SLAB` a visit and says it left the rest
(``_t_cut``); the worklist runs that slab down the graph, and only when
no block is left to visit does the cut source whose outputs hold the
fewest unconsumed tokens (``t_backlog``) take its next slab.  The order
is a cost, never a result: any order and any cut give the same report
(``tests/sim/test_visit_order.py``, ``tests/sim/test_slab_rule.py``).
**No block changes plane
mid-run**: a window hook takes every well-formed stream, and input it
cannot take is malformed and raises the ``BlockError`` the block's
generator raises on ``cycle`` (a merger's malformed side, a
parallelizer's ``N``), so a run the plan puts on windows stays there.

The loop also services *fused units*: a subclass may return, from
:meth:`TimedBatchEngine._compile_segments`, a table mapping member block
indices to a unit object that the worklist steps in place of the
members' own ``drain_timed`` (see :mod:`repro.sim.backends.compiled`).
A unit exposes ``members`` (block indices), ``emitters`` (the members
with an output leaving the unit), an ``active`` flag the loop clears
when it dissolves the unit, and ``step()`` returning True on progress,
False when parked, or :data:`_DISSOLVE` when its members must rejoin the
plain timed plane.  A step that dissolves must have consumed nothing
and left every member on the timed plane (the only one today is a fused
zip head handing misaligned operand windows back untouched), so the
loop just re-queues the members.  This engine's own table is empty, so
every hook below is a no-op for it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ...streams.channel import Channel
from .base import Engine, SimulationReport
from .cycle import CycleEngine
from .plan import Plan, plan_blocks

#: sentinel returned by a unit step that must dissolve its segment
_DISSOLVE = object()


class TimedBatchEngine(Engine):
    """Window worklist over stamped token batches, or a ``cycle`` run."""

    backend = "timed-batch"
    #: whether a plan this engine makes needs the fusion partition
    fuses = False

    def _compile_segments(self, blocks, plan: Plan, channels) -> dict:
        """Fused units by member block index; the plain plane has none."""
        return {}

    def _plan(self) -> Tuple[Plan, List[Channel]]:
        """The plan of this run and its channels in plan order: the one
        handed in when it still holds for the blocks, else a new one."""
        if self.plan is not None and (
                self.plan.segments is not None or not self.fuses):
            channels = self.plan.live(self.blocks)
            if channels is not None:
                return self.plan, channels
        return plan_blocks(self.blocks, fuse=self.fuses)

    def _report(self, cycles: int, handoff: Optional[str] = None) -> SimulationReport:
        """The finished run's report (subclasses attach annotations)."""
        report = SimulationReport(cycles, self.blocks)
        report.handoff = handoff
        return report

    def run(self, max_cycles: Optional[int] = None) -> SimulationReport:
        blocks = self.blocks
        plan, channels = self._plan()
        if plan.handoff is not None:
            cycles = CycleEngine(blocks).run(max_cycles).cycles
            return self._report(cycles, plan.handoff)
        # every channel's stamped state; tokens queued before the run
        # become visible at cycle 1
        for ch, delta in zip(channels, plan.deltas):
            ch.init_timed(delta)
            if ch.queue:
                ch.stamp_queue(1)
        for i, side, crd, ref, p in plan.handovers:
            block = blocks[i]
            block.runs[side] = blocks[p].hand_over(channels[crd], channels[ref])
        units = self._compile_segments(blocks, plan, channels)
        outs, consumer = plan.outs, plan.consumer

        n = len(blocks)
        finished = [b.finished for b in blocks]
        # a fused unit is visited at its last member: by then every
        # producer outside the unit has been visited
        last = {id(units[i]): i for i in plan.order if i in units}
        rank = [0] * n
        for k, i in enumerate(plan.order):
            rank[i] = k
        dirty = [(rank[i], i) for i in plan.order
                 if i not in units or last[id(units[i])] == i]
        queued = [False] * n
        for _, i in dirty:
            queued[i] = True
        cut: List[int] = []  # sources holding the rest of a cut slab
        index = {ch: k for k, ch in enumerate(channels)}

        def reader_of(ch: Channel):
            """The cursor *ch*'s consumer reads it through, once it has read."""
            c = consumer[index[ch]]
            return None if c is None else getattr(blocks[c], "_timed_readers", {}).get(ch)

        def mark(i: int) -> None:
            unit = units.get(i)
            if unit is not None:
                i = last[id(unit)]
            if not (finished[i] or queued[i]):
                queued[i] = True
                heappush(dirty, (rank[i], i))

        def wake_after(i: int) -> None:
            for k in outs[i]:
                c = consumer[k]
                if c is not None:
                    mark(c)

        def dissolve(unit) -> None:
            """Mid-run fallback: members rejoin the plain timed plane."""
            unit.active = False
            for i in unit.members:
                del units[i]
                mark(i)

        def visit(i: int) -> None:
            unit = units.get(i)
            if unit is not None:
                outcome = unit.step()
                if outcome is _DISSOLVE:
                    dissolve(unit)
                    return
                for m in unit.members:
                    finished[m] = blocks[m].finished
                if outcome:
                    for m in unit.emitters:
                        wake_after(m)
                return
            block = blocks[i]
            progressed = block.drain_timed()
            finished[i] = block.finished
            if progressed:
                wake_after(i)
                if block._t_cut and i not in cut:
                    cut.append(i)

        while True:
            while dirty:
                i = heappop(dirty)[1]
                queued[i] = False
                if not finished[i]:
                    visit(i)
            # every slab is as far down the graph as it goes: the cut
            # source whose outputs hold the least takes its next slab
            cut[:] = [i for i in cut if blocks[i]._t_cut and not finished[i]]
            if not cut:
                break
            held = [blocks[i].t_backlog(reader_of) for i in cut]
            mark(cut.pop(held.index(min(held))))

        cycles = self._cycles_so_far()
        if not all(finished):
            stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
            raise self._deadlock(cycles, stuck)
        for ch in channels:
            if ch.timed.pending:
                ch.materialize_timed()
        if max_cycles is not None and cycles > max_cycles:
            raise RuntimeError(f"exceeded max_cycles={max_cycles}")
        return self._report(cycles)

    def _cycles_so_far(self) -> int:
        """Reference cycle count: the latest busy cycle of any block."""
        cycles = 0
        for block in self.blocks:
            if block.drain_timed is not None and block._tclock > 1:
                cycles = max(cycles, block._tclock - 1)
        return cycles
