"""Epoch-batched timed backend: reference timing at TokenBatch speed.

:class:`TimedBatchEngine` reproduces the CycleEngine's *entire*
``SimulationReport`` — cycle count, per-block busy/stall statistics and
per-channel token counts — without resuming a generator once per token.
Blocks that declare a :class:`~repro.blocks.base.TimingDescriptor` and a
``drain_timed`` hook advance in **windows**: one vectorized schedule
(`rate1_schedule`) per control-free token segment, with every produced
token carrying the cycle it was pushed.  The key facts making this exact:

* with the paper's unbounded queues, a block's busy/stall schedule is a
  deterministic function of its input tokens' *visible cycles* — the
  cycle each token becomes poppable, which is the producer's push cycle
  plus 0 or 1 depending on whether the consumer steps after the producer
  in the reference engine's block order — so *when* a block is visited
  changes nothing it computes;
* every stock primitive services one generator ``yield`` per cycle gated
  only by token arrivals, so an entire segment's schedule is the max-plus
  scan ``c[k] = max(c[k-1] + ii, arrival[k])``;
* finite-capacity FIFOs stay exact through the channel's credit log
  (:meth:`~repro.streams.channel.Channel.record_pops`): a batched
  producer's push *g* is additionally gated by the cycle slot ``g -
  capacity`` was freed.

**The structure comes from the plan** (:mod:`repro.sim.backends.plan`):
the plane, the wiring, the worklist's seed, each channel's visibility
deltas and the scanner hand-overs are decided before any channel is
touched, by :func:`~repro.sim.backends.plan.plan_blocks` — once per
frozen graph when the run comes from :func:`repro.graph.bind.bind`,
which hands the plan in (:attr:`Engine.plan`; re-checked by
:meth:`~repro.sim.backends.plan.Plan.live`), else once per run.  A run
is all windows when every block has a window hook it can use on this
instance, every finite FIFO is a credit pair and every token queued
before the run batches.  Otherwise the whole run goes to
:class:`~repro.sim.backends.cycle.CycleEngine` — the same report by the
repository's invariant — and ``report.handoff`` names the first block
or channel that decided it.  A window run then pairs scanners with the
locators and merger sides that read both their outputs.

A window run is a worklist seeded in dependency order (the plan's
``order``: producers before consumers), so a stock window
block is first visited once every producer has pushed its whole stream,
and takes it in one visit.  A block is visited again after a producer
pushed onto one of its inputs (or a reader popped a finite FIFO it
fills), and after any visit that made progress: credit pairs, a hook
that pushes one slice a visit and the generator finish below need those
re-visits.  The seed is a cost, never a result: any seed gives the same
report (``tests/sim/test_visit_order.py``).  A block whose own hook gives
up mid-run (:meth:`~repro.blocks.base.Block._bail_timed`: a merger's
dirty chunk, a parallelizer's ``N``) **finishes its stream on its
generator**: once all its producers have finished, the generator steps
from the block's ``_tclock`` against its inputs' stamps, its pushes
stamped at the cycle they are made; a stall jumps to the next stamp and
credits the skipped cycles.  Window-plane graphs are acyclic (skip
sidebands, the only feedback edges, connect blocks that cannot run their
hooks), so the block's producers always finish first.

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

from collections import deque
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
    planes = ("timed", "scalar")
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
        for ch, (delta, delta_pop) in zip(channels, plan.deltas):
            ch.init_timed(delta, delta_pop)
            if ch.queue:
                ch.stamp_queue(1)
        for i, side, crd, ref, p in plan.handovers:
            block = blocks[i]
            block.runs[side] = blocks[p].hand_over(
                channels[crd], channels[ref], block.timing.ii)
        units = self._compile_segments(blocks, plan, channels)
        producer, consumer = plan.producer, plan.consumer
        outs, ins, capacity = plan.outs, plan.ins, plan.capacity
        budget_msg = f"exceeded max_cycles={max_cycles}"

        n = len(blocks)
        finished = [b.finished for b in blocks]
        #: left its hook mid-run: finishes on its generator
        stranded = [False] * n
        last_busy = 0
        # a fused unit is seeded at its last member: by then every
        # producer outside the unit has been visited
        last = {id(units[i]): i for i in plan.order if i in units}
        dirty = deque([i for i in plan.order
                       if i not in units or last[id(units[i])] == i])
        queued = [False] * n
        for i in dirty:
            queued[i] = True

        def deadlock(cycles: int):
            stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
            return self._deadlock(cycles, stuck)

        def mark(i: int) -> None:
            if not (finished[i] or stranded[i] or queued[i]):
                queued[i] = True
                dirty.append(i)

        def wake_after(i: int) -> None:
            for k in outs[i]:
                c = consumer[k]
                if c is not None:
                    mark(c)
            for k in ins[i]:
                if capacity[k] is not None:
                    p = producer[k]
                    if p is not None:
                        mark(p)

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
                    mark(i)
                return
            block = blocks[i]
            progressed = block.drain_timed()
            if not block._timed_ok:
                stranded[i] = True
                wake_after(i)  # what it pushed before leaving
                return
            finished[i] = block.finished
            if progressed:
                wake_after(i)
                mark(i)

        def finish_on_generator(i: int) -> int:
            """Step *i*'s generator from ``_tclock`` to its end against its
            inputs' stamps; returns its last busy cycle (0: none)."""
            block = blocks[i]
            in_ch = list(block.inputs.values())
            out_ch = list(block.outputs.values())
            t, busy = block._tclock, 0
            while True:
                for ch in in_ch:
                    ch.materialize_timed(t)
                progressed = block.step()
                for ch in out_ch:
                    if ch.queue:
                        ch.stamp_queue(t + ch.timed.delta)
                if block.finished:
                    return busy
                if progressed:
                    if max_cycles is not None and t > max_cycles:
                        raise RuntimeError(budget_msg)
                    busy = t
                    t += 1
                    continue
                # stalled at t: nothing changes before the next stamp
                stamps = [s for s in (ch.timed_pending_min_stamp() for ch in in_ch)
                          if s is not None]
                if not stamps:
                    raise deadlock(self._cycles_so_far(max(busy, last_busy)))
                target = min(stamps)
                block.stall_cycles += target - t - 1
                t = target

        while True:
            while dirty:
                i = dirty.popleft()
                queued[i] = False
                if not (finished[i] or stranded[i]):
                    visit(i)
            ready = [
                i for i in range(n)
                if stranded[i] and not finished[i]
                and all(finished[producer[k]] for k in ins[i]
                        if producer[k] is not None)
            ]
            if not ready:
                break
            for i in ready:
                last_busy = max(last_busy, finish_on_generator(i))
                finished[i] = True
                wake_after(i)

        cycles = self._cycles_so_far(last_busy)
        if not all(finished):
            raise deadlock(cycles)
        for ch in channels:
            if ch.timed.pending:
                ch.materialize_timed(None)
        if max_cycles is not None and cycles > max_cycles:
            raise RuntimeError(budget_msg)
        return self._report(cycles)

    def _cycles_so_far(self, last_busy: int) -> int:
        """Reference cycle count: the latest busy cycle of any block."""
        cycles = last_busy
        for block in self.blocks:
            timing = block.timing
            if timing is not None and block._tclock > 1:
                cycles = max(cycles, block._tclock - timing.ii)
        return cycles
