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

**The plane is decided once, before any channel is touched**
(:func:`timed_plane`): a run is all windows when every block has a window
hook it can use on this instance, every finite FIFO is a credit pair and
every token queued before the run batches.  Otherwise the whole run goes
to :class:`~repro.sim.backends.cycle.CycleEngine` — the same report by
the repository's invariant — and ``report.handoff`` names the first
block or channel that decided it.  A window run then pairs scanners with
the locators and merger sides that read both their outputs
(:func:`pair_runs`).

A window run is a worklist seeded in dependency order
(:func:`dependency_order`: producers before consumers), so a stock window
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

import heapq
from collections import deque
from typing import List, NamedTuple, Optional

from ...streams.batch import UnbatchableTokens, batch_kind
from .base import Engine, SimulationReport
from .cycle import CycleEngine

#: sentinel returned by a unit step that must dissolve its segment
_DISSOLVE = object()


class TimedPlane(NamedTuple):
    """Who is on the timed plane, and the wiring the run loops walk."""

    producers: dict  # channel -> index of the block that pushes it
    consumers: dict  # channel -> index of the block that pops it
    channels: list
    order: list  # block indices, producers before their consumers
    handoff: Optional[str]  # why the first block left the plane (None: none did)


def _off_plane(block) -> Optional[str]:
    """Why *block* cannot run its window hook, or None when it can."""
    kind = type(block).__name__
    if type(block).drain_timed is None or block.timing is None:
        return f"block {block.name!r} ({kind}): no window hook"
    if not block._timed_ok or block._gen is not None:
        return f"block {block.name!r} ({kind}): already on its generator"
    if not block.timed_capable():
        return f"block {block.name!r} ({kind}): its window hook cannot run here"
    return None


def timed_plane(blocks) -> TimedPlane:
    """Decide whether the run is on the timed plane; touch no channel.

    The one rule of :class:`TimedBatchEngine` (and its compiled
    subclass): every block is timed, or none is.  A block qualifies
    when :func:`_off_plane` finds no reason against it; both endpoints
    of a finite-capacity FIFO fail unless they are a credit-aware pair,
    and both endpoints of a channel holding a token queued before the
    run that cannot be batched.  ``handoff`` is the
    first reason found, in block order.
    """
    producers = {}
    consumers = {}
    for i, block in enumerate(blocks):
        for ch in block.outputs.values():
            producers[ch] = i
        for ch in block.inputs.values():
            consumers[ch] = i
    channels = list(dict.fromkeys(list(producers) + list(consumers)))

    reasons: List[Optional[str]] = [_off_plane(b) for b in blocks]
    timed = [reason is None for reason in reasons]

    def demote(ch, why: str) -> bool:
        changed = False
        for i in (producers.get(ch), consumers.get(ch)):
            if i is not None and timed[i]:
                timed[i] = False
                reasons[i] = f"channel {ch.name!r}: {why}"
                changed = True
        return changed

    for ch in channels:
        try:
            for token in ch.queue:
                batch_kind(token)
        except UnbatchableTokens:
            demote(ch, "a token queued before the run does not batch")
    # Finite-capacity channels need credit-aware endpoints on the
    # batched plane (producer push schedules gated by recorded pop
    # cycles; see Block.timed_credit_producer/consumer — the stock
    # pairing is StreamFeeder -> Sink).
    changed = True
    while changed:
        changed = False
        for ch in channels:
            if ch.capacity is None:
                continue
            p = producers.get(ch)
            c = consumers.get(ch)
            keep = (
                p is not None
                and c is not None
                and timed[p]
                and timed[c]
                and blocks[p].timed_credit_producer
                and blocks[c].timed_credit_consumer
            )
            if not keep:
                changed |= demote(
                    ch, f"capacity {ch.capacity} without a credit pair")
    handoff = next((reason for reason in reasons if reason is not None), None)
    order = dependency_order(len(blocks), producers, consumers)
    return TimedPlane(producers, consumers, channels, order, handoff)


def dependency_order(n: int, producers: dict, consumers: dict) -> list:
    """Block indices ``0..n-1`` with every producer before its consumers
    (Kahn's algorithm, ties to the lower index); a block left on a cycle
    follows in block order."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for ch, p in producers.items():
        c = consumers.get(ch)
        if c is not None:
            succ[p].append(c)
            indeg[c] += 1
    ready = [i for i in range(n) if not indeg[i]]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in succ[i]:
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(ready, c)
    if len(order) < n:
        placed = set(order)
        order += [i for i in range(n) if i not in placed]
    return order


def stamp_channels(plane: TimedPlane) -> None:
    """Give every channel of a window run its stamped state; tokens
    queued before the run become visible at cycle 1."""
    for ch in plane.channels:
        p = plane.producers.get(ch)
        c = plane.consumers.get(ch)
        if p is not None and c is not None:
            delta = 0 if c > p else 1
            delta_pop = 0 if p > c else 1
        else:
            delta = delta_pop = 0
        ch.init_timed(delta, delta_pop)
        ch.stamp_queue(1)


def pair_runs(blocks, plane: TimedPlane) -> None:
    """Pair every consumer input — a merger side, an untargeted locator —
    that reads both outputs of one scanner with that scanner
    (:meth:`~repro.blocks.scanner.LevelScanner.hand_over`): it reads the
    scanner's fibers as runs and the two links carry no token.  Decided
    once, before the run, as the plane is."""
    for block in blocks:
        for side, crd, ref in getattr(block, "run_inputs", list)():
            p = plane.producers.get(crd)
            hand_over = getattr(blocks[p], "hand_over", None) if p is not None else None
            if hand_over is not None and plane.producers.get(ref) == p:
                block.runs[side] = hand_over(crd, ref, block.timing.ii)


class TimedBatchEngine(Engine):
    """Window worklist over stamped token batches, or a ``cycle`` run."""

    backend = "timed-batch"
    planes = ("timed", "scalar")

    def _compile_segments(self, blocks) -> dict:
        """Fused units by member block index; the plain plane has none."""
        return {}

    def _report(self, cycles: int, handoff: Optional[str] = None) -> SimulationReport:
        """The finished run's report (subclasses attach annotations)."""
        report = SimulationReport(cycles, self.blocks)
        report.handoff = handoff
        return report

    def run(self, max_cycles: Optional[int] = None) -> SimulationReport:
        blocks = self.blocks
        plane = timed_plane(blocks)
        if plane.handoff is not None:
            cycles = CycleEngine(blocks).run(max_cycles).cycles
            return self._report(cycles, plane.handoff)
        stamp_channels(plane)
        pair_runs(blocks, plane)
        producers, consumers = plane.producers, plane.consumers
        units = self._compile_segments(blocks)
        budget_msg = f"exceeded max_cycles={max_cycles}"

        n = len(blocks)
        out_ch = [list(b.outputs.values()) for b in blocks]
        in_ch = [list(b.inputs.values()) for b in blocks]
        finished = [b.finished for b in blocks]
        #: left its hook mid-run: finishes on its generator
        stranded = [False] * n
        last_busy = 0
        # a fused unit is seeded at its last member: by then every
        # producer outside the unit has been visited
        last = {id(units[i]): i for i in plane.order if i in units}
        dirty = deque(i for i in plane.order
                      if i not in units or last[id(units[i])] == i)
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
            for ch in out_ch[i]:
                c = consumers.get(ch)
                if c is not None:
                    mark(c)
            for ch in in_ch[i]:
                if ch.capacity is not None:
                    p = producers.get(ch)
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
            t, busy = block._tclock, 0
            while True:
                for ch in in_ch[i]:
                    ch.materialize_timed(t)
                progressed = block.step()
                for ch in out_ch[i]:
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
                stamps = [s for s in (ch.timed_pending_min_stamp() for ch in in_ch[i])
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
                and all(finished[producers[ch]] for ch in in_ch[i] if ch in producers)
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
        for ch in plane.channels:
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
