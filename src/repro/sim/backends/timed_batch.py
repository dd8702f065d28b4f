"""Epoch-batched timed backend: reference timing at TokenBatch speed.

:class:`TimedBatchEngine` reproduces the CycleEngine's *entire*
``SimulationReport`` — cycle count, per-block busy/stall statistics and
per-channel token counts — without resuming a generator once per token.
Blocks that declare a :class:`~repro.blocks.base.TimingDescriptor` and a
``drain_timed`` hook advance in **epochs**: one vectorized schedule
(`rate1_schedule`) per control-free token segment, with every produced
token carrying the cycle it was pushed.  The key facts making this exact:

* with the paper's unbounded queues, a block's busy/stall schedule is a
  deterministic function of its input tokens' *visible cycles* — the
  cycle each token becomes poppable, which is the producer's push cycle
  plus 0 or 1 depending on whether the consumer steps after the producer
  in the reference engine's block order;
* every stock primitive services one generator ``yield`` per cycle gated
  only by token arrivals, so an entire segment's schedule is the max-plus
  scan ``c[k] = max(c[k-1] + ii, arrival[k])``;
* finite-capacity FIFOs stay exact through the channel's credit log
  (:meth:`~repro.streams.channel.Channel.record_pops`): a batched
  producer's push *g* is additionally gated by the cycle slot ``g -
  capacity`` was freed.

Blocks without a descriptor (bitvector scanners, matrix reducers,
parallelizers, anything wired to a skip side channel, or any block that
bails mid-run through ``_bail_timed``) fall back **per block** to the
scalar timed path: the engine steps their
generators one global cycle at a time, materialising stamped tokens into
their channels exactly when the reference engine would make them
visible, and crediting stall spans arithmetically when every live scalar
block is parked.  A graph whose blocks all carry descriptors never runs
the per-cycle loop at all.

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
from typing import NamedTuple, Optional

from ...streams.batch import UnbatchableTokens
from .base import Engine, SimulationReport

#: sentinel returned by a unit step that must dissolve its segment
_DISSOLVE = object()


class TimedPlane(NamedTuple):
    """Who is on the timed plane, and the wiring both run loops walk."""

    producers: dict  # channel -> index of the block that pushes it
    consumers: dict  # channel -> index of the block that pops it
    channels: list
    timed: list  # per block: advances through ``drain_timed``


def timed_plane(blocks, planes) -> TimedPlane:
    """Decide which blocks run on the timed plane and set its channels up.

    The one rule, shared by :class:`TimedBatchEngine` (and its compiled
    subclass) and the functional engine.  A block is timed when the
    engine drives the ``"timed"`` plane at all, its class has a
    ``drain_timed`` hook and a :class:`~repro.blocks.base.TimingDescriptor`,
    this instance can use it (:meth:`~repro.blocks.base.Block.timed_capable`),
    it has not bailed and its generator is not already live.  Both
    endpoints of a finite-capacity FIFO are then demoted unless they are
    a credit-aware pair.  Every channel with a timed endpoint gets its
    stamped state, and tokens queued before the run are stamped visible
    at cycle 1 (unbatchable ones demote both endpoints instead).
    """
    producers = {}
    consumers = {}
    for i, block in enumerate(blocks):
        for ch in block.outputs.values():
            producers[ch] = i
        for ch in block.inputs.values():
            consumers[ch] = i
    channels = list(dict.fromkeys(list(producers) + list(consumers)))

    drives_timed = "timed" in planes
    timed = [
        drives_timed
        and type(b).drain_timed is not None
        and b.timing is not None
        and b._timed_ok
        and b._gen is None
        and b.timed_capable()
        for b in blocks
    ]
    # Finite-capacity channels need credit-aware endpoints on the
    # batched plane (producer push schedules gated by recorded pop
    # cycles; see Block.timed_credit_producer/consumer — the stock
    # pairing is StreamFeeder -> Sink).  Everything else drops both
    # endpoints to the generator, where ``_put``/``pop`` back-pressure
    # is exact by construction.
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
                if p is not None and timed[p]:
                    timed[p] = False
                    changed = True
                if c is not None and timed[c]:
                    timed[c] = False
                    changed = True

    for ch in channels:
        p = producers.get(ch)
        c = consumers.get(ch)
        if not ((p is not None and timed[p]) or (c is not None and timed[c])):
            continue
        if p is not None and c is not None:
            delta = 0 if c > p else 1
            delta_pop = 0 if p > c else 1
        else:
            delta = delta_pop = 0
        ch.init_timed(delta, delta_pop)
        try:
            ch.stamp_queue(1)
        except UnbatchableTokens:
            if c is not None:
                timed[c] = False
            if p is not None:
                timed[p] = False
            ch.timed = None
    return TimedPlane(producers, consumers, channels, timed)


class TimedBatchEngine(Engine):
    """Event-driven epoch advance over stamped token batches."""

    backend = "timed-batch"
    planes = ("timed", "scalar")

    def _compile_segments(self, blocks, timed) -> dict:
        """Fused units by member block index; the plain plane has none."""
        return {}

    def _report(self, cycles: int) -> SimulationReport:
        """The finished run's report (subclasses attach annotations)."""
        return SimulationReport(cycles, self.blocks)

    def run(self, max_cycles: Optional[int] = None) -> SimulationReport:
        blocks = self.blocks
        n = len(blocks)
        producers, consumers, channels, timed = timed_plane(blocks, self.planes)
        units = self._compile_segments(blocks, timed)

        out_ch = [list(b.outputs.values()) for b in blocks]
        in_ch = [list(b.inputs.values()) for b in blocks]
        finished = [b.finished for b in blocks]
        active_from = [1] * n
        T = 1
        last_busy_T = 0

        dirty = deque(i for i in range(n) if timed[i])
        in_dirty = list(timed)

        def mark_dirty(i: int) -> None:
            if timed[i] and not finished[i] and not in_dirty[i]:
                in_dirty[i] = True
                dirty.append(i)

        def wake_after(i: int) -> None:
            for ch in out_ch[i]:
                if ch.timed is None:
                    continue
                c = consumers.get(ch)
                if c is not None:
                    mark_dirty(c)
            for ch in in_ch[i]:
                if ch.capacity is not None and ch.timed is not None:
                    p = producers.get(ch)
                    if p is not None:
                        mark_dirty(p)

        def dissolve(unit) -> None:
            """Mid-run fallback: members rejoin the plain timed plane."""
            unit.active = False
            for i in unit.members:
                del units[i]
                mark_dirty(i)

        def convert_to_scalar(i: int) -> None:
            """Per-block fallback: the generator takes over at _tclock."""
            unit = units.get(i)
            if unit is not None:
                dissolve(unit)
            timed[i] = False
            active_from[i] = blocks[i]._tclock

        def advance(i: int) -> None:
            unit = units.get(i)
            if unit is not None:
                outcome = unit.step()
                if outcome is _DISSOLVE:
                    dissolve(unit)
                    return
                for m in unit.members:
                    if blocks[m].finished and not finished[m]:
                        finished[m] = True
                if outcome:
                    for m in unit.emitters:
                        wake_after(m)
                return
            block = blocks[i]
            progressed = block.drain_timed()
            if not block._timed_ok:
                convert_to_scalar(i)
                return
            if block.finished and not finished[i]:
                finished[i] = True
            if progressed:
                wake_after(i)

        def drain_worklist() -> None:
            while dirty:
                i = dirty.popleft()
                in_dirty[i] = False
                if finished[i] or not timed[i]:
                    continue
                advance(i)

        def sweep_outputs(i: int) -> None:
            """Move a scalar block's cycle-T pushes onto the stamped plane."""
            for ch in out_ch[i]:
                state = ch.timed
                if state is None or not ch.queue:
                    continue
                c = consumers.get(ch)
                if c is None or not timed[c]:
                    continue  # plane switched mid-run: queue is now direct
                try:
                    moved = ch.stamp_queue(T + state.delta)
                except UnbatchableTokens:
                    # The consumer cannot batch these tokens: it leaves
                    # the timed plane; the queue stays intact behind the
                    # stamped backlog it still owes (materialised below).
                    blocks[c]._bail_timed()
                    convert_to_scalar(c)
                    continue
                if moved:
                    mark_dirty(c)

        budget_msg = f"exceeded max_cycles={max_cycles}"
        while True:
            drain_worklist()
            scalar_alive = [
                i for i in range(n) if not timed[i] and not finished[i]
            ]
            if not scalar_alive:
                if all(finished):
                    break
                stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
                raise self._deadlock(self._cycles_so_far(last_busy_T), stuck)
            # One reference cycle for the scalar blocks at global time T.
            progress = False
            for i in range(n):
                if timed[i] or finished[i] or T < active_from[i]:
                    continue
                drain_worklist()
                for ch in in_ch[i]:
                    if ch.timed is not None:
                        ch.materialize_timed(T)
                block = blocks[i]
                if block.step():
                    progress = True
                if block.finished:
                    finished[i] = True
                sweep_outputs(i)
            if progress:
                last_busy_T = T
                if max_cycles is not None and T > max_cycles:
                    raise RuntimeError(budget_msg)
                T += 1
                continue
            drain_worklist()
            if dirty:
                continue
            # Nothing moved at cycle T: jump to the next future event,
            # crediting the skipped stall cycles to every live stepped
            # block (the reference engine steps them to a stalled yield
            # each of those cycles).
            target = None
            for ch in channels:
                if ch.timed is None:
                    continue
                c = consumers.get(ch)
                if c is None or timed[c] or finished[c]:
                    continue
                stamp = ch.timed_pending_min_stamp()
                if stamp is not None and stamp > T:
                    target = stamp if target is None else min(target, stamp)
            for i in range(n):
                if not timed[i] and not finished[i] and active_from[i] > T:
                    target = (
                        active_from[i]
                        if target is None
                        else min(target, active_from[i])
                    )
            if target is None:
                if all(finished):
                    break
                stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
                raise self._deadlock(self._cycles_so_far(last_busy_T), stuck)
            # The stalled step at cycle T already charged its own stall;
            # the credit covers the skipped cycles T+1 .. target-1.
            for i in range(n):
                if not timed[i] and not finished[i] and T >= active_from[i]:
                    blocks[i].stall_cycles += target - T - 1
            T = target

        for ch in channels:
            if ch.timed is not None:
                ch.materialize_timed(None)
        cycles = self._cycles_so_far(last_busy_T)
        if max_cycles is not None and cycles > max_cycles:
            raise RuntimeError(budget_msg)
        return self._report(cycles)

    def _cycles_so_far(self, last_busy_T: int) -> int:
        """Reference cycle count: the latest busy cycle on either plane."""
        cycles = last_busy_T
        for block in self.blocks:
            timing = block.timing
            if timing is not None and block._tclock > 1:
                cycles = max(cycles, block._tclock - timing.ii)
        return cycles
