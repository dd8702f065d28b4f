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
scalar timed path: the engine steps their generators one global cycle at
a time and credits stall spans arithmetically when every live scalar
block is parked.  A graph whose blocks all carry descriptors never runs
the per-cycle loop at all.

Where the two planes meet, work is done when somebody needs it, not when
a token lands (the first fact above is why that is exact — *when* a
timed block is visited changes nothing it computes):

* a generator's pushes are **noted**, not batched: each queue element
  gets its visible cycle in a plain list
  (:meth:`~repro.streams.channel.Channel.note_pushes`), and the one
  ``TokenBatch`` with its stamp arrays is built when a timed reader
  pulls, a scalar reader materialises, or the run ends.  Whether a token
  can be batched at all is still decided the cycle it is pushed;
* a timed block is **woken** — brought current through ``drain_timed`` —
  before a scalar block steps only if it is one of that block's
  ancestors through timed blocks; stamped tokens are materialised into a
  scalar reader's queue exactly when the reference engine would make
  them visible.  Everything else waits on the worklist for one of three
  full drains: before the loop, when no generator made progress in a
  cycle (before the clock jumps), and when no generator is left;
* the exception is a block whose ``drain_timed`` may itself call
  ``_bail_timed`` (:attr:`~repro.blocks.base.Block.timed_may_bail`): its
  generator resumes at ``_tclock``, which is only the right cycle if the
  block never fell behind, so it and its timed ancestors are brought
  current after every generator step.  A lagging block that must leave
  because an unbatchable token was pushed at it is brought current, with
  its ancestors, just before it bails.

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
        # What a visit of block i can depend on: the producers of its
        # inputs and, through the credit log, the readers of the finite
        # FIFOs it fills.
        feeders = [
            [producers[ch] for ch in in_ch[i] if ch in producers]
            + [consumers[ch] for ch in out_ch[i]
               if ch.capacity is not None and ch in consumers]
            for i in range(n)
        ]
        # Where a generator's pushes are noted: its stamped outputs.
        feeds = [
            [(ch, consumers[ch]) for ch in outs
             if ch.timed is not None and ch in consumers]
            for outs in out_ch
        ]
        finished = [b.finished for b in blocks]
        active_from = [1] * n
        T = 1
        #: blocks at or past this index still get their cycle-T slot
        cursor = 0
        last_busy_T = 0

        # The worklist: ``in_dirty`` says a block needs a visit,
        # ``queued`` that the deque holds an entry for it (a targeted
        # drain serves the visit and leaves the entry behind).
        dirty = deque(i for i in range(n) if timed[i])
        in_dirty = list(timed)
        queued = list(timed)
        #: scalar block -> the timed blocks it needs current (None: the
        #: blocks every cycle needs current); emptied when planes change
        wake_sets: dict = {}

        def mark_dirty(i: int) -> None:
            if timed[i] and not finished[i] and not in_dirty[i]:
                in_dirty[i] = True
                if not queued[i]:
                    queued[i] = True
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
            wake_sets.clear()
            for i in unit.members:
                del units[i]
                mark_dirty(i)

        def convert_to_scalar(i: int) -> None:
            """Per-block fallback: the generator takes over.

            Its first step is the one the reference engine's generator
            makes next: not before ``_tclock`` (everything earlier is
            accounted) and not before the loop next reaches the block —
            this cycle if its slot is still ahead, else the next.  The
            cycles it sat idle on the timed plane until then are the
            stalls the reference generator spent on an empty input.
            """
            unit = units.get(i)
            if unit is not None:
                dissolve(unit)
            timed[i] = False
            wake_sets.clear()
            block = blocks[i]
            start = max(block._tclock, T if i >= cursor else T + 1)
            block.stall_cycles += start - block._tclock
            active_from[i] = start

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
            """Bring every timed block current."""
            while dirty:
                i = dirty.popleft()
                queued[i] = False
                if in_dirty[i]:
                    in_dirty[i] = False
                    if timed[i] and not finished[i]:
                        advance(i)

        def drain(members) -> None:
            """Bring *members* current; the rest of the worklist waits."""
            again = True
            while again:
                again = False
                for j in members:
                    if in_dirty[j]:
                        in_dirty[j] = False
                        if timed[j] and not finished[j]:
                            advance(j)
                            again = True

        def upstream(seeds) -> set:
            """The timed blocks *seeds* depend on: backwards through
            timed blocks (a fused unit moves as one), stopping at
            generator-driven ones — their pushes are noted as they step."""
            found: set = set()
            stack = list(seeds)
            while stack:
                j = stack.pop()
                if timed[j] and j not in found:
                    found.add(j)
                    stack += feeders[j]
                    unit = units.get(j)
                    if unit is not None:
                        stack += unit.members
            return found

        def wake_set(i: Optional[int]):
            """Who must be current before scalar block *i* steps.

            A timed block's schedule is a function of its inputs'
            stamps, not of when it is visited, so it only has to be
            current when a generator is about to read what it produced:
            *i*'s timed ancestors.  The exception is a block whose
            ``drain_timed`` may itself leave the plane
            (:attr:`~repro.blocks.base.Block.timed_may_bail`): its
            generator resumes at ``_tclock``, which is only right if it
            was never behind, so it and its ancestors are brought
            current after every generator step (``wake_set(None)``).
            """
            members = wake_sets.get(i)
            if members is None:
                if i is None:
                    found = upstream(
                        j for j in range(n) if blocks[j].timed_may_bail
                    )
                else:
                    found = upstream(feeders[i])
                members = wake_sets[i] = tuple(sorted(found))
            return members

        def sweep_outputs(i: int) -> None:
            """Note a scalar block's cycle-T pushes for their timed readers.

            A reader that cannot batch what it was sent leaves the plane
            before any of this cycle's pushes is noted (it bails from
            the state the cycle found it in), once it and its ancestors
            are current; its queue stays intact behind the stamped
            backlog it still owes.
            """
            fresh = []
            for ch, c in feeds[i]:
                if timed[c]:
                    try:
                        kind = ch.fresh_kind()
                    except UnbatchableTokens:
                        drain(sorted(upstream([c])))
                        if timed[c]:
                            blocks[c]._bail_timed()
                            convert_to_scalar(c)
                        continue
                    if kind is not None:
                        fresh.append((ch, c, kind))
            for ch, c, kind in fresh:
                if timed[c]:  # else the plane switched: the queue is direct
                    ch.note_pushes(T + ch.timed.delta, kind)
                    mark_dirty(c)
            # A block that may leave the plane does so in the cycle the
            # pushes reach it, in time for its own slot of this cycle.
            drain(wake_set(None))

        def generators_left() -> bool:
            return not all(timed[i] or finished[i] for i in range(n))

        budget_msg = f"exceeded max_cycles={max_cycles}"
        drain_worklist()
        while True:
            cursor = 0
            if not generators_left():
                # Whatever is still queued runs to the end (or into a
                # bail) in whole windows.
                drain_worklist()
                if generators_left():
                    continue
                if all(finished):
                    break
                stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
                raise self._deadlock(self._cycles_so_far(last_busy_T), stuck)
            # One reference cycle for the scalar blocks at global time T.
            progress = False
            for i in range(n):
                if timed[i] or finished[i] or T < active_from[i]:
                    continue
                cursor = i
                drain(wake_set(i))
                for ch in in_ch[i]:
                    if ch.timed is not None:
                        ch.materialize_timed(T)
                block = blocks[i]
                if block.step():
                    progress = True
                if block.finished:
                    finished[i] = True
                cursor = i + 1
                sweep_outputs(i)
            cursor = n
            if progress:
                last_busy_T = T
                if max_cycles is not None and T > max_cycles:
                    raise RuntimeError(budget_msg)
                T += 1
                continue
            # Nothing moved at cycle T: jump to the next future event,
            # crediting the skipped stall cycles to every live stepped
            # block (the reference engine steps them to a stalled yield
            # each of those cycles).  The event may be a token a lazily
            # woken block has yet to produce, so everyone is current.
            drain_worklist()
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
