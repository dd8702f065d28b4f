"""Functional backend: outputs only, on any graph, with no clock.

There is no cycle loop.  Blocks sit on a worklist; a visited block runs
until it stalls and is revisited after a neighbour pushed onto one of
its inputs (or popped a finite FIFO it fills), or, on the timed plane,
after a visit that made progress.  Each block has two definitions and
the plane is decided once, by the timed backends' rule
(:func:`~repro.sim.backends.timed_batch.timed_plane`):

* when **every block** can use its window hook, each advances through
  ``drain_timed``, whole numpy token windows at a time.  The cycle
  stamps that hook computes are simply ignored — there is no stamps-off
  switch and no functional branch inside any block.  A block whose hook
  gives up mid-run (a merger's dirty chunk, a parallelizer's ``N``)
  continues on its ``_run`` generator through
  :meth:`~repro.blocks.base.Block.drain`: its stamped inputs are
  materialised first, and what it pushed is stamped for its readers;
* **any other graph** (bitvector scanners, matrix reducers, a finite
  FIFO or a skip channel) runs every block on its generator, exactly as
  ``"functional-seq"`` does.

``"functional-seq"`` is this loop with the timed plane switched off in
``planes``: every block steps its generator — the differential oracle.

Budgets (documented contract):

* ``max_resumptions`` bounds the total number of *operations*: one
  generator resumption off the timed plane, one busy event (the
  ``yield True`` the generator would have made, read off the block's
  busy counter) on it.  Exceeding it raises ``RuntimeError``; the exact
  count of a run is ``report.resumptions``, so exact budgets can be
  derived.
* ``max_cycles`` is accepted for signature compatibility and is
  **advisory only**: no cycles are modelled (``report.cycles == 0``).

The report leaves every block's busy/stall counters as it found them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .base import Engine, SimulationReport
from .timed_batch import stamp_channels, timed_plane


class FunctionalEngine(Engine):
    """Runs the graph to completion; outputs only, no timing."""

    backend = "functional"
    planes = ("timed", "scalar")

    def run(
        self,
        max_cycles: Optional[int] = None,
        max_resumptions: Optional[int] = None,
    ) -> SimulationReport:
        del max_cycles  # advisory: no cycles are modelled (see module docs)
        blocks = self.blocks
        n = len(blocks)
        plane = timed_plane(blocks, self.planes)
        if plane.handoff is None:
            stamp_channels(plane)
        producers, consumers, channels, timed, _ = plane
        in_ch = [list(b.inputs.values()) for b in blocks]
        # Who to wake after a visit: the consumer of each output that
        # saw a push, the producer of each finite FIFO this block pops.
        outs = [[(ch, consumers.get(ch)) for ch in b.outputs.values()]
                for b in blocks]
        fillers = [[producers.get(ch) for ch in ins if ch.capacity is not None]
                   for ins in in_ch]
        counters = [(b.busy_cycles, b.stall_cycles) for b in blocks]
        ready = deque(range(n))
        queued = [True] * n
        budget = max_resumptions
        resumptions = 0
        # Consecutive visits without progress; bounds a finite-FIFO
        # ping-pong in which the two ends keep waking each other.
        idle_streak = 0

        def wake(i: Optional[int]) -> None:
            if i is not None and not queued[i] and not blocks[i].finished:
                queued[i] = True
                ready.append(i)

        while ready and idle_streak <= 2 * n + 2:
            i = ready.popleft()
            queued[i] = False
            block = blocks[i]
            pushed = [ch.pushed_total for ch, _ in outs[i]]
            if timed[i]:
                busy = block.busy_cycles
                progressed = block.drain_timed()
                steps = block.busy_cycles - busy
                # Bailed with its window requeued: the generator
                # continues from here.
                timed[i] = block._timed_ok
                # a hook may take one slice a visit: back after its readers
                again = progressed or not timed[i]
            else:
                for ch in in_ch[i]:
                    ch.materialize_timed(None)
                limit = None if budget is None else budget - resumptions + 1
                progressed, steps = block.drain(limit=limit)
                again = False
                # a block that left its hook: behind its stamped pushes
                for ch, _ in outs[i]:
                    if ch.timed is not None:
                        ch.stamp_queue(1)
            resumptions += steps
            if budget is not None and resumptions > budget:
                raise RuntimeError(
                    f"exceeded max_resumptions={max_resumptions} "
                    f"(functional backend operation budget)"
                )
            idle_streak = 0 if progressed or block.finished else idle_streak + 1
            for (ch, c), before in zip(outs[i], pushed):
                if ch.pushed_total != before:
                    wake(c)
            for p in fillers[i]:
                wake(p)
            if again:
                wake(i)
        for ch in channels:
            ch.materialize_timed(None)
        for block, (busy, stall) in zip(blocks, counters):
            block.busy_cycles, block.stall_cycles = busy, stall
        stuck = [b.name for b in blocks if not b.finished]
        if stuck:
            raise self._deadlock(0, stuck)
        report = SimulationReport(0, blocks)
        report.resumptions = resumptions
        return report


class SequentialFunctionalEngine(FunctionalEngine):
    """``functional`` with every block on its generator: the oracle.

    Identical scheduling, no ``drain_timed`` call anywhere.  Registered
    as ``"functional-seq"`` so benchmarks and differential tests can pit
    the two definitions of each block against each other through any
    ``backend=`` parameter.
    """

    backend = "functional-seq"
    planes = ("scalar",)
