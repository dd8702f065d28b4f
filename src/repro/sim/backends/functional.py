"""Functional backend: correctness-only runs at maximum speed.

Drains each block to completion with no per-cycle accounting: a block
runs until it stalls, parks on the channel it is blocked on, and is only
revisited once that channel sees the push (or pop) it is waiting for.
There is no cycle loop at all.

Two data planes are available per block:

* the **batched** plane (default): blocks that implement
  :meth:`~repro.blocks.base.Block.drain_batch` move whole numpy token
  runs (:class:`~repro.streams.batch.TokenBatch`) through their channels,
  processing entire data segments between control tokens at C speed;
* the **scalar** plane: the generator/per-token ``drain`` path, kept as
  the differential oracle (register key ``"functional-seq"``).

The planes mix freely within one graph: channels split batches for
scalar consumers and coalesce scalar tokens for batched ones, so blocks
without a batched implementation simply fall back.

Budget semantics (documented contract):

* ``max_resumptions`` — explicit bound on the total number of token
  operations (generator resumptions on the scalar plane, tokens
  processed on the batched plane).  Exceeding it raises ``RuntimeError``.
  The exact count for a given graph is reported as
  ``report.resumptions``, so callers can derive exact budgets.
* ``max_cycles`` — accepted for signature compatibility with the timed
  backends but **advisory only**: the functional backend models no
  cycles (``report.cycles == 0``), so a cycle budget neither rejects nor
  admits a run here.  Earlier revisions scaled it into a resumption
  budget (``max_cycles * n_blocks``), which could reject runs the
  cycle/event backends accept at the same budget and vice versa.

The returned report carries ``cycles == 0`` and leaves per-block
busy/stall counters untouched.  Use this backend to validate outputs on
large workloads before paying for a timed backend.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ...streams.batch import UnbatchableTokens
from .base import Engine, SimulationReport


class FunctionalEngine(Engine):
    """Runs the graph to completion; outputs only, no timing."""

    backend = "functional"
    #: the ``functional-seq`` subclass drops "batched" to pin the scalar
    #: plane; that registry key is the one way to select it
    planes = ("batched", "scalar")

    def run(
        self,
        max_cycles: Optional[int] = None,
        max_resumptions: Optional[int] = None,
    ) -> SimulationReport:
        del max_cycles  # advisory: no cycles are modelled (see module docs)
        blocks = self.blocks
        n = len(blocks)
        ready = deque(range(n))
        queued = [True] * n
        finished = [False] * n
        remaining = n
        budget = max_resumptions
        resumptions = 0
        # Frozen at run start: batched blocks stay batched unless they
        # bail (self._batch_ok); scalar blocks never switch mid-stream.
        use_batch = "batched" in self.planes
        batched = [
            use_batch
            and type(block).drain_batch is not None
            and block._can_batch()
            for block in blocks
        ]
        # Consecutive drains with no True yield; bounds the pathological
        # case of blocks that stall without declaring a wait channel.
        idle_streak = 0

        def make_waker(i: int):
            def wake() -> None:
                if not finished[i] and not queued[i]:
                    queued[i] = True
                    ready.append(i)

            return wake

        wakers = [make_waker(i) for i in range(n)]

        while ready:
            i = ready.popleft()
            queued[i] = False
            block = blocks[i]
            if batched[i] and block._batch_ok:
                try:
                    progressed, steps = block.drain_batch()
                except UnbatchableTokens:
                    # A stream carries tokens the numpy plane cannot
                    # represent (tuple skip hints etc.): the offending
                    # queue is intact, so the block requeues its window
                    # and continues on the scalar plane.
                    progressed, steps = block._bail_batch()
            else:
                limit = None if budget is None else budget - resumptions + 1
                progressed, steps = block.drain(limit=limit)
            resumptions += steps
            if budget is not None and resumptions > budget:
                raise RuntimeError(
                    f"exceeded max_resumptions={max_resumptions} "
                    f"(functional backend token-operation budget)"
                )
            if block.finished:
                finished[i] = True
                remaining -= 1
                idle_streak = 0
                continue
            if progressed:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak > 2 * n + 2:
                    stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
                    raise self._deadlock(0, stuck)
            wait = block._wait
            if wait is not None:
                channel, need = wait
                if need == "data":
                    channel.add_push_waiter(wakers[i])
                else:
                    channel.add_pop_waiter(wakers[i])
            else:
                # Spontaneous stall with no declared wait: retry round-robin.
                queued[i] = True
                ready.append(i)
        if remaining:
            stuck = [b.name for k, b in enumerate(blocks) if not finished[k]]
            raise self._deadlock(0, stuck)
        report = SimulationReport(0, self.blocks)
        report.resumptions = resumptions
        return report


class SequentialFunctionalEngine(FunctionalEngine):
    """The scalar-plane functional backend: the differential oracle.

    Identical scheduling, but every block uses its generator/per-token
    ``drain`` path; batched drains are never invoked.  Registered as
    ``"functional-seq"`` so benchmarks and differential tests can pit the
    two planes against each other through any ``backend=`` parameter.
    """

    backend = "functional-seq"
    planes = ("scalar",)
