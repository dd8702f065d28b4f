"""Channels: the wires of the simulated SAM dataflow graph.

A :class:`Channel` is an unbounded FIFO connecting an upstream block port
to a downstream one.  Channels count every pushed token by type so the
stream-composition study (Figure 14) can be computed for any edge without
instrumenting the blocks themselves.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Optional

import numpy as np

from .batch import TokenBatch, batch_kind, concat_batches
from .stream import Stream
from .timing import stamp_split_at, token_order_indices
from .token import DONE, EMPTY, Stop, is_data, is_done, is_empty, is_stop


class Channel:
    """Unbounded FIFO with per-token-type statistics.

    The paper's cycle-approximate simulator assumes infinite input queues;
    a ``capacity`` may still be given to model finite hardware FIFOs, in
    which case :meth:`full` lets producers stall.
    """

    __slots__ = (
        "name",
        "kind",
        "capacity",
        "queue",
        "pushed_data",
        "pushed_stop",
        "pushed_done",
        "pushed_empty",
        "history",
        "record",
        "_push_waiters",
        "_pop_waiters",
        "timed",
    )

    def __init__(
        self,
        name: str = "",
        kind: str = "crd",
        capacity: Optional[int] = None,
        record: bool = False,
    ):
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self.queue: Deque = deque()
        self.pushed_data = 0
        self.pushed_stop = 0
        self.pushed_done = 0
        self.pushed_empty = 0
        self.record = record
        self.history: list = []
        self._push_waiters: list = []
        self._pop_waiters: list = []
        #: timed-plane state (stamped pending queue + credit accounting);
        #: attached by the timed-batch backend via :meth:`init_timed`
        self.timed: Optional["TimedChannelState"] = None

    # -- queue protocol ------------------------------------------------------
    def push(self, token) -> None:
        if self.capacity is not None and len(self.queue) >= self.capacity:
            raise OverflowError(f"channel {self.name!r} is full")
        self.queue.append(token)
        if self.timed is not None:
            # Track direct pushes so the timed materialiser keeps its
            # stamped backlog ordered before them (they are always newer
            # than anything still pending).
            self.timed.direct += 1
        if self.record:
            self.history.append(token)
        # Classification fast path: the overwhelming majority of tokens are
        # plain int/float data, so test those classes before the controls.
        cls = token.__class__
        if cls is int or cls is float:
            self.pushed_data += 1
        elif cls is Stop:
            self.pushed_stop += 1
        elif token is DONE:
            self.pushed_done += 1
        elif token is EMPTY:
            self.pushed_empty += 1
        else:
            self.pushed_data += 1
        if self._push_waiters:
            self._fire(self._push_waiters)

    def _fire(self, waiters: list) -> None:
        """Invoke and clear one-shot waiter callbacks (see add_push_waiter)."""
        pending, waiters[:] = list(waiters), []
        for callback in pending:
            callback()

    def push_all(self, tokens) -> None:
        for token in tokens:
            self.push(token)

    def pop(self):
        head = self.queue[0]
        if head.__class__ is TokenBatch:
            token = head.pop_front()
            if head.exhausted:
                self.queue.popleft()
        else:
            token = self.queue.popleft()
        if self._pop_waiters:
            self._fire(self._pop_waiters)
        return token

    def peek(self):
        head = self.queue[0]
        if head.__class__ is TokenBatch:
            return head.peek_front()
        return head

    def empty(self) -> bool:
        return not self.queue

    def full(self) -> bool:
        return self.capacity is not None and len(self.queue) >= self.capacity

    def __len__(self) -> int:
        """Queued token count (a batch counts as its remaining tokens)."""
        if not any(item.__class__ is TokenBatch for item in self.queue):
            return len(self.queue)
        return sum(
            len(item) if item.__class__ is TokenBatch else 1 for item in self.queue
        )

    # -- batched fast path ---------------------------------------------------
    def take_batch(self, count: Optional[int] = None) -> Optional[TokenBatch]:
        """Pop the first *count* queue elements (default: *everything*)
        as one TokenBatch (None when there are none).

        Scalar tokens interleaved with batches are coalesced; the result
        preserves arrival order exactly.
        """
        queue = self.queue
        if count is None:
            count = len(queue)
        if not count:
            return None
        parts = []
        scalars: list = []
        for item in islice(queue, count):
            if item.__class__ is TokenBatch:
                if scalars:
                    parts.append(TokenBatch.from_tokens(scalars))
                    scalars = []
                parts.append(item)
            else:
                scalars.append(item)
        if scalars:
            parts.append(TokenBatch.from_tokens(scalars))
        if count == len(queue):
            queue.clear()
        else:
            for _ in range(count):
                queue.popleft()
        if self.timed is not None:
            self.timed.direct = len(queue)
        if self._pop_waiters:
            self._fire(self._pop_waiters)
        return concat_batches(parts)

    # -- event-driven scheduling ---------------------------------------------
    # Simulation backends that sleep stalled blocks (repro.sim.backends.event)
    # register one-shot callbacks here; the channel notifies them on the next
    # push (data arrived for a consumer) or pop (space freed for a producer
    # stalled on a finite-capacity FIFO).
    def add_push_waiter(self, callback) -> None:
        """Call *callback* once, after the next :meth:`push`."""
        self._push_waiters.append(callback)

    def add_pop_waiter(self, callback) -> None:
        """Call *callback* once, after the next :meth:`pop` (or drain)."""
        self._pop_waiters.append(callback)

    # -- statistics ----------------------------------------------------------
    @property
    def pushed_total(self) -> int:
        return self.pushed_data + self.pushed_stop + self.pushed_done + self.pushed_empty

    def token_counts(self) -> dict:
        """Counts by token type for everything ever pushed on this channel."""
        return {
            "data": self.pushed_data,
            "stop": self.pushed_stop,
            "done": self.pushed_done,
            "empty": self.pushed_empty,
        }

    def drain(self) -> list:
        """Pop and return every queued token (used by sinks and tests).

        Batched queue elements are expanded back into scalar tokens so
        callers see the logical stream regardless of the data plane.
        """
        out: list = []
        for item in self.queue:
            if item.__class__ is TokenBatch:
                out.extend(item.tokens())
            else:
                out.append(item)
        self.queue.clear()
        if out and self._pop_waiters:
            self._fire(self._pop_waiters)
        return out

    def recorded_stream(self) -> Stream:
        """The full token history as a Stream (requires ``record=True``)."""
        if not self.record:
            raise RuntimeError(f"channel {self.name!r} was not recording")
        return Stream(list(self.history), kind=self.kind)

    # -- timed (stamped) plane -----------------------------------------------
    # The timed-batch backend moves whole stamped batches through channels.
    # Stamped tokens live in ``self.timed.pending`` (not ``queue``) until a
    # timed consumer pulls them or, for scalar consumers, until the engine
    # materialises every token whose visible cycle has been reached.  Token
    # statistics are counted once, at push time, exactly as on the other
    # planes; requeues and materialisation never touch them.
    def init_timed(self, delta: int = 0, delta_pop: int = 0) -> "TimedChannelState":
        """Attach (or reset) timed-plane state; see TimedChannelState."""
        self.timed = TimedChannelState(delta, delta_pop)
        return self.timed

    def push_batch_timed(self, batch, sdata, sctrl) -> None:
        """Push a stamped batch onto the timed pending queue.

        Stamps are *push* cycles; the channel stores consumer-visible
        cycles (push + the producer/consumer ordering delta) so readers
        and the materialiser never re-derive visibility.  Statistics are
        counted here, once, exactly as :meth:`push` counts scalar tokens.
        """
        if batch.exhausted:
            return
        # Fresh-cursor view so one batch (with stamps for its remaining
        # tokens) can fan out to several channels safely.
        batch = batch.view()
        state = self.timed
        if state.delta:
            sdata = sdata + state.delta
            sctrl = sctrl + state.delta
        n_data, n_stop, n_done, n_empty = batch.counts()
        self.pushed_data += n_data
        self.pushed_stop += n_stop
        self.pushed_done += n_done
        self.pushed_empty += n_empty
        if self.record:
            self.history.extend(batch.tokens())
        state.pending.append((batch, sdata, sctrl))

    def fresh_kind(self) -> Optional[str]:
        """Judge what was queued since the last :meth:`note_pushes`.

        None when nothing was; else the :func:`batch_kind` the new
        elements share (``"x"`` when they share none).  Raises
        :class:`~repro.streams.batch.UnbatchableTokens` with the queue
        intact: whether a token can ride the stamped plane is known the
        cycle it is pushed, although its batch is built later.
        """
        queue = self.queue
        fresh = len(queue) - len(self.timed.noted)
        if fresh <= 0:
            return None
        if fresh == 1:
            return batch_kind(queue[-1])
        kinds = {batch_kind(queue[-k]) for k in range(1, fresh + 1)} - {""}
        return kinds.pop() if len(kinds) == 1 else "x" if kinds else ""

    def note_pushes(self, stamp: int, kind: str) -> None:
        """Record *stamp* as the visible cycle of the elements
        :meth:`fresh_kind` just judged to be of *kind*.

        How a generator-driven producer's pushes reach a timed consumer:
        the tokens wait in the queue and their cycles in ``timed.noted``
        until somebody reads (:meth:`stamp_queue`), so a run pushed a
        token a cycle costs one batch, not one per token.  A noted run
        holds one type of datum — the batch must not turn the reference
        ``1`` into ``1.0`` because a value joined it — so a change of
        kind closes it, and an ``"x"`` element is stamped on the spot.
        """
        state = self.timed
        if kind:
            if kind == "x" or (state.kind and kind != state.kind):
                self.stamp_queue()
            if kind == "x":
                self.stamp_queue(stamp)
                return
            state.kind = kind
        state.noted += [stamp] * (len(self.queue) - len(state.noted))

    def stamp_queue(self, stamp: Optional[int] = None) -> bool:
        """Move queued tokens onto the stamped plane as one batch.

        The one way there for directly pushed tokens.  The elements
        :meth:`note_pushes` recorded become visible at their noted
        cycles; given *stamp*, everything queued behind them goes too,
        visible at *stamp* (tokens queued before the run, what a
        generator pushed under the functional engine).  Raises
        :class:`~repro.streams.batch.UnbatchableTokens` with the queue
        intact; returns whether anything moved.
        """
        state = self.timed
        noted = state.noted
        batch = self.take_batch(len(noted) if stamp is None else None)
        if batch is None or batch.exhausted:
            return False
        data, cpos, ccode = batch.remaining_arrays()
        # stream-order stamps: the noted cycles, then *stamp* for the rest
        order = np.full(len(data) + len(ccode),
                        0 if stamp is None else stamp, dtype=np.int64)
        if noted:
            order[:len(noted)] = noted
            di, ci = token_order_indices(cpos, len(data))
            sdata, sctrl = order[di], order[ci]
            state.noted, state.kind = [], ""
        else:
            sdata, sctrl = order[:len(data)], order[len(data):]
        state.pending.append((batch, sdata, sctrl))
        return True

    def timed_take(self) -> list:
        """Hand the whole stamped pending queue to a timed reader."""
        state = self.timed
        if state.noted:
            self.stamp_queue()
        if not state.pending:
            return []
        taken = list(state.pending)
        state.pending.clear()
        return taken

    def timed_requeue_front(self, batch, sdata, sctrl) -> None:
        """Put an (already counted) stamped batch back at the front."""
        if not batch.exhausted:
            self.timed.pending.appendleft((batch, sdata, sctrl))

    def materialize_timed(self, limit: Optional[int] = None) -> bool:
        """Move pending tokens visible by cycle *limit* into the queue.

        ``None`` flushes everything (end of run).  Tokens enter the queue
        as TokenBatch elements ahead of any directly-pushed tokens that
        arrived after the timed plane stopped being used, preserving
        stream order.  Returns True when anything materialised.
        """
        state = self.timed
        if state is None:
            return False
        if state.noted:
            self.stamp_queue()
        if not state.pending:
            return False
        moved = []
        while state.pending:
            batch, sdata, sctrl = state.pending[0]
            if limit is None:
                moved.append(batch)
                state.pending.popleft()
                continue
            head, tail = stamp_split_at(batch, sdata, sctrl, limit)
            if head is None:
                break
            moved.append(head[0])
            state.pending.popleft()
            if tail is not None:
                state.pending.appendleft(tail)
                break
        if not moved:
            return False
        # Queue layout: [earlier materialised tokens][direct pushes].
        # Direct pushes (a producer that left the timed plane) are newer
        # than anything still pending, so the moved prefix lands between.
        tail = []
        if state.direct:
            for _ in range(min(state.direct, len(self.queue))):
                tail.append(self.queue.pop())
        for batch in moved:
            if not batch.exhausted:
                self.queue.append(batch)
        while tail:
            self.queue.append(tail.pop())
        if self._push_waiters:
            self._fire(self._push_waiters)
        return True

    def timed_pending_min_stamp(self) -> Optional[int]:
        """Earliest visible cycle still waiting in the pending queue."""
        state = self.timed
        if state is None:
            return None
        if state.noted:
            self.stamp_queue()
        if not state.pending:
            return None
        batch, sdata, sctrl = state.pending[0]
        d, c = batch._d, batch._c
        best = None
        if d < len(sdata):
            best = int(sdata[d])
        if c < len(sctrl):
            sc = int(sctrl[c])
            best = sc if best is None else min(best, sc)
        return best

    def record_pops(self, stamps) -> None:
        """Record consumer pop cycles (credit accounting, finite FIFOs).

        ``stamps`` are producer-visible cycles: the cycle from which the
        producer can observe each freed slot.  The timed producer's epoch
        advance turns these into per-push release times, so batch-level
        back-pressure reproduces the scalar ``_put`` stall pattern
        exactly.
        """
        self.timed.pop_stamps.extend(int(s) for s in np.asarray(stamps).ravel())


class TimedChannelState:
    """Timed-plane bookkeeping the timed-batch backend hangs off a channel.

    * ``pending`` — stamped batches not yet visible/consumed:
      ``(TokenBatch, sdata, sctrl)`` with consumer-visible cycle stamps;
    * ``delta`` / ``delta_pop`` — intra-cycle visibility: a push (pop) by
      block *j* during cycle *s* is visible to the peer *i* in the same
      cycle iff *i* steps after *j* in the engine's block order, else at
      ``s + 1``;
    * ``pop_stamps`` — occupancy log for finite-capacity channels: the
      producer-visible cycle each queue slot was freed, letting a batched
      producer compute exact credit-limited push schedules;
    * ``direct`` — queue elements at the tail that were pushed directly
      (scalar plane) rather than materialised from the stamped pending
      queue, so the materialiser keeps its backlog ordered before them;
    * ``noted`` / ``kind`` — the visible cycle of each leading queue
      element a generator-driven producer pushed for a timed reader
      (:meth:`Channel.note_pushes`), newer than everything in
      ``pending`` and batched when somebody reads, and the type of
      datum that run holds (``"i"``, ``"f"`` or ``""`` for none yet).
    """

    __slots__ = ("delta", "delta_pop", "direct", "pending", "pop_stamps",
                 "noted", "kind")

    def __init__(self, delta: int = 0, delta_pop: int = 0):
        self.delta = delta
        self.delta_pop = delta_pop
        self.pending: Deque = deque()
        self.pop_stamps: list = []
        self.direct = 0
        self.noted: list = []
        self.kind = ""
