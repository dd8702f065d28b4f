"""Channels: the wires of the simulated SAM dataflow graph.

A :class:`Channel` is an unbounded FIFO connecting an upstream block port
to a downstream one.  Channels count every pushed token by type so the
stream-composition study (Figure 14) can be computed for any edge without
instrumenting the blocks themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from .batch import TokenBatch, concat_batches, filled
from .stream import Stream
from .timing import stamp_split_at
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
        #: timed-plane state (stamped pending queue + credit accounting);
        #: attached by the timed-batch backend via :meth:`init_timed`
        self.timed: Optional["TimedChannelState"] = None

    # -- queue protocol ------------------------------------------------------
    def push(self, token) -> None:
        if self.capacity is not None and len(self.queue) >= self.capacity:
            raise OverflowError(f"channel {self.name!r} is full")
        self.queue.append(token)
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

    def push_all(self, tokens) -> None:
        for token in tokens:
            self.push(token)

    def pop(self):
        head = self.queue[0]
        if head.__class__ is TokenBatch:
            token = head.pop_front()
            if head.exhausted:
                self.queue.popleft()
            return token
        return self.queue.popleft()

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
    def take_batch(self) -> Optional[TokenBatch]:
        """Pop every queued element as one TokenBatch (None when there
        are none).

        Scalar tokens interleaved with batches are coalesced; the result
        preserves arrival order exactly.
        """
        queue = self.queue
        if not queue:
            return None
        parts = []
        scalars: list = []
        for item in queue:
            if item.__class__ is TokenBatch:
                if scalars:
                    parts.append(TokenBatch.from_tokens(scalars))
                    scalars = []
                parts.append(item)
            else:
                scalars.append(item)
        if scalars:
            parts.append(TokenBatch.from_tokens(scalars))
        queue.clear()
        return concat_batches(parts)

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

    def stamp_queue(self, stamp: int) -> bool:
        """Move every queued token onto the stamped plane as one batch,
        visible at cycle *stamp*.

        The one way there for directly pushed tokens: those queued before
        the run, and what a generator pushed (the timed engines stamp a
        generator's pushes the cycle it makes them).  Raises
        :class:`~repro.streams.batch.UnbatchableTokens` with the queue
        intact; returns whether anything moved.
        """
        batch = self.take_batch()
        if batch is None or batch.exhausted:
            return False
        data, _, ccode = batch.remaining_arrays()
        self.timed.pending.append(
            (batch, filled(len(data), stamp), filled(len(ccode), stamp)))
        return True

    def timed_take(self) -> list:
        """Hand the whole stamped pending queue to a timed reader."""
        state = self.timed
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
        as TokenBatch elements behind what the queue already holds.
        Returns True when anything materialised.
        """
        state = self.timed
        if state is None or not state.pending:
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
        for batch in moved:
            if not batch.exhausted:
                self.queue.append(batch)
        return bool(moved)

    def timed_pending_min_stamp(self) -> Optional[int]:
        """Earliest visible cycle still waiting in the pending queue."""
        state = self.timed
        if state is None or not state.pending:
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
      producer compute exact credit-limited push schedules.
    """

    __slots__ = ("delta", "delta_pop", "pending", "pop_stamps")

    def __init__(self, delta: int = 0, delta_pop: int = 0):
        self.delta = delta
        self.delta_pop = delta_pop
        self.pending: Deque = deque()
        self.pop_stamps: list = []
