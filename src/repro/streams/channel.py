"""Channels: the wires of the simulated SAM dataflow graph.

A :class:`Channel` is an unbounded FIFO connecting an upstream block port
to a downstream one.  Channels count every pushed token by type so the
stream-composition study (Figure 14) can be computed for any edge without
instrumenting the blocks themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .batch import TokenBatch, concat_batches, filled
from .token import DONE, EMPTY, Stop

#: the SAM stream kinds a channel carries: coordinates, references,
#: values, bitvector words (section 4.3) and repeat signals
STREAM_KINDS = ("crd", "ref", "vals", "bv", "repsig")


class Channel:
    """Unbounded FIFO with per-token-type statistics.

    The paper's cycle-approximate simulator assumes infinite input queues;
    a ``capacity`` may still be given to model finite hardware FIFOs, in
    which case :meth:`full` lets producers stall (a run with one goes to
    ``cycle``, :func:`~repro.sim.backends.plan.plan_blocks`).
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
        "drops",
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
        #: no block reads this channel: it counts what is pushed, keeps
        #: nothing (``bind`` sets it on the outputs a node kind leaves open)
        self.drops = False
        self.history: list = []
        #: timed-plane state (stamped pending queue + credit accounting);
        #: attached by the timed-batch backend via :meth:`init_timed`
        self.timed: Optional["TimedChannelState"] = None

    # -- queue protocol ------------------------------------------------------
    def push(self, token) -> None:
        if self.capacity is not None and len(self.queue) >= self.capacity:
            raise OverflowError(f"channel {self.name!r} is full")
        if not self.drops:
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

    # -- timed (stamped) plane -----------------------------------------------
    # The timed-batch backend moves whole stamped batches through channels.
    # Stamped tokens live in ``self.timed.pending`` (not ``queue``) until a
    # timed consumer pulls them; what no block pulled (a graph output) goes
    # into ``queue`` when the run ends.  Token statistics are counted once,
    # at push time, exactly as on the other planes; requeues and
    # materialisation never touch them.
    def init_timed(self, delta: int = 0) -> "TimedChannelState":
        """Attach (or reset) timed-plane state; see TimedChannelState."""
        self.timed = TimedChannelState(delta)
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
        if not self.drops:
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

    def timed_backlog(self, reader) -> int:
        """Tokens pushed onto the stamped plane that its reader has not
        consumed yet: those pending, and those *reader* (its consumer's
        cursor; None before the first read) holds."""
        held = sum(len(entry[0]) for entry in self.timed.pending)
        if reader is not None:
            held += len(reader)
        return held

    def timed_requeue_front(self, batch, sdata, sctrl) -> None:
        """Put an (already counted) stamped batch back at the front."""
        if not batch.exhausted:
            self.timed.pending.appendleft((batch, sdata, sctrl))

    def materialize_timed(self) -> None:
        """Move every pending stamped token into the queue (end of run),
        behind what the queue already holds."""
        state = self.timed
        if state is None:
            return
        while state.pending:
            batch = state.pending.popleft()[0]
            if not batch.exhausted:
                self.queue.append(batch)


class TimedChannelState:
    """Timed-plane bookkeeping the timed-batch backend hangs off a channel.

    * ``pending`` — stamped batches not yet visible/consumed:
      ``(TokenBatch, sdata, sctrl)`` with consumer-visible cycle stamps;
    * ``delta`` — intra-cycle visibility: a push by block *j* during
      cycle *s* is visible to its reader *i* in the same cycle iff *i*
      steps after *j* in the engine's block order, else at ``s + 1``.
    """

    __slots__ = ("delta", "pending")

    def __init__(self, delta: int = 0):
        self.delta = delta
        self.pending: Deque = deque()
