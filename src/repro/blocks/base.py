"""Block base class: generator-driven dataflow FSMs.

Every SAM primitive is written once, as a Python generator that yields
exactly once per simulated cycle.  A ``yield True`` means the block did
work this cycle; ``yield False`` means it stalled waiting for input.  The
cycle engine (:mod:`repro.sim`) steps all blocks each cycle, which
realises the paper's cycle-approximate model: fully pipelined blocks that
produce one token per port per cycle, with unbounded queues and
single-cycle memories.

A generator stalls only through the helpers :meth:`Block._get`,
:meth:`Block._peek` and :meth:`Block._put`, so a stall is always a wait
for a push to one of its inputs or a pop from one of its (finite)
outputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..streams.batch import (
    CODE_EMPTY,
    TokenBatch,
    UnbatchableTokens,
    first_non_coordinate,
)
from ..streams.channel import Channel
from ..streams.timing import (
    TimedBuilder,
    TimedReader,
    index_ramp,
    insert_sorted,
    merge_stamps,
    rate1_schedule,
    split_done_stamped,
    token_order_indices,
)
from ..streams.token import DONE, is_done, is_stop, token_repr

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: the most a volume source materialises in one visit of a window run:
#: a ``StreamFeeder`` pushes at most this many tokens, a ``LevelScanner``
#: takes input references while their fibers total at most this many
#: pairs (and always one); the worklist runs each slab down the graph
#: before it visits the source again (docs/architecture.md, "Slabs")
SLAB = 65536


class TakenWindow(NamedTuple):
    """A stamped window up to its first ``D`` (:meth:`Block._t_take_window`)."""

    head: TokenBatch
    merged: np.ndarray  # the head's stamps in token order, at these indices
    di: np.ndarray
    ci: np.ndarray
    tail: Optional[tuple]  # the entry that follows the D
    sd: np.ndarray  # the head's data and control stamps
    sc: np.ndarray


class BlockError(RuntimeError):
    """Raised when a block observes a protocol violation on its streams."""


class PortError(BlockError):
    """Raised when a channel is bound to a port its block never declared."""


@dataclass(frozen=True)
class PortSpec:
    """Class-level declaration of one named port on a block.

    Every stock primitive declares its interface as a tuple of these on
    :attr:`Block.port_specs`; :meth:`Block._in`/:meth:`Block._out` check
    each registration against the declaration, and
    :func:`repro.graph.builder.validate_blocks` uses them for build-time
    validation (kind mismatches, unconnected required ports)
    and for port metadata in DOT renderings and fusion partitioning.

    * ``name`` — exact port name, or a pattern with ``{i}``/``{j}``
      placeholders when ``variadic`` (e.g. ``"out{i}"``, ``"ref{i}_{j}"``
      — each placeholder matches a decimal index).
    * ``direction`` — ``"in"`` or ``"out"``.
    * ``kind`` — the stream kind carried (one of
      :data:`repro.streams.channel.STREAM_KINDS`), or ``None`` when the
      port is payload-polymorphic: mergers treat reference-port tokens
      as opaque (post-compute unions carry values on them), feeders and
      fanouts copy any kind, repeaters/locators pass their reference
      payload through untouched.
    * ``required`` — whether a validated graph must connect the port.
      Optional ports (a scanner's ``in_skip``) are simply absent from
      ``inputs``/``outputs`` when unused.
    * ``sideband`` — the port is held directly by the block rather than
      registered in ``inputs``/``outputs`` (merge-side skip channels);
      listed for documentation and DOT rendering only.
    """

    name: str
    direction: str
    kind: Optional[str] = None
    required: bool = True
    variadic: bool = False
    sideband: bool = False

    def matches(self, port: str) -> bool:
        if not self.variadic:
            return port == self.name
        return self._pattern.fullmatch(port) is not None

    @cached_property
    def _pattern(self) -> "re.Pattern[str]":
        """The variadic name as a regex, compiled once per spec."""
        pattern = re.escape(self.name)
        return re.compile(pattern.replace(r"\{i\}", r"\d+").replace(r"\{j\}", r"\d+"))


@dataclass(frozen=True)
class StreamXfer:
    """Declarative stream-protocol transfer function for one block class.

    Consumed by :mod:`repro.analysis.protocol`, which abstractly
    interprets a wired graph and assigns every channel a *stream
    signature* — ``(kind, depth)`` where ``depth`` is the stop-token
    nesting depth (``[x, D]`` has depth 0, one fiber of stops depth 1,
    and so on).  The declaration lives next to :attr:`Block.port_specs`
    so a block's interface (ports) and its protocol semantics (how
    nesting depth flows through it) are read in one place.

    * ``ins`` — ``(port pattern, depth expression)`` pairs.  Each bound
      input whose inferred depth is known *binds* the block's depth
      variable ``d`` by inverting the expression (``"d+1"`` at depth 3
      binds ``d = 2``); all bound inputs must agree, and disagreement is
      exactly a protocol violation (a reducer fed the wrong nesting
      depth, a repeater fed an un-repeated signal).
    * ``outs`` — ``(port pattern, kind source, depth expression)``
      triples.  The kind source is a literal stream kind (``"crd"``), a
      copy reference ``"=port"`` naming the input port whose inferred
      kind flows through (payload-polymorphic ports), or ``""`` to keep
      the channel's declared kind.  Patterns may use the same
      ``{i}``/``{j}`` placeholders as :class:`PortSpec`; indices bound
      by the out pattern substitute into a copy reference, so
      ``("out_ref{i}_{j}", "=ref{i}_{j}", "d")`` copies side-matched.

    Depth expressions: ``"d"``, ``"d+N"``, ``"d-N"``, an integer
    literal, or ``"max(d-N,M)"``.  Ports left out of both tuples are
    opaque to the analysis — side-band skip feedback, which
    intentionally does not join depth propagation.
    """

    ins: Tuple[Tuple[str, str], ...] = ()
    outs: Tuple[Tuple[str, str, str], ...] = ()


class Block:
    """Base class for SAM dataflow blocks.

    Subclasses implement :meth:`_run` as a generator following the
    one-yield-per-cycle discipline and register their channels through
    ``inputs``/``outputs`` so the engine and statistics can find them.
    """

    #: class-level primitive name used by graph analyses ("level_scanner", ...)
    primitive = "block"

    #: declarative port interface (see :class:`PortSpec`).  Stock
    #: primitives all declare theirs; an empty tuple (third-party or
    #: test blocks) disables the name check in :meth:`_in`/:meth:`_out`.
    port_specs: Tuple[PortSpec, ...] = ()

    #: declarative protocol transfer function (see :class:`StreamXfer`);
    #: ``None`` means the block is opaque to protocol inference.
    stream_xfer: Optional[StreamXfer] = None

    #: input ports the generator polls without blocking (a scanner's
    #: skip feedback): they never create a blocking dependence, so the
    #: deadlock analysis excludes them from cycle enumeration.
    nonblocking_inputs: Tuple[str, ...] = ()

    #: timed segment hook for the timed-batch backend: a method
    #: ``drain_timed(self) -> bool`` that consumes stamped batches from
    #: its inputs, pushes stamped batches, and advances
    #: busy/stall/clock through :meth:`_t_advance` / :meth:`_t_event`,
    #: reproducing the generator's cycle schedule exactly.  ``None``
    #: means a timed engine runs the block's graph on ``cycle``.
    #:
    #: Every block is the paper's fully pipelined rate-1 machine: one
    #: event (generator ``yield True``) a cycle at most, gated by its
    #: token arrivals, ``c[k] = max(c[k-1] + 1, arrival[k])``, its
    #: outputs pushed in the event's cycle.  The rate is a constant of
    #: the model, not a per-block field.
    drain_timed = None

    #: how this block may take part in a compiled fused chain (see
    #: :func:`repro.sim.backends.plan.partition_segments`); read only
    #: when the block has a window hook.  A fusible block also exports,
    #: next to its ``fuse_role =`` line, the hook its own ``drain_timed``
    #: is written in terms of; the fused unit calls the same hook, so a
    #: block's behaviour is defined once:
    #:
    #: * ``"zip"`` — two-input elementwise head (ALU): only *starts* a
    #:   chain, reading both operand channels itself.  Hook: ``_fn``.
    #: * ``"map"`` — rate-1 unary map (ArrayLoad, ScalarALU): starts,
    #:   continues or ends a chain.  Hook: ``map_parts()``, the
    #:   ``(data_fn, empty_value)`` pair :meth:`_t_unary_window` applies.
    #: * ``"reduce"`` / ``"sink"`` / ``"write"`` — scalar reducer, Sink
    #:   and the value writer: chain tails (a level writer takes a
    #:   coordinate stream, which no value chain carries).  Hook:
    #:   ``commit_window(...)``, what :meth:`_t_tail_window` stores or
    #:   emits for one scheduled window.
    #: * ``""`` — not fusible: the block runs its own ``drain_timed``
    #:   (scanners, locators, mergers, repeaters, droppers, feeders ...).
    fuse_role: str = ""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.inputs: Dict[str, Channel] = {}
        self.outputs: Dict[str, Channel] = {}
        self.finished = False
        self.busy_cycles = 0
        self.stall_cycles = 0
        self._gen = None
        #: timed-plane local clock: the next cycle this block could act in
        self._tclock = 1
        #: arrival constraint carried from tokens popped without their own
        #: event (a generator pop between two yields): applied to the next
        #: event's arrival by ``_t_event``/``_t_advance``
        self._t_carry = 0
        #: whether the last window visit cut a slab: input is left that
        #: the block takes on a later visit, with no new push
        self._t_cut = False

    # -- wiring ---------------------------------------------------------
    @classmethod
    def spec_for(cls, direction: str, port: str) -> Optional[PortSpec]:
        """The :class:`PortSpec` matching ``port``, or None if undeclared.

        Answers live in a dict in the class's own ``__dict__``, so a
        subclass declaring its own :attr:`port_specs` never reads its
        parent's: an exact name is there from the first lookup on, and
        a variadic one is matched once, on its first lookup.
        """
        resolved = cls.__dict__.get("_resolved_ports")
        if resolved is None:
            resolved = {(spec.direction, spec.name): spec
                        for spec in reversed(cls.port_specs) if not spec.variadic}
            cls._resolved_ports = resolved
        key = (direction, port)
        if key not in resolved:
            resolved[key] = next((spec for spec in cls.port_specs
                                  if spec.variadic and spec.direction == direction
                                  and spec.matches(port)), None)
        return resolved[key]

    def stream_xfer_for(self) -> Optional["StreamXfer"]:
        """The protocol transfer for *this instance*.

        Defaults to the class-level :attr:`stream_xfer`; blocks whose
        protocol depends on construction parameters (a feeder's token
        list, a vector reducer's flush level) override this to build the
        declaration from instance state.
        """
        return type(self).stream_xfer

    def sideband_outputs(self) -> Dict[str, Channel]:
        """Output channels held by the block without registration.

        Mergers hold each side's skip-feedback channel directly (the
        ``sideband`` :class:`PortSpec` flag); the deadlock analysis
        needs those edges to enumerate the real feedback cycles they
        create, so blocks with side-band outputs report them here.
        """
        return {}

    def _check_port(self, direction: str, port: str) -> None:
        if not type(self).port_specs:
            return
        if self.spec_for(direction, port) is None:
            declared = ", ".join(
                s.name for s in type(self).port_specs if s.direction == direction
            )
            raise PortError(
                f"{self.name}: no declared {direction} port {port!r} on "
                f"{type(self).__name__} (declared: {declared or 'none'})"
            )

    def _in(self, port: str, channel: Channel) -> Channel:
        self._check_port("in", port)
        self.inputs[port] = channel
        return channel

    def _out(self, port: str, channel: Channel) -> Channel:
        self._check_port("out", port)
        self.outputs[port] = channel
        return channel

    # -- execution ------------------------------------------------------
    def _run(self):
        raise NotImplementedError

    def step(self) -> bool:
        """Advance one cycle; returns True if the block made progress."""
        if self.finished:
            return False
        if self._gen is None:
            self._gen = self._run()
        try:
            progressed = next(self._gen)
        except StopIteration:
            self.finished = True
            return False
        if progressed:
            self.busy_cycles += 1
        else:
            self.stall_cycles += 1
        return bool(progressed)

    # -- timed-batch helpers -----------------------------------------------
    def timed_capable(self) -> bool:
        """Whether this block's timed hook can run on this instance.

        Subclasses refine this for instance-level constraints the hook
        cannot express (wired skip channels, unsupported arities).
        Channel-level constraints (finite capacities, unbatchable queue
        contents) are checked by the engine.
        """
        return True

    def plan_tag(self) -> Tuple:
        """Hashable identity of this block's data transform, for the
        compiled backend's plan-cache keys: two segments whose members
        apply different ops (or scalar constants) must not share a plan
        even though their classes and roles match."""
        return ()

    def _treader(self, channel: Channel) -> TimedReader:
        """Cached stamped input reader for *channel* (refilled)."""
        try:
            readers = self._timed_readers
        except AttributeError:
            readers = self._timed_readers = {}
        reader = readers.get(channel)
        if reader is None:
            reader = readers[channel] = TimedReader(channel)
        reader.pull()
        return reader

    def t_backlog(self, reader_of) -> int:
        """What this block pushed that no reader has consumed yet, on its
        fullest output: the window engine re-visits the cut source that
        holds the least first.  ``reader_of(channel)`` is the cursor the
        channel's consumer reads it through (None: none yet)."""
        return max([ch.timed_backlog(reader_of(ch)) for ch in self.outputs.values()],
                   default=0)

    def _tbuilder(self, channel: Channel) -> TimedBuilder:
        """Cached stamped output builder for *channel*."""
        try:
            builders = self._timed_builders
        except AttributeError:
            builders = self._timed_builders = {}
        builder = builders.get(channel)
        if builder is None:
            builder = builders[channel] = TimedBuilder(channel)
        return builder

    def _t_defer(self, stamp: int) -> None:
        """Carry the arrival of a token popped without its own event."""
        if stamp > self._t_carry:
            self._t_carry = stamp

    def _t_event(self, arrival: int = 0) -> int:
        """Account one busy event gated by *arrival*; returns its cycle."""
        carry = self._t_carry
        if carry:
            if carry > arrival:
                arrival = carry
            self._t_carry = 0
        clock = self._tclock
        c = arrival if arrival > clock else clock
        self.busy_cycles += 1
        self.stall_cycles += c - clock
        self._tclock = c + 1
        return c

    def _t_advance(self, arrivals: np.ndarray) -> np.ndarray:
        """Account a run of busy events gated by *arrivals* (epoch rule).

        Vectorised ``_t_event``: ``c[k] = max(c[k-1] + 1, arrivals[k])``
        via one running max; stalls are the gaps of the covered span.
        Arrivals that already step by 1 or more (and no carry) make the
        running max a no-op: the schedule is ``max(arrivals, clock + k)``
        — and, from the clock on, the arrivals themselves: the same
        array comes back, to be read, not written.
        """
        n = len(arrivals)
        if n == 0:
            return _EMPTY_I64
        carry = self._t_carry
        if (not carry and arrivals.dtype == np.int64
                and arrivals[-1] - arrivals[0] >= n - 1
                and not np.count_nonzero(arrivals[1:] <= arrivals[:-1])):
            c = arrivals
            if arrivals[0] < self._tclock:
                c = index_ramp(n) + self._tclock
                np.maximum(arrivals, c, out=c)
        else:
            if carry:
                arrivals = np.asarray(arrivals, dtype=np.int64).copy()
                if carry > arrivals[0]:
                    arrivals[0] = carry
                self._t_carry = 0
            c = rate1_schedule(arrivals, self._tclock)
        end = int(c[-1]) + 1
        self.busy_cycles += n
        self.stall_cycles += end - self._tclock - n
        self._tclock = end
        return c

    def _t_span(self, n: int, last: int) -> None:
        """Account *n* busy events, the last at cycle *last*: what
        :meth:`_t_advance` books for a schedule computed sparsely."""
        end = last + 1
        self.busy_cycles += n
        self.stall_cycles += end - self._tclock - n
        self._tclock = end

    def _t_offsets(self, pos, val, total):
        """A busy schedule of *total* events in its sparse form: event
        ``pos[i]`` waits for stamp ``val[i]`` and the events after it, up
        to ``pos[i + 1]``, are a ramp — event *e* at cycle ``offs[i] +
        e``, ``offs`` the running max of ``val - pos`` clipped at the
        clock.  The dense arrival array and its running max are never
        built; the bookkeeping is :meth:`_t_advance`'s.  *pos* starts at
        0 and ascends; *val* is the caller's to overwrite."""
        if self._t_carry:
            val[0] = max(int(val[0]), self._t_carry)
            self._t_carry = 0
        offs = np.maximum.accumulate(val - pos)
        np.maximum(offs, self._tclock, out=offs)
        self._t_span(total, int(offs[-1]) + total - 1)
        return offs

    def _t_take_window(self, channel, cut=None) -> Optional[TakenWindow]:
        """Take *channel*'s stamped window up to its first ``D``, or None
        when nothing is waiting; ``cut(reader, window)``, when given,
        hands back the part to take and puts the rest back."""
        reader = self._treader(channel)
        window = reader.take_window()
        if window is not None:
            if cut is not None:
                window = cut(reader, window)
            head, sd, sc, tail = split_done_stamped(*window)
            merged, di, ci = merge_stamps(head.remaining_arrays()[1], sd, sc)
            if len(merged):
                return TakenWindow(head, merged, di, ci, tail, sd, sc)
        return None

    def _t_window_cycles(self, taken: TakenWindow):
        """:meth:`_t_advance` over a taken window: its busy schedule and
        the event cycles of its ``(data, ctrl)`` tokens — the window's
        own stamps when they already are the schedule."""
        c = self._t_advance(taken.merged)
        if c is taken.merged:
            return c, taken.sd, taken.sc
        return c, c[taken.di], c[taken.ci]

    def _t_unary_window(self, channel, out, data_fn, empty_value) -> bool:
        """Whole-window epoch advance for uniform rate-1 unary maps.

        Every input token is one event; data runs map through *data_fn*
        (one vectorized call for the whole window), ``N`` tokens become
        the data value *empty_value* at their stream position, stops and
        done pass through.  This is the shape of ArrayLoad/ScalarALU
        (called with their ``map_parts()``) — without it, streams
        fragmented by per-fiber stops would pay a Python iteration per
        fiber.
        """
        taken = self._t_take_window(channel)
        if taken is None:
            return False
        head = taken.head
        _, cd, cc = self._t_window_cycles(taken)
        data, cpos, ccode = head.remaining_arrays()
        vals = data_fn(data)
        empty = ccode == CODE_EMPTY
        if np.count_nonzero(empty):
            vals = insert_sorted(np.asarray(vals, dtype=np.float64),
                                 cpos[empty], empty_value)
            cd = insert_sorted(cd, cpos[empty], cc[empty])
            keep = ~empty
            shift = empty.cumsum() - empty
            cpos = (cpos + shift)[keep]
            ccode = ccode[keep]
            cc = cc[keep]
        out.data_with_ctrl(vals, cpos, ccode, cd, cc)
        out.flush()
        self._t_window_done(channel, head.ends_done, taken.tail)
        return True

    def _t_tail_window(self, channel, commit, zero=None) -> Optional[np.ndarray]:
        """Whole-window epoch advance for uniform rate-1 chain tails.

        Every input token is one event (``N`` reads as the data value
        *zero* when given); what the block stores or emits for the
        window is ``commit(data, cpos, ccode, cctrl, ends_done)`` —
        *cctrl* the event cycles of the control tokens.  This is the
        shape of Sink/ScalarReducer/the single-input writers, called
        with their ``commit_window``, which a fused chain calls with its
        own composed schedule instead.  Returns the window's busy
        schedule, or None when starved.
        """
        if zero is not None:
            self._treader(channel).densify_empty(zero)
        taken = self._t_take_window(channel)
        if taken is None:
            return None
        head = taken.head
        c, _, cc = self._t_window_cycles(taken)
        commit(*head.remaining_arrays(), cc, head.ends_done)
        self._t_window_done(channel, head.ends_done, taken.tail)
        return c

    def _t_window_done(self, channel, ends_done, tail) -> None:
        """Finish at ``D``, requeueing what follows it on *channel*."""
        if ends_done:
            if tail is not None:
                channel.timed_requeue_front(*tail)
            self.finished = True

    # -- generator helpers -------------------------------------------------
    def _get(self, channel: Channel):
        """Pop the next token, yielding stall cycles while the input is empty."""
        while channel.empty():
            yield False
        return channel.pop()

    def _peek(self, channel: Channel):
        """Peek the next token, yielding stall cycles while the input is empty."""
        while channel.empty():
            yield False
        return channel.peek()

    def _put(self, channel: Channel, token):
        """Push *token*, yielding stall cycles while the channel is full.

        With the default unbounded channels this never yields; with a finite
        ``capacity`` it realises producer back-pressure instead of the
        :class:`OverflowError` a direct ``push`` raises.
        """
        while channel.full():
            yield False
        channel.push(token)

    def _emit_all(self, channels: Iterable[Optional[Channel]], token):
        for channel in channels:
            if channel is not None:
                yield from self._put(channel, token)

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<{type(self).__name__} {self.name!r} ({state})>"


class StreamFeeder(Block):
    """Source block that plays a pre-built token list onto a channel.

    On a coordinate (``crd``) channel the list must hold coordinates only
    (:func:`~repro.streams.batch.first_non_coordinate`): the feeder is
    where hand-made tokens enter a graph, and it refuses the first that
    is none when it is built, so no engine sees a float coordinate.
    """

    primitive = "source"
    port_specs = (PortSpec("out", "out", kind=None),)

    def __init__(self, tokens, out: Channel, name: str = "feeder"):
        super().__init__(name)
        self.out = self._out("out", out)
        self.tokens = tokens

    @property
    def tokens(self) -> list:
        return self._tokens

    @tokens.setter
    def tokens(self, tokens) -> None:
        """The list to play, batched once (``None`` when it does not
        batch) and checked on a coordinate channel."""
        self._tokens = list(tokens)
        #: window plane: the tokens pushed so far and the token-order
        #: indices of the list's data and control tokens
        self._t_played: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        try:
            self._tbatch = TokenBatch.from_tokens(self._tokens)
        except UnbatchableTokens:
            self._tbatch = None
        if self.out.kind == "crd":
            at = first_non_coordinate(self._tokens, self._tbatch)
            if at >= 0:
                raise BlockError(f"{self.name}: non-integer coordinate "
                                 f"{token_repr(self._tokens[at])}")

    def stream_xfer_for(self) -> Optional[StreamXfer]:
        """Source signature read off the token list it will play."""
        depth = 0
        for token in self.tokens:
            if is_stop(token):
                depth = max(depth, token.level + 1)
        return StreamXfer(outs=(("out", "", str(depth)),))

    def _run(self):
        for token in self.tokens:
            yield from self._put(self.out, token)
            yield True

    def timed_capable(self) -> bool:
        """Whether the token list batches."""
        return self._tbatch is not None

    def drain_timed(self) -> bool:
        """Timed drain: one token a cycle, at most :data:`SLAB` a visit."""
        if self.finished:
            return False
        batch = self._tbatch
        if self._t_played is None:
            self._t_played = (0, *token_order_indices(batch.ctrl_pos,
                                                      len(batch.data)))
        start, di, ci = self._t_played
        n = len(di) + len(ci)
        end = min(start + SLAB, n)
        self.finished = end == n
        self._t_cut = not self.finished
        self._t_played = (end, di, ci)
        if end == start:
            return False
        c = self._t_advance(np.zeros(end - start, dtype=np.int64))
        d0, d1 = di.searchsorted((start, end))
        c0, c1 = ci.searchsorted((start, end))
        slab = TokenBatch(batch.data[d0:d1], batch.ctrl_pos[c0:c1] - d0,
                          batch.ctrl_code[c0:c1])
        self.out.push_batch_timed(slab, c[di[d0:d1] - start], c[ci[c0:c1] - start])
        return True


class RootFeeder(StreamFeeder):
    """Plays the ``D, 0`` root reference stream that starts tensor iteration."""

    def __init__(self, out: Channel, name: str = "root"):
        super().__init__([0, DONE], out, name=name)


class Fanout(Block):
    """Copies a stream to several consumers.

    Physically a SAM stream is a wire that can fan out to any number of
    block inputs; our channels are single-consumer FIFOs, so explicit
    fanout blocks model the wire split.  Fanouts are wiring, not SAM
    primitives, and are excluded from primitive counts.
    """

    primitive = "wire"
    port_specs = (
        PortSpec("in", "in", kind=None),
        PortSpec("out{i}", "out", kind=None, variadic=True),
    )
    stream_xfer = StreamXfer(
        ins=(("in", "d"),),
        outs=(("out{i}", "=in", "d"),),
    )

    def __init__(self, in_: Channel, outs, name: str = "fanout"):
        super().__init__(name)
        self.in_ = self._in("in", in_)
        self.outs = [self._out(f"out{i}", ch) for i, ch in enumerate(outs)]

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            for channel in self.outs:
                yield from self._put(channel, token)
            yield True
            if is_done(token):
                return

    def drain_timed(self) -> bool:
        """Timed drain: copy one token per cycle to every output."""
        if self.finished:
            return False
        taken = self._t_take_window(self.in_)
        if taken is None:
            return False
        _, cd, cc = self._t_window_cycles(taken)
        for channel in self.outs:
            channel.push_batch_timed(taken.head, cd, cc)
        self._t_window_done(self.in_, taken.head.ends_done, taken.tail)
        return True


class Sink(Block):
    """Consumes a stream (one token per cycle) and records it."""

    primitive = "sink"
    port_specs = (PortSpec("in", "in", kind=None),)
    stream_xfer = StreamXfer(ins=(("in", "d"),))

    def __init__(self, in_: Channel, name: str = "sink"):
        super().__init__(name)
        self.in_ = self._in("in", in_)
        self.tokens: List = []

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            self.tokens.append(token)
            yield True
            if is_done(token):
                return

    fuse_role = "sink"

    def commit_window(self, data, cpos, ccode, cctrl, ends_done) -> None:
        self.tokens.extend(TokenBatch(data, cpos, ccode).tokens())

    def drain_timed(self) -> bool:
        """Timed drain: consume one token per cycle."""
        if self.finished:
            return False
        return self._t_tail_window(self.in_, self.commit_window) is not None
