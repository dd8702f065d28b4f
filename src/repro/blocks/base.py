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
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..streams.batch import CODE_EMPTY, TokenBatch, UnbatchableTokens
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
from ..streams.token import DONE, is_done, is_stop

_EMPTY_I64 = np.empty(0, dtype=np.int64)


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
    each registration against the declaration, and the declarative
    :class:`repro.graph.builder.Graph` layer uses them for build-time
    validation (kind/capability mismatches, unconnected required ports)
    and for port metadata in DOT renderings and fusion partitioning.

    * ``name`` — exact port name, or a pattern with ``{i}``/``{j}``
      placeholders when ``variadic`` (e.g. ``"out{i}"``, ``"ref{i}_{j}"``
      — each placeholder matches a decimal index).
    * ``direction`` — ``"in"`` or ``"out"``.
    * ``kind`` — the stream kind carried (one of
      :data:`repro.streams.stream.STREAM_KINDS`), or ``None`` when the
      port is payload-polymorphic: mergers treat reference-port tokens
      as opaque (post-compute unions carry values on them), feeders and
      fanouts copy any kind, repeaters/locators pass their reference
      payload through untouched.
    * ``required`` — whether a validated graph must connect the port.
      Optional ports (a scanner's ``in_skip``, a locator's
      ``in_target_ref``) are simply absent from ``inputs``/``outputs``
      when unused.
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
    opaque to the analysis — side-band skip feedback and optional target
    references, which intentionally do not join depth propagation.
    """

    ins: Tuple[Tuple[str, str], ...] = ()
    outs: Tuple[Tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class TimingDescriptor:
    """Declarative per-block timing for the timed-batch backend.

    The paper's cycle model makes every primitive a fully pipelined
    rate-1 machine; this descriptor makes that timing *data* instead of
    implicit generator control flow, so an engine can advance a block
    across an entire control-free token segment analytically:

    * ``ii`` — initiation interval: cycles between successive token
      events (generator ``yield True``\\ s).  The epoch advance rule is
      ``c[k] = max(c[k-1] + ii, arrival[k])``.

    Every stock primitive is ``TimingDescriptor()`` — rate 1, its
    outputs pushed in the event's cycle, one event per control token —
    matching the generators they replace.

    ``fuse_role`` is the compiled backend's segment-fusion capability
    flag: how this block may participate in a fused super-block (see
    :func:`repro.sim.backends.plan.partition_segments`).  A fusible block also
    exports, next to its ``timing =`` line, the hook its own
    ``drain_timed`` is written in terms of; the fused unit calls the
    same hook, so a block's behaviour is defined once.  Roles:

    * ``"zip"`` — two-input elementwise head (ALU): may only *start* a
      fused value chain, reading both operand channels itself.  Hook:
      ``_fn``, the elementwise operator.
    * ``"map"`` — uniform rate-1 unary map (ArrayLoad, ScalarALU, Exp):
      may start, continue, or end a chain.  Hook: ``map_parts()``, the
      ``(data_fn, empty_value)`` pair :meth:`Block._t_unary_window`
      applies.
    * ``"reduce"`` / ``"sink"`` / ``"write"`` — scalar reducer, Sink,
      and the single-input level/vals writers: chain tails (pure
      consumers, or emitting fewer tokens than they consume, so nothing
      fuses after them).  Hook: ``commit_window(...)``, what
      :meth:`Block._t_tail_window` stores or emits for one scheduled
      window.
    * ``""`` — not fusible; the block always runs its own
      ``drain_timed`` on the per-block timed path (scanners, locators,
      mergers, repeaters, droppers, vector reducers, feeders, fanouts …).
      A scanner hands its fibers to a locator or merger side reading
      both its outputs as runs (the plan's hand-overs), without a fused unit.

    :meth:`Block.plan_tag` names a member's data transform in the
    compiled backend's plan-cache keys.
    """

    ii: int = 1
    fuse_role: str = ""


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
    drain_timed = None

    #: declarative timing (see :class:`TimingDescriptor`); ``None`` on
    #: blocks without a timed segment hook
    timing: Optional[TimingDescriptor] = None

    #: credit-aware endpoints for finite-capacity channels on the timed
    #: plane: a credit *producer* gates its push schedule on the
    #: channel's recorded pop cycles, a credit *consumer* records its
    #: pop cycles via :meth:`Channel.record_pops`.  A finite channel
    #: whose endpoints are not both credit-aware sends a timed run to
    #: ``cycle``, where back-pressure is exact by construction.
    timed_credit_producer = False
    timed_credit_consumer = False

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.inputs: Dict[str, Channel] = {}
        self.outputs: Dict[str, Channel] = {}
        self.finished = False
        self.busy_cycles = 0
        self.stall_cycles = 0
        self._gen = None
        #: False once a timed drain bailed out (per-block fallback to the
        #: generator for the rest of the run)
        self._timed_ok = True
        #: timed-plane local clock: the next cycle this block could act in
        self._tclock = 1
        #: arrival constraint carried from tokens popped without their own
        #: event (a generator pop between two yields): applied to the next
        #: event's arrival by ``_t_event``/``_t_advance``
        self._t_carry = 0

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

    @classmethod
    def capabilities(cls) -> FrozenSet[str]:
        """Execution planes this block supports, derived from its hooks.

        ``scalar`` is present iff the class implements the generator
        path (:meth:`_run`); ``timed`` iff it overrides ``drain_timed``.
        Every stock primitive has the scalar path; the declarative graph
        layer intersects these per edge to reject capability mismatches
        for a requested backend at bind time.
        """
        caps = set()
        if cls._run is not Block._run:
            caps.add("scalar")
        if cls.drain_timed is not None:
            caps.add("timed")
        return frozenset(caps)

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

    def rebind_input(self, port: str, channel: Channel) -> Channel:
        """Swap the channel bound to an input port (pre-run only).

        Backs the declarative layer's explicit ``connect()`` override:
        the registry entry and every instance attribute (or list slot)
        holding the old channel are repointed, so generators built after
        the rebind read from the new channel.
        """
        if port not in self.inputs:
            raise PortError(
                f"{self.name}: cannot rebind unbound input port {port!r}"
            )
        old = self.inputs[port]
        self.inputs[port] = channel
        for attr, value in list(self.__dict__.items()):
            if value is old:
                setattr(self, attr, channel)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if item is old:
                        value[i] = channel
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
        cannot express (level formats without array interfaces, wired
        skip channels, unsupported arities).  Channel-level constraints
        (finite capacities, unbatchable queue contents) are checked by
        the engine.
        """
        return True

    def plan_tag(self) -> Tuple:
        """Hashable identity of this block's data transform, for the
        compiled backend's plan-cache keys: two segments whose members
        apply different ops (or scalar constants) must not share a plan
        even though their timing descriptors match."""
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
        self._tclock = c + self.timing.ii
        return c

    def _t_advance(self, arrivals: np.ndarray) -> np.ndarray:
        """Account a run of busy events gated by *arrivals* (epoch rule).

        Vectorised ``_t_event``: ``c[k] = max(c[k-1] + ii, arrivals[k])``
        via one running max; stalls are the gaps of the covered span.
        Arrivals that already step by ``ii`` or more (and no carry) make
        the running max a no-op: the schedule is ``max(arrivals, clock +
        k * ii)`` — and, from the clock on, the arrivals themselves: the
        same array comes back, to be read, not written.
        """
        n = len(arrivals)
        if n == 0:
            return _EMPTY_I64
        ii, carry = self.timing.ii, self._t_carry
        if (not carry and arrivals.dtype == np.int64
                and arrivals[-1] - arrivals[0] >= (n - 1) * ii
                and not np.count_nonzero(arrivals[1:] - arrivals[:-1] < ii)):
            c = arrivals
            if arrivals[0] < self._tclock:
                c = (index_ramp(n) * ii if ii != 1 else index_ramp(n)) + self._tclock
                np.maximum(arrivals, c, out=c)
        else:
            if carry:
                arrivals = np.asarray(arrivals, dtype=np.int64).copy()
                if carry > arrivals[0]:
                    arrivals[0] = carry
                self._t_carry = 0
            c = rate1_schedule(arrivals, self._tclock, ii)
        end = int(c[-1]) + ii
        self.busy_cycles += n
        self.stall_cycles += (end - self._tclock) - ii * n
        self._tclock = end
        return c

    def _t_span(self, n: int, last: int) -> None:
        """Account *n* busy events, the last at cycle *last*: what
        :meth:`_t_advance` books for a schedule computed sparsely."""
        ii = self.timing.ii
        end = last + ii
        self.busy_cycles += n
        self.stall_cycles += (end - self._tclock) - ii * n
        self._tclock = end

    def _t_offsets(self, pos, val, total):
        """A busy schedule of *total* events in its sparse form: event
        ``pos[i]`` waits for stamp ``val[i]`` and the events after it, up
        to ``pos[i + 1]``, are a ramp — event *e* at cycle ``offs[i] + e *
        ii``, ``offs`` the running max of ``val - pos * ii`` clipped at the
        clock.  The dense arrival array and its running max are never
        built; the bookkeeping is :meth:`_t_advance`'s.  *pos* starts at
        0 and ascends; *val* is the caller's to overwrite."""
        ii = self.timing.ii
        if self._t_carry:
            val[0] = max(int(val[0]), self._t_carry)
            self._t_carry = 0
        offs = np.maximum.accumulate(val - (pos * ii if ii != 1 else pos))
        np.maximum(offs, self._tclock, out=offs)
        self._t_span(total, int(offs[-1]) + (total - 1) * ii)
        return offs

    def _t_take_window(self, channel) -> Optional[TakenWindow]:
        """Take *channel*'s stamped window up to its first ``D``, or None
        when nothing is waiting."""
        window = self._treader(channel).take_window()
        if window is not None:
            head, sd, sc, tail = split_done_stamped(*window)
            merged, di, ci = merge_stamps(head, sd, sc)
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
        done pass through.  This is the shape of ArrayLoad/ScalarALU/Exp
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

    def _bail_timed(self) -> bool:
        """Leave the window hook for the rest of the run.

        Requeues every stamped reader window (stamps intact, so the
        engine materialises them for the generator at the right cycles)
        and flips :attr:`_timed_ok`; the engine then finishes the stream
        on this block's generator from local cycle :attr:`_tclock`.
        Cycles already charged cannot be replayed, so a bail with
        carried arrivals pending is an error.
        """
        if self._t_carry != 0:
            raise BlockError(
                f"{self.name}: cannot leave the timed-batch plane "
                f"mid-stream (arrivals carried past a charged window)"
            )
        for reader in getattr(self, "_timed_readers", {}).values():
            reader.requeue()
        self._timed_ok = False
        return False

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

    def _emit(self, channel: Optional[Channel], token):
        """Push *token* if the port is connected (ports may be left open)."""
        if channel is not None:
            yield from self._put(channel, token)

    def _emit_all(self, channels: Iterable[Optional[Channel]], token):
        for channel in channels:
            if channel is not None:
                yield from self._put(channel, token)

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<{type(self).__name__} {self.name!r} ({state})>"


class StreamFeeder(Block):
    """Source block that plays a pre-built token list onto a channel."""

    primitive = "source"
    port_specs = (PortSpec("out", "out", kind=None),)

    def __init__(self, tokens, out: Channel, name: str = "feeder"):
        super().__init__(name)
        self.tokens = list(tokens)
        self.out = self._out("out", out)

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

    timing = TimingDescriptor()
    timed_credit_producer = True

    def timed_capable(self) -> bool:
        """Whether the token list batches; the batch (and each token's
        place in it) is kept for the drain."""
        try:
            self._tbatch = TokenBatch.from_tokens(self.tokens)
        except UnbatchableTokens:
            return False
        batch = self._tbatch
        self._torder = token_order_indices(batch.ctrl_pos, len(batch.data))
        return True

    def drain_timed(self) -> bool:
        """Timed drain: one token per cycle, credit-limited on finite FIFOs.

        The generator pushes one token then yields once per cycle;
        with a finite output the push of global token *g* waits for slot
        ``g - capacity`` to free (``_put`` back-pressure), which the
        channel's recorded pop stamps reproduce exactly.  A visit pushes
        the slice of the batched token list the credits allow.
        """
        if self.finished:
            return False
        out = self.out
        pos = getattr(self, "_tfeed_pos", 0)
        n = len(self.tokens)
        if pos >= n:
            self.finished = True
            return False
        cap = out.capacity
        if cap is None:
            avail = n - pos
            arrivals = np.zeros(avail, dtype=np.int64)
        else:
            state = out.timed
            avail = min(n - pos, cap + len(state.pop_stamps) - pos)
            if avail <= 0:
                return False
            # Push g waits for the pop that freed slot g - cap (credits).
            arrivals = np.zeros(avail, dtype=np.int64)
            first_credited = max(pos, cap)
            if first_credited < pos + avail:
                arrivals[first_credited - pos:] = np.asarray(
                    state.pop_stamps[first_credited - cap:pos + avail - cap],
                    dtype=np.int64,
                )
        c = self._t_advance(arrivals)
        end = pos + avail
        batch, (di, ci) = self._tbatch, self._torder
        data, cpos, ccode = batch.data, batch.ctrl_pos, batch.ctrl_code
        d0, d1 = di.searchsorted((pos, end))
        c0, c1 = ci.searchsorted((pos, end))
        chunk = TokenBatch(data[d0:d1], cpos[c0:c1] - d0, ccode[c0:c1])
        out.push_batch_timed(chunk, c[di[d0:d1] - pos], c[ci[c0:c1] - pos])
        self._tfeed_pos = end
        self.finished = end >= n
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

    timing = TimingDescriptor()

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

    timing = TimingDescriptor(fuse_role="sink")
    timed_credit_consumer = True

    def commit_window(self, data, cpos, ccode, cctrl, ends_done) -> None:
        self.tokens.extend(TokenBatch(data, cpos, ccode).tokens())

    def drain_timed(self) -> bool:
        """Timed drain: consume one token per cycle, recording pops.

        On finite-capacity inputs the pop cycles are reported back to the
        channel's credit log so a batched producer reproduces ``_put``
        back-pressure exactly.
        """
        if self.finished:
            return False
        c = self._t_tail_window(self.in_, self.commit_window)
        if c is None:
            return False
        if self.in_.capacity is not None:
            self.in_.record_pops(c + self.in_.timed.delta_pop)
        return True
