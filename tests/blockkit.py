"""Pacing test blocks and window-log helpers shared by the block tests.

A window block's hook sees whatever its producers pushed since its last
visit, and the timed engines visit a block again after every visit that
made progress.  The blocks here push one slice a visit, stamped as
their generators push it: a :class:`Slicer` or a :class:`Relay` in
front of the block under test cuts its input into windows, and a
``Relay`` behind it reads its outputs a token a cycle; a
:class:`Clocked` sink logs the cycle each output token is taken in.
:func:`window_log` and :func:`assert_windows_sliced` check,
wall-clock-free, that the cuts reached it.  Tokens these blocks put on
a coordinate stream are checked as a ``StreamFeeder`` checks them
(:func:`check_coordinates`).

``tests/conftest.py`` puts this directory on ``sys.path``; import it as
``from blockkit import ...``.
"""

import importlib
import inspect
import math
import pkgutil
from collections import Counter
from contextlib import contextmanager

import numpy as np

import repro.blocks
from repro.blocks import Block, BlockError, StreamFeeder
from repro.blocks.base import PortSpec, StreamXfer
from repro.sim import BACKENDS, TimedBatchEngine
from repro.streams import Channel
from repro.streams.batch import (
    TokenBatch, UnbatchableTokens, batch_kind, first_non_coordinate,
)
from repro.streams.token import is_data, is_done, is_empty, token_repr

#: every registered engine once: the keys that name their own class
ENGINES = tuple(
    name for name, engine in BACKENDS.items() if engine.backend == name
)
#: every engine that runs graphs on the timed plane (windows)
TIMED = tuple(name for name in ENGINES
              if issubclass(BACKENDS[name], TimedBatchEngine))


def rebind_input(block, port, channel):
    """Rewire *block*'s input *port* to *channel* before a run: its port
    table and every attribute (or list slot) that held the old channel."""
    old = block.inputs[port]
    block.inputs[port] = channel
    for attr, value in list(vars(block).items()):
        if value is old:
            setattr(block, attr, channel)
        elif isinstance(value, list):
            value[:] = [channel if item is old else item for item in value]


def check_coordinates(tokens, channel, name):
    """Refuse *tokens* on a coordinate *channel* as a ``StreamFeeder``
    named *name* does: the test blocks' way into a graph, checked by the
    same rule."""
    at = first_non_coordinate(tokens) if channel.kind == "crd" else -1
    if at >= 0:
        raise BlockError(f"{name}: non-integer coordinate {token_repr(tokens[at])}")


def push_stamped(channel, tokens, stamp, name="push"):
    """Push *tokens* onto *channel*'s stamped plane, all pushed at *stamp*:
    one batch per run of one type of datum, so the value ``1`` does not
    become ``1.0`` because a float shares its slice.  Coordinates are
    checked as a feeder checks them (:func:`check_coordinates`)."""
    check_coordinates(tokens, channel, name)
    runs, kind = [[]], ""
    for token in tokens:
        now = batch_kind(token)
        if now and kind and now != kind:
            runs.append([])
        kind = now or kind
        runs[-1].append(token)
    for run in runs:
        batch = TokenBatch.from_tokens(run)
        channel.push_batch_timed(batch, np.full(len(batch.data), stamp),
                                 np.full(len(batch.ctrl_code), stamp))


class Exp(Block):
    """A unary map of a value stream, ``N`` read as zero: the block
    differential's row for a map whose function numpy cannot vectorise."""

    primitive = "alu"

    port_specs = (
        PortSpec('in_a', 'in', kind='vals'),
        PortSpec('out', 'out', kind='vals'),
    )
    stream_xfer = StreamXfer(
        ins=(("in_a", "d"),),
        outs=(("out", "vals", "d"),),
    )

    def __init__(self, fn, in_a, out, name="map"):
        super().__init__(name)
        self._fn = fn
        self.in_a = self._in("in_a", in_a)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            a = yield from self._get(self.in_a)
            if is_data(a) or is_empty(a):
                self.out.push(self._fn(0.0 if is_empty(a) else a))
            else:
                self.out.push(a)
            yield True
            if is_done(a):
                return

    fuse_role = "map"

    def plan_tag(self):
        return ("exp", getattr(self._fn, "__name__", "fn"))

    def map_parts(self):
        fn = self._fn
        return (lambda run: np.asarray([fn(v) for v in run.tolist()])), fn(0.0)

    def drain_timed(self) -> bool:
        """Timed drain: rate-1 unary map; *fn* applied per element."""
        if self.finished:
            return False
        return self._t_unary_window(
            self.in_a, self._tbuilder(self.out), *self.map_parts()
        )


class Relay(Block):
    """Pass-through, one token a cycle.  Its window hook moves one token
    a visit and says it left the rest (``_t_cut``), so the engine runs
    that token down the graph before it visits the relay again: its
    consumer is fed one-token windows."""

    def __init__(self, in_, out, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            self.out.push(token)
            yield True
            if is_done(token):
                return

    def drain_timed(self):
        reader = self._treader(self.in_)
        if self.finished or not len(reader):
            return False
        token, stamp = reader.pop()
        push_stamped(self.out, [token], self._t_event(stamp), self.name)
        self.finished = is_done(token)
        self._t_cut = bool(len(reader))
        return True


class Clocked(Block):
    """Sink that logs every token it takes with the cycle of its event:
    a stamp that moves no report total still shows in the log."""

    def __init__(self, in_, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)
        self.log = []

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            # the cycles gone by, and this one: cycles count from 1
            self.log.append((canon(token), self.busy_cycles + self.stall_cycles + 1))
            yield True
            if is_done(token):
                return

    def drain_timed(self):
        reader = self._treader(self.in_)
        if self.finished or not len(reader):
            return False
        while len(reader) and not self.finished:
            token, stamp = reader.pop()
            self.log.append((canon(token), self._t_event(stamp)))
            self.finished = is_done(token)
        return True


class Slicer(Block):
    """Source pushing its tokens in slices, idling between.

    *plan* is ``[(size, gap), ...]``: push *size* tokens, idle *gap*
    cycles; whatever the plan leaves is pushed last.  Its window hook
    makes one of the generator's cycles a visit (a slice, or an idle
    cycle) and says it left the rest (``_t_cut``), as a slabbed source
    does, so the block downstream sees windows that end wherever a
    slice does — mid-fiber, between a coordinate and its references,
    after the stop — in the order of their cycles.
    """

    def __init__(self, tokens, plan, out, name):
        super().__init__(name)
        check_coordinates(tokens, out, name)
        self.tokens, self.plan = list(tokens), plan
        self.out = self._out("out", out)
        self._cycles = None  # what the generator pushes each cycle

    def _run(self):
        pos = 0
        for size, gap in self.plan:
            for token in self.tokens[pos:pos + size]:
                self.out.push(token)
            pos += size
            yield True
            for _ in range(gap):
                yield True
        for token in self.tokens[pos:]:
            self.out.push(token)
        yield True

    def timed_capable(self):
        try:
            for token in self.tokens:
                batch_kind(token)
        except UnbatchableTokens:
            return False
        return True

    def drain_timed(self):
        if self.finished:
            return False
        if self._cycles is None:
            self._cycles = [n for size, gap in self.plan for n in [size] + [0] * gap]
            self._cycles.append(len(self.tokens))
        size = self._cycles.pop(0)
        push_stamped(self.out, self.tokens[:size], self._t_event(), self.name)
        del self.tokens[:size]
        self.finished = not self._cycles
        self._t_cut = not self.finished
        return True


def fed(tokens, channel, name, relay=False):
    """A ``StreamFeeder`` playing *tokens* onto *channel* — through a
    :class:`Relay`, one token a cycle, when *relay*."""
    if not relay:
        return [StreamFeeder(list(tokens), channel, name=name)]
    raw = Channel(f"{name}_raw", kind=channel.kind)
    return [StreamFeeder(list(tokens), raw, name=name),
            Relay(raw, channel, f"{name}_relay")]


@contextmanager
def window_log():
    """``(pushed, taken)`` counters by channel name while a timed engine
    runs: the stamped pushes onto a channel (one a visit from a block
    here) and the non-empty stamped windows handed to its reader."""
    pushed, taken = Counter(), Counter()
    real_push, real_take = Channel.push_batch_timed, Channel.timed_take

    def push(channel, batch, sdata, sctrl):
        pushed[channel.name] += not batch.exhausted
        return real_push(channel, batch, sdata, sctrl)

    def take(channel):
        window = real_take(channel)
        taken[channel.name] += bool(window)
        return window

    Channel.push_batch_timed, Channel.timed_take = push, take
    try:
        yield pushed, taken
    finally:
        Channel.push_batch_timed, Channel.timed_take = real_push, real_take


def assert_windows_sliced(log, source, reader=None, pushes=None):
    """Each stamped push onto the channel named *source* made a window
    of its own on *reader* (default: the same channel; another one
    when a timed block sits in between): the delivery still cuts the
    windows of the block under test, wall-clock-free.  *pushes* is how
    many of them the reader lives to see, when a ``D`` ends it early."""
    pushed, taken = log
    if pushes is None:
        pushes = pushed[source]
    assert pushed[source] >= pushes > 0, (source, pushed)
    assert taken[reader or source] >= pushes, (source, pushes, taken)


def canon(token):
    """A token with its type and bit pattern (NaN equals NaN, -0.0 is
    not 0.0, the coordinate 1 is not the value 1.0)."""
    if isinstance(token, float):
        return "nan" if math.isnan(token) else token.hex()
    return repr(token)


def block_classes():
    """Every :class:`~repro.blocks.Block` class ``repro.blocks`` defines."""
    for info in pkgutil.iter_modules(repro.blocks.__path__):
        module = importlib.import_module(f"repro.blocks.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Block) and cls.__module__ == module.__name__:
                yield cls
