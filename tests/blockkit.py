"""Pacing test blocks and window-log helpers shared by the block tests.

A window block's hook sees whatever its producers pushed since its last
visit, and the timed engines visit a block again after every visit that
made progress.  The blocks here push one slice a visit, stamped as
their generators push it: a :class:`Slicer` or a :class:`Relay` in
front of the block under test cuts its input into windows, and a
``Relay`` behind it reads its outputs a token a cycle.
:func:`window_log` and :func:`assert_windows_sliced` check,
wall-clock-free, that the cuts reached it.

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
from repro.blocks import Block, StreamFeeder
from repro.blocks.base import TimingDescriptor
from repro.sim import BACKENDS
from repro.streams import Channel
from repro.streams.batch import TokenBatch, UnbatchableTokens, batch_kind
from repro.streams.token import is_done

#: every registered engine once: the keys that name their own class
ENGINES = tuple(
    name for name, engine in BACKENDS.items() if engine.backend == name
)
#: every engine that runs graphs on the timed plane (windows)
TIMED = tuple(name for name in ENGINES if "timed" in BACKENDS[name].planes)


def push_stamped(channel, tokens, stamp):
    """Push *tokens* onto *channel*'s stamped plane, all pushed at *stamp*:
    one batch per run of one type of datum, so the coordinate ``1`` does
    not become ``1.0`` because a value shares its slice."""
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


class Relay(Block):
    """Pass-through, one token a cycle.  Its window hook moves one token
    a visit, so its consumer is fed one-token windows."""

    timing = TimingDescriptor()

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
        push_stamped(self.out, [token], self._t_event(stamp))
        self.finished = is_done(token)
        return True


class Slicer(Block):
    """Source pushing its tokens in slices, idling between.

    *plan* is ``[(size, gap), ...]``: push *size* tokens, idle *gap*
    cycles; whatever the plan leaves is pushed last.  Its window hook
    makes one of the generator's cycles a visit (a slice, or an idle
    cycle), so the block downstream sees windows that end wherever a
    slice does — mid-fiber, between a coordinate and its references,
    after the stop — in the order of their cycles.
    """

    timing = TimingDescriptor()

    def __init__(self, tokens, plan, out, name):
        super().__init__(name)
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
        push_stamped(self.out, self.tokens[:size], self._t_event())
        del self.tokens[:size]
        self.finished = not self._cycles
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
