"""Scalar test blocks and window-log helpers shared by the block tests.

The timed engines drain a window block whenever somebody reads what it
produced; the blocks here are generator-only, so every engine steps
them a cycle at a time and the block under test sees the windows they
make: a :class:`Slicer` or a :class:`Relay` in front of it cuts its
input, a :class:`Probe` behind it (or a :func:`woken` class) keeps it
current every cycle.  :func:`window_log` and
:func:`assert_windows_sliced` check, wall-clock-free, that the cuts
reached it.

``tests/conftest.py`` puts this directory on ``sys.path``; import it as
``from blockkit import ...``.
"""

import importlib
import inspect
import math
import pkgutil
from collections import Counter
from contextlib import contextmanager

import repro.blocks
from repro.blocks import Block, StreamFeeder
from repro.sim import BACKENDS, FunctionalEngine
from repro.streams import Channel
from repro.streams.token import is_done

#: every engine that models cycles on the timed plane
TIMED = tuple(
    name for name, engine in BACKENDS.items()
    if "timed" in engine.planes and not issubclass(engine, FunctionalEngine)
)
#: every engine that models no cycles (its report carries none)
UNTIMED = tuple(
    name for name, engine in BACKENDS.items() if issubclass(engine, FunctionalEngine)
)


class Relay(Block):
    """Scalar-only pass-through.  It has no timed hook, so the timed
    engines step its generator and its consumer is fed one-token
    windows, one per cycle."""

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


class Probe(Block):
    """Scalar-only consumer, one token a cycle.

    The timed engines wake a timed block when a generator needs what it
    produced; a block whose outputs nobody steps for is drained in one
    window however its input was sliced.  A probe behind the block
    under test is that generator: the block is brought current before
    every cycle's step, so its windows end where the slices do."""

    def __init__(self, in_, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            yield True
            if is_done(token):
                return


class Slicer(Block):
    """Scalar-only source pushing its tokens in slices, idling between.

    *plan* is ``[(size, gap), ...]``: push *size* tokens, idle *gap*
    cycles; whatever the plan leaves is pushed last.  It has no timed
    hook, so every engine steps its generator: the block downstream sees
    windows that end wherever a slice does — mid-fiber, between a
    coordinate and its references, after the stop.
    """

    def __init__(self, tokens, plan, out, name):
        super().__init__(name)
        self.tokens, self.plan = list(tokens), plan
        self.out = self._out("out", out)

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


def fed(tokens, channel, name, relay=False):
    """A ``StreamFeeder`` playing *tokens* onto *channel* — through a
    scalar :class:`Relay`, one token a cycle, when *relay*."""
    if not relay:
        return [StreamFeeder(list(tokens), channel, name=name)]
    raw = Channel(f"{name}_raw", kind=channel.kind)
    return [StreamFeeder(list(tokens), raw, name=name),
            Relay(raw, channel, f"{name}_relay")]


def probes(outs):
    """One :class:`Probe` behind each of *outs*."""
    return [Probe(ch, f"probe_{ch.name}") for ch in outs]


def woken(cls):
    """*cls* as a block the timed engines keep current every cycle.

    For a block under test with no output to put a :class:`Probe`
    behind (writers, sinks): the engines bring a block that declares it
    may leave the timed plane, and everything timed upstream of it,
    current every cycle — the test-only subclass declares just that."""
    return type(cls.__name__, (cls,), {"timed_may_bail": True})


@contextmanager
def window_log():
    """``(noted, taken)`` counters by channel name while a timed engine
    runs: the cycles in which a generator's pushes were noted for a
    timed reader, and the non-empty stamped windows handed to one."""
    noted, taken = Counter(), Counter()
    real_note, real_take = Channel.note_pushes, Channel.timed_take

    def note(channel, stamp, kind):
        noted[channel.name] += 1
        return real_note(channel, stamp, kind)

    def take(channel):
        window = real_take(channel)
        taken[channel.name] += bool(window)
        return window

    Channel.note_pushes, Channel.timed_take = note, take
    try:
        yield noted, taken
    finally:
        Channel.note_pushes, Channel.timed_take = real_note, real_take


def assert_windows_sliced(log, source, reader=None, pushes=None):
    """Each cycle's pushes on the channel named *source* made a window
    of their own on *reader* (default: the same channel; another one
    when a timed block sits in between): the delivery still cuts the
    windows of the block under test, wall-clock-free.  *pushes* is how
    many of them the reader lives to see, when a ``D`` ends it early."""
    noted, taken = log
    if pushes is None:
        pushes = noted[source]
    assert noted[source] >= pushes > 0, (source, noted)
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
