"""ALUs: streaming arithmetic on value streams (Definition 3.6).

An ALU consumes two value streams and produces one, applying add,
subtract or multiply element-wise.  Empty (``N``) tokens are treated as
zeros, which is what makes union-merged addition work: the unioner emits
``N`` references for absent operands, arrays turn them into ``N`` values,
and the adder treats them as 0.

:class:`ScalarALU` is the one-input variant used for scalar coefficients
(``alpha * ...``): a constant folded into the block.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from ..streams.channel import Channel
from ..streams.timing import (
    common_front,
    consume,
    front_fibers,
    front_stream,
    pair_chunks,
    token_order_indices,
)
from ..streams.token import is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
}

def _as_number(token) -> float:
    """Value of a data token, with ``N`` reading as zero."""
    return 0.0 if is_empty(token) else token


def _is_value(token) -> bool:
    """A datum or ``N``: what an ALU computes on."""
    return not (is_stop(token) or is_done(token))


def _paired(side, pick):
    """An operand view's data and stamps, pair by pair (*pick*: the
    pairing's index of each, None for the identity)."""
    if pick is None:
        return side.data, side.sdata
    return side.data[pick], side.sdata[pick]


class ALU(Block):
    """Two-input streaming ALU."""

    primitive = "alu"

    port_specs = (
        PortSpec('in_a', 'in', kind='vals'),
        PortSpec('in_b', 'in', kind='vals'),
        PortSpec('out', 'out', kind='vals'),
    )
    # Elementwise zip: both operand streams must share one shape.
    stream_xfer = StreamXfer(
        ins=(("in_a", "d"), ("in_b", "d")),
        outs=(("out", "vals", "d"),),
    )

    def __init__(
        self,
        op: str,
        in_a: Channel,
        in_b: Channel,
        out: Channel,
        name: str = "",
    ):
        super().__init__(name or f"alu_{op}")
        if op not in OPERATORS:
            raise BlockError(f"unknown ALU op {op!r} (choose from {sorted(OPERATORS)})")
        self.op = op
        self._fn: Callable = OPERATORS[op]
        self.in_a = self._in("in_a", in_a)
        self.in_b = self._in("in_b", in_b)
        self.out = self._out("out", out)

    # -- protocol checks, shared by both definitions ----------------------
    def _check_phantom(self, a, b) -> None:
        """The operand that is a value while the other is not is a phantom:
        a zero-policy reducer facing a completely empty region emits an
        unavoidable 0.0 with no counterpart on the other operand (the
        region has no coordinates at all).  It must be zero."""
        if _as_number(a if _is_value(a) else b) != 0.0:
            raise BlockError(f"{self.name}: misaligned value streams ({a!r} vs {b!r})")

    def _check_close(self, a, b) -> None:
        """A boundary pairs a stop with a stop of its level, ``D`` with ``D``."""
        if is_stop(a) and is_stop(b):
            if a.level != b.level:
                raise BlockError(f"{self.name}: misaligned stops {a!r} vs {b!r}")
        elif not (is_done(a) and is_done(b)):
            raise BlockError(f"{self.name}: misaligned value streams ({a!r} vs {b!r})")

    def _run(self):
        while True:
            a = yield from self._get(self.in_a)
            b = yield from self._get(self.in_b)
            while _is_value(a) != _is_value(b):  # phantoms are discarded
                self._check_phantom(a, b)
                if _is_value(a):
                    a = yield from self._get(self.in_a)
                else:
                    b = yield from self._get(self.in_b)
            if _is_value(a):
                self.out.push(self._fn(_as_number(a), _as_number(b)))
            else:
                self._check_close(a, b)
                self.out.push(a)
            yield True
            if is_done(a):
                return

    timing = TimingDescriptor(fuse_role="zip")

    def plan_tag(self):
        return ("alu", self.op)

    def drain_timed(self) -> bool:
        """Timed drain: one pairing, one schedule, one push.

        A visit takes every chunk (a run closed by a control token) that
        is complete on both operands, through the first ``D``, and the
        pairs of the open chunk whose two operands have arrived: the
        generator pushes each result the cycle it pops the pair.  A pair
        is one event gated by both operands, a terminator pair one gated
        by both terminators.  Phantom zeros, on either side, are no
        events: the generator pops them inside their boundary's cycle,
        and stamps never decrease along a stream, so the terminator
        behind them already gates it.  A chunk that does not pair up
        raises ``_run``'s error (:meth:`_raise_dirty`).
        """
        if self.finished:
            return False
        windows = []
        for channel in (self.in_a, self.in_b):
            reader = self._treader(channel)
            reader.densify_empty(0.0)
            windows.append(reader.held_window())
        if windows[0] is None or windows[1] is None:
            return False
        a, b = common_front([front_stream(w) for w in windows])
        k = len(a.codes)
        if not k + a.tail:
            return False
        pairing = pair_chunks(a, b, phantoms=(True, True))
        if pairing.clean < k:
            self._raise_dirty(windows, pairing.clean)
        (va, sa), (vb, sb) = _paired(a, pairing.crd_pick), _paired(b, pairing.pick)
        ends = a.ends  # without phantoms on a, its runs are the pairs
        if pairing.crd_pick is not None:
            ends = np.minimum(a.lens, b.lens).cumsum()
        di, ci = token_order_indices(ends, len(va))
        arrivals = np.empty(len(va) + k, dtype=np.int64)
        cd, cc = np.maximum(sa, sb), np.maximum(a.scodes, b.scodes)
        arrivals[di], arrivals[ci] = cd, cc
        c = self._t_advance(arrivals)
        if c is not arrivals:  # else the arrivals are the schedule
            cd, cc = c[di], c[ci]
        out = self._tbuilder(self.out)
        out.data_with_ctrl(self._fn(va, vb), ends, a.codes, cd, cc)
        out.flush()
        for window, view in zip(windows, (a, b)):
            consume(window, *view.span)
        self.finished = a.done
        return True

    def _raise_dirty(self, windows, f: int):
        """Raise the protocol error of chunk *f*, the first that does not
        pair up: ``_run``'s checks over its tokens, in their order."""
        a, b = (iter(front_fibers(w, f + 1).tokens(f)) for w in windows)
        x, y = next(a), next(b)
        while _is_value(x) and _is_value(y):
            x, y = next(a), next(b)
        while _is_value(x) != _is_value(y):
            self._check_phantom(x, y)
            if _is_value(x):
                x = next(a)
            else:
                y = next(b)
        self._check_close(x, y)


class ScalarALU(Block):
    """One-input ALU with a folded constant (e.g. ``alpha * v``)."""

    primitive = "alu"

    port_specs = (
        PortSpec('in_a', 'in', kind='vals'),
        PortSpec('out', 'out', kind='vals'),
    )
    stream_xfer = StreamXfer(
        ins=(("in_a", "d"),),
        outs=(("out", "vals", "d"),),
    )

    def __init__(
        self,
        op: str,
        constant: float,
        in_a: Channel,
        out: Channel,
        name: str = "",
    ):
        super().__init__(name or f"alu_{op}_const")
        if op not in OPERATORS:
            raise BlockError(f"unknown ALU op {op!r} (choose from {sorted(OPERATORS)})")
        self.op = op
        self.constant = float(constant)
        self._fn: Callable = OPERATORS[op]
        self.in_a = self._in("in_a", in_a)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            a = yield from self._get(self.in_a)
            if is_data(a) or is_empty(a):
                self.out.push(self._fn(_as_number(a), self.constant))
            else:
                self.out.push(a)
            yield True
            if is_done(a):
                return

    timing = TimingDescriptor(fuse_role="map")

    def plan_tag(self):
        return ("scalar_alu", self.op, self.constant)

    def map_parts(self):
        fn, const = self._fn, self.constant
        return (lambda run: fn(run, const)), fn(0.0, const)

    def drain_timed(self) -> bool:
        """Timed drain: uniform rate-1 unary map (one token, one cycle)."""
        if self.finished:
            return False
        return self._t_unary_window(
            self.in_a, self._tbuilder(self.out), *self.map_parts()
        )


class Exp(Block):
    """Pass-through unary map block (utility for custom element-wise ops)."""

    primitive = "alu"

    port_specs = (
        PortSpec('in_a', 'in', kind='vals'),
        PortSpec('out', 'out', kind='vals'),
    )
    stream_xfer = StreamXfer(
        ins=(("in_a", "d"),),
        outs=(("out", "vals", "d"),),
    )

    def __init__(self, fn: Callable, in_a: Channel, out: Channel, name: str = "map"):
        super().__init__(name)
        self._fn = fn
        self.in_a = self._in("in_a", in_a)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            a = yield from self._get(self.in_a)
            if is_data(a) or is_empty(a):
                self.out.push(self._fn(_as_number(a)))
            else:
                self.out.push(a)
            yield True
            if is_done(a):
                return

    timing = TimingDescriptor(fuse_role="map")

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
