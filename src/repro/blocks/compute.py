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

from ..streams.batch import CODE_DONE, decode_code
from ..streams.channel import Channel
from ..streams.timing import merge_stamps
from ..streams.token import DONE, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
}

def _as_number(token) -> float:
    """Value of a data token, with ``N`` reading as zero."""
    return 0.0 if is_empty(token) else token


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

    def _drain_phantoms(self, a, b):
        """Realign around phantom zeros.

        A zero-policy reducer facing a completely empty region emits an
        unavoidable phantom 0.0 with no counterpart on the other operand
        (the region has no coordinates at all).  Phantoms are always
        exactly zero, so they are discarded to restore alignment.
        """
        while True:
            a_is_value = is_data(a) or is_empty(a)
            b_is_value = is_data(b) or is_empty(b)
            if a_is_value == b_is_value:
                return a, b
            if a_is_value:
                if _as_number(a) != 0.0:
                    raise BlockError(
                        f"{self.name}: misaligned value streams ({a!r} vs {b!r})"
                    )
                a = yield from self._get(self.in_a)
            else:
                if _as_number(b) != 0.0:
                    raise BlockError(
                        f"{self.name}: misaligned value streams ({a!r} vs {b!r})"
                    )
                b = yield from self._get(self.in_b)

    def _run(self):
        while True:
            a = yield from self._get(self.in_a)
            b = yield from self._get(self.in_b)
            a, b = yield from self._drain_phantoms(a, b)
            if is_done(a) and is_done(b):
                self.out.push(DONE)
                yield True
                return
            if is_stop(a) and is_stop(b):
                if a.level != b.level:
                    raise BlockError(f"{self.name}: misaligned stops {a!r} vs {b!r}")
                self.out.push(a)
                yield True
                continue
            if (is_data(a) or is_empty(a)) and (is_data(b) or is_empty(b)):
                self.out.push(self._fn(_as_number(a), _as_number(b)))
                yield True
                continue
            raise BlockError(f"{self.name}: misaligned value streams ({a!r} vs {b!r})")

    timing = TimingDescriptor(fuse_role="zip")

    def plan_tag(self):
        return ("alu", self.op)

    def drain_timed(self) -> bool:
        """Timed drain: one output per cycle, gated by both operands.

        Each output event's cycle is ``max(prev + 1, arrival(a),
        arrival(b))`` — the generator pops both operands before its
        single yield.  Phantom zeros are consumed without an event; their
        arrival carries into the next event's gate.
        """
        if self.finished:
            return False
        rd_a = self._treader(self.in_a)
        rd_b = self._treader(self.in_b)
        rd_a.densify_empty(0.0)
        rd_b.densify_empty(0.0)
        out = self._tbuilder(self.out)
        fn = self._fn
        progressed = False

        def park(channel):
            out.flush()
            self._wait = (channel, "data")
            return progressed

        # Whole-window fast path: identical control structure reduces the
        # window to one vectorized op and one epoch advance.
        wa = rd_a.take_window()
        wb = rd_b.take_window()
        if wa is not None and wb is not None:
            da, pa, ca = wa[0].remaining_arrays()
            db, pb, cb = wb[0].remaining_arrays()
            if (
                len(da) == len(db)
                and np.array_equal(pa, pb)
                and np.array_equal(ca, cb)
                and (len(ca) == 0 or (ca[:-1] >= 0).all())
                and (len(ca) == 0 or ca[-1] >= CODE_DONE)
            ):
                merged_a, di, ci = merge_stamps(wa[0], wa[1], wa[2])
                merged_b, _, _ = merge_stamps(wb[0], wb[1], wb[2])
                c = self._t_advance(np.maximum(merged_a, merged_b))
                out.data_with_ctrl(fn(da, db), pa, ca, c[di], c[ci])
                if wa[0].ends_done:
                    out.flush()
                    self.finished = True
                    self._wait = None
                    return True
                progressed = True
                return park(self.in_a)
            rd_a.put_back(wa)
            rd_b.put_back(wb)
        else:
            if wa is not None:
                rd_a.put_back(wa)
            if wb is not None:
                rd_b.put_back(wb)

        while True:
            ca = rd_a.front_ctrl()
            cb = rd_b.front_ctrl()
            la = rd_a.run_length() if ca is None else 0
            lb = rd_b.run_length() if cb is None else 0
            if ca is None and la == 0:
                return park(self.in_a)
            if cb is None and lb == 0:
                return park(self.in_b)
            if ca is None and cb is None:
                m = min(la, lb)
                a, sa = rd_a.pop_run_upto(m)
                b, sb = rd_b.pop_run_upto(m)
                c = self._t_advance(np.maximum(sa, sb))
                out.data(fn(a, b), c)
                progressed = True
                continue
            if ca is not None and cb is not None:
                _, s_a = rd_a.pop()
                _, s_b = rd_b.pop()
                cyc = self._t_event(max(s_a, s_b))
                progressed = True
                if ca == CODE_DONE and cb == CODE_DONE:
                    out.ctrl(CODE_DONE, cyc)
                    out.flush()
                    self.finished = True
                    self._wait = None
                    return True
                if ca >= 0 and cb >= 0:
                    if ca != cb:
                        raise BlockError(
                            f"{self.name}: misaligned stops "
                            f"{decode_code(ca)!r} vs {decode_code(cb)!r}"
                        )
                    out.ctrl(ca, cyc)
                    continue
                raise BlockError(
                    f"{self.name}: misaligned value streams "
                    f"({decode_code(ca)!r} vs {decode_code(cb)!r})"
                )
            # Phantom-zero realignment (see _drain_phantoms): popped with
            # no event of its own; its arrival gates the next event.
            if ca is None:
                v, s = rd_a.pop()
                other = decode_code(cb)
                if v != 0.0:
                    raise BlockError(
                        f"{self.name}: misaligned value streams ({v!r} vs {other!r})"
                    )
            else:
                v, s = rd_b.pop()
                other = decode_code(ca)
                if v != 0.0:
                    raise BlockError(
                        f"{self.name}: misaligned value streams ({other!r} vs {v!r})"
                    )
            self._t_defer(s)
            progressed = True


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
