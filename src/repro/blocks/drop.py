"""Coordinate droppers (Definition 3.9, Figure 8).

Ineffectual merges (empty intersections, zero values) leave outer-level
result coordinates with nothing underneath them.  The coordinate dropper
pairs each outer coordinate with its inner fiber and removes both when
the fiber is empty, merging the freed stop tokens into the surrounding
boundary — exactly the Figure 8 transformation, where coordinate 2 and
its ``S0, S0`` empty fiber disappear and the trailing ``S0`` is promoted.

Two modes:

* *fiber mode* (the Figure 8 / Figure 4 block): the inner stream is one
  nesting level deeper than the outer coordinate stream; a fiber is
  dropped when it contains no data tokens.
* *value mode* (the "droppers with value stream inputs" of section 3.7):
  the inner stream is a value stream at the *same* level, one value per
  outer coordinate; pairs whose value is zero (or ``N``) are dropped.
  This is the dropper scalar-reduced expressions like SpMV need.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..streams.batch import CODE_DONE, CODE_EMPTY, NO_TOKEN, TokenBatch
from ..streams.channel import Channel
from ..streams.timing import _concat_i64
from ..streams.token import DONE, Stop, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor


class CoordDropper(Block):
    """Fiber-mode coordinate dropper."""

    primitive = "crd_drop"

    port_specs = (
        PortSpec('in_outer_crd', 'in', kind='crd'),
        PortSpec('in_inner', 'in', kind=None),
        PortSpec('out_outer_crd', 'out', kind='crd'),
        PortSpec('out_inner', 'out', kind=None),
    )
    # Fiber mode: the inner stream is one nesting level deeper than the
    # outer coordinates it hangs under (Figure 8); dropping empty fibers
    # removes tokens but not levels.
    stream_xfer = StreamXfer(
        ins=(("in_outer_crd", "d"), ("in_inner", "d+1")),
        outs=(("out_outer_crd", "crd", "d"), ("out_inner", "=in_inner", "d+1")),
    )

    def __init__(
        self,
        in_outer_crd: Channel,
        in_inner: Channel,
        out_outer_crd: Channel,
        out_inner: Channel,
        drop_zeros: bool = False,
        name: str = "crddrop",
    ):
        super().__init__(name)
        self.in_outer_crd = self._in("in_outer_crd", in_outer_crd)
        self.in_inner = self._in("in_inner", in_inner)
        self.out_outer_crd = self._out("out_outer_crd", out_outer_crd)
        self.out_inner = self._out("out_inner", out_inner)
        #: when the inner stream is a value stream, also treat explicit
        #: zeros as ineffectual
        self.drop_zeros = drop_zeros
        self.dropped = 0
        #: timed-drain state: lazily-held inner boundary stop and a
        #: pending fold level (elevated fiber stop owing its outer stop)
        self._cd_held: Optional[Stop] = None
        self._cd_fold: Optional[int] = None

    def _effectual(self, fiber: List) -> bool:
        if self.drop_zeros:
            return any(is_data(tok) and tok != 0 for tok in fiber)
        return any(is_data(tok) for tok in fiber)

    def _merge_held(self, held: Optional[Stop], stop: Stop, dropped: bool) -> Optional[Stop]:
        """Combine a fiber's terminating stop into the lazily-held boundary."""
        if not dropped:
            return stop
        if held is not None:
            return Stop(max(held.level, stop.level))
        # Nothing emitted before this dropped fiber; a boundary only
        # materialises if a later fiber survives — unless it also closes
        # an outer level, which must stay visible.
        return stop if stop.level > 0 else None

    def _effectual_batch(self, fiber: TokenBatch) -> bool:
        if self.drop_zeros:
            return bool(np.any(fiber.data != 0))
        return len(fiber.data) > 0

    timing = TimingDescriptor()

    def _timed_bail_safe(self) -> bool:
        return (
            super()._timed_bail_safe()
            and self._cd_held is None
            and self._cd_fold is None
        )

    @staticmethod
    def _pop_fiber_timed(reader):
        """Pop one complete inner fiber with its stamps:
        ``(fiber_batch, body_stamps, closing_code, closing_stamp)``.

        Empty (``N``) tokens belong to the fiber body; the fiber closes
        at the first stop (or done) control token.  The body stamps are
        in stream order (the gather-cycle gates).  Returns None without
        consuming anything when the window holds no complete fiber yet.
        """
        ready = False
        for batch, _, _ in reader.held:
            _, _, ccode = batch.remaining_arrays()
            if np.any(ccode != CODE_EMPTY):
                ready = True
                break
        if not ready:
            return None
        datas: List[np.ndarray] = []
        cpos: List[int] = []
        ccode_out: List[int] = []
        ev_stamps: List[np.ndarray] = []
        n = 0
        while True:
            run, s_run = reader.pop_run()
            if len(run):
                datas.append(run)
                ev_stamps.append(s_run)
                n += len(run)
            code = reader.front_ctrl()
            _, s_ctrl = reader.pop()
            if code == CODE_EMPTY:
                cpos.append(n)
                ccode_out.append(CODE_EMPTY)
                ev_stamps.append(np.asarray([s_ctrl], dtype=np.int64))
                continue
            fiber = TokenBatch(
                np.concatenate(datas) if datas else np.empty(0, dtype=np.int64),
                np.asarray(cpos, dtype=np.int64),
                np.asarray(ccode_out, dtype=np.int64),
            )
            return fiber, _concat_i64(ev_stamps), code, s_ctrl

    def drain_timed(self) -> bool:
        """Timed drain: gather one cycle per inner body token, then emit
        (or drop) the whole fiber in one burst cycle at the closing stop.
        """
        if self.finished:
            return False
        rd_out = self._treader(self.in_outer_crd)
        rd_in = self._treader(self.in_inner)
        out_outer = self._tbuilder(self.out_outer_crd)
        out_inner = self._tbuilder(self.out_inner)
        progressed = False

        def park(channel):
            out_outer.flush()
            out_inner.flush()
            self._wait = (channel, "data")
            return progressed

        while True:
            if self._cd_fold is not None:
                nxt, s_n = rd_out.peek()
                if nxt is NO_TOKEN:
                    return park(self.in_outer_crd)
                fold = self._cd_fold
                if not (is_stop(nxt) and nxt.level == fold - 1):
                    raise BlockError(
                        f"{self.name}: inner stop {Stop(fold)!r} expects outer "
                        f"stop S{fold - 1}, got {nxt!r}"
                    )
                rd_out.pop()
                cyc = self._t_event(s_n)
                out_outer.ctrl(nxt.level, cyc)
                self._cd_fold = None
                progressed = True
                continue
            outer, s_o = rd_out.peek()
            if outer is NO_TOKEN:
                return park(self.in_outer_crd)
            if is_done(outer):
                inner, s_i = rd_in.peek()
                if inner is NO_TOKEN:
                    return park(self.in_inner)
                rd_out.pop()
                rd_in.pop()
                cyc = self._t_event(max(s_o, s_i))
                progressed = True
                if not is_done(inner):
                    raise BlockError(
                        f"{self.name}: inner stream out of sync at D, got {inner!r}"
                    )
                if self._cd_held is not None:
                    out_inner.ctrl(self._cd_held.level, cyc)
                    self._cd_held = None
                out_outer.ctrl(CODE_DONE, cyc)
                out_inner.ctrl(CODE_DONE, cyc)
                out_outer.flush()
                out_inner.flush()
                self.finished = True
                self._wait = None
                return True
            if is_stop(outer):
                inner, s_i = rd_in.peek()
                if inner is NO_TOKEN:
                    return park(self.in_inner)
                rd_out.pop()
                rd_in.pop()
                cyc = self._t_event(max(s_o, s_i))
                progressed = True
                if not (is_stop(inner) and inner.level == outer.level + 1):
                    raise BlockError(
                        f"{self.name}: outer stop {outer!r} expects inner stop "
                        f"S{outer.level + 1}, got {inner!r}"
                    )
                self._cd_held = (
                    Stop(max(self._cd_held.level, inner.level))
                    if self._cd_held is not None
                    else inner
                )
                out_outer.ctrl(outer.level, cyc)
                continue
            # Outer coordinate: it owns the next complete inner fiber.
            popped = self._pop_fiber_timed(rd_in)
            if popped is None:
                return park(self.in_inner)
            fiber, ev_stamps, closing, s_close = popped
            if closing == CODE_DONE:
                raise BlockError(f"{self.name}: inner stream ended mid-fiber")
            rd_out.pop()
            # Gather cycles: one per body token, the first also gated by
            # the outer coordinate's pop (no yield between those pops).
            if len(ev_stamps):
                arrivals = ev_stamps.copy()
                if s_o > arrivals[0]:
                    arrivals[0] = s_o
                self._t_advance(arrivals)
            else:
                self._t_defer(s_o)
            cyc = self._t_event(s_close)  # the emit/drop decision cycle
            progressed = True
            if self._effectual_batch(fiber):
                out_outer.token(outer, cyc)
                if self._cd_held is not None:
                    out_inner.ctrl(self._cd_held.level, cyc)
                data, cpos, ccode = fiber.remaining_arrays()
                stamps = np.full(len(data), cyc, dtype=np.int64)
                cstamps = np.full(len(ccode), cyc, dtype=np.int64)
                out_inner.data_with_ctrl(data, cpos, ccode, stamps, cstamps)
                self._cd_held = Stop(closing)
            else:
                self.dropped += 1
                self._cd_held = self._merge_held(
                    self._cd_held, Stop(closing), dropped=True
                )
            if closing >= 1:
                self._cd_fold = closing

    def _run(self):
        # The inner stream mirrors the outer one: each outer coordinate
        # owns one inner fiber, and the fiber's terminating stop, when
        # elevated (level >= 1), folds the outer stream's following stop
        # token (the Figure 8 pairing).  A bare outer stop (an empty
        # outer region) pairs with a bare elevated inner stop.
        held_stop: Optional[Stop] = None  # lazily emitted inner boundary
        while True:
            outer = yield from self._get(self.in_outer_crd)
            if is_done(outer):
                inner = yield from self._get(self.in_inner)
                if not is_done(inner):
                    raise BlockError(
                        f"{self.name}: inner stream out of sync at D, got {inner!r}"
                    )
                if held_stop is not None:
                    self.out_inner.push(held_stop)
                self.out_outer_crd.push(DONE)
                self.out_inner.push(DONE)
                yield True
                return
            if is_stop(outer):
                # Empty outer region: consume the matching elevated stop.
                inner = yield from self._get(self.in_inner)
                if not (is_stop(inner) and inner.level == outer.level + 1):
                    raise BlockError(
                        f"{self.name}: outer stop {outer!r} expects inner stop "
                        f"S{outer.level + 1}, got {inner!r}"
                    )
                held_stop = (
                    Stop(max(held_stop.level, inner.level))
                    if held_stop is not None
                    else inner
                )
                self.out_outer_crd.push(outer)
                yield True
                continue
            # Outer coordinate: gather its inner fiber up to the next stop.
            fiber: List = []
            while True:
                token = yield from self._get(self.in_inner)
                if is_stop(token):
                    fiber_stop = token
                    break
                if is_done(token):
                    raise BlockError(f"{self.name}: inner stream ended mid-fiber")
                fiber.append(token)
                yield True
            if self._effectual(fiber):
                self.out_outer_crd.push(outer)
                if held_stop is not None:
                    self.out_inner.push(held_stop)
                for token in fiber:
                    self.out_inner.push(token)
                held_stop = fiber_stop
            else:
                self.dropped += 1
                held_stop = self._merge_held(held_stop, fiber_stop, dropped=True)
            yield True
            if fiber_stop.level >= 1:
                # The elevated fiber stop folds the outer boundary: pull
                # the outer stream's matching stop token through.
                nxt = yield from self._get(self.in_outer_crd)
                if not (is_stop(nxt) and nxt.level == fiber_stop.level - 1):
                    raise BlockError(
                        f"{self.name}: inner stop {fiber_stop!r} expects outer "
                        f"stop S{fiber_stop.level - 1}, got {nxt!r}"
                    )
                self.out_outer_crd.push(nxt)
                yield True


class ValueDropper(Block):
    """Value-mode dropper: removes (coordinate, value) pairs with zero value."""

    primitive = "crd_drop"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
        PortSpec('in_val', 'in', kind='vals'),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_val', 'out', kind='vals'),
    )
    # Value mode: one value per coordinate at the same level.
    stream_xfer = StreamXfer(
        ins=(("in_crd", "d"), ("in_val", "d")),
        outs=(("out_crd", "crd", "d"), ("out_val", "vals", "d")),
    )

    def __init__(
        self,
        in_crd: Channel,
        in_val: Channel,
        out_crd: Channel,
        out_val: Channel,
        name: str = "valdrop",
    ):
        super().__init__(name)
        self.in_crd = self._in("in_crd", in_crd)
        self.in_val = self._in("in_val", in_val)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_val = self._out("out_val", out_val)
        self.dropped = 0

    timing = TimingDescriptor()

    def drain_timed(self) -> bool:
        """Timed drain: one event per (crd, val) pair and per phantom.

        Unlike the reducers, this generator yields once per phantom zero
        drained at a boundary, so phantoms are events, not carries.
        """
        if self.finished:
            return False
        rd_c = self._treader(self.in_crd)
        rd_v = self._treader(self.in_val)
        rd_v.densify_empty(0.0)
        out_c = self._tbuilder(self.out_crd)
        out_v = self._tbuilder(self.out_val)
        progressed = False

        def park(channel):
            out_c.flush()
            out_v.flush()
            self._wait = (channel, "data")
            return progressed

        while True:
            cc = rd_c.front_ctrl()
            if cc is None:
                lc = rd_c.run_length()
                if lc == 0:
                    return park(self.in_crd)
                cv = rd_v.front_ctrl()
                if cv is None:
                    lv = rd_v.run_length()
                    if lv == 0:
                        return park(self.in_val)
                    m = min(lc, lv)
                    crds, s_c = rd_c.pop_run_upto(m)
                    vals, s_v = rd_v.pop_run_upto(m)
                    c = self._t_advance(np.maximum(s_c, s_v))
                    progressed = True
                    keep = np.asarray(vals) != 0
                    dropped = m - int(keep.sum())
                    if dropped:
                        self.dropped += dropped
                    out_c.data(crds[keep], c[keep])
                    out_v.data(vals[keep], c[keep])
                    continue
                # A data coordinate against a control value token.
                val_front, _ = rd_v.peek()
                raise BlockError(
                    f"{self.name}: value stream ran out mid-fiber ({val_front!r})"
                )
            # Boundary (stop or done): phantom zeros drain one per cycle.
            # The boundary coordinate was popped before the first phantom
            # (no yield between), so its arrival gates that event.
            _, s_peek = rd_c.peek()
            self._t_defer(s_peek)
            while True:
                cv = rd_v.front_ctrl()
                if cv is None:
                    lv = rd_v.run_length()
                    if lv == 0:
                        return park(self.in_val)
                    vals, s_v = rd_v.pop_run_upto(lv)
                    bad = np.flatnonzero(np.asarray(vals) != 0)
                    if len(bad):
                        raise BlockError(
                            f"{self.name}: non-zero value "
                            f"{vals[bad[0]]!r} has no coordinate"
                        )
                    self._t_advance(s_v)
                    progressed = True
                    continue
                break
            crd, s_c = rd_c.pop()
            val, s_v = rd_v.pop()
            cyc = self._t_event(max(s_c, s_v))
            progressed = True
            if is_done(crd) and is_done(val):
                out_c.ctrl(CODE_DONE, cyc)
                out_v.ctrl(CODE_DONE, cyc)
                out_c.flush()
                out_v.flush()
                self.finished = True
                self._wait = None
                return True
            if is_stop(crd) and is_stop(val):
                if crd.level != val.level:
                    raise BlockError(
                        f"{self.name}: misaligned stops {crd!r}/{val!r}"
                    )
                out_c.ctrl(crd.level, cyc)
                out_v.ctrl(val.level, cyc)
                continue
            raise BlockError(f"{self.name}: misaligned streams ({crd!r} vs {val!r})")

    def _run(self):
        # Driven by the coordinate stream: every coordinate pairs with one
        # value; at boundaries, phantom zeros — values a zero-policy
        # reducer emitted for regions with no coordinates at all — are
        # discarded before matching the boundary stop.
        while True:
            crd = yield from self._get(self.in_crd)
            if is_data(crd):
                val = yield from self._get(self.in_val)
                if is_stop(val) or is_done(val):
                    raise BlockError(
                        f"{self.name}: value stream ran out mid-fiber ({val!r})"
                    )
                if is_empty(val) or val == 0:
                    self.dropped += 1
                else:
                    self.out_crd.push(crd)
                    self.out_val.push(val)
                yield True
                continue
            # Boundary (stop or done): drain phantom zero values.
            while True:
                val = yield from self._get(self.in_val)
                if is_data(val) or is_empty(val):
                    if not is_empty(val) and val != 0:
                        raise BlockError(
                            f"{self.name}: non-zero value {val!r} has no coordinate"
                        )
                    yield True
                    continue
                break
            if is_done(crd) and is_done(val):
                self.out_crd.push(DONE)
                self.out_val.push(DONE)
                yield True
                return
            if is_stop(crd) and is_stop(val):
                if crd.level != val.level:
                    raise BlockError(f"{self.name}: misaligned stops {crd!r}/{val!r}")
                self.out_crd.push(crd)
                self.out_val.push(val)
                yield True
                continue
            raise BlockError(f"{self.name}: misaligned streams ({crd!r} vs {val!r})")
