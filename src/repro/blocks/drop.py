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

from ..streams.batch import CODE_DATA, CODE_DONE, NO_TOKEN, filled
from ..streams.channel import Channel
from ..streams.timing import (
    align_chunks,
    common_front,
    consume,
    front_fibers,
    front_stream,
    index_ramp,
    pair_chunks,
    stream_view,
    view_token,
)
from ..streams.token import (
    DONE,
    Stop,
    is_data,
    is_done,
    is_empty,
    is_stop,
    show_value,
)
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
        #: timed-drain state: level of the lazily-held inner boundary
        #: stop, -1 while none is held
        self._cd_held = -1
        #: timed-drain state: level of the last fiber's closing stop while
        #: the outer stop it folds is still to come, else -1
        self._cd_fold = -1

    def _effectual(self, data, value):
        """Whether a token keeps its fiber alive (scalars or arrays):
        *data* says it is a data token, *value* is the token."""
        return data & (value != 0) if self.drop_zeros else data

    def _merge_held(
        self, held: Optional[Stop], stop: Stop, dropped: bool
    ) -> Optional[Stop]:
        """Combine a fiber's terminating stop into the lazily-held boundary."""
        if not dropped:
            return stop
        if held is not None:
            return Stop(max(held.level, stop.level))
        # Nothing emitted before this dropped fiber; a boundary only
        # materialises if a later fiber survives — unless it also closes
        # an outer level, which must stay visible.
        return stop if stop.level > 0 else None

    timing = TimingDescriptor()

    def drain_timed(self) -> bool:
        """Timed drain: one alignment, one schedule, one push per output.

        :meth:`_drop_window` takes every inner fiber that is complete and
        owned; an open fiber stays held (nothing leaves before its
        decision).  The outer stop the last fiber folds may come later,
        as in ``_run``, which pops it after the decision: it is then the
        next visit's first event.  What is left in front is a wait, the
        closing ``D`` pair or a protocol error — ``_run``'s own checks
        raise it.
        """
        if self.finished:
            return False
        rd_out = self._treader(self.in_outer_crd)
        rd_in = self._treader(self.in_inner)
        outs = self._tbuilder(self.out_outer_crd), self._tbuilder(self.out_inner)
        if rd_out.held_window() is None:  # every step pops the outer stream
            return False
        progressed = False
        again = True
        while again:
            if self._cd_fold >= 0:
                nxt, s = rd_out.peek()
                if nxt is NO_TOKEN:
                    break
                self._check_fold(Stop(self._cd_fold), nxt)
                rd_out.pop()
                outs[0].ctrl(nxt.level, self._t_event(s))
                self._cd_fold = -1
                progressed = True
            windows = rd_out.held_window(), rd_in.held_window()
            ov, iv = (stream_view(window) for window in windows)
            used, taken, again = self._drop_window(ov, iv, outs)
            consume(windows[0], *ov.span(used))
            consume(windows[1], *iv.span(taken))
            progressed |= taken > 0
        outer, s_o = rd_out.peek()
        inner, s_i = rd_in.peek()
        if outer is NO_TOKEN:
            pass  # waiting for the outer stream
        elif self._cd_fold >= 0:  # a D where the fold belongs
            self._check_fold(Stop(self._cd_fold), outer)
        elif not (is_stop(outer) or is_done(outer)):
            # an owner whose fiber the window left: open, cut short by
            # D, or closed by a stop that does not fold the next token
            closers = iv.code[taken:][iv.code[taken:] >= 0]
            if len(closers):
                self._check_fold(Stop(int(closers[0])), view_token(ov, used + 1))
            elif iv.done:
                raise self._mid_fiber()
        elif inner is NO_TOKEN:
            pass  # waiting for the inner stream
        elif is_done(outer):
            self._check_done(inner)
            rd_out.pop()
            rd_in.pop()
            cyc = self._t_event(max(s_o, s_i))
            if self._cd_held >= 0:
                outs[1].ctrl(self._cd_held, cyc)
                self._cd_held = -1
            for out in outs:
                out.ctrl(CODE_DONE, cyc)
            self.finished = progressed = True
        else:
            self._check_bare(outer, inner)
        for out in outs:
            out.flush()
        return progressed

    def _drop_window(self, ov, iv, outs):
        """Gather, decide and emit the aligned prefix of the two views.

        Events, in order: every inner token — a fiber's closing stop is
        its emit/drop decision, its first token is also gated by the
        owner's arrival — and behind an elevated stop the outer stop it
        folds (the last one's in ``_cd_fold`` when it is still to come).
        A fiber survives if any of its tokens is effectual;
        everything a survivor emits (its coordinate, the boundary held
        back in front of it, its body) carries the decision cycle.  A
        bare outer stop passes through at the cycle of the empty fiber
        it pairs with.  Returns ``(outer tokens, inner tokens, again)``.
        """
        aligned = align_chunks(ov.code, iv.code)
        owner, fold, ends = aligned.owner, aligned.fold, aligned.ends
        if len(ends) == 0:
            return 0, 0, False
        used, taken = aligned.used, int(ends[-1]) + 1
        code, value = iv.code[:taken], iv.value[:taken]
        level, first = code[ends], np.concatenate(([0], ends[:-1] + 1))
        if aligned.unfolded:
            self._cd_fold = int(level[-1])
        chunk = index_ramp(len(ends)).repeat(ends + 1 - first)
        folds = fold >= 0
        shift = folds.cumsum() - folds  # fold events in front of a chunk
        arrivals = np.empty(taken + int(np.count_nonzero(folds)), dtype=np.int64)
        arrivals[index_ramp(taken) + shift[chunk]] = iv.stamp[:taken]
        heads = first + shift
        arrivals[heads] = np.maximum(arrivals[heads], ov.stamp[owner])
        fold_at = (ends + shift + 1)[folds]
        arrivals[fold_at] = ov.stamp[fold[folds]]
        cycles = self._t_advance(arrivals)
        decided = cycles[ends + shift]

        alive = np.logical_or.reduceat(self._effectual(code == CODE_DATA, value), first)
        bare = ov.code[owner] >= 0
        self.dropped += int(np.count_nonzero(~(alive | bare)))
        keep = filled(used, True, bool)
        keep[owner] = alive | bare
        stamp = np.empty(used, dtype=np.int64)
        stamp[owner] = decided
        stamp[fold[folds]] = cycles[fold_at]
        outs[0].stream(ov.code[:used][keep], ov.value[:used][keep], stamp[keep])

        # The held boundary is a running max of the closing levels that
        # a survivor resets (_merge_held; -1 is "none", and so is what a
        # dropped S0 adds): offsetting each survivor's segment by more
        # than the level range makes it one accumulate.
        segment = alive.cumsum()
        big = max(int(np.maximum.reduce(level)), self._cd_held) + 2
        run = np.where(alive | (level > 0), level, -1) + segment * big
        run = np.maximum.accumulate(np.concatenate(([self._cd_held], run)))
        before = run[:-1] - (segment - alive) * big  # held in front of a chunk
        self._cd_held = int(run[-1] - segment[-1] * big)
        # a survivor's boundary rides in the slot of the stop before it
        emit = alive & (before >= 0)
        if emit[0]:
            outs[1].ctrl(int(before[0]), int(decided[0]))
        keep = alive[chunk]
        keep[ends] = False
        keep[ends[:-1]] = emit[1:]
        code, stamp = code.copy(), decided[chunk]
        code[ends[:-1]] = before[1:]
        stamp[ends[:-1]] = decided[1:]
        outs[1].stream(code[keep], value[keep], stamp[keep])
        return used, taken, aligned.again

    # -- protocol checks, shared by both definitions ----------------------
    def _mid_fiber(self) -> BlockError:
        return BlockError(f"{self.name}: inner stream ended mid-fiber")

    def _check_done(self, inner) -> None:
        if not is_done(inner):
            raise BlockError(
                f"{self.name}: inner stream out of sync at D, got {inner!r}"
            )

    def _check_bare(self, outer, inner) -> None:
        """An outer stop no fiber folded pairs with a bare elevated stop."""
        if not (is_stop(inner) and inner.level == outer.level + 1):
            raise BlockError(
                f"{self.name}: outer stop {outer!r} expects inner stop "
                f"S{outer.level + 1}, got {inner!r}"
            )

    def _check_fold(self, fiber_stop, nxt) -> None:
        """An elevated fiber stop folds the outer stream's next stop."""
        if not (is_stop(nxt) and nxt.level == fiber_stop.level - 1):
            raise BlockError(
                f"{self.name}: inner stop {fiber_stop!r} expects outer "
                f"stop S{fiber_stop.level - 1}, got {nxt!r}"
            )

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
                self._check_done(inner)
                if held_stop is not None:
                    self.out_inner.push(held_stop)
                self.out_outer_crd.push(DONE)
                self.out_inner.push(DONE)
                yield True
                return
            if is_stop(outer):
                # Empty outer region: consume the matching elevated stop.
                inner = yield from self._get(self.in_inner)
                self._check_bare(outer, inner)
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
                    raise self._mid_fiber()
                fiber.append(token)
                yield True
            if any(self._effectual(is_data(tok), tok) for tok in fiber):
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
                self._check_fold(fiber_stop, nxt)
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
        """Timed drain: one pairing, one schedule, one push per output.

        A visit takes every chunk (a run closed by a control token) that
        is complete on both streams, up to the first ``D``, and then the
        pairs of the open chunk whose two tokens have arrived: a reader
        behind the dropper sees each pair the cycle the generator pushes
        it, so no pair waits for its chunk's terminator.  Phantom values
        do: they emit nothing.  Events, in stream order: a pair is one,
        gated by both its tokens; each phantom is one, the first also
        gated by the coordinate terminator popped in front of it; the
        terminator pair is one, and ``D`` finishes the block.  So the
        events are the value stream's tokens in order.  A chunk that does
        not pair up raises ``_run``'s error (:meth:`_raise_dirty`).
        """
        if self.finished:
            return False
        readers = self._treader(self.in_crd), self._treader(self.in_val)
        readers[1].densify_empty(0.0)
        windows = [reader.held_window() for reader in readers]
        if windows[0] is None or windows[1] is None:
            return False
        # the block ends at the first D; what follows it stays held
        crd, val = common_front([front_stream(w) for w in windows])
        k = len(crd.codes)
        if not k + crd.tail:
            return False
        pairing = pair_chunks(crd, val)
        if pairing.clean < k:
            self._raise_dirty(windows, pairing.clean)
        self._drop_window(crd, val, pairing.pick)
        for window, view in zip(windows, (crd, val)):
            consume(window, *view.span)
        self.finished = crd.done
        return True

    def _drop_window(self, crd, val, pick) -> None:
        """Schedule and emit paired chunks and the open pairs of the tail.

        The events are the value tokens in stream order: the terminators
        sit at ``val.ends + chunk``, the values fill the rest.
        """
        vals, k = val.data, len(val.codes)
        ends = val.ends + index_ramp(k)
        on_value = filled(len(vals) + k, True, bool)
        on_value[ends] = False
        arrivals = np.empty(len(on_value), dtype=np.int64)
        arrivals[ends] = np.maximum(crd.scodes, val.scodes)
        if pick is None:
            arrivals[on_value] = np.maximum(crd.sdata, val.sdata)
        else:
            arrivals[on_value] = val.sdata
            at = on_value.nonzero()[0][pick]
            arrivals[at] = np.maximum(crd.sdata, val.sdata[pick])
            first = ends - (val.lens - crd.lens)  # a chunk's first phantom
            arrivals[first] = np.maximum(arrivals[first], crd.scodes)
            vals = vals[pick]
        cycles = self._t_advance(arrivals)
        crds, cpos = crd.data, crd.ends
        zero = (vals == 0).nonzero()[0]  # the pairs dropped
        if len(zero):
            self.dropped += len(zero)
            keep = filled(len(vals), True, bool)
            keep[zero] = False
            crds, vals = crds[keep], vals[keep]
            cpos = cpos - zero.searchsorted(cpos)
            if pick is None:
                on_value[zero + val.ends.searchsorted(zero, "right")] = False
            else:
                at = at[keep]
        stamps = cycles[on_value] if pick is None else cycles[at]
        for channel, data in ((self.out_crd, crds), (self.out_val, vals)):
            out = self._tbuilder(channel)
            out.data_with_ctrl(data, cpos, crd.codes, stamps, cycles[ends])
            out.flush()

    def _raise_dirty(self, windows, f: int):
        """Raise the protocol error of chunk *f*, the first that does not
        pair up: ``_run``'s checks over its tokens, in their order."""
        crds, vals = (front_fibers(w, f + 1).tokens(f) for w in windows)
        vals = iter(vals)
        for _ in crds[:-1]:
            self._check_pair(next(vals))
        other = next(vals)
        while is_data(other):
            self._check_phantom(other)
            other = next(vals)
        self._check_close(crds[-1], other)

    # -- protocol checks, shared by both definitions ----------------------
    def _check_pair(self, val) -> None:
        """A data coordinate pairs with a value, not a control token."""
        if is_stop(val) or is_done(val):
            raise BlockError(
                f"{self.name}: value stream ran out mid-fiber ({val!r})"
            )

    def _check_phantom(self, val) -> None:
        """A value without a coordinate must be a (phantom) zero."""
        if not is_empty(val) and val != 0:
            raise BlockError(
                f"{self.name}: non-zero value {show_value(val)} has no coordinate"
            )

    def _check_close(self, crd, val) -> None:
        """A boundary pairs a stop with a stop of its level, ``D`` with ``D``."""
        if is_stop(crd) and is_stop(val):
            if crd.level != val.level:
                raise BlockError(f"{self.name}: misaligned stops {crd!r}/{val!r}")
        elif not (is_done(crd) and is_done(val)):
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
                self._check_pair(val)
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
                if is_stop(val) or is_done(val):
                    break
                self._check_phantom(val)
                yield True
            self._check_close(crd, val)
            self.out_crd.push(crd)
            self.out_val.push(val)
            yield True
            if is_done(crd):
                return
