"""Reducers (Definition 3.7, Figure 7).

A reducer is configured by ``n``, the dimension of the memory needed for
the reduction:

* ``n = 0`` — :class:`ScalarReducer`: sums each innermost fiber to one
  value (inner-product style reductions);
* ``n = 1`` — :class:`VectorReducer`: accumulates a row at a time, the
  Gustavson linear-combination-of-rows workhorse (Figure 4);
* ``n = 2`` — :class:`MatrixReducer`: accumulates a whole matrix, as the
  outer-product dataflow requires.

Reducers deduplicate coordinates, sum their values, and emit the result
with unique, sorted coordinates once the reduction region closes (a stop
above the accumulation depth, or ``D``).

Empty-fiber policy (end of section 3.6): an ineffectual intersection
reaches the reducer as an empty fiber.  A scalar reducer can accumulate
it "into an explicit zero (the identity for addition)" —
``empty_policy="zero"`` — or suppress the output token so a downstream
coordinate dropper removes the dangling coordinate —
``empty_policy="drop"``.  Vector/matrix reducers always emit the region
boundary (an empty output fiber) and leave removal to droppers, which is
the configuration Table 1's dropper counts assume.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..streams.batch import (
    _EMPTY_F64,
    _EMPTY_I64,
    CODE_DONE,
    _concat_data,
    decode_code,
    exact_segment_sums,
    filled,
    sequential_segment_sums,
)
from ..streams.channel import Channel
from ..streams.timing import (
    common_front,
    consume,
    front_fibers,
    front_stream,
    index_ramp,
    pair_chunks,
    window_capacity,
)
from ..streams.token import (
    DONE,
    Stop,
    is_data,
    is_done,
    is_empty,
    is_stop,
    show_value,
    token_repr,
)
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

EMPTY_POLICIES = ("zero", "drop")


def _region_order(crds, region, sizes):
    """The stable ``(region, crd)`` order of a window's pairs.

    One stable argsort of the composite key ``region * span + (crd -
    lo)``, *lo* the smallest coordinate and *span* the coordinates'
    range; regions whose keys would not fit int64 together
    (:func:`~repro.streams.timing.window_capacity`) are sorted in
    pieces of as many as do, and a piece of one region sorts by its
    coordinates alone.
    """
    if not len(crds):
        return index_ramp(0)
    lo = int(np.minimum.reduce(crds))
    span = int(np.maximum.reduce(crds)) - lo + 1
    per = max(window_capacity(span), 1)
    ends = sizes.cumsum()
    parts = []
    for first in range(0, len(sizes), per):
        a, b = ends[first] - sizes[first], ends[min(first + per, len(sizes)) - 1]
        key = crds[a:b]
        if per > 1:
            key = (region[a:b] - first) * span + (key - lo)
        # a numpy function, not the method: the block differential counts
        # the pieces through it
        parts.append(np.argsort(key, kind="stable") + a)
    return np.concatenate(parts)


def _dedup_regions(crds, vals, sizes):
    """Unique sorted coordinates and their sums, region by region.

    *sizes* counts the ``(crd, val)`` pairs of each region, in arrival
    order.  The stable sort (:func:`_region_order`) keeps equal
    coordinates in arrival order and ``np.add.at`` is unbuffered
    (strictly in index order), so every sum is the left-to-right float64
    sum the generator's ``table[crd] = table.get(crd, 0.0) + val``
    computes — bit-identical, ``-0.0``, NaN and the infinities included.
    Returns ``(uniq, sums, counts)``, *counts* per region.
    """
    region = index_ramp(len(sizes)).repeat(sizes)
    order = _region_order(crds, region, sizes)
    crds, region = crds[order], region[order]
    fresh = np.empty(len(crds), dtype=bool)
    fresh[:1] = True
    fresh[1:] = (crds[1:] != crds[:-1]) | (region[1:] != region[:-1])
    sums = np.zeros(int(np.count_nonzero(fresh)))
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN are results
        np.add.at(sums, fresh.cumsum() - 1, vals[order])
    return crds[fresh], sums, np.bincount(region[fresh], minlength=len(sizes))


class ScalarReducer(Block):
    """Sums each innermost fiber of a value stream to a single value.

    Stream shape: the output drops one nesting level — every ``S0``
    becomes an output value, and ``Sn`` (n >= 1) becomes a value followed
    by ``Sn-1`` (Figure 7 logic applied at depth 0).
    """

    primitive = "reduce"

    port_specs = (
        PortSpec('in_val', 'in', kind='vals'),
        PortSpec('out_val', 'out', kind='vals'),
    )
    # Folds the innermost fiber into one value: every S0 (or bare D)
    # boundary becomes a sum, so the stream loses exactly one nesting
    # level.  Feeding a depth-0 stream (nothing to fold) is a protocol
    # error the "d-1" expression surfaces as a negative depth.
    stream_xfer = StreamXfer(
        ins=(("in_val", "d"),),
        outs=(("out_val", "vals", "d-1"),),
    )

    def __init__(
        self,
        in_val: Channel,
        out_val: Channel,
        empty_policy: str = "zero",
        name: str = "reduce0",
    ):
        super().__init__(name)
        if empty_policy not in EMPTY_POLICIES:
            raise BlockError(f"unknown empty policy {empty_policy!r}")
        self.in_val = self._in("in_val", in_val)
        self.out_val = self._out("out_val", out_val)
        self.empty_policy = empty_policy
        #: timed-drain carry: unflushed value run + whether the open
        #: region has seen a value (mirrors the generator's locals)
        self._acc_parts: List[np.ndarray] = []
        self._acc_saw = False

    def _region_sums(self, data, cpos, ccode):
        """Region aggregation of one timed window.

        Region boundaries are the window's control tokens; sums go
        through :func:`~repro.streams.batch.exact_segment_sums`, which
        accumulates in the exact order of the generator's running
        ``acc`` so results are bit-identical to the generator.
        Consumes the carried open-region state; returns ``(sums, emit,
        elevated, pref)`` — per-boundary sums, the emission mask for the
        empty policy, the level-elevated boundaries, and the
        emitted-prefix counts.
        """
        starts = np.concatenate([np.zeros(1, dtype=np.int64), cpos[:-1]])
        lens = cpos - starts
        sums = exact_segment_sums(data[: int(cpos[-1])], starts, lens)
        saw = lens > 0
        if self._acc_parts:
            region0 = np.concatenate(self._acc_parts + [data[: int(cpos[0])]])
            sums[0] = sequential_segment_sums(
                region0, np.zeros(1, dtype=np.int64),
                np.asarray([len(region0)], dtype=np.int64),
            )[0]
            saw[0] = True
            self._acc_parts = []
        saw[0] |= self._acc_saw
        self._acc_saw = False
        stops = ccode >= 0
        emit = stops if self.empty_policy == "zero" else (stops & saw)
        elevated = stops & (ccode >= 1)
        return sums, emit, elevated, emit.cumsum()

    timing = TimingDescriptor(fuse_role="reduce")

    def commit_window(self, data, cpos, ccode, cctrl, ends_done) -> None:
        """Emit one scheduled window's region sums; carry the open tail.

        Region sums are pushed within their closing stop's event cycle
        (the generator accumulates one value per cycle and emits at the
        boundary cycle).
        """
        data = np.asarray(data, dtype=np.float64)
        if len(ccode) == 0:
            # No region boundary in the window yet: carry and wait.
            if len(data):
                self._acc_parts.append(data)
                self._acc_saw = True
            return
        out = self._tbuilder(self.out_val)
        sums, emit, elevated, pref = self._region_sums(data, cpos, ccode)
        out.data_with_ctrl(
            sums[emit], pref[elevated], ccode[elevated] - 1,
            cctrl[emit], cctrl[elevated],
        )
        if ends_done:
            out.ctrl(CODE_DONE, int(cctrl[-1]))
        else:
            rest = data[int(cpos[-1]):]
            if len(rest):
                self._acc_parts.append(rest)
                self._acc_saw = True
        out.flush()

    def drain_timed(self) -> bool:
        """Timed drain: uniform rate 1 — every input token is one event,
        so the whole window is one epoch advance plus the segment sums."""
        if self.finished:
            return False
        return self._t_tail_window(
            self.in_val, self.commit_window, 0.0
        ) is not None

    def _run(self):
        acc = 0.0
        saw_value = False
        while True:
            token = yield from self._get(self.in_val)
            if is_data(token) or is_empty(token):
                acc += 0.0 if is_empty(token) else token
                saw_value = True
                yield True
                continue
            if is_stop(token):
                if saw_value or self.empty_policy == "zero":
                    self.out_val.push(acc)
                acc, saw_value = 0.0, False
                if token.level >= 1:
                    self.out_val.push(Stop(token.level - 1))
                yield True
                continue
            # Done: a trailing unterminated accumulation would be a protocol
            # error (streams close fibers before D), so just forward.
            self.out_val.push(DONE)
            yield True
            return


class VectorReducer(Block):
    """Accumulates fibers into a one-dimensional workspace (Figure 7).

    Input: an inner coordinate stream and an aligned value stream holding
    repeated coordinate points (e.g. the j coordinates of partial rows of
    Gustavson's algorithm).  Fibers separated by ``S0`` belong to the same
    reduction region; a stop of level >= 1 closes the region, flushing the
    workspace as one output fiber with deduplicated, sorted coordinates
    and summed values, terminated by the region stop lowered one level.
    """

    primitive = "reduce"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
        PortSpec('in_val', 'in', kind='vals'),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_val', 'out', kind='vals'),
    )

    def stream_xfer_for(self):
        # Stops below flush_level separate the fibers being accumulated
        # and are absorbed; a flush emits Stop(level - flush_level), and
        # the final at-D flush always closes with Stop(0), so the output
        # keeps at least one level.
        f = self.flush_level
        out = f"max(d-{f},1)"
        return StreamXfer(
            ins=(("in_crd", "d"), ("in_val", "d")),
            outs=(("out_crd", "crd", out), ("out_val", "vals", out)),
        )

    def __init__(
        self,
        in_crd: Channel,
        in_val: Channel,
        out_crd: Channel,
        out_val: Channel,
        flush_level: int = 1,
        name: str = "reduce1",
    ):
        super().__init__(name)
        self.in_crd = self._in("in_crd", in_crd)
        self.in_val = self._in("in_val", in_val)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_val = self._out("out_val", out_val)
        #: stop level that closes a reduction region; lower stops are
        #: absorbed (they separate the repeated fibers being accumulated).
        self.flush_level = flush_level
        self._emitted_since_flush = False
        #: timed-drain workspace: (crd, val) runs of the open region in
        #: arrival order (deduplication happens at flush, preserving the
        #: generator's per-coordinate accumulation order exactly)
        self._region_crds: List[np.ndarray] = []
        self._region_vals: List[np.ndarray] = []

    timing = TimingDescriptor()

    def drain_timed(self) -> bool:
        """Timed drain: one sort, one accumulation, one schedule per window.

        A pass consumes the leading chunks (runs closed by a control
        token) that are complete on both streams, up to the first ``D``;
        an unterminated trailing run stays held — rate-1 schedules
        compose over any split, so consuming it a visit later is
        cycle-exact.  A chunk that is not clean raises ``_run``'s error
        before anything is consumed (:meth:`_raise_dirty`).
        """
        if self.finished:
            return False
        readers = (self._treader(self.in_crd), self._treader(self.in_val))
        readers[1].densify_empty(0.0)
        windows = [reader.held_window() for reader in readers]
        if windows[0] is None or windows[1] is None:
            return False
        # the open run stays held; so does what follows a D
        crd, val = (view.head(len(view.codes))
                    for view in common_front([front_stream(w) for w in windows]))
        k = len(crd.codes)
        if k == 0:
            return False
        integral = self._integral_chunks(crd, windows[0])
        if integral is None:
            return False
        pairing = pair_chunks(crd, val)
        clean = min(pairing.clean, integral)
        if clean < k:
            self._raise_dirty(windows, clean)
        # Phantom values are popped inside their boundary's cycle, so
        # they are no events, and the value terminator behind them —
        # stamps never decrease along a stream — already gates it.
        vals, stamps = np.asarray(val.data, dtype=np.float64), val.sdata
        if pairing.pick is not None:
            vals, stamps = vals[pairing.pick], stamps[pairing.pick]
        self._reduce_window(
            crd, index_ramp(k).repeat(crd.lens), vals,
            np.maximum(crd.sdata, stamps), np.maximum(crd.scodes, val.scodes),
        )
        for window, view in zip(windows, (crd, val)):  # tokens after a D stay held
            consume(window, *view.span)
        self.finished = crd.done
        return True

    @staticmethod
    def _integral_chunks(crd, window) -> Optional[int]:
        """How many leading chunks hold integer coordinates only, or None
        while that is not known yet.

        A batch stores a mixed run as floats, and a block that passes
        its tokens on one at a time hands them on as floats: a float
        view is judged against the stream up to its ``D``.  The chunk of
        the first fractional coordinate is the error; when one lies past
        the view (in *window*, the held entry), the view's floats are
        integers stored beside it; when none does and no ``D`` has
        arrived, the rest of the stream decides; else the first chunk
        with data is the error (an integral float).
        """
        if crd.data.dtype.kind == "i" or not len(crd.data):
            return len(crd.codes)
        chunk = index_ramp(len(crd.codes)).repeat(crd.lens)
        batch = window[0]
        done = (batch.ctrl_code[batch._c:] == CODE_DONE).nonzero()[0]
        end = int(batch.ctrl_pos[batch._c + done[0]]) if len(done) else len(batch.data)
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN: not 0
            odd = chunk[crd.data % 1 != 0]
            rest = batch.data[batch._d + len(crd.data):end]
            later = bool(np.count_nonzero(rest % 1 != 0))
        if len(odd):
            return int(odd[0])
        if later:
            return len(crd.codes)
        return int(chunk[0]) if len(done) else None

    def _reduce_window(self, crd, chunk, vals, arrivals, closes) -> None:
        """Accumulate, schedule and emit one window of clean chunks.

        Events, in stream order: one per pair; one per absorbed stop,
        gated by its arrival; ``U + 1`` per flush (the region's ``U``
        unique coordinates, then the lowered stop) with only the first
        gated, by the boundary's arrival; ``D`` after an at-``D`` flush
        in a cycle of its own, else gated by its arrival.  Hence one
        arrivals array and one ``_t_advance``.
        """
        crds, codes = crd.data, crd.codes
        n, ends_done = len(crds), bool(codes[-1] == CODE_DONE)
        flush = codes >= self.flush_level
        if ends_done:
            # A region only D closes flushes there; so does a stream
            # that never flushed (it was one, possibly empty, region).
            closed = flush.nonzero()[0]
            since = int(crd.ends[closed[-1]]) if len(closed) else 0
            carried = not len(closed) and bool(self._region_crds)
            fresh = not (len(closed) or self._emitted_since_flush)
            flush[-1] = n > since or carried or fresh
        closed = flush.nonzero()[0]
        events = filled(len(codes), 1)  # per chunk terminator
        uniq, sums, counts, cut = _EMPTY_F64, _EMPTY_F64, _EMPTY_I64, 0
        if len(closed):
            cut = int(crd.ends[closed[-1]])
            ends = crd.ends[closed]
            sizes = ends.copy()  # np.diff(ends, prepend=0) without its concatenate
            sizes[1:] -= ends[:-1]
            sizes[0] += sum(len(run) for run in self._region_crds)
            uniq, sums, counts = _dedup_regions(
                _concat_data(self._region_crds + [crds[:cut]]),
                _concat_data(self._region_vals + [vals[:cut]]),
                sizes,
            )
            self._region_crds, self._region_vals = [], []
            self._emitted_since_flush = True
            events[closed] += counts
            events[-1] += ends_done and flush[-1]  # then D, a cycle of its own
        if cut < n:
            self._region_crds.append(crds[cut:])
            self._region_vals.append(vals[cut:])
        before = events.cumsum() - events
        at_close = crd.ends + before  # each terminator's first event
        gates = np.zeros(n + int(before[-1] + events[-1]), dtype=np.int64)
        gates[index_ramp(n) + before[chunk]] = arrivals
        gates[at_close] = closes
        cycles = self._t_advance(gates)
        if not (len(closed) or ends_done):
            return
        cpos, first = counts.cumsum(), at_close[closed]
        dstamps = cycles[
            index_ramp(len(uniq)) + (first - (cpos - counts)).repeat(counts)
        ]
        # the at-D flush closes with S0 whatever the flush level
        ccode = np.maximum(codes[closed] - self.flush_level, 0)
        cstamps = cycles[first + counts]
        if ends_done:
            cpos = np.concatenate((cpos, [len(uniq)]))
            ccode = np.concatenate((ccode, [CODE_DONE]))
            cstamps = np.concatenate((cstamps, [cycles[-1]]))
        for channel, run in ((self.out_crd, uniq), (self.out_val, sums)):
            out = self._tbuilder(channel)
            out.data_with_ctrl(run, cpos, ccode, dstamps, cstamps)
            out.flush()

    def _raise_dirty(self, windows, f: int):
        """Raise the protocol error of chunk *f*, the first dirty one:
        ``_run``'s checks over the chunk's token pairs, in its order."""
        crd, val = (front_fibers(w, f + 1) for w in windows)
        crds = crd.data[int(crd.ends[f] - crd.lens[f]):]
        tokens = crds.tolist()
        if crds.dtype.kind != "i":
            # a batch stores a mixed run as floats; only the fractional
            # ones cannot have been integers on the scalar plane
            tokens = [int(t) if t.is_integer() else t for t in tokens]
        vals = iter(val.tokens(f))
        for token in tokens:
            self._check_pair(token, next(vals))
        close, other = decode_code(int(crd.codes[f])), next(vals)
        if is_data(close):  # a repeat signal is no coordinate
            self._check_pair(close, other)
        if is_stop(close) or is_done(close):
            while is_data(other):
                self._check_phantom(other)
                other = next(vals)
        if is_stop(close) and is_stop(other):
            self._check_stops(close, other)
        elif not (is_done(close) and is_done(other)):
            raise self._misaligned(close, other)
        raise BlockError(f"{self.name}: non-integer coordinate {crds[0]}")

    # -- protocol checks, shared by both definitions ----------------------
    def _check_pair(self, crd, val) -> None:
        """A data coordinate must be an integer and pair with a value."""
        if isinstance(crd, bool) or not isinstance(crd, (int, np.integer)):
            raise BlockError(
                f"{self.name}: non-integer coordinate {token_repr(crd)}"
            )
        if is_stop(val) or is_done(val):
            raise self._misaligned(crd, val)

    def _check_phantom(self, val) -> None:
        """A value without a coordinate must be a (phantom) zero."""
        if not is_empty(val) and val != 0.0:
            raise BlockError(
                f"{self.name}: non-zero value {show_value(val)} without a "
                f"coordinate"
            )

    def _check_stops(self, crd, val) -> None:
        if crd.level != val.level:
            raise BlockError(f"{self.name}: misaligned stops {crd!r}/{val!r}")

    def _misaligned(self, crd, val) -> BlockError:
        return BlockError(
            f"{self.name}: misaligned inputs "
            f"({token_repr(crd)} vs {show_value(val)})"
        )

    def _flush(self, table: Dict[int, float], stop: Stop):
        for crd in sorted(table):
            self.out_crd.push(crd)
            self.out_val.push(table[crd])
            yield True
        self.out_crd.push(stop)
        self.out_val.push(stop)
        yield True
        table.clear()
        self._emitted_since_flush = True

    def _run(self):
        table: Dict[int, float] = {}
        while True:
            crd = yield from self._get(self.in_crd)
            val = yield from self._get(self.in_val)
            if is_stop(crd) or is_done(crd):
                # Drain phantom zeros from upstream zero-policy reducers
                # (fully-empty regions have values but no coordinates).
                while is_data(val) or is_empty(val):
                    self._check_phantom(val)
                    val = yield from self._get(self.in_val)
            if is_done(crd) and is_done(val):
                if table or not self._emitted_since_flush:
                    # Reduction over an outermost variable: the whole
                    # stream was one region, closed only by D.
                    yield from self._flush(table, Stop(0))
                self.out_crd.push(DONE)
                self.out_val.push(DONE)
                yield True
                return
            if is_stop(crd) and is_stop(val):
                self._check_stops(crd, val)
                if crd.level < self.flush_level:
                    yield True  # same region continues; absorb the boundary
                    continue
                yield from self._flush(table, Stop(crd.level - self.flush_level))
                continue
            if is_data(crd):
                self._check_pair(crd, val)
                table[crd] = table.get(crd, 0.0) + (0.0 if is_empty(val) else val)
                yield True
                continue
            raise self._misaligned(crd, val)


class MatrixReducer(Block):
    """Accumulates a two-level (outer, inner) structure, e.g. outer products.

    Inputs: an outer coordinate stream, an inner coordinate stream one
    level deeper, and a value stream aligned with the inner coordinates.
    Each outer coordinate owns the next inner fiber.  The whole stream is
    one reduction region (the outer-product SpM*SpM case, where the
    reduced variable is outermost); the workspace flushes at ``D`` as a
    two-level structure with sorted unique coordinates.
    """

    primitive = "reduce"

    port_specs = (
        PortSpec('in_crd_outer', 'in', kind='crd'),
        PortSpec('in_crd_inner', 'in', kind='crd'),
        PortSpec('in_val', 'in', kind='vals'),
        PortSpec('out_crd_outer', 'out', kind='crd'),
        PortSpec('out_crd_inner', 'out', kind='crd'),
        PortSpec('out_val', 'out', kind='vals'),
    )
    # Accumulates a whole two-level structure and flushes it at D as a
    # fixed matrix shape: outer fiber (depth 1) over inner fibers
    # (depth 2), whatever the accumulation region's input nesting was.
    stream_xfer = StreamXfer(
        ins=(("in_crd_outer", "d"), ("in_crd_inner", "d+1"),
             ("in_val", "d+1")),
        outs=(("out_crd_outer", "crd", "1"), ("out_crd_inner", "crd", "2"),
              ("out_val", "vals", "2")),
    )

    def __init__(
        self,
        in_crd_outer: Channel,
        in_crd_inner: Channel,
        in_val: Channel,
        out_crd_outer: Channel,
        out_crd_inner: Channel,
        out_val: Channel,
        name: str = "reduce2",
    ):
        super().__init__(name)
        self.in_crd_outer = self._in("in_crd_outer", in_crd_outer)
        self.in_crd_inner = self._in("in_crd_inner", in_crd_inner)
        self.in_val = self._in("in_val", in_val)
        self.out_crd_outer = self._out("out_crd_outer", out_crd_outer)
        self.out_crd_inner = self._out("out_crd_inner", out_crd_inner)
        self.out_val = self._out("out_val", out_val)

    def _pop_inner_pair(self):
        """Pop an aligned (crd, val) pair, draining phantom zeros."""
        crd = yield from self._get(self.in_crd_inner)
        val = yield from self._get(self.in_val)
        if is_stop(crd) or is_done(crd):
            while is_data(val) or is_empty(val):
                if not is_empty(val) and val != 0.0:
                    raise BlockError(
                        f"{self.name}: non-zero value {val!r} without a coordinate"
                    )
                val = yield from self._get(self.in_val)
        return crd, val

    def _run(self):
        # The inner streams mirror the outer one (the CoordDropper/Repeater
        # pairing): each outer coordinate owns one inner fiber whose
        # terminating stop, when elevated, folds the outer stream's next
        # stop token; a bare outer stop pairs with a bare elevated inner
        # stop (an empty outer region).
        table: Dict[int, Dict[int, float]] = {}
        while True:
            outer = yield from self._get(self.in_crd_outer)
            if is_done(outer):
                crd, val = yield from self._pop_inner_pair()
                if not (is_done(crd) and is_done(val)):
                    raise BlockError(
                        f"{self.name}: inner streams out of sync at D "
                        f"({crd!r}, {val!r})"
                    )
                yield from self._flush(table)
                self.out_crd_outer.push(DONE)
                self.out_crd_inner.push(DONE)
                self.out_val.push(DONE)
                yield True
                return
            if is_stop(outer):
                # Empty outer region: consume the matching elevated stops.
                crd, val = yield from self._pop_inner_pair()
                if not (is_stop(crd) and crd.level == outer.level + 1):
                    raise BlockError(
                        f"{self.name}: outer stop {outer!r} expects inner stop "
                        f"S{outer.level + 1}, got {crd!r}"
                    )
                yield True
                continue
            # Outer coordinate: consume its inner fiber up to the next stop.
            row = table.setdefault(outer, {})
            yield True
            while True:
                crd, val = yield from self._pop_inner_pair()
                if is_stop(crd) and is_stop(val):
                    fiber_stop = crd
                    yield True
                    break
                if not is_data(crd):
                    raise BlockError(
                        f"{self.name}: unexpected inner token {crd!r} inside fiber"
                    )
                row[crd] = row.get(crd, 0.0) + (0.0 if is_empty(val) else val)
                yield True
            if fiber_stop.level >= 1:
                # The elevated fiber stop folds the outer boundary.
                nxt = yield from self._get(self.in_crd_outer)
                if not (is_stop(nxt) and nxt.level == fiber_stop.level - 1):
                    raise BlockError(
                        f"{self.name}: inner stop {fiber_stop!r} expects outer "
                        f"stop S{fiber_stop.level - 1}, got {nxt!r}"
                    )
                yield True

    def _flush(self, table: Dict[int, Dict[int, float]]):
        rows = sorted(table)
        for i, outer in enumerate(rows):
            self.out_crd_outer.push(outer)
            yield True
            row = table[outer]
            for inner in sorted(row):
                self.out_crd_inner.push(inner)
                self.out_val.push(row[inner])
                yield True
            last = i == len(rows) - 1
            inner_stop = Stop(1) if last else Stop(0)
            self.out_crd_inner.push(inner_stop)
            self.out_val.push(inner_stop)
            if last:
                self.out_crd_outer.push(Stop(0))
            yield True
        if not rows:
            # Empty result: still close the (empty) structure.
            self.out_crd_outer.push(Stop(0))
            self.out_crd_inner.push(Stop(1))
            self.out_val.push(Stop(1))
            yield True
        table.clear()
