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

from typing import Dict, List

import numpy as np

from ..streams.batch import (
    CODE_DONE,
    decode_code,
    exact_segment_sums,
    sequential_segment_sums,
)
from ..streams.channel import Channel
from ..streams.token import DONE, Stop, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

EMPTY_POLICIES = ("zero", "drop")


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
        return sums, emit, elevated, np.cumsum(emit)

    timing = TimingDescriptor(fuse_role="reduce")

    def _timed_bail_safe(self) -> bool:
        return super()._timed_bail_safe() and not (
            self._acc_parts or self._acc_saw
        )

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

    def _dedup_workspace(self):
        """Flush the open region: unique sorted coords with summed values.

        ``np.add.at`` is unbuffered (strictly in index order), so
        duplicate coordinates accumulate in exact arrival order — the
        invariant the timed plane needs for bit-identical sums.
        Consumes the workspace; returns ``(uniq, sums)`` or None.
        """
        if not self._region_crds:
            return None
        crds = np.concatenate(self._region_crds).astype(np.int64, copy=False)
        vals = np.concatenate(self._region_vals).astype(np.float64, copy=False)
        uniq, inverse = np.unique(crds, return_inverse=True)
        sums = np.zeros(len(uniq))
        np.add.at(sums, inverse, vals)
        self._region_crds = []
        self._region_vals = []
        return uniq, sums

    timing = TimingDescriptor()

    def _timed_bail_safe(self) -> bool:
        return super()._timed_bail_safe() and not self._region_crds

    def _flush_timed(self, out_c, out_v, stop_level: int, arrival: int) -> None:
        """Flush the workspace: one event per unique coordinate + the stop.

        The first flush event is gated by the boundary pair's arrival
        (the generator pops the boundary, then streams the workspace one
        pair per cycle, then the stop pair in its own cycle).
        """
        flushed = self._dedup_workspace()
        n_out = 0 if flushed is None else len(flushed[0])
        arrivals = np.zeros(n_out + 1, dtype=np.int64)
        arrivals[0] = arrival
        c = self._t_advance(arrivals)
        if n_out:
            uniq, sums = flushed
            out_c.data(uniq, c[:n_out])
            out_v.data(sums + 0.0, c[:n_out])
        out_c.ctrl(stop_level, int(c[n_out]))
        out_v.ctrl(stop_level, int(c[n_out]))
        self._emitted_since_flush = True

    def drain_timed(self) -> bool:
        """Timed drain: accumulate aligned runs rate 1, flush at boundaries."""
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
            cv = rd_v.front_ctrl()
            lc = rd_c.run_length() if cc is None else 0
            lv = rd_v.run_length() if cv is None else 0
            if cc is None and lc == 0:
                return park(self.in_crd)
            if cc is None and cv is None:
                if lv == 0:
                    return park(self.in_val)
                m = min(lc, lv)
                crds, s_c = rd_c.pop_run_upto(m)
                vals, s_v = rd_v.pop_run_upto(m)
                self._region_crds.append(crds)
                self._region_vals.append(np.asarray(vals, dtype=np.float64))
                self._t_advance(np.maximum(s_c, s_v))
                progressed = True
                continue
            if cc is not None and cv is None:
                # Phantom zeros (regions with no coordinates at all):
                # consumed inside the boundary's cycle, no events.
                if lv == 0:
                    return park(self.in_val)
                vals, s_v = rd_v.pop_run_upto(lv)
                bad = np.flatnonzero(np.asarray(vals) != 0.0)
                if len(bad):
                    raise BlockError(
                        f"{self.name}: non-zero value {vals[bad[0]]!r} without a "
                        f"coordinate"
                    )
                self._t_defer(int(s_v[-1]))
                progressed = True
                continue
            if cc is None:
                raise BlockError(
                    f"{self.name}: misaligned inputs "
                    f"({rd_c.peek()[0]!r} vs {rd_v.peek()[0]!r})"
                )
            _, s_c = rd_c.pop()
            _, s_v = rd_v.pop()
            arrival = max(s_c, s_v)
            progressed = True
            if cc == CODE_DONE and cv == CODE_DONE:
                if self._region_crds or not self._emitted_since_flush:
                    self._flush_timed(out_c, out_v, 0, arrival)
                    cyc = self._t_event(0)
                else:
                    cyc = self._t_event(arrival)
                out_c.ctrl(CODE_DONE, cyc)
                out_v.ctrl(CODE_DONE, cyc)
                out_c.flush()
                out_v.flush()
                self.finished = True
                self._wait = None
                return True
            if cc >= 0 and cv >= 0:
                if cc != cv:
                    raise BlockError(
                        f"{self.name}: misaligned stops "
                        f"{decode_code(cc)!r}/{decode_code(cv)!r}"
                    )
                if cc < self.flush_level:
                    self._t_event(arrival)  # absorb the boundary: one cycle
                    continue
                self._flush_timed(out_c, out_v, cc - self.flush_level, arrival)
                continue
            raise BlockError(
                f"{self.name}: misaligned inputs "
                f"({decode_code(cc)!r} vs {decode_code(cv)!r})"
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
                    if not is_empty(val) and val != 0.0:
                        raise BlockError(
                            f"{self.name}: non-zero value {val!r} without a "
                            f"coordinate"
                        )
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
                if crd.level != val.level:
                    raise BlockError(f"{self.name}: misaligned stops {crd!r}/{val!r}")
                if crd.level < self.flush_level:
                    yield True  # same region continues; absorb the boundary
                    continue
                yield from self._flush(table, Stop(crd.level - self.flush_level))
                continue
            if is_data(crd):
                table[crd] = table.get(crd, 0.0) + (0.0 if is_empty(val) else val)
                yield True
                continue
            raise BlockError(f"{self.name}: misaligned inputs ({crd!r} vs {val!r})")


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
