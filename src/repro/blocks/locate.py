"""Locator block (Definition 4.1): iterate-locate / leader-follower merge.

Rather than co-iterating two compressed levels with a two-finger merge,
a locator *asks* one tensor whether it contains each coordinate of the
other.  For each input (coordinate, reference) pair it probes the target
level; on a hit it emits the found child reference together with the
input coordinate and reference, and on a miss it emits an empty (``N``)
token on all three outputs so stream shapes stay aligned.

Locators replace intersecters when one operand is far denser (SpMV with a
dense vector, the SDDMM sampled lookup of section 6.3) and enable
scatter into random-insert result formats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats.level import Level
from ..streams.batch import CODE_DONE, CODE_EMPTY, NO_TOKEN
from ..streams.channel import Channel
from ..streams.timing import merge_stamps
from ..streams.token import DONE, EMPTY, is_done, is_empty, is_stop
from .base import Block, PortSpec, StreamXfer, TimingDescriptor


class Locator(Block):
    """Probe a level for each coordinate of an input stream.

    When ``in_target_ref`` is wired, one target-fiber reference is
    consumed per input fiber (matrix levels); otherwise fiber 0 is probed
    (vectors and root levels).
    """

    primitive = "locate"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
        PortSpec('in_ref', 'in', kind=None),
        PortSpec('in_target_ref', 'in', kind='ref', required=False),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_ref_found', 'out', kind='ref'),
        PortSpec('out_ref_in', 'out', kind=None),
    )
    # One probe event per aligned (crd, ref) pair: every output stream
    # mirrors the probing coordinate stream's shape (misses emit N at
    # the same position), so nesting depth is preserved on all three
    # outputs.  The optional target reference is opaque.
    stream_xfer = StreamXfer(
        ins=(("in_crd", "d"), ("in_ref", "d")),
        outs=(
            ("out_crd", "crd", "d"),
            ("out_ref_found", "ref", "d"),
            ("out_ref_in", "=in_ref", "d"),
        ),
    )

    def __init__(
        self,
        level: Level,
        in_crd: Channel,
        in_ref: Channel,
        out_crd: Channel,
        out_ref_found: Channel,
        out_ref_in: Channel,
        in_target_ref: Optional[Channel] = None,
        name: str = "locate",
    ):
        super().__init__(name)
        self.level = level
        self.in_crd = self._in("in_crd", in_crd)
        self.in_ref = self._in("in_ref", in_ref)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_ref_found = self._out("out_ref_found", out_ref_found)
        self.out_ref_in = self._out("out_ref_in", out_ref_in)
        self.in_target_ref = (
            self._in("in_target_ref", in_target_ref)
            if in_target_ref is not None
            else None
        )
        self.probes = 0
        self.hits = 0
        #: timed-drain mirror of the generator's target-fetch state
        self._loc_target = 0
        self._loc_have = in_target_ref is None

    def _outs(self):
        return (self.out_crd, self.out_ref_found, self.out_ref_in)

    def _run(self):
        target = 0
        have_target = self.in_target_ref is None
        while True:
            crd = yield from self._get(self.in_crd)
            ref = yield from self._get(self.in_ref)
            if is_done(crd):
                if self.in_target_ref is not None:
                    # Drain the target stream's trailing control tokens.
                    while not self.in_target_ref.empty():
                        if is_done(self.in_target_ref.pop()):
                            break
                yield from self._emit_all(self._outs(), DONE)
                yield True
                return
            if is_stop(crd):
                yield from self._emit_all(self._outs(), crd)
                if self.in_target_ref is not None:
                    have_target = False  # next fiber probes a fresh target
                yield True
                continue
            if not have_target:
                while True:
                    target = yield from self._get(self.in_target_ref)
                    if not is_stop(target):
                        break
                have_target = True
            if is_empty(crd) or is_empty(target):
                yield from self._emit_all(self._outs(), EMPTY)
                yield True
                continue
            self.probes += 1
            found = self.level.locate(target, crd)
            if found is None:
                yield from self._emit_all(self._outs(), EMPTY)
            else:
                self.hits += 1
                self.out_crd.push(crd)
                self.out_ref_found.push(found)
                self.out_ref_in.push(ref)
            yield True

    timing = TimingDescriptor(fuse_role="locate")

    def timed_capable(self) -> bool:
        return hasattr(self.level, "locate_arrays")

    def _timed_bail_safe(self) -> bool:
        return super()._timed_bail_safe() and (
            self.in_target_ref is None or not self._loc_have
        )

    def _emit_probed(self, builders, dc, dr, pc, cc, dstamps, cstamps):
        """Probe the fixed target for one scheduled (crd, ref) window and
        emit it on all three outputs.

        Misses become ``N`` tokens merged into the copied control arrays
        at the position of the dropped coordinate, keeping the probe
        event's cycle stamp.
        """
        m = len(dc)
        found, hit = self.level.locate_arrays(self._loc_target, dc)
        self.probes += m
        kept = int(hit.sum())
        self.hits += kept
        if kept == m:
            for builder, data in zip(builders, (dc, found, dr)):
                builder.data_with_ctrl(data, pc, cc, dstamps, cstamps)
            return
        prefix = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(hit)])
        miss_idx = np.flatnonzero(~hit)
        positions = np.concatenate([pc, miss_idx])
        codes = np.concatenate(
            [cc, np.full(len(miss_idx), CODE_EMPTY, dtype=np.int64)]
        )
        stamps = np.concatenate([cstamps, dstamps[~hit]])
        # A control token at position p precedes the data token p it
        # pairs with, so copied controls sort before miss markers.
        tiebreak = np.concatenate(
            [np.zeros(len(pc), dtype=np.int64),
             np.ones(len(miss_idx), dtype=np.int64)]
        )
        order = np.lexsort((tiebreak, positions))
        for builder, data in zip(builders, (dc[hit], found[hit], dr[hit])):
            builder.data_with_ctrl(
                data, prefix[positions][order], codes[order],
                dstamps[hit], stamps[order],
            )

    def _locate_window_timed(self, rd_crd, rd_ref, builders):
        """Fixed-target whole-window probe with one epoch advance.

        Requires the crd/ref windows to carry identical control
        structure (they come from one scanner, so they normally do).
        Returns None to use the general loop, else whether anything was
        processed.
        """
        wc = rd_crd.take_window()
        wr = rd_ref.take_window()
        if wc is None or wr is None:
            if wc is not None:
                rd_crd.put_back(wc)
            if wr is not None:
                rd_ref.put_back(wr)
            return False if (wc is None and wr is None) else None
        dc, pc, cc = wc[0].remaining_arrays()
        dr, pr, cr = wr[0].remaining_arrays()
        if not (
            len(dc) == len(dr)
            and np.array_equal(pc, pr)
            and np.array_equal(cc, cr)
            and (len(cc) == 0 or ((cc >= CODE_EMPTY).all()
                                  and (cc[:-1] != CODE_DONE).all()))
        ):
            rd_crd.put_back(wc)
            rd_ref.put_back(wr)
            return None
        if len(dc) == 0 and len(cc) == 0:
            return False
        mc, di, ci = merge_stamps(wc[0], wc[1], wc[2])
        mr, _, _ = merge_stamps(wr[0], wr[1], wr[2])
        c = self._t_advance(np.maximum(mc, mr))
        self._emit_probed(builders, dc, dr, pc, cc, c[di], c[ci])
        if len(cc) and cc[-1] == CODE_DONE:
            self.finished = True
        return True

    def drain_timed(self) -> bool:
        """Timed drain: one probe event per (crd, ref) pair, rate 1."""
        if self.finished:
            return False
        level = self.level
        rd_crd = self._treader(self.in_crd)
        rd_ref = self._treader(self.in_ref)
        rd_target = (
            self._treader(self.in_target_ref)
            if self.in_target_ref is not None
            else None
        )
        builders = [self._tbuilder(ch) for ch in self._outs()]
        progressed = False

        def flush_all():
            for builder in builders:
                builder.flush()

        def park(channel):
            flush_all()
            self._wait = (channel, "data")
            return progressed

        if rd_target is None:
            outcome = self._locate_window_timed(rd_crd, rd_ref, builders)
            if outcome is not None:
                flush_all()
                if self.finished:
                    self._wait = None
                    return True
                self._wait = (self.in_crd, "data")
                return bool(outcome)

        while True:
            ctrl = rd_crd.front_ctrl()
            front, _ = rd_crd.peek()
            if front is NO_TOKEN:
                return park(self.in_crd)
            if ctrl is None or ctrl == CODE_EMPTY:
                # Data (or empty) coordinates need this fiber's target;
                # target pops happen inside the first probe cycle.
                if not self._loc_have:
                    while True:
                        target, t_stamp = rd_target.peek()
                        if target is NO_TOKEN:
                            return park(self.in_target_ref)
                        rd_target.pop()
                        self._t_defer(t_stamp)
                        if not is_stop(target):
                            break
                    self._loc_target = target
                    self._loc_have = True
            if ctrl is None:
                m = min(rd_crd.run_length(), rd_ref.run_length())
                if m == 0:
                    ref_front, _ = rd_ref.peek()
                    if ref_front is NO_TOKEN:
                        return park(self.in_ref)
                    crd, s_c = rd_crd.pop()
                    ref, s_r = rd_ref.pop()
                    cyc = self._t_event(max(s_c, s_r))
                    progressed = True
                    if is_empty(self._loc_target):
                        for builder in builders:
                            builder.ctrl(CODE_EMPTY, cyc)
                        continue
                    self.probes += 1
                    found = level.locate(self._loc_target, crd)
                    if found is None:
                        for builder in builders:
                            builder.ctrl(CODE_EMPTY, cyc)
                    else:
                        self.hits += 1
                        builders[0].token(crd, cyc)
                        builders[1].token(found, cyc)
                        builders[2].token(ref, cyc)
                    continue
                crds, s_c = rd_crd.pop_run_upto(m)
                refs, s_r = rd_ref.pop_run_upto(m)
                c = self._t_advance(np.maximum(s_c, s_r))
                progressed = True
                if is_empty(self._loc_target):
                    for builder in builders:
                        builder.ctrl_run(CODE_EMPTY, c)
                    continue
                self.probes += m
                found, hit = level.locate_arrays(self._loc_target, crds)
                n_hit = int(hit.sum())
                self.hits += n_hit
                if n_hit == m:
                    builders[0].data(crds, c)
                    builders[1].data(found, c)
                    builders[2].data(refs, c)
                else:
                    pref = np.cumsum(hit)
                    miss_pos = (pref - hit)[~hit]
                    empties = np.full(len(miss_pos), CODE_EMPTY, dtype=np.int64)
                    kept = c[hit]
                    builders[0].data_with_ctrl(crds[hit], miss_pos, empties,
                                               kept, c[~hit])
                    builders[1].data_with_ctrl(found[hit], miss_pos, empties,
                                               kept, c[~hit])
                    builders[2].data_with_ctrl(refs[hit], miss_pos, empties,
                                               kept, c[~hit])
                continue
            # Control coordinate: consume the paired reference token too.
            if rd_ref.peek()[0] is NO_TOKEN:
                return park(self.in_ref)
            _, s_c = rd_crd.pop()
            _, s_r = rd_ref.pop()
            cyc = self._t_event(max(s_c, s_r))
            progressed = True
            if ctrl == CODE_DONE:
                if rd_target is not None:
                    # Drain the target stream's trailing control tokens
                    # (a non-blocking poll inside the D cycle).
                    while True:
                        token, _ = rd_target.peek()
                        if token is NO_TOKEN:
                            break
                        rd_target.pop()
                        if is_done(token):
                            break
                for builder in builders:
                    builder.ctrl(CODE_DONE, cyc)
                flush_all()
                self.finished = True
                self._wait = None
                return True
            if ctrl == CODE_EMPTY:
                for builder in builders:
                    builder.ctrl(CODE_EMPTY, cyc)
                continue
            for builder in builders:
                builder.ctrl(ctrl, cyc)
            if self.in_target_ref is not None:
                self._loc_have = False  # next fiber probes a fresh target
