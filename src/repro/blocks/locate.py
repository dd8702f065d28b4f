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
from ..streams.batch import CODE_DONE, CODE_EMPTY
from ..streams.channel import Channel
from ..streams.timing import (
    blank_fibers,
    common_front,
    consume,
    front_stream,
    index_ramp,
    pair_chunks,
    token_order_indices,
)
from ..streams.token import DONE, EMPTY, is_done, is_empty, is_stop, token_repr
from .base import Block, BlockError, PortSpec, StreamXfer, TimingDescriptor


class Locator(Block):
    """Probe a level for each coordinate of an input stream.

    When ``in_target_ref`` is wired, one target-fiber reference is
    consumed per input fiber (matrix levels); otherwise fiber 0 is probed
    (vectors and root levels).  The reference stream rides along: a
    coordinate (or ``N``) pairs with a reference (or ``N``), a stop with
    the same stop, ``D`` with ``D``.
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
        #: the open fiber's target and whether it was fetched, shared by
        #: both definitions (a bail resumes the fiber)
        self._loc_target = 0
        self._loc_have = in_target_ref is None
        #: the fiber runs of the scanner feeding both inputs
        #: (:meth:`LevelScanner.hand_over`), or None: it reads tokens
        self.runs: list = [None]

    def _outs(self):
        return (self.out_crd, self.out_ref_found, self.out_ref_in)

    # -- protocol checks, shared by both definitions ----------------------
    def _check_pair(self, crd, ref) -> None:
        """A coordinate (or ``N``) pairs with a reference (or ``N``), a
        stop with the same stop, ``D`` with ``D``."""
        ends = is_stop(crd) or is_done(crd) or is_stop(ref) or is_done(ref)
        if ends and crd != ref:
            raise BlockError(f"{self.name}: misaligned inputs "
                             f"({token_repr(crd)} vs {token_repr(ref)})")

    def _check_target(self, target) -> None:
        """A fiber with a coordinate (or ``N``) needs a target, not ``D``."""
        if is_done(target):
            raise BlockError(f"{self.name}: target stream ended before the coordinates")

    def _run(self):
        while True:
            crd = yield from self._get(self.in_crd)
            ref = yield from self._get(self.in_ref)
            self._check_pair(crd, ref)
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
                    self._loc_have = False  # next fiber probes a fresh target
                yield True
                continue
            if not self._loc_have:
                while True:
                    target = yield from self._get(self.in_target_ref)
                    if not is_stop(target):
                        break
                self._check_target(target)
                self._loc_target, self._loc_have = target, True
            target = self._loc_target
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

    timing = TimingDescriptor()

    def timed_capable(self) -> bool:
        return hasattr(self.level, "locate_arrays")

    def run_inputs(self):
        """``(0, in_crd, in_ref)`` when a scanner could hand this locator
        its fibers as runs: it probes one fixed target (no target
        stream)."""
        return [(0, self.in_crd, self.in_ref)] if self.in_target_ref is None else []

    @staticmethod
    def _emit(builders, datas, kept, pc, cc, dstamps, cstamps):
        """Emit one scheduled window on each output: its kept data, an
        ``N`` in place of every other datum (at that datum's cycle), and
        the control tokens."""
        layouts = {}
        for builder, data, keep in zip(builders, datas, kept):
            if id(keep) not in layouts:
                layouts[id(keep)] = _with_misses(keep, pc, cc, dstamps, cstamps)
            layout = layouts[id(keep)]
            if layout is None:
                builder.data_with_ctrl(data, pc, cc, dstamps, cstamps)
            else:
                builder.data_with_ctrl(data[keep], *layout)

    def drain_timed(self) -> bool:
        """Timed drain: one pairing, one probe, one schedule per window.

        A visit takes every chunk complete on both the coordinate and the
        reference stream, through the first ``D``, and the pairs of the
        open one whose two tokens have arrived — as far as the target
        stream has delivered a target for every fiber that needs one
        (:meth:`_targets`).  A pair is one event, gated by both its
        tokens and, the first of a fiber, by the target popped for it; a
        terminator pair is one event.  ``N`` on either input is a datum
        (:func:`blank_fibers`): it probes nothing, and an ``N`` reference
        rides out as ``N``.  A chunk that does not pair up raises
        :meth:`_check_pair`'s error.  Paired with its scanner
        (:attr:`runs`), it reads fiber runs instead (:meth:`_probe_runs`).
        """
        if self.finished:
            return False
        if self.runs[0] is not None:
            return self._probe_runs(self.runs[0])
        windows = [self._treader(ch).held_window() for ch in (self.in_crd, self.in_ref)]
        if windows[0] is None or windows[1] is None:
            return False
        crd, ref = common_front([blank_fibers(front_stream(w)) for w in windows])
        k = len(crd.codes)
        clean = pair_chunks(crd, ref, phantoms=(False, False)).clean
        if clean < k:
            for pair in zip(crd.tokens(clean), ref.tokens(clean)):
                self._check_pair(*pair)
        targeted = self.in_target_ref is not None
        if targeted:
            lens = np.append(crd.lens, crd.tail)  # pairs per fiber, the open one last
            targets, tblank, tstamps = self._targets(lens)
            if len(targets) < len(lens):  # the rest waits for a target
                k = len(targets)
                crd, ref, lens = crd.head(k), ref.head(k), lens[:k]
        n = len(crd.data)
        if not n + k:
            return False
        if targeted:
            found, hit = self._probe(crd.data, lens, targets, tblank)
            probed = ~np.repeat(tblank, lens)
        else:
            found, hit = self.level.locate_arrays(self._loc_target, crd.data)
            probed = np.ones(n, dtype=bool)
        probed[crd.blank] = False
        hit &= probed
        self.probes += int(probed.sum())
        self.hits += int(hit.sum())

        di, ci = token_order_indices(crd.ends, n)
        arrivals = np.empty(n + k, dtype=np.int64)
        arrivals[di] = np.maximum(crd.sdata, ref.sdata)
        arrivals[ci] = np.maximum(crd.scodes, ref.scodes)
        if targeted:
            first = di[(np.cumsum(lens) - lens)[lens > 0]]  # each fiber's first pair
            arrivals[first] = np.maximum(arrivals[first], tstamps[lens > 0])
        c = self._t_advance(arrivals)
        keep_ref = hit
        if len(ref.blank):  # an N reference rides out as N
            keep_ref = hit.copy()
            keep_ref[ref.blank] = False
        builders = [self._tbuilder(ch) for ch in self._outs()]
        self._emit(builders, (crd.data, found, ref.data), (hit, hit, keep_ref),
                   crd.ends, crd.codes, c[di], c[ci])
        for window, view in zip(windows, (crd, ref)):
            consume(window, *view.span)
        if targeted:
            if crd.done:  # D drains the target stream's trailing tokens
                window = self._treader(self.in_target_ref).held_window()
                consume(window, *front_stream(window).span)
            elif crd.tail:  # the open fiber keeps its target
                self._loc_target = EMPTY if tblank[-1] else int(targets[-1])
                self._loc_have = True
            else:
                self._loc_have = False
        for builder in builders:
            builder.flush()
        self.finished = crd.done
        return True

    def _probe_runs(self, runs) -> bool:
        """The timed pass on a paired scanner's runs: every complete fiber
        held, one gather and one probe of its pairs, one sparse schedule
        (:meth:`_t_offsets`).  A fiber's pairs arrive a ramp ``ii`` apart,
        so the gates are each fiber's first pair and each terminator."""
        k = runs.held()
        if not k:
            return False
        view = runs.front(k)
        lens, ramp = view.lens, index_ramp(k)
        ends = np.cumsum(lens)  # the data before each terminator
        # per fiber its first pair's event and its terminator's
        pos = np.empty(2 * k, dtype=np.int64)
        pos[0::2] = ends - lens + ramp
        pos[1::2] = ends + ramp
        val = np.empty(2 * k, dtype=np.int64)
        val[0::2] = np.where(lens > 0, view.first, 0)  # no pair, no gate
        val[1::2] = view.stops
        offs = self._t_offsets(pos, val, int(ends[-1]) + k)
        c = offs + pos * self.timing.ii
        at, dstamps = runs.pairs(view._replace(first=c[0::2]))
        crds = runs.crd[at]
        found, hit = self.level.locate_arrays(self._loc_target, crds)
        self.probes += len(crds)
        self.hits += int(hit.sum())
        builders = [self._tbuilder(ch) for ch in self._outs()]
        self._emit(builders, (crds, found, at), (hit, hit, hit), ends, view.codes,
                   dstamps, c[1::2])
        for builder in builders:
            builder.flush()
        runs.consume(k)
        self.finished = bool(view.codes[-1] == CODE_DONE)
        return True

    def _targets(self, lens):
        """Per fiber, its target, whether that is ``N`` and the arrival
        that gates its first pair (0: none popped for it), for the leading
        fibers whose target has arrived.

        A fiber with pairs pops the next target, skipping the stops in
        front of it — unless it is the open fiber and already has one.
        """
        fibers = len(lens)
        held = 0 if is_empty(self._loc_target) else self._loc_target
        values = np.full(fibers, held, dtype=np.int64)
        blank = np.full(fibers, is_empty(self._loc_target))
        stamps = np.zeros(fibers, dtype=np.int64)
        need = lens > 0
        need[0] &= not self._loc_have
        window = self._treader(self.in_target_ref).held_window()
        view = blank_fibers(front_stream(window))  # targets are its data
        slot = np.cumsum(need) - need
        late = np.flatnonzero(need & (slot >= len(view.data)))
        served = int(late[0]) if len(late) else fibers
        if served < fibers and view.done:
            self._check_target(DONE)
        used = int(need[:served].sum())
        if used:
            mine = np.flatnonzero(need[:served])
            values[mine] = view.data[:used]
            blank[mine] = np.isin(index_ramp(used), view.blank)
            stamps[mine] = view.sdata[:used]
            skipped = int(np.searchsorted(view.ends, used - 1, "right"))
            before = int(view.ends[skipped - 1]) if skipped else 0
            consume(window, *view.head(skipped, used - before).span)
        return values[:served], blank[:served], stamps[:served]

    def _probe(self, crds, lens, targets, tblank):
        """``(found, hit)`` of every coordinate in its fiber's target."""
        found = np.zeros(len(crds), dtype=np.int64)
        hit = np.zeros(len(crds), dtype=bool)
        starts = np.cumsum(lens) - lens
        for f in np.flatnonzero((lens > 0) & ~tblank).tolist():
            run = slice(int(starts[f]), int(starts[f] + lens[f]))
            found[run], hit[run] = self.level.locate_arrays(int(targets[f]), crds[run])
        return found, hit


def _with_misses(keep, pc, cc, dstamps, cstamps):
    """The control layout of a scheduled window on an output that keeps
    only the data *keep* marks: an ``N`` in place of every other datum,
    at its cycle.  None when it keeps them all."""
    if keep.all():
        return None
    prefix = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(keep)])
    miss = np.flatnonzero(~keep)
    positions = np.concatenate([pc, miss])
    codes = np.concatenate([cc, np.full(len(miss), CODE_EMPTY, dtype=np.int64)])
    stamps = np.concatenate([cstamps, dstamps[miss]])
    # A control token at position p precedes the data token p it pairs
    # with, so copied controls sort before miss markers.
    tiebreak = np.concatenate(
        [np.zeros(len(pc), dtype=np.int64), np.ones(len(miss), dtype=np.int64)]
    )
    order = np.lexsort((tiebreak, positions))
    return prefix[positions][order], codes[order], dstamps[keep], stamps[order]
