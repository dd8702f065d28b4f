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
from .base import Block, BlockError, PortSpec, StreamXfer


class Locator(Block):
    """Probe a level for each coordinate of an input stream.

    Fiber 0 of the level is probed (Custard locates at depth 0 only).
    The reference stream rides along: a coordinate (or ``N``) pairs with
    a reference (or ``N``), a stop with the same stop, ``D`` with ``D``.
    """

    primitive = "locate"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
        PortSpec('in_ref', 'in', kind=None),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_ref_found', 'out', kind='ref'),
        PortSpec('out_ref_in', 'out', kind=None),
    )
    # One probe event per aligned (crd, ref) pair: every output stream
    # mirrors the probing coordinate stream's shape (misses emit N at
    # the same position), so nesting depth is preserved on all three
    # outputs.
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
        name: str = "locate",
    ):
        super().__init__(name)
        self.level = level
        self.in_crd = self._in("in_crd", in_crd)
        self.in_ref = self._in("in_ref", in_ref)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_ref_found = self._out("out_ref_found", out_ref_found)
        self.out_ref_in = self._out("out_ref_in", out_ref_in)
        self.probes = 0
        self.hits = 0
        #: the fiber runs of the scanner feeding both inputs
        #: (:meth:`LevelScanner.hand_over`), or None: it reads tokens
        self.runs: list = [None]

    def _outs(self):
        return (self.out_crd, self.out_ref_found, self.out_ref_in)

    # -- protocol check, shared by both definitions -----------------------
    def _check_pair(self, crd, ref) -> None:
        """A coordinate (or ``N``) pairs with a reference (or ``N``), a
        stop with the same stop, ``D`` with ``D``."""
        ends = is_stop(crd) or is_done(crd) or is_stop(ref) or is_done(ref)
        if ends and crd != ref:
            raise BlockError(f"{self.name}: misaligned inputs "
                             f"({token_repr(crd)} vs {token_repr(ref)})")

    def _run(self):
        while True:
            crd = yield from self._get(self.in_crd)
            ref = yield from self._get(self.in_ref)
            self._check_pair(crd, ref)
            if is_done(crd):
                yield from self._emit_all(self._outs(), DONE)
                yield True
                return
            if is_stop(crd):
                yield from self._emit_all(self._outs(), crd)
                yield True
                continue
            if is_empty(crd):
                yield from self._emit_all(self._outs(), EMPTY)
                yield True
                continue
            self.probes += 1
            found = self.level.locate(0, crd)
            if found is None:
                yield from self._emit_all(self._outs(), EMPTY)
            else:
                self.hits += 1
                self.out_crd.push(crd)
                self.out_ref_found.push(found)
                self.out_ref_in.push(ref)
            yield True

    def run_inputs(self):
        """``(0, in_crd, in_ref)``: a scanner can hand this locator its
        fibers as runs."""
        return [(0, self.in_crd, self.in_ref)]

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
        open one whose two tokens have arrived.  A pair is one event,
        gated by both its tokens; a terminator pair is one event.  ``N``
        on either input is a datum (:func:`blank_fibers`): it probes
        nothing, and an ``N`` reference rides out as ``N``.  A chunk that does not pair up raises
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
        n = len(crd.data)
        if not n + k:
            return False
        found, hit = self.level.locate_arrays(0, crd.data)
        probed = np.ones(n, dtype=bool)
        probed[crd.blank] = False
        hit &= probed
        self.probes += int(probed.sum())
        self.hits += int(hit.sum())

        di, ci = token_order_indices(crd.ends, n)
        arrivals = np.empty(n + k, dtype=np.int64)
        arrivals[di] = np.maximum(crd.sdata, ref.sdata)
        arrivals[ci] = np.maximum(crd.scodes, ref.scodes)
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
        for builder in builders:
            builder.flush()
        self.finished = crd.done
        return True

    def _probe_runs(self, runs) -> bool:
        """The timed pass on a paired scanner's runs: every complete fiber
        held, one gather and one probe of its pairs, one sparse schedule
        (:meth:`_t_offsets`).  A fiber's pairs arrive a ramp a cycle apart,
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
        c = offs + pos
        at, dstamps = runs.pairs(view._replace(first=c[0::2]))
        crds = runs.crd[at]
        found, hit = self.level.locate_arrays(0, crds)
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
