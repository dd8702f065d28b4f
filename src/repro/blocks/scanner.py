"""Level scanners (paper Definition 3.1, Figures 2 and 3).

A level scanner converts one fibertree level into streams: it consumes a
reference stream, and for each input reference emits the coordinates and
child references of that fiber, followed by a stop token.  Scanners chain
to iterate multidimensional tensors: the reference stream emitted by one
scanner locates the fibers of the next.

Stop-token protocol (derived from Figure 2): after emitting a fiber,

* if the next input token is data, emit ``S0`` (more fibers follow at
  this level);
* if the next input token is ``Sn``, consume it and emit ``Sn+1`` (the
  scanner "adds a level to the hierarchy by incrementing all input stop
  tokens by one");
* if the next input token is ``D``, emit ``S0`` then pass ``D`` through.

An ``N`` (empty) input reference — produced upstream by unioners — scans
as an empty fiber, keeping stream shapes aligned across union branches.

Scanners optionally take a *skip* channel for the coordinate-skipping
(galloping) optimisation of section 4.2: an intersecter feeds back the
next needed coordinate and the scanner jumps ahead in a single cycle
instead of streaming the coordinates in between.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats.level import Level
from ..streams.batch import CODE_DONE, CODE_EMPTY, NO_TOKEN
from ..streams.channel import Channel
from ..streams.token import DONE, Stop, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor


class LevelScanner(Block):
    """Format-agnostic level scanner over any :class:`Level`."""

    primitive = "level_scanner"

    port_specs = (
        PortSpec('in_ref', 'in', kind='ref'),
        PortSpec('in_skip', 'in', kind='crd', required=False),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_ref', 'out', kind='ref'),
    )
    # One scanned level adds one nesting depth: every input Stop(n)
    # re-emits as Stop(n+1) and each fiber closes with its own stop.
    # The skip feedback is polled (never blocks) and opaque to depth.
    stream_xfer = StreamXfer(
        ins=(("in_ref", "d"),),
        outs=(("out_crd", "crd", "d+1"), ("out_ref", "ref", "d+1")),
    )
    nonblocking_inputs = ("in_skip",)

    def __init__(
        self,
        level: Level,
        in_ref: Channel,
        out_crd: Channel,
        out_ref: Channel,
        in_skip: Optional[Channel] = None,
        name: str = "scan",
    ):
        super().__init__(name)
        self.level = level
        self.in_ref = self._in("in_ref", in_ref)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_ref = self._out("out_ref", out_ref)
        self.in_skip = self._in("in_skip", in_skip) if in_skip is not None else None
        #: coordinates skipped thanks to galloping (statistics)
        self.skipped_coordinates = 0
        #: fibers emitted so far; skip hints are tagged with the emitting
        #: intersecter's matching fiber count so stale hints from a
        #: previous fiber scan are ignored (scanners may rescan a level
        #: many times, e.g. a broadcast vector).
        self._fiber_index = 0
        #: timed-drain state: a fiber was fully emitted and its closing
        #: stop token still needs the next input token to pick its level
        self._after_fiber = False

    # -- helpers ----------------------------------------------------------
    def _skip_target(self) -> Optional[int]:
        """Latest coordinate requested on the skip channel for this fiber."""
        if self.in_skip is None:
            return None
        target = None
        while not self.in_skip.empty():
            token = self.in_skip.pop()
            if isinstance(token, tuple):
                fiber, coord = token
                if fiber != self._fiber_index:
                    continue  # stale hint from an earlier fiber
            elif is_data(token):
                coord = token
            else:
                continue
            target = coord if target is None else max(target, coord)
        return target

    def _scan_fiber(self, ref):
        """Emit one fiber (yields one cycle per emitted token or skip jump)."""
        if is_empty(ref):
            return
        pairs = self.level.fiber(ref)
        pos = 0
        while pos < len(pairs):
            target = self._skip_target()
            if target is not None and pairs[pos][0] < target:
                new_pos = self.level.skip_to(ref, pos, target)
                self.skipped_coordinates += new_pos - pos
                pos = new_pos
                yield True  # the jump costs one cycle
                continue
            crd, child = pairs[pos]
            self.out_crd.push(crd)
            self.out_ref.push(child)
            pos += 1
            yield True

    def _run(self):
        while True:
            token = yield from self._get(self.in_ref)
            if is_done(token):
                self.out_crd.push(DONE)
                self.out_ref.push(DONE)
                yield True
                return
            if is_stop(token):
                # Stray stop (region of empty fibers upstream): re-emit one
                # level up to preserve the hierarchy.
                level_up = Stop(token.level + 1)
                self.out_crd.push(level_up)
                self.out_ref.push(level_up)
                self._fiber_index += 1
                yield True
                continue
            yield from self._scan_fiber(token)
            nxt = yield from self._peek(self.in_ref)
            if is_stop(nxt):
                self.in_ref.pop()
                stop = Stop(nxt.level + 1)
            else:
                stop = Stop(0)
            self.out_crd.push(stop)
            self.out_ref.push(stop)
            self._fiber_index += 1
            yield True

    timing = TimingDescriptor(fuse_role="scan")

    def timed_capable(self) -> bool:
        # Skip hints are consumed by *polling* mid-scan, which ties the
        # scanner's schedule to the intersecter's — scalar timed path.
        return self.in_skip is None and hasattr(self.level, "fiber_arrays")

    def _t_run(self, stamps, lens, starts, stop_idx, total):
        """Busy schedule of one run's *total* events, arrivals built
        densely: only fiber starts (the ref's own stamp) and closing
        stops (the next ref's stamp) are gated."""
        arrivals = np.zeros(total, dtype=np.int64)
        has_fiber = lens > 0
        arrivals[starts[has_fiber]] = stamps[has_fiber]
        if len(stamps) > 1:
            np.maximum.at(arrivals, stop_idx, stamps[1:])
        return self._t_advance(arrivals)

    def _scan_timed(self, sched_run, emit_run, emit_ctrl) -> bool:
        """The scanner's one timed loop: whole fibers, one schedule a run.

        The generator emits one (crd, ref) pair per cycle while a fiber
        streams and one closing-stop cycle per fiber gated by the *next*
        input token (the ``_peek``); within a run of data refs all those
        gates are known, so an entire run costs one vectorized schedule.

        The arguments are what a fused scanner→locator pair changes:
        ``sched_run`` (the signature of :meth:`_t_run`) returns the
        cycles a run's events are emitted at, and ``emit_run(crds,
        children, breaks, zeros, dstamps, cstamps)`` / ``emit_ctrl(code,
        cycle)`` are where emissions go.  The caller flushes on return.
        """
        level = self.level
        reader = self._treader(self.in_ref)
        progressed = False
        while True:
            if self._after_fiber:
                # The closing stop's level (and cycle) depend on the next
                # input token: S(n+1) consumes a stop, S0 just peeks.
                token, stamp = reader.peek()
                if token is NO_TOKEN:
                    break
                if is_stop(token):
                    reader.pop()
                    level_code = token.level + 1
                else:
                    level_code = 0
                emit_ctrl(level_code, self._t_event(stamp))
                self._fiber_index += 1
                self._after_fiber = False
                progressed = True
                continue
            ctrl = reader.front_ctrl()
            if ctrl is None:
                refs, stamps = reader.pop_run()
                n = len(refs)
                if n == 0:
                    break
                crds, children, lens = level.fiber_arrays(refs)
                lens = np.asarray(lens, dtype=np.int64)
                # Events per ref: its pair emissions plus — for every ref
                # but the last — the closing stop (the last ref's stop
                # waits for a token outside this run).
                ev_per_ref = lens.copy()
                if n > 1:
                    ev_per_ref[: n - 1] += 1
                total = int(ev_per_ref.sum())
                starts = np.concatenate(
                    [np.zeros(1, dtype=np.int64), np.cumsum(ev_per_ref)[:-1]]
                )
                stop_idx = (starts + lens)[: n - 1]
                c = sched_run(stamps, lens, starts, stop_idx, total)
                emit_mask = np.ones(total, dtype=bool)
                emit_mask[stop_idx] = False
                breaks = np.cumsum(lens[:-1])
                zeros = np.zeros(len(breaks), dtype=np.int64)
                emit_run(crds, children, breaks, zeros, c[emit_mask], c[stop_idx])
                self._fiber_index += n - 1
                self._after_fiber = True
                self._t_defer(int(stamps[-1]))
                progressed = True
                continue
            _, stamp = reader.pop()
            progressed = True
            if ctrl == CODE_DONE:
                emit_ctrl(CODE_DONE, self._t_event(stamp))
                self.finished = True
                self._wait = None
                return True
            if ctrl == CODE_EMPTY:
                # An empty reference scans as an empty fiber: no emission
                # event; the closing stop is gated by this token too.
                self._t_defer(stamp)
                self._after_fiber = True
                continue
            # Stray stop: one pass-through event, one level up.
            emit_ctrl(ctrl + 1, self._t_event(stamp))
            self._fiber_index += 1
        self._wait = (self.in_ref, "data")
        return progressed

    def drain_timed(self) -> bool:
        """Timed drain: :meth:`_scan_timed` onto the two output streams."""
        if self.finished:
            return False
        out_crd = self._tbuilder(self.out_crd)
        out_ref = self._tbuilder(self.out_ref)

        def emit_run(crds, children, breaks, zeros, dstamps, cstamps):
            out_crd.data_with_ctrl(crds, breaks, zeros, dstamps, cstamps)
            out_ref.data_with_ctrl(children, breaks, zeros, dstamps, cstamps)

        def emit_ctrl(code, cyc):
            out_crd.ctrl(code, cyc)
            out_ref.ctrl(code, cyc)

        progressed = self._scan_timed(self._t_run, emit_run, emit_ctrl)
        out_crd.flush()
        out_ref.flush()
        return progressed


class CompressedLevelScanner(LevelScanner):
    """Scanner over a compressed (seg/crd) level."""

    def __init__(self, level, *args, **kwargs):
        if level.format_name != "compressed":
            raise BlockError(
                "CompressedLevelScanner needs a compressed level, "
                f"got {level.format_name}"
            )
        super().__init__(level, *args, **kwargs)


class UncompressedLevelScanner(LevelScanner):
    """Scanner over an uncompressed (dense) level."""

    def __init__(self, level, *args, **kwargs):
        if level.format_name != "dense":
            raise BlockError(
                f"UncompressedLevelScanner needs a dense level, got {level.format_name}"
            )
        super().__init__(level, *args, **kwargs)


class BitvectorLevelScanner(Block):
    """Scanner over a bitvector level (paper section 4.3).

    Emits one *word* token per cycle on the bitvector output — the
    implicit parallelism that makes bitvectors fast — and the popcount
    base reference of each word on the reference output.  Zero words are
    emitted too (pseudo-dense iteration), keeping two bitvector streams
    word-aligned for word-wise intersection/union.
    """

    primitive = "level_scanner"

    port_specs = (
        PortSpec('in_ref', 'in', kind='ref'),
        PortSpec('out_bv', 'out', kind='bv'),
        PortSpec('out_ref', 'out', kind='ref'),
    )
    # Same depth discipline as LevelScanner, with bitvector words in
    # place of coordinates.
    stream_xfer = StreamXfer(
        ins=(("in_ref", "d"),),
        outs=(("out_bv", "bv", "d+1"), ("out_ref", "ref", "d+1")),
    )

    def __init__(
        self,
        level,
        in_ref: Channel,
        out_bv: Channel,
        out_ref: Channel,
        name: str = "bvscan",
    ):
        super().__init__(name)
        if level.format_name != "bitvector":
            raise BlockError(
                "BitvectorLevelScanner needs a bitvector level, "
                f"got {level.format_name}"
            )
        self.level = level
        self.in_ref = self._in("in_ref", in_ref)
        self.out_bv = self._out("out_bv", out_bv)
        self.out_ref = self._out("out_ref", out_ref)
        self._after_fiber = False

    def _run(self):
        while True:
            token = yield from self._get(self.in_ref)
            if is_done(token):
                self.out_bv.push(DONE)
                self.out_ref.push(DONE)
                yield True
                return
            if is_stop(token):
                level_up = Stop(token.level + 1)
                self.out_bv.push(level_up)
                self.out_ref.push(level_up)
                yield True
                continue
            if not is_empty(token):
                for _, word, base in self.level.words(token):
                    self.out_bv.push(word)
                    self.out_ref.push(base)
                    yield True
            nxt = yield from self._peek(self.in_ref)
            if is_stop(nxt):
                self.in_ref.pop()
                stop = Stop(nxt.level + 1)
            else:
                stop = Stop(0)
            self.out_bv.push(stop)
            self.out_ref.push(stop)
            yield True


def make_scanner(level, in_ref, out_crd, out_ref, in_skip=None, name="scan"):
    """Build the right scanner class for *level*'s format."""
    if level.format_name == "bitvector":
        if in_skip is not None:
            raise BlockError("bitvector scanners do not support skip channels")
        return BitvectorLevelScanner(level, in_ref, out_crd, out_ref, name=name)
    if level.format_name == "dense":
        return UncompressedLevelScanner(level, in_ref, out_crd, out_ref, in_skip, name)
    return LevelScanner(level, in_ref, out_crd, out_ref, in_skip, name)
