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
from ..streams.batch import CODE_DONE, CODE_EMPTY
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
        # scanner's schedule to the intersecter's: the graph runs on
        # ``cycle``.
        return self.in_skip is None and hasattr(self.level, "fiber_arrays")

    def _t_run(self, pos, val, total):
        """Busy schedule of one window's *total* events from its sparse
        gates: event ``pos[i]`` waits for stamp ``val[i]``, the rest are
        free (the dense form of what a fused pair composes sparsely)."""
        arrivals = np.zeros(total, dtype=np.int64)
        arrivals[pos] = val
        return self._t_advance(arrivals)

    def _scan_timed(self, sched, emit) -> bool:
        """The scanner's one timed pass: a whole window, one schedule.

        Per input token the generator spends ``lens`` cycles streaming a
        data reference's (crd, ref) pairs, one cycle on a stray stop or
        ``D``, none on ``N`` or an empty fiber — plus, when the previous
        token opened a fiber, that fiber's closing-stop cycle first: it
        is gated by *this* token (the ``_peek``) and absorbs it when it
        is a stop.  Only a token's first event waits for its stamp (and
        stamps never decrease along a stream, so a token with no event
        needs no gate of its own: the next token's covers it), which
        makes the window one sparse schedule, one ``fiber_arrays``
        gather and one control layout shared by both outputs.

        The arguments are what a fused scanner→locator pair changes:
        ``sched(pos, val, total)`` (the signature of :meth:`_t_run`)
        returns the cycles the events are emitted at and ``emit(crds,
        children, cpos, codes, dstamps, cstamps)`` is where they go.
        """
        taken = self._t_take_window(self.in_ref)
        if taken is None:
            return False
        head, stamps, di, ci, tail = taken
        refs, _, ccode = head.remaining_arrays()
        crds, children, lens = self.level.fiber_arrays(refs)
        n, ends_done = len(stamps), bool(head.ends_done)
        pairs = np.zeros(n, dtype=np.int64)
        pairs[di] = lens
        code = np.full(n, CODE_EMPTY, dtype=np.int64)  # a data ref opens a fiber as N does
        code[ci] = ccode
        opens = code == CODE_EMPTY
        after = np.empty(n, dtype=bool)  # this token closes the previous one's fiber
        after[0] = self._after_fiber
        after[1:] = opens[:-1]
        # control events per token: the closer and/or its own stop or D
        nctrl = (after | ~opens).astype(np.int64)
        if ends_done:
            nctrl[-1] += after[-1]
        counts = pairs + nctrl
        starts = np.cumsum(counts)
        total = int(starts[-1])
        starts -= counts
        has = counts > 0
        if total:
            c = sched(starts[has], stamps[has], total)
            at = np.repeat(starts, nctrl)
            codes = np.repeat(np.where(code >= 0, code + 1, 0), nctrl)
            if ends_done:
                at[-1], codes[-1] = total - 1, CODE_DONE
            is_pair = np.ones(total, dtype=bool)
            is_pair[at] = False
            cpos = np.repeat(np.cumsum(pairs) - pairs, nctrl)
            emit(crds, children, cpos, codes, c[is_pair], c[at])
            self._fiber_index += len(at) - ends_done
        self._after_fiber = bool(opens[-1])
        if not has[-1]:
            self._t_defer(int(stamps[-1]))  # gates the closer, a window away
        self._t_window_done(self.in_ref, ends_done, tail)
        return True

    def drain_timed(self) -> bool:
        """Timed drain: :meth:`_scan_timed` onto the two output streams."""
        if self.finished:
            return False
        outs = (self._tbuilder(self.out_crd), self._tbuilder(self.out_ref))

        def emit(crds, children, cpos, codes, dstamps, cstamps):
            for out, data in zip(outs, (crds, children)):
                out.data_with_ctrl(data, cpos, codes, dstamps, cstamps)
                out.flush()

        return self._scan_timed(self._t_run, emit)


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
