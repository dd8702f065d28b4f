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

from typing import NamedTuple, Optional

import numpy as np

from ..formats.level import Level
from ..streams.batch import CODE_DONE, CODE_EMPTY, TokenBatch, filled, index_ramp
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
        #: the consumer this scanner hands its fibers to, as runs
        #: (:meth:`hand_over`), or None: it pushes tokens
        self.runs: Optional[FiberRuns] = None

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

    timing = TimingDescriptor()

    def timed_capable(self) -> bool:
        # Skip hints are consumed by *polling* mid-scan, which ties the
        # scanner's schedule to the intersecter's: the graph runs on
        # ``cycle``.
        return self.in_skip is None and hasattr(self.level, "fiber_arrays")

    def _t_run(self, pos, val, total):
        """Busy schedule of one window's *total* events from its sparse
        gates: event ``pos[i]`` waits for stamp ``val[i]``, the rest are
        free (the dense form of :meth:`_t_offsets`)."""
        arrivals = np.zeros(total, dtype=np.int64)
        arrivals[pos] = val
        return self._t_advance(arrivals)

    def _t_take_events(self, fibers):
        """One input window's event layout, or None when none waits.

        Per input token the generator spends ``lens`` cycles streaming a
        data reference's (crd, ref) pairs, one cycle on a stray stop or
        ``D``, none on ``N`` or an empty fiber — plus, when the previous
        token opened a fiber, that fiber's closing-stop cycle first: it
        is gated by *this* token (the ``_peek``) and absorbs it when it
        is a stop.  Only a token's first event waits for its stamp (and
        stamps never decrease along a stream, so a token with no event
        needs no gate of its own: the next token's covers it).
        *fibers* is what the level answers for the window's data
        references (``fiber_arrays`` or ``fiber_bounds``): the fibers'
        lengths last.
        """
        taken = self._t_take_window(self.in_ref)
        if taken is None:
            return None
        head, stamps, di, ci, tail, *_ = taken
        refs, _, ccode = head.remaining_arrays()
        n, ends_done = len(stamps), bool(head.ends_done)
        found = fibers(refs)
        pairs = np.zeros(n, dtype=np.int64)
        pairs[di] = found[-1]
        code = filled(n, CODE_EMPTY)  # a data ref opens a fiber as N does
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
        starts = counts.cumsum()
        total = int(starts[-1])
        starts -= counts
        at = starts.repeat(nctrl)  # every control event's index
        codes = np.where(code >= 0, code + 1, 0).repeat(nctrl)
        if ends_done and total:
            at[-1], codes[-1] = total - 1, CODE_DONE
        return _Events(refs, di, found, stamps, pairs, after, opens, nctrl, starts,
                       total, counts > 0, at, codes, ends_done, tail)

    def _t_events_done(self, ev) -> None:
        """Close a window :meth:`_t_take_events` opened."""
        self._fiber_index += len(ev.at) - ev.ends_done
        self._after_fiber = bool(ev.opens[-1])
        if not ev.has[-1]:
            self._t_defer(int(ev.stamps[-1]))  # gates the closer, a window away
        self._t_window_done(self.in_ref, ev.ends_done, ev.tail)

    def _scan_runs(self, runs) -> bool:
        """The timed pass of a paired scanner: the window's fibers go to
        *runs* as level ranges with the stamps of their first pair and of
        their terminator, from the sparse schedule (:meth:`_t_offsets`);
        no pair is gathered or pushed, and both links count what the
        pushes would have carried."""
        ev = self._t_take_events(self.level.fiber_bounds)
        if ev is None:
            return False
        n, ii = len(ev.stamps), self.timing.ii
        ref = np.zeros(n, dtype=np.int64)
        start = np.zeros(n, dtype=np.int64)
        ref[ev.di], start[ev.di] = ev.refs, ev.fibers[0]
        offs = np.zeros(n, dtype=np.int64)
        if ev.total:
            offs[ev.has] = self._t_offsets(ev.starts[ev.has], ev.stamps[ev.has],
                                           ev.total)
        # a token's pairs start after the closer it emits first
        first = offs + (ev.starts + ev.after) * ii + runs.delta
        tok = index_ramp(n).repeat(ev.nctrl)  # the token of each control event
        stops = offs[tok] + ev.at * ii + runs.delta
        # a token's first control event closes the previous token's fiber
        closer = ev.after[tok]
        closer[1:] &= tok[1:] != tok[:-1]
        prev = np.maximum(tok - 1, 0)
        fibers = [np.where(closer, arr[prev], 0)
                  for arr in (ref, start, ev.pairs, first)]
        if len(tok) and closer[0] and tok[0] == 0:  # the fiber a window back
            for arr, value in zip(fibers, runs.open):
                arr[0] = value
        runs.append(*fibers, ev.codes, stops)
        runs.open = (ref[-1], start[-1], ev.pairs[-1], first[-1])
        # what the pushes would count: the pairs, a stop a control event
        # but a closing D
        pairs, stops_pushed = int(np.add.reduce(ev.pairs)), len(ev.at) - ev.ends_done
        for channel in runs.links:
            channel.pushed_data += pairs
            channel.pushed_stop += stops_pushed
            channel.pushed_done += ev.ends_done
        self._t_events_done(ev)
        return True

    def hand_over(self, crd, ref, ii: int) -> Optional["FiberRuns"]:
        """Pair this scanner with the consumer reading *crd* and *ref*:
        the fiber runs it will read instead of the two outputs' tokens,
        or None when the pair cannot hold — *crd*/*ref* are not exactly
        its outputs, a skip input is wired, the level is not a
        position-range one (``fiber_bounds``), a link is finite, recorded
        or already holds tokens, or *ii* (the consumer's) is not the
        scanner's."""
        links = (self.out_crd, self.out_ref)
        if (not hasattr(self.level, "fiber_bounds") or (crd, ref) != links
                or self.in_skip is not None or ii != self.timing.ii
                or any(ch.capacity is not None or ch.record or ch.queue
                       or ch.timed.pending for ch in links)):
            return None
        self.runs = FiberRuns(self)
        return self.runs

    def drain_timed(self) -> bool:
        """Timed drain: a whole window, one schedule.

        The window's events (:meth:`_t_take_events`) make one schedule,
        one ``fiber_arrays`` gather and one control layout shared by both
        outputs — or, paired with the consumer of both outputs,
        :meth:`_scan_runs` hands it the window's fibers as runs.
        """
        if self.finished:
            return False
        if self.runs is not None and self.runs.live:
            return self._scan_runs(self.runs)
        ev = self._t_take_events(self.level.fiber_arrays)
        if ev is None:
            return False
        if ev.total:
            crds, children, _ = ev.fibers
            c = self._t_run(ev.starts[ev.has], ev.stamps[ev.has], ev.total)
            is_pair = filled(ev.total, True, bool)
            is_pair[ev.at] = False
            cpos = (ev.pairs.cumsum() - ev.pairs).repeat(ev.nctrl)
            for channel, data in ((self.out_crd, crds), (self.out_ref, children)):
                out = self._tbuilder(channel)
                out.data_with_ctrl(data, cpos, ev.codes, c[is_pair], c[ev.at])
                out.flush()
        self._t_events_done(ev)
        return True


class _Events(NamedTuple):
    """One scanner input window laid out as events (:meth:`LevelScanner.
    _t_take_events`): per input token its pairs, whether it closes the
    previous fiber / opens one, its control events and first event's
    index; per control event its index and code."""

    refs: np.ndarray  # the data references, their token indices and
    di: np.ndarray  # what the level answered for them
    fibers: tuple
    stamps: np.ndarray  # per token
    pairs: np.ndarray
    after: np.ndarray
    opens: np.ndarray
    nctrl: np.ndarray
    starts: np.ndarray
    total: int
    has: np.ndarray  # the token has an event
    at: np.ndarray  # per control event
    codes: np.ndarray
    ends_done: bool
    tail: object


class FiberSpans(NamedTuple):
    """Leading complete fibers of a :class:`FiberRuns`, one entry each."""

    ref: np.ndarray  # the level fiber scanned (0 for an empty one)
    start: np.ndarray  # its first position: pair j is position start + j
    lens: np.ndarray
    first: np.ndarray  # visible stamp of pair 0; pair j's is first + j * ii
    codes: np.ndarray  # terminator code and visible stamp
    stops: np.ndarray


_NO_SPANS = FiberSpans(*[np.empty(0, dtype=np.int64)] * 6)


class FiberRuns:
    """A scanner's output fibers handed to the one consumer — a merger
    side or a locator — that reads both its outputs: level ranges and two
    stamps each, not tokens.

    A fiber is its level range ``start..start + lens`` (position *p* is
    the pair ``(crd[p], p)``), the visible stamp of its first pair — its
    pairs are one input token's ramp, ``ii`` apart — and its terminator's
    code and stamp.  ``open`` is the fiber whose pairs are out and whose
    terminator waits for the scanner's next input token.  Until
    :meth:`materialise` ends the pairing (``live``), the links carry
    nothing; their token counts are bumped as the pushes would.
    """

    __slots__ = ("links", "level", "crd", "ii", "delta", "_held", "at", "open", "live")

    def __init__(self, scanner):
        # the scanner's links, not the scanner: a block must not sit in
        # a reference cycle (it would keep its graph alive until the
        # cyclic collector runs)
        self.links = (scanner.out_crd, scanner.out_ref)
        self.level = scanner.level
        self.crd = scanner.level.crd
        self.ii = scanner.timing.ii
        # both links run scanner -> consumer: one visibility offset
        self.delta = scanner.out_crd.timed.delta
        self._held, self.at = _NO_SPANS, 0
        self.open = (0, 0, 0, 0)  # its ref, start, lens and first
        self.live = True

    def append(self, *fibers) -> None:
        at, held = self.at, self._held
        if at == len(held.lens):
            self._held = FiberSpans(*fibers)
        else:
            self._held = FiberSpans(*(np.concatenate((old[at:], new))
                                      for old, new in zip(held, fibers)))
        self.at = 0

    def held(self) -> int:
        """Complete fibers not yet consumed."""
        return len(self._held.lens) - self.at

    def front(self, k: int) -> FiberSpans:
        at = self.at
        return FiberSpans(*(arr[at:at + k] for arr in self._held))

    def consume(self, k: int) -> None:
        self.at += k

    def pairs(self, runs: FiberSpans) -> tuple:
        """``(positions, stamps)`` of every pair of *runs*."""
        lens, ii = runs.lens, self.ii
        before = lens.cumsum() - lens  # per fiber, the pairs ahead of it
        base = index_ramp(int(before[-1] + lens[-1]) if len(lens) else 0)
        pos = (runs.start - before).repeat(lens)
        pos += base
        stamps = (runs.first - before * ii).repeat(lens)
        stamps += base * ii if ii != 1 else base
        return pos, stamps

    def materialise(self) -> None:
        """End the pairing: the held fibers, the open one's pairs last,
        go onto the two links as the tokens the scanner would have
        pushed, stamps intact; the scanner pushes from here on."""
        self.live = False
        held = self.front(self.held())
        runs = FiberSpans(*(np.append(a, v) for a, v in zip(held[:4], self.open)),
                          held.codes, held.stops)
        pos, stamps = self.pairs(runs)
        cpos = np.cumsum(held.lens)
        for channel, data in zip(self.links, (self.crd[pos], pos)):
            channel.timed_requeue_front(TokenBatch(data, cpos, held.codes), stamps,
                                        held.stops)
        self._held, self.at = _NO_SPANS, 0


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
