"""Stream merging: intersecters and unioners (Definitions 3.2 and 3.3).

Merging combines the coordinate streams of the same level of ``m``
operand tensors, fiber by fiber, with an m-finger merge.  Intersection
(for multiplication, since ``a * 0 = 0``) emits a coordinate only when
all inputs carry it; union (for addition, since ``a + 0 = a``) emits a
coordinate when any input carries it, substituting ``N`` empty tokens on
the reference streams of absent inputs (Figure 5).

Both definitions in the paper are m-ary ("an intersecter has m pairs of
coordinate and reference streams go in"), which is also what Table 1's
primitive counts assume (Plus3's three-way union is one unioner per
level).  Each *side* carries one coordinate channel plus any number of
reference channels, so mergers also chain: the (crd, refs...) output of
an intersecter can feed one side of a unioner, which is how Custard
merges additive terms of products.

``MergeSide.skip`` optionally connects back to the side's trailing level
scanner for the coordinate-skipping (galloping) optimisation of
section 4.2.

The window hooks call numpy's C entry points (ndarray methods,
``np.count_nonzero``), except ``np.repeat`` and ``np.searchsorted``:
``tests/blocks/test_merge_scaling.py`` and the Gamma guard read the
arrays those build, and a counter can only patch a module function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..streams.batch import CODE_DONE, CODE_EMPTY, decode_code, filled
from ..streams.channel import Channel
from ..streams.timing import (
    I64_MAX,
    consume,
    front_fibers,
    held_fibers,
    index_ramp,
    pair_chunks,
    window_capacity,
)
from ..streams.token import DONE, EMPTY, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer
from .scanner import FiberSpans

#: the largest coordinate a merger takes: a window's composite keys
#: (``fiber * stride + crd``, ``stride = 2 + top``) then fit int64 for
#: at least one fiber
MAX_COORDINATE = I64_MAX - 2


@dataclass
class MergeSide:
    """One input side of a merger: a coordinate stream plus its references."""

    crd: Channel
    refs: List[Channel] = field(default_factory=list)
    skip: Optional[Channel] = None  # feedback to the side's scanner


class _Merger(Block):
    """Shared wiring and m-finger machinery for intersecters and unioners."""

    port_specs = (
        PortSpec('crd{i}', 'in', kind='crd', variadic=True),
        PortSpec('ref{i}_{j}', 'in', kind=None, variadic=True),
        PortSpec('out_crd', 'out', kind='crd'),
        PortSpec('out_ref{i}_{j}', 'out', kind=None, variadic=True),
        PortSpec('skip{i}', 'out', kind='crd', required=False, variadic=True,
                 sideband=True),
    )
    # An m-finger merge over same-level fibers: every side iterates the
    # same nesting depth and the merged outputs stay at it.  Reference
    # payloads are opaque (post-compute unions carry value streams), so
    # each output reference copies its side-matched input kind; the skip
    # feedback is side-band and excluded from propagation.
    stream_xfer = StreamXfer(
        ins=(("crd{i}", "d"), ("ref{i}_{j}", "d")),
        outs=(("out_crd", "crd", "d"), ("out_ref{i}_{j}", "=ref{i}_{j}", "d")),
    )

    def __init__(
        self,
        sides: Sequence[MergeSide],
        out_crd: Channel,
        out_refs: Sequence[Sequence[Channel]],
        name: str = "merge",
    ):
        super().__init__(name)
        self.sides = list(sides)
        if len(self.sides) < 2:
            raise BlockError(f"{name}: mergers need at least two sides")
        if len(out_refs) != len(self.sides):
            raise BlockError(f"{name}: one output reference group per side required")
        for side, group in zip(self.sides, out_refs):
            if len(group) != len(side.refs):
                raise BlockError(f"{name}: output reference arity mismatch")
        for i, side in enumerate(self.sides):
            self._in(f"crd{i}", side.crd)
            for j, channel in enumerate(side.refs):
                self._in(f"ref{i}_{j}", channel)
        self.out_crd = self._out("out_crd", out_crd)
        self.out_refs: List[List[Channel]] = []
        for i, group in enumerate(out_refs):
            self.out_refs.append(
                [self._out(f"out_ref{i}_{j}", ch) for j, ch in enumerate(group)]
            )
        #: per side, the fiber runs of the scanner it is paired with
        #: (:meth:`LevelScanner.hand_over`), or None: it reads tokens
        self.runs: list = [None] * len(self.sides)
        #: per side, the generator's last coordinate of the open fiber
        self._last = [-1] * len(self.sides)

    @property
    def arity(self) -> int:
        return len(self.sides)

    def sideband_outputs(self):
        """The held skip-feedback channels, for deadlock-cycle analysis."""
        return {
            f"skip{i}": side.skip
            for i, side in enumerate(self.sides)
            if side.skip is not None
        }

    def _pop_side(self, index: int):
        """Pop one aligned (crd, refs...) tuple from side *index*.

        When the coordinate is a control token, zero-valued data tokens on
        a reference channel are phantom zeros from zero-policy reducers in
        fully-empty regions (post-compute unions carry value streams on
        reference ports); they are drained to preserve alignment.  A
        reference is opaque payload, ``N`` included.  Anything else is a
        malformed side (:meth:`_raise_malformed`): a coordinate that is
        no integer from 0 to :data:`MAX_COORDINATE` above the previous
        one of its fiber, an ``N`` coordinate, a reference terminator
        unlike the coordinate's, or a reference run shorter or longer.
        """
        side = self.sides[index]
        crd = yield from self._get(side.crd)
        data = is_data(crd)
        if data:
            if not (isinstance(crd, (int, np.signedinteger))
                    and self._last[index] < crd <= MAX_COORDINATE):
                self._raise_malformed()
            self._last[index] = crd
        elif is_empty(crd):
            self._raise_malformed()
        else:
            self._last[index] = -1
        refs = []
        for channel in side.refs:
            ref = yield from self._get(channel)
            if data:
                if is_stop(ref) or is_done(ref):
                    self._raise_malformed()
            else:
                while is_data(ref) and ref == 0:
                    ref = yield from self._get(channel)
                if ref != crd:
                    self._raise_malformed()
            refs.append(ref)
        return crd, refs

    def _all_outs(self):
        outs = [self.out_crd]
        for group in self.out_refs:
            outs.extend(group)
        return outs

    def _pop_all(self):
        tokens = []
        for i in range(self.arity):
            token = yield from self._pop_side(i)
            tokens.append(token)
        return tokens

    def _check_stops(self, tokens):
        levels = {crd.level for crd, _ in tokens}
        if len(levels) != 1:
            raise BlockError(f"{self.name}: misaligned stops {[t[0] for t in tokens]}")

    def _raise_malformed(self):
        """The one error of a malformed side, whichever way it is malformed
        (:meth:`_pop_side`), so that every engine names it alike."""
        raise BlockError(
            f"{self.name}: malformed side: coordinates must increase within "
            f"a fiber, from 0 to {MAX_COORDINATE}, and each reference "
            f"stream must pair with them"
        )

    def _raise_misaligned_codes(self, codes):
        """Shared protocol error for mismatched fiber-chunk terminators."""
        what = "stops" if all(code >= 0 for code in codes) else "control tokens"
        raise BlockError(
            f"{self.name}: misaligned {what} {[decode_code(int(c)) for c in codes]!r}"
        )

    # -- timed window --------------------------------------------------------
    # A window of K complete fiber tuples is ONE fiber over composite keys
    # ``fiber * S + crd`` (``S = max crd + 2``) with each side's stop at
    # ``fiber * S + (S - 1)``: a fiber's boundary event becomes a
    # coordinate every side carries, and "the successor stamp of a consumed
    # token" crosses fiber boundaries exactly as the generator's refill
    # does.  The m-finger schedule, the epoch advance and every output
    # builder therefore run once per window, whatever K and m are, and
    # the builders touch only the slots they emit: an intersecter's
    # layouts are as long as its output, not as its longest side.
    #: whether a window walks a scanner's runs by search (a two-sided
    #: intersecter emits only what both sides hold)
    walks = False

    def timed_capable(self) -> bool:
        # Skip hints feed a timing side channel the windowed merge does
        # not model; graphs that wire them run on ``cycle``.
        return all(side.skip is None for side in self.sides)

    def drain_timed(self) -> bool:
        """Timed drain: one composite-key merge per window.

        A pass merges the leading fiber tuples that are complete on
        every side and leaves the rest held, tokens after the first
        ``D`` included.  A stream with no terminator yet leaves the
        block waiting for its next push; a reference stream's ``N`` is
        payload (:func:`front_fibers` reads it as a blank) and goes out
        as ``N``.  A malformed fiber (:meth:`_clean_fibers`,
        :meth:`_side_keys`) raises the generator's error once the clean
        fibers in front of it are merged, and mismatched terminators
        raise.  A side paired with its scanner (:attr:`runs`) is read as
        fiber runs: a two-sided intersecter walks it by search
        (:meth:`_walk_window`), any other merger lays its keys out as a
        stream side's.
        """
        if self.finished:
            return False
        runs = self.runs
        sides = [
            None if r is not None
            else [self._treader(side.crd)] + [self._treader(ch) for ch in side.refs]
            for side, r in zip(self.sides, runs)
        ]
        groups = [[self._tbuilder(self.out_crd)]] + [
            [self._tbuilder(ch) for ch in group] for group in self.out_refs
        ]
        progressed = False
        while True:
            # per side: its coordinate stream's window, then its references'
            held = [None if side is None else [reader.held_window() for reader in side]
                    for side in sides]
            whole = k = min(
                r.held() if r is not None
                else min([held_fibers(side[0])]
                         + [held_fibers(w, blanks=True) for w in side[1:]])
                for r, side in zip(runs, held)
            )
            if k:
                views = self._views(runs, held, k)
                crd_codes = [_codes(view) for view in views]
                codes = crd_codes[0]
                done = np.logical_or.reduce([c == CODE_DONE for c in crd_codes])
                if np.count_nonzero(done):
                    whole = k = int(done.argmax()) + 1
                k = min(k, *[self._clean_fibers(view) for view in views])
                odd = np.logical_or.reduce([c[:k] != codes[:k] for c in crd_codes[1:]])
                if np.count_nonzero(odd):
                    k = int(odd.argmax())
                    if k == 0:
                        self._raise_misaligned_codes([c[0] for c in crd_codes])
            if k:
                # a coordinate past MAX_COORDINATE gets a key at or past its
                # fiber's stop key: its side's keys stop increasing there
                top = max(_top(r, view) for r, view in zip(runs, views))
                stride = 2 + min(top, MAX_COORDINATE)
                k = min(k, window_capacity(stride))
                if k < len(codes):
                    views = self._views(runs, held, k)
                walk = self._walked(runs, views)
                keys, arrs, refs, clean = zip(*(
                    (None,) * 4 if s == walk
                    else self._run_keys(r, view, stride) if r is not None
                    else self._side_keys(view, stride)
                    for s, (r, view) in enumerate(zip(runs, views))
                ))
                k = min(c for c in clean if c is not None)
            if k:
                progressed = True
                cuts = [int(np.add.reduce(view.lens[:k])) + k
                        if isinstance(view, FiberSpans)
                        else int(view[0].ends[k - 1]) + k for view in views]
                keys = [None if key is None else key[:cut]
                        for key, cut in zip(keys, cuts)]
                arrs = [None if arr is None else arr[:cut]
                        for arr, cut in zip(arrs, cuts)]
                if walk is None:
                    events = self._merge_events(keys, arrs)
                    self._emit_window(groups, stride, codes, keys, events, refs)
                else:
                    other = 1 - walk
                    self._walk_window(groups, codes[:k], walk, runs[walk],
                                      FiberSpans(*(arr[:k] for arr in views[walk])),
                                      keys[other], arrs[other], refs[other], stride)
                # tokens after a D stay held
                for r, side, view in zip(runs, held, views):
                    if r is not None:
                        r.consume(k)
                        continue
                    for window, fibers in zip(side, view):
                        end = int(fibers.ends[k - 1])
                        blanks = int(fibers.blank.searchsorted(end))  # N tokens
                        consume(window, end - blanks, k + blanks)
            if 0 < k < whole:
                continue  # a sub-window or a clean prefix: the next pass decides
            for group in groups:
                for builder in group:
                    builder.flush()
            if whole and k == 0:
                self._raise_malformed()
            if whole and codes[k - 1] == CODE_DONE:
                self.finished = True
            return progressed

    @staticmethod
    def _views(runs, held, k):
        """Per side its first *k* fibers: a scanner's runs, or a view per
        stream of a stream side, its references' ``N`` tokens blanks."""
        return [r.front(k) if r is not None
                else [front_fibers(side[0], k)]
                + [front_fibers(w, k, blanks=True) for w in side[1:]]
                for r, side in zip(runs, held)]

    def _walked(self, runs, views):
        """The side a window walks by search, or None: a two-sided
        intersecter's run side over a level that keeps sorted keys of
        coordinates up to :data:`MAX_COORDINATE` (of two, the one with
        more pairs)."""
        if not self.walks:
            return None
        found = [None if r is None else r.level.sorted_keys() for r in runs]
        walked = [s for s, keys in enumerate(found)
                  if keys is not None and keys[1] <= MAX_COORDINATE + 1]
        if not walked:
            return None
        return max(walked, key=lambda s: int(np.add.reduce(views[s].lens)))

    def run_inputs(self):
        """``(side, crd, ref)`` of every side a scanner could hand fiber
        runs: one coordinate and one reference stream."""
        return [(s, side.crd, side.refs[0]) for s, side in enumerate(self.sides)
                if len(side.refs) == 1]

    @staticmethod
    def _clean_fibers(views) -> int:
        """How many of a side's viewed fibers are structurally clean.

        Malformed: an ``N``/``R`` code on the coordinate stream, a
        reference terminator unlike the coordinate one, a reference run
        shorter than its coordinates.  Up to the first malformed fiber,
        fiber *f* of every stream is its *f*-th terminator.  A scanner's
        runs are clean.
        """
        if isinstance(views, FiberSpans):
            return len(views.lens)
        crd = views[0]
        bad = crd.codes < CODE_DONE
        for ref in views[1:]:
            bad |= ref.codes != crd.codes
            bad |= ref.lens < crd.lens
        return int(bad.argmax()) if np.count_nonzero(bad) else len(bad)

    def _side_keys(self, views, stride: int):
        """One side's viewed fibers as a single composite-key fiber.

        Returns ``(keys, stamps, refs, clean)``: each fiber's coordinates
        as ``fiber * stride + crd`` then its stop key; the arrival of
        each (a side's tuple pops together, so the max over coordinate
        and reference stamps, trailing phantom zeros included for the
        boundary tuple — they are drained inside its cycle); per
        reference stream, its run aligned with the coordinates, phantoms
        dropped (:func:`pair_chunks`), and which of it are ``N`` (None:
        none); and how many leading fibers trail no non-zero or ``N``
        "phantom" and keep the keys strictly increasing (a duplicate or
        unsorted coordinate would give a side two keys in one slot of
        the merge, or its keys out of their slots' order).
        """
        pairings = [pair_chunks(views[0], ref) for ref in views[1:]]
        k = min([len(views[0].ends)] + [p.clean for p in pairings])
        if k == 0:
            return None, None, None, 0
        if k < len(views[0].ends):
            views = [view.head(k) for view in views]
        crds, ends, lens, _, arrivals, closes, _ = views[0]
        n = len(crds)
        ramp_k, ramp_n = index_ramp(k), index_ramp(n)
        fiber = np.repeat(ramp_k, lens)
        clean = k
        refs = []
        for ref, pairing in zip(views[1:], pairings):
            run, s_r, blank = ref.data, ref.sdata, None
            if len(ref.blank):
                blank = np.zeros(len(run), dtype=bool)
                blank[ref.blank] = True
            closes = np.maximum(closes, ref.scodes)
            if pairing.pick is not None:
                trailed = (ref.lens > lens).nonzero()[0]
                closes[trailed] = np.maximum(closes[trailed],
                                             s_r[ref.ends[trailed] - 1])
                pick = pairing.pick[:n]
                run, s_r = run[pick], s_r[pick]
                if blank is not None:
                    # an N among the phantoms: the generator's error
                    stray = blank.copy()
                    stray[pick] = False
                    stray = stray.nonzero()[0]
                    if len(stray):
                        first = int(ref.ends.searchsorted(stray[0], "right"))
                        clean = min(clean, first)
                    blank = blank[pick]
            arrivals = np.maximum(arrivals, s_r)
            refs.append((run, blank))
        return self._lay_keys(ends, fiber, crds, arrivals, closes, refs, stride, clean)

    @staticmethod
    def _lay_keys(ends, fiber, crds, arrivals, closes, refs, stride, clean):
        """``_side_keys``' result from a side's fibers: their ends,
        each coordinate's fiber, the coordinates and the arrivals."""
        k, n = len(ends), len(crds)
        ramp_k = index_ramp(k)
        at_stop, at_crd = ends + ramp_k, index_ramp(n) + fiber
        keys = np.empty(n + k, dtype=np.int64)
        keys[at_stop] = ramp_k * stride + (stride - 1)
        keys[at_crd] = fiber * stride + crds
        stamps = np.empty(n + k, dtype=np.int64)
        stamps[at_stop] = closes
        stamps[at_crd] = arrivals
        unsorted = (keys[1:] <= keys[:-1]).nonzero()[0]
        if keys[0] < 0:
            clean = 0
        elif len(unsorted):
            clean = min(clean, int(np.searchsorted(at_stop, unsorted[0] + 1)))
        return keys, stamps, refs, clean

    def _run_keys(self, runs, view, stride: int):
        """:meth:`_side_keys` of a scanner's runs: its pairs laid out as
        the tokens they stand for (a level's fibers are sorted)."""
        pos, stamps = runs.pairs(view)
        fiber = np.repeat(index_ramp(len(view.lens)), view.lens)
        return self._lay_keys(view.lens.cumsum(), fiber, runs.crd[pos], stamps,
                              view.stops, [(pos, None)], stride, len(view.lens))

    def _walk_window(self, groups, codes, walk, runs, view, keys, arrs, refs, stride):
        """A two-sided intersecter's window with side *walk* fiber runs:
        the merge by search, in the other side's keys and the fibers'
        count, never the walked side's pairs.

        Each of the other side's coordinates is searched in the level's
        sorted keys: how many pairs of its fiber lie below it (``u``)
        and whether one equals it.  That places every key in the union
        slots.  The arrival of slot *s* + 1 is the successor of a key
        held at slot *s*; along a walked fiber's ramp ``stamp - slot``
        only drops (a key of the other side between two pairs moves the
        slot, not the stamp), so per fiber three successors bound the
        running max: the first pair's, the last pair's (its stop) and
        the stop's (the next fiber's first key).  The schedule at the
        emitted slots — the shared coordinates and every stop — is the
        slot plus the running max of those terms and of the
        other side's successors, clipped at the clock: the dense
        ``_merge_events`` schedule, read where it is emitted.
        """
        k = len(view.lens)
        fiber = keys // stride
        crd = keys - fiber * stride
        real = crd != stride - 1
        fa, xa = fiber[real], crd[real]
        lens, start = view.lens[fa], view.start[fa]
        # where each coordinate falls in its walked fiber
        level_keys, level_stride = runs.level.sorted_keys()
        u = np.searchsorted(level_keys, view.ref[fa] * level_stride
                            + np.minimum(xa, level_stride))
        u -= start
        np.maximum(u, 0, out=u)
        np.minimum(u, lens, out=u)
        hit = u < lens
        at = start + u
        hit[hit] = runs.crd[at[hit]] == xa[hit]
        # the union slots: per fiber its walked pairs, the other side's
        # coordinates less the shared ones, and the stop
        own = np.bincount(fa, minlength=k)
        shared = np.bincount(fa[hit], minlength=k)
        stop = (view.lens + own - shared + 1).cumsum() - 1
        base = stop - (view.lens + own - shared)
        # a coordinate's slot: the distinct keys of its fiber below it
        slot = base[fa] + u + index_ramp(len(fa)) - hit.cumsum()
        slot += hit
        slot -= (own.cumsum() - own - shared.cumsum() + shared)[fa]
        slots = np.empty(len(keys), dtype=np.int64)
        slots[real], slots[~real] = slot, stop
        # successors: the other side's keys, then the walked fibers'
        entry = slots[:-1] + 1
        gates = arrs[1:] - entry
        # the other side's unshared keys under a fiber's first / last pair
        below = (u == 0) & ~hit
        below_last = (u < lens) & ~hit
        nxt = np.where(view.lens[1:] > 0, view.first[1:], view.stops[1:])
        e3 = stop + 1
        e2 = np.where(view.lens > 0,
                      base + view.lens + np.bincount(fa[below_last], minlength=k), e3)
        e1 = np.where(view.lens > 1, base + 1 + np.bincount(fa[below], minlength=k), e2)
        never = np.iinfo(np.int64).min // 2
        w1 = np.where(view.lens > 1, view.first + 1 - e1, never)
        w2 = np.where(view.lens > 0, view.stops - e2, never)
        w3 = np.concatenate((nxt, [0])) - e3
        w3[-1] = never
        # per fiber its three successors in turn
        walk_entry = np.empty(3 * k, dtype=np.int64)
        walk_gates = np.empty(3 * k, dtype=np.int64)
        for j, (e, w) in enumerate(((e1, w1), (e2, w2), (e3, w3))):
            walk_entry[j::3], walk_gates[j::3] = e, w
        np.maximum.accumulate(walk_gates, out=walk_gates)
        np.maximum.accumulate(gates, out=gates)
        # the first slot waits for both sides' first keys
        head = max(int(arrs[0]), int(view.first[0] if view.lens[0] else view.stops[0]),
                   self._t_carry, self._tclock)
        self._t_carry = 0
        emitted = np.concatenate((slot[hit], stop))
        cycles = filled(len(emitted), head)
        for entries, running in ((entry, gates), (walk_entry, walk_gates)):
            if len(entries):
                i = np.searchsorted(entries, emitted, "right") - 1
                np.maximum(cycles, np.where(i >= 0, running[i], never), out=cycles)
        cycles += emitted
        nhit = int(np.count_nonzero(hit))
        self._t_span(int(stop[-1]) + 1, int(cycles[-1]))
        cpos = shared.cumsum()
        lay = (cpos, codes, cycles[:nhit], cycles[nhit:])
        runs_out = [[(xa[hit], None)]] + [None, None]
        runs_out[1 + walk] = [(at[hit], None)]
        runs_out[2 - walk] = [(run[:len(hit)][hit], blank if blank is None
                               else blank[:len(hit)][hit]) for run, blank in refs]
        for group, out in zip(groups, runs_out):
            for builder, (run, blank) in zip(group, out):
                builder.data_with_ctrl(run, *lay, blank=blank)

    def _merge_events(self, keys, arrs):
        """Cycle schedule of one window's m-finger merge.

        *keys*/*arrs* hold one composite fiber and its arrival stamps per
        side.  One comparison event per distinct key — a *slot* —
        boundaries included (the window's final stop is last, on every
        side); event *k+1* is gated by the arrival of whatever event *k*'s
        consumption pulled in next — the max over the sides it consumed,
        since the generator refills every consumed finger right after its
        yield.  Returns ``(slots, common, cycles)``: per side the slot of
        each of its keys, the shared keys :meth:`_fold_slots` found last,
        and per slot its cycle.
        """
        slots, common, size = self._fold_slots(keys)
        arrivals = np.zeros(size, dtype=np.int64)
        arrivals[0] = max(arr[0] for arr in arrs)
        gate = arrivals[1:]
        # the key a side gives up at slot k pulls its successor in: the
        # longest side's successors go in as they are, the others' by max
        longest = sorted(zip(slots, arrs), key=lambda side: -len(side[0]))
        for n, (at, arr) in enumerate(longest):
            at = at[:-1]
            gate[at] = np.maximum(gate[at], arr[1:]) if n else arr[1:]
        return slots, common, self._t_advance(arrivals)

    @staticmethod
    def _fold_slots(keys):
        """Every side's union slots, folding the sides in one at a time.

        The sides are strictly increasing and all end at the window's
        final stop, so each fold searches the shorter operand in the
        longer: a hit is a shared slot, and a lone key shifts the longer
        operand's slots by one from its insertion point on (a bincount
        prefix sum).  Only a fold with another behind it builds its union
        array.  Returns ``(slots, common, size)``: per side its keys'
        slots; the key indices of the last fold's hits in its two
        operands — with two sides, each side's keys at the slots both
        hold; and the union's size.
        """
        union, slots = keys[0], []
        for key in keys[1:]:
            flip = len(key) > len(union)
            longer, shorter = (key, union) if flip else (union, key)
            pos = np.searchsorted(longer, shorter)
            hit = longer[pos] == shorter
            lone = ~hit
            at_long = np.bincount(pos[lone], minlength=len(longer)).cumsum()
            at_long += index_ramp(len(longer))
            at_short = lone.cumsum()
            at_short += pos
            at_short -= lone
            common = (pos[hit], hit.nonzero()[0])
            if flip:
                at_union, at_key, common = at_short, at_long, common[::-1]
            else:
                at_union, at_key = at_long, at_short
            slots = [at_union[prior] for prior in slots] if slots else [at_union]
            slots.append(at_key)
            size = len(longer) + len(shorter) - len(common[0])
            if len(slots) < len(keys):  # another fold follows: it needs the union
                merged = np.empty(size, dtype=np.int64)
                merged[at_union] = union
                merged[at_key] = key
                union = merged
        return slots, common, size

    def _emit_window(self, groups, stride, codes, keys, events, refs):
        """Push one merged window: a ``data_with_ctrl`` call per builder.

        Every output emits a token at each slot ``_select`` picks: a
        boundary is its fiber's terminator on all of them; a coordinate
        is data on out_crd and on the reference outputs of the sides
        that hold it, and an ``N`` on the others.  Work is per picked
        slot: keys no output emits are never looked at again.
        """
        tokens, picks = self._select(*events)
        cycles = events[-1]
        values = np.empty(len(tokens), dtype=np.int64)
        for key, (at, where) in zip(keys, picks):
            values[where] = key[at]
        fiber = values // stride
        crd = values - fiber * stride
        real = crd != stride - 1
        code = np.where(real, CODE_EMPTY, codes[fiber])
        cycles = cycles[tokens]

        def layout(mask):
            ctrl = (~mask).nonzero()[0]
            return ctrl - index_ramp(len(ctrl)), code[ctrl], cycles[mask], cycles[ctrl]

        shared = None
        for g, group in enumerate(groups):
            if not group:
                continue
            if g == 0:
                pick, runs, where = real, [(crd, None)], tokens
            else:
                # a reference's index: its key's position less the stops before it
                at, where = picks[g - 1]
                pick, runs = (at - fiber[where])[real[where]], refs[g - 1]
            if len(where) == len(tokens):  # data at every picked coordinate
                shared = shared or layout(real)
                lay = shared
            else:
                mask = np.zeros(len(tokens), dtype=bool)
                mask[where] = True
                lay = layout(mask & real)
            for builder, (run, blank) in zip(group, runs):
                builder.data_with_ctrl(run[pick], *lay,
                                       blank=blank if blank is None else blank[pick])


def _codes(view):
    return view.codes if isinstance(view, FiberSpans) else view[0].codes


def _top(runs, view) -> int:
    """The largest coordinate of a side's view (-1: none).  A run's is
    read as its last: exact on a sorted fiber, and an unsorted one is
    dirty whatever the stride (its keys do not increase)."""
    if runs is None:
        return int(np.maximum.reduce(view[0].data, initial=-1))
    full = view.lens > 0
    last = runs.crd[(view.start + view.lens - 1)[full]]
    return int(np.maximum.reduce(last, initial=-1))


class Intersect(_Merger):
    """M-ary intersecter (Definition 3.2), optionally emitting skip hints.

    Skip hints are (fiber_index, coordinate) pairs: the fiber index counts
    the stop tokens consumed on that side, which matches the producing
    scanner's emitted-fiber count, so scanners can discard hints that
    arrive after they have moved on to another fiber.
    """

    primitive = "intersect"
    walks = True

    def timed_capable(self) -> bool:
        # The m-ary generator advances *every* side below the max in one
        # cycle — not one event per distinct key, which is what the
        # window schedules — so only the two-finger case is windowed.
        return self.arity == 2 and super().timed_capable()

    def _select(self, slots, common, cycles):
        # the slots both sides hold: the one fold's hits, as each side's
        # own key indices (a windowed intersecter has two sides)
        tokens = slots[0][common[0]]
        where = index_ramp(len(tokens))
        return tokens, [(side_at, where) for side_at in common]

    def _run(self):
        self._side_fibers = [0] * self.arity
        tokens = yield from self._pop_all()
        while True:
            crds = [crd for crd, _ in tokens]
            if all(is_done(c) for c in crds):
                yield from self._emit_all(self._all_outs(), DONE)
                yield True
                return
            if all(is_stop(c) for c in crds):
                self._check_stops(tokens)
                yield from self._emit_all(self._all_outs(), crds[0])
                for i in range(self.arity):
                    self._side_fibers[i] += 1
                yield True
                tokens = yield from self._pop_all()
                continue
            data_sides = [i for i, c in enumerate(crds) if is_data(c)]
            if len(data_sides) < self.arity:
                # Some side hit its fiber boundary: drain the sides that
                # still carry coordinates (they cannot match anything).
                yield True
                for i in data_sides:
                    tokens[i] = yield from self._pop_side(i)
                continue
            low = min(crds)
            if all(c == low for c in crds):
                self.out_crd.push(low)
                for group, (_, refs) in zip(self.out_refs, tokens):
                    for channel, ref in zip(group, refs):
                        channel.push(ref)
                yield True
                tokens = yield from self._pop_all()
                continue
            high = max(crds)
            yield True
            for i, c in enumerate(crds):
                if c < high:
                    side = self.sides[i]
                    if side.skip is not None:
                        side.skip.push((self._side_fibers[i], high))
                    tokens[i] = yield from self._pop_side(i)


class Union(_Merger):
    """M-ary unioner (Definition 3.3, Figure 5)."""

    primitive = "union"

    def _select(self, slots, common, cycles):
        # every slot, each side's keys at their own
        picks = [(index_ramp(len(side)), side) for side in slots]
        return index_ramp(len(cycles)), picks

    def _run(self):
        tokens = yield from self._pop_all()
        while True:
            crds = [crd for crd, _ in tokens]
            if all(is_done(c) for c in crds):
                yield from self._emit_all(self._all_outs(), DONE)
                yield True
                return
            data_sides = [i for i, c in enumerate(crds) if is_data(c)]
            if not data_sides:
                # All sides at a boundary (stop); done was handled above.
                self._check_stops(tokens)
                yield from self._emit_all(self._all_outs(), crds[0])
                yield True
                tokens = yield from self._pop_all()
                continue
            low = min(crds[i] for i in data_sides)
            present = [i for i in data_sides if crds[i] == low]
            self.out_crd.push(low)
            for i, (group, (_, refs)) in enumerate(zip(self.out_refs, tokens)):
                if i in present:
                    for channel, ref in zip(group, refs):
                        channel.push(ref)
                else:
                    for channel in group:
                        channel.push(EMPTY)
            yield True
            for i in present:
                tokens[i] = yield from self._pop_side(i)
