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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..streams.batch import CODE_DONE, CODE_EMPTY, decode_code
from ..streams.channel import Channel
from ..streams.timing import (
    consume,
    front_fibers,
    held_fibers,
    index_ramp,
    window_capacity,
)
from ..streams.token import DONE, EMPTY, is_data, is_done, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor


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
        reference ports); they are drained to preserve alignment.
        """
        side = self.sides[index]
        crd = yield from self._get(side.crd)
        refs = []
        for channel in side.refs:
            ref = yield from self._get(channel)
            if is_stop(crd) or is_done(crd):
                while is_data(ref) and ref == 0:
                    ref = yield from self._get(channel)
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
    timing = TimingDescriptor()

    def timed_capable(self) -> bool:
        # Skip hints feed a timing side channel the windowed merge does
        # not model; graphs that wire them run on ``cycle``.
        return all(side.skip is None for side in self.sides)

    def drain_timed(self) -> bool:
        """Timed drain: one composite-key merge per window.

        A pass merges the leading fiber tuples that are complete and
        clean on every side and leaves the rest held, tokens after the
        first ``D`` included.  A stream with no terminator yet leaves the
        block waiting for its next push; a dirty chunk (:meth:`_clean_fibers`,
        :meth:`_side_keys`) stays unconsumed behind the clean prefix and
        bails to the scalar path; mismatched terminators raise.
        """
        if self.finished:
            return False
        sides = [
            [self._treader(side.crd)] + [self._treader(ch) for ch in side.refs]
            for side in self.sides
        ]
        groups = [[self._tbuilder(self.out_crd)]] + [
            [self._tbuilder(ch) for ch in group] for group in self.out_refs
        ]
        progressed = False
        while True:
            # per side: its coordinate stream's window, then its references'
            held = [[reader.held_window() for reader in side] for side in sides]
            windows = [w for side in held for w in side]
            counts = [held_fibers(w) for w in windows]
            whole = k = min(counts)
            if k:
                views = [[front_fibers(w, k) for w in side] for side in held]
                crd_codes = [side[0].codes for side in views]
                codes = crd_codes[0]
                done = np.logical_or.reduce([c == CODE_DONE for c in crd_codes])
                if done.any():
                    whole = k = int(done.argmax()) + 1
                k = min(k, *(self._clean_fibers(side) for side in views))
                odd = np.logical_or.reduce([c[:k] != codes[:k] for c in crd_codes[1:]])
                if odd.any():
                    k = int(odd.argmax())
                    if k == 0:
                        self._raise_misaligned_codes([c[0] for c in crd_codes])
            if k:
                # 0 (one fiber's stop key would already wrap) is scalar territory
                stride = 2 + max(int(side[0].data.max(initial=-1)) for side in views)
                k = min(k, window_capacity(stride))
            if k:
                if k < len(codes):
                    views = [[front_fibers(w, k) for w in side] for side in held]
                keys, arrs, refs, clean = zip(
                    *(self._side_keys(side, stride) for side in views)
                )
                k = min(clean)
            if k:
                progressed = True
                cuts = [int(side[0].ends[k - 1]) + k for side in views]
                keys = [key[:cut] for key, cut in zip(keys, cuts)]
                events = self._merge_events(
                    keys, [arr[:cut] for arr, cut in zip(arrs, cuts)]
                )
                self._emit_window(groups, stride, codes, keys, events, refs)
                # tokens after a D stay held
                for window, view in zip(windows, (v for side in views for v in side)):
                    consume(window, int(view.ends[k - 1]), k)
            if 0 < k < whole:
                continue  # a sub-window or a clean prefix: the next pass decides
            for group in groups:
                for builder in group:
                    builder.flush()
            if whole and k == 0:
                return self._bail_timed()
            if whole and codes[k - 1] == CODE_DONE:
                self.finished = True
            return progressed

    def _clean_fibers(self, views) -> int:
        """How many of a side's viewed fibers are structurally clean.

        Dirty (scalar territory): an ``N``/``R`` code on the coordinate
        stream, a reference terminator unlike the coordinate one, a
        reference run shorter than its coordinates, non-integer
        coordinates.  Up to the first dirty chunk, where this stops,
        fiber *f* of every stream is its *f*-th control token.
        """
        crd = views[0]
        if len(crd.data) and crd.data.dtype.kind != "i":
            return 0
        bad = crd.codes < CODE_DONE
        for ref in views[1:]:
            bad |= ref.codes != crd.codes
            bad |= ref.lens < crd.lens
        return int(bad.argmax()) if bad.any() else len(bad)

    def _side_keys(self, views, stride: int):
        """One side's viewed fibers as a single composite-key fiber.

        Returns ``(keys, stamps, refs, clean)``: each fiber's coordinates
        as ``fiber * stride + crd`` then its stop key; the arrival of
        each (a side's tuple pops together, so the max over coordinate
        and reference stamps, trailing phantom zeros included for the
        boundary tuple — they are drained inside its cycle); the
        reference runs aligned with the coordinates, phantoms dropped;
        and how many leading fibers trail no non-zero "phantom" and keep
        the keys strictly increasing (a duplicate or unsorted coordinate
        would give a side two keys in one slot of the merge, or its keys
        out of their slots' order).
        """
        crds, ends, lens, _, arrivals, closes, _ = views[0]
        k, n = len(ends), len(crds)
        ramp_k, ramp_n = index_ramp(k), index_ramp(n)
        fiber = np.repeat(ramp_k, lens)
        clean = k
        refs = []
        for run, r_ends, r_lens, _, s_r, sc_r, _ in views[1:]:
            closes = np.maximum(closes, sc_r)
            if len(run) > n:
                extra = r_lens - lens
                pick = ramp_n + (np.cumsum(extra) - extra)[fiber]
                phantom = np.ones(len(run), dtype=bool)
                phantom[pick] = False
                stray = np.flatnonzero(phantom & (run != 0))
                if len(stray):  # a non-zero value is not a phantom
                    clean = min(clean, int(np.searchsorted(r_ends, stray[0], "right")))
                trailed = np.flatnonzero(extra)
                closes[trailed] = np.maximum(closes[trailed], s_r[r_ends[trailed] - 1])
                run, s_r = run[pick], s_r[pick]
            arrivals = np.maximum(arrivals, s_r)
            refs.append(run)
        at_stop, at_crd = ends + ramp_k, ramp_n + fiber
        keys = np.empty(n + k, dtype=np.int64)
        keys[at_stop] = ramp_k * stride + (stride - 1)
        keys[at_crd] = fiber * stride + crds
        stamps = np.empty(n + k, dtype=np.int64)
        stamps[at_stop] = closes
        stamps[at_crd] = arrivals
        unsorted = np.flatnonzero(keys[1:] <= keys[:-1])
        if keys[0] < 0:
            clean = 0
        elif len(unsorted):
            clean = min(clean, int(np.searchsorted(at_stop, unsorted[0] + 1)))
        return keys, stamps, refs, clean

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
            at_short = np.cumsum(lone)
            at_short += pos
            at_short -= lone
            common = (pos[hit], np.flatnonzero(hit))
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
        fiber, crd = np.divmod(values, stride)
        real = crd != stride - 1
        code = np.where(real, CODE_EMPTY, codes[fiber])
        cycles = cycles[tokens]

        def layout(mask):
            ctrl = np.flatnonzero(~mask)
            return ctrl - index_ramp(len(ctrl)), code[ctrl], cycles[mask], cycles[ctrl]

        shared = None
        for g, group in enumerate(groups):
            if not group:
                continue
            if g == 0:
                pick, runs, where = real, [crd], tokens
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
            for builder, run in zip(group, runs):
                builder.data_with_ctrl(run[pick], *lay)


class Intersect(_Merger):
    """M-ary intersecter (Definition 3.2), optionally emitting skip hints.

    Skip hints are (fiber_index, coordinate) pairs: the fiber index counts
    the stop tokens consumed on that side, which matches the producing
    scanner's emitted-fiber count, so scanners can discard hints that
    arrive after they have moved on to another fiber.
    """

    primitive = "intersect"

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
