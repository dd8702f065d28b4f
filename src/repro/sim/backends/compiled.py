"""Compiled timed backend: static fusion of control-free segments.

:class:`CompiledEngine` produces the same bit-exact
``SimulationReport`` as :class:`~repro.sim.backends.timed_batch.
TimedBatchEngine` (and hence the reference CycleEngine), but steps the
*fusible segments* of the run's plan — maximal linear chains of
blocks with a fuse role joined by unbounded, unrecorded,
single-producer/single-consumer channels
(:func:`~repro.sim.backends.plan.partition_segments`, computed with
their plan keys once per plan, as the rest of the structure is; see
:mod:`repro.sim.backends.plan`).  Each segment executes as **one
super-block**:

* *member schedules* — each member books its window through its own
  ``_t_advance``, in chain order, on the previous member's schedule
  shifted by the interior link's visibility offset: the chain's
  schedule is the members' own bookkeeping, defined once;
* *fused data transforms* — member kernels are chained directly on the
  value arrays (gather → multiply → region sums …) without
  materialising intermediate ``TokenBatch`` pushes, stamp merges, or
  reader windows on the interior channels;
* *arithmetic statistics* — interior channels never see a push, so
  their ``pushed_*`` counters are reconstructed from the would-be batch
  structure.

This module is a *scheduler* of blocks, not a second author of them:
what a member does with a scheduled window is the hook the block itself
exports and its own ``drain_timed`` is written in terms of
(:data:`_ROLE_HOOK` — a zip's ``_fn``, a map's ``map_parts()``, a
reduce/sink/write tail's ``commit_window()``).  What lives here is the
walk of the chain: two-phase acquire/commit, the feeders a zip head
absorbs, and the interior-link token counts.

Two segment kinds are compiled (``report.fusion["kinds"]`` counts them
per run), both chains (:class:`_ChainUnit`): ``value-chain`` and
``writer-tail`` (a chain closed by the value writer).  Scanners,
locators, mergers and repeaters carry no fuse role: they run their one
``drain_timed`` on the plain timed plane here exactly as under
``timed-batch`` — a scanner hands its fibers to the locator or merger
side reading both its outputs as runs on either engine (see
docs/architecture.md, "Segment fusion").

Fallback ladder: a graph that cannot run on windows at all goes to
``cycle`` whole, before anything is compiled (``report.handoff``; the
fusion statistics read zero); a segment whose interior links hold
tokens or whose members lack their hooks as the run starts is
*rejected* (members run on the plain timed-batch plane); a fused zip
head whose operand windows lose structural alignment mid-run
*dissolves* its segment the same way —
both count as ``fallbacks`` in the fusion statistics.  Only the zip head
returns ``_DISSOLVE``, and only from acquisition, which is two-phase:
windows are only consumed once the whole step is guaranteed to commit,
and all member state (``_tclock``, carries, reducer accumulators) is
kept in the members themselves.

There is one run loop: :meth:`TimedBatchEngine.run` steps whatever
unit table ``_compile_segments`` hands it (empty for the plain engine)
and handles dissolution itself.  This class only builds that table,
records plan digests, and annotates the finished report with
``report.fusion`` / ``report.plans``; the token-order helpers are the
shared ones from :mod:`repro.streams.timing`.
"""

from __future__ import annotations

import numpy as np

from ...jit import PLAN_CACHE
from ...streams.batch import CODE_DONE, CODE_EMPTY
from ...streams.timing import insert_sorted, split_done_stamped, token_order_indices
from .timed_batch import _DISSOLVE, TimedBatchEngine


def _advance_members(members, deltas, arrivals):
    """Each member's own ``_t_advance``, in chain order; the last
    member's schedule.

    *arrivals* is the head's token-order arrival array (already
    consumer-visible); ``deltas[k-1]`` is the interior link's visibility
    offset into member *k*.
    """
    c = members[0]._t_advance(arrivals)
    for member, delta in zip(members[1:], deltas):
        c = member._t_advance(c + delta if delta else c)
    return c


def _same(a, b) -> bool:
    """``np.array_equal`` of two 1-D arrays, without its Python layer."""
    return len(a) == len(b) and not np.count_nonzero(a != b)


def _bump_counts(channel, ndata, ccode):
    """Channel statistics a fused interior push would have recorded."""
    n_stop = int(np.count_nonzero(ccode >= 0))
    n_done = int(np.count_nonzero(ccode == CODE_DONE))
    n_empty = int(np.count_nonzero(ccode == CODE_EMPTY))
    channel.pushed_data += ndata + (len(ccode) - n_stop - n_done - n_empty)
    channel.pushed_stop += n_stop
    channel.pushed_done += n_done
    channel.pushed_empty += n_empty


#: the block-owned hook a member of each fuse role is driven through
#: (the one its own ``drain_timed`` is written in terms of — for a zip
#: head that is just the operator, ``ALU._fn``); a member without it
#: sends its segment to the plain timed plane
_ROLE_HOOK = {
    "zip": "_fn",
    "map": "map_parts",
    "reduce": "commit_window",
    "sink": "commit_window",
    "write": "commit_window",
}


class _Side:
    """One operand side of a fused zip head (direct or through a feeder)."""

    __slots__ = (
        "feeder", "channel", "delta", "link", "fn", "empty_value",
        # per-acquisition state
        "reader", "window", "merged", "di", "ci", "sd", "sc",
        "data", "cpos", "ccode", "empty", "post", "tail",
    )

    def __init__(self, feeder, channel, link):
        self.feeder = feeder  # feeder block or None (direct operand)
        self.channel = channel  # the channel this side actually reads
        self.link = link  # feeder→head channel (None when direct)
        self.delta = link.timed.delta if link is not None else 0
        self.fn, self.empty_value = (
            feeder.map_parts() if feeder is not None else (None, None)
        )

    def take(self, head_block):
        """Take this side's window; False = parked (nothing held)."""
        if self.feeder is None:
            reader = head_block._treader(self.channel)
            reader.densify_empty(0.0)
        else:
            reader = self.feeder._treader(self.channel)
        self.reader = reader
        window = reader.take_window()
        if window is None:
            return False
        if self.feeder is None:
            batch, sd, sc = window
            tail = None
        else:
            batch, sd, sc, tail = split_done_stamped(*window)
        self.window = window
        self.tail = tail
        self.sd, self.sc = sd, sc
        self.data, self.cpos, self.ccode = batch.remaining_arrays()
        return True

    def merge(self, reuse=None):
        """Interleave this side's stamps into token order.

        ``reuse`` carries another side's ``(di, ci)`` token-order
        indices when the two raw structures were already proven equal —
        the bincount/cumsum pass is skipped and only the scatter runs.
        """
        if reuse is None:
            di, ci = token_order_indices(self.cpos, len(self.data))
        else:
            di, ci = reuse
        merged = np.empty(len(di) + len(ci), dtype=np.int64)
        merged[di] = self.sd
        merged[ci] = self.sc
        self.merged, self.di, self.ci = merged, di, ci
        if self.feeder is None:
            self.empty = None
            self.post = (len(self.data), self.cpos, self.ccode)
        else:
            empty = self.ccode == CODE_EMPTY
            nempty = int(np.count_nonzero(empty))
            self.empty = empty if nempty else None
            if self.empty is None:
                self.post = (len(self.data), self.cpos, self.ccode)
            else:
                keep = ~empty
                shift = empty.cumsum() - empty
                self.post = (
                    len(self.data) + nempty,
                    (self.cpos + shift)[keep],
                    self.ccode[keep],
                )

    def put_back(self):
        self.reader.put_back(self.window)
        self.clear()

    def clear(self):
        """Drop the acquisition's window: a side keeps none between steps."""
        self.reader = self.window = self.tail = None
        self.merged = self.di = self.ci = self.sd = self.sc = None
        self.data = self.cpos = self.ccode = self.empty = self.post = None

    def commit(self):
        """Advance the feeder (stats + counters) and produce the operand
        values plus the head's token-order arrival array."""
        if self.feeder is None:
            return self.data, self.merged
        c = self.feeder._t_advance(self.merged)
        vals = self.fn(self.data)
        if self.empty is not None:
            vals = insert_sorted(
                np.asarray(vals, dtype=np.float64),
                self.cpos[self.empty], self.empty_value,
            )
        ndata, _, ccode = self.post
        _bump_counts(self.link, ndata, ccode)
        if self.delta:
            # c is a fresh array or this window's own merged stamps
            # (read nowhere after this step) — shift it in place
            np.add(c, self.delta, out=c)
        return vals, c


class _ChainUnit:
    """A fused value chain: zip/map head (the zip optionally absorbing
    one map feeder per operand), map interiors, map/reduce/sink/write
    tail.  ``step()`` returns True on progress, False when parked, or
    ``_DISSOLVE`` when the zip head's operand structures lose
    alignment."""

    __slots__ = (
        "members", "blocks", "links", "deltas", "head", "roles",
        "parts", "head_in", "tail_out", "sides", "active", "emitters", "kind",
    )

    def __init__(self, blocks, segment, channels):
        self.members = list(segment.members)
        self.kind = segment.kind
        self.emitters = segment.emitters
        n_feeders = sum(1 for f in segment.feeders if f is not None)
        spine = segment.members[n_feeders:]
        self.blocks = [blocks[i] for i in spine]
        self.links = [channels[k] for k in segment.links]
        self.deltas = [ch.timed.delta for ch in self.links]
        self.head = self.blocks[0]
        self.roles = [b.fuse_role for b in self.blocks]
        # spine-positional (fn, empty_value) transforms of the map
        # members; feeder transforms live on their _Side instead
        self.parts = [
            b.map_parts() if role == "map" else None
            for b, role in zip(self.blocks, self.roles)
        ]
        ins = list(self.head.inputs.values())
        self.head_in = ins[0] if self.roles[0] == "map" else None
        self.sides = None
        if self.roles[0] == "zip":
            self.sides = []
            for chan, entry in zip(ins, segment.feeders):
                if entry is None:
                    self.sides.append(_Side(None, chan, None))
                else:
                    idx, link = entry
                    feeder = blocks[idx]
                    fin = list(feeder.inputs.values())[0]
                    self.sides.append(_Side(feeder, fin, channels[link]))
        outs = list(self.blocks[-1].outputs.values())
        # any non-reduce/sink/write tail (a zip head may itself be the
        # tail when it closed the segment purely by absorbing feeders)
        self.tail_out = (
            outs[0] if outs and self.roles[-1] in ("map", "zip") else None
        )
        self.active = True

    # -- phase 1: acquire (reversible) ----------------------------------
    def _acquire_zip(self):
        blk = self.head
        side_a, side_b = self.sides
        if not side_a.take(blk):
            return None
        if not side_b.take(blk):
            side_a.put_back()
            return None
        if (len(side_a.data) + len(side_a.ccode) == 0
                or len(side_b.data) + len(side_b.ccode) == 0):
            side_a.put_back()
            side_b.put_back()
            return None
        # When the raw structures already agree token for token, the
        # densified ones do too: one token-order pass serves both sides
        # and the post-structure comparison is settled up front.
        raw_match = (
            len(side_a.data) == len(side_b.data)
            and len(side_a.ccode) == len(side_b.ccode)
            and _same(side_a.cpos, side_b.cpos)
            and _same(side_a.ccode, side_b.ccode)
        )
        side_a.merge()
        side_b.merge((side_a.di, side_a.ci) if raw_match else None)
        na, pa, ca = side_a.post
        nb, pb, cb = side_b.post
        if not (
            (raw_match or (
                na == nb
                and _same(pa, pb)
                and _same(ca, cb)
            ))
            and not np.count_nonzero(ca[:-1] < 0)
            and (len(ca) == 0 or ca[-1] >= CODE_DONE)
        ):
            # Operands that pair only around phantom zeros (or not at
            # all): hand the windows back untouched and dissolve — the
            # ALU's own pairing takes them from there.
            side_a.put_back()
            side_b.put_back()
            return _DISSOLVE
        ends_done = bool(len(ca)) and int(ca[-1]) == CODE_DONE
        # phase 2 for the operand sides: feeders advance + transform
        va, arr_a = side_a.commit()
        vb, arr_b = side_b.commit()
        # token-order indices of the post-feeder structure (reuse a
        # side's own when its input structure was already dense)
        if side_a.empty is None:
            di, ci = side_a.di, side_a.ci
        elif side_b.empty is None:
            di, ci = side_b.di, side_b.ci
        else:
            di, ci = token_order_indices(pa, na)
        vals = blk._fn(va, vb)
        # both arrival arrays are fresh — reuse one for the zip max
        np.maximum(arr_a, arr_b, out=arr_a)
        tails = [side.tail for side in self.sides]
        side_a.clear()
        side_b.clear()
        return (vals, pa, ca), arr_a, di, ci, ends_done, tails

    def _acquire_map(self):
        taken = self.head._t_take_window(self.head_in)
        if taken is None:
            return None
        head, merged, di, ci, tail, *_ = taken
        data, cpos, ccode = head.remaining_arrays()
        fn, empty_value = self.parts[0]
        vals = fn(data)
        empty = ccode == CODE_EMPTY
        if np.count_nonzero(empty):
            # N tokens become data at their stream position, exactly as
            # _t_unary_window densifies them; the token-order schedule
            # indices are recomputed for the new structure.
            vals = insert_sorted(
                np.asarray(vals, dtype=np.float64), cpos[empty], empty_value
            )
            keep = ~empty
            shift = empty.cumsum() - empty
            cpos = (cpos + shift)[keep]
            ccode = ccode[keep]
            di, ci = token_order_indices(cpos, len(vals))
        ends_done = bool(len(ccode)) and int(ccode[-1]) == CODE_DONE
        return (vals, cpos, ccode), merged, di, ci, ends_done, tail

    # -- phase 2: commit (cannot fail) ----------------------------------
    def step(self):
        if self.blocks[-1].finished:
            return False
        acquired = (
            self._acquire_zip() if self.roles[0] == "zip"
            else self._acquire_map()
        )
        if acquired is None:
            return False
        if acquired is _DISSOLVE:
            return _DISSOLVE
        (vals, cpos, ccode), merged, di, ci, ends_done, tail = acquired
        c = _advance_members(self.blocks, self.deltas, merged)
        cctrl = c[ci]
        for k in range(1, len(self.blocks)):
            blk = self.blocks[k]
            _bump_counts(self.links[k - 1], len(vals), ccode)
            if self.roles[k] == "map":
                # interior streams never carry N after the head stage,
                # so the structure (and di/ci) is unchanged
                vals = self.parts[k][0](vals)
            else:
                # reduce/sink/write tail: the block's own commit of the
                # window, at its own control-token cycles
                blk.commit_window(vals, cpos, ccode, cctrl, ends_done)
        if self.tail_out is not None:
            out = self.blocks[-1]._tbuilder(self.tail_out)
            out.data_with_ctrl(vals, cpos, ccode, c[di], cctrl)
            out.flush()
        if ends_done:
            if self.sides is None:
                if tail is not None:
                    self.head_in.timed_requeue_front(*tail)
            else:
                for side, side_tail in zip(self.sides, tail):
                    if side.feeder is not None:
                        if side_tail is not None:
                            side.channel.timed_requeue_front(*side_tail)
                        side.feeder.finished = True
            for blk in self.blocks:
                blk.finished = True
        return True


class CompiledEngine(TimedBatchEngine):
    """Timed-batch engine with statically fused super-block segments."""

    backend = "compiled"
    fuses = True

    def _compile_segments(self, blocks, plan, channels):
        """A unit for every fused segment of the plan that holds at run time.

        Rejection (→ plain timed-batch execution for the members) when
        an interior link holds tokens or a member lacks the hook its
        role is fused through (:data:`_ROLE_HOOK`).  The partition, its
        structural link rules and the plan keys come from the plan.
        """
        units = {}
        compiled, rejected, plans = [], 0, []
        cache_mark = (PLAN_CACHE.hits, PLAN_CACHE.misses)
        for seg in plan.segments:
            interior = [channels[k] for k in seg.links]
            interior += [channels[f[1]] for f in seg.feeders if f is not None]
            if any([ch.queue or ch.timed.pending for ch in interior]) or not all([
                    hasattr(blocks[i], _ROLE_HOOK[blocks[i].fuse_role])
                    for i in seg.members]):
                rejected += 1
                continue
            unit = _ChainUnit(blocks, seg, channels)
            compiled.append(unit)
            cached = seg.key in PLAN_CACHE
            plans.append({
                "kind": seg.kind,
                "members": len(seg.members),
                "key": PLAN_CACHE.get(seg.key),
                "cached": cached,
            })
            for i in seg.members:
                units[i] = unit
        #: the one per-run record _report reads: every compiled unit (a
        #: dissolve only flips its ``active`` flag), the compile-time
        #: rejections, the per-segment plan records and the cache
        #: counters from before them
        self._segment_log = (compiled, rejected, plans, cache_mark)
        return units

    def _report(self, cycles, handoff=None):
        """Attach ``report.fusion`` (segment statistics as of the end of
        the run: a dissolved unit counts as a fallback, its kind stays
        listed at the reduced count; all zero on a run handed to
        ``cycle``) and ``report.plans`` (the fused segments' plan digests
        and this run's cache hits/misses)."""
        report = super()._report(cycles, handoff)
        compiled, rejected, plans, (hits, misses) = (
            ([], 0, [], (PLAN_CACHE.hits, PLAN_CACHE.misses)) if handoff
            else self._segment_log
        )
        fusion = {
            "segments": 0,
            "fused_blocks": 0,
            "fallbacks": rejected,
            "total_blocks": len(self.blocks),
            "kinds": {},
        }
        for unit in compiled:
            live = int(unit.active)
            fusion["segments"] += live
            fusion["fused_blocks"] += live * len(unit.members)
            fusion["fallbacks"] += 1 - live
            fusion["kinds"][unit.kind] = fusion["kinds"].get(unit.kind, 0) + live
        report.fusion = fusion
        report.plans = {
            "segments": plans,
            "run_hits": PLAN_CACHE.hits - hits,
            "run_misses": PLAN_CACHE.misses - misses,
        }
        return report
