"""The plan of a window run: what a block list's structure decides, once.

A :class:`Plan` holds, as block and channel *indices*, everything the
timed engines (:mod:`repro.sim.backends.timed_batch` and its compiled
subclass) derive from a block list before a window run and no operand
value can change: the wiring, each block's plane verdict with its
reason, the worklist's dependency order, each channel's visibility
deltas, the scanner hand-overs, and the fused-segment partition with
its plan-cache keys.

:func:`plan_blocks` is the one place all of it is decided.  A run of a
hand-built block list calls it once; :func:`repro.graph.bind.bind`
keeps the plan of a frozen graph and hands it to every later run of
that graph, which re-checks only what may have changed since the plan
was made (:meth:`Plan.live`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ...streams.batch import UnbatchableTokens, batch_kind
from ...streams.channel import Channel


def _off_plane(block) -> Optional[str]:
    """Why *block* cannot run its window hook, or None when it can."""
    kind = type(block).__name__
    if type(block).drain_timed is None or block.timing is None:
        return f"block {block.name!r} ({kind}): no window hook"
    if not block._timed_ok or block._gen is not None:
        return f"block {block.name!r} ({kind}): already on its generator"
    if not block.timed_capable():
        return f"block {block.name!r} ({kind}): its window hook cannot run here"
    return None


def _unbatchable(channel: Channel) -> bool:
    """Whether a token queued on *channel* before the run does not batch."""
    try:
        for token in channel.queue:
            batch_kind(token)
    except UnbatchableTokens:
        return True
    return False


def wiring(blocks):
    """Index the channels of *blocks*: every block's outputs in block
    order, then the inputs no block produces.  Returns the index (a
    dict from channel to index, in index order) and, per block, the
    indices of its outputs and of its inputs in port order."""
    index: Dict[Channel, int] = {}
    ports = []
    for registry in [b.outputs for b in blocks] + [b.inputs for b in blocks]:
        row = []
        for ch in registry.values():
            k = index.get(ch)
            if k is None:
                k = index[ch] = len(index)
            row.append(k)
        ports.append(tuple(row))
    n = len(blocks)
    return index, tuple(ports[:n]), tuple(ports[n:])


def dependency_order(n: int, producer, consumer) -> list:
    """Block indices ``0..n-1`` with every producer before its consumers
    (Kahn's algorithm, ties to the lower index); a block left on a cycle
    follows in block order.  ``producer[k]`` / ``consumer[k]`` is the
    block that pushes / pops channel *k* (None: none does)."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for p, c in zip(producer, consumer):
        if p is not None and c is not None:
            succ[p].append(c)
            indeg[c] += 1
    ready = [i for i in range(n) if not indeg[i]]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in succ[i]:
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(ready, c)
    if len(order) < n:
        placed = set(order)
        order += [i for i in range(n) if i not in placed]
    return order


class Segment(NamedTuple):
    """A fused segment of a plan (:class:`FusedSegment`, by index)."""

    members: Tuple[int, ...]
    links: Tuple[int, ...]  # interior channels, in flow order
    feeders: Tuple[Optional[Tuple[int, int]], ...]  # (block, link) per operand
    kind: str
    key: Tuple  # segment_plan_key
    emitters: Tuple[int, ...]  # members with an output leaving the segment


@dataclass(frozen=True, eq=False)
class Plan:
    """The structure of a window run over one block list, by index.

    Channel *k* is the *k*-th channel :func:`wiring` finds.  ``base``
    is each block's own verdict (:func:`_off_plane`) and ``reasons`` the
    verdict after the channel rules; ``handoff`` is the first reason, in
    block order (None: the run is all windows).  ``producer[k]`` and
    ``consumer[k]`` are the blocks that push and pop channel *k* (None:
    none does).  ``handovers`` are ``(consumer, side, crd, ref,
    scanner)``.  ``segments`` is None for a plan made without the
    fusion partition.  :meth:`planes` reads each block's plane and the
    reason off it.
    """

    outs: Tuple[Tuple[int, ...], ...]
    ins: Tuple[Tuple[int, ...], ...]
    capacity: Tuple[Optional[int], ...]
    record: Tuple[bool, ...]
    base: Tuple[Optional[str], ...]
    reasons: Tuple[Optional[str], ...]
    handoff: Optional[str]
    order: Tuple[int, ...]
    deltas: Tuple[Tuple[int, int], ...]
    producer: Tuple[Optional[int], ...]
    consumer: Tuple[Optional[int], ...]
    handovers: Tuple[Tuple[int, int, int, int, int], ...]
    segments: Optional[Tuple[Segment, ...]]

    def live(self, blocks) -> Optional[List[Channel]]:
        """The channels of *blocks* in plan order when this plan still
        holds for them, else None.

        Re-checked on every run, since each may change after a bind: the
        wiring (``rebind_input``), each channel's capacity and
        ``record``, a token queued before the run that does not batch,
        and each block's own verdict, whose ``timed_capable()`` may also
        prepare the instance for its hook.
        """
        index, outs, ins = wiring(blocks)
        if outs != self.outs or ins != self.ins:
            return None
        channels = list(index)
        for ch, capacity, record in zip(channels, self.capacity, self.record):
            if ch.capacity != capacity or ch.record != record or (
                    ch.queue and _unbatchable(ch)):
                return None
        if tuple([_off_plane(b) for b in blocks]) != self.base:
            return None
        return channels

    def planes(self, blocks) -> List[Tuple[str, str]]:
        """Each of *blocks*' plane and why, read off the plan: ``cycle``
        for every block of a run handed off, ``fused`` for a member of a
        fused segment (the compiled engine's), else ``timed``, with the
        block's fuse role."""
        if self.handoff is not None:
            return [("cycle", reason or f"the run is handed off: {self.handoff}")
                    for reason in self.reasons]
        fused = {m: f"member of {seg.kind} segment {s}"
                 for s, seg in enumerate(self.segments or ()) for m in seg.members}
        return [
            ("fused", fused[i]) if i in fused
            else ("timed", f"{role} role, in no fusible chain" if role
                  else "no fuse role: its own window hook")
            for i, role in enumerate([_fuse_role(b) for b in blocks])
        ]


def plan_blocks(blocks, fuse: bool = True) -> Tuple[Plan, List[Channel]]:
    """The plan of a window run over *blocks*, and their channels in
    plan order; ``fuse=False`` leaves the fusion partition out.

    The plane rule: every block is timed, or none is.  A block
    qualifies when :func:`_off_plane` finds no reason against it; both
    endpoints of a channel holding a token queued before the run that
    cannot be batched fail, and so do both endpoints of a finite FIFO
    unless they are a credit-aware pair.  Touches no channel.
    """
    index, outs, ins = wiring(blocks)
    channels = list(index)
    n = len(blocks)
    producer: List[Optional[int]] = [None] * len(channels)
    consumer: List[Optional[int]] = [None] * len(channels)
    for i, ks in enumerate(outs):
        for k in ks:
            producer[k] = i
    for i, ks in enumerate(ins):
        for k in ks:
            consumer[k] = i

    base = tuple([_off_plane(b) for b in blocks])
    reasons = list(base)
    timed = [reason is None for reason in reasons]

    def demote(k: int, why: str) -> bool:
        changed = False
        for i in (producer[k], consumer[k]):
            if i is not None and timed[i]:
                timed[i] = False
                reasons[i] = f"channel {channels[k].name!r}: {why}"
                changed = True
        return changed

    for k, ch in enumerate(channels):
        if ch.queue and _unbatchable(ch):
            demote(k, "a token queued before the run does not batch")
    # Finite-capacity channels need credit-aware endpoints on the
    # batched plane (producer push schedules gated by recorded pop
    # cycles; see Block.timed_credit_producer/consumer — the stock
    # pairing is StreamFeeder -> Sink).
    changed = True
    while changed:
        changed = False
        for k, ch in enumerate(channels):
            if ch.capacity is None:
                continue
            p, c = producer[k], consumer[k]
            keep = (
                p is not None
                and c is not None
                and timed[p]
                and timed[c]
                and blocks[p].timed_credit_producer
                and blocks[c].timed_credit_consumer
            )
            if not keep:
                changed |= demote(
                    k, f"capacity {ch.capacity} without a credit pair")
    handoff = next((reason for reason in reasons if reason is not None), None)

    # (delta, delta_pop): 0 where the reader steps after the writer
    deltas = tuple([
        (0, 0) if p is None or c is None
        else (0, 1) if c > p else (1, 0) if p > c else (1, 1)
        for p, c in zip(producer, consumer)
    ])
    # A consumer input — a merger side, an untargeted locator — that
    # reads both outputs of one scanner reads that scanner's fibers as
    # runs (LevelScanner.hand_over, called as the run starts).
    handovers = []
    for i, block in enumerate(blocks):
        for side, crd, ref in getattr(block, "run_inputs", list)():
            p = producer[index[crd]] if crd in index else None
            if (p is not None and getattr(blocks[p], "hand_over", None) is not None
                    and ref in index and producer[index[ref]] == p):
                handovers.append((i, side, index[crd], index[ref], p))
    segments = _segments(blocks, index, deltas) if fuse else None
    plan = Plan(
        outs, ins,
        tuple([ch.capacity for ch in channels]), tuple([ch.record for ch in channels]),
        base, base if reasons == list(base) else tuple(reasons), handoff,
        tuple(dependency_order(n, producer, consumer)),
        deltas, tuple(producer), tuple(consumer), tuple(handovers), segments,
    )
    return plan, channels


def _segments(blocks, index, deltas) -> Tuple[Segment, ...]:
    """The fusion partition of *blocks* by index, with plan keys."""
    segments = []
    for seg in partition_segments(blocks):
        interior = set(seg.links)
        interior.update(f[1] for f in seg.feeders if f is not None)
        links = tuple([index[ch] for ch in seg.links])
        segments.append(Segment(
            tuple(seg.members),
            links,
            tuple(None if f is None else (f[0], index[f[1]]) for f in seg.feeders),
            seg.kind,
            segment_plan_key(blocks, seg, [deltas[k][0] for k in links]),
            tuple(m for m in seg.members
                  if any(ch not in interior for ch in blocks[m].outputs.values())),
        ))
    return tuple(segments)


# -- segment fusion ------------------------------------------------------
#
# The compiled backend (compiled.py) runs each fusible segment of a plan
# as one super-block: a maximal linear chain of descriptor-carrying
# blocks joined by single-producer/single-consumer channels.  The
# partition is purely structural — roles come from each block's
# ``TimingDescriptor.fuse_role`` — so it can also annotate DOT renderings
# (graph/dot.py) without running anything.

#: roles that may continue a value chain after the head
_CHAIN_INTERIOR = ("map",)
#: roles that may close a value chain (a trailing "map" also closes one)
_CHAIN_TAIL = ("map", "reduce", "sink", "write")


@dataclass
class FusedSegment:
    """One fusible segment — a chain: zip/map head, map interiors,
    map/reduce/sink/write tail — as member block indices plus interior
    channels.

    ``kind`` is the human-readable classification used in fusion stats
    and DOT labels: ``"value-chain"``, or ``"writer-tail"`` for a chain
    closed by a writer.

    ``links`` holds the interior channels in flow order.  Fused
    execution never pushes tokens through them, so the engine
    reconstructs their token counts arithmetically.

    A zip head may additionally absorb one *feeder* per operand: a map
    block whose single output is that operand (e.g. the two value loads
    in front of a multiplier).  ``feeders`` holds ``(block index,
    feeder→head channel)`` pairs aligned with the head's input order,
    ``None`` for operands wired directly; feeder indices also appear in
    ``members`` (before the head) so claiming and reporting see them.
    """

    members: List[int]
    links: List[Channel] = field(default_factory=list)
    feeders: List = field(default_factory=list)
    kind: str = ""


def _fuse_role(block) -> str:
    timing = getattr(block, "timing", None)
    if timing is None or getattr(block, "drain_timed", None) is None:
        return ""
    return getattr(timing, "fuse_role", "")


def _link_ok(channel: Channel, producers, consumers) -> bool:
    """Whether *channel* can be a fused-interior link (structurally)."""
    return (
        channel.capacity is None
        and not channel.record
        and len(producers.get(channel, ())) == 1
        and len(consumers.get(channel, ())) == 1
    )


def partition_segments(blocks) -> List[FusedSegment]:
    """Partition *blocks* into fusible segments for the compiled backend.

    Returns the segments in head-index order; every block belongs to at
    most one segment and single-block "segments" are never emitted.  The
    rules (see docs/architecture.md, "segment fusion"):

    * a member joins a segment only through channels that are unbounded,
      unrecorded, and single-producer/single-consumer;
    * every input of a non-head member must come from its predecessor
      (no side entrances), and every output of a non-tail member must go
      to its successor (no side exits);
    * ``zip``/``map`` roles may head a value chain, ``map`` may continue
      it, and ``map``/``reduce``/``sink``/``write`` may close it.

    Blocks without a fuse role (scanners, locators, mergers, repeaters,
    droppers …) are never claimed: they run their own ``drain_timed`` on
    the plain timed plane (docs/architecture.md, "Segment fusion").
    """
    producers: Dict[Channel, List[int]] = {}
    consumers: Dict[Channel, List[int]] = {}
    for i, block in enumerate(blocks):
        for ch in block.outputs.values():
            producers.setdefault(ch, []).append(i)
        for ch in block.inputs.values():
            consumers.setdefault(ch, []).append(i)

    roles = [_fuse_role(b) for b in blocks]
    claimed = [False] * len(blocks)
    segments: List[FusedSegment] = []

    def sole_successor(i: int):
        """(next index, link) if *i*'s one output feeds an unclaimed
        block through a fusible link; else (None, None)."""
        outs = list(blocks[i].outputs.values())
        if len(outs) != 1 or not _link_ok(outs[0], producers, consumers):
            return None, None
        nxt = consumers[outs[0]][0]
        if claimed[nxt] or nxt == i:
            return None, None
        # No side entrances: every input of nxt must come from i.
        for ch in blocks[nxt].inputs.values():
            if producers.get(ch, [None])[0] != i:
                return None, None
        return nxt, outs[0]

    # A head is a zip/map block that could not itself be the
    # continuation of an earlier fusible member.
    def could_continue(i: int) -> bool:
        ins = list(blocks[i].inputs.values())
        if len(ins) != 1 or not _link_ok(ins[0], producers, consumers):
            return False
        prev = producers[ins[0]][0]
        if claimed[prev] or roles[prev] not in ("zip", "map"):
            return False
        nxt, _ = sole_successor(prev)
        return nxt == i

    def feeder_for(channel, head: int):
        """(map index, link) feeding *channel* into zip head, or None."""
        if not _link_ok(channel, producers, consumers):
            return None
        prev = producers[channel][0]
        if (
            claimed[prev]
            or prev == head
            or roles[prev] != "map"
            or len(blocks[prev].inputs) != 1
            or len(blocks[prev].outputs) != 1
        ):
            return None
        return prev, channel

    for i, block in enumerate(blocks):
        if claimed[i] or roles[i] not in ("zip", "map"):
            continue
        if roles[i] == "map" and could_continue(i):
            continue  # an earlier head will pick this block up
        feeders: List = []
        if roles[i] == "zip":
            feeders = [
                feeder_for(ch, i) for ch in block.inputs.values()
            ]
        members = [i]
        links: List[Channel] = []
        cur = i
        while True:
            nxt, link = sole_successor(cur)
            if nxt is None:
                break
            role = roles[nxt]
            if role not in _CHAIN_TAIL:
                break
            members.append(nxt)
            links.append(link)
            claimed[nxt] = True
            if role not in _CHAIN_INTERIOR:
                break  # reduce/sink close the chain
            cur = nxt
        n_feeders = sum(1 for f in feeders if f is not None)
        if len(members) + n_feeders < 2:
            for m in members[1:]:
                claimed[m] = False
            continue
        claimed[i] = True
        for entry in feeders:
            if entry is not None:
                claimed[entry[0]] = True
        members = [f[0] for f in feeders if f is not None] + members
        kind = "writer-tail" if roles[members[-1]] == "write" else "value-chain"
        segments.append(FusedSegment(members, links, feeders, kind))

    segments.sort(key=lambda s: s.members[0])
    return segments


def segment_plan_key(blocks, segment: "FusedSegment", deltas=None) -> Tuple:
    """Structural plan-cache key of one fused segment.

    Keys capture everything the compiled backend's composed schedule
    depends on — member classes, fuse roles, initiation intervals,
    transform tags, link visibility deltas,
    and feeder placement — and nothing run-specific (no clocks, no
    data), so repeated bindings of the same expression shape map to the
    same :data:`repro.jit.PLAN_CACHE` entry.  Link deltas are derived
    structurally (0 when the consumer runs later in the block list, 1
    otherwise — the rule the engine applies at init time), so keys
    computed without timed state match the engine's.  *deltas* are the
    links' deltas when the caller has them (:func:`plan_blocks` does).
    """
    if deltas is None:
        producers: Dict[Channel, int] = {}
        consumers: Dict[Channel, int] = {}
        for i, block in enumerate(blocks):
            for ch in block.outputs.values():
                producers[ch] = i
            for ch in block.inputs.values():
                consumers.setdefault(ch, i)
        deltas = []
        for ch in segment.links:
            p = producers.get(ch)
            c = consumers.get(ch)
            deltas.append(0 if p is not None and c is not None and c > p else 1)
    members = []
    for i in segment.members:
        block = blocks[i]
        timing = getattr(block, "timing", None)
        ii = 1 if timing is None else timing.ii
        members.append(
            (type(block).__name__, _fuse_role(block), ii, block.plan_tag())
        )
    feeders = tuple(f is not None for f in segment.feeders)
    return (
        segment.kind,
        tuple(members),
        tuple(deltas),
        feeders,
    )
