"""Coarse-grained parallelism: parallelizers and serializers (section 4.4).

SAM expresses coarse-grained parallelism by forking streams with a
parallelizer and joining them with a serializer.  The parallelizer
distributes fibers (or, Gamma-style, the elements of each fiber)
round-robin across lanes; every lane receives every stop/done token so
each lane remains a well-formed stream.  The interleaving serializer
rejoins the independent streams the lanes' pipelines produce, one whole
fiber at a time in rotation, into one sequential stream.

Both the parallelizer and the interleaving serializer carry timed-batch
drains (rate-1, one event per token, matching their generators cycle for
cycle), so multi-lane graphs like gamma run entirely on the stamped
plane.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..streams.batch import CODE_DATA, CODE_DONE, CODE_EMPTY, NO_TOKEN, filled
from ..streams.channel import Channel
from ..streams.timing import consume, front_stream, index_ramp
from ..streams.token import DONE, Stop, is_data, is_done, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer


class Parallelizer(Block):
    """Fork one stream into L lanes, round-robin.

    Two granularities:

    * ``"fiber"`` (default) — fiber ``f``'s data tokens go to lane
      ``f mod L``; every lane sees every stop so lane streams keep the
      original shape (fine-grained work distribution);
    * ``"element"`` — data tokens rotate lanes within each fiber; stops
      broadcast.  This is the Gamma-style row distribution: splitting a
      flat stream of row coordinates/references across processing lanes
      that each run a complete downstream pipeline.
    """

    primitive = "parallelize"

    port_specs = (
        PortSpec('in', 'in', kind=None),
        PortSpec('out{i}', 'out', kind=None, variadic=True),
    )
    # Every lane sees every stop/done token, so lane streams keep the
    # input's shape (only the data tokens are distributed).
    stream_xfer = StreamXfer(
        ins=(("in", "d"),),
        outs=(("out{i}", "=in", "d"),),
    )

    def __init__(
        self,
        in_: Channel,
        outs: List[Channel],
        granularity: str = "fiber",
        name: str = "par",
    ):
        super().__init__(name)
        if not outs:
            raise BlockError(f"{name}: need at least one output lane")
        if granularity not in ("fiber", "element"):
            raise BlockError(f"{name}: unknown granularity {granularity!r}")
        self.in_ = self._in("in", in_)
        self.outs = [self._out(f"out{i}", ch) for i, ch in enumerate(outs)]
        self.granularity = granularity
        #: round-robin rotation state
        self._lane = 0

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            if is_data(token):
                self.outs[self._lane % len(self.outs)].push(token)
                if self.granularity == "element":
                    self._lane += 1
            elif is_stop(token):
                for channel in self.outs:
                    channel.push(token)
                if self.granularity == "fiber":
                    self._lane += 1
                else:
                    self._lane = 0
            elif is_done(token):
                for channel in self.outs:
                    channel.push(DONE)
                yield True
                return
            else:
                self._raise_empty()
            yield True

    def _raise_empty(self):
        raise BlockError(
            f"{self.name}: an N has no lane (a parallelizer splits "
            f"coordinate and reference streams, which carry no N)"
        )

    def drain_timed(self) -> bool:
        """Timed drain: one event per input token; stops/done broadcast.

        The whole window is one epoch advance; each data token's stamp
        lands on its destination lane only, while every control stamp is
        replicated to all lanes (the generator pushes the stop/done to
        each lane within the same cycle).
        """
        taken = None if self.finished else self._t_take_window(self.in_)
        if taken is None:
            return False
        data, cpos, ccode = taken.head.remaining_arrays()
        if np.count_nonzero(ccode == CODE_EMPTY):
            self._raise_empty()
        _, cd, cc = self._t_window_cycles(taken)
        L, ndata = len(self.outs), len(data)
        stop_pos = cpos[ccode >= 0]
        d_idx = index_ramp(ndata)
        fiber = stop_pos.searchsorted(d_idx, side="right")
        if self.granularity == "fiber":
            lane = (self._lane + fiber) % L
            self._lane = (self._lane + len(stop_pos)) % L
        else:  # a fiber's data from lane 0 on; the first goes on from _lane
            start = np.concatenate(([-self._lane], stop_pos))
            lane = (d_idx - start[fiber]) % L
            self._lane = int(ndata - start[-1]) % L
        for i, channel in enumerate(self.outs):
            out = self._tbuilder(channel)
            mask = lane == i
            sel = np.zeros(ndata + 1, dtype=np.int64)
            mask.cumsum(out=sel[1:])
            out.data_with_ctrl(data[mask], sel[cpos], ccode, cd[mask], cc)
            out.flush()
        self._t_window_done(self.in_, taken.head.ends_done, taken.tail)
        return True


class InterleaveSerializer(Block):
    """Rejoin *independent* lane streams produced by element-granularity
    distribution followed by per-lane pipelines.

    Each lane stream carries its own fibers (no shared boundary tokens);
    the serializer emits one whole fiber at a time, round-robin across
    lanes, reconstructing the original element order.  Lane fiber counts
    may differ by one; lanes exhaust in rotation order, so the first D on
    the active lane signals global completion.

    The block handles two-level lane streams (one output fiber per
    distributed element): per-lane hierarchical closures are normalised
    to plain fiber boundaries (each lane's final stop is elevated for
    *its* stream, which no longer holds after joining) and the joined
    stream's own final stop is re-promoted.
    """

    primitive = "serialize"

    port_specs = (
        PortSpec('in{i}', 'in', kind=None, variadic=True),
        PortSpec('out', 'out', kind=None),
    )
    # Independent per-lane fibers interleave one fiber at a time; the
    # joined stream keeps the per-lane nesting depth.
    stream_xfer = StreamXfer(
        ins=(("in{i}", "d"),),
        outs=(("out", "=in0", "d"),),
    )

    def __init__(self, ins: List[Channel], out: Channel, name: str = "iser"):
        super().__init__(name)
        if not ins:
            raise BlockError(f"{name}: need at least one input lane")
        self.ins = [self._in(f"in{i}", ch) for i, ch in enumerate(ins)]
        self.out = self._out("out", out)
        #: rotation/progress state shared with the timed drain: the
        #: active fiber index, the held (normalised) stop level awaiting
        #: the next fiber, and whether the active fiber is mid-copy
        self._fi = 0
        self._pending = None
        self._mid = False

    def _run(self):
        while True:
            lane = self._fi % len(self.ins)
            active = self.ins[lane]
            token = yield from self._get(active)
            if not self._mid:
                if is_done(token):
                    for i, channel in enumerate(self.ins):
                        if channel is active:
                            continue
                        other = yield from self._get(channel)
                        self._check_done(i, other)
                    if self._pending is not None:
                        # The joined stream's last fiber also closes the
                        # level above (hierarchical stops, Figure 1d).
                        self.out.push(Stop(self._pending + 1))
                    self.out.push(DONE)
                    yield True
                    return
                if self._pending is not None:
                    self.out.push(Stop(self._pending))
                    self._pending = None
                    yield True
                self._mid = True
            # Copy one whole fiber (data tokens, holding back its stop,
            # normalised to a plain fiber boundary).
            while not is_stop(token):
                self._check_in_fiber(lane, token)
                self.out.push(token)
                yield True
                token = yield from self._get(active)
            self._pending = 0
            self._fi += 1
            self._mid = False
            yield True

    # -- protocol checks, shared by both definitions ----------------------
    def _check_done(self, lane: int, other) -> None:
        if not is_done(other):
            raise BlockError(f"{self.name}: lane {lane} desync at D ({other!r})")

    def _check_in_fiber(self, lane: int, token) -> None:
        """Only a stop ends a fiber: ``D`` inside one is a truncated lane."""
        if is_done(token):
            raise BlockError(f"{self.name}: lane {lane} ended mid-fiber")

    def drain_timed(self) -> bool:
        """Timed drain: one rotation gather, one schedule, one push.

        :meth:`_join_window` takes every fiber the rotation can reach.
        What is then in front of the active lane is a wait, the ``D``
        that every lane must carry, or a ``D`` inside a fiber —
        ``_run``'s own checks raise those.
        """
        if self.finished:
            return False
        out = self._tbuilder(self.out)
        readers = [self._treader(channel) for channel in self.ins]
        progressed = self._join_window(readers, out)
        lane = self._fi % len(readers)
        token, _ = readers[lane].peek()
        if token is NO_TOKEN:
            pass  # waiting for the active lane
        elif self._mid or not is_done(token):
            self._check_in_fiber(lane, token)
            raise AssertionError(f"{self.name}: joinable tokens left in front")
        else:
            gate = 0
            for i, reader in enumerate(readers):
                other, stamp = reader.peek()
                if other is NO_TOKEN:
                    break
                self._check_done(i, other)
                gate = max(gate, stamp)
            else:
                for reader in readers:
                    reader.pop()
                cyc = self._t_event(gate)
                if self._pending is not None:
                    out.ctrl(self._pending + 1, cyc)
                    self._pending = None
                out.ctrl(CODE_DONE, cyc)
                self.finished = progressed = True
        out.flush()
        return progressed

    def _join_window(self, readers, out) -> bool:
        """Join the fibers the held lane windows complete, in rotation.

        With ``k_r`` stop-closed fibers held on the lane at rotation
        offset *r*, fibers ``0 .. F-1`` are joinable, ``F = min_r(r +
        k_r * L)``: fiber *j* of lane *r* is joined fiber ``r + L * j``;
        whatever has arrived of fiber *F* follows them (it stays open in
        ``_mid``).  A lane is read up to its ``D`` as control-terminated
        *runs* (:func:`front_stream`: an ``N`` just closes a run inside
        its fiber), so only data moves in bulk.  Events, per fiber: the
        ``S0`` held back from the fiber before it, gated by this fiber's
        first token, then run by run its data and the token closing the
        run; a stop emits nothing.
        """
        L = len(readers)
        windows = [readers[(self._fi + r) % L].held_window() for r in range(L)]
        lanes = [front_stream(window).before_done() for window in windows]
        stops = [(lane.codes >= 0).nonzero()[0] for lane in lanes]
        joinable = min(r + len(at) * L for r, at in enumerate(stops))
        # One row per run taken, lane by lane.  Fiber F's lane gives all it
        # holds: N tokens, then the run no token closes yet (closed by
        # CODE_DATA).
        rows, took = [], []
        for r, (lane, at) in enumerate(zip(lanes, stops)):
            count = len(range(r, joinable, L))
            taken = int(at[count - 1]) + 1 if count else 0
            if r == joinable % L:
                taken = len(lane.codes) + 1
            ends = np.concatenate((lane.ends, [len(lane.data)]))[:taken]
            rows.append((
                r + L * np.concatenate(([0], (lane.codes >= 0).cumsum()))[:taken],
                ends - np.concatenate(([0], ends))[:taken],
                np.concatenate((lane.codes, [CODE_DATA]))[:taken],
                np.concatenate((lane.scodes, [0]))[:taken],
            ))
            took.append(int(ends[-1]) if taken else 0)
            consume(windows[r], took[-1], min(taken, len(lane.codes)))
        real = [(code != CODE_DATA) | (size > 0) for _, size, code, _ in rows]
        fiber, size, code, stamp = (np.concatenate(column)[np.concatenate(real)]
                                    for column in zip(*rows))
        if not len(fiber):
            return False
        # Fiber j of the lane at offset r is joined fiber r + L * j, and a
        # fiber's rows are adjacent: row i goes behind the rows of the
        # fibers before its own and those of its own fiber before it.
        fresh = np.concatenate(([True], fiber[1:] != fiber[:-1]))
        held, ramp = np.bincount(fiber), index_ramp(len(fiber))
        place = (held.cumsum() - held)[fiber] + ramp
        place -= np.maximum.accumulate(np.where(fresh, ramp, 0))
        order = np.empty(len(place), dtype=np.int64)
        order[place] = ramp
        leads = fresh[order]  # an S0 goes in front
        leads[0] = not (self._mid or self._pending is None)
        span = leads + size[order] + (code[order] != CODE_DATA)
        first = span.cumsum() - span
        begin = first + leads
        arrivals = np.empty(int(first[-1] + span[-1]), dtype=np.int64)
        kinds = [lane.data.dtype for lane in lanes if len(lane.data)]
        payload = np.empty(len(arrivals), dtype=np.result_type(np.int64, *kinds))
        # every row's data into its events, lane by lane
        slot = (begin[place] - (size.cumsum() - size)).repeat(size)
        slot += index_ramp(len(slot))
        top = 0
        for lane, n in zip(lanes, took):
            arrivals[slot[top:top + n]] = lane.sdata[:n]
            payload[slot[top:top + n]] = lane.data[:n]
            top += n
        fiber, size, code, stamp = fiber[order], size[order], code[order], stamp[order]
        closed = code != CODE_DATA
        close_at, lead_at = (begin + size)[closed], first[leads]
        arrivals[close_at] = stamp[closed]
        arrivals[lead_at] = arrivals[lead_at + 1]
        is_data = filled(len(arrivals), True, bool)
        is_data[close_at] = is_data[lead_at] = False
        cycles = self._t_advance(arrivals)
        # control tokens out, run by run: the S0 if the run leads its
        # fiber, the closing token unless it is a stop
        ahead = size.cumsum() - size
        emit = _pairs(leads, closed & (code < 0))
        out.data_with_ctrl(
            payload[is_data],
            _pairs(ahead, ahead + size)[emit],
            _pairs(np.zeros(len(code), dtype=code.dtype), code)[emit],
            cycles[is_data],
            cycles[_pairs(first, begin + size)[emit]],
        )
        self._fi += joinable
        self._mid = bool(fiber[-1] == joinable)
        self._pending = None if self._mid else 0
        return True


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``"""
    return np.column_stack((a, b)).ravel()
