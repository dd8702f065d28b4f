"""Repeaters (Definition 3.4, Figure 6) and repeat-signal generation.

A repeater broadcasts a tensor across a dimension of another tensor: each
non-control token on its input reference stream is repeated once per
non-control token of the driving coordinate stream's current fiber.  The
repeater is the primitive that lets SAM broadcast without pre-configured
iteration counters (the limitation the paper calls out in SPU, ExTensor
and Capstan).

The implementation follows the two-piece structure of the SAM hardware:
a :class:`RepeatSigGen` that turns a coordinate stream into a repeat
signal (one ``R`` per coordinate, stops passed through), and the
:class:`Repeater` proper.  :func:`make_repeater` wires both and is what
graphs count as a single "repeater" primitive, matching Table 1.

Repeat-signal protocol of the repeater:

* ``R``      — emit the current reference (popping a fresh one if needed);
* ``Sn``     — end of the driving fiber: emit ``Sn``; the repeated
  reference is exhausted; if the reference stream's next token is itself
  a stop (the driving stop closed an outer level), consume it.  If no
  ``R`` arrived for the pending reference (empty driving fiber), the
  pending reference is popped and discarded;
* ``D``      — consume the reference stream's ``D`` and pass ``D`` on.
"""

from __future__ import annotations

import numpy as np

from ..streams.batch import (
    _EMPTY_I64, CODE_DATA, CODE_DONE, CODE_EMPTY, CODE_REPEAT, NO_TOKEN, TokenBatch,
    filled,
)
from ..streams.channel import Channel
from ..streams.timing import align_chunks, consume, front_stream, merge_stamps
from ..streams.token import DONE, Stop, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer

#: the repeat token emitted by RepeatSigGen for every coordinate
REPEAT = "R"


class RepeatSigGen(Block):
    """Turns a coordinate stream into a repeat-signal stream."""

    primitive = "repeat_sig_gen"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
        PortSpec('out_repsig', 'out', kind='repsig'),
    )
    # One R per coordinate, stops pass through: shape-preserving.
    stream_xfer = StreamXfer(
        ins=(("in_crd", "d"),),
        outs=(("out_repsig", "repsig", "d"),),
    )

    def __init__(self, in_crd: Channel, out_repsig: Channel, name: str = "repsig"):
        super().__init__(name)
        self.in_crd = self._in("in_crd", in_crd)
        self.out_repsig = self._out("out_repsig", out_repsig)

    def _run(self):
        while True:
            token = yield from self._get(self.in_crd)
            if is_data(token):
                self.out_repsig.push(REPEAT)
            else:
                self.out_repsig.push(token)
            yield True
            if is_done(token):
                return

    def drain_timed(self) -> bool:
        """Timed drain: uniform rate-1 map onto a pure-control batch."""
        if self.finished:
            return False
        taken = self._t_take_window(self.in_crd)
        if taken is None:
            return False
        head, merged, _, ci, tail, *_ = taken
        c = self._t_advance(merged)
        codes = filled(len(merged), CODE_REPEAT)
        codes[ci] = head.remaining_arrays()[2]
        self.out_repsig.push_batch_timed(
            TokenBatch(
                np.empty(0, dtype=np.int64),
                np.zeros(len(merged), dtype=np.int64),
                codes,
            ),
            np.empty(0, dtype=np.int64),
            c,
        )
        self._t_window_done(self.in_crd, head.ends_done, tail)
        return True


class Repeater(Block):
    """Repeats references according to a repeat-signal stream."""

    primitive = "repeat"

    port_specs = (
        PortSpec('in_ref', 'in', kind=None),
        PortSpec('in_repsig', 'in', kind='repsig'),
        PortSpec('out_ref', 'out', kind=None),
    )
    # The driving repeat signal is exactly one nesting level deeper than
    # the reference stream it repeats (Figure 6); the output takes the
    # signal's shape with the reference payload.  An un-repeated signal
    # (equal depth) is the canonical miswiring this declaration catches.
    stream_xfer = StreamXfer(
        ins=(("in_ref", "d"), ("in_repsig", "d+1")),
        outs=(("out_ref", "=in_ref", "d+1"),),
    )

    def __init__(
        self,
        in_ref: Channel,
        in_repsig: Channel,
        out_ref: Channel,
        name: str = "repeat",
    ):
        super().__init__(name)
        self.in_ref = self._in("in_ref", in_ref)
        self.in_repsig = self._in("in_repsig", in_repsig)
        self.out_ref = self._out("out_ref", out_ref)
        #: timed-drain state: the reference whose driving fiber is still
        #: open (NO_TOKEN when none is)
        self._rep_ref = NO_TOKEN
        #: timed-drain state: level of the last driver stop while the
        #: reference stop it folds is still to come, else -1
        self._rep_fold = -1

    def drain_timed(self) -> bool:
        """Timed drain: one alignment, one schedule, one push per window.

        Every signal token is one event and every reference-stream pop
        happens between two yields, so a window is the signal's stamps
        with the pops max-ed in where the generator would have carried
        them (:meth:`_repeat_window`) — the fold of the window's last
        stop included, which may arrive a visit later.  What that leaves
        in front is a wait, the closing ``D`` pair or a protocol error —
        ``_run``'s own checks raise it.
        """
        if self.finished:
            return False
        rd_ref, rd_sig = self._treader(self.in_ref), self._treader(self.in_repsig)
        out = self._tbuilder(self.out_ref)
        progressed = False
        again = True
        while again:
            if self._rep_fold >= 0:
                token, s = rd_ref.peek()
                if token is NO_TOKEN:
                    break
                self._check_fold(Stop(self._rep_fold), token)
                rd_ref.pop()
                self._t_defer(s)
                self._rep_fold = -1
                progressed = True
            moved, again = self._repeat_window(
                rd_ref.held_window(), rd_sig.held_window(), out
            )
            progressed |= moved
        token, s = rd_ref.peek()
        signal, s_sig = rd_sig.peek()
        if self._rep_fold >= 0:
            if token is not NO_TOKEN:  # a D where the fold belongs
                self._check_fold(Stop(self._rep_fold), token)
        elif self._rep_ref is not NO_TOKEN:
            # an open fiber whose next signal is not an R
            if signal is NO_TOKEN:
                pass  # waiting for the driver
            elif not is_stop(signal):
                raise self._mid_fiber(signal)
            else:
                self._check_fold(signal, token)
        elif token is NO_TOKEN or signal is NO_TOKEN:
            pass  # waiting for an input
        elif is_done(token):
            self._check_done(signal)
            rd_ref.pop()
            rd_sig.pop()
            out.ctrl(CODE_DONE, self._t_event(max(s, s_sig)))
            self.finished = progressed = True
        else:
            self._check_bare(token, signal)
        out.flush()
        return progressed

    def _repeat_window(self, ref, sig, out):
        """Repeat across the aligned prefix of the two held windows.

        Events are the signal's tokens, in order: every complete chunk
        (an R-run and its stop) :func:`align_chunks` pairs with an owner,
        then the R-run that has arrived for the next reference — which
        stays open in ``_rep_ref`` and heads the next window as an owner
        without a stamp.  A chunk's first event is also gated by its
        owner's arrival (the stop the chunk before it folded came no
        later: stamps never decrease along a stream); an R emits its
        owner, a stop itself.  The signal is control tokens only, so its
        codes are its stream order.  Returns ``(progressed, align again)``.
        """
        rv, sv = front_stream(ref).before_done(), front_stream(sig).before_done()
        odd = (sv.codes < 0) & (sv.codes != CODE_REPEAT)  # no chunk holds it
        cut = int(odd.argmax()) if np.count_nonzero(odd) else len(sv.codes)
        if len(sv.data):  # nor a datum
            cut = min(cut, int(sv.ends.searchsorted(0, "right")))
        scode = sv.codes[:cut]
        lead, first = self._rep_ref, int(self._rep_ref is not NO_TOKEN)
        own, _, ends, kind, used, again, unfolded = align_chunks(rv, sv.head(cut), (
            CODE_EMPTY if is_empty(lead) else CODE_DATA) if first else None)
        at = np.concatenate(([0], ends + 1))  # first event of chunk j
        total = int(at[-1])
        self._rep_ref = NO_TOKEN
        if unfolded:
            self._rep_fold = int(scode[total - 1])
        # the next reference: its R-run as far as it has arrived
        nxt = lead if used < first else rv.token(used - first)
        if nxt is not NO_TOKEN and not is_stop(nxt):
            closer = scode[total:] >= 0
            total += int(closer.argmax()) if np.count_nonzero(closer) else len(closer)
            own = np.concatenate((own, [used]))
            kind = np.concatenate((kind, [CODE_EMPTY if is_empty(nxt) else CODE_DATA]))
            self._rep_ref = nxt
            used += 1
        # outer token i is token i - first of the view
        stamps, _, ci = merge_stamps(rv.ends, rv.sdata, rv.scodes)
        stamps = np.concatenate(([0], stamps)) if first else stamps
        gate = np.zeros(len(at), dtype=np.int64)
        gate[:len(own)] = stamps[own]
        # one slot past the last event catches what has no event to gate
        arrivals = np.concatenate((sv.scodes[:total], [0]))
        arrivals[at] = np.maximum(arrivals[at], gate)
        cycles = self._t_advance(arrivals[:-1])
        self._t_defer(int(arrivals[-1]))
        if total:  # an R emits its owner, as N where that is one; a stop itself
            values = np.concatenate(([lead if first and not is_empty(lead) else 0],
                                     rv.data if len(rv.data) else _EMPTY_I64))
            slot = own - first  # 1 + the owner's index in rv.data; 0 the lead's
            slot += 1 - ci.searchsorted(slot)
            slot[kind != CODE_DATA] = 0
            runs = (np.concatenate((at[1:], [total])) - at)[:len(own)]
            runs[:len(ends)] -= 1  # the R tokens of a chunk
            blank = kind == CODE_EMPTY
            is_r = filled(total, True, bool)
            is_r[ends] = False
            out.data_with_ctrl(values[slot].repeat(runs), runs.cumsum()[:len(ends)],
                               scode[ends], cycles[is_r], cycles[ends],
                               blank.repeat(runs) if np.count_nonzero(blank) else None)
        taken = used - first
        consume(sig, 0, total)
        consume(ref, taken - int(ci.searchsorted(taken)), int(ci.searchsorted(taken)))
        return total + taken > 0, again

    # -- protocol checks, shared by both definitions ----------------------
    def _mid_fiber(self, signal) -> BlockError:
        return BlockError(f"{self.name}: driver stream ended mid-fiber ({signal!r})")

    def _check_fold(self, signal, nxt) -> None:
        """An elevated driver stop folds the reference stream's next stop."""
        if not (is_stop(nxt) and nxt.level == signal.level - 1):
            raise BlockError(
                f"{self.name}: driver stop {signal!r} expects "
                f"reference stop S{signal.level - 1}, got {nxt!r}"
            )

    def _check_bare(self, token, signal) -> None:
        """A reference stop no fiber folded: the driver carries it elevated."""
        if not (is_stop(signal) and signal.level == token.level + 1):
            raise BlockError(
                f"{self.name}: reference stop {token!r} expects driver "
                f"stop S{token.level + 1}, got {signal!r}"
            )

    def _check_done(self, signal) -> None:
        if not is_done(signal):
            raise BlockError(
                f"{self.name}: driver stream out of sync at D ({signal!r})"
            )

    def _run(self):
        # Invariant: the driving coordinate stream is exactly one nesting
        # level deeper than the reference stream, so a driver stop Sn
        # always pairs with a reference-stream stop S(n-1) when n >= 1.
        while True:
            token = yield from self._get(self.in_ref)
            if is_data(token) or is_empty(token):
                # Repeat this reference across one driving fiber.
                while True:
                    signal = yield from self._get(self.in_repsig)
                    if signal == REPEAT:
                        self.out_ref.push(token)
                        yield True
                        continue
                    if is_stop(signal):
                        self.out_ref.push(signal)
                        yield True
                        if signal.level >= 1:
                            nxt = yield from self._get(self.in_ref)
                            self._check_fold(signal, nxt)
                        break
                    raise self._mid_fiber(signal)
            elif is_stop(token):
                # Empty reference fiber: the driver carries the elevated stop.
                signal = yield from self._get(self.in_repsig)
                self._check_bare(token, signal)
                self.out_ref.push(signal)
                yield True
            else:  # done
                signal = yield from self._get(self.in_repsig)
                self._check_done(signal)
                self.out_ref.push(DONE)
                yield True
                return


def make_repeater(
    in_crd: Channel,
    in_ref: Channel,
    out_ref: Channel,
    name: str = "repeat",
):
    """Build the (RepeatSigGen, Repeater) pair the paper draws as one block.

    Returns the two blocks; graphs count them together as one repeater
    primitive (the signal generator is an implementation detail of the
    block, exactly as in the SAM hardware description).
    """
    repsig = Channel(f"{name}.repsig", kind="repsig")
    sig_gen = RepeatSigGen(in_crd, repsig, name=f"{name}.sig")
    repeater = Repeater(in_ref, repsig, out_ref, name=name)
    return sig_gen, repeater
