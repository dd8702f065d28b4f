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
    CODE_DATA,
    CODE_DONE,
    CODE_EMPTY,
    CODE_REPEAT,
    NO_TOKEN,
    TokenBatch,
    filled,
)
from ..streams.channel import Channel
from ..streams.timing import (
    align_chunks,
    consume,
    index_ramp,
    stream_view,
)
from ..streams.token import DONE, EMPTY, Stop, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

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

    timing = TimingDescriptor()

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

    timing = TimingDescriptor()

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
        owner's arrival and by the stop the chunk before it folded (a
        fold behind the last event is carried); an R emits its owner, a
        stop itself.  Returns ``(progressed, align again)``.
        """
        rv, sv = stream_view(ref), stream_view(sig)
        ocode, ostamp, ovalue = rv.code, rv.stamp, rv.value
        pending = self._rep_ref is not NO_TOKEN
        if pending:  # an owner in front of the window, with no arrival to wait for
            blank = is_empty(self._rep_ref)
            ocode = np.concatenate(([CODE_EMPTY if blank else CODE_DATA], ocode))
            ostamp = np.concatenate(([0], ostamp))
            ovalue = np.concatenate(([0 if blank else self._rep_ref], ovalue))
        scode = sv.code
        odd = (scode < 0) & (scode != CODE_REPEAT)
        if np.count_nonzero(odd):  # neither R nor stop: no chunk holds it
            scode = scode[:int(odd.argmax())]
        aligned = align_chunks(ocode, scode)
        own, used = aligned.owner, aligned.used
        at = np.concatenate(([0], aligned.ends + 1))  # first event of chunk j
        total = int(at[-1])
        self._rep_ref = NO_TOKEN
        if aligned.unfolded:
            self._rep_fold = int(scode[total - 1])
        if used < len(ocode) and ocode[used] < 0:
            # the next reference: its R-run as far as it has arrived
            closer = scode[total:] >= 0
            total += int(closer.argmax()) if np.count_nonzero(closer) else len(closer)
            own = np.concatenate((own, [used]))
            self._rep_ref = ovalue[used].item() if ocode[used] == CODE_DATA else EMPTY
            used += 1
        gate = np.zeros(len(at), dtype=np.int64)
        gate[:len(own)] = ostamp[own]
        folds = aligned.fold >= 0
        np.maximum(gate[1:], np.where(folds, ostamp[aligned.fold], 0), out=gate[1:])
        # one slot past the last event catches what has no event to gate
        arrivals = np.concatenate((sv.stamp[:total], [0]))
        arrivals[at] = np.maximum(arrivals[at], gate)
        cycles = self._t_advance(arrivals[:-1])
        self._t_defer(int(arrivals[-1]))
        if total:
            chunk = index_ramp(len(at)).repeat(np.concatenate((at[1:], [total])) - at)
            code = scode[:total]
            code = np.where(code == CODE_REPEAT, ocode[own][chunk], code)
            out.stream(code, ovalue[own][chunk], cycles)
        consume(sig, *sv.span(total))
        consume(ref, *rv.span(used - pending))
        return total + used - pending > 0, aligned.again

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
