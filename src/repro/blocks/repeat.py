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
    CODE_DONE,
    CODE_EMPTY,
    CODE_REPEAT,
    NO_TOKEN,
    TokenBatch,
)
from ..streams.channel import Channel
from ..streams.timing import merge_stamps, split_done_stamped
from ..streams.token import DONE, is_data, is_done, is_empty, is_stop
from .base import Block, PortSpec, BlockError, StreamXfer, TimingDescriptor

#: the repeat token emitted by RepeatSigGen for every coordinate
REPEAT = "R"


def _flat_sig(rd_sig):
    """``(codes, stamps)`` over a timed reader's pure-control prefix.

    Repeat-signal batches carry no data tokens, so in practice this is
    the whole held window; a data-carrying batch ends the prefix and the
    remaining tokens take the token-exact branches."""
    codes, stamps = [], []
    for batch, _, sctrl in rd_sig.held:
        if batch._d < len(batch.data):
            break
        c = batch._c
        if c < len(batch.ctrl_code):
            codes.append(batch.ctrl_code[c:])
            stamps.append(sctrl[c:])
    if not codes:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if len(codes) == 1:
        return codes[0], stamps[0]
    return np.concatenate(codes), np.concatenate(stamps)


def _consume_sig(rd_sig, n):
    """Advance a timed reader past *n* leading control tokens (all from
    data-exhausted batches, so cursor bumps keep stamp alignment)."""
    for batch, _, _ in rd_sig.held:
        if n <= 0:
            break
        c = batch._c
        take = min(n, len(batch.ctrl_code) - c)
        batch._c = c + take
        n -= take
    rd_sig._trim()


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
        reader = self._treader(self.in_crd)
        window = reader.take_window()
        if window is None:
            self._wait = (self.in_crd, "data")
            return False
        head, sd, sc, tail = split_done_stamped(*window)
        data, cpos, ccode = head.remaining_arrays()
        merged, di, ci = merge_stamps(head, sd, sc)
        total = len(merged)
        if total == 0:
            self._wait = (self.in_crd, "data")
            return False
        c = self._t_advance(merged)
        codes = np.full(total, CODE_REPEAT, dtype=np.int64)
        codes[cpos + np.arange(len(ccode), dtype=np.int64)] = ccode
        self.out_repsig.push_batch_timed(
            TokenBatch(
                np.empty(0, dtype=np.int64),
                np.zeros(total, dtype=np.int64),
                codes,
            ),
            np.empty(0, dtype=np.int64),
            c,
        )
        if head.ends_done:
            if tail is not None:
                self.in_crd.timed_requeue_front(*tail)
            self.finished = True
            self._wait = None
        else:
            self._wait = (self.in_crd, "data")
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
        #: timed-drain state: the reference being repeated (NO_TOKEN
        #: when none is pending) and a pending fold level — a driver stop
        #: of level n >= 1 still owing the matching S(n-1) consumption
        #: from the reference stream
        self._rep_ref = NO_TOKEN
        self._rep_fold = None

    timing = TimingDescriptor()

    def _timed_bail_safe(self) -> bool:
        return (
            super()._timed_bail_safe()
            and self._rep_ref is NO_TOKEN
            and self._rep_fold is None
        )

    def drain_timed(self) -> bool:
        """Timed drain: one event per emitted token; reference pops and
        fold pops happen between yields, so they carry into the next
        event's gate instead of owning a cycle.

        *Regular spans* — a leading run of ``R`` codes plus as many
        complete ``S0``-closed driver fibers as the reference stream has
        data for — collapse to one batch: a single ``_t_advance`` over
        the span's signal stamps with each reference pop's arrival
        folded in at its fiber-head position, one ``np.repeat`` over the
        reference run, one builder push.  Equivalence with the
        token-by-token loop is exact: ``rate1_schedule`` composes over
        arbitrary splits of the arrival sequence (the clock carries),
        ``_t_event`` is the one-token case of the same recurrence, and
        ``_t_defer`` is a max folded into the next event's gate — which
        is precisely the positional fold applied here.  Elevated stops,
        folds, ``N`` references, empty-fiber pairings, and done handling
        stay token-exact."""
        if self.finished:
            return False
        rd_ref = self._treader(self.in_ref)
        rd_sig = self._treader(self.in_repsig)
        out = self._tbuilder(self.out_ref)
        progressed = False
        # Flat view of the signal window plus cursors: token position,
        # index into the precomputed control positions, and a pointer to
        # the next non-S0 control.  Precomputing once keeps the span
        # loop linear in the window size (a per-iteration flatnonzero is
        # O(n^2) on 1e6-token windows); any scalar reader consumption
        # invalidates the view (codes = None).
        codes = stamps = ends_all = nonclose = None
        pos = ei = nci = 0

        def park(channel):
            out.flush()
            self._wait = (channel, "data")
            return progressed

        def close_fiber() -> bool:
            """The driver stop ending the pending reference's fiber (one
            event); False while that signal has not arrived."""
            signal, s_sig = rd_sig.peek()
            if signal is NO_TOKEN:
                return False
            if not is_stop(signal):
                raise BlockError(
                    f"{self.name}: driver stream ended mid-fiber ({signal!r})"
                )
            rd_sig.pop()
            out.ctrl(signal.level, self._t_event(s_sig))
            if signal.level >= 1:
                self._rep_fold = signal.level
            self._rep_ref = NO_TOKEN
            return True

        while True:
            if self._rep_fold is not None:
                token, s = rd_ref.peek()
                if token is NO_TOKEN:
                    return park(self.in_ref)
                if not (is_stop(token) and token.level == self._rep_fold - 1):
                    raise BlockError(
                        f"{self.name}: driver stop S{self._rep_fold} expects "
                        f"reference stop S{self._rep_fold - 1}, got {token!r}"
                    )
                rd_ref.pop()
                self._t_defer(s)
                self._rep_fold = None
                progressed = True
                continue
            if self._rep_ref is NO_TOKEN:
                token, s = rd_ref.peek()
                if token is NO_TOKEN:
                    return park(self.in_ref)
                if is_data(token) or is_empty(token):
                    rd_ref.pop()
                    self._t_defer(s)
                    self._rep_ref = token
                    progressed = True
                    continue
                # Stop or done on the reference stream: the driver must
                # carry the matching (elevated or done) token.
                signal, s_sig = rd_sig.peek()
                if signal is NO_TOKEN:
                    return park(self.in_repsig)
                rd_ref.pop()
                rd_sig.pop()
                codes = None
                cyc = self._t_event(max(s, s_sig))
                progressed = True
                if is_done(token):
                    if not is_done(signal):
                        raise BlockError(
                            f"{self.name}: driver stream out of sync at D "
                            f"({signal!r})"
                        )
                    out.ctrl(CODE_DONE, cyc)
                    out.flush()
                    self.finished = True
                    self._wait = None
                    return True
                if not (is_stop(signal) and signal.level == token.level + 1):
                    raise BlockError(
                        f"{self.name}: reference stop {token!r} expects driver "
                        f"stop S{token.level + 1}, got {signal!r}"
                    )
                out.ctrl(signal.level, cyc)
                continue
            # A reference is pending: replay it once per R of the fiber.
            empty_ref = is_empty(self._rep_ref)
            if codes is None and not empty_ref:
                codes, stamps = _flat_sig(rd_sig)
                pos = ei = nci = 0
                ends_all = np.flatnonzero(codes != CODE_REPEAT)
                nonclose = np.flatnonzero(codes[ends_all] != 0)
            if empty_ref or pos >= len(codes):
                # Token-exact: N references repeat as control runs, and
                # so does whatever follows an exhausted (or not purely
                # control) signal view.
                repeats, s_r = rd_sig.pop_repeat_run()
                codes = None
                if repeats:
                    c = self._t_advance(s_r)
                    if empty_ref:
                        out.ctrl_run(CODE_EMPTY, c)
                    else:
                        out.data(np.full(repeats, self._rep_ref), c)
                elif not close_fiber():
                    return park(self.in_repsig)
                progressed = True
                continue
            if ei >= len(ends_all):
                # Window tail is one partial R-run: emit it whole, keep
                # the reference pending for the next window.
                k = len(codes) - pos
                c = self._t_advance(stamps[pos:])
                out.data(np.full(k, self._rep_ref), c)
                _consume_sig(rd_sig, k)
                pos = len(codes)
                progressed = True
                continue
            while nci < len(nonclose) and nonclose[nci] < ei:
                nci += 1
            nreg = (
                len(ends_all) - ei
                if nci >= len(nonclose)
                else int(nonclose[nci]) - ei
            )
            if nreg == 0:
                # The pending fiber closes with a non-S0 code: emit its
                # R-run (possibly empty), then the stop takes its event.
                k = int(ends_all[ei]) - pos
                if k:
                    c = self._t_advance(stamps[pos:pos + k])
                    out.data(np.full(k, self._rep_ref), c)
                    _consume_sig(rd_sig, k)
                close_fiber()
                pos = int(ends_all[ei]) + 1
                ei += 1
                progressed = True
                continue
            # nreg complete S0-closed fibers; fibers beyond the first
            # need a data reference each from the front run.
            J = min(nreg, 1 + rd_ref.run_length())
            bounds = ends_all[ei:ei + J] - pos
            span = int(bounds[-1]) + 1
            refs1, s_refs = rd_ref.pop_run_upto(J - 1)
            arrivals = np.array(stamps[pos:pos + span])
            if J > 1:
                # Each reference pop's _t_defer lands on the following
                # fiber's first event — a positional max into its gate.
                heads = bounds[:-1] + 1
                arrivals[heads] = np.maximum(arrivals[heads], s_refs)
            c = self._t_advance(arrivals)
            r_counts = np.diff(bounds, prepend=-1) - 1
            ref0 = np.asarray([self._rep_ref])
            refs_all = np.concatenate([ref0, refs1]) if J > 1 else ref0
            mask = np.ones(span, dtype=bool)
            mask[bounds] = False
            out.data_with_ctrl(
                np.repeat(refs_all, r_counts),
                np.cumsum(r_counts),
                np.zeros(J, dtype=np.int64),
                c[mask],
                c[bounds],
            )
            _consume_sig(rd_sig, span)
            pos += span
            ei += J
            self._rep_ref = NO_TOKEN
            progressed = True

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
                            if not (is_stop(nxt) and nxt.level == signal.level - 1):
                                raise BlockError(
                                    f"{self.name}: driver stop {signal!r} expects "
                                    f"reference stop S{signal.level - 1}, got {nxt!r}"
                                )
                        break
                    raise BlockError(
                        f"{self.name}: driver stream ended mid-fiber ({signal!r})"
                    )
            elif is_stop(token):
                # Empty reference fiber: the driver carries the elevated stop.
                signal = yield from self._get(self.in_repsig)
                if not (is_stop(signal) and signal.level == token.level + 1):
                    raise BlockError(
                        f"{self.name}: reference stop {token!r} expects driver "
                        f"stop S{token.level + 1}, got {signal!r}"
                    )
                self.out_ref.push(signal)
                yield True
            else:  # done
                signal = yield from self._get(self.in_repsig)
                if not is_done(signal):
                    raise BlockError(
                        f"{self.name}: driver stream out of sync at D ({signal!r})"
                    )
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
