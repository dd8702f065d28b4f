"""Stamped token runs: the timing layer of the batched data plane.

The timed backends (:mod:`repro.sim.backends.timed_batch`) move
:class:`~repro.streams.batch.TokenBatch` runs between blocks, and every
token carries a *cycle stamp*: the simulated cycle at which the token
becomes visible to its consumer.
Stamps ride next to the batch as two int64 arrays mirroring the batch
layout — ``sdata[i]`` stamps ``data[i]``, ``sctrl[i]`` stamps the control
token ``ctrl_code[i]`` — and are non-decreasing in stream order (a block
pushes in its own cycle order).

Five pieces live here:

* :func:`rate1_schedule` — the epoch advance rule.  Every block is a
  rate-1 machine: it services one *event* (one generator ``yield
  True``) a cycle at most, gated by token arrivals: ``c[k] = max(c[k-1]
  + 1, arrivals[k])`` (the optional initiation interval ``ii`` spaces
  events further apart; no block sets it).  The recurrence is a
  max-plus scan, computed with one ``np.maximum.accumulate`` instead
  of a per-token Python loop — this is what lets a timed block cross an
  entire control-free segment in one step.  It allocates only the
  schedule it returns; its index ramp is the shared read-only
  :func:`~repro.streams.batch.index_ramp`.
* :class:`TimedReader` / :class:`TimedBuilder` — the block-side input
  cursor and output accumulator: a reader holds the stamped batches its
  channel handed over and pops single boundary tokens (a fold, a closing
  ``D``) with their stamps; builders accumulate output tokens with the
  cycle each was pushed.
* :func:`merge_stamps` / :func:`split_done_stamped` — token-order
  plumbing shared by the whole-window hooks.
* The one way a window hook reads its inputs: held entry
  (:meth:`TimedReader.held_window`) → fibers (:func:`front_fibers`, the
  leading control-terminated chunks read through the batch cursors, and
  :func:`front_stream`, every chunk through the first ``D`` with the
  open run after them) → one pairing → :func:`consume`, which moves the
  cursors past what was taken (:attr:`Fibers.span`).  Streams at the
  same level pair through :func:`pair_chunks` — the vector reducer, the
  value dropper, the ALU, the scatter writer and the locator, cut to what
  both have arrived of by :func:`common_front`, ``N`` read as a datum by
  :func:`blank_fibers` where it pairs with one; streams one level apart
  (the repeater's, the coordinate dropper's) pair through
  :func:`align_chunks`; :func:`window_capacity` is the int64 rule the
  mergers and the reducer sort composite keys under.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .batch import (
    CODE_DATA,
    CODE_DONE,
    CODE_EMPTY,
    NO_TOKEN,
    TokenBatch,
    _concat_data,
    decode_code,
    filled,
    index_ramp,
)
from .token import EMPTY

_EMPTY_I64 = np.empty(0, dtype=np.int64)
I64_MAX = int(np.iinfo(np.int64).max)


def window_capacity(stride: int) -> int:
    """Groups whose composite keys ``group * stride + offset`` (``0 <=
    offset < stride``) fit int64: the mergers' fibers and the vector
    reducer's regions.  A window holding more works in pieces of this
    many; 0 means one group's keys alone would wrap."""
    return I64_MAX // stride


def rate1_schedule(arrivals: np.ndarray, clock: int, ii: int = 1) -> np.ndarray:
    """Busy cycles for a run of events gated by *arrivals*.

    ``c[k] = max(c[k-1] + ii, arrivals[k])`` with ``c[-1] + ii = clock``.
    An arrival of 0 means "no input constraint" (cycles start at 1).
    The pass ``arrivals - ramp -> max(clock) -> running max -> + ramp``
    runs in the one array it returns; the ramp is :func:`index_ramp`'s.
    """
    n = len(arrivals)
    if n == 0:
        return _EMPTY_I64
    ramp = index_ramp(n) if ii == 1 else index_ramp(n) * ii
    c = np.subtract(arrivals, ramp, dtype=np.int64)
    np.maximum(c, clock, out=c)
    np.maximum.accumulate(c, out=c)
    c += ramp
    return c


def compose_rate1(
    arrivals: np.ndarray,
    stages: List[Tuple[int, int, int]],
) -> List[np.ndarray]:
    """Schedules for a linear chain of rate-limited stages in one pass.

    No engine calls it (a compiled chain advances through its members'
    own ``Block._t_advance``); it is the chain kernel the ``perfbench``
    stream probes time, held to the loop by ``tests/streams``.

    *stages* is a sequence of ``(clock, ii, delta)`` triples, one per
    chain member in flow order: *clock* is the member's local cycle
    counter (its next free slot), *ii* its initiation interval, *delta*
    the channel visibility offset between the upstream member's firing
    and this member's arrival (0 when the consumer runs later in the
    block list, 1 otherwise — exactly what ``push_batch_timed`` adds).
    The first stage's *delta* applies to *arrivals* itself.

    The head schedule is one :func:`rate1_schedule` pass
    (``np.maximum.accumulate``); every following stage whose ``ii`` does
    not exceed the incoming schedule's step collapses to an elementwise
    maximum, because a valid rate-``s`` schedule ``c`` has ``c - idx*ii``
    non-decreasing for every ``ii <= s``, making the accumulate a no-op:

        ``c_i = max(c_{i-1} + delta_i, clock_i + idx * ii_i)``

    Stages that *slow down* the stream (``ii`` greater than the incoming
    step) fall back to a fresh accumulate.  Returns one schedule array
    per stage, each bit-identical to running the members' own
    ``rate1_schedule`` calls back to back.  A stage allocates its own
    schedule and nothing else: ``max(x + delta, y) = max(x, y - delta) +
    delta`` moves each *delta* onto the clock and back.
    """
    out: List[np.ndarray] = []
    prev, step = arrivals, 0
    for clock, ii, delta in stages:
        if out and ii <= step:
            ramp = index_ramp(len(prev))
            if ii == 1:
                c = np.add(ramp, clock - delta)
            else:
                c = np.multiply(ramp, ii)
                c += clock - delta
            np.maximum(c, prev, out=c)
        else:
            c = rate1_schedule(prev, clock - delta, ii)
        if delta:
            c += delta
        out.append(c)
        prev, step = c, ii
    return out


def token_order_indices(cpos: np.ndarray, ndata: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stream-order index of every data and control token of a batch.

    Control token *i* arrives after ``cpos[i]`` data tokens (consecutive
    controls keep their array order), so its stream index is
    ``cpos[i] + i``; the data tokens fill the other slots, in order.
    Returns ``(data_indices, ctrl_indices)``.
    """
    ci = np.asarray(cpos, dtype=np.int64) + index_ramp(len(cpos))
    is_data = filled(ndata + len(ci), True, bool)
    is_data[ci] = False
    return is_data.nonzero()[0], ci


def merge_stamps(
    cpos: np.ndarray, sdata: np.ndarray, sctrl: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token-order stamp array plus the (data, ctrl) stream indices of a
    run whose control *i* stands in front of datum ``cpos[i]``."""
    di, ci = token_order_indices(cpos, len(sdata))
    merged = np.empty(len(di) + len(ci), dtype=np.int64)
    merged[di] = sdata
    merged[ci] = sctrl
    return merged, di, ci


def split_done_stamped(
    batch: TokenBatch, sdata: np.ndarray, sctrl: np.ndarray
) -> Tuple[
    TokenBatch, np.ndarray, np.ndarray,
    Optional[Tuple[TokenBatch, np.ndarray, np.ndarray]],
]:
    """Split a stamped batch after its first ``D``: ``(head, sd, sc,
    tail?)``, *head* holding everything when there is none, *tail* the
    stamped rest (None when nothing follows the ``D``)."""
    data, cpos, ccode = batch.remaining_arrays()
    hits = (ccode == CODE_DONE).nonzero()[0]
    if hits.size == 0:
        return TokenBatch(data, cpos, ccode), sdata, sctrl, None
    i = int(hits[0])
    pos = int(cpos[i])
    head = TokenBatch(data[:pos], cpos[: i + 1], ccode[: i + 1])
    tail = TokenBatch(data[pos:], cpos[i + 1:] - pos, ccode[i + 1:])
    tail_entry = None
    if not tail.exhausted:
        tail_entry = (tail, sdata[pos:], sctrl[i + 1:])
    return head, sdata[:pos], sctrl[: i + 1], tail_entry


class TimedReader:
    """Block-side stamped input cursor over a channel's pending batches.

    Holds ``(batch, sdata, sctrl)`` triples pulled from the channel's
    timed pending queue.  The batch's own ``_d``/``_c`` cursors index
    into the stamp arrays, so consumption stays aligned by construction.
    """

    __slots__ = ("channel", "held")

    def __init__(self, channel):
        self.channel = channel
        self.held: List[Tuple[TokenBatch, np.ndarray, np.ndarray]] = []

    # -- window management ---------------------------------------------------
    def pull(self) -> None:
        taken = self.channel.timed_take()
        if taken:
            self.held.extend(taken)

    def _trim(self) -> None:
        while self.held and self.held[0][0].exhausted:
            self.held.pop(0)

    def __len__(self) -> int:
        return sum(len(b) for b, _, _ in self.held)

    # -- scalar access -------------------------------------------------------
    def peek(self):
        """Front ``(token, stamp)`` or ``(NO_TOKEN, 0)``."""
        self._trim()
        for batch, sdata, sctrl in self.held:
            token = batch.peek_front()
            if token is not NO_TOKEN:
                d, c = batch._d, batch._c
                if c < len(batch.ctrl_code) and batch.ctrl_pos[c] <= d:
                    return token, int(sctrl[c])
                return token, int(sdata[d])
        return NO_TOKEN, 0

    def pop(self):
        """Pop the front token: ``(token, stamp)``."""
        self._trim()
        for batch, sdata, sctrl in self.held:
            if not batch.exhausted:
                d, c = batch._d, batch._c
                if c < len(batch.ctrl_code) and batch.ctrl_pos[c] <= d:
                    stamp = int(sctrl[c])
                else:
                    stamp = int(sdata[d])
                return batch.pop_front(), stamp
        raise IndexError("pop from an empty TimedReader")

    # -- window access -------------------------------------------------------
    def take_window(self):
        """Consume the whole window: ``(batch, sdata, sctrl)`` or None."""
        self._trim()
        if not self.held:
            return None
        if len(self.held) == 1:
            batch, sdata, sctrl = self.held[0]
            entry = (batch.view(), sdata[batch._d:], sctrl[batch._c:])
            self.held = []
            return entry
        datas, cposs, ccodes, sds, scs = [], [], [], [], []
        offset = 0
        for batch, sdata, sctrl in self.held:
            data, cpos, ccode = batch.remaining_arrays()
            datas.append(data)
            cposs.append(cpos + offset)
            ccodes.append(ccode)
            sds.append(sdata[batch._d:])
            scs.append(sctrl[batch._c:])
            offset += len(data)
        self.held = []
        return (
            TokenBatch(
                _concat_data(datas),
                np.concatenate(cposs) if cposs else _EMPTY_I64,
                np.concatenate(ccodes) if ccodes else _EMPTY_I64,
            ),
            _concat_i64(sds),
            _concat_i64(scs),
        )

    def put_back(self, entry) -> None:
        """Return a ``take_window`` result to the front of the window."""
        self.held.insert(0, entry)

    def held_window(self):
        """The whole window as ONE held entry, cursors intact (or None).

        Consolidates only when batches arrived behind an entry that is
        not used up, so a long backlog costs nothing per visit; a run
        held for its terminator is copied once per batch that extends it.
        """
        self._trim()
        if len(self.held) > 1:
            self.put_back(self.take_window())
        return self.held[0] if self.held else None

    def densify_empty(self, zero) -> None:
        """Rewrite ``N`` control tokens as data *zero*, stamps preserved."""
        for i, (batch, sdata, sctrl) in enumerate(self.held):
            empty = batch.ctrl_code[batch._c:] == CODE_EMPTY
            if not np.count_nonzero(empty):
                continue
            data, cpos, ccode = batch.remaining_arrays()
            sdata = sdata[batch._d:]
            sctrl = sctrl[batch._c:]
            new_data = insert_sorted(
                np.asarray(data, dtype=np.float64), cpos[empty], zero
            )
            new_sdata = insert_sorted(sdata, cpos[empty], sctrl[empty])
            keep = ~empty
            shift = empty.cumsum() - empty
            self.held[i] = (
                TokenBatch(new_data, (cpos + shift)[keep], ccode[keep]),
                new_sdata.astype(np.int64, copy=False),
                sctrl[keep],
            )


def insert_sorted(arr: np.ndarray, at: np.ndarray, values) -> np.ndarray:
    """``np.insert(arr, at, values)`` for ascending positions *at*: every
    value lands in front of ``arr[at[i]]``, equal positions in order."""
    slots = at + index_ramp(len(at))
    out = np.empty(len(arr) + len(at), dtype=arr.dtype)
    keep = filled(len(out), True, bool)
    keep[slots] = False
    out[keep] = arr
    out[slots] = values
    return out


def _concat_i64(parts: List[np.ndarray]) -> np.ndarray:
    parts = [np.asarray(p, dtype=np.int64) for p in parts if len(p)]
    if not parts:
        return _EMPTY_I64
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


class Fibers(NamedTuple):
    """The leading fibers (control-terminated chunks) of a held entry, and
    the data tokens after them a read takes as its *tail*."""

    data: np.ndarray
    ends: np.ndarray  # data position each fiber's terminator sits at
    lens: np.ndarray
    codes: np.ndarray  # terminator codes
    sdata: np.ndarray  # arrival stamps of data / of codes
    scodes: np.ndarray
    blank: np.ndarray = _EMPTY_I64  # data positions that were N (blank_fibers)

    @property
    def tail(self) -> int:
        """Data tokens after the last fiber."""
        return len(self.data) - (int(self.ends[-1]) if len(self.ends) else 0)

    @property
    def done(self) -> bool:
        """Whether the last fiber closes with ``D``."""
        return bool(len(self.codes)) and bool(self.codes[-1] == CODE_DONE)

    @property
    def span(self) -> Tuple[int, int]:
        """``(data, control)`` tokens of the held entry the view covers:
        what :func:`consume` moves past to take it."""
        return len(self.data) - len(self.blank), len(self.codes) + len(self.blank)

    def head(self, k: int, tail: int = 0) -> "Fibers":
        """The first *k* fibers and the first *tail* data tokens after them."""
        top = (int(self.ends[k - 1]) if k else 0) + tail
        blank = self.blank
        if len(blank):
            blank = blank[:int(blank.searchsorted(top))]
        return Fibers(self.data[:top], self.ends[:k], self.lens[:k], self.codes[:k],
                      self.sdata[:top], self.scodes[:k], blank)

    def before_done(self) -> "Fibers":
        """The view without its closing ``D``; what stands in front of it
        becomes the tail."""
        if not self.done:
            return self
        return Fibers(self.data, self.ends[:-1], self.lens[:-1], self.codes[:-1],
                      self.sdata, self.scodes[:-1], self.blank)

    def token(self, i: int):
        """Token *i* in stream order, as a generator pops it (``NO_TOKEN``
        past the view's end): control *f* is token ``ends[f] + f``."""
        at = self.ends + index_ramp(len(self.ends))
        f = int(at.searchsorted(i))
        if f < len(at) and at[f] == i:
            return decode_code(int(self.codes[f]))
        return self.data[i - f].item() if i - f < len(self.data) else NO_TOKEN

    def tokens(self, f: int) -> list:
        """Fiber *f* as scalar tokens, its terminator last (a blank is
        ``N`` again): what a generator pops, for replaying its checks."""
        start, stop = int(self.ends[f] - self.lens[f]), int(self.ends[f])
        run = self.data[start:stop].tolist()
        for at in self.blank[(self.blank >= start) & (self.blank < stop)].tolist():
            run[at - start] = EMPTY
        return run + [decode_code(int(self.codes[f]))]


_NO_FIBERS = Fibers(*[_EMPTY_I64] * 6)


def held_fibers(entry, blanks: bool = False) -> int:
    """How many complete fibers a held entry (or None) still carries;
    with *blanks*, an ``N`` is a datum (:func:`blank_fibers`), not a
    terminator."""
    if entry is None:
        return 0
    batch = entry[0]
    codes = batch.ctrl_code[batch._c:]
    if blanks:
        return len(codes) - int(np.count_nonzero(codes == CODE_EMPTY))
    return len(codes)


def front_fibers(entry, k: int, tail: int = 0, blanks: bool = False) -> Fibers:
    """The first *k* fibers of a held entry, read through its cursors, so
    a long backlog behind them costs nothing; ``data`` and ``sdata`` run
    on over the first *tail* data tokens of the fiber after them.  With
    *blanks* the fibers are those :func:`held_fibers` counts with it, its
    ``N`` tokens read as data (:func:`blank_fibers`)."""
    batch, sdata, sctrl = entry
    d, c = batch._d, batch._c
    if blanks and k:
        empty = batch.ctrl_code[c:] == CODE_EMPTY
        if np.count_nonzero(empty):
            kth = int((~empty).nonzero()[0][k - 1])  # the k-th terminator
            return blank_fibers(front_fibers(entry, kth + 1))
    ends = batch.ctrl_pos[c:c + k] - d
    lens = ends.copy()  # np.diff(ends, prepend=0) without its concatenate
    lens[1:] -= ends[:-1]
    top = d + (int(ends[-1]) if k else 0) + tail
    return Fibers(
        batch.data[d:top], ends, lens, batch.ctrl_code[c:c + k],
        sdata[d:top], sctrl[c:c + k],
    )


def front_stream(entry) -> Fibers:
    """A held entry (or None) read to its end: every fiber through its
    first ``D`` or, with none held, every fiber and the open run after
    them."""
    if entry is None:
        return _NO_FIBERS
    batch = entry[0]
    done = batch.ctrl_code[batch._c:] == CODE_DONE
    if np.count_nonzero(done):
        return front_fibers(entry, int(done.argmax()) + 1)
    start = int(batch.ctrl_pos[-1]) if len(done) else batch._d
    return front_fibers(entry, len(done), len(batch.data) - start)


def blank_fibers(view: Fibers) -> Fibers:
    """*view* with its ``N`` tokens read as data — 0, stamped as the ``N``
    — so its fibers close at stops and ``D`` only: how a coordinate or
    reference stream is read where an ``N`` pairs with a datum of the
    other stream.  ``blank`` keeps where they were."""
    empty = view.codes == CODE_EMPTY
    if not np.count_nonzero(empty):
        return view
    at, keep = view.ends[empty], ~empty
    ends = (view.ends + empty.cumsum())[keep]
    lens = ends.copy()
    lens[1:] -= ends[:-1]
    return Fibers(
        insert_sorted(view.data, at, 0), ends, lens, view.codes[keep],
        insert_sorted(view.sdata, at, view.scodes[empty]), view.scodes[keep],
        at + index_ramp(len(at)),
    )


def common_front(views: List[Fibers]) -> List[Fibers]:
    """What streams at one level (:func:`front_stream` views) have all
    arrived of: the fibers every one of them completes — through the
    first ``D`` — and, unless that ``D`` is among them, the data tokens
    every one carries of the fiber after."""
    k = min(len(v.codes) for v in views)
    tail = 0
    if not any(len(v.codes) == k and v.done for v in views):
        tail = min(int(v.lens[k]) if len(v.codes) > k else v.tail for v in views)
    return [v.head(k, tail) for v in views]


def consume(entry, ndata: int, nctrl: int) -> None:
    """Move a held entry past its next *ndata* data, *nctrl* control tokens."""
    if ndata or nctrl:
        entry[0]._d += ndata
        entry[0]._c += nctrl


class Alignment(NamedTuple):
    """Leading chunks of an inner stream paired with their outer tokens."""

    owner: np.ndarray  # per chunk, outer index of the token that owns it
    fold: np.ndarray  # ... of the outer stop its closer folds, else -1
    closer: np.ndarray  # ... its closing stop: control index in *inner*
    kind: np.ndarray  # ... its owner's code: CODE_DATA for a datum
    used: int  # outer tokens the chunks consume
    again: bool  # the prefix ended where alignment restarts, not at a fault
    unfolded: bool  # the last chunk folds the token after *outer*


def align_chunks(outer: Fibers, inner: Fibers, lead: Optional[int] = None) -> Alignment:
    """Pair an outer stream with the stop-closed chunks one level deeper.

    *outer* and *inner* are views (:func:`front_stream`, without a ``D``)
    of a stream at depth *d* and one at *d* + 1; indices count tokens in
    stream order (control *i* of a view is token ``ends[i] + i``), with
    *lead*, when given, the code of one more owner in front of *outer*
    (the repeater's open reference).  The repeater (references against
    repeat-signal runs) and the coordinate dropper (outer coordinates
    against inner fibers) walk them by one rule: an outer datum or ``N``
    owns the next chunk; a chunk closing with ``Sn``, n >= 1, folds the
    outer stream's next token, which must be ``S(n-1)``; a bare outer
    ``Sn`` — one that no datum's chunk folds — owns an *empty* chunk
    closing ``S(n+1)``.  Returns the longest prefix of complete chunks for
    which that holds *and every token it needs has arrived*; the caller
    tells a fault from a wait by looking at what is in front afterwards.
    The one token a chunk may lack is the fold of the last one, which the
    generators pop after that chunk's events: ``unfolded`` says the caller
    takes and checks it — the next outer token — itself.  A closer's inner
    index is ``inner.ends[closer] + closer``.

    A stop is taken to be folded iff it follows a datum.  The one place
    that guess is wrong — a datum whose chunk closes ``S0`` in front of a
    stop, which is then bare — ends the prefix behind that chunk with
    ``again`` set: the next call starts at the stop and sees it bare.
    """
    closers = (inner.codes >= 0).nonzero()[0]
    ends = inner.ends[closers] + closers  # inner indices
    first = int(lead is not None)
    n = len(outer.data) + len(outer.codes) + first
    # the outer codes in stream order, and one sentinel datum: "no token
    # yet" reads as neither stop nor fold
    code = filled(n + 1, CODE_DATA)
    code[outer.ends + index_ramp(len(outer.codes)) + first] = outer.codes
    if first:
        code[0] = lead
    stop = code >= 0
    folded = stop.copy()
    folded[1:] &= ~stop[:-1]
    folded[0] = False
    owner = (~folded[:-1]).nonzero()[0][:len(ends)]
    k = len(owner)
    ends = ends[:k]
    level, after = inner.codes[closers[:k]], owner + 1
    bare, folds = stop[owner], folded[after]
    want = np.where(bare | folds, code[np.where(bare, owner, after)] + 1, 0)
    # a datum's S0 in front of a stop: that stop is bare after all
    restart = folds & (level == 0)
    unfolded = (after == n) & (level > 0) & ~bare
    bad = (level != want) & ~restart & ~unfolded
    if np.count_nonzero(bare):  # the chunk a bare stop owns is empty
        bad |= bare & (np.diff(ends, prepend=-1) != 1)
    if np.count_nonzero(bad):
        k = int(bad.argmax())
    again = bool(np.count_nonzero(restart[:k]))
    if again:
        k = int(restart.argmax()) + 1
    fold = np.where(folds & ~restart, after, -1)[:k]
    used = int(max(owner[k - 1], fold[k - 1])) + 1 if k else 0
    return Alignment(owner[:k], fold, closers[:k], code[owner[:k]], used, again,
                     bool(k and unfolded[k - 1]))


class Pairing(NamedTuple):
    """Leading chunks of two streams at one level, paired datum by datum."""

    clean: int  # leading chunks that pair up; the next one does not
    pick: Optional[np.ndarray]  # per pair (the tail's too), its value's
    # index; None when that side has no phantoms: the identity
    crd_pick: Optional[np.ndarray] = None  # ... its coordinate's


def pair_chunks(crd: Fibers, val: Fibers, phantoms=(False, True)) -> Pairing:
    """Pair the chunks of a coordinate stream with a value stream's.

    Both are views of streams at the *same* level holding as many chunks
    and tail tokens (:func:`common_front`, or :func:`front_fibers` with
    one *k*), with ``N`` values densified to ``0.0``.  Every same-level
    window block walks them by one rule: chunk *f* pairs up when both
    close with the same code, a stop or ``D``, and the *i*-th datum of
    one run pairs with the *i*-th of the other; the surplus of the longer
    run — phantom values a zero-policy reducer upstream emitted for a
    region with no coordinates — must be zeros, on a side *phantoms*
    (``(coordinate side, value side)``) allows them on: the vector
    reducer and the value dropper on the value side, the ALU on either,
    the scatter writer and the locator on neither.  ``clean`` counts the
    chunks before the first that breaks a rule; the caller replays its
    own checks over that one to raise its error.
    """
    bad = crd.codes < CODE_DONE
    bad |= val.codes != crd.codes
    if not phantoms[0]:
        bad |= crd.lens > val.lens
    if not phantoms[1]:
        bad |= val.lens > crd.lens
    clean = int(bad.argmax()) if np.count_nonzero(bad) else len(bad)
    # with phantoms on one side at most, equal totals mean equal runs
    if not clean or crd.ends[clean - 1] == val.ends[clean - 1] and not all(phantoms):
        return Pairing(clean, None)
    m = clean
    pairs = np.minimum(crd.lens[:m], val.lens[:m])
    extras = [side.lens[:m] - pairs for side in (crd, val)]
    if not (np.count_nonzero(extras[0]) or np.count_nonzero(extras[1])):
        return Pairing(clean, None)
    chunk = index_ramp(m).repeat(pairs)
    picks: List[Optional[np.ndarray]] = []
    for side, extra in zip((crd, val), extras):
        pick = None
        if np.count_nonzero(extra):
            pick = index_ramp(len(chunk)) + (extra.cumsum() - extra)[chunk]
            phantom = filled(int(side.ends[m - 1]), True, bool)
            phantom[pick] = False
            stray = (phantom & (side.data[:len(phantom)] != 0)).nonzero()[0]
            if len(stray):  # a non-zero phantom: its chunk is the first bad one
                clean = min(clean, int(side.ends.searchsorted(stray[0], "right")))
        picks.append(pick)
    n, tail = int(np.add.reduce(pairs[:clean])), crd.tail if clean == len(bad) else 0
    for i, side in enumerate((crd, val)):
        if picks[i] is not None:
            picks[i] = np.concatenate(
                (picks[i][:n], len(side.data) - tail + index_ramp(tail)))
    return Pairing(clean, picks[1], picks[0])


class TimedBuilder:
    """Accumulates stamped output tokens; flushes one stamped batch."""

    __slots__ = ("channel", "_data", "_n", "_cpos", "_ccode", "_sdata", "_sctrl")

    def __init__(self, channel):
        self.channel = channel
        self._data: List[np.ndarray] = []
        self._n = 0
        self._cpos: List[np.ndarray] = []
        self._ccode: List[np.ndarray] = []
        self._sdata: List[np.ndarray] = []
        self._sctrl: List[np.ndarray] = []

    def data(self, arr: np.ndarray, stamps: np.ndarray) -> None:
        if len(arr):
            self._data.append(arr)
            self._sdata.append(np.asarray(stamps, dtype=np.int64))
            self._n += len(arr)

    def ctrl(self, code: int, stamp: int, count: int = 1) -> None:
        self._cpos.append(filled(count, self._n))
        self._ccode.append(filled(count, code))
        self._sctrl.append(filled(count, stamp))

    def data_with_ctrl(
        self,
        arr: np.ndarray,
        cpos: np.ndarray,
        ccode: np.ndarray,
        dstamps: np.ndarray,
        cstamps: np.ndarray,
        blank: Optional[np.ndarray] = None,
    ) -> None:
        """Append data and the control tokens placed among it (control
        *i* in front of datum ``cpos[i]``); *blank* marks the data that
        go out as ``N`` (:func:`blank_fibers` read them as data)."""
        if blank is not None and np.count_nonzero(blank):
            at = blank.nonzero()[0]
            keep = ~blank
            # each N goes behind the controls in front of its datum
            slots = cpos.searchsorted(at, "right")
            cpos = insert_sorted(cpos - at.searchsorted(cpos), slots,
                                 at - index_ramp(len(at)))
            ccode = insert_sorted(ccode, slots, CODE_EMPTY)
            cstamps = insert_sorted(cstamps, slots, dstamps[at])
            arr, dstamps = arr[keep], dstamps[keep]
        if len(cpos):
            self._cpos.append(np.asarray(cpos, dtype=np.int64) + self._n)
            self._ccode.append(np.asarray(ccode, dtype=np.int64))
            self._sctrl.append(np.asarray(cstamps, dtype=np.int64))
        self.data(arr, dstamps)

    @property
    def pending(self) -> int:
        return self._n + sum(len(c) for c in self._ccode)

    def flush(self) -> int:
        count = self.pending
        if count == 0:
            return 0
        batch = TokenBatch(
            _concat_data(self._data),
            np.concatenate(self._cpos) if self._cpos else _EMPTY_I64,
            np.concatenate(self._ccode) if self._ccode else _EMPTY_I64,
        )
        sdata = _concat_i64(self._sdata)
        sctrl = _concat_i64(self._sctrl)
        self._data, self._cpos, self._ccode = [], [], []
        self._sdata, self._sctrl = [], []
        self._n = 0
        self.channel.push_batch_timed(batch, sdata, sctrl)
        return count


__all__ = [
    "Alignment",
    "Fibers",
    "I64_MAX",
    "Pairing",
    "TimedBuilder",
    "TimedReader",
    "align_chunks",
    "blank_fibers",
    "common_front",
    "consume",
    "front_fibers",
    "front_stream",
    "held_fibers",
    "index_ramp",
    "insert_sorted",
    "merge_stamps",
    "pair_chunks",
    "rate1_schedule",
    "split_done_stamped",
    "token_order_indices",
    "window_capacity",
]
