"""Level writers (Definition 3.8): storing result streams back to memory.

A level writer wraps the store mode of an array plus the metadata
bookkeeping of its level format: it consumes one coordinate (or value)
stream and internally generates the references and auxiliary structures
(segment arrays, dimension sizes, linked-list pointers).

Writers accumulate into a format object which is available once the
stream completes; the levels and the value array make a
:class:`~repro.formats.tensor.FiberTensor`.  What a writer stores
(``crd``/``seg``, ``vals``) reads back as one ndarray, during the run or
after it: the level and the value array are built from those arrays
without another copy.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from ..formats.compressed import CompressedLevel
from ..formats.linkedlist import LinkedListLevel
from ..streams.batch import filled, first_non_coordinate
from ..streams.channel import Channel
from ..streams.timing import (
    blank_fibers,
    common_front,
    consume,
    front_stream,
    pair_chunks,
    token_order_indices,
)
from ..streams.token import (
    is_data,
    is_done,
    is_empty,
    is_stop,
    show_value,
    token_repr,
)
from .base import Block, PortSpec, BlockError, StreamXfer


class _Column:
    """An array a writer fills in pieces and reads back whole.

    ``commit_window`` appends each window's array; the generator appends
    scalars to one tail list, which becomes a piece of its own when a
    window follows or the column is read.  *convert* makes a piece an
    array of the column's type the column may keep (a copy where the
    piece may be a view of a batch), or raises :class:`_BadValue`: the
    column keeps the values before the one it names and raises its
    error.  A read concatenates the pieces once.
    """

    __slots__ = ("size", "_convert", "_pieces", "_tail")

    def __init__(self, convert: Callable[[object], np.ndarray], head=()):
        self._convert = convert
        self._pieces: List[np.ndarray] = []
        self._tail = list(head)
        self.size = len(self._tail)

    def append(self, value) -> None:
        self._tail.append(value)
        self.size += 1

    def extend(self, values: np.ndarray) -> None:
        if len(values):
            self._seal()
            self.size += len(values)
            self._store(values)

    def array(self) -> np.ndarray:
        self._seal()
        if len(self._pieces) != 1:
            self._pieces = [
                np.concatenate(self._pieces) if self._pieces else self._convert([])
            ]
        return self._pieces[0]

    def _seal(self) -> None:
        if self._tail:
            tail, self._tail = self._tail, []
            self._store(tail)

    def _store(self, values) -> None:
        try:
            self._pieces.append(self._convert(values))
        except _BadValue as bad:
            self._pieces.append(self._convert(values[:bad.at]))
            raise bad.error from None


class _BadValue(Exception):
    """Value *at* of a piece is none of its column's type: *error*."""

    def __init__(self, at: int, error: BlockError):
        super().__init__(at, error)
        self.at, self.error = at, error


def _coordinates(name: str, values) -> np.ndarray:
    """*values* as a fresh int64 array, or the error naming the first that
    is no coordinate (:func:`~repro.streams.batch.first_non_coordinate`:
    a float, integral or not, a ``bool``, an integer past int64, no
    number).  A window's integer array is one; a list the generator
    filled is walked, since numpy would make ``[1, True]`` integers."""
    if values.__class__ is np.ndarray and values.dtype.kind == "i":
        return values.astype(np.int64)
    at = first_non_coordinate(values)
    if at >= 0:
        raise _BadValue(at, BlockError(
            f"{name}: non-integer coordinate {token_repr(values[at])}"
        ))
    return np.array(values, dtype=np.int64)


class CompressedLevelWriter(Block):
    """Writes a coordinate stream as a compressed (seg/crd) level.

    Every stop token closes one fiber at this level; consecutive stops
    produce empty segments (callers normally drop those upstream with a
    coordinate dropper, but the writer stays correct either way).  A
    coordinate that is no int64 — fractional, NaN, infinite, out of
    range, no number — raises the same :class:`BlockError` on every
    engine.
    """

    primitive = "level_writer"

    port_specs = (
        PortSpec('in_crd', 'in', kind='crd'),
    )
    stream_xfer = StreamXfer(ins=(("in_crd", "d"),))

    def __init__(self, in_crd: Channel, name: str = "wr_comp"):
        super().__init__(name)
        self.in_crd = self._in("in_crd", in_crd)
        # a seg piece is a fresh sum: no copy needed
        self._seg = _Column(partial(np.asarray, dtype=np.int64), head=[0])
        # no bound method: a column must not hold its writer in a cycle
        self._crd = _Column(partial(_coordinates, name))
        self._level: Optional[CompressedLevel] = None

    @property
    def crd(self) -> np.ndarray:
        return self._crd.array()

    @property
    def seg(self) -> np.ndarray:
        return self._seg.array()

    def _run(self):
        while True:
            token = yield from self._get(self.in_crd)
            if is_data(token):
                self._crd.append(token)
            elif is_stop(token):
                self._seg.append(self._crd.size)
            elif is_done(token):
                self._close()
                yield True
                return
            yield True

    def commit_window(self, data, cpos, ccode, cctrl, ends_done) -> None:
        # the stops first: a rejected coordinate leaves what the
        # generator would (it checks them all at D)
        self._seg.extend(self._crd.size + cpos[ccode >= 0])
        self._crd.extend(data)
        if ends_done:
            self._close()

    def _close(self) -> None:
        """At ``D``: end an unterminated trailing fiber, build the level."""
        crd = self.crd
        if self.seg[-1] != len(crd):
            self._seg.append(len(crd))
        self._level = CompressedLevel(self.seg, crd)

    def drain_timed(self) -> bool:
        if self.finished:
            return False
        return self._t_tail_window(self.in_crd, self.commit_window) is not None

    @property
    def level(self) -> CompressedLevel:
        if self._level is None:
            raise BlockError(f"{self.name}: stream not finished")
        return self._level


class ValsWriter(Block):
    """Writes a value stream to a contiguous value array, in arrival order."""

    primitive = "level_writer"

    port_specs = (
        PortSpec('in_val', 'in', kind='vals'),
    )
    stream_xfer = StreamXfer(ins=(("in_val", "d"),))

    def __init__(self, in_val: Channel, name: str = "wr_vals"):
        super().__init__(name)
        self.in_val = self._in("in_val", in_val)
        self._vals = _Column(partial(np.array, dtype=np.float64))

    @property
    def vals(self) -> np.ndarray:
        return self._vals.array()

    def _run(self):
        while True:
            token = yield from self._get(self.in_val)
            if is_data(token):
                self._vals.append(float(token))
            elif is_empty(token):
                self._vals.append(0.0)
            yield True
            if is_done(token):
                return

    fuse_role = "write"

    def commit_window(self, data, cpos, ccode, cctrl, ends_done) -> None:
        self._vals.extend(data)

    def drain_timed(self) -> bool:
        if self.finished:
            return False
        return self._t_tail_window(
            self.in_val, self.commit_window, 0.0
        ) is not None


class ScatterValsWriter(Block):
    """Random-insert value writer for dense left-hand sides (section 4.2).

    With a locate-style reference stream, results scatter directly into a
    dense value array, which is how linear-combination SpMV avoids a
    vector reducer.
    """

    primitive = "level_writer"

    port_specs = (
        PortSpec('in_ref', 'in', kind=None),
        PortSpec('in_val', 'in', kind='vals'),
    )
    # Scatter target and value arrive as one aligned pair per event.
    stream_xfer = StreamXfer(ins=(("in_ref", "d"), ("in_val", "d")))

    def __init__(
        self, size: int, in_ref: Channel, in_val: Channel, name: str = "wr_scatter"
    ):
        super().__init__(name)
        self.in_ref = self._in("in_ref", in_ref)
        self.in_val = self._in("in_val", in_val)
        self.vals = np.zeros(size, dtype=np.float64)

    def _check_pair(self, ref, val) -> None:
        """A reference (or ``N``) pairs with a value (or ``N``), a stop
        with a stop, ``D`` with ``D``."""
        ref_ends, val_ends = (is_stop(t) or is_done(t) for t in (ref, val))
        if ref_ends != val_ends or is_done(ref) != is_done(val):
            raise BlockError(
                f"{self.name}: misaligned inputs "
                f"({token_repr(ref)} vs {show_value(val)})"
            )

    def _run(self):
        while True:
            ref = yield from self._get(self.in_ref)
            val = yield from self._get(self.in_val)
            self._check_pair(ref, val)
            if is_done(ref):
                yield True
                return
            if is_data(ref):
                self.vals[ref] += 0.0 if is_empty(val) else val
            yield True

    def drain_timed(self) -> bool:
        """Timed drain: one pairing (:func:`_take_pairs`), one scatter,
        one schedule.  An ``N`` reference is a datum that scatters
        nothing, an ``N`` value 0.0."""
        if self.finished:
            return False
        readers = self._treader(self.in_ref), self._treader(self.in_val)
        readers[1].densify_empty(0.0)
        taken = _take_pairs(self, readers, blank=(True, False))
        if taken is None:
            return False
        windows, (ref, val) = taken
        keep = filled(len(ref.data), True, bool)
        keep[ref.blank] = False
        np.add.at(
            self.vals,
            ref.data[keep].astype(np.int64, copy=False),
            np.asarray(val.data[keep], dtype=np.float64),
        )
        _commit_pairs(self, windows, (ref, val))
        return True


class LinkedListLevelWriter(Block):
    """Discordant-order level writer backed by linked lists (section 6.5).

    Consumes paired (parent reference, coordinate) streams and appends
    each coordinate under its parent fiber, in arrival order — the
    OuterSPACE multiply-phase write of ``Y[i,k,j]`` produced in
    ``k,i,j`` dataflow order.
    """

    primitive = "level_writer"

    port_specs = (
        PortSpec('in_parent_ref', 'in', kind=None),
        PortSpec('in_crd', 'in', kind='crd'),
    )
    # Discordant append: one (parent, coordinate) pair per event, both
    # streams share one shape.
    stream_xfer = StreamXfer(ins=(("in_parent_ref", "d"), ("in_crd", "d")))

    def __init__(self, in_parent_ref: Channel, in_crd: Channel, name: str = "wr_ll"):
        super().__init__(name)
        self.in_parent_ref = self._in("in_parent_ref", in_parent_ref)
        self.in_crd = self._in("in_crd", in_crd)
        self.level = LinkedListLevel()
        #: child reference produced for each appended coordinate
        self.child_refs: List[int] = []

    def _check_pair(self, parent, crd) -> None:
        """A reference (or ``N``) pairs with a coordinate (or ``N``), a
        stop with a stop, ``D`` with ``D``."""
        parent_ends, crd_ends = (is_stop(t) or is_done(t) for t in (parent, crd))
        if parent_ends != crd_ends or is_done(parent) != is_done(crd):
            raise BlockError(
                f"{self.name}: misaligned inputs "
                f"({token_repr(parent)} vs {token_repr(crd)})"
            )

    def _run(self):
        while True:
            parent = yield from self._get(self.in_parent_ref)
            crd = yield from self._get(self.in_crd)
            self._check_pair(parent, crd)
            if is_done(parent):
                yield True
                return
            if is_data(parent) and is_data(crd):
                self.child_refs.append(self.level.append(parent, crd))
            yield True

    def drain_timed(self) -> bool:
        """Timed drain: one pairing (:func:`_take_pairs`), one event per
        token pair; each pair of data is appended in arrival order (an
        ``N`` on either side appends nothing)."""
        if self.finished:
            return False
        readers = self._treader(self.in_parent_ref), self._treader(self.in_crd)
        taken = _take_pairs(self, readers, blank=(True, True))
        if taken is None:
            return False
        windows, (parent, crd) = taken
        keep = filled(len(parent.data), True, bool)
        keep[parent.blank] = False
        keep[crd.blank] = False
        append = self.level.append
        self.child_refs += [append(p, c) for p, c in zip(parent.data[keep].tolist(),
                                                         crd.data[keep].tolist())]
        _commit_pairs(self, windows, (parent, crd))
        return True


def _take_pairs(block, readers, blank):
    """What two same-level streams have both arrived of, paired token by
    token: ``(windows, views)``, or None when no pair is complete.

    Every chunk complete on both streams, through the first ``D``, and
    the pairs of the open one; an ``N`` is read as a datum on a stream
    *blank* names (:func:`blank_fibers`), and a stop pairs with a stop
    of any level.  A chunk that does not pair up raises
    ``block._check_pair``'s error.
    """
    windows = [reader.held_window() for reader in readers]
    if windows[0] is None or windows[1] is None:
        return None
    views = [front_stream(w) for w in windows]
    views = common_front([blank_fibers(v) if b else v for v, b in zip(views, blank)])
    first, second = views
    k = len(first.codes)
    if not k + first.tail:
        return None
    stops_as_s0 = [v._replace(codes=np.minimum(v.codes, 0)) for v in views]
    clean = pair_chunks(*stops_as_s0, phantoms=(False, False)).clean
    if clean < k:
        for pair in zip(first.tokens(clean), second.tokens(clean)):
            block._check_pair(*pair)
    return windows, views


def _commit_pairs(block, windows, views) -> None:
    """One event per pair :func:`_take_pairs` took, gated by both tokens;
    move both windows past them."""
    first, second = views
    di, ci = token_order_indices(first.ends, len(first.data))
    arrivals = np.empty(len(first.data) + len(first.codes), dtype=np.int64)
    arrivals[di] = np.maximum(first.sdata, second.sdata)
    arrivals[ci] = np.maximum(first.scodes, second.scodes)
    block._t_advance(arrivals)
    for window, view in zip(windows, views):
        consume(window, *view.span)
    block.finished = first.done
