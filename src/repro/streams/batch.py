"""Batched token runs: the numpy-backed fast path of the data plane.

A :class:`TokenBatch` encodes a contiguous slice of a SAM stream as two
parallel structures:

* ``data`` — a 1-D numpy array (int64 for coordinate streams, whose
  feeders refuse anything else, and most reference streams; float64 for
  value streams) holding the *data* tokens in arrival order;
* ``ctrl_pos`` / ``ctrl_code`` — int64 arrays placing each *control*
  token in the stream: the control token ``ctrl_code[i]`` arrives after
  the first ``ctrl_pos[i]`` data tokens.  Codes ``>= 0`` are stop levels
  (``Stop(code)``); the negative codes below encode ``D``, ``N`` and the
  repeater's ``R`` signal.

Consecutive control tokens share a position and keep their array order,
so any token sequence round-trips exactly.  Batches are *immutable* once
built — consumers advance private cursors, never touch the arrays —
which lets a fanout hand the same arrays to several consumers.

Blocks process whole ``data`` segments between control tokens with numpy
instead of resuming a generator once per token: batches travel with
cycle stamps (:mod:`repro.streams.timing` has the block-side reader and
builder), and a block's ``drain_timed`` hook consumes them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .token import DONE, EMPTY, Stop, is_stop

#: control codes (ctrl_code entries); stop tokens use their level (>= 0)
CODE_DONE = -1
CODE_EMPTY = -2
CODE_REPEAT = -3
#: not a control code: marks a data token where a stream is laid out in
#: token order (:func:`repro.streams.timing.align_chunks`)
CODE_DATA = -4

#: the repeater's ``R`` signal (imported here to avoid a blocks dependency)
_REPEAT_TOKEN = "R"

#: sentinel distinct from every token (None is not a token either, but an
#: explicit sentinel keeps that invariant visible at call sites)
NO_TOKEN = object()

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

_RAMP_CACHE = np.arange(1 << 16, dtype=np.int64)
_RAMP_CACHE.setflags(write=False)


def index_ramp(n: int) -> np.ndarray:
    """The int64 ramp ``0..n-1`` as a read-only slice of a growing cache.

    Every schedule and token-order computation adds a ramp to something;
    a fresh ramp per window is ~8 % of a compiled Gamma run at 1e5 nnz,
    so the ramp is allocated once and shared.
    """
    global _RAMP_CACHE
    if n > len(_RAMP_CACHE):
        _RAMP_CACHE = np.arange(1 << int(n - 1).bit_length(), dtype=np.int64)
        _RAMP_CACHE.setflags(write=False)
    return _RAMP_CACHE[:n]


def filled(n: int, value, dtype=np.int64) -> np.ndarray:
    """``np.full(n, value, dtype=dtype)`` without numpy's Python layer,
    which costs more than the fill itself on a window's short arrays."""
    out = np.empty(n, dtype=dtype)
    out.fill(value)
    return out


class UnbatchableTokens(TypeError):
    """A stream carries tokens the numpy plane cannot represent.

    Raised when batching tuples (skip hints) or other structured
    payloads; the queue the tokens came from is left intact.  The plan
    hands a run whose tokens do not batch to ``cycle`` before it starts
    (:func:`~repro.sim.backends.plan.plan_blocks`).
    """


def encode_token(token) -> Optional[int]:
    """Control code for *token*, or None if it is a data token."""
    if is_stop(token):
        return token.level
    if token is DONE:
        return CODE_DONE
    if token is EMPTY:
        return CODE_EMPTY
    if isinstance(token, str) and token == _REPEAT_TOKEN:
        return CODE_REPEAT
    return None


_INT64_SPAN = 1 << 63


def batch_kind(token) -> str:
    """How a single token rides a :class:`TokenBatch`.

    ``""`` for a control token, ``"i"`` / ``"f"`` for a Python int or
    float (a datum of an int64 / float64 run), ``"x"`` for what is
    batchable but leaves the run's dtype to ``np.asarray`` (numpy
    scalars, a whole batch queued as one element).  Raises
    :class:`UnbatchableTokens` for what :meth:`TokenBatch.from_tokens`
    refuses or would silently reinterpret — tuples, ``bool``, strings,
    integers beyond int64 — so one token can be judged the cycle it is
    pushed, before the run it will share a batch with exists.
    """
    cls = token.__class__
    if cls is float:
        return "f"
    if cls is int:
        if -_INT64_SPAN <= token < _INT64_SPAN:
            return "i"
    elif encode_token(token) is not None:
        return ""
    elif cls is TokenBatch or isinstance(token, (np.signedinteger, np.floating)):
        return "x"
    raise UnbatchableTokens(f"cannot batch data token {token!r}")


def first_non_coordinate(tokens, batch: Optional["TokenBatch"] = None) -> int:
    """Where in *tokens* the first data token a coordinate stream may not
    carry lies, or -1 when every one is a coordinate: an ``int`` within
    int64 or a numpy signed integer — no ``bool``, no float, integral or
    not, no unsigned numpy integer, no tuple.

    *batch*, when given, is ``TokenBatch.from_tokens(tokens)``: a list of
    coordinates batches as int64 (or holds no data), so only a list that
    does not is walked, to find the token at fault.
    """
    if batch is not None and (batch.data.dtype.kind == "i" or not len(batch.data)):
        return -1
    for at, token in enumerate(tokens):
        if token.__class__ is int:
            if -_INT64_SPAN <= token < _INT64_SPAN:
                continue
        elif encode_token(token) is not None or isinstance(token, np.signedinteger):
            continue
        return at
    return -1


def decode_code(code: int):
    """The scalar token a control code stands for."""
    if code >= 0:
        return Stop(code)
    if code == CODE_DONE:
        return DONE
    if code == CODE_EMPTY:
        return EMPTY
    if code == CODE_REPEAT:
        return _REPEAT_TOKEN
    raise ValueError(f"unknown control code {code}")


class TokenBatch:
    """A numpy-backed run of stream tokens (see module docstring).

    The constructor takes pre-validated arrays; use :meth:`from_tokens`
    to build from a scalar token sequence.  ``_d``/``_c`` are consumption
    cursors used when a batch is popped token-by-token by a scalar
    consumer (mixed batch/generator graphs).
    """

    __slots__ = ("data", "ctrl_pos", "ctrl_code", "_d", "_c")

    def __init__(self, data: np.ndarray, ctrl_pos: np.ndarray, ctrl_code: np.ndarray):
        self.data = data
        self.ctrl_pos = ctrl_pos
        self.ctrl_code = ctrl_code
        self._d = 0
        self._c = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def from_tokens(cls, tokens: Iterable) -> "TokenBatch":
        """Batch a scalar token sequence; raises :class:`UnbatchableTokens`
        for a data token :func:`batch_kind` refuses."""
        data: List = []
        cpos: List[int] = []
        ccode: List[int] = []
        for token in tokens:
            code = encode_token(token)
            if code is None:
                batch_kind(token)
                data.append(token)
            else:
                cpos.append(len(data))
                ccode.append(code)
        return cls(
            _as_data_array(data),
            np.asarray(cpos, dtype=np.int64),
            np.asarray(ccode, dtype=np.int64),
        )

    def view(self) -> "TokenBatch":
        """A fresh-cursor consumer view of the *remaining* tokens."""
        return TokenBatch(*self.remaining_arrays())

    def remaining_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data, ctrl_pos, ctrl_code) for everything not yet consumed."""
        if self._d == 0 and self._c == 0:
            return self.data, self.ctrl_pos, self.ctrl_code
        return (
            self.data[self._d:],
            self.ctrl_pos[self._c:] - self._d,
            self.ctrl_code[self._c:],
        )

    # -- sizing and statistics -----------------------------------------------
    def __len__(self) -> int:
        """Number of *remaining* tokens (data + control)."""
        return (len(self.data) - self._d) + (len(self.ctrl_code) - self._c)

    @property
    def exhausted(self) -> bool:
        return self._d >= len(self.data) and self._c >= len(self.ctrl_code)

    def counts(self) -> Tuple[int, int, int, int]:
        """(data, stop, done, empty) counts over the *full* batch.

        ``R`` repeat signals count as data, matching the scalar
        :meth:`~repro.streams.channel.Channel.push` classification.
        """
        code = self.ctrl_code
        n_stop = int(np.count_nonzero(code >= 0))
        n_done = int(np.count_nonzero(code == CODE_DONE))
        n_empty = int(np.count_nonzero(code == CODE_EMPTY))
        n_data = len(self.data) + (len(code) - n_stop - n_done - n_empty)
        return n_data, n_stop, n_done, n_empty

    @property
    def ends_done(self) -> bool:
        return len(self.ctrl_code) > 0 and self.ctrl_code[-1] == CODE_DONE

    # -- scalar consumption (mixed graphs) -----------------------------------
    def peek_front(self):
        d, c = self._d, self._c
        if c < len(self.ctrl_code) and self.ctrl_pos[c] <= d:
            return decode_code(int(self.ctrl_code[c]))
        if d < len(self.data):
            return self.data[d].item()
        return NO_TOKEN

    def pop_front(self):
        d, c = self._d, self._c
        if c < len(self.ctrl_code) and self.ctrl_pos[c] <= d:
            self._c = c + 1
            return decode_code(int(self.ctrl_code[c]))
        if d < len(self.data):
            self._d = d + 1
            return self.data[d].item()
        raise IndexError("pop from an exhausted TokenBatch")

    # -- expansion -----------------------------------------------------------
    def tokens(self) -> List:
        """Remaining tokens as scalars (test/recording convenience)."""
        data, cpos, ccode = self.remaining_arrays()
        out: List = []
        d = 0
        data_list = data.tolist()
        for pos, code in zip(cpos.tolist(), ccode.tolist()):
            while d < pos:
                out.append(data_list[d])
                d += 1
            out.append(decode_code(code))
        out.extend(data_list[d:])
        return out

    def __repr__(self) -> str:
        return (
            f"TokenBatch(data={len(self.data) - self._d}, "
            f"ctrl={len(self.ctrl_code) - self._c})"
        )


def _as_data_array(values: List) -> np.ndarray:
    if not values:
        return _EMPTY_F64
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged tuples and the like
        raise UnbatchableTokens(f"cannot batch data tokens: {exc}") from exc
    if arr.ndim != 1 or arr.dtype.kind not in "if":
        # Tuples (skip hints) and other structured payloads stay on the
        # scalar plane — callers catch this and fall back.
        raise UnbatchableTokens(
            f"cannot batch data tokens of shape {arr.shape} dtype {arr.dtype}"
        )
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False)
    return arr.astype(np.float64, copy=False)


def concat_batches(batches: List[TokenBatch]) -> TokenBatch:
    """Concatenate the remaining contents of *batches* into one batch."""
    if len(batches) == 1:
        return batches[0].view()
    datas, cposs, ccodes = [], [], []
    offset = 0
    for batch in batches:
        data, cpos, ccode = batch.remaining_arrays()
        datas.append(data)
        cposs.append(cpos + offset)
        ccodes.append(ccode)
        offset += len(data)
    return TokenBatch(
        _concat_data(datas),
        np.concatenate(cposs) if cposs else _EMPTY_I64,
        np.concatenate(ccodes) if ccodes else _EMPTY_I64,
    )


def _concat_data(parts: List[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if len(p)]
    if not parts:
        return _EMPTY_F64
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _validate_segments(ndata: int, starts: np.ndarray,
                       lens: np.ndarray) -> None:
    """Reject malformed segment tables up front.

    Python slices silently truncate past-the-end segments and numpy's
    fancy indexing wraps negative starts, so both sum paths would quietly
    return wrong partial sums from a malformed table; one vectorised
    check turns that into a loud error.  Valid tables (CSR-style
    position splits) have in-bounds, non-negative segments whose starts
    and ends are each non-decreasing.
    """
    if len(starts) != len(lens):
        raise ValueError(
            f"segment table mismatch: {len(starts)} starts vs {len(lens)} lens"
        )
    if len(starts) == 0:
        return
    if np.count_nonzero(lens < 0):
        raise ValueError("segment lengths must be non-negative")
    if np.count_nonzero(starts < 0):
        raise ValueError("segment starts must be non-negative")
    ends = starts + lens
    if np.count_nonzero(ends > ndata):
        raise ValueError(
            f"segment overruns data: end {int(ends.max())} > {ndata} tokens"
        )
    if len(starts) > 1:
        if np.count_nonzero(starts[1:] < starts[:-1]):
            raise ValueError("segment starts must be non-decreasing")
        if np.count_nonzero(ends[1:] < ends[:-1]):
            raise ValueError("segment ends must be non-decreasing")


def sequential_segment_sums(data: np.ndarray, starts: np.ndarray,
                            lens: np.ndarray) -> np.ndarray:
    """Per-segment left-to-right sums, bit-identical to a scalar loop.

    Segment *i* covers ``data[starts[i] : starts[i] + lens[i]]``.  Each
    sum runs through Python's ``sum(..., 0.0)`` over one amortised
    ``tolist()`` so it reproduces the generators' ``acc = 0.0; acc += v``
    accumulator exactly — numpy's vectorised reductions (``np.sum``,
    ``np.add.reduceat``) use pairwise summation, whose rounding order
    differs from the sequential loop for longer segments.  Malformed
    segment tables raise :class:`ValueError`.
    """
    if len(starts) == 0:
        return _EMPTY_F64
    data = np.asarray(data, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    _validate_segments(len(data), starts, lens)
    out = np.empty(len(starts))
    values = data.tolist()
    for i, (start, length) in enumerate(zip(starts.tolist(), lens.tolist())):
        out[i] = sum(values[start:start + length], 0.0)
    return out


def exact_segment_sums(data: np.ndarray, starts: np.ndarray,
                       lens: np.ndarray) -> np.ndarray:
    """Vectorised per-segment sums, bit-identical to the sequential loop.

    Same contract as :func:`sequential_segment_sums`, but one unbuffered
    ``np.add.at`` does the work: it adds the segments' values into a
    zeroed accumulator per segment one at a time, in index order, so
    every accumulator sees exactly the left-to-right sequence of float64
    additions the scalar loop performs (numpy's pairwise
    ``np.sum``/``np.add.reduceat`` would not).
    """
    n = len(starts)
    if n == 0:
        return _EMPTY_F64
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    _validate_segments(len(data), starts, lens)
    before = lens.cumsum() - lens
    at = (starts - before).repeat(lens)
    at += index_ramp(len(at))
    out = np.zeros(n)
    np.add.at(out, index_ramp(n).repeat(lens), data[at])
    return out
