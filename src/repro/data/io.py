"""Real-tensor ingestion: Matrix Market (.mtx) and FROSTT (.tns) readers.

Both formats are line-oriented text.  The readers parse the header lines
themselves; no body is read one Python ``str`` per line, so million-nnz
operands load in seconds and feed straight into the vectorized
:meth:`~repro.formats.tensor.FiberTensor.from_coords` pipeline without a
per-entry Python loop.  A Matrix Market coordinate body whose bytes pass
a strict grammar check (``int int [float]`` lines, read in numpy from the
non-digit bytes alone, no number converted) is parsed by scipy's C++
reader; any other body, and every ``.tns`` or ``array`` body, is read by
the general reader, ``np.loadtxt`` over the file's path
(:func:`_coordinate_entries` says why both stay).  Every parse failure
is a ``ValueError`` naming the file and the 1-based entry or the size
line.  The writers format a chunk of rows per ``%`` operation.
``.gz``-compressed files are handled transparently both ways.

Matrix Market support covers the coordinate and array formats, the
``real``/``integer``/``pattern`` fields, and the ``general``/
``symmetric``/``skew-symmetric`` symmetries (complex/hermitian matrices
are rejected — the simulator's value arrays are float64).  FROSTT ``.tns``
files are whitespace-separated ``i j k ... value`` lines, 1-indexed, with
``#`` comments; the shape is inferred from the data unless given.
"""

from __future__ import annotations

import functools
import gzip
import io
import itertools
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..formats.tensor import dense_nonzeros, segment_offsets


@dataclass(frozen=True)
class CooTensor:
    """Parsed COO data: the common currency of the readers.

    ``coords`` is ``(nnz, order)`` int64, zero-indexed; ``values`` is
    float64.  Use :meth:`to_fibertensor` (or ``scipy.sparse``) downstream.

    ``field`` carries the Matrix Market value field the data came from
    (``"real"``, ``"integer"`` or ``"pattern"``) so a read→write round
    trip preserves it; data built from numpy/scipy infers ``"integer"``
    from an integer dtype.
    """

    shape: Tuple[int, ...]
    coords: np.ndarray
    values: np.ndarray
    field: str = "real"

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_fibertensor(self, formats=None, mode_order=None, name: str = "T",
                       keep_zeros: bool = False):
        from ..formats.tensor import FiberTensor

        return FiberTensor.from_coords(
            self.shape, self.coords, self.values, formats=formats,
            mode_order=mode_order, name=name, keep_zeros=keep_zeros,
        )

    def to_scipy(self):
        """As a ``scipy.sparse.csr_matrix`` (matrices only)."""
        from scipy import sparse

        if self.order != 2:
            raise ValueError(f"to_scipy needs a matrix, got order {self.order}")
        return sparse.csr_matrix(
            (self.values, (self.coords[:, 0], self.coords[:, 1])),
            shape=self.shape,
        )


def _open_text(path: str):
    # latin-1, not ascii: data lines are ASCII per both specs, but real
    # SuiteSparse/FROSTT headers carry free-form comment bytes (author
    # names etc.) that must not abort the load.
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="latin-1")
    return open(path, "r", encoding="latin-1")


def _load_floats(path: str, comments: str, skiprows: int = 0) -> np.ndarray:
    """The general reader: the body of *path* as a 2-D float64 array
    (possibly empty), any number of columns, any float spelling.

    ``np.loadtxt`` is given the path, not a handle: numpy then
    decompresses ``.gz`` by extension and reads the text in chunks, where
    a handle would be iterated one Python ``str`` per line.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*no data.*")
            return np.loadtxt(
                path, dtype=np.float64, comments=comments, skiprows=skiprows,
                encoding="latin-1", ndmin=2,
            )
    except ValueError as err:
        raise _body_error(path, comments, skiprows, err) from None


def _body_error(path: str, comments: str, skiprows: int, err) -> ValueError:
    """Name the file and the first entry ``np.loadtxt`` cannot have parsed.

    numpy's own message carries neither (and counts rows from 1 for a
    ragged body but from 0 for a bad token), so after a failure, and only
    then, the body is walked a second time line by line.
    """
    width = entry = 0
    with _open_text(path) as handle:
        for line in itertools.islice(handle, skiprows, None):
            tokens = line.split(comments, 1)[0].split()
            if not tokens:
                continue
            entry += 1
            width = width or len(tokens)
            if len(tokens) != width:
                return ValueError(
                    f"{path}: entry {entry} has {len(tokens)} columns, the "
                    f"entries before it have {width}: {line.strip()!r}"
                )
            for token in tokens:
                if not _is_number(token):
                    return ValueError(
                        f"{path}: entry {entry}: {token!r} is not a number: "
                        f"{line.strip()!r}"
                    )
    return ValueError(f"{path}: {err}")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return "_" not in token  # float() takes 1_000, numpy's strtod does not


def _sizes(
    path: str, what: str, line: str, tokens: Sequence[str], at_least: int = 0
) -> List[int]:
    """*tokens* of a size line or shape comment as non-negative ints."""
    try:
        sizes = [int(token) for token in tokens]
    except ValueError:
        sizes = None
    if sizes is None or len(sizes) < at_least or min(sizes, default=0) < 0:
        raise ValueError(f"{path}: malformed {what} {line!r}")
    return sizes


def _exact_indices(path: str, raw: np.ndarray, comments: str,
                   skiprows: int = 0) -> np.ndarray:
    """The leading index columns *raw* of the general reader's body, read
    again as int64 if one is past 2**53, where a float64 no longer holds
    every integer (``9007199254740993`` parses as ``...992``).  The second
    read needs every index spelled as an integer; with one spelled
    ``3.0`` or ``1e16`` the float reading stands."""
    if not (np.abs(raw) >= 2.0**53).any():
        return raw
    try:
        return np.loadtxt(path, dtype=np.int64, comments=comments, skiprows=skiprows,
                          usecols=range(raw.shape[1]), encoding="latin-1", ndmin=2)
    except ValueError:  # a float spelling, or an index past int64
        return raw


def _zero_indexed(path: str, raw: np.ndarray) -> np.ndarray:
    """1-indexed coordinate columns (parsed as floats) as int64 - 1; a
    fractional index is an error, never a silent truncation."""
    with np.errstate(invalid="ignore"):  # 1e20 has no int64: caught below
        coords = raw.astype(np.int64)
    if (coords != raw).any():
        bad = int(np.flatnonzero((coords != raw).any(axis=1))[0])
        raise ValueError(
            f"{path}: non-integer coordinate in entry {bad + 1}: "
            f"{raw[bad].tolist()}"
        )
    return coords - 1


#: body bytes checked at once, each slab cut at a newline (the whole body
#: of a 2e5-entry file at once: +18 MB peak RSS, and a slower read)
_SLAB = 1 << 20


def _is_digit(byte: np.ndarray) -> np.ndarray:
    return (byte - np.uint8(48)) < 10  # uint8 wraps below '0'


def _is_gap(byte: np.ndarray) -> np.ndarray:
    return byte <= 32  # a control byte but tab or newline refuses the slab


def _is_sign(byte: np.ndarray) -> np.ndarray:
    return (byte == 43) | (byte == 45)


def _is_e(byte: np.ndarray) -> np.ndarray:
    return (byte | 32) == 101


def _in_order(byte: np.ndarray, spaced: np.ndarray, marks: np.ndarray,
              token: np.ndarray) -> bool:
    """Whether the skeleton bytes ``byte[marks]`` (each in token *token*)
    spell ``[+-]?(D+.?D*|.D+)([eE][+-]?D+)?`` with the digits around them.

    A mark's neighbour is the adjacent skeleton byte, or a digit where
    digits lie between them (*spaced*).  Each mark is checked against its
    two neighbours: a sign opens the token or follows the ``e``, and a
    digit (or, opening the token, a dot) follows it; a dot follows a
    digit, or opens the mantissa and precedes a digit; an ``e`` follows
    the mantissa's digit or dot and precedes the exponent's sign or
    digit.  Then per token: at most one dot and one ``e``, in that order.
    """
    mark = byte[marks]
    before = np.where(spaced[marks - 1], np.uint8(48), byte[marks - 1])
    after = np.where(spaced[marks], np.uint8(48), byte[marks + 1])
    dot, e = mark == 46, _is_e(mark)
    fits = (
        _is_sign(mark) & (
            _is_gap(before) & (_is_digit(after) | (after == 46))
            | _is_e(before) & _is_digit(after)
        )
        | dot & (
            _is_digit(before) & (_is_digit(after) | _is_e(after) | _is_gap(after))
            | (_is_gap(before) | _is_sign(before)) & _is_digit(after)
        )
        | e & (_is_digit(before) | (before == 46))
        & (_is_digit(after) | _is_sign(after))
    )
    if not fits.all():
        return False
    token, mark = token[dot | e], mark[dot | e]
    shared = token[1:] == token[:-1]
    return bool(((mark[:-1][shared] == 46) & _is_e(mark[1:][shared])).all())


def _walk(at: np.ndarray, byte: np.ndarray, need: int) -> int:
    """The number of tokens in the lines whose skeleton is the positions
    *at* and bytes *byte* of every non-digit byte, from an opening newline
    to a closing one, or -1 if a line breaks the coordinate grammar: every
    non-blank line holds *need* tokens between ``[ \\t]`` padding, two
    ``[0-9]+`` indices then (for ``need == 3``) a float (:func:`_in_order`).

    Digits are legal inside every token, so the skeleton is all there is
    to read.  A token opens after a gap that digits or a mark (a non-gap
    byte) follow; a mark's column is the number of tokens opened before
    it, and two marks share a token when none opens between them.
    """
    newline = byte == 10
    if ((byte < 32) & ~newline & (byte != 9)).any():  # a control byte
        return -1
    gap = _is_gap(byte)
    spaced = at[1:] - at[:-1] > 1  # digits between skeleton bytes k and k + 1
    # tokens opened before skeleton byte k (int32: half the memory, faster)
    opened = np.zeros(at.size, np.int32)
    np.cumsum(gap[:-1] & (spaced | ~gap[1:]), dtype=np.int32, out=opened[1:])
    # between two newlines no token or *need*
    steps = np.diff(opened[np.flatnonzero(newline)])
    if not ((steps == 0) | (steps == need)).all():
        return -1
    marks = np.flatnonzero(~gap)
    if marks.size:
        token = opened[marks] - 1
        if (token % need != 2).any():  # punctuation in an index column
            return -1
        if not _in_order(byte, spaced, marks, token):
            return -1
    return int(opened[-1])


#: skeleton bytes of the longest first line a slab is matched against
_SHAPE = 16


@functools.lru_cache(maxsize=256)
def _line_tokens(skeleton: bytes, spaced: bytes, need: int) -> int:
    """:func:`_walk` of one line given by its shape: the *skeleton* bytes
    from the opening newline to the closing one, and for each pair of
    neighbours whether digits lie between them (*spaced*)."""
    byte = np.frombuffer(skeleton, np.uint8)
    at = np.zeros(byte.size, np.int64)
    np.cumsum(np.frombuffer(spaced, np.bool_) + 1, out=at[1:])
    return _walk(at, byte, need)


def _slab_tokens(slab: np.ndarray, need: int) -> int:
    """The number of tokens in *slab*, ``uint8`` body bytes that open and
    close with a newline, or -1 if a line breaks the grammar of
    :func:`_walk`.

    One pass over the slab finds its skeleton, the position and byte of
    every non-digit.  A written file repeats one line shape: the same
    skeleton bytes with digits between the same pairs of them (``1 2
    0.5`` and ``30 4 0.25`` both read ``' ' ' ' '.' '\\n'``, digits
    before each).  Whether a line is in the grammar, and how many tokens
    it holds, depends on nothing else, so when every line has the first
    line's shape the walk reads the first line alone and its verdict
    holds for each.  Any other slab is walked whole.
    """
    # the skeleton from one slab-sized temporary, compared in place
    # (~_is_digit(slab) makes three: ~0.7 ms more a slab)
    flags = slab - np.uint8(48)  # uint8 wraps below '0'
    at = np.flatnonzero(np.greater(flags, 9, out=flags.view(np.bool_)))
    byte = slab[at]
    ends = (byte[1:_SHAPE + 1] == 10).nonzero()[0]
    if ends.size:
        width = int(ends[0]) + 1  # the first line's skeleton bytes
        lines, rest = divmod(at.size - 1, width)
        # each line's skeleton bytes, then digits, as those of the line before
        if lines > 1 and not rest and (byte[width + 1:] == byte[1:-width]).all():
            spaced = at[1:] - at[:-1] > 1
            if (spaced[width:] == spaced[:-width]).all():
                first = _line_tokens(byte[:width + 1].tobytes(),
                                     spaced[:width].tobytes(), need)
                return -1 if first < 0 else first * lines
    return _walk(at, byte, need)


def _body_tokens(data: bytes, start: int, need: int) -> int:
    """The number of tokens in the coordinate body ``data[start:]``, or -1
    if the body is not ``\\n``-terminated lines of the grammar of
    :func:`_walk` (a ``%`` line, a CR or a line past the slab size
    included).  Numbers are never converted: the bytes are compared."""
    end = len(data)
    if start == end:
        return 0
    if data[end - 1] != 10:
        return -1
    view = np.frombuffer(data, np.uint8)
    tokens, at = 0, start - 1  # the size line's newline opens the first slab
    while at < end - 1:
        cut = data.rfind(b"\n", at + 1, min(at + 1 + _SLAB, end))
        if cut < 0:
            return -1
        count = _slab_tokens(view[at:cut + 1], need)
        if count < 0:
            return -1
        tokens += count
        at = cut
    return tokens


def _checked_entries(
    path: str, skiprows: int, need: int, shape: Tuple[int, int], nnz: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The coordinate body parsed by scipy's C++ reader
    (:func:`_scipy_coordinates`) if its bytes pass :func:`_body_tokens`
    with *need* tokens for each of the *nnz* entries, else ``None``.

    scipy's parser truncates where it should refuse (``1.5.3`` reads 1.5,
    ``12x`` reads 12, ``1 1.5 2`` reads entry (0, 0, 0.5)) and crashes
    the process on a body with CR line ends, so it only sees bodies whose
    every byte the grammar admits, and it sees them behind a canonical
    header: ``real`` (or ``pattern``) ``general`` and the size line as
    :func:`read_mtx` read it, so that it neither types values as integers
    nor expands symmetry (:func:`read_mtx` does).  What it still refuses
    (an index of 0 or past the size line, a sign on a value) is left to
    the general reader too.  The bytes are read once; the copy scipy
    parses replaces them before the parse.  Where scipy's reader cannot
    be called as it was (:func:`_scipy_reader_missing`), every body goes
    to the general reader.
    """
    if _scipy_reader_missing() is not None:
        return None
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as handle:
        data = handle.read()
    start = 0
    for _ in range(skiprows):
        start = data.find(b"\n", start) + 1
        if not start:
            return None
    # a CR in the header splits its lines where the text handle did not
    if data.find(b"\r", 0, start) >= 0 or _body_tokens(data, start, need) != need * nnz:
        return None
    banner = (f"%%MatrixMarket matrix coordinate {'pattern' if need == 2 else 'real'} "
              f"general\n{shape[0]} {shape[1]} {nnz}\n").encode()
    text = banner + memoryview(data)[start:]
    del data  # not both copies while scipy parses
    try:
        row, col, values = _scipy_coordinates(text)
    except (ValueError, OverflowError):
        return None
    coords = np.empty((nnz, 2), dtype=np.int64)
    coords[:, 0], coords[:, 1] = row, col
    if need == 2:
        values = np.ones(nnz)
    return coords, values


@functools.lru_cache(maxsize=None)
def _scipy_reader_missing() -> Optional[str]:
    """Why scipy's reader cannot be called as :func:`_scipy_coordinates`
    calls it, or None when it can.

    The reader is scipy's private ``scipy.io._fast_matrix_market`` API
    and scipy is not pinned, so the two functions it calls are looked up
    and their signatures bound once per process.  Where either fails,
    a ``RuntimeWarning`` names what failed and :func:`read_mtx` reads
    every body with the general reader: the same result, slower.
    """
    import inspect

    try:
        from scipy.io import _fast_matrix_market as fmm

        inspect.signature(fmm._get_read_cursor).bind(None, parallelism=None)
        inspect.signature(fmm._read_body_coo).bind(None, generalize_symmetry=False)
    except (ImportError, AttributeError, TypeError, ValueError) as err:
        reason = (f"scipy's Matrix Market reader cannot be called as expected "
                  f"({type(err).__name__}: {err})")
        warnings.warn(f"{reason}; .mtx bodies are read by the general reader",
                      RuntimeWarning, stacklevel=2)
        return reason
    return None


def _scipy_coordinates(text: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-indexed rows, columns and values of the Matrix Market
    coordinate *text*, parsed by scipy's C++ reader on one thread.

    ``scipy.io.mmread`` runs the same reader on a thread per core and
    wraps its arrays in a ``coo_array``.  The threads buy no wall time
    on one file and cost CPU time that a sweep's worker processes
    already share out; the array would be taken apart again at once.
    Symmetry is never expanded here (:func:`read_mtx` does that).  The
    reader raises what ``mmread`` raises: ``ValueError`` for an index
    out of bounds or a value it cannot parse, ``OverflowError`` for an
    index past its integer type.
    """
    from scipy.io import _fast_matrix_market as fmm

    cursor, _ = fmm._get_read_cursor(io.BytesIO(text), parallelism=1)
    (values, (row, col)), _ = fmm._read_body_coo(cursor, generalize_symmetry=False)
    return row, col, values


def _coordinate_entries(
    path: str, skiprows: int, field: str, shape: Tuple[int, int], nnz: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-indexed ``(nnz, 2)`` coordinates and values of a coordinate body.

    Two parses, chosen by what the bytes are and by no option.  Nearly
    every file spells an entry ``int int [float]`` and nothing else; its
    bytes are checked against that grammar and parsed by scipy's C++
    reader (:func:`_checked_entries`).  Whatever the check or scipy
    refuses -- an index written ``3.0`` or ``1e3``, a sign on an index,
    values in a ``pattern`` file, a fourth column, a ``%`` line, a CR, a
    short or ragged row, ``1d3`` -- is read by the general float reader,
    which accepts it or names the error.  Where the grammar holds the two
    agree bit for bit: both round each value correctly, and both read an
    index spelled as an integer exactly (:func:`_exact_indices`).
    """
    need = 2 if field == "pattern" else 3
    entries = _checked_entries(path, skiprows, need, shape, nnz)
    if entries is not None:
        return entries
    body = _load_floats(path, "%", skiprows)
    if body.shape[0] != nnz:
        raise ValueError(
            f"{path}: header promises {nnz} entries, found {body.shape[0]}"
        )
    if not nnz:
        body = body.reshape(0, need)  # numpy reads no rows as (0, 1)
    if body.shape[1] < need:
        raise ValueError(
            f"{path}: {field} entries need {need} columns "
            f"(row, column{', value' if need == 3 else ''}), "
            f"found {body.shape[1]}"
        )
    coords = _zero_indexed(path, _exact_indices(path, body[:, :2], "%", skiprows))
    values = body[:, 2].copy() if need == 3 else np.ones(nnz)
    return coords, values


def read_mtx(path: str) -> CooTensor:
    """Read a Matrix Market file into zero-indexed COO form."""
    with _open_text(path) as handle:
        header = handle.readline().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket":
            raise ValueError(f"{path}: missing %%MatrixMarket header")
        obj, fmt, field, symmetry = (token.lower() for token in header[1:5])
        if obj != "matrix":
            raise ValueError(f"{path}: unsupported object {obj!r}")
        if field in ("complex", "hermitian") or symmetry == "hermitian":
            raise ValueError(f"{path}: complex matrices are not supported")
        consumed = 2  # the banner and the size line
        line = handle.readline()
        while line and (line.lstrip().startswith("%") or not line.strip()):
            consumed += 1
            line = handle.readline()
    count = 3 if fmt == "coordinate" else 2
    sizes = _sizes(path, "size line", line, line.split()[:count], at_least=count)

    if fmt == "coordinate":
        rows, cols, nnz = sizes
        coords, values = _coordinate_entries(
            path, consumed, field, (rows, cols), nnz
        )
    elif fmt == "array":
        rows, cols = sizes
        body = _load_floats(path, "%", consumed).reshape(-1)
        if symmetry in ("symmetric", "skew-symmetric"):
            # Array symmetric files store the lower triangle by column
            # (strictly lower for skew-symmetric: the diagonal is zero
            # by definition and not stored).
            dense = np.zeros((rows, cols))
            first = 1 if symmetry == "skew-symmetric" else 0
            # Column-major (strictly-)lower-triangle indices, vectorized.
            col_idx = np.arange(cols, dtype=np.int64)
            counts = np.maximum(rows - (col_idx + first), 0)
            c_rep = np.repeat(col_idx, counts)
            r_idx = c_rep + first + segment_offsets(counts)
            if body.size != r_idx.size:
                raise ValueError(f"{path}: triangular array size mismatch")
            dense[r_idx, c_rep] = body
        else:
            if body.size != rows * cols:
                raise ValueError(
                    f"{path}: array body has {body.size} values, "
                    f"expected {rows * cols}"
                )
            # Array files list values column-major.
            dense = body.reshape((cols, rows)).T
        coords, values = dense_nonzeros(dense)
    else:
        raise ValueError(f"{path}: unsupported format {fmt!r}")

    if symmetry in ("symmetric", "skew-symmetric"):
        off_diag = coords[:, 0] != coords[:, 1]
        if symmetry == "skew-symmetric" and np.any(
            (~off_diag) & (values != 0)
        ):
            raise ValueError(f"{path}: skew-symmetric matrix with nonzero diagonal")
        mirror = coords[off_diag][:, ::-1]
        mirror_vals = values[off_diag]
        if symmetry == "skew-symmetric":
            mirror_vals = -mirror_vals
        coords = np.concatenate([coords, mirror])
        values = np.concatenate([values, mirror_vals])
    elif symmetry != "general":
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

    _validate_coords(path, coords, (rows, cols))
    return CooTensor((rows, cols), coords, values, field=field)


def read_tns(path: str, shape: Optional[Sequence[int]] = None) -> CooTensor:
    """Read a FROSTT ``.tns`` file (1-indexed ``i j k ... value`` lines).

    An optional ``# shape: I J K`` comment (as written by
    :func:`write_tns`) pins the shape; otherwise it is inferred from the
    per-mode coordinate maxima unless *shape* is given explicitly.
    """
    header_shape = None
    with _open_text(path) as handle:
        # Every leading comment line may carry the shape annotation; the
        # body parse skips them again as comments.
        for line in handle:
            if not line.lstrip().startswith("#"):
                break
            if header_shape is None and "shape:" in line:
                header_shape = tuple(_sizes(
                    path, "shape comment", line,
                    line.split("shape:", 1)[1].split(),
                ))
    data = _load_floats(path, "#")
    if shape is None:
        shape = header_shape
    if data.size == 0:
        if shape is None:
            raise ValueError(f"{path}: empty .tns file needs an explicit shape=")
        order = len(shape)
        coords = np.empty((0, order), dtype=np.int64)
        values = np.empty(0)
    else:
        if data.shape[1] < 2:
            raise ValueError(f"{path}: .tns lines need coordinates and a value")
        coords = _zero_indexed(path, _exact_indices(path, data[:, :-1], "#"))
        values = data[:, -1].astype(np.float64)
    if shape is None:
        shape = tuple(int(m) + 1 for m in coords.max(axis=0))
    else:
        shape = tuple(int(s) for s in shape)
        if coords.shape[1] != len(shape):
            raise ValueError(
                f"{path}: data has order {coords.shape[1]}, shape= has {len(shape)}"
            )
    _validate_coords(path, coords, shape)
    return CooTensor(shape, coords, values)


def _validate_coords(path, coords: np.ndarray, shape: Sequence[int]) -> None:
    if coords.size and (
        np.minimum.reduce(coords.reshape(-1)) < 0
        or any(np.maximum.reduce(coords[:, d]) >= size for d, size in enumerate(shape))
    ):
        raise ValueError(f"{path}: coordinates outside shape {tuple(shape)}")


@contextmanager
def _open_write(path: str):
    """An ASCII text handle on a new file beside *path* (``.gz``
    compressed by extension), moved onto *path* when the block completes.
    A write that fails leaves whatever was at *path* as it was, and no
    temporary file."""
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    raw = open(temp, "xb")  # a new file's permissions, unlike mkstemp's 0600
    try:
        with raw:
            stream = raw
            if str(path).endswith(".gz"):
                stream = gzip.GzipFile(path, "wb", fileobj=raw)
            with io.TextIOWrapper(stream, encoding="ascii") as handle:
                yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


#: Matrix Market value fields the writer (and reader) support
MTX_FIELDS = ("real", "integer", "pattern")
MTX_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


#: rows formatted per ``%`` operation; all rows at once would hold every
#: entry as a Python object at the same time (+14 % peak RSS on 2e5 nnz)
_WRITE_ROWS = 8192


def _write_rows(handle, fmt: str, columns: Sequence[np.ndarray]) -> None:
    """Write one *fmt* line per row of the equal-length 1-D *columns* --
    the bytes a per-row ``fmt % tuple(row)`` loop writes, a chunk of rows
    per ``%`` operation.  Each column keeps its own dtype: an int64 index
    is formatted from a Python int, never rounded through a float64
    (``2**53 + 1`` would print as ``2**53``)."""
    line = fmt + "\n"
    width = len(columns)
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        parts = [column[start:start + _WRITE_ROWS].tolist() for column in columns]
        flat = [None] * (len(parts[0]) * width)
        for at, part in enumerate(parts):
            flat[at::width] = part
        handle.write(line * len(parts[0]) % tuple(flat))


def _check_symmetry(coo: CooTensor, symmetry: str) -> np.ndarray:
    """Validate *coo* against *symmetry*; returns the stored-entry mask.

    Symmetric matrices store the lower triangle (``i >= j``),
    skew-symmetric ones the strictly lower triangle (their diagonal is
    zero by definition).  Entries must mirror exactly — value-for-value,
    sign-flipped for skew — or a ``ValueError`` explains the offender.
    """
    i, j = coo.coords[:, 0], coo.coords[:, 1]
    values = coo.values
    order = np.lexsort((j, i))
    mirror = np.lexsort((i, j))
    want = values[mirror] if symmetry == "symmetric" else -values[mirror]
    if (
        not np.array_equal(i[order], j[mirror])
        or not np.array_equal(j[order], i[mirror])
        or not np.array_equal(values[order], want)
    ):
        raise ValueError(
            f"matrix is not {symmetry}: entries do not mirror across the "
            f"diagonal (write with symmetry='general' to store it expanded)"
        )
    if symmetry == "skew-symmetric" and np.any((i == j) & (values != 0)):
        raise ValueError("skew-symmetric matrix with nonzero diagonal")
    if symmetry == "skew-symmetric":
        return i > j
    return i >= j


def write_mtx(
    path: str,
    data,
    comment: str = "",
    field: Optional[str] = None,
    symmetry: str = "general",
) -> str:
    """Write a matrix as coordinate Matrix Market (``.gz`` supported).

    *data* may be a :class:`CooTensor`, a scipy sparse matrix, or a dense
    numpy matrix.  ``field`` defaults to what the data carries: a
    :class:`CooTensor`'s :attr:`~CooTensor.field` (so a read→write round
    trip preserves ``integer``/``pattern``), or ``integer`` for
    integer-dtype numpy/scipy input.  ``symmetry="symmetric"`` /
    ``"skew-symmetric"`` verifies the mirror property and stores only the
    (strictly) lower triangle; the default ``"general"`` stores every
    entry expanded.  *comment* must be ASCII.  The file is written beside
    *path* and moved onto it whole: a write that raises leaves *path* as
    it was.  Returns *path* (handy for the dataset registry).
    """
    bad = next((char for char in comment if not char.isascii()), None)
    if bad is not None:
        raise ValueError(
            f"comment holds the non-ASCII character {bad!r}: Matrix Market "
            f"files are ASCII"
        )
    coo = _as_coo(data)
    if coo.order != 2:
        raise ValueError(f"write_mtx needs a matrix, got order {coo.order}")
    if field is None:
        field = coo.field
    if field not in MTX_FIELDS:
        raise ValueError(f"unsupported field {field!r} (choose from {MTX_FIELDS})")
    if symmetry not in MTX_SYMMETRIES:
        raise ValueError(
            f"unsupported symmetry {symmetry!r} (choose from {MTX_SYMMETRIES})"
        )
    coords, values = coo.coords, coo.values
    if field == "integer" and np.any(values != np.trunc(values)):
        raise ValueError(
            "field='integer' but the matrix holds non-integral values"
        )
    if field == "integer" and np.any((values >= 2.0**63) | (values < -2.0**63)):
        # astype(int64) would write each of them as -9223372036854775808
        raise ValueError(
            "field='integer' but the matrix holds values outside int64 "
            "(write with field='real' to keep them)"
        )
    if field == "pattern" and np.any(values != 1.0):
        # A pattern file stores structure only; writing one from data
        # with real values would silently lose them on the round trip.
        raise ValueError(
            "field='pattern' but the matrix holds values other than 1 "
            "(pattern files store structure only — write with "
            "field='real' to keep the values)"
        )
    if symmetry != "general":
        keep = _check_symmetry(coo, symmetry)
        coords, values = coords[keep], values[keep]
    with _open_write(path) as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n")
        for line in comment.splitlines():
            handle.write(f"% {line}\n")
        handle.write(f"{coo.shape[0]} {coo.shape[1]} {len(values)}\n")
        rows, cols = (coords + 1).T
        if field == "pattern":
            _write_rows(handle, "%d %d", (rows, cols))
        elif field == "integer":
            _write_rows(handle, "%d %d %d", (rows, cols, values.astype(np.int64)))
        else:
            _write_rows(handle, "%d %d %.17g", (rows, cols, values))
    return path


def write_tns(path: str, data) -> str:
    """Write a :class:`CooTensor` (any order) as FROSTT ``.tns`` (``.gz`` ok),
    whole or not at all, as :func:`write_mtx` does."""
    coo = _as_coo(data)
    with _open_write(path) as handle:
        handle.write(f"# shape: {' '.join(str(s) for s in coo.shape)}\n")
        fmt = " ".join(["%d"] * coo.order + ["%.17g"])
        _write_rows(handle, fmt, (*(coo.coords + 1).T, coo.values))
    return path


def _as_coo(data) -> CooTensor:
    if isinstance(data, CooTensor):
        return data
    if hasattr(data, "tocoo"):  # scipy sparse
        coo = data.tocoo()
        return CooTensor(
            tuple(int(s) for s in coo.shape),
            np.column_stack([coo.row, coo.col]).astype(np.int64),
            np.asarray(coo.data, dtype=np.float64),
            field="integer" if np.asarray(coo.data).dtype.kind in "iu" else "real",
        )
    dense = np.asarray(data)
    field = "integer" if dense.dtype.kind in "iu" else "real"
    dense = dense.astype(float)
    coords, values = dense_nonzeros(dense)
    return CooTensor(dense.shape, coords, values, field=field)


def load_tensor(path: str, formats=None, mode_order=None, name: Optional[str] = None,
                shape: Optional[Sequence[int]] = None):
    """Read ``.mtx``/``.tns`` (optionally ``.gz``) into a FiberTensor."""
    stem = str(path)
    if stem.endswith(".gz"):
        stem = stem[:-3]
    if stem.endswith(".mtx"):
        coo = read_mtx(path)
    elif stem.endswith(".tns"):
        coo = read_tns(path, shape=shape)
    else:
        raise ValueError(f"unrecognised tensor file extension: {path}")
    if name is None:
        name = os.path.basename(stem).rsplit(".", 1)[0]
    return coo.to_fibertensor(formats=formats, mode_order=mode_order, name=name)
