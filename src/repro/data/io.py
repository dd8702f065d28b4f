"""Real-tensor ingestion: Matrix Market (.mtx) and FROSTT (.tns) readers.

Both formats are line-oriented text; parsing goes through numpy
(``np.loadtxt`` over the data body) so million-nnz operands load in
seconds and feed straight into the vectorized
:meth:`~repro.formats.tensor.FiberTensor.from_coords` pipeline without a
per-entry Python loop.  ``.gz``-compressed files are handled
transparently.

Matrix Market support covers the coordinate and array formats, the
``real``/``integer``/``pattern`` fields, and the ``general``/
``symmetric``/``skew-symmetric`` symmetries (complex/hermitian matrices
are rejected — the simulator's value arrays are float64).  FROSTT ``.tns``
files are whitespace-separated ``i j k ... value`` lines, 1-indexed, with
``#`` comments; the shape is inferred from the data unless given.
"""

from __future__ import annotations

import gzip
import io
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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


def _loadtxt(handle, comments: str) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*no data.*")
        return np.loadtxt(handle, ndmin=2, comments=comments)


def _load_body(handle, min_cols: int) -> np.ndarray:
    """Parse the remaining lines into a 2-D float array (possibly empty)."""
    data = _loadtxt(handle, comments="%")
    if data.size == 0:
        return np.empty((0, min_cols))
    return data


def _zero_indexed(path: str, raw: np.ndarray) -> np.ndarray:
    """1-indexed coordinate columns (parsed as floats) as int64 - 1; a
    fractional index is an error, never a silent truncation."""
    coords = raw.astype(np.int64)
    if (coords != raw).any():
        bad = int(np.flatnonzero((coords != raw).any(axis=1))[0])
        raise ValueError(
            f"{path}: non-integer coordinate in entry {bad + 1}: "
            f"{raw[bad].tolist()}"
        )
    return coords - 1


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
        line = handle.readline()
        while line and (line.lstrip().startswith("%") or not line.strip()):
            line = handle.readline()
        sizes = line.split()
        if len(sizes) < (3 if fmt == "coordinate" else 2):
            raise ValueError(f"{path}: malformed size line {line!r}")

        if fmt == "coordinate":
            rows, cols, nnz = (int(s) for s in sizes[:3])
            need = 2 if field == "pattern" else 3
            body = _load_body(handle, need)
            if body.shape[0] != nnz:
                raise ValueError(
                    f"{path}: header promises {nnz} entries, found {body.shape[0]}"
                )
            if body.shape[1] < need:
                raise ValueError(
                    f"{path}: {field} entries need {need} columns "
                    f"(row, column{', value' if need == 3 else ''}), "
                    f"found {body.shape[1]}"
                )
            coords = _zero_indexed(path, body[:, :2])
            if field == "pattern":
                values = np.ones(body.shape[0], dtype=np.float64)
            else:
                values = body[:, 2].astype(np.float64)
        elif fmt == "array":
            rows, cols = (int(s) for s in sizes[:2])
            body = _load_body(handle, 1).reshape(-1)
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
    with _open_text(path) as handle:
        header_shape = None
        # Scan every leading comment line for a shape annotation, then
        # rewind to the first data line.
        position = handle.tell()
        line = handle.readline()
        while line and line.lstrip().startswith("#"):
            if header_shape is None and "shape:" in line:
                header_shape = tuple(
                    int(s) for s in line.split("shape:", 1)[1].split()
                )
            position = handle.tell()
            line = handle.readline()
        handle.seek(position)
        data = _loadtxt(handle, comments="#")
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
        coords = _zero_indexed(path, data[:, :-1])
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
        (coords < 0).any() or (coords >= np.asarray(shape, dtype=np.int64)).any()
    ):
        raise ValueError(f"{path}: coordinates outside shape {tuple(shape)}")


def _open_write(path: str):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "wb"), encoding="ascii")
    return open(path, "w", encoding="ascii")


#: Matrix Market value fields the writer (and reader) support
MTX_FIELDS = ("real", "integer", "pattern")
MTX_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


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
    entry expanded.  Returns *path* (handy for the dataset registry).
    """
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
        if field == "pattern":
            np.savetxt(handle, coords + 1, fmt="%d %d")
        elif field == "integer":
            body = np.column_stack([coords + 1, values.astype(np.int64)])
            np.savetxt(handle, body, fmt="%d %d %d")
        else:
            body = np.column_stack([coords + 1, values.reshape(-1, 1)])
            np.savetxt(handle, body, fmt="%d %d %.17g")
    return path


def write_tns(path: str, data) -> str:
    """Write a :class:`CooTensor` (any order) as FROSTT ``.tns`` (``.gz`` ok)."""
    coo = _as_coo(data)
    with _open_write(path) as handle:
        handle.write(f"# shape: {' '.join(str(s) for s in coo.shape)}\n")
        fmt = " ".join(["%d"] * coo.order + ["%.17g"])
        body = np.column_stack([coo.coords + 1, coo.values.reshape(-1, 1)])
        np.savetxt(handle, body, fmt=fmt)
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
