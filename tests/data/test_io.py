"""Tensor ingestion (.mtx/.tns), the dataset registry, and degenerate
tensors driven through all three simulation backends."""

import gzip
import io
import os
import random
import re
import subprocess
import sys
from typing import NamedTuple, Union
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy_counters import array_calls, numpy_calls
from scipy import sparse

from repro.data import (
    DatasetRegistry,
    MatrixSpec,
    TABLE3,
    generate,
    load_tensor,
    read_mtx,
    read_tns,
    write_mtx,
    write_tns,
)
from repro.data import io as io_module
from repro.data.io import _WRITE_ROWS, MTX_FIELDS, MTX_SYMMETRIES, CooTensor
from repro.formats import FiberTensor
from repro.lang import compile_expression

from blockkit import ENGINES

MTX_GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment line
4 4 5
1 2 1.0
2 1 2.0
2 3 3.0
4 2 4.0
4 4 5.0
"""

DENSE_GENERAL = np.array(
    [
        [0, 1, 0, 0],
        [2, 0, 3, 0],
        [0, 0, 0, 0],
        [0, 4, 0, 5],
    ],
    dtype=float,
)


class TestMtxReader:
    def test_coordinate_general(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(MTX_GENERAL)
        coo = read_mtx(str(path))
        assert coo.shape == (4, 4)
        assert coo.nnz == 5
        dense = coo.to_scipy().toarray()
        assert np.array_equal(dense, DENSE_GENERAL)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "a.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(MTX_GENERAL)
        assert np.array_equal(
            read_mtx(str(path)).to_scipy().toarray(), DENSE_GENERAL
        )

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 2\n1 1\n2 3\n"
        )
        coo = read_mtx(str(path))
        assert coo.values.tolist() == [1.0, 1.0]
        assert coo.coords.tolist() == [[0, 0], [1, 2]]

    def test_symmetric_expands_off_diagonal(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n1 1 1.0\n2 1 2.0\n3 2 3.0\n"
        )
        dense = read_mtx(str(path)).to_scipy().toarray()
        expected = np.array([[1, 2, 0], [2, 0, 3], [0, 3, 0]], dtype=float)
        assert np.array_equal(dense, expected)

    def test_skew_symmetric_negates_mirror(self, tmp_path):
        path = tmp_path / "k.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 5.0\n"
        )
        dense = read_mtx(str(path)).to_scipy().toarray()
        assert np.array_equal(dense, np.array([[0, -5], [5, 0]], dtype=float))

    def test_array_skew_symmetric_strict_lower_triangle(self, tmp_path):
        # MM array skew-symmetric files store only the strictly-lower
        # triangle (the diagonal is implicitly zero): 3 values for 3x3.
        path = tmp_path / "ks.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real skew-symmetric\n"
            "3 3\n1.0\n2.0\n3.0\n"
        )
        dense = read_mtx(str(path)).to_scipy().toarray()
        expected = np.array(
            [[0, -1, -2], [1, 0, -3], [2, 3, 0]], dtype=float
        )
        assert np.array_equal(dense, expected)

    def test_array_format_column_major(self, tmp_path):
        path = tmp_path / "d.mtx"
        body = "\n".join(
            str(v) for v in DENSE_GENERAL.T.reshape(-1)
        )
        path.write_text(
            f"%%MatrixMarket matrix array real general\n4 4\n{body}\n"
        )
        coo = read_mtx(str(path))
        assert np.array_equal(coo.to_scipy().toarray(), DENSE_GENERAL)

    def test_blank_line_before_size_line_tolerated(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "\n"
            "2 2 1\n1 2 3.5\n"
        )
        assert read_mtx(str(path)).values.tolist() == [3.5]

    def test_malformed_size_line_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2\n"
        )
        with pytest.raises(ValueError, match="size line"):
            read_mtx(str(path))

    def test_non_ascii_comment_tolerated(self, tmp_path):
        # Real SuiteSparse headers carry author names etc.; a non-ASCII
        # comment byte must not abort the load.
        path = tmp_path / "u.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real general\n"
            b"% author: Universit\xc3\xa9 catholique\n"
            b"2 2 1\n1 2 3.5\n"
        )
        coo = read_mtx(str(path))
        assert coo.values.tolist() == [3.5]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("3 3 1\n1 1 1.0\n")
        with pytest.raises(ValueError, match="MatrixMarket header"):
            read_mtx(str(path))

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 1\n1 1 1.0 0.0\n"
        )
        with pytest.raises(ValueError, match="complex"):
            read_mtx(str(path))

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n"
        )
        with pytest.raises(ValueError, match="promises 2"):
            read_mtx(str(path))

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(ValueError, match="outside shape"):
            read_mtx(str(path))

    @pytest.mark.parametrize("field", ["real", "integer"])
    def test_missing_value_column_rejected(self, field, tmp_path):
        path = tmp_path / "novalue.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate {field} general\n3 3 1\n1 1\n"
        )
        with pytest.raises(ValueError, match=r"novalue\.mtx.*need 3 columns"):
            read_mtx(str(path))

    def test_pattern_missing_column_rejected(self, tmp_path):
        path = tmp_path / "onecol.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1\n"
        )
        with pytest.raises(ValueError, match=r"onecol\.mtx.*need 2 columns"):
            read_mtx(str(path))

    def test_fractional_coordinate_rejected(self, tmp_path):
        # 1.5 used to truncate into row 0 through astype(int64).
        path = tmp_path / "frac.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n1 1 2.0\n1.5 1 1.0\n"
        )
        with pytest.raises(ValueError, match=r"frac\.mtx.*entry 2.*1\.5"):
            read_mtx(str(path))

    def test_write_read_round_trip_scipy(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = sparse.random(17, 23, density=0.2, random_state=3,
                               format="csr")
        path = write_mtx(str(tmp_path / "rt.mtx"), matrix, comment="round trip")
        back = read_mtx(path).to_scipy()
        assert (matrix != back).nnz == 0


class TestMtxWriterRoundTrip:
    """write_mtx preserves field and symmetry through read→write→read."""

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    def test_pattern_field_round_trip(self, suffix, tmp_path):
        first = tmp_path / f"p1.{suffix}"
        first_text = (
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n3 2\n"
        )
        if suffix.endswith(".gz"):
            with gzip.open(first, "wt") as handle:
                handle.write(first_text)
        else:
            first.write_text(first_text)
        coo = read_mtx(str(first))
        assert coo.field == "pattern"
        second = write_mtx(str(tmp_path / f"p2.{suffix}"), coo)
        raw = (gzip.open(second, "rt") if suffix.endswith(".gz") else open(second)).readline()
        assert raw.split()[3] == "pattern"
        back = read_mtx(second)
        assert back.field == "pattern"
        assert np.array_equal(back.coords, coo.coords)
        assert np.array_equal(back.values, coo.values)

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    def test_integer_field_round_trip(self, suffix, tmp_path):
        first = tmp_path / "i1.mtx"
        first.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 3 3\n1 1 4\n2 2 -7\n2 3 9\n"
        )
        coo = read_mtx(str(first))
        assert coo.field == "integer"
        second = write_mtx(str(tmp_path / f"i2.{suffix}"), coo)
        text = (gzip.open(second, "rt") if suffix.endswith(".gz") else open(second)).read()
        assert "integer" in text.splitlines()[0]
        assert "-7" in text and "." not in text.split("\n", 2)[2]
        back = read_mtx(second)
        assert back.field == "integer"
        assert np.array_equal(back.values, coo.values)

    def test_integer_field_rejects_fractions(self, tmp_path):
        coo = CooTensor((2, 2), np.array([[0, 1]]), np.array([0.5]))
        with pytest.raises(ValueError, match="integer"):
            write_mtx(str(tmp_path / "x.mtx"), coo, field="integer")

    @pytest.mark.parametrize("value", [2.0**63, 1e19, -1e19, np.inf, -np.inf])
    def test_integer_field_rejects_values_past_int64(self, value, tmp_path):
        # each used to be written as -9223372036854775808, with a warning
        coo = CooTensor((2, 2), np.array([[0, 1]]), np.array([value]))
        with pytest.raises(ValueError, match="outside int64"):
            write_mtx(str(tmp_path / "x.mtx"), coo, field="integer")

    def test_integer_field_keeps_the_int64_extremes(self, tmp_path):
        extremes = np.array([-2.0**63, 2.0**63 - 1024])  # the last float below 2**63
        coo = CooTensor((2, 2), np.array([[0, 1], [1, 0]]), extremes)
        path = write_mtx(str(tmp_path / "x.mtx"), coo, field="integer")
        assert read_mtx(path).values.tolist() == extremes.tolist()

    def test_pattern_field_rejects_real_values(self, tmp_path):
        # Pattern files store structure only: writing one from data with
        # non-unit values would silently lose them on the round trip.
        coo = CooTensor((2, 2), np.array([[0, 1], [1, 0]]), np.array([2.5, 7.0]))
        with pytest.raises(ValueError, match="pattern"):
            write_mtx(str(tmp_path / "x.mtx"), coo, field="pattern")

    def test_integer_dtype_inferred_from_numpy(self, tmp_path):
        dense = np.array([[0, 2], [3, 0]], dtype=np.int32)
        path = write_mtx(str(tmp_path / "d.mtx"), dense)
        assert "integer" in open(path).readline()
        assert read_mtx(path).field == "integer"

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    def test_symmetric_round_trip(self, suffix, tmp_path):
        first = tmp_path / "s1.mtx"
        first.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n1 1 2.5\n3 1 -1.25\n3 2 4.0\n"
        )
        coo = read_mtx(str(first))  # reader expands to general form
        assert coo.nnz == 5
        second = write_mtx(
            str(tmp_path / f"s2.{suffix}"), coo, symmetry="symmetric"
        )
        text = (gzip.open(second, "rt") if suffix.endswith(".gz") else open(second)).read()
        assert "symmetric" in text.splitlines()[0]
        assert text.splitlines()[1].split()[2] == "3"  # lower triangle only
        back = read_mtx(second)
        a = sorted(map(tuple, np.column_stack([coo.coords, coo.values]).tolist()))
        b = sorted(map(tuple, np.column_stack([back.coords, back.values]).tolist()))
        assert a == b

    def test_skew_symmetric_round_trip(self, tmp_path):
        first = tmp_path / "k1.mtx"
        first.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "3 3 2\n2 1 1.5\n3 2 -2.0\n"
        )
        coo = read_mtx(str(first))
        second = write_mtx(str(tmp_path / "k2.mtx"), coo, symmetry="skew-symmetric")
        assert "skew-symmetric" in open(second).readline()
        back = read_mtx(second)
        a = sorted(map(tuple, np.column_stack([coo.coords, coo.values]).tolist()))
        b = sorted(map(tuple, np.column_stack([back.coords, back.values]).tolist()))
        assert a == b

    def test_asymmetric_matrix_rejected_for_symmetric_write(self, tmp_path):
        dense = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            write_mtx(str(tmp_path / "x.mtx"), dense, symmetry="symmetric")

    def test_unknown_field_and_symmetry_rejected(self, tmp_path):
        dense = np.eye(2)
        with pytest.raises(ValueError, match="field"):
            write_mtx(str(tmp_path / "x.mtx"), dense, field="complex")
        with pytest.raises(ValueError, match="symmetry"):
            write_mtx(str(tmp_path / "x.mtx"), dense, symmetry="hermitian")

    def test_gz_write_read_through_load_tensor(self, tmp_path):
        rng = np.random.default_rng(9)
        dense = (rng.random((6, 5)) < 0.4) * rng.random((6, 5))
        path = write_mtx(str(tmp_path / "z.mtx.gz"), dense)
        tensor = load_tensor(path)
        assert np.allclose(tensor.to_numpy(), dense)


class Coo(NamedTuple):
    """What ``read_mtx`` returns, values as ``repr`` (``nan``, ``-0.0``)."""

    shape: tuple
    coords: list
    values: list
    field: str = "real"


class Case(NamedTuple):
    name: str
    head: str                  # banner, comments, size line
    body: str
    expect: Union[Coo, str]    # or the exception text, ``{path}`` to fill in


def coordinate(name, body, expect, field="real", symmetry="general",
               size="3 3 {n}"):
    entries = sum(
        1 for line in re.split(r"\r\n|\r|\n", body) if line.split("%")[0].strip()
    )
    head = (f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
            + size.format(n=entries) + "\n")
    return Case(name, head, body, expect)


def array(name, body, expect, symmetry="general"):
    head = f"%%MatrixMarket matrix array real {symmetry}\n2 2\n"
    return Case(name, head, body, expect)


TWO = Coo((3, 3), [[0, 1], [1, 0]], ["1.5", "2.0"])

#: every kind of body the reader meets -> the CooTensor or the error.
#: Bodies the byte-grammar check admits are parsed by scipy; the rest
#: fall to the general float reader, and the table does not care which.
READER_TABLE = [
    coordinate("plain", "1 2 1.5\n2 1 -2\n3 3 1e-3\n",
               Coo((3, 3), [[0, 1], [1, 0], [2, 2]], ["1.5", "-2.0", "0.001"])),
    coordinate("short", "1 2 1.5\n", size="3 3 2",
               expect="{path}: header promises 2 entries, found 1"),
    coordinate("long", "1 2 1.5\n2 2 1\n", size="3 3 1",
               expect="{path}: header promises 1 entries, found 2"),
    coordinate("ragged", "1 2 1.5\n2 1\n3 3 1\n",
               "{path}: entry 2 has 2 columns, the entries before it have 3: "
               "'2 1'"),
    coordinate("out-of-range", "4 1 1.0\n",
               "{path}: coordinates outside shape (3, 3)"),
    coordinate("zero-index", "0 1 1.0\n",
               "{path}: coordinates outside shape (3, 3)"),
    coordinate("negative-index", "-1 1 1.0\n",
               "{path}: coordinates outside shape (3, 3)"),
    coordinate("fractional-index", "1 1 2.0\n1.5 1 1.0\n",
               "{path}: non-integer coordinate in entry 2: [1.5, 1.0]"),
    coordinate("float-spelled-index", "1.0 2 1.5\n2 1.0 2\n", TWO),
    coordinate("exponent-index", "1e0 2 1.5\n", Coo((3, 3), [[0, 1]], ["1.5"])),
    coordinate("float-index-on-last-row", "1 1 1\n2 2 2\n3.0 3 3\n",
               Coo((3, 3), [[0, 0], [1, 1], [2, 2]], ["1.0", "2.0", "3.0"])),
    coordinate("overflowing-index", "99999999999999999999 1 1\n",
               "{path}: non-integer coordinate in entry 1: [1e+20, 1.0]"),
    coordinate("missing-value-real", "1 1\n",
               "{path}: real entries need 3 columns (row, column, value), "
               "found 2"),
    coordinate("missing-value-integer", "1 1\n", field="integer",
               expect="{path}: integer entries need 3 columns (row, column, "
                      "value), found 2"),
    coordinate("pattern", "1 1\n2 3\n", field="pattern",
               expect=Coo((3, 3), [[0, 0], [1, 2]], ["1.0", "1.0"], "pattern")),
    coordinate("pattern-one-column", "1\n", field="pattern",
               expect="{path}: pattern entries need 2 columns (row, column), "
                      "found 1"),
    coordinate("pattern-with-values", "1 1 7.5\n2 3 2\n", field="pattern",
               expect=Coo((3, 3), [[0, 0], [1, 2]], ["1.0", "1.0"], "pattern")),
    coordinate("extra-column", "1 2 1.5 9\n2 1 2 9\n", TWO),
    coordinate("body-comment", "1 2 1.5\n% note\n2 1 2\n", TWO),
    coordinate("trailing-comment", "1 2 1.5 % note\n2 1 2\n", TWO),
    coordinate("blank-lines", "1 2 1.5\n\n\n2 1 2\n\n", TWO),
    coordinate("crlf", "1 2 1.5\r\n2 1 2\r\n", TWO),
    coordinate("cr-only", "1 2 1.5\r2 1 2\r", TWO),
    coordinate("tabs-and-padding", "1\t2\t1.5\n 2  1   2 \n", TWO),
    coordinate("no-final-newline", "1 2 1.5\n2 1 2", TWO),
    coordinate("plus-signs", "+1 +2 +1.5\n", Coo((3, 3), [[0, 1]], ["1.5"])),
    Case("crlf-throughout",
         "%%MatrixMarket matrix coordinate real general\r\n% c\r\n3 3 2\r\n",
         "1 2 1.5\r\n2 1 2\r\n", TWO),
    Case("comments-and-blank-before-size-line",
         "%%MatrixMarket matrix coordinate real general\n% a\n\n%b\n  \n"
         "3 3 2\n", "1 2 1.5\n2 1 2\n", TWO),
    Case("upper-case-banner",
         "%%MatrixMarket MATRIX COORDINATE REAL GENERAL\n3 3 1\n", "1 2 1.5\n",
         Coo((3, 3), [[0, 1]], ["1.5"])),
    coordinate("nan-inf-negative-zero",
               "1 1 nan\n1 2 inf\n2 1 -0.0\n2 2 1e400\n3 3 -inf\n",
               Coo((3, 3), [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]],
                   ["nan", "inf", "-0.0", "inf", "-inf"])),
    coordinate("integer-field", "1 1 4\n2 2 -7\n", field="integer",
               expect=Coo((3, 3), [[0, 0], [1, 1]], ["4.0", "-7.0"], "integer")),
    coordinate("integer-field-fraction", "1 1 7.5\n", field="integer",
               expect=Coo((3, 3), [[0, 0]], ["7.5"], "integer")),
    coordinate("integer-field-overflow", "1 1 99999999999999999999\n",
               field="integer",
               expect=Coo((3, 3), [[0, 0]], ["1e+20"], "integer")),
    coordinate("duplicates-kept", "1 1 1\n1 1 2\n",
               Coo((3, 3), [[0, 0], [0, 0]], ["1.0", "2.0"])),
    coordinate("file-order-kept", "3 3 1\n1 1 2\n2 1 4\n",
               Coo((3, 3), [[2, 2], [0, 0], [1, 0]], ["1.0", "2.0", "4.0"])),
    coordinate("symmetric", "1 1 1.0\n2 1 2.0\n3 2 3.0\n", symmetry="symmetric",
               expect=Coo((3, 3), [[0, 0], [1, 0], [2, 1], [0, 1], [1, 2]],
                          ["1.0", "2.0", "3.0", "2.0", "3.0"])),
    coordinate("skew-symmetric", "2 1 5.0\n", symmetry="skew-symmetric",
               expect=Coo((3, 3), [[1, 0], [0, 1]], ["5.0", "-5.0"])),
    coordinate("skew-with-diagonal", "1 1 5.0\n", symmetry="skew-symmetric",
               expect="{path}: skew-symmetric matrix with nonzero diagonal"),
    coordinate("empty", "", size="3 4 0", expect=Coo((3, 4), [], [])),
    coordinate("fortran-exponent", "1 2 1.5\n2 1 1d3\n",
               "{path}: entry 2: '1d3' is not a number: '2 1 1d3'"),
    coordinate("digit-underscore", "1 2 1_0\n",
               "{path}: entry 1: '1_0' is not a number: '1 2 1_0'"),
    coordinate("hex-value", "1 2 0x10\n",
               "{path}: entry 1: '0x10' is not a number: '1 2 0x10'"),
    coordinate("decimal-comma", "% note\n1 2 3,5\n",
               "{path}: entry 1: '3,5' is not a number: '1 2 3,5'"),
    coordinate("size-line-not-a-number", "1 1 1\n", size="3 x 1",
               expect="{path}: malformed size line '3 x 1\\n'"),
    coordinate("size-line-negative", "1 1 1\n", size="-3 3 1",
               expect="{path}: malformed size line '-3 3 1\\n'"),
    coordinate("size-line-short", "", size="3 3",
               expect="{path}: malformed size line '3 3\\n'"),
    Case("no-banner", "3 3 1\n", "1 1 1.0\n",
         "{path}: missing %%MatrixMarket header"),
    Case("complex", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
         "1 1 1 0\n", "{path}: complex matrices are not supported"),
    coordinate("fractional-column-index", "1 1.5 2\n",
               "{path}: non-integer coordinate in entry 1: [1.0, 1.5]"),
    coordinate("integer-field-beyond-float", "1 1 9007199254740993\n",
               field="integer",
               expect=Coo((3, 3), [[0, 0]], ["9007199254740992.0"], "integer")),
    coordinate("skew-zero-diagonal", "1 1 0\n2 1 5.0\n", symmetry="skew-symmetric",
               expect=Coo((3, 3), [[0, 0], [1, 0], [0, 1]], ["0.0", "5.0", "-5.0"])),
    *(coordinate(f"spelled-{token}", f"1 2 {token}\n", Coo((3, 3), [[0, 1]], [value]))
      for token, value in [("1.", "1.0"), (".5", "0.5"), ("-.5", "-0.5"),
                           ("+.5", "0.5"), ("-1E+10", "-10000000000.0"),
                           ("00012", "12.0"), ("1.e5", "100000.0")]),
    # scipy's parser reads each of these as a prefix (1.5.3 as 1.5, 12x as 12)
    *(coordinate(f"truncated-{token}", f"1 2 {token}\n",
                 f"{{path}}: entry 1: '{token}' is not a number: '1 2 {token}'")
      for token in ["1.5.3", "1e5e5", "1-2", "1.5e", "1e+", "1..2", "1e5.3",
                    ".e5", "1.5+", "5e-", "12x"]),
    array("array", "1\n0\n3\n4\n",
          Coo((2, 2), [[0, 0], [0, 1], [1, 1]], ["1.0", "3.0", "4.0"])),
    array("array-symmetric", "1\n2\n3\n", symmetry="symmetric",
          expect=Coo((2, 2), [[0, 0], [1, 0], [1, 1], [0, 1]],
                     ["1.0", "2.0", "3.0", "2.0"])),
    array("array-short", "1\n0\n3\n",
          "{path}: array body has 3 values, expected 4"),
    array("array-bad-token", "1\n0\nx\n4\n",
          "{path}: entry 3: 'x' is not a number: 'x'"),
    array("array-ragged", "1\n0 3\n4\n",
          "{path}: entry 2 has 2 columns, the entries before it have 1: '0 3'"),
]


def _opener(path):
    return gzip.open if path.endswith(".gz") else open


def _write_case(directory, case, body, suffix):
    path = str(directory / f"{case.name}.{suffix}")
    with _opener(path)(path, "wb") as handle:
        handle.write((case.head + body).encode("latin-1"))
    return path


def _as_coo(coo):
    return Coo(coo.shape, coo.coords.tolist(),
               [repr(v) for v in coo.values.tolist()], coo.field)


def _float_spelled(body):
    """Row indices rewritten ``3`` -> ``3.0``: only the float reader takes it."""
    return re.sub(r"(?m)^([ \t]*[+-]?\d+)(?=[ \t])", r"\1.0", body)


class TestReaderOutcomeTable:
    def test_table_is_as_wide_as_promised(self):
        assert len(READER_TABLE) >= 74
        assert len({case.name for case in READER_TABLE}) == len(READER_TABLE)

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    @pytest.mark.parametrize("case", READER_TABLE, ids=lambda case: case.name)
    def test_outcome(self, case, suffix, tmp_path):
        path = _write_case(tmp_path, case, case.body, suffix)
        if isinstance(case.expect, Coo):
            coo = read_mtx(path)
            assert _as_coo(coo) == case.expect
            assert coo.coords.dtype == np.int64 and coo.values.dtype == np.float64
            assert coo.coords.shape == (len(case.expect.values), 2)
        else:
            with pytest.raises(ValueError) as raised:
                read_mtx(path)
            assert str(raised.value) == case.expect.format(path=path)

    @pytest.mark.parametrize("case", [
        case for case in READER_TABLE
        if isinstance(case.expect, Coo) and _float_spelled(case.body) != case.body
    ], ids=lambda case: case.name)
    def test_float_spelled_indices_read_the_same(self, case, tmp_path):
        # The two parses agree with no switch to flip: the same entries
        # with their row indices spelled as floats must give the same data.
        path = _write_case(tmp_path, case, _float_spelled(case.body), "mtx")
        assert _as_coo(read_mtx(path)) == case.expect

    def test_index_beyond_float_precision_is_exact(self, tmp_path):
        # 2**53 + 1 has no float64; the integer parse does not round it.
        path = tmp_path / "big.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "9007199254740994 1 1\n9007199254740993 1 1\n"
        )
        assert read_mtx(str(path)).coords.tolist() == [[9007199254740992, 0]]

    def test_index_beyond_float_precision_is_exact_in_the_general_reader(
            self, tmp_path):
        # a % line sends the body to the float reader, which reads the
        # index columns again as int64 when one is past 2**53
        path = tmp_path / "big-general.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "9007199254740994 1 2\n9007199254740993 1 1\n% note\n1 1 2\n"
        )
        assert read_mtx(str(path)).coords.tolist() == [[9007199254740992, 0], [0, 0]]


#: lines a byte or two from ``1 2 0.5`` -> the tokens the check counts
#: in them, or -1
NEAR_MISSES = [("1 2 .", -1), ("1 2 5.", 3), ("1 2 .5", 3), ("01 002 0.5", 3),
               ("1  2 0.5", 3), ("1 2 0.5 ", 3), ("1 2 0.5e", -1), ("1 2 -.", -1),
               ("1 2 0.5 7", -1), ("1.0 2 0.5", -1), ("1 2 0.5\r", -1),
               ("1 2 0+5", -1)]

#: body -> the tokens the byte-grammar check counts, or -1 where it refuses
GRAMMAR_TABLE = [
    ("1 2 1.5\n2 1 -2\n", 3, 6),
    ("1 2\n3 3\n", 2, 4),
    (" 1\t2  -1.5E+3 \n\n \t\n3 3 .5\n", 3, 6),
    ("1 2 1.\n1 2 +.5\n1 2 1.e5\n1 2 00012\n", 3, 12),
    ("", 3, 0),
    ("1 2 1.5 2\n1 1\n", 3, -1),     # ragged lines whose tokens add up
    ("1 1 1.5 2 2 2.5\n", 3, -1),     # two entries on one line
    ("1 2 3\n", 2, -1),               # a value in a pattern body
    ("1 2 1.5", 3, -1),                # no final newline
    ("1 2 1.5\r\n", 3, -1),
    ("% note\n1 2 1.5\n", 3, -1),
    ("1 2 1.5 % note\n", 3, -1),
    ("+1 2 1.5\n", 3, -1),            # a sign on an index
    ("1 1e0 1.5\n", 3, -1),
    ("1 2 nan\n", 3, -1),
    ("1 2 1d3\n", 3, -1),
    ("1 2 1.5\x00\n", 3, -1),
    ("1 2\x0b3\n", 2, -1),           # a vertical tab between tokens
    ("1\xa02 3\n", 3, -1),           # a byte >= 0x80 joins two indices
    ("1 2 1\xe55\n", 3, -1),
    ("1 2 1.5\n\t\n1 2 -7e-1\n", 3, 6),
    *((f"1 2 {token}\n", 3, -1) for token in [
        "1.5.3", "1e5e5", "1-2", "1.5e", "1e+", "1..2", "1e5.3", ".e5", "1.5+",
        "5e-", "12x", ".", "+", "e5", "+-1", "1e+-5", "--1", "1e.5", "+.e1"]),
    # near misses of a written line: alone, after two written lines (whose
    # shape the check tries on the rest of the slab) and before them
    *((f"{line}\n", 3, tokens) for line, tokens in NEAR_MISSES),
    *((f"1 2 0.5\n3 4 0.25\n{line}\n", 3, tokens if tokens < 0 else tokens + 6)
      for line, tokens in NEAR_MISSES),
    *((f"{line}\n1 2 0.5\n3 4 0.25\n", 3, tokens if tokens < 0 else tokens + 6)
      for line, tokens in NEAR_MISSES),
    ("1 2 0.5\n" * 3 + "1 2 5e-07\n" + "1 2 0.5\n" * 2, 3, 18),  # one exponent
    ("1 2 0.5\n" * 3 + "1 2 5e-\n" + "1 2 0.5\n" * 2, 3, -1),
]


class TestBodyGrammar:
    """The byte-grammar check alone: what it counts and what it refuses."""

    @pytest.mark.parametrize("body, need, tokens", GRAMMAR_TABLE)
    def test_counts_or_refuses(self, body, need, tokens):
        data = ("3 3 1\n" + body).encode("latin-1")
        assert io_module._body_tokens(data, 6, need) == tokens

    @pytest.mark.parametrize("slab", [16, 25, 64])  # each above the longest line
    def test_slab_cuts_change_nothing(self, slab, monkeypatch):
        lines = [f"{i % 9 + 1} {i % 7 + 1} {i}.25e-{i % 30}\n" for i in range(40)]
        data = ("3 3 40\n" + "".join(lines)).encode()
        monkeypatch.setattr(io_module, "_SLAB", slab)
        assert io_module._body_tokens(data, 7, 3) == 120
        hostile = data[:-3] + b".3\n"  # the last value spelled 39.25e-9.3
        assert io_module._body_tokens(hostile, 7, 3) == -1
        assert io_module._body_tokens(data + b"1 2 " + b"1" * slab + b"\n", 7, 3) == -1

    def test_one_skeleton_pass_a_slab_and_no_search(self, monkeypatch):
        # Wall-clock free: the check reads each slab once (np.flatnonzero
        # of a slab-length mask, the skeleton) and searches nothing.
        rng = np.random.default_rng(3)
        rows = rng.integers(1, 20_000, (20_000, 2))
        body = "".join(f"{i} {j} {v!r}\n" for (i, j), v in
                       zip(rows.tolist(), rng.standard_normal(20_000).tolist()))
        data = ("20000 20000 20000\n" + body).encode()
        monkeypatch.setattr(io_module, "_SLAB", 1 << 16)  # ten slabs, not one
        slabs = []
        check = io_module._slab_tokens

        def counted(slab, need):
            slabs.append(slab.size)
            return check(slab, need)

        monkeypatch.setattr(io_module, "_slab_tokens", counted)

        def note(frame, args):
            return frame.f_globals["__name__"], np.size(args[0]), len(slabs)

        with numpy_calls("searchsorted") as searches, \
                numpy_calls("flatnonzero", note) as calls:
            assert io_module._body_tokens(data, 18, 3) == 60_000
        assert len(slabs) > 5
        assert "repro.data.io" not in searches
        assert [slab for module, size, slab in calls
                if module == "repro.data.io" and size == slabs[slab - 1]
                ] == list(range(1, len(slabs) + 1))

    @staticmethod
    def _skeleton_calls(lines, monkeypatch):
        """Per slab of *lines*, the numpy operations the check makes on an
        array longer than half the slab's skeleton (and no longer than it)."""
        data = ("9 9 9\n" + "".join(lines)).encode()
        check, counts = io_module._slab_tokens, []

        def counted(slab, need):
            skeleton = np.count_nonzero(slab - np.uint8(48) > 9)
            with array_calls() as (note, calls):
                tokens = check(note(slab), need)
            counts.append(sum(any(skeleton // 2 < size <= skeleton for size in sizes)
                              for _, sizes in calls))
            return tokens

        with monkeypatch.context() as patch:
            patch.setattr(io_module, "_SLAB", 1 << 14)
            patch.setattr(io_module, "_slab_tokens", counted)
            assert io_module._body_tokens(data, 6, 3) == 3 * len(lines)
        return counts

    def test_written_lines_take_a_few_skeleton_calls(self, monkeypatch):
        # Wall-clock free: lines of one shape cost a slab the same few
        # operations on skeleton-length arrays at n lines and at 4n, fewer
        # than the walk of every skeleton byte (the check's only path
        # before), here drawn by a sign on every other value.
        rng = random.Random(5)
        lines = [f"{rng.randint(1, 20_000)} {rng.randint(1, 20_000)} "
                 f"{rng.uniform(0.1, 1.0):.17g}\n" for _ in range(8_000)]
        few = self._skeleton_calls(lines[:2_000], monkeypatch)
        many = self._skeleton_calls(lines, monkeypatch)
        assert len(few) >= 3 and set(few) == set(many)
        walked = self._skeleton_calls([line.replace(" 0.", " -0.") if k % 2 else line
                                       for k, line in enumerate(lines[:2_000])],
                                      monkeypatch)
        assert max(few) <= 7 < min(walked)

    @pytest.mark.parametrize("field, symmetry", [
        (field, symmetry) for field in MTX_FIELDS for symmetry in MTX_SYMMETRIES
        if (field, symmetry) != ("pattern", "skew-symmetric")  # no such matrix
    ])
    def test_written_files_take_the_checked_parse(self, field, symmetry, tmp_path):
        dense = np.array([[4.0, -1.0, 0.0], [-1.0, 0.0, 2.5], [0.0, 2.5, 9.0]])
        if field == "pattern":
            dense = (dense != 0).astype(float)
        if symmetry == "skew-symmetric":
            dense = np.triu(dense, 1) - np.triu(dense, 1).T
        if field == "integer":
            dense = np.round(dense)
        path = write_mtx(str(tmp_path / "w.mtx"), dense, field=field, symmetry=symmetry)
        nnz = int(open(path).read().splitlines()[1].split()[2])
        need = 2 if field == "pattern" else 3
        assert io_module._checked_entries(path, 2, need, (3, 3), nnz) is not None


class TestCheckedParseThreads:
    """scipy's C++ reader parses on one thread and hands back bare arrays:
    ``mmread`` would start a thread per core (CPU time a sweep's worker
    processes already share out) and wrap the arrays in a ``coo_array``
    taken apart at once."""

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_one_thread_and_no_coo_array(self, suffix, tmp_path, monkeypatch):
        from scipy.io import _fast_matrix_market as fmm

        matrix = sparse.random(50, 40, density=0.1, random_state=9, format="csr")
        path = write_mtx(str(tmp_path / f"t.mtx{suffix}"), matrix)
        asked = []
        cursor = fmm._get_read_cursor

        def recorded(source, parallelism=None):
            asked.append(parallelism)
            return cursor(source, parallelism)

        def refused(*args, **kwargs):
            raise AssertionError("read_mtx built a scipy COO array")

        monkeypatch.setattr(fmm, "_get_read_cursor", recorded)
        monkeypatch.setattr(fmm, "coo_array", refused)
        monkeypatch.setattr(fmm, "coo_matrix", refused)
        coo = read_mtx(path)
        assert asked == [1]
        assert np.array_equal(coo.to_scipy().toarray(), matrix.toarray())


#: index and value spellings the generated bodies are drawn from; the
#: first ones of each list are what the grammar admits
INDEX_TOKENS = ["1", "2", "3", "01", "0", "4", "+1", "-1", "1.0", "1.5", "1e0"]
VALUE_TOKENS = ["1", "-2", "1.5", "1.", ".5", "-.5", "+.5", "-1E+10", "00012",
                "1.e5", "9007199254740993", "1e400", "5e-324", "-0.0",
                "1.5.3", "1e5e5", "1-2", "1.5e", "1e+", "1..2", "1e5.3", ".e5",
                "1.5+", "5e-", "12x", "1d3", "nan", "inf"]
CLEAN_VALUES = VALUE_TOKENS.index("1.5.3")


@st.composite
def mtx_texts(draw):
    """A coordinate file: banner, size line and a body of entries mixed
    with blank and ``%`` lines.  A *clean* body holds only what the
    grammar admits, so the checked parse runs; any other mixes in hostile
    tokens, CRs, comments, ragged rows and a wrong entry count."""
    field = draw(st.sampled_from(MTX_FIELDS))
    symmetry = draw(st.sampled_from(MTX_SYMMETRIES))
    clean = draw(st.booleans())
    indices = INDEX_TOKENS[:4] if clean else INDEX_TOKENS
    values = VALUE_TOKENS[:CLEAN_VALUES] if clean else VALUE_TOKENS
    need = 2 if field == "pattern" else 3
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    end = st.just("\n") if clean else st.sampled_from(["\n", "\n", "\r\n", "\r"])
    fillers = ["", " \t"] if clean else ["", " \t", "% note"]
    lines, entries = [], 0
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(fillers)) + draw(end))
            continue
        width = need if clean else draw(st.sampled_from([need, need, need - 1, 4]))
        tokens = [draw(st.sampled_from(indices)) for _ in range(min(width, 2))]
        tokens += [draw(st.sampled_from(values)) for _ in range(width - 2)]
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + draw(gap).join(tokens) + pad + draw(end))
        entries += 1
    if not clean:
        entries += draw(st.sampled_from([0, 0, 0, 1, -1]))
    return (f"%%MatrixMarket matrix coordinate {field} {symmetry}\n3 3 {entries}\n"
            + "".join(lines))


#: the documented grammar of one body line, without its ``\n``: blank,
#: or two ``INT`` then (``need == 3``) a ``FLOAT``, between ``[ \t]`` gaps
_FLOAT = rb"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
GRAMMAR_LINE = {
    2: re.compile(rb"[ \t]*([0-9]+[ \t]+[0-9]+[ \t]*)?"),
    3: re.compile(rb"[ \t]*([0-9]+[ \t]+[0-9]+[ \t]+" + _FLOAT + rb"[ \t]*)?"),
}
#: what the generated bodies are made of beyond the tokens and gaps
ODD_BYTES = ["\r", "\r\n", "% note", "\x00", "\x0b", "\x0c", "\x1f", "\x7f",
             "\x80", "\xa0", "\xe5", "\xff", ".", "e", "-", "+", "1"]


def grammar_tokens(body: bytes, need: int, slab: int) -> int:
    """What the check must say of *body*, decided line by line by the
    regular expression: ``need`` tokens a non-blank line, or -1."""
    if not body:
        return 0
    lines = body.split(b"\n")
    if lines.pop() != b"":  # no final newline
        return -1
    if any(len(line) >= slab or not GRAMMAR_LINE[need].fullmatch(line)
           for line in lines):
        return -1
    return need * sum(1 for line in lines if line.strip(b" \t"))


def written_body(rng: random.Random, need: int) -> bytes:
    """Lines as :func:`write_mtx` writes them, most bodies of one shape
    (values in one decade, ``%.17g``: long, or short where they are
    quarters), some with a line or a few whose value has an exponent;
    one near-miss line or one odd byte spliced into half of them."""
    quarters, exponent = rng.random() < 0.5, rng.random() < 0.3
    lines = []
    for _ in range(rng.randint(2, 30)):
        value = rng.randrange(1, 200, 2) / 4 if quarters else rng.uniform(0.1, 1.0)
        if exponent and rng.random() < 0.2:
            value *= rng.choice([1e-7, 1e22])
        line = f"{rng.randint(1, 999)} {rng.randint(1, 999)}"
        lines.append(line if need == 2 else f"{line} {value:.17g}")
    splice = rng.random()
    if splice < 0.25:
        lines[rng.randrange(len(lines))] = rng.choice(NEAR_MISSES)[0]
    text = "".join(line + "\n" for line in lines)
    if splice > 0.75:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(ODD_BYTES) + text[at:]
    return text.encode("latin-1")


def grammar_body(rng: random.Random, need: int) -> bytes:
    """Lines of index and value tokens: a third of the bodies written-file
    lines (:func:`written_body`), of the rest every other one only what the
    grammar admits, the others any token, ragged lines and odd bytes
    spliced in anywhere."""
    if rng.random() < 1 / 3:
        return written_body(rng, need)
    clean = rng.random() < 0.5
    indices = INDEX_TOKENS[:4] if clean else INDEX_TOKENS
    values = VALUE_TOKENS[:CLEAN_VALUES] if clean else VALUE_TOKENS
    lines = []
    for _ in range(rng.randint(0, 8)):
        width = need if clean or rng.random() < 0.7 else rng.choice([1, 2, 3, 4])
        tokens = [rng.choice(indices) for _ in range(min(width, 2))]
        tokens += [rng.choice(values) for _ in range(width - 2)]
        pad = rng.choice(["", "", " ", "\t"])
        line = pad + rng.choice([" ", "\t", "  ", " \t "]).join(tokens) + pad
        lines.append(line if rng.random() < 0.9 else rng.choice(["", " \t"]))
    text = "".join(line + "\n" for line in lines)
    for _ in range(0 if clean else rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(ODD_BYTES) + text[at:]
    return text.encode("latin-1")


class TestGrammarOracle:
    """The check against the grammar itself, written as a per-line
    ``re.fullmatch``: every generated body gets the oracle's verdict."""

    @pytest.mark.parametrize("slab", [16, 25, 64, io_module._SLAB])
    def test_check_is_the_regular_expression(self, slab, monkeypatch):
        monkeypatch.setattr(io_module, "_SLAB", slab)
        rng = random.Random(slab)
        verdicts = []
        for _ in range(1500):
            need = rng.choice([2, 3])
            body = grammar_body(rng, need)
            want = grammar_tokens(body, need, slab)
            assert io_module._body_tokens(b"3 3 1\n" + body, 6, need) == want, body
            verdicts.append(want > 0)
        assert 0.2 < np.mean(verdicts) < 0.8  # both verdicts well drawn


def _outcome(read, path):
    """What *read* makes of *path*: the error text, or the data bit for bit."""
    try:
        coo = read(path)
    except ValueError as err:
        return str(err)
    assert coo.coords.dtype == np.int64 and coo.values.dtype == np.float64
    return coo.shape, coo.field, coo.coords.tolist(), coo.values.view(np.int64).tolist()


def _general_read(path):
    """``read_mtx`` with the checked parse switched off: the general reader."""
    with mock.patch.object(io_module, "_checked_entries", return_value=None):
        return read_mtx(path)


class TestCheckedParseDifferential:
    @given(text=mtx_texts())
    @example(text="%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1.5 2\n")
    @example(text="%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n"
                  "1 1 1.\n\t3 2  -.5 \n\n")
    @example(text="%%MatrixMarket matrix coordinate pattern general\n3 3 2\n"
                  "1 2 3 4\n")
    def test_read_mtx_is_the_general_reader(self, text, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("differential") / "g.mtx")
        with open(path, "wb") as handle:
            handle.write(text.encode("latin-1"))
        assert _outcome(read_mtx, path) == _outcome(_general_read, path)


def _savetxt(head, body, fmt):
    out = io.StringIO()
    out.write(head)
    np.savetxt(out, body, fmt=fmt)
    return out.getvalue().encode("ascii")


def _file_bytes(path):
    with _opener(path)(path, "rb") as handle:
        return handle.read()


class TestWriterBytes:
    """A chunk of rows per ``%`` operation writes np.savetxt's bytes."""

    #: not a multiple of the chunk, and more than two chunks
    ROWS = 2 * _WRITE_ROWS + 5

    def _coo(self, field="real"):
        rng = np.random.default_rng(11)
        flat = np.sort(rng.choice(400 * 300, self.ROWS, replace=False))
        coords = np.column_stack(np.unravel_index(flat, (400, 300)))
        if field == "real":
            values = rng.standard_normal(self.ROWS) * 10.0 ** rng.integers(
                -300, 300, self.ROWS
            )
            values[:4] = [np.nan, np.inf, -0.0, 5e-324]
        elif field == "integer":
            values = rng.integers(-2**40, 2**40, self.ROWS).astype(float)
        else:
            values = np.ones(self.ROWS)
        return CooTensor((400, 300), coords.astype(np.int64), values, field=field)

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    @pytest.mark.parametrize("field, fmt", [
        ("real", "%d %d %.17g"), ("integer", "%d %d %d"), ("pattern", "%d %d"),
    ])
    def test_mtx_fields(self, field, fmt, suffix, tmp_path):
        coo = self._coo(field)
        path = write_mtx(str(tmp_path / f"w.{suffix}"), coo, comment="a\nb")
        columns = [coo.coords + 1]
        if field == "integer":
            columns.append(coo.values.astype(np.int64))
        elif field == "real":
            columns.append(coo.values.reshape(-1, 1))
        head = (f"%%MatrixMarket matrix coordinate {field} general\n% a\n% b\n"
                f"400 300 {self.ROWS}\n")
        assert _file_bytes(path) == _savetxt(head, np.column_stack(columns), fmt)

    def test_mtx_symmetric_stores_lower_triangle(self, tmp_path):
        dense = np.array([[2.5, -1.25, 0.0], [-1.25, 0.0, 4.0], [0.0, 4.0, 0.1]])
        path = write_mtx(str(tmp_path / "s.mtx"), dense, symmetry="symmetric")
        lower = np.array([[1, 1, 2.5], [2, 1, -1.25], [3, 2, 4.0], [3, 3, 0.1]])
        head = "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n"
        assert _file_bytes(path) == _savetxt(head, lower, "%d %d %.17g")

    def test_mtx_skew_symmetric_stores_strict_lower_triangle(self, tmp_path):
        dense = np.array([[0.0, 1.25, 0.0], [-1.25, 0.0, -4.0], [0.0, 4.0, 0.0]])
        path = write_mtx(str(tmp_path / "k.mtx"), dense, symmetry="skew-symmetric")
        lower = np.array([[2, 1, -1.25], [3, 2, 4.0]])
        head = "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n"
        assert _file_bytes(path) == _savetxt(head, lower, "%d %d %.17g")

    def test_mtx_no_rows(self, tmp_path):
        path = write_mtx(str(tmp_path / "z.mtx"), np.zeros((3, 4)))
        assert _file_bytes(path) == (
            b"%%MatrixMarket matrix coordinate real general\n3 4 0\n"
        )

    @pytest.mark.parametrize("suffix", ["tns", "tns.gz"])
    def test_tns_order3(self, suffix, tmp_path):
        rng = np.random.default_rng(12)
        flat = rng.choice(30 * 40 * 50, self.ROWS, replace=False)
        coords = np.column_stack(np.unravel_index(flat, (30, 40, 50)))
        values = rng.standard_normal(self.ROWS)
        coo = CooTensor((30, 40, 50), coords.astype(np.int64), values)
        path = write_tns(str(tmp_path / f"w.{suffix}"), coo)
        body = np.column_stack([coords + 1, values.reshape(-1, 1)])
        assert _file_bytes(path) == _savetxt(
            "# shape: 30 40 50\n", body, "%d %d %d %.17g"
        )

    def test_tns_no_rows(self, tmp_path):
        coo = CooTensor((2, 3), np.empty((0, 2), dtype=np.int64), np.empty(0))
        path = write_tns(str(tmp_path / "z.tns"), coo)
        assert _file_bytes(path) == b"# shape: 2 3\n"


class TestWriterIndicesPast2To53:
    """Indices are formatted from int64, not rounded through a float64:
    past 2**53 a float cannot hold every integer."""

    BIG = 2**53  # 0-based; written as the odd 2**53 + 1

    def _coo(self, field):
        coords = np.array([[self.BIG, 0], [self.BIG + 2, 2]], dtype=np.int64)
        values = np.array([1.5, 2.0]) if field == "real" else np.ones(2)
        return CooTensor((self.BIG + 5, 3), coords, values, field=field)

    @pytest.mark.parametrize("field", MTX_FIELDS)
    def test_mtx_round_trip(self, field, tmp_path):
        coo = self._coo(field)
        back = read_mtx(write_mtx(str(tmp_path / "big.mtx"), coo))
        assert back.coords.tolist() == coo.coords.tolist()
        assert back.shape == coo.shape

    def test_tns_lines(self, tmp_path):
        coo = self._coo("real")
        path = write_tns(str(tmp_path / "big.tns"), coo)
        assert _file_bytes(path).decode().splitlines()[1:] == [
            f"{self.BIG + 1} 1 1.5", f"{self.BIG + 3} 3 2",
        ]
        assert read_tns(path).coords.tolist() == coo.coords.tolist()

    def test_tns_float_spelled_index_keeps_the_float_reading(self, tmp_path):
        path = tmp_path / "mixed.tns"
        path.write_text(f"3.0 1 1\n{self.BIG + 1} 1 1.5\n")
        assert read_tns(str(path)).coords[0].tolist() == [2, 0]


class TestWritersLeaveNoPartialFile:
    """A writer that raises leaves the file that was at the path, byte for
    byte, and no temporary file beside it."""

    def _coo(self, order):
        coords = np.arange(3 * order, dtype=np.int64).reshape(3, order) % 3
        return CooTensor((3,) * order, coords, np.array([1.5, -2.0, 4.0]))

    @pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
    def test_non_ascii_comment_refused_before_opening(self, suffix, tmp_path):
        path = write_mtx(str(tmp_path / f"m.{suffix}"), self._coo(2))
        before = open(path, "rb").read()
        with pytest.raises(ValueError, match="non-ASCII character 'é'"):
            write_mtx(path, DENSE_GENERAL, comment="a\ncafé")
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == [f"m.{suffix}"]

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("writer, stem, order", [
        (write_mtx, "w.mtx", 2), (write_tns, "w.tns", 3),
    ])
    def test_failed_write_keeps_the_old_file(self, writer, stem, order, suffix,
                                             tmp_path, monkeypatch):
        path = writer(str(tmp_path / (stem + suffix)), self._coo(order))
        before = open(path, "rb").read()
        fresh = str(tmp_path / ("new-" + stem + suffix))

        def full_disk(handle, fmt, body):
            handle.write("1 1 ")
            raise OSError("no space left on device")

        monkeypatch.setattr(io_module, "_write_rows", full_disk)
        for target in (path, fresh):
            with pytest.raises(OSError, match="no space left"):
                writer(target, self._coo(order))
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == [stem + suffix]


class TestTnsReader:
    def test_order3_with_comments(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# FROSTT-style tensor\n1 1 1 1.5\n2 3 4 2.5\n")
        coo = read_tns(str(path))
        assert coo.shape == (2, 3, 4)
        assert coo.coords.tolist() == [[0, 0, 0], [1, 2, 3]]
        assert coo.values.tolist() == [1.5, 2.5]

    def test_explicit_shape(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1.0\n")
        coo = read_tns(str(path), shape=(5, 6))
        assert coo.shape == (5, 6)

    def test_shape_header_after_other_comments(self, tmp_path):
        # The shape annotation must be found even below provenance
        # comments, not just on the very first line.
        path = tmp_path / "t.tns"
        path.write_text("# FROSTT tensor\n# shape: 3 4 5\n1 2 3 1.0\n")
        assert read_tns(str(path)).shape == (3, 4, 5)

    def test_shape_order_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1.0\n")
        with pytest.raises(ValueError, match="order"):
            read_tns(str(path), shape=(5, 6, 7))

    def test_fractional_coordinate_rejected(self, tmp_path):
        # 1.7 used to truncate into slice 0 through astype(int64).
        path = tmp_path / "frac.tns"
        path.write_text("1 2 3 0.5\n1.7 2 3 1.5\n")
        with pytest.raises(ValueError, match=r"frac\.tns.*entry 2.*1\.7"):
            read_tns(str(path))

    def test_ragged_body_names_file_and_entry(self, tmp_path):
        path = tmp_path / "ragged.tns"
        path.write_text("# shape: 3 3 3\n1 1 1 1.0\n2 2 2.0\n")
        with pytest.raises(ValueError) as raised:
            read_tns(str(path))
        assert str(raised.value) == (
            f"{path}: entry 2 has 3 columns, the entries before it have 4: "
            "'2 2 2.0'"
        )

    def test_unparsable_token_names_file_and_entry(self, tmp_path):
        path = tmp_path / "fortran.tns"
        path.write_text("1 1 1.0\n# note\n2 2 1d3\n")
        with pytest.raises(ValueError) as raised:
            read_tns(str(path))
        assert str(raised.value) == (
            f"{path}: entry 2: '1d3' is not a number: '2 2 1d3'"
        )

    @pytest.mark.parametrize("shape", ["3 x 1", "-3 3"])
    def test_malformed_shape_comment_names_file_and_line(self, shape, tmp_path):
        path = tmp_path / "shape.tns"
        path.write_text(f"# shape: {shape}\n1 1 1.0\n")
        with pytest.raises(ValueError) as raised:
            read_tns(str(path))
        assert str(raised.value) == (
            f"{path}: malformed shape comment '# shape: {shape}\\n'"
        )

    def test_empty_needs_shape(self, tmp_path):
        path = tmp_path / "e.tns"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="explicit shape"):
            read_tns(str(path))
        coo = read_tns(str(path), shape=(3, 4))
        assert coo.nnz == 0 and coo.shape == (3, 4)

    def test_write_read_round_trip(self, tmp_path):
        cube = np.zeros((2, 3, 4))
        cube[0, 1, 2] = 1.25
        cube[1, 2, 3] = -2.5
        nz = np.argwhere(cube != 0)
        coo = CooTensor(cube.shape, nz.astype(np.int64), cube[tuple(nz.T)])
        path = write_tns(str(tmp_path / "rt.tns"), coo)
        back = read_tns(path)
        assert back.shape == (2, 3, 4)
        assert np.array_equal(back.to_fibertensor().to_numpy(), cube)

    def test_load_tensor_dispatch(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 2 4.0\n2 1 3.0\n")
        tensor = load_tensor(str(path))
        assert isinstance(tensor, FiberTensor)
        assert tensor.name == "t"
        assert np.array_equal(
            tensor.to_numpy(), np.array([[0, 4], [3, 0]], dtype=float)
        )
        with pytest.raises(ValueError, match="extension"):
            load_tensor(str(tmp_path / "t.unknown"))


class TestRegistry:
    def test_synthetic_fallback_matches_spec(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        matrix = registry.load_matrix("LFAT5")
        spec = registry.spec("LFAT5")
        assert matrix.shape == spec.shape and matrix.nnz == spec.nnz
        assert registry.source("LFAT5") == "synthetic"

    def test_materialized_file_wins(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        synthetic = registry.load_matrix("relat3", seed=0)
        path = registry.materialize("relat3", seed=0)
        assert registry.source("relat3") == f"file:{path}"
        from_file = registry.load_matrix("relat3")
        assert (synthetic != from_file).nnz == 0

    def test_materialize_refuses_overwrite(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        path = registry.materialize("relat3", seed=0)
        before = open(path).read()
        with pytest.raises(FileExistsError, match="already backs"):
            registry.materialize("relat3", seed=1)
        assert open(path).read() == before
        # Explicit overwrite is the only way to replace the file.
        registry.materialize("relat3", seed=1, overwrite=True)
        assert open(path).read() != before

    def test_file_shape_mismatch_rejected(self, tmp_path):
        registry = DatasetRegistry(data_dir=str(tmp_path))
        bad = tmp_path / "LFAT5.mtx"
        bad.write_text(MTX_GENERAL)  # 4x4, spec says 14x14
        with pytest.raises(ValueError, match="does not match"):
            registry.load_matrix("LFAT5")

    def test_file_nnz_mismatch_warns(self, tmp_path):
        # Same shape but different entry count: could be explicit zeros
        # in a genuine download, so it loads — with a loud warning.
        registry = DatasetRegistry(data_dir=str(tmp_path))
        spec = registry.spec("relat3")  # 8x5, 24 nnz
        bad = tmp_path / "relat3.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"{spec.shape[0]} {spec.shape[1]} 1\n1 1 1.0\n"
        )
        with pytest.warns(UserWarning, match="stored entries"):
            matrix = registry.load_matrix("relat3")
        assert matrix.nnz == 1

    def test_register_file_infers_spec(self, tmp_path):
        path = tmp_path / "mine.mtx"
        path.write_text(MTX_GENERAL)
        registry = DatasetRegistry(data_dir=str(tmp_path))
        spec = registry.register_file(str(path))
        assert spec.name == "mine" and spec.shape == (4, 4) and spec.nnz == 5
        tensor = registry.load_tensor("mine")
        assert np.array_equal(tensor.to_numpy(), DENSE_GENERAL)

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            DatasetRegistry(data_dir=str(tmp_path)).spec("nope")

    def test_fig14_specs_track_dataset_resolution(self, tmp_path, monkeypatch):
        # Dropping a real file in must change the cache key, so stale
        # synthetic results are never replayed as real-matrix numbers.
        from repro.data import DATA_DIR_ENV_VAR
        from repro.studies.fig14 import enumerate_specs

        monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
        before = {s.point["matrix"]: s for s in enumerate_specs(max_nnz=200)}
        DatasetRegistry(data_dir=str(tmp_path)).materialize("relat3")
        after = {s.point["matrix"]: s for s in enumerate_specs(max_nnz=200)}
        assert before["relat3"].key() != after["relat3"].key()
        assert before["lpi_itest6"].key() == after["lpi_itest6"].key()

    def test_fig14_execute_rejects_midsweep_resolution_change(
        self, tmp_path, monkeypatch
    ):
        # A file appearing between enumerate and execute must not be
        # measured and cached under the 'synthetic' source label.
        from repro.data import DATA_DIR_ENV_VAR
        from repro.studies.fig14 import enumerate_specs, execute

        monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
        spec = enumerate_specs(max_nnz=200)[0]
        assert spec.point["source"] == "synthetic"
        DatasetRegistry(data_dir=str(tmp_path)).materialize(
            spec.point["matrix"]
        )
        with pytest.raises(RuntimeError, match="resolution changed"):
            execute(spec)

    def test_generate_stable_across_processes(self):
        # Regression: generate() once mixed the salted hash() into the
        # seed, so "deterministic" stand-ins differed per process.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = (
            "import hashlib; from repro.data.suitesparse import TABLE3, "
            "generate; m = generate(TABLE3[2], seed=0); "
            "print(hashlib.sha256(m.toarray().tobytes()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                       PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


def _identity_run(tensor, backend):
    program = compile_expression("X(i,j) = B(i,j)")
    return program.run({"B": tensor}, backend=backend)


class TestDegenerateTensors:
    """0-row/0-col, all-zero, and empty-fiber operands through every backend."""

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_zero_dimension_identity(self, backend, shape):
        tensor = FiberTensor.from_coords(shape, [], [], name="B")
        result = _identity_run(tensor, backend)
        assert np.array_equal(result.to_numpy(), np.zeros(shape))

    @pytest.mark.parametrize("backend", ENGINES)
    def test_all_zero_operand_spmv(self, backend):
        program = compile_expression("x(i) = B(i,j) * c(j)")
        B = FiberTensor.from_numpy(np.zeros((3, 4)), name="B")
        c = FiberTensor.from_numpy(np.arange(1.0, 5.0), name="c")
        result = program.run({"B": B, "c": c}, backend=backend)
        assert np.array_equal(result.to_numpy(), np.zeros(3))

    @pytest.mark.parametrize("backend", ENGINES)
    def test_empty_compressed_fibers(self, backend):
        # Rows 0 and 2 have no nonzeros: empty fibers via from_coords.
        dense = np.zeros((4, 3))
        dense[1, 2] = 2.0
        dense[3, 0] = 3.0
        tensor = FiberTensor.from_coords(
            dense.shape, np.argwhere(dense != 0), dense[dense != 0], name="B"
        )
        result = _identity_run(tensor, backend)
        assert np.array_equal(result.to_numpy(), dense)

    @pytest.mark.parametrize("constructor", ["numpy", "mtx", "tns"])
    def test_degenerate_sources_round_trip(self, constructor, tmp_path):
        dense = np.zeros((3, 5))
        dense[0, 4] = 1.5
        if constructor == "numpy":
            tensor = FiberTensor.from_numpy(dense)
        elif constructor == "mtx":
            path = write_mtx(str(tmp_path / "d.mtx"), dense)
            tensor = load_tensor(path)
            # scipy reference for the same file
            assert np.array_equal(
                read_mtx(path).to_scipy().toarray(), dense
            )
        else:
            nz = np.argwhere(dense != 0)
            coo = CooTensor(dense.shape, nz.astype(np.int64),
                            dense[tuple(nz.T)])
            tensor = load_tensor(write_tns(str(tmp_path / "d.tns"), coo))
        assert np.array_equal(tensor.to_numpy(), dense)

    def test_empty_mtx_round_trip(self, tmp_path):
        path = tmp_path / "z.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 4 0\n"
        )
        coo = read_mtx(str(path))
        assert coo.nnz == 0
        tensor = coo.to_fibertensor()
        assert np.array_equal(tensor.to_numpy(), np.zeros((3, 4)))


class TestMtxEndToEnd:
    """Acceptance: .mtx -> FiberTensor -> compiled SpMV -> scipy reference."""

    @pytest.mark.parametrize("backend", ENGINES)
    def test_mtx_spmv_matches_scipy(self, backend, tmp_path):
        matrix = generate(MatrixSpec("e2e", "test", (30, 40), 150), seed=5)
        path = write_mtx(str(tmp_path / "e2e.mtx"), matrix)
        tensor = load_tensor(path, name="B")
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 1.0, size=40)
        program = compile_expression("x(i) = B(i,j) * c(j)")
        result = program.run(
            {"B": tensor, "c": FiberTensor.from_numpy(c, name="c")},
            backend=backend,
        )
        reference = matrix @ c
        assert np.allclose(result.to_numpy(), reference)
        assert result.cycles > 0


SCIPY_PROBE = """
import json, sys, warnings
from scipy.io import _fast_matrix_market as fmm
delattr(fmm, {attr!r})
from repro.data.io import read_mtx
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    reads = [read_mtx(path) for path in {paths!r}]
print(json.dumps({{
    "reads": [[coo.shape, coo.field, coo.coords.dtype.str, coo.coords.tobytes().hex(),
               coo.values.dtype.str, coo.values.tobytes().hex()] for coo in reads],
    "warnings": [str(w.message) for w in caught],
}}))
"""


class TestScipyReaderProbe:
    """scipy's reader is a private API of an unpinned dependency: with
    either function it calls gone, ``read_mtx`` warns once, naming what
    failed, and reads every body with the general reader, byte for byte
    the same result."""

    @pytest.mark.parametrize("attr", ["_get_read_cursor", "_read_body_coo"])
    def test_missing_reader_falls_back(self, attr, tmp_path):
        import json

        matrix = sparse.random(40, 30, density=0.2, random_state=4, format="csr")
        paths = [write_mtx(str(tmp_path / "a.mtx"), matrix),
                 write_mtx(str(tmp_path / "b.mtx.gz"), matrix.T),
                 write_mtx(str(tmp_path / "c.mtx"), matrix > 0.5)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE.format(attr=attr, paths=paths)],
            env=env, capture_output=True, text=True, check=True)
        probed = json.loads(out.stdout)
        here = [[list(coo.shape), coo.field, coo.coords.dtype.str,
                 coo.coords.tobytes().hex(), coo.values.dtype.str,
                 coo.values.tobytes().hex()]
                for coo in map(read_mtx, paths)]
        assert probed["reads"] == here
        assert len(probed["warnings"]) == 1
        assert attr in probed["warnings"][0]
        assert "general reader" in probed["warnings"][0]

    def test_this_scipy_has_the_reader(self):
        """Else every ``.mtx`` read here would take the general reader."""
        assert io_module._scipy_reader_missing() is None
