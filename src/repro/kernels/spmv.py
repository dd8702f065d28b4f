"""Sparse matrix-vector multiply kernels.

Two variants of ``x(i) = B(i,j) * c(j)``:

* :func:`spmv_program` — the compiled coiteration graph (Table 1's SpMV
  row: the j-level intersecter co-iterates B's rows with c);
* :func:`spmv_locate` — the iterate-locate variant of section 4.2 for a
  dense vector: B's row coordinates probe c directly through a locator,
  never streaming c's coordinates at all;
* :func:`spmv_scatter` — the linear-combination-of-rows transposed
  matrix-vector product ``x(j) = sum_i B(i,j) * c(i)``, scattering
  partial products directly into a dense result that supports random
  insert — section 4.2's "the linear combination of rows matrix-vector
  multiplication can avoid a vector reducer".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..blocks import (
    ALU,
    ArrayLoad,
    CompressedLevelWriter,
    Fanout,
    Intersect,
    Locator,
    MergeSide,
    RootFeeder,
    ScalarReducer,
    ScatterValsWriter,
    ValsWriter,
    ValueDropper,
    make_repeater,
    make_scanner,
)
from ..formats import DenseLevel, FiberTensor
from ..graph.builder import Graph
from ..lang import CompiledProgram, compile_expression


def spmv_program() -> CompiledProgram:
    """The compiled (coiterating) SpMV graph."""
    return compile_expression("x(i) = B(i,j) * c(j)")


def spmv_locate(B, c: np.ndarray, backend: Optional[str] = None):
    """Iterate-locate SpMV: stream B's nonzeros, probe the dense vector c.

    ``B`` may be a dense numpy matrix or a prebuilt two-level
    :class:`FiberTensor` (the path large ``.mtx``-ingested operands take,
    where densifying first would not fit in memory).
    Returns ``(x_coords, x_values, cycles)``, the first two the writers'
    int64 and float64 arrays.
    """
    c = np.asarray(c, dtype=float)
    if isinstance(B, FiberTensor):
        bt = B
    else:
        bt = FiberTensor.from_numpy(np.asarray(B, dtype=float), name="B")
    if bt.order != 2:
        raise ValueError(f"spmv_locate needs a matrix, got order {bt.order}")
    if bt.mode_order != (0, 1):
        # The graph scans storage levels as (row, column); transposed
        # storage would silently compute B.T @ c.
        raise ValueError(
            f"spmv_locate requires row-major storage (mode_order (0, 1)), "
            f"got mode_order {bt.mode_order}"
        )
    # The locator probes c with storage level 1's coordinates; a short c
    # would silently drop every j >= c.size (DenseLevel.locate misses).
    if bt.shape[1] != c.size:
        raise ValueError(
            f"B's scanned column dimension is {bt.shape[1]} but c has "
            f"{c.size} entries"
        )
    c_level = DenseLevel(c.size)
    g = Graph("spmv_locate")

    g.add(RootFeeder(g.out("root", "ref"), name="root_B"))
    g.add(
        make_scanner(bt.levels[0], g.in_("root"),
                     g.out("bi_crd"), g.out("bi_ref", "ref"), name="scan_Bi")
    )
    g.add(
        make_scanner(bt.levels[1], g.in_("bi_ref"),
                     g.out("bj_crd"), g.out("bj_ref", "ref"), name="scan_Bj")
    )
    # Locator probes c's dense level with B's j coordinates (always hits
    # in-bounds coordinates; the point is never iterating c).
    g.add(
        Locator(
            c_level, g.in_("bj_crd"), g.in_("bj_ref"),
            g.out("loc_crd"), g.out("c_ref", "ref"), g.out("b_ref", "ref"),
            name="locate_c",
        )
    )
    # A dense-level locate always hits, so the located coordinates
    # duplicate bj_crd and nothing downstream reads them.
    g.unused("loc_crd")
    g.add(ArrayLoad(bt.vals, g.in_("b_ref"), g.out("b_val", "vals"),
                    name="vals_B"))
    # Pass c as an array: ArrayLoad snapshots list memories with
    # np.asarray on every run, which at benchmark scale costs more than
    # the gather itself.
    g.add(ArrayLoad(c, g.in_("c_ref"), g.out("c_val", "vals"), name="vals_c"))
    g.add(ALU("mul", g.in_("b_val"), g.in_("c_val"), g.out("prod", "vals"),
              name="mul"))
    g.add(ScalarReducer(g.in_("prod"), g.out("sum", "vals"), name="reduce_j"))
    g.add(
        ValueDropper(g.in_("bi_crd"), g.in_("sum"),
                     g.out("x_crd"), g.out("x_val", "vals"), name="drop_zero")
    )
    crd_writer = g.add(CompressedLevelWriter(g.in_("x_crd"), name="write_x_i"))
    val_writer = g.add(ValsWriter(g.in_("x_val"), name="write_x_vals"))
    report = g.run(backend=backend)
    return crd_writer.crd, val_writer.vals, report.cycles


def spmv_scatter(B: np.ndarray, c: np.ndarray, backend: Optional[str] = None):
    """Linear-combination SpMV scattering into a dense result (section 4.2).

    Computes ``x(j) = sum_i B(i,j) * c(i)`` by intersecting B's rows with
    c's coordinates, broadcasting each surviving ``c_i`` over B's row
    fiber, and scatter-adding the partial products at their j coordinates
    into a dense value array — no vector reducer required.

    Returns ``(x_dense, cycles)``.
    """
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    bt = FiberTensor.from_numpy(B, name="B")
    ct = FiberTensor.from_numpy(c, name="c")
    g = Graph("spmv_scatter")

    g.add(RootFeeder(g.out("b_root", "ref"), name="root_B"))
    g.add(RootFeeder(g.out("c_root", "ref"), name="root_c"))
    g.add(
        make_scanner(bt.levels[0], g.in_("b_root"),
                     g.out("bi_crd"), g.out("bi_ref", "ref"), name="scan_Bi")
    )
    g.add(
        make_scanner(ct.levels[0], g.in_("c_root"),
                     g.out("ci_crd"), g.out("ci_ref", "ref"), name="scan_ci")
    )
    g.add(
        Intersect(
            [MergeSide(g.in_("bi_crd"), [g.in_("bi_ref")]),
             MergeSide(g.in_("ci_crd"), [g.in_("ci_ref")])],
            g.out("i_crd"),
            [[g.out("ib_ref", "ref")], [g.out("ic_ref", "ref")]],
            name="intersect_i",
        )
    )
    # Only the surviving references matter; the intersected row
    # coordinate itself is never consumed (the scatter target is j).
    g.unused("i_crd")
    g.add(
        make_scanner(bt.levels[1], g.in_("ib_ref"),
                     g.out("bj_crd"), g.out("bj_ref", "ref"), name="scan_Bj")
    )
    g.add(Fanout(g.in_("bj_crd"), [g.out("bj_rep"), g.out("bj_scatter")],
                 name="fan_bj"))
    # Broadcast the surviving c reference over B's row fiber (Figure 6).
    g.add_all(make_repeater(g.in_("bj_rep"), g.in_("ic_ref"),
                            g.out("c_rep", "ref"), name="repeat_cj"))
    g.add(ArrayLoad(bt.vals, g.in_("bj_ref"), g.out("b_val", "vals"),
                    name="vals_B"))
    g.add(ArrayLoad(ct.vals, g.in_("c_rep"), g.out("c_val", "vals"),
                    name="vals_c"))
    g.add(ALU("mul", g.in_("b_val"), g.in_("c_val"), g.out("prod", "vals"),
              name="mul"))
    # Scatter-add at the j coordinate: the dense result supports random
    # insert, so the reduction happens in memory.
    scatter = g.add(ScatterValsWriter(B.shape[1], g.in_("bj_scatter"),
                                      g.in_("prod"), name="scatter_x"))
    report = g.run(backend=backend)
    return scatter.vals, report.cycles
