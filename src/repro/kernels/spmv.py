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

import functools
from typing import Optional

import numpy as np

from ..formats import DenseLevel, FiberTensor
from ..graph.bind import bind
from ..graph.ir import SamGraph
from ..lang import CompiledProgram, compile_expression
from ..lang.compile import check_extents


def spmv_program() -> CompiledProgram:
    """The compiled (coiterating) SpMV graph."""
    return compile_expression("x(i) = B(i,j) * c(j)")


@functools.lru_cache(maxsize=None)
def locate_graph() -> SamGraph:
    """The iterate-locate SpMV graph over tensors ``B`` and ``c``."""
    g = SamGraph("spmv_locate")
    root = g.add("root", name="root_B")
    scan_i = g.add("level_scanner", name="scan_Bi", tensor="B", depth=0, var="i")
    g.connect(root, "ref", scan_i, "ref")
    scan_j = g.add("level_scanner", name="scan_Bj", tensor="B", depth=1, var="j")
    g.connect(scan_i, "ref", scan_j, "ref")
    # The locator probes c's dense level with B's j coordinates (always
    # hits in-bounds coordinates; the point is never iterating c), so its
    # located coordinates duplicate B's and stay unconsumed.
    locate = g.add("locate", name="locate_c", tensor="c", depth=0)
    g.connect(scan_j, "crd", locate, "crd")
    g.connect(scan_j, "ref", locate, "ref")
    vals_b = g.add("array", name="vals_B", tensor="B")
    g.connect(locate, "ref_in", vals_b, "ref")
    vals_c = g.add("array", name="vals_c", tensor="c")
    g.connect(locate, "ref_found", vals_c, "ref")
    mul = g.add("alu", name="mul", op="mul")
    g.connect(vals_b, "val", mul, "a")
    g.connect(vals_c, "val", mul, "b")
    reduce = g.add("reduce", name="reduce_j", n=0)
    g.connect(mul, "val", reduce, "val")
    drop = g.add("crd_drop", name="drop_zero", mode="value")
    g.connect(scan_i, "crd", drop, "outer")
    g.connect(reduce, "val", drop, "inner")
    g.connect(drop, "outer", g.add("level_writer", name="write_x_i"), "crd")
    g.connect(drop, "inner", g.add("vals_writer", name="write_x_vals"), "val")
    g.freeze()
    return g


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
    ct = FiberTensor((c.size,), [DenseLevel(c.size)], c, name="c")
    bound = bind(locate_graph(), {"B": bt, "c": ct})
    report = bound.run(backend=backend)
    return (bound.writers["write_x_i"].crd, bound.writers["write_x_vals"].vals,
            report.cycles)


@functools.lru_cache(maxsize=None)
def scatter_graph() -> SamGraph:
    """The linear-combination SpMV graph over tensors ``B`` and ``c``."""
    g = SamGraph("spmv_scatter")
    root_b = g.add("root", name="root_B")
    root_c = g.add("root", name="root_c")
    scan_bi = g.add("level_scanner", name="scan_Bi", tensor="B", depth=0, var="i")
    g.connect(root_b, "ref", scan_bi, "ref")
    scan_ci = g.add("level_scanner", name="scan_ci", tensor="c", depth=0, var="i")
    g.connect(root_c, "ref", scan_ci, "ref")
    # Only the surviving references matter; the intersected row
    # coordinate itself is never consumed (the scatter target is j).
    isect = g.add("intersect", name="intersect_i", sides=[1, 1], var="i")
    for side, scan in enumerate((scan_bi, scan_ci)):
        g.connect(scan, "crd", isect, f"crd{side}")
        g.connect(scan, "ref", isect, f"ref{side}_0")
    scan_bj = g.add("level_scanner", name="scan_Bj", tensor="B", depth=1, var="j")
    g.connect(isect, "ref0_0", scan_bj, "ref")
    fan = g.add("fanout", name="fan_bj", lanes=2)
    g.connect(scan_bj, "crd", fan, "in")
    # Broadcast the surviving c reference over B's row fiber (Figure 6).
    repeat = g.add("repeat", name="repeat_cj", var="j")
    g.connect(fan, "out0", repeat, "crd")
    g.connect(isect, "ref1_0", repeat, "ref")
    vals_b = g.add("array", name="vals_B", tensor="B")
    g.connect(scan_bj, "ref", vals_b, "ref")
    vals_c = g.add("array", name="vals_c", tensor="c")
    g.connect(repeat, "ref", vals_c, "ref")
    mul = g.add("alu", name="mul", op="mul")
    g.connect(vals_b, "val", mul, "a")
    g.connect(vals_c, "val", mul, "b")
    # Scatter-add at the j coordinate: the dense result supports random
    # insert, so the reduction happens in memory.
    scatter = g.add("scatter_writer", name="scatter_x", tensor="B", axis=1)
    g.connect(fan, "out1", scatter, "ref")
    g.connect(mul, "val", scatter, "val")
    g.freeze()
    return g


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
    check_extents((("B", "ij", B.shape), ("c", "i", c.shape)))
    tensors = {"B": FiberTensor.from_numpy(B, name="B"),
               "c": FiberTensor.from_numpy(c, name="c")}
    bound = bind(scatter_graph(), tensors)
    report = bound.run(backend=backend)
    return bound.writers["scatter_x"].vals, report.cycles
