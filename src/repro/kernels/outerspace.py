"""OuterSPACE-style two-phase SpM*SpM (paper section 6.5, Figure 16).

OuterSPACE factorizes sparse matrix multiply into a *multiply phase*
``Y(i,k,j) = B(i,k) * C(k,j)`` computed in outer-product (k, i, j) order,
and a *merge phase* ``X(i,j) = sum_k Y(i,k,j)``.  The multiply phase's
write of Y is discordant — produced in k-major order, stored in i-major
order — which the linked-list level format absorbs: each k entry is
appended under its i fiber as it arrives.

The merge phase re-reads Y concordantly (uncompressed i level,
linked-list k level, compressed j level), sums over k with a vector
reducer, and writes DCSR X.  This mirrors Figure 16 plus the merge
dataflow described in the text.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats import DenseLevel, FiberTensor
from ..graph.bind import bind
from ..graph.ir import SamGraph
from ..lang.compile import check_extents


@dataclass
class OuterSpaceResult:
    output: np.ndarray
    multiply_cycles: int
    merge_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.multiply_cycles + self.merge_cycles


@functools.lru_cache(maxsize=None)
def multiply_graph() -> SamGraph:
    """The multiply phase ``Y(i,k,j) = B(i,k) * C(k,j)`` in k,i,j order,
    over ``B`` stored column-major and ``C`` row-major (Figure 16)."""
    g = SamGraph("outerspace_multiply")
    root_b = g.add("root", name="root_B")
    root_c = g.add("root", name="root_C")
    scan_bk = g.add("level_scanner", name="scan_Bk", tensor="B", depth=0, var="k")
    g.connect(root_b, "ref", scan_bk, "ref")
    scan_ck = g.add("level_scanner", name="scan_Ck", tensor="C", depth=0, var="k")
    g.connect(root_c, "ref", scan_ck, "ref")
    isect = g.add("intersect", name="intersect_k", sides=[1, 1], var="k")
    for side, scan in enumerate((scan_bk, scan_ck)):
        g.connect(scan, "crd", isect, f"crd{side}")
        g.connect(scan, "ref", isect, f"ref{side}_0")
    scan_bi = g.add("level_scanner", name="scan_Bi", tensor="B", depth=1, var="i")
    g.connect(isect, "ref0_0", scan_bi, "ref")
    fan_bi = g.add("fanout", name="fan_bi", lanes=3)
    g.connect(scan_bi, "crd", fan_bi, "in")
    # Repeat C's surviving k reference over each i of B's column (Fig. 16
    # "Repeater Ci"), then scan C's j fibers once per i.
    rep_ci = g.add("repeat", name="repeat_Ci", var="i")
    g.connect(fan_bi, "out0", rep_ci, "crd")
    g.connect(isect, "ref1_0", rep_ci, "ref")
    scan_cj = g.add("level_scanner", name="scan_Cj", tensor="C", depth=1, var="j")
    g.connect(rep_ci, "ref", scan_cj, "ref")
    fan_cj = g.add("fanout", name="fan_cj", lanes=2)
    g.connect(scan_cj, "crd", fan_cj, "in")
    # Repeat B's value reference over each j (Fig. 16 "Repeater Bj").
    rep_bj = g.add("repeat", name="repeat_Bj", var="j")
    g.connect(fan_cj, "out0", rep_bj, "crd")
    g.connect(scan_bi, "ref", rep_bj, "ref")
    vals_b = g.add("array", name="vals_B", tensor="B")
    g.connect(rep_bj, "ref", vals_b, "ref")
    vals_c = g.add("array", name="vals_C", tensor="C")
    g.connect(scan_cj, "ref", vals_c, "ref")
    mul = g.add("alu", name="mul", op="mul")
    g.connect(vals_b, "val", mul, "a")
    g.connect(vals_c, "val", mul, "b")
    # Discordant write of Y: each k coordinate, repeated over the i of
    # its column, is appended under the fiber its i names, as it arrives.
    rep_k = g.add("repeat", name="repeat_k_over_i", var="i", stream_kind="crd")
    g.connect(fan_bi, "out2", rep_k, "crd")
    g.connect(isect, "crd", rep_k, "ref")
    write_k = g.add("ll_writer", name="write_Yk")
    g.connect(fan_bi, "out1", write_k, "parent")
    g.connect(rep_k, "ref", write_k, "crd")
    g.connect(fan_cj, "out1", g.add("level_writer", name="write_Yj"), "crd")
    g.connect(mul, "val", g.add("vals_writer", name="write_Yvals"), "val")
    g.freeze()
    return g


@functools.lru_cache(maxsize=None)
def merge_graph() -> SamGraph:
    """The merge phase ``X(i,j) = sum_k Y(i,k,j)`` over ``Y`` stored
    (uncompressed i, linked-list k, compressed j)."""
    g = SamGraph("outerspace_merge")
    root = g.add("root", name="root_Y")
    scans = []
    upstream = (root, "ref")
    for depth, var in enumerate("ikj"):
        scan = g.add("level_scanner", name=f"scan_Y{var}", tensor="Y", depth=depth,
                     var=var)
        g.connect(*upstream, scan, "ref")
        upstream = (scan, "ref")
        scans.append(scan)
    # The k coordinates themselves are summed away; only the fiber
    # references walk down to Y's j level.
    scan_yi, _, scan_yj = scans
    vals_y = g.add("array", name="vals_Y", tensor="Y")
    g.connect(scan_yj, "ref", vals_y, "ref")
    reduce = g.add("reduce", name="reduce_k", n=1)
    g.connect(scan_yj, "crd", reduce, "crd")
    g.connect(vals_y, "val", reduce, "val")
    drop = g.add("crd_drop", name="drop_i", mode="fiber")
    g.connect(scan_yi, "crd", drop, "outer")
    g.connect(reduce, "crd", drop, "inner")
    g.connect(drop, "outer", g.add("level_writer", name="write_Xi"), "crd")
    g.connect(drop, "inner", g.add("level_writer", name="write_Xj"), "crd")
    g.connect(reduce, "val", g.add("vals_writer", name="write_Xvals"), "val")
    g.freeze()
    return g


def outerspace_spmm(
    B: np.ndarray, C: np.ndarray, backend: Optional[str] = None
) -> OuterSpaceResult:
    """Run the two OuterSPACE phases; returns X and per-phase cycles."""
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    check_extents((("B", "ik", B.shape), ("C", "kj", C.shape)))
    num_rows = B.shape[0]
    # B column-major (k outer), C row-major (k outer) for the outer product.
    bt = FiberTensor.from_numpy(B, mode_order=(1, 0), name="B")
    ct = FiberTensor.from_numpy(C, name="C")
    multiply = bind(multiply_graph(), {"B": bt, "C": ct})
    multiply_cycles = multiply.run(backend=backend).cycles

    writers = multiply.writers
    y_k_level = writers["write_Yk"].level
    y_k_level.ensure_fiber(num_rows - 1)
    yt = FiberTensor(
        (num_rows, B.shape[1], C.shape[1]),
        [DenseLevel(num_rows, num_fibers=1), y_k_level, writers["write_Yj"].level],
        writers["write_Yvals"].vals,
        name="Y",
    )
    merge = bind(merge_graph(), {"Y": yt})
    merge_cycles = merge.run(backend=backend).cycles
    writers = merge.writers
    x = FiberTensor(
        (B.shape[0], C.shape[1]),
        [writers["write_Xi"].level, writers["write_Xj"].level],
        writers["write_Xvals"].vals,
        name="X",
    )
    return OuterSpaceResult(x.to_numpy(), multiply_cycles, merge_cycles)
