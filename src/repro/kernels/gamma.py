"""Gamma-style parallelized SpM*SpM (paper sections 4.4 and 6.5).

"Gamma's dataflow is similar to Figure 4.  The main difference is that
Gamma adds a parallelizer ... and then uses a multi-input vector reducer
to rejoin the parallel threads."

This kernel distributes B's rows across L lanes with an element-
granularity parallelizer (each lane owns every L-th row), runs a
complete Gustavson pipeline per lane — scan B's k fiber, intersect with
C's k level, scan C's j fibers, multiply, vector-reduce — and rejoins
the per-row results with interleaving serializers feeding the shared
construction stage.  Per-block busy-cycle statistics expose the parallel
critical path, so lane scaling is measurable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats import FiberTensor
from ..graph.bind import bind
from ..graph.ir import SamGraph
from ..lang.compile import check_extents


@dataclass
class GammaResult:
    output: np.ndarray
    cycles: int
    lanes: int
    #: busiest per-lane block's busy cycles — the parallel critical path
    critical_path: int


@functools.lru_cache(maxsize=64)
def gamma_graph(lanes: int) -> SamGraph:
    """Gustavson SpM*SpM over tensors ``B`` and ``C`` with B's rows
    distributed across *lanes* lanes."""
    g = SamGraph("gamma_spmm")
    # Scan B's i level once and distribute rows across lanes.
    root = g.add("root", name="root_B")
    scan_bi = g.add("level_scanner", name="scan_Bi", tensor="B", depth=0, var="i")
    g.connect(root, "ref", scan_bi, "ref")
    fan_bi = g.add("fanout", name="fan_bi", lanes=2)
    g.connect(scan_bi, "crd", fan_bi, "in")
    par_ref = g.add("parallelize", name="par_ref", lanes=lanes, stream_kind="ref")
    g.connect(scan_bi, "ref", par_ref, "in")
    par_crd = g.add("parallelize", name="par_crd", lanes=lanes)
    g.connect(fan_bi, "out0", par_crd, "in")
    # One complete Gustavson pipeline per lane.
    reducers = []
    for lane in range(lanes):
        root_c = g.add("root", name=f"root_C_{lane}")
        rep_ci = g.add("repeat", name=f"repeat_Ci_{lane}", var="i")
        g.connect(par_crd, f"out{lane}", rep_ci, "crd")
        g.connect(root_c, "ref", rep_ci, "ref")
        scan_bk = g.add("level_scanner", name=f"scan_Bk_{lane}", tensor="B",
                        depth=1, var="k")
        g.connect(par_ref, f"out{lane}", scan_bk, "ref")
        scan_ck = g.add("level_scanner", name=f"scan_Ck_{lane}", tensor="C",
                        depth=0, var="k")
        g.connect(rep_ci, "ref", scan_ck, "ref")
        # Gustavson never needs the intersected k coordinate itself,
        # only the surviving fiber references.
        isect = g.add("intersect", name=f"intersect_k_{lane}", sides=[1, 1], var="k")
        for side, scan in enumerate((scan_bk, scan_ck)):
            g.connect(scan, "crd", isect, f"crd{side}")
            g.connect(scan, "ref", isect, f"ref{side}_0")
        scan_cj = g.add("level_scanner", name=f"scan_Cj_{lane}", tensor="C",
                        depth=1, var="j")
        g.connect(isect, "ref1_0", scan_cj, "ref")
        fan_cj = g.add("fanout", name=f"fan_cj_{lane}", lanes=2)
        g.connect(scan_cj, "crd", fan_cj, "in")
        rep_bj = g.add("repeat", name=f"repeat_Bj_{lane}", var="j")
        g.connect(fan_cj, "out0", rep_bj, "crd")
        g.connect(isect, "ref0_0", rep_bj, "ref")
        vals_b = g.add("array", name=f"vals_B_{lane}", tensor="B")
        g.connect(rep_bj, "ref", vals_b, "ref")
        vals_c = g.add("array", name=f"vals_C_{lane}", tensor="C")
        g.connect(scan_cj, "ref", vals_c, "ref")
        mul = g.add("alu", name=f"mul_{lane}", op="mul")
        g.connect(vals_b, "val", mul, "a")
        g.connect(vals_c, "val", mul, "b")
        reduce = g.add("reduce", name=f"reduce_{lane}", n=1)
        g.connect(fan_cj, "out1", reduce, "crd")
        g.connect(mul, "val", reduce, "val")
        reducers.append(reduce)
    # Rejoin per-row results in original row order.
    join_crd = g.add("serialize", name="join_crd", lanes=lanes)
    join_val = g.add("serialize", name="join_val", lanes=lanes, stream_kind="vals")
    for lane, reduce in enumerate(reducers):
        g.connect(reduce, "crd", join_crd, f"in{lane}")
        g.connect(reduce, "val", join_val, f"in{lane}")
    drop = g.add("crd_drop", name="drop_i", mode="fiber")
    g.connect(fan_bi, "out1", drop, "outer")
    g.connect(join_crd, "out", drop, "inner")
    g.connect(drop, "outer", g.add("level_writer", name="write_Xi"), "crd")
    g.connect(drop, "inner", g.add("level_writer", name="write_Xj"), "crd")
    g.connect(join_val, "out", g.add("vals_writer", name="write_Xvals"), "val")
    g.freeze()
    return g


def gamma_spmm(
    B: np.ndarray,
    C: np.ndarray,
    lanes: int = 4,
    backend: Optional[str] = None,
) -> GammaResult:
    """Run Gustavson SpM*SpM with rows distributed across L lanes."""
    if lanes < 1:
        raise ValueError(f"gamma_spmm needs at least one lane, got {lanes}")
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    check_extents((("B", "ik", B.shape), ("C", "kj", C.shape)))
    bt = FiberTensor.from_numpy(B, name="B")
    ct = FiberTensor.from_numpy(C, name="C")
    # A lane with zero rows would contribute a phantom empty region when
    # rejoined; clamp the lane count to the number of nonempty rows.
    nonempty_rows = int(bt.levels[0].fiber_lens(np.zeros(1, dtype=np.int64))[0])
    lanes = max(1, min(lanes, nonempty_rows)) if nonempty_rows else 1
    bound = bind(gamma_graph(lanes), {"B": bt, "C": ct})
    report = bound.run(backend=backend)
    writers = bound.writers
    x = FiberTensor(
        (B.shape[0], C.shape[1]),
        [writers["write_Xi"].level, writers["write_Xj"].level],
        writers["write_Xvals"].vals,
        name="X",
    )
    critical = max(
        block.busy_cycles
        for block in bound.blocks
        if block.name.startswith(("scan_Cj", "mul_", "scan_Bk", "reduce_"))
    )
    return GammaResult(x.to_numpy(), report.cycles, lanes, critical)
