"""SDDMM kernels: the fusion study of Figure 11.

Sampled dense-dense matrix multiplication,
``X(i,j) = sum_k B(i,j) * C(i,k) * D(j,k)`` with sparse B and dense C, D,
in three implementations:

* :func:`sddmm_unfused` — factorized: first the full dense contraction
  ``T(i,j) = C(i,k) * D(j,k)``, then the element-wise sample
  ``X = B * T`` (what fixed-function matmul hardware forces); cycles are
  the sum of the two phases;
* :func:`sddmm_fused_coiter` — the fused compiled graph; the sparsity of
  B gates all computation, but i and j are merged by coiterating B with
  C's and D's dense levels;
* :func:`sddmm_fused_locate` — fused with locators (section 4.2): B's
  coordinates probe the dense operands directly, skipping the dense
  coiteration entirely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats import FiberTensor
from ..graph.bind import bind
from ..graph.ir import SamGraph
from ..lang import compile_expression
from ..lang.compile import check_extents


@dataclass
class SDDMMResult:
    output: np.ndarray
    cycles: int
    variant: str


def _as_arrays(B, C, D):
    """``B(i,j)``, ``C(i,k)``, ``D(j,k)`` as float arrays with one extent
    per index variable (``D`` passed as K x J must not run)."""
    B, C, D = (np.asarray(B, float), np.asarray(C, float), np.asarray(D, float))
    check_extents((("B", "ij", B.shape), ("C", "ik", C.shape), ("D", "jk", D.shape)))
    return B, C, D


def sddmm_reference(B, C, D) -> np.ndarray:
    B, C, D = _as_arrays(B, C, D)
    return B * (C @ D.T)


def sddmm_unfused(B, C, D, backend: Optional[str] = None) -> SDDMMResult:
    """Factorized SDDMM: dense GEMM, then sparse element-wise sample."""
    B, C, D = _as_arrays(B, C, D)
    gemm = compile_expression(
        "T(i,j) = C(i,k) * D(j,k)",
        formats={"C": ["dense", "dense"], "D": ["dense", "dense"]},
        schedule=("i", "j", "k"),
    )
    first = gemm.run({"C": C, "D": D}, backend=backend)
    sample = compile_expression("X(i,j) = B(i,j) * T(i,j)")
    second = sample.run({"B": B, "T": first.output}, backend=backend)
    return SDDMMResult(second.to_numpy(), first.cycles + second.cycles, "unfused")


def sddmm_fused_coiter(B, C, D, backend: Optional[str] = None) -> SDDMMResult:
    """Fused SDDMM with dense coiteration at the sampled i and j levels."""
    B, C, D = _as_arrays(B, C, D)
    prog = compile_expression(
        "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
        formats={"C": ["dense", "dense"], "D": ["dense", "dense"]},
        schedule=("i", "j", "k"),
    )
    res = prog.run({"B": B, "C": C, "D": D}, backend=backend)
    return SDDMMResult(res.to_numpy(), res.cycles, "fused_coiter")


@functools.lru_cache(maxsize=None)
def locate_graph() -> SamGraph:
    """Fused SDDMM over ``B`` and dense ``C``, ``D``, locating into the
    dense operands."""
    g = SamGraph("sddmm_locate")
    root = g.add("root", name="root_B")
    scan_bi = g.add("level_scanner", name="scan_Bi", tensor="B", depth=0, var="i")
    scan_bj = g.add("level_scanner", name="scan_Bj", tensor="B", depth=1, var="j")
    g.connect(root, "ref", scan_bi, "ref", "ref")
    g.connect(scan_bi, "ref", scan_bj, "ref", "ref")
    # Probe C's dense i level with B's i coordinates.
    loc_c = g.add("locate", name="locate_Ci", tensor="C", depth=0)
    g.connect(scan_bi, "crd", loc_c, "crd", "crd")
    g.connect(scan_bi, "crd", loc_c, "ref", "ref")  # ref payload unused
    # Probe D's dense j level with B's j coordinates; ride B's value
    # references through the locator so they stay aligned.
    loc_d = g.add("locate", name="locate_Dj", tensor="D", depth=0)
    g.connect(scan_bj, "crd", loc_d, "crd", "crd")
    g.connect(scan_bj, "ref", loc_d, "ref", "ref")
    # Broadcast C's located row reference across each j fiber.
    rep_c = g.add("repeat", name="repeat_Ci_j", tensor="C", var="j")
    g.connect(loc_d, "crd", rep_c, "crd", "crd")
    g.connect(loc_c, "ref_found", rep_c, "ref", "ref")
    # Dense k levels of C and D.
    scan_ck = g.add("level_scanner", name="scan_Ck", tensor="C", depth=1, var="k")
    g.connect(rep_c, "ref", scan_ck, "ref", "ref")
    scan_dk = g.add("level_scanner", name="scan_Dk", tensor="D", depth=1, var="k")
    g.connect(loc_d, "ref_found", scan_dk, "ref", "ref")
    isect = g.add("intersect", name="intersect_k", sides=[1, 1], var="k")
    g.connect(scan_ck, "crd", isect, "crd0", "crd")
    g.connect(scan_ck, "ref", isect, "ref0_0", "ref")
    g.connect(scan_dk, "crd", isect, "crd1", "crd")
    g.connect(scan_dk, "ref", isect, "ref1_0", "ref")
    vals_c = g.add("array", name="vals_C", tensor="C")
    vals_d = g.add("array", name="vals_D", tensor="D")
    g.connect(isect, "ref0_0", vals_c, "ref", "ref")
    g.connect(isect, "ref1_0", vals_d, "ref", "ref")
    mul_cd = g.add("alu", name="mul_CD", op="mul")
    g.connect(vals_c, "val", mul_cd, "a", "vals")
    g.connect(vals_d, "val", mul_cd, "b", "vals")
    red = g.add("reduce", name="reduce_k", n=0, empty_policy="zero")
    g.connect(mul_cd, "val", red, "val", "vals")
    vals_b = g.add("array", name="vals_B", tensor="B")
    g.connect(loc_d, "ref_in", vals_b, "ref", "ref")
    mul_b = g.add("alu", name="mul_B", op="mul")
    g.connect(vals_b, "val", mul_b, "a", "vals")
    g.connect(red, "val", mul_b, "b", "vals")
    # Construction: drop zero samples, then empty i fibers.
    vdrop = g.add("crd_drop", name="valdrop_j", mode="value")
    g.connect(loc_d, "crd", vdrop, "outer", "crd")
    g.connect(mul_b, "val", vdrop, "inner", "vals")
    fdrop = g.add("crd_drop", name="crddrop_i_j", mode="fiber")
    g.connect(loc_c, "crd", fdrop, "outer", "crd")
    g.connect(vdrop, "outer", fdrop, "inner", "crd")
    wr_i = g.add("level_writer", name="write_X_i", format="compressed", var="i")
    wr_j = g.add("level_writer", name="write_X_j", format="compressed", var="j")
    wr_v = g.add("vals_writer", name="write_X_vals")
    g.connect(fdrop, "outer", wr_i, "crd", "crd")
    g.connect(fdrop, "inner", wr_j, "crd", "crd")
    g.connect(vdrop, "inner", wr_v, "val", "vals")
    g.validate()
    g.freeze()
    return g


def sddmm_fused_locate(B, C, D, backend: Optional[str] = None) -> SDDMMResult:
    """Fused SDDMM that locates into the dense operands (section 6.3).

    "We further enhance performance by using locator blocks to find the
    sampled i, j values, which is trivial in a dense array."
    """
    B, C, D = _as_arrays(B, C, D)
    bt = FiberTensor.from_numpy(B, name="B")
    ct = FiberTensor.from_numpy(C, formats=("dense", "dense"), name="C")
    dt = FiberTensor.from_numpy(D, formats=("dense", "dense"), name="D")
    bound = bind(locate_graph(), {"B": bt, "C": ct, "D": dt})
    report = bound.run(backend=backend)
    out = FiberTensor(
        B.shape,
        [bound.writers["write_X_i"].level, bound.writers["write_X_j"].level],
        bound.writers["write_X_vals"].vals,
        name="X",
    )
    return SDDMMResult(out.to_numpy(), report.cycles, "fused_locate")
