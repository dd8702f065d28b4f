"""Sparse matrix multiply (SpM*SpM) kernels in all six dataflow orders.

Section 6.3's dataflow-ordering study (Figure 12): the index-variable
order determines the algorithm —

* ``ijk`` / ``jik`` — inner product (SIGMA-style), poor asymptotics;
* ``ikj`` / ``jki`` — linear combination of rows (Gustavson / GAMMA);
* ``kij`` / ``kji`` — outer product (OuterSPACE-style).

Each order needs operand storage orders compatible with the dataflow, so
the kernels choose the mode orders automatically (e.g. the outer product
reads ``B`` column-major), exactly as the paper's DCSR assumption allows.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..lang import CompiledProgram, RunResult, compile_expression

ORDERS = ("ijk", "jik", "ikj", "jki", "kij", "kji")

#: human names for the three dataflow families
FAMILY = {
    "ijk": "inner product",
    "jik": "inner product",
    "ikj": "linear combination of rows",
    "jki": "linear combination of rows",
    "kij": "outer product",
    "kji": "outer product",
}


def spmm_program(order: str = "ikj") -> CompiledProgram:
    """Compile ``X(i,j) = B(i,k) * C(k,j)`` for one dataflow order."""
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}; choose from {ORDERS}")
    pos = {var: i for i, var in enumerate(order)}
    formats: Dict = {
        "B": (["compressed", "compressed"], (0, 1) if pos["i"] < pos["k"] else (1, 0)),
        "C": (["compressed", "compressed"], (0, 1) if pos["k"] < pos["j"] else (1, 0)),
    }
    return compile_expression(
        "X(i,j) = B(i,k) * C(k,j)", formats=formats, schedule=tuple(order)
    )


def run_spmm(
    B: np.ndarray,
    C: np.ndarray,
    order: str = "ikj",
    backend: Optional[str] = None,
) -> RunResult:
    """Simulate SpM*SpM for one dataflow order on dense numpy operands."""
    return spmm_program(order).run(
        {"B": np.asarray(B, float), "C": np.asarray(C, float)}, backend=backend
    )
