"""Lint targets: capture kernel and expression graphs for analysis.

``repro lint`` needs wired block lists to analyse.  Kernels build their
graphs inside their run functions, so this module runs each kernel over
small fixed-seed operands (the same seed-7 shapes the golden-structure
tests pin) under :func:`repro.graph.builder.capture_runs`, which
snapshots every block list the kernel launches.  The graphs run (on the
default engine unless one is named): that populates the channel token
counters the rate pass calibrates on and the busy counters
``--cross-validate`` reads, and multi-stage kernels (OuterSPACE) get the
real intermediate results their later stages read.

Expressions (``repro lint "x(i) = B(i,j) * c(j)"``) are compiled and
bound over synthetic operands exactly like ``repro graph``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..graph.builder import capture_runs
from ..graph.ir import SamGraph
from ..sim.backends import SimulationReport


class CapturedGraph(NamedTuple):
    """One captured simulation launch: label, blocks, its report, and
    the :class:`~repro.graph.ir.SamGraph` it bound."""

    label: str
    blocks: List
    report: Optional[SimulationReport]
    graph: SamGraph

    def measured_busy(self) -> Dict[str, int]:
        """Per-block measured busy cycles."""
        if self.report is None:
            return {}
        return {name: act["busy"]
                for name, act in self.report.block_activity().items()}


def _operands(seed: int = 7) -> Dict[str, np.ndarray]:
    """Small fixed-seed operands (mirrors the golden-structure tests)."""
    rng = np.random.default_rng(seed)

    def sparse(shape, density=0.4):
        dense = rng.uniform(0.5, 2.0, size=shape)
        return np.where(rng.random(shape) < density, dense, 0.0)

    return {
        "B10": sparse((10, 10)),
        "C10": sparse((10, 10)),
        "B8": sparse((8, 8)),
        "C8": sparse((8, 8)),
        "B6": sparse((6, 6)),
        "C6": sparse((6, 6)),
        "D86": rng.uniform(0.5, 2.0, size=(8, 6)),
        "C86": rng.uniform(0.5, 2.0, size=(8, 6)),
        "c10": rng.uniform(0.5, 2.0, size=10),
        "b32": sparse((32,)),
        "c32": sparse((32,)),
    }


def _run_spmv(ops, backend):
    from ..kernels.spmv import spmv_locate, spmv_scatter, spmv_program

    spmv_locate(ops["B10"], ops["c10"], backend=backend)
    spmv_scatter(ops["B10"], ops["c10"], backend=backend)
    spmv_program().run({"B": ops["B8"], "c": ops["c10"][:8]}, backend=backend)


def _run_gamma(ops, backend):
    from ..kernels.gamma import gamma_spmm

    gamma_spmm(ops["B8"], ops["C8"], lanes=3, backend=backend)


def _run_outerspace(ops, backend):
    from ..kernels.outerspace import outerspace_spmm

    outerspace_spmm(ops["B6"], ops["C6"], backend=backend)


def _run_elementwise(ops, backend):
    from ..kernels.elementwise import CONFIGS, vecmul

    for config in CONFIGS:
        vecmul(config, ops["b32"], ops["c32"], split=4, bits_per_word=8,
               backend=backend)


def _run_sddmm(ops, backend):
    from ..kernels.sddmm import (
        sddmm_fused_coiter,
        sddmm_fused_locate,
        sddmm_unfused,
    )

    sddmm_unfused(ops["B8"], ops["C86"], ops["D86"], backend=backend)
    sddmm_fused_coiter(ops["B8"], ops["C86"], ops["D86"], backend=backend)
    sddmm_fused_locate(ops["B8"], ops["C86"], ops["D86"], backend=backend)


def _run_spmm(ops, backend):
    from ..kernels.spmm import run_spmm

    run_spmm(ops["B8"], ops["C8"], order="ikj", backend=backend)
    run_spmm(ops["B8"], ops["C8"], order="kij", backend=backend)


#: the six kernels ``repro lint all`` (and CI) cover
KERNEL_RUNNERS: Dict[str, Callable] = {
    "spmv": _run_spmv,
    "gamma": _run_gamma,
    "outerspace": _run_outerspace,
    "elementwise": _run_elementwise,
    "sddmm": _run_sddmm,
    "spmm": _run_spmm,
}

#: (expression, schedule) pairs covering the lowering paths
#: ``repro lint`` checks in CI; None keeps the default schedule
EXPRESSION_TARGETS = (
    ("x(i) = B(i,j) * c(j)", None),
    ("A(i,j) = B(i,j) * C(i,j)", None),
    ("A(i,j) = B(i,k) * C(k,j)", ("i", "k", "j")),
    ("x(i) = b(i) + c(i)", None),
    ("s = b(i) * c(i)", None),
)


def capture_kernel(name: str, backend: Optional[str] = None,
                   seed: int = 7) -> List[CapturedGraph]:
    """Run kernel *name* under capture; one entry per launched graph."""
    runner = KERNEL_RUNNERS.get(name)
    if runner is None:
        raise KeyError(
            f"unknown kernel {name!r}; choose from {sorted(KERNEL_RUNNERS)}"
        )
    ops = _operands(seed)
    with capture_runs() as capture:
        runner(ops, backend)
    out = []
    for i, ((blocks, report), graph) in enumerate(zip(capture.runs, capture.graphs)):
        label = name if len(capture.runs) == 1 else f"{name}[{i}]"
        out.append(CapturedGraph(label, blocks, report, graph))
    return out


def capture_expression(expression: str, backend: Optional[str] = None,
                       size: int = 12, seed: int = 0,
                       schedule=None) -> List[CapturedGraph]:
    """Compile, bind and run an expression over synthetic operands."""
    from ..lang import compile_expression

    program = compile_expression(expression, schedule=schedule)
    rng = np.random.default_rng(seed)
    tensors: Dict[str, object] = {}
    for name in program.assignment.input_tensors:
        access = next(a for a in program.assignment.accesses
                      if a.tensor == name)
        ndim = len(access.indices)
        if ndim == 0:
            tensors[name] = 2.0
            continue
        shape = (size,) * ndim
        dense = rng.uniform(0.1, 1.0, size=shape)
        tensors[name] = np.where(rng.random(shape) < 0.5, dense, 0.0)
    with capture_runs() as capture:
        program.run(tensors, backend=backend)
    return [CapturedGraph(expression, blocks, report, graph)
            for (blocks, report), graph in zip(capture.runs, capture.graphs)]
