"""Figure 12 reproduction: SpM*SpM performance across dataflow orders.

The paper simulates all six ijk permutations on two distinct 95%-sparse
uniformly random matrices (I = J = 250, K = 100) and finds: inner
product (ijk, jik) worst; linear combination of rows (ikj, jki) and
outer product (kij, kji) at least an order of magnitude better, because
coordinates are intersected at k before being repeated along the other
dimensions.

Default dimensions are scaled down for quick runs; the ordering of the
three dataflow families is what the figure demonstrates and is
size-stable (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from ..data.synthetic import random_sparse_matrix
from ..harness.options import Option
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..kernels.spmm import FAMILY, ORDERS, run_spmm


@dataclass
class Fig12Point:
    order: str
    family: str
    cycles: int
    correct: bool


OPTIONS = (
    Option("i", int, 80, quick=20, low=1),
    Option("j", int, 80, quick=20, low=1),
    Option("k", int, 32, quick=10, low=1),
    Option("sparsity", float, 0.95, low=0, high=1),
    Option("seed", int, 0, low=0),
)


def enumerate_specs(i: int, j: int, k: int, sparsity: float, seed: int,
                    backend: str) -> List[ExperimentSpec]:
    """One spec per ijk permutation."""
    return [
        ExperimentSpec(
            "fig12",
            {"i": i, "j": j, "k": k, "order": order,
             "sparsity": sparsity, "seed": seed},
            backend=backend,
        )
        for order in ORDERS
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    p = spec.point
    B = random_sparse_matrix(p["i"], p["k"], 1.0 - p["sparsity"], seed=p["seed"])
    C = random_sparse_matrix(p["k"], p["j"], 1.0 - p["sparsity"], seed=p["seed"] + 1)
    result = run_spmm(B, C, p["order"], backend=spec.backend)
    return {
        "cycles": int(result.cycles),
        "family": FAMILY[p["order"]],
        "correct": bool(np.allclose(result.to_numpy(), B @ C)),
    }


def points_from_results(results: Sequence[ExperimentResult]) -> List[Fig12Point]:
    return [
        Fig12Point(r.spec.point["order"], r.payload["family"],
                   r.payload["cycles"], r.payload["correct"])
        for r in results
    ]


def family_means(points: List[Fig12Point]) -> Dict[str, float]:
    sums: Dict[str, List[int]] = {}
    for p in points:
        sums.setdefault(p.family, []).append(p.cycles)
    return {family: sum(vals) / len(vals) for family, vals in sums.items()}


def format_fig12(points: List[Fig12Point]) -> str:
    lines = [f"{'order':>6}{'cycles':>10}  family"]
    lines.append("-" * 44)
    for p in points:
        lines.append(f"{p.order:>6}{p.cycles:>10}  {p.family}")
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    return format_fig12(points_from_results(results))


STUDY = Study(
    name="fig12",
    title="SpM*SpM dataflow orders (Figure 12)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=True,
    options=OPTIONS,
)
