"""Figure 11 reproduction: fused vs. unfused SDDMM performance.

The paper sweeps the dense contraction depth K over {1, 10, 100} with a
95%-sparse uniform B and dense C, D of dimension I = J = 250, and plots
cycles for the unfused (factorized), fused-coiterating, and fused-
locating implementations.  The claims under test:

* unfused is far worse (it computes the whole dense GEMM);
* fused locating beats fused coiteration at small K, with the gap
  closing as the dense K loop starts to dominate.

Dimensions scale down by default so the cycle-level simulation finishes
in seconds; the shape is size-stable (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from ..data.synthetic import random_sparse_matrix
from ..harness.options import Option
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..kernels.sddmm import (
    sddmm_fused_coiter,
    sddmm_fused_locate,
    sddmm_reference,
    sddmm_unfused,
)

VARIANTS = ("unfused", "fused_locate", "fused_coiter")

_IMPLS = {
    "unfused": sddmm_unfused,
    "fused_locate": sddmm_fused_locate,
    "fused_coiter": sddmm_fused_coiter,
}


@dataclass
class Fig11Point:
    k: int
    variant: str
    cycles: int
    correct: bool


OPTIONS = (
    Option("size", int, 40, quick=12, low=1),
    Option("k_sweep", int, (1, 10, 100), quick=(1, 4), low=1, many=True),
    Option("sparsity", float, 0.95, low=0, high=1),
    Option("seed", int, 0, low=0),
)


def enumerate_specs(size: int, k_sweep: Sequence[int], sparsity: float,
                    seed: int, backend: str) -> List[ExperimentSpec]:
    """One spec per (K, variant) point of the Figure 11 sweep."""
    return [
        ExperimentSpec(
            "fig11",
            {"size": size, "k": k, "variant": variant,
             "sparsity": sparsity, "seed": seed},
            backend=backend,
        )
        for k in k_sweep
        for variant in VARIANTS
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    """Run one SDDMM variant at one K; seeded, so replayable anywhere."""
    p = spec.point
    size, k, seed = p["size"], p["k"], p["seed"]
    rng = np.random.default_rng(seed)
    B = random_sparse_matrix(size, size, 1.0 - p["sparsity"], seed=seed)
    # Dense inputs come from a fresh per-point RNG so a point's matrices
    # depend only on (seed, size, k) — never on sweep order or sharding.
    C = rng.uniform(0.1, 1.0, size=(size, k))
    D = rng.uniform(0.1, 1.0, size=(size, k))
    reference = sddmm_reference(B, C, D)
    result = _IMPLS[p["variant"]](B, C, D, backend=spec.backend)
    return {
        "cycles": int(result.cycles),
        "correct": bool(np.allclose(result.output, reference)),
    }


def points_from_results(results: Sequence[ExperimentResult]) -> List[Fig11Point]:
    return [
        Fig11Point(r.spec.point["k"], r.spec.point["variant"],
                   r.payload["cycles"], r.payload["correct"])
        for r in results
    ]


def format_fig11(points: List[Fig11Point]) -> str:
    ks = sorted({p.k for p in points})
    lines = [f"{'K':>6}" + "".join(f"{v:>16}" for v in VARIANTS)]
    lines.append("-" * len(lines[0]))
    for k in ks:
        row = f"{k:>6}"
        for variant in VARIANTS:
            cycles = next(p.cycles for p in points if p.k == k and p.variant == variant)
            row += f"{cycles:>16}"
        lines.append(row)
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    return format_fig11(points_from_results(results))


STUDY = Study(
    name="fig11",
    title="fused vs. unfused SDDMM (Figure 11)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=True,
    options=OPTIONS,
)
