"""Figure 15 reproduction: the ExTensor synthetic-data study.

"SpM*SpM performance across varying dimension sizes with a constant
number of nonzeros per matrix", modelled with the finite-memory SAM
configuration of section 6.4: two-level hierarchy (17 MB LLB, 128x128 PE
tiles), 68.256 GB/s DRAM, hierarchical coordinate skipping, sparse tile
skipping, and n-buffering.

The paper's three regions: rising runtime at small dimensions (more
non-empty tiles), then falling runtime as sparse tile skipping kicks in,
then saturation.  On the paper's grid every nnz series shows the first
and only the 5 000-nnz series the second (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..data.synthetic import extensor_matrix
from ..harness.options import Option
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..memory.extensor import ExTensorResult, extensor_spmm_cycles

#: the paper's sweep: dimensions range(1024, 15721, 1336), nnz in
#: {5000, 10000, 25000, 50000}
PAPER_DIMENSIONS: Tuple[int, ...] = tuple(range(1024, 15721, 1336))
PAPER_NNZS: Tuple[int, ...] = (5000, 10000, 25000, 50000)

#: the ``--quick`` grid keeps the 5 000-nnz rise and fall
OPTIONS = (
    Option("dimensions", int, PAPER_DIMENSIONS,
           quick=(1024, 3696, 7704, 11712, 15720), low=1, many=True),
    Option("nnzs", int, PAPER_NNZS, quick=(5000, 10000), low=1, many=True),
    Option("seed", int, 0, low=0),
)


@dataclass
class Fig15Point:
    dimension: int
    nnz: int
    cycles: float
    result: ExTensorResult


def enumerate_specs(dimensions: Sequence[int], nnzs: Sequence[int],
                    seed: int) -> List[ExperimentSpec]:
    """One spec per (dimension, nnz) point; the model is analytic, so
    no simulation backend enters the cache key."""
    return [
        ExperimentSpec("fig15", {"dimension": dim, "nnz": nnz, "seed": seed})
        for nnz in nnzs
        for dim in dimensions
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    p = spec.point
    B = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"])
    C = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"] + 1)
    result = extensor_spmm_cycles(B, C, None)
    return asdict(result)


def points_from_results(results: Sequence[ExperimentResult]) -> List[Fig15Point]:
    return [
        Fig15Point(r.spec.point["dimension"], r.spec.point["nnz"],
                   r.payload["cycles"], ExTensorResult(**r.payload))
        for r in results
    ]


def regions(points: List[Fig15Point], nnz: int) -> Tuple[bool, bool]:
    """Check the rise-then-fall shape for one nnz series."""
    series = sorted(
        [p for p in points if p.nnz == nnz], key=lambda p: p.dimension
    )
    cycles = [p.cycles for p in series]
    if len(cycles) < 3:
        return False, False
    peak = cycles.index(max(cycles))
    rises = peak > 0 or cycles[0] < max(cycles)
    falls = cycles[-1] < max(cycles)
    return rises, falls


def format_fig15(points: List[Fig15Point]) -> str:
    dims = sorted({p.dimension for p in points})
    nnzs = sorted({p.nnz for p in points})
    lines = [f"{'dim':>7}" + "".join(f"{f'{n} nnz':>16}" for n in nnzs)]
    lines.append("-" * len(lines[0]))
    for dim in dims:
        row = f"{dim:>7}"
        for nnz in nnzs:
            cycles = next(
                p.cycles for p in points if p.dimension == dim and p.nnz == nnz
            )
            row += f"{cycles:>16.0f}"
        lines.append(row)
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    return format_fig15(points_from_results(results))


STUDY = Study(
    name="fig15",
    title="ExTensor recreation (Figure 15)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=False,
    options=OPTIONS,
)
