"""Figure 13 reproduction: iteration acceleration techniques.

Element-wise sparse-vector multiply over size-2000 vectors in six
configurations (Dense, Crd, Crd+skip, Crd+split, BV, BV+split), swept
three ways exactly as in section 6.3:

* (a) nonzeros of uniformly random vectors (performance vs. sparsity);
* (b) run length of `runs` vectors (coordinate skipping's best case);
* (c) block size of `blocks` vectors.

The paper's parameters: vectors of dimension 2000; for runs/blocks, 400
nonzeros (20%); bitvector width b = 64; split factor s = 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..data.synthetic import blocks_vectors, runs_vectors, urandom_vector
from ..harness.options import Option
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..kernels.elementwise import CONFIGS, vecmul

#: the three sub-sweeps of section 6.3, in figure order
SWEEPS = ("nnz", "run_length", "block_size")


@dataclass
class Fig13Point:
    sweep: str  # "nnz" | "run_length" | "block_size"
    x: int
    config: str
    cycles: int
    correct: bool


def _vectors(sweep: str, x: int, size: int, nnz: int, seed: int):
    """The b, c input pair for one sweep point."""
    if sweep == "nnz":
        return urandom_vector(size, x, seed=seed), urandom_vector(size, x, seed=seed + 1)
    if sweep == "run_length":
        return runs_vectors(size, nnz, x, seed=seed)
    if sweep == "block_size":
        return blocks_vectors(size, nnz, x, seed=seed)
    raise ValueError(f"unknown fig13 sweep {sweep!r}")


#: vectors of ``size``; (a) sweeps the nonzeros of each, (b) and (c)
#: the run and block length at ``nnz`` nonzeros (no more than ``size``:
#: then no two blocks overlap)
OPTIONS = (
    Option("size", int, 2000, quick=200, low=1),
    Option("nnz_sweep", int, (5, 10, 20, 50, 100, 200, 400, 800),
           quick=(10, 40), low=1, high="size", many=True),
    Option("nnz", int, 400, quick=40, low=1, high="size"),
    Option("run_sweep", int, (1, 2, 4, 8, 16, 32, 64, 128), quick=(2, 20),
           low=1, many=True),
    Option("block_sweep", int, (1, 2, 4, 8, 16, 32, 64), quick=(2, 8),
           low=1, high="size", many=True),
    Option("split", int, 50, quick=10, low=1),
    Option("bits_per_word", int, 64, low=1),
    Option("seed", int, 0, low=0),
    Option("sweeps", str, SWEEPS, choices=SWEEPS, many=True),
)


def enumerate_specs(
    size: int, nnz_sweep: Sequence[int], nnz: int, run_sweep: Sequence[int],
    block_sweep: Sequence[int], split: int, bits_per_word: int, seed: int,
    sweeps: Sequence[str], backend: str,
) -> List[ExperimentSpec]:
    """One spec per (sweep, x, config) point across the three sub-sweeps."""
    x_values = {"nnz": nnz_sweep, "run_length": run_sweep,
                "block_size": block_sweep}
    return [
        ExperimentSpec(
            "fig13",
            {"sweep": sweep, "x": x, "config": config, "size": size, "nnz": nnz,
             "split": split, "bits_per_word": bits_per_word, "seed": seed},
            backend=backend,
        )
        for sweep in sweeps
        for x in x_values[sweep]
        for config in CONFIGS
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    p = spec.point
    b, c = _vectors(p["sweep"], p["x"], p["size"], p["nnz"], p["seed"])
    result = vecmul(p["config"], b, c, split=p["split"],
                    bits_per_word=p["bits_per_word"], backend=spec.backend)
    return {
        "cycles": int(result.cycles),
        "correct": bool(result.check_against(b, c)),
    }


def points_from_results(results: Sequence[ExperimentResult]) -> List[Fig13Point]:
    return [
        Fig13Point(r.spec.point["sweep"], r.spec.point["x"], r.spec.point["config"],
                   r.payload["cycles"], r.payload["correct"])
        for r in results
    ]


def format_fig13(points: List[Fig13Point]) -> str:
    xs = sorted({p.x for p in points})
    sweep = points[0].sweep if points else "?"
    lines = [f"{sweep:>12}" + "".join(f"{c:>11}" for c in CONFIGS)]
    lines.append("-" * len(lines[0]))
    for x in xs:
        row = f"{x:>12}"
        for config in CONFIGS:
            cycles = next(p.cycles for p in points if p.x == x and p.config == config)
            row += f"{cycles:>11}"
        lines.append(row)
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    points = points_from_results(results)
    parts = []
    for sweep in SWEEPS:
        subset = [p for p in points if p.sweep == sweep]
        if subset:
            parts.append(format_fig13(subset))
    return "\n\n".join(parts)


STUDY = Study(
    name="fig13",
    title="iteration acceleration structures (Figure 13)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=True,
    options=OPTIONS,
)
