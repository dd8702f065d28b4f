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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..data.synthetic import blocks_vectors, runs_vectors, urandom_vector
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec, as_tuple
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


def enumerate_specs(
    size: int = 2000,
    nnz_sweep: Sequence[int] = (5, 10, 20, 50, 100, 200, 400, 800),
    nnz: int = 400,
    run_sweep: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    block_sweep: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    split: int = 50,
    bits_per_word: int = 64,
    seed: int = 0,
    sweeps: Sequence[str] = SWEEPS,
    backend: str = "cycle",
) -> List[ExperimentSpec]:
    """One spec per (sweep, x, config) point across the three sub-sweeps."""
    x_values = {"nnz": as_tuple(nnz_sweep), "run_length": as_tuple(run_sweep),
                "block_size": as_tuple(block_sweep)}
    return [
        ExperimentSpec(
            "fig13",
            {"sweep": sweep, "x": x, "config": config, "size": size, "nnz": nnz,
             "split": split, "bits_per_word": bits_per_word, "seed": seed},
            backend=backend,
        )
        for sweep in as_tuple(sweeps)
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


def _run_sweep(sweep: str, backend: Optional[str], **options) -> List[Fig13Point]:
    from ..harness.runner import SweepRunner
    from ..sim.backends import resolve_backend

    specs = enumerate_specs(sweeps=(sweep,), backend=resolve_backend(backend),
                            **options)
    return points_from_results(SweepRunner().run(specs).results)


def run_fig13a(
    size: int = 2000,
    nnz_sweep: Tuple[int, ...] = (5, 10, 20, 50, 100, 200, 400, 800),
    split: int = 50,
    bits_per_word: int = 64,
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[Fig13Point]:
    """(a) performance vs. sparsity of uniformly random vectors."""
    return _run_sweep("nnz", backend, size=size, nnz_sweep=nnz_sweep,
                      split=split, bits_per_word=bits_per_word, seed=seed)


def run_fig13b(
    size: int = 2000,
    nnz: int = 400,
    run_sweep: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    split: int = 50,
    bits_per_word: int = 64,
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[Fig13Point]:
    """(b) performance vs. run length of `runs` vectors."""
    return _run_sweep("run_length", backend, size=size, nnz=nnz,
                      run_sweep=run_sweep, split=split,
                      bits_per_word=bits_per_word, seed=seed)


def run_fig13c(
    size: int = 2000,
    nnz: int = 400,
    block_sweep: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    split: int = 50,
    bits_per_word: int = 64,
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[Fig13Point]:
    """(c) performance vs. block size of blocked vectors."""
    return _run_sweep("block_size", backend, size=size, nnz=nnz,
                      block_sweep=block_sweep, split=split,
                      bits_per_word=bits_per_word, seed=seed)


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
    quick_options={"size": 200, "nnz": 40, "split": 10,
                   "nnz_sweep": (10, 40), "run_sweep": (2, 20),
                   "block_sweep": (2, 8)},
)
