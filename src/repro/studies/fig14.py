"""Figure 14 reproduction: stream token-composition analysis.

Runs the matrix identity expression ``X(i,j) = B(i,j)`` (B a sparse DCSR
matrix) over the Table 3 matrix set and breaks the output coordinate
stream of each level scanner down by token type: non-control, stop,
done, and idle (cycles in which the scanner pushed nothing, dominant for
outer levels whose scanner finishes while inner levels keep streaming).

Paper headline numbers: average non-idle control overhead of 0.95% for
outer levels and 16.20% for inner levels; 83.32% of outer-level tokens
are idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..data.suitesparse import TABLE3
from ..formats.tensor import FiberTensor
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..lang import compile_expression
from ..sim.stats import TokenBreakdown, channel_breakdown


@dataclass
class Fig14Row:
    matrix: str
    nnz: int
    outer: TokenBreakdown
    inner: TokenBreakdown


def enumerate_specs(
    max_nnz: Optional[int] = 30000, seed: int = 0, backend: str = "cycle",
) -> List[ExperimentSpec]:
    """One spec per Table 3 matrix under the nnz cap (None = all 15).

    The spec point records how each matrix currently *resolves* (synthetic
    stand-in vs. a real ``.mtx`` in the data dir), so dropping a real
    file in changes the cache key — stale synthetic results are never
    replayed as if they were real-matrix measurements.
    """
    from ..data.registry import default_registry

    registry = default_registry()
    return [
        ExperimentSpec(
            "fig14",
            {"matrix": spec.name, "seed": seed,
             "source": registry.source(spec.name)},
            backend=backend,
        )
        for spec in TABLE3
        if max_nnz is None or spec.nnz <= max_nnz
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    """Token breakdown of the outer/inner scanner streams of one matrix."""
    from ..data.registry import default_registry

    matrix_spec = next(m for m in TABLE3 if m.name == spec.point["matrix"])
    program = compile_expression("X(i,j) = B(i,j)")
    scan_i = next(n for n in program.graph.nodes if n.endswith("_i"))
    scan_j = next(n for n in program.graph.nodes if n.endswith("_j"))
    # Registry-backed: a real .mtx in $REPRO_DATA_DIR wins over the
    # synthetic stand-in (see EXPERIMENTS.md "Datasets").  The spec's
    # recorded resolution must still hold at run time, otherwise the
    # measurement would be cached under the wrong source label.
    registry = default_registry()
    expected_source = spec.point.get("source")
    actual_source = registry.source(matrix_spec.name)
    if expected_source is not None and actual_source != expected_source:
        raise RuntimeError(
            f"dataset {matrix_spec.name!r} resolution changed mid-sweep "
            f"(spec says {expected_source}, now {actual_source}); rerun "
            f"the sweep so specs are re-enumerated"
        )
    matrix = registry.load_matrix(matrix_spec.name, seed=spec.point["seed"])
    # keep_zeros: a real file's explicit-zero entries are stored
    # coordinates and must appear in the measured streams (matching the
    # reported nnz); synthetic stand-ins have no zeros, so this is a
    # no-op for them.
    tensor = FiberTensor.from_scipy(matrix, name="B", keep_zeros=True)
    result = program.run(
        {"B": tensor}, record=(f"{scan_i}.crd", f"{scan_j}.crd"),
        backend=spec.backend,
    )
    outer = inner = None
    for channel in result.bound.channels.values():
        if not channel.record:
            continue
        breakdown = channel_breakdown(channel, total_cycles=result.cycles)
        if channel.name.startswith(scan_i):
            outer = breakdown
        elif channel.name.startswith(scan_j):
            inner = breakdown
    return {
        # The loaded matrix's actual nnz (equals the spec for synthetic
        # stand-ins; a real file reports what was really measured).
        "nnz": int(matrix.nnz),
        "outer": outer.to_dict(),
        "inner": inner.to_dict(),
    }


def rows_from_results(results: Sequence[ExperimentResult]) -> List[Fig14Row]:
    return [
        Fig14Row(r.spec.point["matrix"], r.payload["nnz"],
                 TokenBreakdown.from_dict(r.payload["outer"]),
                 TokenBreakdown.from_dict(r.payload["inner"]))
        for r in results
    ]


def run_fig14(
    max_nnz: Optional[int] = 30000, seed: int = 0,
    backend: Optional[str] = None,
) -> List[Fig14Row]:
    """Token breakdown per matrix (serial, uncached)."""
    from ..harness.runner import SweepRunner
    from ..sim.backends import resolve_backend

    specs = enumerate_specs(max_nnz=max_nnz, seed=seed,
                            backend=resolve_backend(backend))
    return rows_from_results(SweepRunner().run(specs).results)


def averages(rows: List[Fig14Row]) -> Dict[str, float]:
    """The paper's three headline percentages."""
    if not rows:
        return {}
    outer_control = sum(r.outer.control_overhead() for r in rows) / len(rows)
    inner_control = sum(r.inner.control_overhead() for r in rows) / len(rows)
    outer_idle = sum(r.outer.fractions()["idle"] for r in rows) / len(rows)
    return {
        "outer_nonidle_control_pct": 100.0 * outer_control,
        "inner_nonidle_control_pct": 100.0 * inner_control,
        "outer_idle_pct": 100.0 * outer_idle,
    }


def format_fig14(rows: List[Fig14Row]) -> str:
    header = (
        f"{'matrix':<14}{'nnz':>8} | "
        f"{'out idle%':>10}{'out stop%':>10}{'out data%':>10} | "
        f"{'in idle%':>9}{'in stop%':>9}{'in data%':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        of = row.outer.fractions()
        inf = row.inner.fractions()
        lines.append(
            f"{row.matrix:<14}{row.nnz:>8} | "
            f"{100*of['idle']:>10.2f}{100*of['stop']:>10.2f}{100*of['data']:>10.2f} | "
            f"{100*inf['idle']:>9.2f}{100*inf['stop']:>9.2f}{100*inf['data']:>9.2f}"
        )
    avg = averages(rows)
    lines.append("")
    lines.append(
        "averages: outer non-idle control "
        f"{avg['outer_nonidle_control_pct']:.2f}% (paper 0.95%), inner "
        f"{avg['inner_nonidle_control_pct']:.2f}% (paper 16.20%), outer idle "
        f"{avg['outer_idle_pct']:.2f}% (paper 83.32%)"
    )
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    return format_fig14(rows_from_results(results))


STUDY = Study(
    name="fig14",
    title="stream token composition (Figure 14)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=True,
    quick_options={"max_nnz": 200},
)
