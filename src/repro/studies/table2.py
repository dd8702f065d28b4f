"""Table 2 reproduction: algorithms lost when a SAM primitive is removed.

The paper analyses 23,794 TACO-website algorithms (3,839 distinct).  We
run the same ablation over the synthetic corpus described in
EXPERIMENTS.md: compile every distinct algorithm, then for each removal
scenario count how many algorithms become inexpressible, both over
distinct algorithms ("Unique") and weighted by usage ("All").

The corpus compile pass is the slow path; under the sweep harness each
removal scenario is one sweep point and every worker process compiles
the corpus once (:func:`repro.data.corpus.compiled_corpus` memoizes it),
so ``repro sweep table2 --jobs N`` splits the twelve scenarios N ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..data.corpus import Corpus, compiled_corpus
from ..harness.options import Option
from ..harness.registry import Study
from ..harness.spec import ExperimentResult, ExperimentSpec
from ..lang import TABLE2_SCENARIOS, lost_without

#: the paper's published percentages (unique %, all %) per scenario
PAPER_PERCENTAGES: Dict[str, Tuple[float, float]] = {
    "comp_level_scanner": (72.23, 81.38),
    "comp_and_uncomp_level_scanners": (99.35, 99.66),
    "repeater": (82.37, 83.74),
    "unioner": (15.63, 9.37),
    "intersecter_keep_locator": (18.75, 11.41),
    "intersecter_with_locator_removed": (48.92, 66.31),
    "adder": (26.65, 13.1),
    "multiplier": (83.88, 88.2),
    "reducer": (78.35, 84.21),
    "coordinate_dropper": (16.07, 9.63),
    "comp_level_writer": (28.0, 23.22),
    "comp_and_uncomp_level_writers": (96.33, 97.76),
}


@dataclass
class Table2Row:
    scenario: str
    lost_unique: int
    lost_all: int
    pct_unique: float
    pct_all: float
    paper_pct_unique: float
    paper_pct_all: float


def _ablate(corpus: Corpus, programs: Sequence, scenario: str) -> Tuple[int, int]:
    """Count algorithms lost (distinct, usage-weighted) for one scenario;
    *programs* are the corpus entries' compiled programs, in entry order."""
    lost_unique = 0
    lost_all = 0
    for entry, program, count in zip(corpus.entries, programs, corpus.counts):
        if lost_without(program, scenario, entry.output_format):
            lost_unique += 1
            lost_all += count
    return lost_unique, lost_all


#: ``distinct`` scales the corpus (the paper's full 3,839 works too but
#: takes a few minutes; the percentages are stable beyond a few hundred
#: entries because they are ratios); ``total`` weights it (>= one use each)
OPTIONS = (
    Option("distinct", int, 400, quick=40, low=1),
    Option("total", int, 23794, quick=500, low="distinct"),
    Option("seed", int, 0, low=0),
)


def enumerate_specs(distinct: int, total: int, seed: int) -> List[ExperimentSpec]:
    """One spec per removal scenario (compile-only: no backend)."""
    return [
        ExperimentSpec(
            "table2",
            {"scenario": scenario, "distinct": distinct, "total": total,
             "seed": seed},
        )
        for scenario in TABLE2_SCENARIOS
    ]


def execute(spec: ExperimentSpec) -> Dict[str, Any]:
    p = spec.point
    corpus, programs = compiled_corpus(
        total=p["total"], distinct_target=p["distinct"], seed=p["seed"]
    )
    lost_unique, lost_all = _ablate(corpus, programs, p["scenario"])
    return {
        "lost_unique": lost_unique,
        "lost_all": lost_all,
        "corpus_distinct": corpus.distinct,
        "corpus_total": corpus.total,
    }


def rows_from_results(results: Sequence[ExperimentResult]) -> List[Table2Row]:
    rows = []
    for result in results:
        scenario, p = result.spec.point["scenario"], result.payload
        rows.append(Table2Row(
            scenario, p["lost_unique"], p["lost_all"],
            100.0 * p["lost_unique"] / p["corpus_distinct"],
            100.0 * p["lost_all"] / p["corpus_total"],
            *PAPER_PERCENTAGES[scenario]))
    return rows


def format_table2(rows: List[Table2Row]) -> str:
    header = (
        f"{'SAM Primitive Removed':<36}{'Unique':>8}{'All':>8}"
        f"{'Uniq%':>8}{'All%':>8}{'paper U%':>10}{'paper A%':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scenario:<36}{row.lost_unique:>8}{row.lost_all:>8}"
            f"{row.pct_unique:>8.2f}{row.pct_all:>8.2f}"
            f"{row.paper_pct_unique:>10.2f}{row.paper_pct_all:>10.2f}"
        )
    return "\n".join(lines)


def render(results: Sequence[ExperimentResult]) -> str:
    return format_table2(rows_from_results(results))


STUDY = Study(
    name="table2",
    title="primitive-removal ablation (Table 2)",
    enumerate_fn=enumerate_specs,
    execute_fn=execute,
    render_fn=render,
    uses_backend=False,
    options=OPTIONS,
)
