"""The benchmark's metric and workload registry.

One place names every workload, every end-to-end metric (with the bound
by which it may worsen) and every per-layer metric (with its unit), so
``run.py``, ``compare.py``, the smoke test and ``BENCHMARK.json`` cannot
drift apart.  A layer is a module name under ``src/repro/``.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> why it was chosen (one line; the README has the long form)
WORKLOADS: Dict[str, str] = {
    "mtx_spmv": "read_mtx -> from_coords -> spmv_locate on 2e5-nnz files: "
                "ingest (data+formats) is ~90% of the op, the engine sees one huge window",
    "gamma_spmm": "gamma_spmm on 500x500 density-0.02 operands: >95% engine, "
                  "27 of 67 blocks unfused, ingest work must not move it",
    "table1_mix": "compile+run the twelve Table-1 expressions on tiny operands: "
                  "thousands of tiny windows, fixed per-call costs are the bill",
    "sweep_quick": "cold SweepRunner pass + warm replay over every study's quick "
                   "grid: the only path through harness, studies and memory",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                    # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end only: allowed relative worsening
    exact: bool = False            # simulated statistic: must repeat exactly


#: What a user of the simulator sees.  Seconds are CPU seconds of the
#: run's process scaled to the reference host speed (``calibrate.py``):
#: raw wall-clock on the shared 2-core sandbox drifts by 20-50 % between
#: identical runs (README, "Noise").  What is left after scaling still
#: spreads by 5-9 %, hence the wide bounds on the timing rows.
END_TO_END: List[Metric] = [
    Metric("op_s.p50", "s", "lower", 0.25),
    Metric("op_s.hi", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
]


def _layer(names: str, unit: str, better: str = "lower",
           exact: bool = False) -> List[Metric]:
    return [Metric(n, unit, better, None, exact) for n in names.split()]


ENGINES = ("cycle", "event", "timed-batch", "compiled", "functional",
           "functional-seq")
STUDIES = ("table1", "table2", "fig11", "fig12", "fig13", "fig14", "fig15")
STREAM_KERNELS = ("rate1_schedule", "compose_rate1", "segment_sums",
                  "exact_segment_sums")

#: ``_s`` = median host seconds per call.  A value of 0 means the
#: workload never enters that layer (or the engine no longer exists).
PER_LAYER: List[Metric] = (
    _layer("data.read_mtx_s data.write_mtx_s data.synthetic_s", "s")
    + _layer("data.read_mtx_nnz_per_s", "1/s", "higher")
    + _layer("formats.from_coords_s formats.from_numpy_s formats.to_numpy_s", "s")
    + _layer("formats.from_coords_nnz_per_s", "1/s", "higher")
    + _layer("lang.parse_s lang.schedule_s lang.lower_s lang.compile_s", "s")
    + _layer("lang.ir_nodes lang.ir_edges", "count", exact=True)
    + _layer("graph.build_s graph.bind_s graph.validate_s graph.partition_s "
             "graph.plan_key_s", "s")
    + _layer("graph.blocks graph.segments", "count", exact=True)
    + _layer("jit.warmup_s", "s")
    + _layer("jit.plan_hits", "count", "higher")
    + _layer("jit.plan_misses", "count")
    + _layer("jit.plan_hit_ratio", "ratio", "higher")
    + _layer(" ".join(f"streams.{k}_s streams.{k}_small_s"
                      for k in STREAM_KERNELS), "s")
    + _layer(" ".join(f"sim.run_s.{e}" for e in ENGINES), "s")
    + _layer("sim.cycles_per_s.compiled sim.tokens_per_s.compiled", "1/s",
             "higher")
    + _layer("sim.report_s", "s")
    + _layer("sim.cycles", "cycles", exact=True)
    + _layer("sim.fused_blocks", "count", "higher", exact=True)
    + _layer("sim.total_blocks sim.fallbacks", "count", exact=True)
    + _layer("sim.fused_ratio", "ratio", "higher", exact=True)
    + _layer("blocks.busy_cycles blocks.stall_cycles", "cycles", exact=True)
    + _layer("blocks.tokens", "count", exact=True)
    + _layer(" ".join(f"studies.{s}.cold_s" for s in STUDIES), "s")
    + _layer("harness.cold_overhead_s harness.store_s harness.load_s "
             "harness.warm_pass_s harness.code_version_s", "s")
    + _layer("harness.hit_ratio", "ratio", "higher")
    + _layer("harness.cache_bytes", "bytes")
    + _layer("memory.extensor_s", "s")
    + _layer("memory.extensor_pairs_per_s", "1/s", "higher")
    + _layer("cli.startup_s", "s")
    + _layer("host.speed", "ratio", "higher")
    + _layer("host.calibration_s host.op_wall_s.p50", "s")
    + _layer("trace.overhead_ratio trace.coverage", "ratio")
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(command: List[str], run_seconds: int) -> dict:
    """The contents of ``BENCHMARK.json`` implied by this registry."""
    return {
        "command": command,
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
