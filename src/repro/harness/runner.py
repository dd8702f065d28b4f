"""Sharded sweep runner: fan sweep points out across worker processes.

The runner takes a list of :class:`ExperimentSpec` records, replays the
cached ones, shards the misses across a ``multiprocessing`` pool, and
persists every completed point immediately — so an interrupted sweep
resumes from where it stopped, and a repeated sweep is pure cache
replay.  Results come back in spec order regardless of worker count;
point execution is seeded and independent, so ``--jobs 1`` and
``--jobs N`` produce bit-identical payloads.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .spec import ExperimentResult, ExperimentSpec


def _execute_worker(task: Tuple[int, Dict[str, Any]]) -> Tuple[int, Dict[str, Any], float]:
    """Worker-side entry: rebuild the spec, run it, time it."""
    from .registry import execute_spec

    index, spec_dict = task
    spec = ExperimentSpec.from_dict(spec_dict)
    start = time.perf_counter()
    payload = execute_spec(spec)
    return index, payload, time.perf_counter() - start


def _pool_context():
    """Prefer fork (cheap, inherits sys.path); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call."""

    results: List[ExperimentResult] = field(default_factory=list)
    hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results)

    def summary(self) -> str:
        return (
            f"{self.total} points: {self.hits} cached, {self.executed} executed "
            f"in {self.elapsed_s:.2f}s"
        )


class SweepRunner:
    """Execute sweep points with caching and process-level sharding.

    ``jobs=1`` runs in-process (no pool overhead, easiest to debug);
    ``jobs>1`` shards cache misses across a worker pool.  ``force=True``
    ignores (and overwrites) cached entries.  ``cache=None`` disables
    persistence entirely.
    """

    def __init__(self, cache: Optional[ResultCache] = None, jobs: int = 1,
                 force: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.jobs = jobs
        self.force = force

    def run(self, specs: Sequence[ExperimentSpec]) -> SweepReport:
        start = time.perf_counter()
        report = SweepReport(results=[None] * len(specs))
        pending: List[Tuple[int, ExperimentSpec]] = []
        for index, spec in enumerate(specs):
            cached = None
            if self.cache is not None and not self.force:
                cached = self.cache.load(spec)
            if cached is not None:
                report.results[index] = cached
                report.hits += 1
            else:
                pending.append((index, spec))

        if pending:
            for index, result in self._execute(pending):
                if self.cache is not None:
                    self.cache.store(result)
                report.results[index] = result
                report.executed += 1

        report.elapsed_s = time.perf_counter() - start
        return report

    def _execute(self, pending: List[Tuple[int, ExperimentSpec]]):
        """Run every pending point through :func:`_execute_worker`, in
        this process or across a pool."""
        specs = dict(pending)
        tasks = [(index, spec.to_dict()) for index, spec in pending]
        if self.jobs == 1 or len(pending) == 1:
            yield from _results(specs, map(_execute_worker, tasks))
            return
        with _pool_context().Pool(processes=min(self.jobs, len(pending))) as pool:
            # Collect in completion order so every finished point reaches
            # the caller (and the cache) immediately; an interrupt loses
            # at most the points still in flight.
            yield from _results(specs, pool.imap_unordered(_execute_worker, tasks))


def _results(specs: Dict[int, ExperimentSpec], done):
    """``(index, ExperimentResult)`` per ``(index, payload, seconds)``."""
    for index, payload, elapsed in done:
        yield index, ExperimentResult(specs[index], payload, elapsed_s=elapsed)


def _flatten(payload: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten nested payload dicts into dotted CSV column names."""
    flat: Dict[str, Any] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def write_json_artifact(results: Sequence[ExperimentResult], path: str) -> str:
    """Write results as a JSON array of result records."""
    import json

    from .spec import _json_default

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump([r.to_dict() for r in results], handle, indent=1,
                  sort_keys=True, default=_json_default)
    return path


def write_csv_artifact(results: Sequence[ExperimentResult], path: str) -> str:
    """Write results as CSV: spec point columns + flattened payload."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    rows = []
    for result in results:
        row = {"study": result.spec.study, "backend": result.spec.backend}
        row.update(_flatten(dict(result.spec.point)))
        row.update(_flatten(result.payload))
        rows.append(row)
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path
