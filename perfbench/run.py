#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer, four workloads.

Two ways in, one measurement:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (the contract in
    ``BENCHMARK.json``).  Sets the workload up, runs its op list in a
    single-process closed loop for ``S`` seconds, checks every output
    against an independent reference and prints one JSON object as the
    last line: the end-to-end metrics (``--trace 0``) or the per-layer
    metrics of a traced run (``--trace 1``).

``python3 perfbench/run.py [--seed 7] [--workload W] [--repeat R] [--out DIR]``
    The whole suite (any call without ``--seconds``): each workload in
    fresh subprocesses of the first form (so peak RSS, the plan cache,
    ``code_version()`` and every per-process memo start empty), every
    metric printed by name with its unit, and ``results.json`` plus
    ``trace-<workload>.json`` written to ``DIR`` for ``compare.py``.

Everything is timed from outside, around calls into public functions of
``src/repro``; ``REPRO_JIT`` is left as found and the tier that
``repro.jit.jit_stats()`` resolved is recorded.  End-to-end seconds are
CPU seconds of the run's process at the reference host speed
(``calibrate.py``); spans and per-layer seconds are raw wall seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import metrics  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

#: traced ops that are followed by the duplicate-work probes
PROBE_OPS = 2
#: fresh processes that repeat the set-up, beside this one's own
SETUP_CHILDREN = 2
#: calibration samples taken right after set-up, beside those taken during
#: it, to normalise its time
SETUP_CALIBRATION = 5


def percentile_hi(times: List[float]):
    """The highest percentile with at least ten samples beyond it.

    With fewer than 22 samples no percentile above the median has ten
    samples beyond it, and the value collapses to the median.
    Returns ``(value, percentile)``.
    """
    ordered = sorted(times)
    index = len(ordered) - 11
    if index < len(ordered) / 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Run:
    """One workload, set up once and measured once, in this process."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        clock = time.process_time
        started = clock()
        # imported here so that loading repro and numpy lands in set-up time
        from repro.jit import PLAN_CACHE, warmup

        from perfbench import calibrate, workloads

        self.plan_cache = PLAN_CACHE
        self.seed = seed
        self.tr = Tracer()
        #: CPU seconds the calibrator takes out of the set-up
        calibration_s = -clock()
        self.cal = calibrate.Calibrator()
        calibration_s += clock()

        def sample() -> None:
            # The host's speed changes within a second or two, so the
            # set-up is sampled while it runs, not only after it (sizing:
            # spread of setup_s over 14 set-ups 10 % -> 6 %, 8.3 % -> 7.7 %).
            nonlocal calibration_s
            if not smoke:
                with self.tr.span("calibration"):
                    calibration_s -= clock()
                    self.cal.sample()
                    calibration_s += clock()

        os.makedirs(WORK, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            with self.tr.span("setup"):
                with self.tr.span("jit.warmup_s"):
                    warmup()
                sample()
                self.wl = workloads.BY_NAME[name](seed, self.workdir, smoke)
                self.wl.setup(self.tr)
                sample()
                # Warm-up: one pass over the op list.  First plan-cache
                # fill, lazy imports, page cache; its cycles are what
                # every later repetition of the same op must report.
                self.expected = {}
                for k in range(self.wl.n_ops):
                    self.expected[k] = self.wl.check(k, self.wl.op(k)).cycles
                    sample()
        except BaseException:
            self.close()
            raise
        setup_cpu_s = clock() - started - calibration_s
        for _ in range(1 if smoke else SETUP_CALIBRATION):
            self.cal.sample()
        #: CPU seconds of the set-up at reference host speed
        self.setup_s = setup_cpu_s * self.cal.speed()
        #: per untraced op: wall seconds (what the spans are compared
        #: with) and CPU seconds (what the end-to-end metrics are made of)
        self.times: List[float] = []
        self.cpu_times: List[float] = []
        self.attempted = self.failed = 0
        #: per op index, the exact counts of its first traced execution
        self.exact: Dict[int, Dict[str, float]] = {}
        #: layer numbers the untraced op's own result carries, per op
        self.carried: Dict[str, List[float]] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only if no other run is using it
        except OSError:
            pass

    # -- the closed loop ---------------------------------------------------
    def _judge(self, k: int, verdict) -> None:
        if not (verdict.ok and verdict.cycles == self.expected[k]):
            self.failed += 1

    def _untraced(self, k: int) -> None:
        self.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = self.wl.op(k)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.cpu_times.append(time.process_time() - cpu_start)
        self.times.append(time.perf_counter() - start)
        verdict = self.wl.check(k, out)
        self._judge(k, verdict)
        for key, value in verdict.counts.items():
            self.carried.setdefault(key, []).append(value)

    def _traced(self, i: int, k: int) -> None:
        self.attempted += 1
        self.tr.op = i
        try:
            with self.tr.span("op"):
                verdict = self.wl.traced(k, self.tr)
            counts = dict(verdict.counts)
            if i < PROBE_OPS * self.wl.n_ops:
                with self.tr.span("probes"):
                    counts.update(self.wl.probes(k, self.tr))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self._judge(k, verdict)
        first = self.exact.setdefault(k, counts)
        if any(first[key] != value for key, value in counts.items()):
            self.failed += 1  # a simulated statistic changed between repetitions

    def measure(self, seconds: Optional[float], ops: Optional[int],
                trace: bool) -> None:
        """Run the op list for *seconds* (or exactly *ops* ops): one op at
        a time, the next only after the previous one has been checked and
        the host's speed sampled.  A traced run alternates the untraced
        and the traced form of each op, so both see the same machine."""
        self.plan_before = self.plan_cache.snapshot()
        self.first_sample = len(self.cal.samples)
        gc.collect()
        start = time.perf_counter()
        i = 0
        while (i < ops) if seconds is None else (time.perf_counter() - start < seconds):
            k = i % self.wl.n_ops
            self._untraced(k)
            self.cal.sample()
            if trace:
                self._traced(i, k)
            i += 1
        #: host speed while the ops ran; scales their CPU seconds
        self.speed = self.cal.speed(self.first_sample)

    # -- metrics -----------------------------------------------------------
    def end_to_end(self, setup_samples: List[float]) -> Dict[str, float]:
        return {
            "op_s.p50": statistics.median(self.cpu_times) * self.speed,
            "op_s.hi": percentile_hi(self.cpu_times)[0] * self.speed,
            "ops_per_s": len(self.cpu_times) / (sum(self.cpu_times) * self.speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_samples),
        }

    def per_layer(self) -> Dict[str, float]:
        tr = self.tr
        out = {m.name: tr.median_seconds(m.name) if m.unit == "s" else 0.0
               for m in metrics.PER_LAYER}
        for key, values in self.carried.items():
            out[key] = statistics.median(values)
        for counts in self.exact.values():  # summed over one pass of the op list
            for key, value in counts.items():
                out[key] += value
        if out["sim.total_blocks"]:
            out["sim.fused_ratio"] = out["sim.fused_blocks"] / out["sim.total_blocks"]
        out["data.read_mtx_nnz_per_s"] = tr.rate("data.read_mtx_s", "nnz")
        out["formats.from_coords_nnz_per_s"] = tr.rate("formats.from_coords_s", "nnz")
        out["sim.cycles_per_s.compiled"] = tr.rate("sim.run_s.compiled", "cycles")
        out["sim.tokens_per_s.compiled"] = tr.rate("sim.run_s.compiled", "tokens")
        out["memory.extensor_pairs_per_s"] = tr.rate("memory.extensor_s", "pairs")
        after = self.plan_cache.snapshot()
        hits = after["hits"] - self.plan_before["hits"]
        misses = after["misses"] - self.plan_before["misses"]
        out["jit.plan_hits"], out["jit.plan_misses"] = hits, misses
        out["jit.plan_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["host.speed"] = self.speed
        out["host.calibration_s"] = self.cal.seconds(self.first_sample)
        op_spans = tr.named("op")
        if op_spans and self.times:
            untraced = out["host.op_wall_s.p50"] = statistics.median(self.times)
            own = tr.self_seconds()
            out["trace.overhead_ratio"] = statistics.median(
                s.seconds for s in op_spans) / untraced
            out["trace.coverage"] = statistics.median(
                s.seconds - own[s.index] for s in op_spans) / untraced
        return out


def setup_in_children(name: str, seed: int, count: int) -> List[float]:
    """Set-up time of *count* fresh processes (imports and first-call
    costs included each time), so the median is not the warm repeat."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(name: str, seed: int, *, seconds: Optional[float] = None,
                 ops: Optional[int] = None, trace: bool = False,
                 smoke: bool = False, corrupt: bool = False,
                 setup_children: int = SETUP_CHILDREN,
                 trace_file: Optional[str] = None) -> Dict[str, Any]:
    """Set up, measure and summarise one workload; the full record."""
    from perfbench import probes
    from perfbench.env import fingerprint

    run = Run(name, seed, smoke)
    try:
        if corrupt:
            run.wl.corrupt_reference()
        if trace:
            run.tr.op = "probes"
            probes.stream_kernels(run.tr, seed, smoke)
            probes.cli_startup(run.tr, SRC)
        run.measure(seconds, ops, trace)
        setup_samples = [run.setup_s] + setup_in_children(name, seed, setup_children)
        record = {
            "workload": name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "smoke": smoke,
            "attempted": run.attempted, "failed": run.failed,
            "failed_share": run.failed / max(run.attempted, 1),
            "samples": len(run.times), "distinct_ops": run.wl.n_ops,
            "sim_cycles": sum(run.expected.values()),
            "setup_samples_s": setup_samples,
            "end_to_end": run.end_to_end(setup_samples) if run.times else {},
            "per_layer": run.per_layer() if trace else {},
            "fingerprint": fingerprint(ROOT, seed),
        }
        if run.times:
            record["hi_percentile"] = percentile_hi(run.times)[1]
            # what was divided out, and what a user on this host saw
            record["host"] = {
                "speed": run.speed, "op_cpu_s": run.cpu_times,
                "op_wall_s": run.times, "calibration_s": run.cal.samples,
            }
        if trace_file:
            run.tr.dump(trace_file, {k: record[k] for k in
                                     ("workload", "seed", "fingerprint")})
        return record
    finally:
        run.close()


def contract_line(record: Dict[str, Any]) -> str:
    """The one JSON object ``BENCHMARK.json``'s contract asks for."""
    chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": metrics.BY_NAME[name].unit}
                    for name, value in chosen.items()},
    })


def print_metrics(record: Dict[str, Any]) -> None:
    name = record["workload"]
    for group in ("end_to_end", "per_layer"):
        for metric, value in record[group].items():
            note = ""
            if metric == "op_s.hi":
                note = (f"  (p{record['hi_percentile']:.0f} of "
                        f"{record['samples']} samples)")
            print(f"{name:12} {metric:34} {value:16.6g} "
                  f"{metrics.BY_NAME[metric].unit}{note}")
    print(f"{name:12} {'failed_share':34} {record['failed_share']:16.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} ops)")
    print(f"{name:12} {'sim_cycles':34} {record['sim_cycles']:16.6g} cycles")


# -- the suite ---------------------------------------------------------------


def suite(args) -> int:
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    results: Dict[str, Any] = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for name in names:
        runs = []
        # R untraced runs for the end-to-end numbers, then one traced run
        for trace in [0] * args.repeat + [1]:
            detail = os.path.join(out, f".detail-{name}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--detail", detail]
            if trace:
                command += ["--trace-file", os.path.join(out, f"trace-{name}.json")]
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            with open(detail) as handle:
                runs.append(json.load(handle))
            os.unlink(detail)
            print_metrics(runs[-1])
            failed += runs[-1]["failed"]
        results["workloads"][name] = {"runs": runs[:-1], "traced": runs[-1]}
        results["fingerprint"] = runs[-1]["fingerprint"]
    path = os.path.join(out, "results.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload in this process for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: untraced runs per workload")
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench-results"),
                        help="suite: directory for results.json and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload here, reduced sizes, two ops each")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        run = Run(args.workload, args.seed)
        run.close()
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    if args.smoke:
        failed = 0
        for name in [args.workload] if args.workload else list(metrics.WORKLOADS):
            record = run_workload(name, args.seed, ops=2, trace=True, smoke=True,
                                  setup_children=0)
            print_metrics(record)
            failed += record["failed"]
        return 1 if failed else 0
    if args.seconds is None:
        return suite(args)
    if not args.workload:
        parser.error("--seconds measures one workload: name it with --workload")
    record = run_workload(args.workload, args.seed, seconds=args.seconds,
                          trace=bool(args.trace), trace_file=args.trace_file)
    print_metrics(record)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(record, handle)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
