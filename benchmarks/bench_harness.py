"""Wall-clock benchmark of the sweep harness, emitting JSON.

Measures, for a representative sweep (fig11 + table2 at reduced scale):

* ``serial``  — cold run, ``jobs=1``, no cache;
* ``sharded`` — cold run, ``jobs=N``, fresh cache (fan-out win);
* ``replay``  — warm rerun over the populated cache (cache win).

Asserts that sharded payloads are bit-identical to serial ones, that
the cold sharded pass created one file (its study's log) per study, and
reports the replay speedup (the acceptance bar is >= 5x; in practice it
is orders of magnitude).

Usage::

    PYTHONPATH=src python benchmarks/bench_harness.py [--jobs 4] [-o out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.harness import ResultCache, SweepRunner, get_study

#: (study, options) pairs forming the benchmark sweep
CASES = (
    ("fig11", {"size": 24, "k_sweep": (1, 4, 16)}),
    ("table2", {"distinct": 120, "total": 2000}),
)


def enumerate_all():
    specs = []
    for name, options in CASES:
        specs += get_study(name).enumerate(options=options)
    return specs


def timed_run(runner, specs):
    start = time.perf_counter()
    report = runner.run(specs)
    return time.perf_counter() - start, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)

    specs = enumerate_all()
    serial_s, serial = timed_run(SweepRunner(jobs=1), specs)

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        sharded_s, sharded = timed_run(
            SweepRunner(cache=cache, jobs=args.jobs), specs
        )
        files_created = sum(len(names) for _, _, names in os.walk(cache_dir))
        replay_s, replay = timed_run(
            SweepRunner(cache=cache, jobs=args.jobs), specs
        )

    mismatches = sum(
        1 for a, b in zip(serial.results, sharded.results)
        if a.payload != b.payload
    )
    assert mismatches == 0, f"{mismatches} sharded payloads differ from serial"
    assert replay.executed == 0, "replay run executed points despite warm cache"
    assert files_created == len(CASES), (
        f"the cold pass created {files_created} files for {len(CASES)} studies")

    summary = {
        "points": len(specs),
        "jobs": args.jobs,
        "cold_files_created": files_created,
        "serial_s": round(serial_s, 4),
        "sharded_s": round(sharded_s, 4),
        "replay_s": round(replay_s, 4),
        "sharded_speedup": round(serial_s / sharded_s, 2) if sharded_s else None,
        "replay_speedup": round(serial_s / replay_s, 2) if replay_s else None,
    }
    text = json.dumps(summary, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
