#!/usr/bin/env python3
"""Compare two result sets of ``run.py``: ``compare.py A B``.

``A`` is the base, ``B`` the candidate; each is a ``results.json`` (or
the directory holding one).  One row per (workload, metric):

* every end-to-end metric, with both medians, the ratio ``B/A`` (base
  ``A``), the bound the benchmark fixed and a verdict: ``ok``,
  ``regressed`` (``B``'s median is worse than ``A``'s by more than the
  bound) or ``unresolved`` (the spread between ``A``'s own runs, the
  distance between their quartiles over their median, is wider than the
  bound, unless every run of ``B`` reads better than every run of ``A``);
* ``failed_share``, bound 0: any failed op in ``B`` is a regression;
* every simulated statistic (``sim_cycles``, ``blocks.*``,
  ``sim.fused_*`` ...), which must repeat exactly.

Runs whose resolved JIT tier or seed differ are not comparable and are
refused.  Exit status 1 on any ``regressed`` row, 2 on a refusal.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402


def load(path: str) -> dict:
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path) as handle:
        return json.load(handle)


def spread(values: List[float]) -> float:
    """Interquartile distance over the median; 0 with fewer than 2 runs."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(metric: metrics.Metric, a: List[float], b: List[float]
            ) -> Tuple[float, float, float, str]:
    """``(median A, median B, B/A, verdict)`` for one end-to-end metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (ratio - 1.0)
    all_better = (max(b) < min(a)) if metric.better == "lower" else (min(b) > max(a))
    if spread(a) > metric.bound and not all_better:
        return med_a, med_b, ratio, "unresolved"
    return med_a, med_b, ratio, "regressed" if worse_by > metric.bound else "ok"


def compare(base: dict, cand: dict) -> List[Tuple]:
    """Rows ``(workload, metric, A, B, ratio, bound, verdict)``."""
    rows: List[Tuple] = []
    for name in metrics.WORKLOADS:
        wa, wb = base["workloads"].get(name), cand["workloads"].get(name)
        if not wa or not wb:
            continue
        for metric in metrics.END_TO_END:
            a = [r["end_to_end"][metric.name] for r in wa["runs"]]
            b = [r["end_to_end"][metric.name] for r in wb["runs"]]
            med_a, med_b, ratio, word = verdict(metric, a, b)
            rows.append((name, metric.name, med_a, med_b, ratio, metric.bound, word))
        every_a, every_b = wa["runs"] + [wa["traced"]], wb["runs"] + [wb["traced"]]
        share_a = max(r["failed_share"] for r in every_a)
        share_b = max(r["failed_share"] for r in every_b)
        rows.append((name, "failed_share", share_a, share_b, None, 0.0,
                     "regressed" if share_b > 0 else "ok"))
        exact: Dict[str, Tuple[float, float]] = {
            "sim_cycles": (wa["traced"]["sim_cycles"], wb["traced"]["sim_cycles"])}
        for metric in metrics.PER_LAYER:
            if metric.exact:
                exact[metric.name] = (wa["traced"]["per_layer"][metric.name],
                                      wb["traced"]["per_layer"][metric.name])
        for metric_name, (a1, b1) in exact.items():
            rows.append((name, metric_name, a1, b1, None, 0.0,
                         "ok" if a1 == b1 else "regressed"))
    return rows


def refusal(base: dict, cand: dict) -> str:
    """Why the two sets cannot be compared, or ''."""
    if base["seed"] != cand["seed"]:
        return f"seeds differ: {base['seed']} vs {cand['seed']}"
    tier_a = base["fingerprint"]["jit"]["tier"]
    tier_b = cand["fingerprint"]["jit"]["tier"]
    if tier_a != tier_b:
        return f"resolved JIT tiers differ: {tier_a} vs {tier_b}"
    return ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, cand = load(argv[0]), load(argv[1])
    why = refusal(base, cand)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = compare(base, cand)
    print(f"{'workload':12} {'metric':22} {'A':>14} {'B':>14} {'B/A':>8} "
          f"{'bound':>6}  verdict")
    for name, metric, a, b, ratio, bound, word in rows:
        ratio_text = "" if ratio is None else f"{ratio:8.3f}"
        print(f"{name:12} {metric:22} {a:14.6g} {b:14.6g} {ratio_text:>8} "
              f"{bound:6.2f}  {word}")
    bad = sum(row[-1] == "regressed" for row in rows)
    open_ = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {bad} regressed, {open_} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
