"""Token data-plane wall-clock: ``functional`` vs its generator oracle.

Times functional-backend SpMV (the iterate-locate kernel over a prebuilt
two-level FiberTensor) with the blocks on the timed plane
(``backend="functional"``: ``drain_timed`` over ``TokenBatch`` windows,
stamps ignored) against every block stepping its generator
(``backend="functional-seq"``, the differential oracle) at 1e4, 1e5 and
1e6 nnz.  Outputs are asserted **bit-identical** between the two at
every size, so this benchmark doubles as a differential test at scales
the unit tests do not reach, and the 1e6-nnz row asserts the >= 5x
speedup a block's windowed definition exists for (``--min-speedup`` to
override).  The ``batch_*`` keys of the JSON rows are the ``functional``
leg.

Usage::

    PYTHONPATH=src python benchmarks/bench_tokens.py [--rounds 3] [-o out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.formats import FiberTensor
from repro.kernels import spmv_locate

SIZES = (10_000, 100_000, 1_000_000)

#: wall-clock gate asserted at the largest size (what ``drain_timed``
#: must buy over the generator); smaller sizes are reported but not
#: gated — fixed per-run overheads dominate there
MIN_SPEEDUP_AT_1E6 = 5.0


def make_matrix(nnz: int, seed: int = 0):
    """Seeded uniform sparse matrix with exactly *nnz* entries."""
    rng = np.random.default_rng(seed)
    dim = max(64, int((nnz * 10) ** 0.5))
    flat = rng.choice(dim * dim, size=nnz, replace=False)
    coords = np.column_stack([flat // dim, flat % dim]).astype(np.int64)
    values = rng.uniform(0.1, 1.0, size=nnz)
    tensor = FiberTensor.from_coords((dim, dim), coords, values, name="B")
    c = rng.uniform(0.1, 1.0, size=dim)
    return tensor, c


def _best(fn, rounds: int):
    best, result = None, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(rounds: int, seq_cap: int, min_speedup: float) -> dict:
    rows = []
    for nnz in SIZES:
        tensor, c = make_matrix(nnz)
        t_batch, out_batch = _best(
            lambda: spmv_locate(tensor, c, backend="functional"), rounds
        )
        row = {
            "nnz": nnz,
            "batch_seconds": round(t_batch, 6),
            "generator_seconds": None,
            "speedup": None,
            "bit_identical": None,
        }
        if nnz <= seq_cap:
            t_seq, out_seq = _best(
                lambda: spmv_locate(tensor, c, backend="functional-seq"), rounds
            )
            identical = (
                list(out_batch[0]) == list(out_seq[0])
                and list(out_batch[1]) == list(out_seq[1])
            )
            assert identical, f"functional/generator outputs diverge at nnz={nnz}"
            row.update(
                generator_seconds=round(t_seq, 6),
                speedup=round(t_seq / t_batch, 2),
                bit_identical=identical,
            )
            if nnz >= 1_000_000 and row["speedup"] < min_speedup:
                raise SystemExit(
                    f"functional only {row['speedup']}x over the generator "
                    f"at nnz={nnz} (need >= {min_speedup}x)"
                )
        rows.append(row)
        print(
            f"nnz={nnz:>9,}  batch={row['batch_seconds']:.3f}s  "
            f"generator={row['generator_seconds']}s  "
            f"speedup={row['speedup']}x  identical={row['bit_identical']}",
            file=sys.stderr,
        )
    return {"benchmark": "tokens", "kernel": "spmv_locate", "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--seq-cap", type=int, default=max(SIZES),
        help="skip the generator plane above this nnz (keeps quick runs short)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP_AT_1E6,
        help="required functional-vs-generator speedup at 1e6 nnz",
    )
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    payload = run(args.rounds, args.seq_cap, args.min_speedup)
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
