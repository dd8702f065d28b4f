"""Construction wall-clock for the vectorized fibertree data plane, as JSON.

Times ``FiberTensor.from_coords`` (the numpy order-check/lexsort +
segment-boundary pipeline) against ``FiberTensor.from_coords_reference``
(the pre-PR per-entry Python pipeline, kept as the differential oracle)
at 1e4, 1e5 and 1e6 nnz, across the DCSR, CSR, and bitvector format
mixes.  ``make_coo`` draws its coordinates unordered, so ``vectorized_s``
is the path that sorts; ``vectorized_sorted_s`` builds the same entries
arriving in row-major order -- what scipy, ``np.nonzero`` and ``.mtx``
files deliver -- where the sort is skipped.  One ``.mtx`` ingestion
through :mod:`repro.data.io` is timed as its two halves (``read_mtx``,
then the fibertree build).  The reference path is skipped above
``--reference-cap`` nnz (default 1e5) to keep CI runs short.

The structural-equality check (seg/crd/vals arrays identical between the
two paths) runs whenever both paths execute, so this benchmark is also
an end-to-end differential test at scales the unit tests do not reach.

Usage::

    PYTHONPATH=src python benchmarks/bench_formats.py [--rounds 3] [-o out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro.data.io import CooTensor, read_mtx, write_mtx
from repro.formats import FiberTensor

SIZES = (10_000, 100_000, 1_000_000)
FORMAT_MIXES = {
    "dcsr": ("compressed", "compressed"),
    "csr": ("dense", "compressed"),
    "bitvector": ("compressed", "bitvector"),
}


def make_coo(nnz: int, density: float = 0.01, seed: int = 0):
    """Seeded uniform COO matrix at *density* with exactly *nnz* entries."""
    rng = np.random.default_rng(seed)
    dim = int((nnz / density) ** 0.5)
    flat = rng.choice(dim * dim, size=nnz, replace=False)
    coords = np.column_stack([flat // dim, flat % dim]).astype(np.int64)
    values = rng.uniform(0.1, 1.0, size=nnz)
    return (dim, dim), coords, values


def row_major(coords, values):
    """The same entries in the order scipy and ``.mtx`` files deliver them."""
    order = np.lexsort(coords.T[::-1])
    return coords[order], values[order]


def _assert_same(fast: FiberTensor, slow: FiberTensor) -> None:
    assert np.array_equal(fast.vals, slow.vals), "value arrays differ"
    for la, lb in zip(fast.levels, slow.levels):
        assert la.format_name == lb.format_name
        if la.format_name == "compressed":
            assert np.array_equal(la.seg, lb.seg), "seg arrays differ"
            assert np.array_equal(la.crd, lb.crd), "crd arrays differ"
        elif la.format_name == "bitvector":
            # the flat storage: equal words and word segments are equal
            # fibers, without expanding a bit per pair
            assert np.array_equal(la._word_seg, lb._word_seg), \
                "bitvector word segments differ"
            assert np.array_equal(la._words, lb._words), \
                "bitvector words differ"


def _best(fn, rounds: int):
    """(best wall-clock, last constructed result) over *rounds* calls."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_bench(rounds: int = 3, reference_cap: int = 100_000) -> dict:
    cases = []
    for nnz in SIZES:
        shape, coords, values = make_coo(nnz)
        coords_list, values_list = coords.tolist(), values.tolist()
        sorted_coords, sorted_values = row_major(coords, values)
        for mix_name, formats in FORMAT_MIXES.items():
            # The bitvector mix spans the full column range per word, so
            # keep it to the smaller sizes (word count ~ fibers * cols / b).
            if mix_name == "bitvector" and nnz > 100_000:
                continue
            entry = {"nnz": nnz, "formats": mix_name}
            entry["vectorized_s"], fast = _best(
                lambda: FiberTensor.from_coords(shape, coords, values,
                                                formats=formats),
                rounds,
            )
            entry["vectorized_sorted_s"], presorted = _best(
                lambda: FiberTensor.from_coords(shape, sorted_coords,
                                                sorted_values, formats=formats),
                rounds,
            )
            _assert_same(presorted, fast)
            if nnz <= reference_cap:
                entry["reference_s"], slow = _best(
                    lambda: FiberTensor.from_coords_reference(
                        shape, coords_list, values_list, formats=formats
                    ),
                    max(1, rounds - 1),
                )
                entry["speedup"] = entry["reference_s"] / entry["vectorized_s"]
                _assert_same(fast, slow)
                entry["identical_to_reference"] = True
            cases.append(entry)

    # .mtx ingestion wall-clock at 1e5 nnz through the io layer, the file
    # row-major as real ones are: parse, then build.
    shape, coords, values = make_coo(100_000)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.mtx")
        write_mtx(path, CooTensor(shape, *row_major(coords, values)))
        read_s, coo = _best(lambda: read_mtx(path), max(1, rounds - 1))
        build_s, _ = _best(coo.to_fibertensor, max(1, rounds - 1))
    speedups = [c["speedup"] for c in cases if "speedup" in c]
    summary = {
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
        "speedup_1e5_dcsr": next(
            (c["speedup"] for c in cases
             if c["nnz"] == 100_000 and c["formats"] == "dcsr"
             and "speedup" in c),
            None,
        ),
    }
    return {
        "rounds": rounds,
        "cases": cases,
        "mtx_read_1e5_s": read_s,
        "mtx_build_1e5_s": build_s,
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per case (best is kept)")
    parser.add_argument("--reference-cap", type=int, default=100_000,
                        help="largest nnz at which the pure-Python "
                        "reference path is also timed")
    parser.add_argument("-o", "--output", default=None,
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)
    payload = run_bench(rounds=args.rounds, reference_cap=args.reference_cap)
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    headline = payload["summary"]["speedup_1e5_dcsr"]
    if headline is not None and headline < 10.0:
        print("WARNING: 1e5-nnz DCSR speedup below the 10x acceptance bar",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
