"""Benchmark: regenerate Figure 15 (ExTensor recreation).

Always the full paper sweep (12 dimensions x 4 nnz values, 48 points):
the tile-level model costs every tile pair with array operations, so the
whole grid is about a second.  ``tests/studies/test_studies.py`` asserts
the same shape in tier-1.
"""

from repro.studies.fig15 import (
    PAPER_DIMENSIONS,
    PAPER_NNZS,
    format_fig15,
    regions,
    run_fig15,
)


def test_fig15_extensor_recreation(benchmark):
    points = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    print()
    print(format_fig15(points))
    series = {nnz: [p.cycles for p in points if p.nnz == nnz] for nnz in PAPER_NNZS}
    assert all(len(cycles) == len(PAPER_DIMENSIONS) for cycles in series.values())
    # Region structure: runtime rises at small dimensions...
    for cycles in series.values():
        assert cycles[1] > cycles[0]
    # ...and the sparsest series has peaked and turned down in range
    # (sparse tile skipping); the denser ones are still climbing at 15720.
    assert regions(points, 5000) == (True, True)
    for nnz in PAPER_NNZS[1:]:
        assert regions(points, nnz) == (True, False)
    # More nonzeros means no less work at every dimension.
    for fewer, more in zip(PAPER_NNZS, PAPER_NNZS[1:]):
        assert all(a <= b for a, b in zip(series[fewer], series[more]))
