"""Wall-clock-free guard: the vector reducer takes a window, not a run.

``VectorReducer.drain_timed`` walking its streams one run at a time was
43 % of a ``gamma_spmm`` op (12 038 ``pop_run_upto`` calls, ~6 500
schedules and 500 sorts for 500 regions).  Counting calls pins the
window form without a clock: on the Gamma and OuterSPACE graphs under
``compiled`` every reducer schedules at most once per visit (+ 1), pops
no run, never bails — and the reports are still ``cycle``'s.
"""

import numpy as np
import pytest

from repro.blocks import Block, VectorReducer
from repro.data.synthetic import random_sparse_matrix
from repro.graph.builder import capture_runs
from repro.kernels.gamma import gamma_spmm
from repro.kernels.outerspace import outerspace_spmm
from repro.streams.timing import TimedReader


@pytest.mark.parametrize("kernel", [gamma_spmm, outerspace_spmm],
                         ids=lambda kernel: kernel.__name__)
def test_vector_reducers_take_whole_windows(kernel, monkeypatch):
    B = random_sparse_matrix(60, 60, 0.1, seed=7)
    C = random_sparse_matrix(60, 60, 0.1, seed=8)
    with capture_runs() as oracle:
        want = kernel(B, C, backend="cycle")

    visits, advances, popped, bailed = {}, {}, [], []
    inside = []
    real_drain, real_advance = VectorReducer.drain_timed, VectorReducer._t_advance
    real_bail = Block._bail_timed

    def drain(self):
        visits[self.name] = visits.get(self.name, 0) + 1
        inside.append(self.name)
        try:
            return real_drain(self)
        finally:
            inside.pop()

    def advance(self, arrivals):
        advances[self.name] = advances.get(self.name, 0) + 1
        return real_advance(self, arrivals)

    def bail(self):
        bailed.append(self.name)
        return real_bail(self)

    def counted_pop(real):
        def pop(self, *args):
            popped.extend(inside)
            return real(self, *args)
        return pop

    monkeypatch.setattr(VectorReducer, "drain_timed", drain)
    monkeypatch.setattr(VectorReducer, "_t_advance", advance)
    monkeypatch.setattr(Block, "_bail_timed", bail)
    for name in ("pop_run_upto", "pop_run"):
        monkeypatch.setattr(TimedReader, name, counted_pop(getattr(TimedReader, name)))

    with capture_runs() as capture:
        got = kernel(B, C, backend="compiled")

    assert visits
    for name, count in visits.items():
        assert advances.get(name, 0) <= count + 1, (name, advances[name], count)
    assert popped == []
    assert bailed == []
    np.testing.assert_array_equal(got.output, want.output)
    assert len(capture.runs) == len(oracle.runs)
    for (_, report), (_, reference) in zip(capture.runs, oracle.runs):
        assert report.cycles == reference.cycles
        assert report.block_activity() == reference.block_activity()
