"""Fusion-coverage harness for the compiled backend.

Pins the segment-fusion decisions of :func:`partition_segments` on the
paper kernels: how many segments of each kind form, how many of the
graph's blocks they absorb, and that no kernel silently falls back at
compile time.  A change to the fusion passes that drops (or grows)
coverage shows up here as a diff against the committed expectations
rather than as an unexplained performance shift in the benchmarks.
Coverage itself is not a goal: a kind stays only while the benchmarks
show it paying (docs/architecture.md, "Segment fusion").

Expectations are asserted on ``report.fusion``; kernels that only
return result objects are run under :func:`capture_runs` to reach the
report of the graph they launch.
"""

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix
from repro.formats import FiberTensor
from repro.graph.bind import bind
from repro.graph.builder import capture_runs
from repro.kernels.elementwise import vecmul
from repro.kernels.gamma import gamma_spmm
from repro.kernels.spmm import run_spmm
from repro.kernels.spmv import spmv_locate, spmv_scatter
from repro.lang import compile_expression


def _spmat(n, density, seed):
    return np.asarray(random_sparse_matrix(n, n, density, seed=seed), float)


def _sparse_vec(size, density, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(size) < density, rng.random(size), 0.0)


def _fusion(fn, *args, **kwargs):
    """``report.fusion`` of the one graph a kernel call launches."""
    with capture_runs() as capture:
        fn(*args, backend="compiled", **kwargs)
    (_, report), = capture.runs
    return report.fusion


#: committed fusion expectations: kernel -> (kinds, fused_blocks, total_blocks)
EXPECTED = {
    "gamma": ({"value-chain": 4}, 12, 67),
    "vecmul_crd": ({"writer-tail": 1}, 4, 10),
    "vecmul_crd_split": ({"writer-tail": 1}, 4, 15),
    "spmv_locate": ({"value-chain": 1}, 4, 11),
    "spmv_scatter": ({"value-chain": 1}, 3, 13),
    "spmm_ikj": ({"value-chain": 1}, 3, 21),
}


def _run_kernel(name):
    if name == "gamma":
        return _fusion(gamma_spmm, _spmat(60, 0.1, 42), _spmat(60, 0.1, 43))
    if name in ("vecmul_crd", "vecmul_crd_split"):
        b = _sparse_vec(512, 0.3, 0)
        c = _sparse_vec(512, 0.3, 1)
        return _fusion(vecmul, name.split("vecmul_")[1], b, c)
    if name == "spmv_locate":
        return _fusion(spmv_locate, _spmat(50, 0.1, 7),
                       np.random.default_rng(2).random(50))
    if name == "spmv_scatter":
        return _fusion(spmv_scatter, _spmat(50, 0.1, 7),
                       np.random.default_rng(2).random(50))
    return _fusion(run_spmm, _spmat(20, 0.15, 1), _spmat(20, 0.15, 2), "ikj")


class TestFusionCoverage:
    @pytest.mark.parametrize("kernel", sorted(EXPECTED))
    def test_kernel_fusion_matches_expectation(self, kernel):
        kinds, fused, total = EXPECTED[kernel]
        stats = _run_kernel(kernel)
        assert stats["kinds"] == kinds, kernel
        assert stats["fused_blocks"] == fused, kernel
        assert stats["total_blocks"] == total, kernel
        assert stats["segments"] == sum(kinds.values()), kernel
        # Compile-time rejection shows up as a smaller segment count, not
        # a fallback; fallbacks here would mean a mid-run dissolve fired.
        assert stats["fallbacks"] == 0, kernel

    def test_report_fusion_attached(self):
        """The engine attaches the stats to the run's own report."""
        b = _sparse_vec(256, 0.4, 3)
        c = _sparse_vec(256, 0.4, 4)
        prog = compile_expression("x(i) = b(i) * c(i)")
        tensors = {
            "b": FiberTensor.from_numpy(b, name="b"),
            "c": FiberTensor.from_numpy(c, name="c"),
        }
        bound = bind(prog.graph, tensors)
        report = bound.run(backend="compiled")
        assert report.fusion["kinds"] == {"writer-tail": 1}
        assert report.fusion["fused_blocks"] == 4
        assert report.fusion["fallbacks"] == 0

    def test_all_vecmul_configs_carry_writer_tail(self):
        """Every element-wise config that runs on windows fuses at least
        its writer tail (``crd_skip``, ``bv`` and ``bv_split`` run on
        ``cycle`` whole: skip wiring and bitvector blocks have no usable
        window hook)."""
        b = _sparse_vec(512, 0.3, 0)
        c = _sparse_vec(512, 0.3, 1)
        for config in ("dense", "crd", "crd_split"):
            stats = _fusion(vecmul, config, b, c)
            assert stats["kinds"].get("writer-tail", 0) >= 1, config
            assert stats["fallbacks"] == 0, config
