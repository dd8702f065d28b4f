"""Tests for the section 4.2 SpMV variants (scatter, compiled skipping)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.synthetic import random_sparse_matrix, runs_vectors, urandom_vector
from repro.kernels.spmv import spmv_scatter
from repro.lang import compile_expression

from blockkit import ENGINES


class TestSpmvScatter:
    def test_matches_transposed_matvec(self, engine):
        rng = np.random.default_rng(0)
        B = random_sparse_matrix(10, 8, 0.3, seed=0)
        c = (rng.random(10) < 0.6) * rng.random(10)
        x, cycles = spmv_scatter(B, c, backend=engine)
        assert np.allclose(x, B.T @ c)
        assert cycles > 0

    def test_no_reducer_in_pipeline(self):
        # The scatter variant's whole point: accumulate in memory.
        import inspect

        from repro.kernels import spmv

        source = inspect.getsource(spmv.spmv_scatter)
        assert "Reducer" not in source

    @pytest.mark.parametrize("engine", ENGINES)
    @given(seed=st.integers(0, 1000), density=st.sampled_from([0.0, 0.2, 0.8]))
    def test_property_fuzz(self, seed, density, engine):
        rng = np.random.default_rng(seed)
        B = random_sparse_matrix(8, 7, density, seed=seed)
        c = (rng.random(8) < 0.7) * rng.random(8)
        x, _ = spmv_scatter(B, c, backend=engine)
        assert np.allclose(x, B.T @ c)


class TestCompiledCoordinateSkipping:
    def test_correctness_preserved(self, engine):
        b, c = runs_vectors(400, 80, 32, seed=0)
        plain = compile_expression("x(i) = b(i) * c(i)").run({"b": b, "c": c},
                                                             backend=engine)
        skip = compile_expression(
            "x(i) = b(i) * c(i)", coordinate_skipping=True
        ).run({"b": b, "c": c}, backend=engine)
        assert np.allclose(plain.to_numpy(), skip.to_numpy())

    def test_skipping_saves_cycles_on_runs(self, engine):
        b, c = runs_vectors(2000, 400, 128, seed=0)
        plain = compile_expression("x(i) = b(i) * c(i)").run({"b": b, "c": c},
                                                             backend=engine)
        skip = compile_expression(
            "x(i) = b(i) * c(i)", coordinate_skipping=True
        ).run({"b": b, "c": c}, backend=engine)
        assert skip.cycles < plain.cycles / 2

    def test_no_gain_on_urandom(self, engine):
        # "coordinate-skipping behaves exactly the same" on short runs.
        b = urandom_vector(500, 100, seed=1)
        c = urandom_vector(500, 100, seed=2)
        plain = compile_expression("x(i) = b(i) * c(i)").run({"b": b, "c": c},
                                                             backend=engine)
        skip = compile_expression(
            "x(i) = b(i) * c(i)", coordinate_skipping=True
        ).run({"b": b, "c": c}, backend=engine)
        assert abs(skip.cycles - plain.cycles) <= 0.05 * plain.cycles + 2

    def test_spmv_with_skipping(self, engine):
        rng = np.random.default_rng(3)
        B = random_sparse_matrix(12, 10, 0.3, seed=3)
        c = (rng.random(10) < 0.5) * rng.random(10)
        result = compile_expression(
            "x(i) = B(i,j) * c(j)", coordinate_skipping=True
        ).run({"B": B, "c": c}, backend=engine)
        assert np.allclose(result.to_numpy(), B @ c)

    def test_graph_has_skip_edges(self):
        prog = compile_expression("x(i) = b(i) * c(i)", coordinate_skipping=True)
        skip_edges = [e for e in prog.graph.edges if e.dst_port == "skip"]
        assert len(skip_edges) == 2  # one feedback per intersecter side
