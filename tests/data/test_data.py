"""Tests for the synthetic workload generators and the corpus."""

import numpy as np
import pytest

from repro.data import (
    TABLE3,
    blocks_vectors,
    extensor_matrix,
    generate,
    generate_corpus,
    random_sparse_matrix,
    runs_vectors,
    urandom_vector,
)
from repro.data import corpus as corpus_module


class TestVectors:
    def test_urandom_exact_nnz(self):
        vec = urandom_vector(2000, 400, seed=0)
        assert int((vec != 0).sum()) == 400

    def test_urandom_deterministic(self):
        assert np.array_equal(urandom_vector(100, 10, seed=5),
                              urandom_vector(100, 10, seed=5))

    def test_urandom_nnz_bound(self):
        with pytest.raises(ValueError):
            urandom_vector(10, 11)

    def test_runs_interleave(self):
        b, c = runs_vectors(2000, 400, run_length=16, seed=0)
        # Figure 17: one vector's runs sit between the other's nonzeros.
        assert int((b != 0).sum()) == 400
        assert int((c != 0).sum()) == 400
        assert not np.any((b != 0) & (c != 0))

    def test_runs_have_requested_length(self):
        b, _ = runs_vectors(2000, 400, run_length=8, seed=0)
        # First run starts at position 0 with 8 consecutive nonzeros.
        assert np.all(b[:8] != 0)
        assert b[8] == 0

    def test_blocks_aligned(self):
        b, c = blocks_vectors(2000, 400, block_size=8, seed=0)
        assert int((b != 0).sum()) == 400
        # Blocks overlap exactly (intersections are dense inside blocks).
        assert np.array_equal(b != 0, c != 0)

    def test_blocks_overlap_rejected(self):
        with pytest.raises(ValueError):
            blocks_vectors(10, 16, block_size=4)


class TestMatrices:
    def test_random_sparse_density(self):
        matrix = random_sparse_matrix(100, 100, 0.2, seed=0)
        density = (matrix != 0).mean()
        assert 0.1 < density < 0.3

    def test_extensor_matrix_shape_and_nnz(self):
        matrix = extensor_matrix(1000, 500, seed=0)
        assert matrix.shape == (1000, 1000)
        # Collisions can only reduce the count, and only slightly.
        assert 490 <= matrix.nnz <= 500


class TestSuiteSparseStandins:
    def test_specs_match_table3(self):
        assert len(TABLE3) == 15
        by_name = {s.name: s for s in TABLE3}
        assert by_name["relat3"].shape == (8, 5)
        assert by_name["rail507"].nnz == 409856
        assert by_name["G32"].density == pytest.approx(0.002)

    def test_generated_matrix_matches_spec(self):
        spec = TABLE3[2]  # LFAT5
        matrix = generate(spec, seed=0)
        assert matrix.shape == spec.shape
        assert matrix.nnz == spec.nnz

    def test_deterministic(self):
        spec = TABLE3[0]
        a = generate(spec, seed=1)
        b = generate(spec, seed=1)
        assert (a != b).nnz == 0


class TestCorpus:
    def test_scale_and_structure(self):
        corpus = generate_corpus(total=1000, distinct_target=60, seed=0)
        assert corpus.distinct <= 60
        assert corpus.distinct > 20
        assert corpus.total == 1000

    def test_entries_compile(self):
        from repro.lang import compile_expression

        corpus = generate_corpus(total=100, distinct_target=25, seed=1)
        for entry in corpus.entries[:10]:
            compile_expression(entry.expression, formats=entry.format_dict())

    def test_deterministic(self):
        a = generate_corpus(total=100, distinct_target=20, seed=2)
        b = generate_corpus(total=100, distinct_target=20, seed=2)
        assert a.entries == b.entries

    def test_a_failing_specification_is_compiled_once(self, monkeypatch):
        # The sampler draws some specifications that do not compile again
        # and again; each is compiled once, and the corpus is unchanged.
        calls = []

        def spy(entry, _real=corpus_module._compiles):
            calls.append(((entry.expression, entry.formats, entry.schedule),
                          _real(entry)))
            return calls[-1][1]

        monkeypatch.setattr(corpus_module, "_compiles", spy)
        corpus = generate_corpus(total=500, distinct_target=40)
        failed = [specification for specification, ok in calls if not ok]
        assert failed, "the sampler drew no failing specification"
        assert len(failed) == len(set(failed))
        assert len(calls) == len(corpus.entries) + len(failed)

    def test_output_formats_present(self):
        corpus = generate_corpus(total=100, distinct_target=20, seed=3)
        assert any(e.output_format for e in corpus.entries)
