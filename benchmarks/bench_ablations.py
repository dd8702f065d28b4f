"""Design-choice ablations called out in DESIGN.md.

* level-based vs point-based stream representation (section 3.8's token
  arithmetic, validated empirically);
* reducer empty-fiber policy (zero vs drop, section 3.6/3.7);
* locate vs coiterate SpMV (section 4.2);
* OuterSPACE-style factorized vs fused SpM*SpM (sections 2.3/6.5).
"""

import numpy as np

from repro.data.synthetic import random_sparse_matrix
from repro.kernels.outerspace import outerspace_spmm
from repro.kernels.spmm import run_spmm
from repro.kernels.spmv import spmv_locate, spmv_program


def test_stream_representation_token_counts(benchmark):
    """Section 3.8: level-based streams beat point-based tuples when rows
    average more than ~4 nonzeros."""
    from repro.formats import FiberTensor
    from repro.lang import compile_expression

    rng = np.random.default_rng(0)
    dense = (rng.random((64, 64)) < 0.15) * rng.random((64, 64))
    tensor = FiberTensor.from_numpy(dense, name="B")
    program = compile_expression("X(i,j) = B(i,j)")
    scan_i = next(n for n in program.graph.nodes if n.endswith("_i"))
    scan_j = next(n for n in program.graph.nodes if n.endswith("_j"))

    def run():
        return program.run(
            {"B": tensor}, record=(f"{scan_i}.crd", f"{scan_j}.crd")
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    level_tokens = sum(
        ch.pushed_total for ch in result.bound.channels.values() if ch.record
    )
    point_tokens = 3 * tensor.nnz  # (i, j, val) tuples, section 3.8
    nnz_per_row = tensor.nnz / 64
    print(
        f"\nlevel-based tokens={level_tokens}, point-based={point_tokens}, "
        f"nnz/row={nnz_per_row:.1f}"
    )
    if nnz_per_row > 4:
        assert level_tokens < point_tokens


def test_reducer_empty_policy(benchmark):
    """Zero-policy keeps explicit zeros for droppers; drop-policy removes
    them at the reducer. Both yield the same dense result."""
    from repro.blocks import ScalarReducer, Sink, StreamFeeder
    from repro.sim import run_blocks
    from repro.streams import Channel, DONE, Stop

    tokens = [1.0, Stop(0), Stop(0), 2.0, Stop(1), DONE]

    def run(policy):
        v, out = Channel("v"), Channel("o", record=True)
        run_blocks([
            StreamFeeder(tokens, v),
            ScalarReducer(v, out, empty_policy=policy),
            Sink(out),
        ])
        return out.pushed_data

    zero_tokens = run("zero")
    drop_tokens = run("drop")
    benchmark.pedantic(lambda: run("zero"), rounds=1, iterations=1)
    print(f"\nzero-policy emits {zero_tokens} values, drop-policy {drop_tokens}")
    assert zero_tokens == drop_tokens + 1


def test_spmv_locate_vs_coiterate(benchmark):
    """Section 4.2: locating into a dense vector beats coiterating it."""
    rng = np.random.default_rng(1)
    B = random_sparse_matrix(48, 48, 0.05, seed=1)
    c = rng.random(48)

    coiter_prog = spmv_program()

    def run():
        coiter = coiter_prog.run(
            {"B": B, "c": c},
        ).cycles
        _, _, locate = spmv_locate(B, c)
        return coiter, locate

    coiter_cycles, locate_cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncoiterate={coiter_cycles} cycles, locate={locate_cycles} cycles")
    # Coiterating streams the dense vector's coordinates; locate does not.
    assert locate_cycles < coiter_cycles


def test_factorized_vs_fused_spmm(benchmark):
    """OuterSPACE's two-phase factorization pays for materialising Y."""
    B = random_sparse_matrix(32, 32, 0.1, seed=2)
    C = random_sparse_matrix(32, 32, 0.1, seed=3)

    def run():
        fused = run_spmm(B, C, "ikj")
        factorized = outerspace_spmm(B, C)
        return fused, factorized

    fused, factorized = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.allclose(fused.to_numpy(), B @ C)
    assert np.allclose(factorized.output, B @ C)
    print(
        f"\nfused={fused.cycles} cycles, factorized="
        f"{factorized.total_cycles} (multiply {factorized.multiply_cycles} + "
        f"merge {factorized.merge_cycles})"
    )
