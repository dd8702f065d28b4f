"""Seeded randomized-graph fuzz: the cycle oracle vs every timed backend.

Every draw builds a fresh kernel graph from random operands and runs it
through every backend that models cycles; the full ``SimulationReport`` — cycle
count, per-block busy/stall activity, per-channel token counts — and the
computed outputs must be identical across all of them.  Seeds are fixed
so failures reproduce.  A dedicated suite at the bottom pins the
compiled backend's fused execution against the unfused timed-batch plane
over every kernel family, including degenerate operands.
"""

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.kernels import run_spmm, spmv_locate, spmv_scatter, vecmul
from repro.sim import graph_token_counts, run_blocks

from blockkit import ENGINES


def _random_matrix(rng):
    rows = int(rng.integers(1, 18))
    cols = int(rng.integers(1, 18))
    density = float(rng.uniform(0.0, 0.5))
    seed = int(rng.integers(0, 2**31))
    return np.asarray(random_sparse_matrix(rows, cols, density, seed=seed))


def _random_vector(rng, size):
    nnz = int(rng.integers(0, size + 1))
    seed = int(rng.integers(0, 2**31))
    return urandom_vector(size, nnz, seed=seed)


@pytest.mark.parametrize("seed", range(12))
def test_spmv_locate_fuzz(seed):
    rng = np.random.default_rng(1000 + seed)
    B = _random_matrix(rng)
    c = _random_vector(rng, B.shape[1])
    results = {
        be: spmv_locate(B, c, backend=be) for be in ENGINES
    }
    crd0, val0, cyc0 = results["cycle"]
    for be in ENGINES[1:]:
        crd, val, cyc = results[be]
        assert (list(crd), list(val), cyc) == (list(crd0), list(val0), cyc0), be


@pytest.mark.parametrize("seed", range(8))
def test_spmv_scatter_fuzz(seed):
    rng = np.random.default_rng(2000 + seed)
    B = _random_matrix(rng)
    c = _random_vector(rng, B.shape[0])
    ref = spmv_scatter(B, c, backend="cycle")
    for be in ENGINES[1:]:
        x, cyc = spmv_scatter(B, c, backend=be)
        assert cyc == ref[1], be
        assert np.array_equal(x, ref[0]), be


@pytest.mark.parametrize("seed", range(6))
def test_spmm_fuzz(seed):
    rng = np.random.default_rng(3000 + seed)
    B = _random_matrix(rng)
    k = B.shape[1]
    C = np.asarray(
        random_sparse_matrix(
            k, int(rng.integers(1, 12)),
            float(rng.uniform(0.0, 0.5)), seed=int(rng.integers(0, 2**31)),
        )
    )
    order = ("ikj", "ijk", "kij")[seed % 3]
    ref = run_spmm(B, C, order=order, backend="cycle")
    for be in ENGINES[1:]:
        r = run_spmm(B, C, order=order, backend=be)
        assert r.cycles == ref.cycles, be
        assert np.array_equal(r.output.to_numpy(), ref.output.to_numpy()), be


def _vecmul_out(result):
    return result.cycles, result.coords.tolist(), result.values.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_elementwise_fuzz(seed):
    rng = np.random.default_rng(4000 + seed)
    size = int(rng.integers(4, 120))
    a = _random_vector(rng, size)
    b = _random_vector(rng, size)
    config = ("crd", "dense", "bv", "crd_skip")[seed % 4]
    split = max(1, size // 2)
    ref = vecmul(config, a, b, split=split, backend="cycle")
    for be in ENGINES[1:]:
        r = vecmul(config, a, b, split=split, backend=be)
        assert _vecmul_out(r) == _vecmul_out(ref), be


@pytest.mark.parametrize("seed", range(6))
def test_full_report_fuzz(seed):
    # Hand-built feeder/merge/reduce pipelines with channel-level token
    # counts compared across every timed backend.
    from repro.blocks import (
        ALU,
        Intersect,
        MergeSide,
        ScalarReducer,
        Sink,
        StreamFeeder,
        Union,
    )
    from repro.streams import Channel, DONE, Stop

    rng = np.random.default_rng(5000 + seed)
    universe = 25

    def fiber(rng):
        n = int(rng.integers(0, 8))
        return sorted(rng.choice(universe, size=n, replace=False).tolist())

    n_fibers = int(rng.integers(1, 4))
    fibers_a = [fiber(rng) for _ in range(n_fibers)]
    fibers_b = [fiber(rng) for _ in range(n_fibers)]
    merger_cls = Union if seed % 2 else Intersect

    def tokens(fibers):
        crd, ref = [], []
        r = 0
        for fib in fibers:
            crd.extend(fib)
            crd.append(Stop(0))
            for _ in fib:
                ref.append(r)
                r += 1
            ref.append(Stop(0))
        crd.append(DONE)
        ref.append(DONE)
        return crd, ref

    def build():
        ca, ra = Channel("ca"), Channel("ra", kind="ref")
        cb, rb = Channel("cb"), Channel("rb", kind="ref")
        oc = Channel("oc")
        oa = Channel("oa", kind="vals")
        ob = Channel("ob", kind="vals")
        summed = Channel("sum", kind="vals")
        crd_a, ref_a = tokens(fibers_a)
        crd_b, ref_b = tokens(fibers_b)
        blocks = [
            StreamFeeder(crd_a, ca, name="fca"),
            StreamFeeder([float(t) if isinstance(t, int) else t for t in ref_a],
                         ra, name="fra"),
            StreamFeeder(crd_b, cb, name="fcb"),
            StreamFeeder([float(t) if isinstance(t, int) else t for t in ref_b],
                         rb, name="frb"),
            merger_cls([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                       oc, [[oa], [ob]], name="merge"),
            ALU("add", oa, ob, Channel("prod", kind="vals"), name="add"),
            Sink(oc, name="sink_crd"),
        ]
        prod = blocks[-2].out
        blocks.append(ScalarReducer(prod, summed, name="reduce"))
        blocks.append(Sink(summed, name="sink_val"))
        return blocks

    reports = {}
    for be in ENGINES:
        blocks = build()
        report = run_blocks(blocks, backend=be)
        reports[be] = (
            report.cycles,
            report.block_activity(),
            graph_token_counts(blocks),
            [b.tokens for b in blocks if isinstance(b, Sink)],
        )
    for be in ENGINES[1:]:
        assert reports[be] == reports["cycle"], be


# -- fused vs unfused: the compiled backend against timed-batch ----------

@pytest.mark.parametrize("config", ["crd", "dense", "bv", "crd_skip"])
def test_fusion_vecmul_matches_unfused(config):
    rng = np.random.default_rng(77)
    size = 60
    a = _random_vector(rng, size)
    b = _random_vector(rng, size)
    ref = vecmul(config, a, b, split=size // 2, backend="timed-batch")
    fused = vecmul(config, a, b, split=size // 2, backend="compiled")
    assert _vecmul_out(fused) == _vecmul_out(ref)


def test_fusion_spmv_locate_matches_unfused():
    B = np.asarray(random_sparse_matrix(13, 11, 0.3, seed=5))
    c = urandom_vector(11, 7, seed=6)
    crd0, val0, cyc0 = spmv_locate(B, c, backend="timed-batch")
    crd, val, cyc = spmv_locate(B, c, backend="compiled")
    assert (list(crd), list(val), cyc) == (list(crd0), list(val0), cyc0)


def test_fusion_spmv_scatter_matches_unfused():
    B = np.asarray(random_sparse_matrix(9, 14, 0.4, seed=8))
    c = urandom_vector(9, 5, seed=9)
    x0, cyc0 = spmv_scatter(B, c, backend="timed-batch")
    x, cyc = spmv_scatter(B, c, backend="compiled")
    assert cyc == cyc0
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("order", ["ikj", "ijk", "kij"])
def test_fusion_spmm_matches_unfused(order):
    B = np.asarray(random_sparse_matrix(7, 9, 0.35, seed=11))
    C = np.asarray(random_sparse_matrix(9, 6, 0.35, seed=12))
    ref = run_spmm(B, C, order=order, backend="timed-batch")
    fused = run_spmm(B, C, order=order, backend="compiled")
    assert fused.cycles == ref.cycles
    assert np.array_equal(fused.output.to_numpy(), ref.output.to_numpy())


@pytest.mark.parametrize(
    "case",
    ["all_zero_a", "all_zero_b", "both_empty", "singleton"],
)
def test_fusion_degenerate_operands(case):
    # Degenerate streams stress the fused zip head's EMPTY densification
    # and the dissolve path (structure mismatches fall back mid-run).
    size = 16
    if case == "all_zero_a":
        a = np.zeros(size)
        b = urandom_vector(size, 9, seed=21)
    elif case == "all_zero_b":
        a = urandom_vector(size, 9, seed=22)
        b = np.zeros(size)
    elif case == "both_empty":
        a = np.zeros(size)
        b = np.zeros(size)
    else:
        a = np.zeros(size)
        b = np.zeros(size)
        a[3] = 1.5
        b[3] = -2.0
    for config in ("crd", "dense", "bv"):
        ref = vecmul(config, a, b, split=size // 2, backend="timed-batch")
        fused = vecmul(config, a, b, split=size // 2, backend="compiled")
        assert _vecmul_out(fused) == _vecmul_out(ref), (case, config)


def test_fusion_stats_populated():
    from repro.graph.builder import capture_runs

    B = np.asarray(random_sparse_matrix(12, 12, 0.4, seed=30))
    c = urandom_vector(12, 8, seed=31)
    with capture_runs() as capture:
        spmv_locate(B, c, backend="compiled")
    stats = capture.runs[-1][1].fusion
    assert stats["segments"] >= 1
    assert stats["fused_blocks"] >= 2
    assert stats["fallbacks"] >= 0


# -- merge-heavy and repeater-heavy graphs, randomized --------------------

def _full_report(blocks, backend):
    """``(everything the backends must agree on, the report itself)``."""
    from repro.blocks import Sink

    report = run_blocks(blocks, backend=backend)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [b.tokens for b in blocks if isinstance(b, Sink)],
    ), report


def _random_level(rng, universe, n_fibers):
    from repro.formats import CompressedLevel

    fibers = []
    for _ in range(n_fibers):
        n = int(rng.integers(0, universe // 2))
        fibers.append(sorted(rng.choice(universe, size=n,
                                        replace=False).tolist()))
    return CompressedLevel.from_fibers(fibers)


@pytest.mark.parametrize("seed", range(10))
def test_merge_heavy_fuzz(seed):
    # Scanner-fed intersect/union heads, randomly with a
    # compressed-writer tail, cascaded into a second merge stage fed by
    # the first merge on one side and a fresh scanner on the other.
    from repro.blocks import (
        CompressedLevelWriter,
        Intersect,
        MergeSide,
        Sink,
        StreamFeeder,
        Union,
        make_scanner,
    )
    from repro.streams import Channel, DONE, Stop

    rng = np.random.default_rng(6000 + seed)
    universe = 20
    n_fibers = int(rng.integers(1, 4))
    root = list(range(n_fibers))
    root_tokens = []
    for r in root:
        root_tokens.append(r)
        root_tokens.append(Stop(0))
    root_tokens[-1] = DONE
    merger_cls = Union if seed % 2 else Intersect
    with_writer = seed % 3 != 2
    cascade = seed % 4 == 3

    def build():
        blocks = []
        sides = []
        for tag in ("a", "b"):
            level = _random_level(rng_levels[tag], universe, n_fibers)
            in_ref = Channel(f"root_{tag}", kind="ref")
            crd = Channel(f"crd_{tag}")
            ref = Channel(f"ref_{tag}", kind="ref")
            blocks.append(StreamFeeder(list(root_tokens), in_ref,
                                       name=f"feed_{tag}"))
            blocks.append(make_scanner(level, in_ref, crd, ref,
                                       name=f"scan_{tag}"))
            sides.append(MergeSide(crd, [ref]))
        oc = Channel("oc")
        oa = Channel("oa", kind="ref")
        ob = Channel("ob", kind="ref")
        blocks.append(merger_cls(sides, oc, [[oa], [ob]], name="merge"))
        blocks.append(Sink(oa, name="sink_a"))
        if cascade:
            # Second merge: one side is the first merge's output, the
            # other a fresh scanner.
            level = _random_level(rng_levels["c"], universe, n_fibers)
            in_ref = Channel("root_c", kind="ref")
            crd_c = Channel("crd_c")
            ref_c = Channel("ref_c", kind="ref")
            blocks.append(StreamFeeder(list(root_tokens), in_ref,
                                       name="feed_c"))
            blocks.append(make_scanner(level, in_ref, crd_c, ref_c,
                                       name="scan_c"))
            oc2 = Channel("oc2")
            o1 = Channel("o1", kind="ref")
            o2 = Channel("o2", kind="ref")
            blocks.append(merger_cls(
                [MergeSide(oc, [ob]), MergeSide(crd_c, [ref_c])],
                oc2, [[o1], [o2]], name="merge2",
            ))
            blocks.append(Sink(o1, name="sink_1"))
            blocks.append(Sink(o2, name="sink_2"))
            out_crd = oc2
        else:
            blocks.append(Sink(ob, name="sink_b"))
            out_crd = oc
        if with_writer:
            blocks.append(CompressedLevelWriter(out_crd, name="wr"))
        else:
            blocks.append(Sink(out_crd, name="sink_crd"))
        return blocks

    reports = {}
    writers = {}
    for be in ENGINES:
        rng_levels = {
            tag: np.random.default_rng(6500 + seed * 7 + i)
            for i, tag in enumerate(("a", "b", "c"))
        }
        blocks = build()
        reports[be], report = _full_report(blocks, be)
        if with_writer:
            from repro.blocks import CompressedLevelWriter as CLW

            wr = next(b for b in blocks if isinstance(b, CLW))
            writers[be] = (list(wr.seg), list(wr.crd))
    for be in ENGINES[1:]:
        assert reports[be] == reports["cycle"], be
        if with_writer:
            assert writers[be] == writers["cycle"], be
    # ENGINES ends with "compiled": `report` is its report.  Mergers
    # carry no fuse role, so nothing here forms a segment.
    assert report.fusion["kinds"] == {}
    assert report.fusion["fallbacks"] == 0


def _repeat_streams(rng):
    """A (driver coordinates, references) pair obeying the repeat
    protocol: one driver fiber per reference, group-closing stops
    elevated on the driver, empty groups allowed."""
    from repro.streams import DONE, EMPTY, Stop

    ref_toks, drv_toks = [], []
    for _ in range(int(rng.integers(1, 4))):
        n_refs = int(rng.integers(0, 4))
        if n_refs == 0:
            ref_toks.append(Stop(0))
            drv_toks.append(Stop(1))
            continue
        for j in range(n_refs):
            tok = EMPTY if rng.random() < 0.15 else float(len(ref_toks))
            ref_toks.append(tok)
            for _ in range(int(rng.integers(0, 5))):
                drv_toks.append(int(rng.integers(0, 30)))
            drv_toks.append(Stop(1) if j == n_refs - 1 else Stop(0))
        ref_toks.append(Stop(0))
    ref_toks.append(DONE)
    drv_toks.append(DONE)
    return drv_toks, ref_toks


@pytest.mark.parametrize("seed", range(10))
def test_repeater_heavy_fuzz(seed):
    # Two independent RepeatSigGen -> Repeater pipelines with random
    # fiber structure, empty groups, and empty (N) references.
    from repro.blocks import Sink, StreamFeeder, make_repeater
    from repro.streams import Channel

    rng = np.random.default_rng(7000 + seed)
    streams = [_repeat_streams(rng) for _ in range(2)]

    def build():
        blocks = []
        for i, (drv, ref) in enumerate(streams):
            crd_ch = Channel(f"drv{i}")
            ref_ch = Channel(f"ref{i}", kind="ref")
            out = Channel(f"out{i}", kind="ref")
            blocks.append(StreamFeeder(list(drv), crd_ch, name=f"fd{i}"))
            blocks.append(StreamFeeder(list(ref), ref_ch, name=f"fr{i}"))
            blocks.extend(make_repeater(crd_ch, ref_ch, out,
                                        name=f"rep{i}"))
            blocks.append(Sink(out, name=f"sink{i}"))
        return blocks

    runs = {be: _full_report(build(), be) for be in ENGINES}
    for be in ENGINES[1:]:
        assert runs[be][0] == runs["cycle"][0], be
    assert runs["compiled"][1].fusion["kinds"] == {}
