"""The slab rule: a window run holds a slab, not the whole run.

A volume source materialises at most :data:`~repro.blocks.base.SLAB` a
visit — a ``StreamFeeder`` that many tokens, a ``LevelScanner`` the
input references whose fibers total that many pairs (and always one) —
and the worklist runs each slab down the graph before it visits the
source again.  A channel no block reads (an output its node kind leaves
open) counts what is pushed onto it and keeps nothing.  Held here:

* a cut anywhere gives the same report: with ``SLAB`` patched to 1, 3
  and 64 every report — cycles, per-block activity, per-channel token
  counts and every writer's arrays — equals the unpatched run's and
  ``cycle``'s, on the Table-1 programs, Gamma, ``spmv_locate``,
  OuterSPACE and the corpus property;
* the tokens in flight are bounded by a count: slabs, not the run;
* memory, traced: ``spmv_locate``'s peak above its inputs does not grow
  with the operand's nonzeros when its output does not, and stays under
  8 MB at 2·10⁵ nonzeros;
* after a run on any engine a bound graph's open outputs hold no
  tokens, and count what ``cycle`` counts.
"""

import tracemalloc

import numpy as np
import pytest

import test_corpus_engines
import test_visit_order
from repro.blocks import base
from repro.blocks.scanner import LevelScanner
from repro.data import extensor_matrix
from repro.formats import DenseLevel, FiberTensor
from repro.graph.bind import bind
from repro.graph.builder import capture_runs
from repro.kernels import spmv, spmv_locate
from repro.lang import compile_expression
from repro.sim.backends import timed_batch
from repro.studies.table1 import ENTRIES, _random_inputs

from blockkit import TIMED

CASES = test_visit_order.CASES
KERNELS = ("gamma", "outerspace", "spmv_locate")


def report_of(outcome):
    """An outcome without its handoffs: ``cycle`` names none."""
    result, runs = outcome
    return result, [run[:4] for run in runs]


@pytest.fixture
def cuts(monkeypatch):
    """Whether each scanner visit left input behind, one entry a visit."""
    counted = []
    real = LevelScanner._t_slab

    def slab(self, reader, window):
        taken = real(self, reader, window)
        counted.append(self._t_cut)
        return taken

    monkeypatch.setattr(LevelScanner, "_t_slab", slab)
    return counted


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("slab", [1, 3, 64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cut_slab_gives_the_same_report(case, slab, backend, monkeypatch, cuts):
    run = CASES[case]()
    want = test_visit_order.outcome(run, backend)
    assert report_of(want) == report_of(test_visit_order.outcome(run, "cycle"))
    monkeypatch.setattr(base, "SLAB", slab)
    del cuts[:]
    assert test_visit_order.outcome(run, backend) == want
    if slab < 64 and case in KERNELS:  # a matrix's second level cuts
        assert any(cuts)


def test_the_corpus_property_holds_with_a_small_slab(monkeypatch):
    monkeypatch.setattr(base, "SLAB", 3)
    test_corpus_engines.test_corpus_program_runs_alike_on_every_engine()


def b_and_c(dim, nnz, seed=5):
    """``spmv_locate``'s operands: B as a fibertree, c dense."""
    B = FiberTensor.from_scipy(extensor_matrix(dim, nnz, seed=seed), name="B")
    return B, np.random.default_rng(seed).uniform(0.1, 1.0, dim)


def max_in_flight(run, backend, monkeypatch, slab):
    """The most tokens pushed and not yet consumed — pending, held by a
    reader, or held as fiber runs — after any visit of ``run(backend)``
    with ``SLAB`` patched to *slab*."""
    in_flight = [0]
    real = timed_batch.TimedBatchEngine.run

    def counted_run(engine, max_cycles=None):
        blocks = [b for b in engine.blocks if type(b).drain_timed is not None]

        def reader_of(ch):
            # one block reads a channel: the reader cached for it is its
            for b in engine.blocks:
                reader = getattr(b, "_timed_readers", {}).get(ch)
                if reader is not None:
                    return reader
            return None

        for block in blocks:
            def counted(hook=block.drain_timed):
                outcome = hook()
                in_flight[0] = max(in_flight[0],
                                   sum(b.t_backlog(reader_of) for b in blocks))
                return outcome

            block.drain_timed = counted
        return real(engine, max_cycles)

    with monkeypatch.context() as patch:
        patch.setattr(timed_batch.TimedBatchEngine, "run", counted_run)
        patch.setattr(base, "SLAB", slab)
        run(backend)
    return in_flight[0]


@pytest.mark.parametrize("backend", TIMED)
def test_tokens_in_flight_are_slabs_not_the_run(backend, monkeypatch):
    """``spmv_locate``: a few slabs and the row stream B's one-fiber top
    level makes, whatever the nonzeros; a whole-window run holds every
    pair at once."""
    B, c = b_and_c(200, 8000)
    rows = int(B.levels[0].fiber_lens(np.zeros(1, dtype=np.int64))[0])

    def run(backend):
        spmv_locate(B, c, backend=backend)

    assert max_in_flight(run, backend, monkeypatch, 64) <= 4 * 64 + rows
    assert max_in_flight(run, backend, monkeypatch, 1 << 62) >= B.nnz


def rows_of(n, nnz, rng):
    """An ``n x 4n`` matrix with *nnz* nonzeros in every row."""
    out = np.zeros((n, 4 * n))
    for row in out:
        row[rng.choice(4 * n, nnz, replace=False)] = rng.uniform(1, 2, nnz)
    return out


@pytest.mark.parametrize("backend", TIMED)
def test_the_side_that_runs_ahead_waits(backend, monkeypatch):
    """``X(i,j) = B(i,j) + C(i,j)``, B's rows 32 pairs long and C's 2:
    a slab of B is 2 rows, of C 32, and the union takes the rows both
    sides have.  The cut source whose outputs hold the least takes the
    next slab, so C waits for B: in flight are the row references both
    scanners wait to take and a few slabs, never a side (taking turns,
    C runs ahead by 30 rows a turn: 1 990-2 128 tokens)."""
    rng = np.random.default_rng(9)
    inputs = {"B": rows_of(512, 32, rng), "C": rows_of(512, 2, rng)}
    program = compile_expression("X(i,j) = B(i,j) + C(i,j)")

    def run(backend):
        program.run(inputs, backend=backend)

    assert max_in_flight(run, backend, monkeypatch, 64) <= 2 * 512 + 8 * 64


def traced_peak(B, c, backend) -> int:
    """Bytes ``spmv_locate`` holds at its peak above its operands."""
    spmv_locate(B, c, backend=backend)  # plans, memos and caches warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spmv_locate(B, c, backend=backend)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", TIMED)
def test_the_peak_grows_with_the_output_not_the_operands(backend, monkeypatch):
    """n and 4n nonzeros, n well above the slab, over the same rows: the
    peak above the operands grows by no more than the output does (a
    coordinate and a value a row), give or take a few pages."""
    monkeypatch.setattr(base, "SLAB", 4096)
    small, large = b_and_c(2000, 40_000), b_and_c(2000, 160_000)
    out = [len(spmv_locate(*operands, backend=backend)[0])
           for operands in (small, large)]
    grow = traced_peak(*large, backend) - traced_peak(*small, backend)
    assert grow <= 16 * (out[1] - out[0]) + 64 * 1024, (grow, out)


@pytest.mark.parametrize("backend", TIMED)
def test_spmv_at_perfbench_size_holds_under_8_mb(backend):
    assert traced_peak(*b_and_c(20_000, 200_000), backend) <= 8e6


def open_outputs(blocks):
    """Every channel of *blocks* that no block reads, by name."""
    return {ch.name: ch for block in blocks for ch in block.outputs.values()
            if ch.drops}


def runs_of(case, backend):
    """``(blocks, report)`` of every run *case* launches on *backend*."""
    with capture_runs() as capture:
        case(backend)
    return capture.runs


def spmv_case(backend):
    B, c = b_and_c(40, 200)
    c = FiberTensor(c.shape, [DenseLevel(c.size)], c, name="c")
    bind(spmv.locate_graph(), {"B": B, "c": c}).run(backend=backend)


def table1_case(entry):
    def case(backend):
        program = compile_expression(entry.expression, formats=entry.formats,
                                     schedule=entry.schedule)
        program.run(_random_inputs(program, 0), backend=backend)
    return case


OPEN_CASES = {"spmv_locate": spmv_case}
OPEN_CASES.update({entry.name: table1_case(entry) for entry in ENTRIES})


def test_open_outputs_count_and_keep_nothing(engine):
    seen = 0
    for name, case in sorted(OPEN_CASES.items()):
        want = [{k: ch.token_counts() for k, ch in open_outputs(blocks).items()}
                for blocks, _ in runs_of(case, "cycle")]
        got = runs_of(case, engine)
        assert len(got) == len(want), name
        for (blocks, _), counts in zip(got, want):
            outs = open_outputs(blocks)
            assert {k: ch.token_counts() for k, ch in outs.items()} == counts, name
            for ch in outs.values():
                assert not ch.queue and not (ch.timed and ch.timed.pending), ch.name
                assert ch.pushed_total > 0, ch.name
            seen += len(outs)
    assert seen  # locate_c.crd, at least
