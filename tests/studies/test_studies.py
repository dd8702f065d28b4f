"""Smoke tests for the reproduction studies at reduced scales, each run
the way ``repro sweep/report`` runs it: enumerate, run, read back."""

from repro.harness import SweepRunner, get_study
from repro.studies import fig11, fig12, fig13, fig14, fig15, table1, table2

from blockkit import ENGINES


def sweep(name, engine=None, **options):
    """The results of one study's sweep at *options* (serial, uncached)."""
    specs = get_study(name).enumerate(backend=engine, options=options)
    return SweepRunner().run(specs).results


class TestTable1:
    """Table 1 runs its differential trials on the default engine."""

    def test_all_rows_match(self, default_engine):
        rows = table1.rows_from_results(sweep("table1"))
        assert len(rows) == 12
        assert all(match for *_, match in rows)

    def test_formatting(self, default_engine):
        text = table1.format_table1(table1.rows_from_results(sweep("table1")))
        assert "SpMV" in text and "MatTransMul" in text

    def test_crd_drop_differential_is_the_same_on_every_plane(self, default_engine):
        # The study runs its three trials on the default engine; the
        # all-generator oracle ``cycle`` is the cross-check.
        from repro.lang import compile_expression, primitive_row

        entry = next(e for e in table1.ENTRIES if e.name == "MTTKRP")
        program = compile_expression(
            entry.expression, formats=entry.formats, schedule=entry.schedule
        )
        counts = primitive_row(program)
        paper = dict(zip(table1.TABLE1_COLUMNS, entry.paper))
        reports = {
            backend: table1.crd_drop_differential(
                program, counts, paper, backend=backend
            )
            for backend in ENGINES
        }
        want = reports["cycle"]
        assert want["redundant"] and want["trials"] == 3
        assert want["dropped_pairs"] > 0 and "proved redundant" in want["detail"]
        assert all(report == want for report in reports.values()), reports
        assert table1.crd_drop_differential(program, counts, paper) == want


class TestTable2:
    def test_small_corpus_ablation(self):
        rows = table2.rows_from_results(
            sweep("table2", distinct=40, total=500))
        assert len(rows) == 12
        scanners = next(r for r in rows if r.scenario == "comp_and_uncomp_level_scanners")
        assert scanners.pct_unique == 100.0
        for row in rows:
            assert 0 <= row.pct_unique <= 100
        assert "paper" in table2.format_table2(rows)


class TestFig11:
    def test_small_sweep(self, engine):
        points = fig11.points_from_results(
            sweep("fig11", engine, size=12, k_sweep=(1, 4)))
        assert all(p.correct for p in points)
        unfused = {p.k: p.cycles for p in points if p.variant == "unfused"}
        coiter = {p.k: p.cycles for p in points if p.variant == "fused_coiter"}
        assert unfused[4] > coiter[4]


class TestFig12:
    def test_small_sweep(self, engine):
        points = fig12.points_from_results(sweep("fig12", engine, i=20, j=20, k=10))
        assert len(points) == 6
        assert all(p.correct for p in points)
        means = fig12.family_means(points)
        assert means["inner product"] > means["linear combination of rows"]


class TestFig13:
    def _points(self, engine, sweep_name):
        # size 200, nnz 40, split 10; x in (10, 40), (2, 20), (2, 8)
        quick = get_study("fig13").quick_options
        return fig13.points_from_results(
            sweep("fig13", engine, **quick, sweeps=(sweep_name,)))

    def test_sparsity_sweep(self, engine):
        points = self._points(engine, "nnz")
        assert all(p.correct for p in points)

    def test_runs_sweep(self, engine):
        points = self._points(engine, "run_length")
        assert all(p.correct for p in points)

    def test_blocks_sweep(self, engine):
        points = self._points(engine, "block_size")
        assert all(p.correct for p in points)


class TestFig14:
    def test_small_matrices(self, engine):
        rows = fig14.rows_from_results(sweep("fig14", engine, max_nnz=200))
        assert rows
        for row in rows:
            assert row.outer.total > 0
            assert row.inner.fractions()["idle"] < 0.05
        avg = fig14.averages(rows)
        assert 0 <= avg["outer_idle_pct"] <= 100


class TestFig15:
    def test_mini_sweep(self):
        points = fig15.points_from_results(
            sweep("fig15", dimensions=(512, 1024), nnzs=(1000,)))
        assert len(points) == 2
        assert all(p.cycles > 0 for p in points)
        text = fig15.format_fig15(points)
        assert "1000 nnz" in text

    def test_paper_grid_shape(self):
        """The Figure-15 claim on the paper's own grid (EXPERIMENTS.md)."""
        # the defaults: PAPER_DIMENSIONS x PAPER_NNZS, seed 0
        points = fig15.points_from_results(sweep("fig15"))
        assert len(points) == len(fig15.PAPER_DIMENSIONS) * len(fig15.PAPER_NNZS)
        series = {
            nnz: [p.cycles for p in points if p.nnz == nnz]  # dimension order
            for nnz in fig15.PAPER_NNZS
        }
        for nnz, cycles in series.items():
            # region 1: every series rises from the first dimension
            assert cycles[1] > cycles[0]
            assert fig15.regions(points, nnz)[0]
        for fewer, more in zip(fig15.PAPER_NNZS, fig15.PAPER_NNZS[1:]):
            assert all(a <= b for a, b in zip(series[fewer], series[more]))
        # region 2 (sparse tile skipping wins) is reached inside the grid
        # by the 5 000-nnz series only: it peaks at dimension 11 712 ...
        assert fig15.regions(points, 5000) == (True, True)
        peak = series[5000].index(max(series[5000]))
        assert fig15.PAPER_DIMENSIONS[peak] == 11712
        assert series[5000][peak:] == sorted(series[5000][peak:], reverse=True)
        # ... while the denser series are still climbing at dimension 15 720.
        for nnz in (10000, 25000, 50000):
            assert fig15.regions(points, nnz) == (True, False)
            assert series[nnz] == sorted(series[nnz])
