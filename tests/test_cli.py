"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_parser_knows_all_studies(self):
        parser = build_parser()
        for command in ("table1", "table2", "fig11", "fig12", "fig13",
                        "fig14", "fig15", "compile"):
            args = parser.parse_args(
                [command] if command != "compile" else [command, "x(i) = b(i)"]
            )
            assert args.command == command

    def test_compile_command(self, capsys):
        assert main(["compile", "x(i) = B(i,j) * c(j)"]) == 0
        out = capsys.readouterr().out
        assert "primitive counts" in out
        assert "'level_scanner': 3" in out

    def test_compile_with_schedule_and_dot(self, capsys):
        code = main([
            "compile", "X(i,j) = B(i,k) * C(k,j)", "--schedule", "i", "k", "j",
            "--dot",
        ])
        assert code == 0
        assert "digraph" in capsys.readouterr().out

    def test_graph_command_compiled_clusters(self, capsys):
        code = main(["--engine", "compiled", "graph",
                     "x(i) = B(i,j) * c(j)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert "// fusion:" in out
        assert "cluster_fused_0" in out
        # Each cluster is labelled with its segment kind.
        clusters = {}
        for chunk in out.split("subgraph cluster_fused_")[1:]:
            body = chunk.split("}")[0]
            kind = body.split("[")[1].split("]")[0]
            clusters[kind] = body
        assert set(clusters) == {"value-chain"}
        # The SpMV value chain fuses: both loads feed the multiplier,
        # which feeds the reducer.
        assert '"mul_t0_0"' in clusters["value-chain"]
        assert '"reduce_j_t0"' in clusters["value-chain"]
        # Mergers, scanners feeding them and repeaters stay unclustered.
        for name in ("intersect_j_t0", "scan_B_0_0_j", "repeat_c_0_1_i"):
            assert f'"{name}"' not in clusters["value-chain"]

    def test_graph_check_reports_ok(self, capsys, engine):
        assert main(["--engine", engine, "graph", "x(i) = B(i,j) * c(j)",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "graph ok" in out
        assert "blocks" in out and "streams validated" in out
        assert f"(engine {engine})" in out
        assert "digraph" not in out

    def test_graph_check_treats_empty_repro_engine_as_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert main(["graph", "x(i) = B(i,j) * c(j)", "--check"]) == 0
        out = capsys.readouterr().out
        assert "graph ok" in out and "(engine" not in out

    def test_graph_check_fails_on_violations(self, capsys, monkeypatch):
        # Sabotage validation so the command sees a wiring violation.
        from repro.graph import GraphValidationError
        from repro.graph.builder import Graph

        def broken_validate(self, backend=None):
            raise GraphValidationError("mul.in_a expects a 'vals' stream")

        monkeypatch.setattr(Graph, "validate", broken_validate)
        monkeypatch.delenv("REPRO_ENGINE")  # no engine forced
        with pytest.raises(SystemExit) as err:
            main(["graph", "x(i) = B(i,j) * c(j)", "--check"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "graph check FAILED" in captured.err
        assert "mul.in_a expects a 'vals' stream" in captured.err

    def test_graph_command_other_engine_plain(self, capsys):
        assert main(["--engine", "cycle", "graph",
                     "x(i) = B(i,j) * c(j)"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert "cluster_fused" not in out

    def test_graph_clusters_do_not_outlive_their_call(self, capsys):
        # The two calls share one compiled program: the first one's
        # clusters must not reach the second one's drawing.
        expression = "x(i) = B(i,j) * c(j)"
        assert main(["--engine", "compiled", "graph", expression]) == 0
        assert "cluster_fused_0" in capsys.readouterr().out
        assert main(["--engine", "cycle", "graph", expression]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out and "cluster_fused" not in out

    @pytest.mark.parametrize("forced, drawn", [
        ("", False), ("cycle", False), ("compiled", True),
    ])
    def test_graph_draws_clusters_only_under_compiled(self, capsys, monkeypatch,
                                                      forced, drawn):
        # With no engine forced a run uses cycle, which fuses nothing.
        monkeypatch.setenv("REPRO_ENGINE", forced)
        assert main(["graph", "x(i) = B(i,j) * c(j)"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out
        assert ("cluster_fused_0" in out) is drawn
        assert ("// fusion:" in out) is drawn

    @pytest.mark.parametrize("command", ["compile", "graph"])
    @pytest.mark.parametrize("expression", [
        "X(i,j) = B(i,k) * C(k",        # malformed
        "X(i,j) = B(i,k) * C(k,j)",     # a schedule conflict (LoweringError)
    ])
    def test_bad_expression_is_one_line_and_status_2(self, capsys, command,
                                                     expression):
        assert main(["--engine", "cycle", command, expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_graph_rejects_unknown_repro_engine(self, monkeypatch, check):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            main(["graph", "x(i) = B(i,j) * c(j)", *check])

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "SpMV" in capsys.readouterr().out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCLI:
    def _sweep(self, tmp_path, engine, *extra):
        return [
            "--engine", engine, "sweep", "fig11", "--quick",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_sweep_executes_then_replays(self, tmp_path, capsys, engine):
        assert main(self._sweep(tmp_path, engine)) == 0
        assert "6 executed" in capsys.readouterr().out
        assert main(self._sweep(tmp_path, engine)) == 0
        assert "6 cached, 0 executed" in capsys.readouterr().out

    def test_sweep_force_reexecutes(self, tmp_path, capsys, engine):
        main(self._sweep(tmp_path, engine))
        capsys.readouterr()
        main(self._sweep(tmp_path, engine, "--force"))
        assert "0 cached, 6 executed" in capsys.readouterr().out

    def test_sweep_jobs_matches_serial(self, tmp_path, capsys, engine):
        import json

        main(self._sweep(tmp_path, engine, "--out", str(tmp_path / "serial")))
        main(self._sweep(tmp_path, engine, "--jobs", "2", "--force",
                         "--out", str(tmp_path / "sharded")))
        serial = json.load(open(tmp_path / "serial" / "fig11.json"))
        sharded = json.load(open(tmp_path / "sharded" / "fig11.json"))
        assert [r["payload"] for r in serial] == [r["payload"] for r in sharded]

    def test_sweep_writes_artifacts(self, tmp_path, capsys, engine):
        main(self._sweep(tmp_path, engine, "--out", str(tmp_path / "art")))
        assert (tmp_path / "art" / "fig11.json").exists()
        assert (tmp_path / "art" / "fig11.csv").exists()

    def test_sweep_opt_overrides(self, tmp_path, capsys, engine):
        assert main([
            "--engine", engine, "sweep", "fig11",
            "--cache-dir", str(tmp_path / "cache"),
            "--opt", "size=10", "--opt", "k_sweep=1",
        ]) == 0
        assert "3 points" in capsys.readouterr().out

    def test_sweep_rejects_unknown_study(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "fig99", "--cache-dir", str(tmp_path / "cache")])

    def test_sweep_rejects_unknown_study_alongside_all(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "all", "fig99", "--cache-dir", str(tmp_path / "cache")])

    def test_sweep_rejects_nonpositive_jobs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._sweep(tmp_path, "cycle", "--jobs", "0"))

    def test_sweep_prune_drops_stale_versions(self, tmp_path, capsys, monkeypatch,
                                              engine):
        from repro.harness import CODE_VERSION_ENV_VAR

        monkeypatch.setenv(CODE_VERSION_ENV_VAR, "v-old")
        main(self._sweep(tmp_path, engine))
        monkeypatch.setenv(CODE_VERSION_ENV_VAR, "v-new")
        capsys.readouterr()
        main(self._sweep(tmp_path, engine, "--prune"))
        assert "pruned 6 stale cache entries" in capsys.readouterr().out

    def test_sweep_rejects_malformed_opt(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._sweep(tmp_path, "cycle", "--opt", "sizetwelve"))

    def test_report_renders_from_cache(self, tmp_path, capsys, engine):
        main(self._sweep(tmp_path, engine))
        capsys.readouterr()
        assert main([
            "--engine", engine, "report", "fig11", "--quick",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out and "unfused" in out

    def test_report_runs_missing_points(self, tmp_path, capsys):
        assert main([
            "report", "table1", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "SpMV" in capsys.readouterr().out


class TestDatasetsCLI:
    def test_list_shows_registry(self, tmp_path, capsys):
        assert main(["datasets", "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "LFAT5" in out and "synthetic" in out

    def test_materialize_then_listed_as_file(self, tmp_path, capsys):
        assert main(["datasets", "--data-dir", str(tmp_path),
                     "--materialize", "relat3"]) == 0
        assert (tmp_path / "relat3.mtx").exists()
        capsys.readouterr()
        main(["datasets", "--data-dir", str(tmp_path), "--list"])
        out = capsys.readouterr().out
        assert "file:" in out and "relat3.mtx" in out

    def test_smoke_small_matrix(self, tmp_path, capsys):
        assert main(["--engine", "timed-batch", "datasets",
                     "--data-dir", str(tmp_path),
                     "--smoke", "--matrix", "LFAT5"]) == 0
        out = capsys.readouterr().out
        assert "values match scipy reference: True" in out

    def test_smoke_honours_repro_engine(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "cycle")
        assert main(["datasets", "--data-dir", str(tmp_path),
                     "--smoke", "--matrix", "relat3"]) == 0
        out = capsys.readouterr().out
        assert "[cycle]" in out and "(0 cycles)" not in out

    def test_smoke_rejects_unknown_repro_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            main(["datasets", "--data-dir", str(tmp_path),
                  "--smoke", "--matrix", "relat3"])

    def test_list_and_smoke_combine(self, tmp_path, capsys):
        assert main(["--engine", "timed-batch", "datasets",
                     "--data-dir", str(tmp_path), "--list",
                     "--smoke", "--matrix", "relat3"]) == 0
        out = capsys.readouterr().out
        assert "rail507" in out  # the listing ran
        assert "values match scipy reference: True" in out  # so did smoke

    def test_unknown_dataset_name_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["datasets", "--data-dir", str(tmp_path),
                  "--materialize", "typo"])
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["datasets", "--data-dir", str(tmp_path),
                  "--smoke", "--matrix", "typo"])

    def test_materialize_skips_existing(self, tmp_path, capsys):
        main(["datasets", "--data-dir", str(tmp_path),
              "--materialize", "relat3"])
        capsys.readouterr()
        assert main(["datasets", "--data-dir", str(tmp_path),
                     "--materialize", "relat3"]) == 0
        assert "skipping" in capsys.readouterr().out
