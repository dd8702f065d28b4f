"""``repro lint`` CLI surface."""

import json

import pytest

from repro.cli import build_parser, main


class TestLintCLI:
    def test_parser_accepts_lint(self):
        args = build_parser().parse_args(["lint", "spmv", "--rate"])
        assert args.command == "lint"
        assert args.targets == ["spmv"]
        assert args.rate

    def test_lint_kernel_clean(self, capsys):
        assert main(["--engine", "timed-batch", "lint", "spmv"]) == 0
        out = capsys.readouterr().out
        assert "spmv[0]: clean" in out
        assert "0 errors" in out

    def test_lint_expression_with_rate(self, capsys):
        assert main(["--engine", "timed-batch", "lint", "x(i) = B(i,j) * c(j)",
                     "--rate"]) == 0
        out = capsys.readouterr().out
        assert "clean (bottleneck " in out

    def test_lint_cross_validate_reports_agreement(self, capsys, engine):
        assert main(["--engine", engine, "lint", "gamma", "--cross-validate"]) == 0
        out = capsys.readouterr().out
        assert "counters agree" in out

    def test_lint_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "findings.json"
        assert main(["--engine", "timed-batch", "lint", "spmv",
                     "--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["errors"] == 0
        assert len(payload["graphs"]) == 3
        for graph in payload["graphs"]:
            assert graph["summary"]["error"] == 0
            assert graph["meta"]["deadlock"]["proved_free"]
            assert graph["meta"]["protocol"]["signatures"]

    def test_lint_unknown_target_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["lint", "nonesuch"])
