"""``tools/check_links.py``: the docs name only what the code has."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_links", ROOT / "tools" / "check_links.py")
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def tree(tmp_path, code, doc):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(code)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "doc.md").write_text(doc)
    return str(tmp_path)


def refused(root):
    return [message.split("`")[1] for _, message in check_links.check_names(root)]


def test_the_repository_docs_pass(capsys):
    assert check_links.main([str(ROOT)]) == 0
    assert "docs links OK" in capsys.readouterr().out


def test_a_camelcase_name_the_code_lacks_is_refused(tmp_path):
    root = tree(tmp_path, "class FiberTensor:\n    pass\n",
                "`FiberTensor` and `repro.blocks.GoneBlock(x)`; "
                "`SamGraph.add` once more\n")
    assert refused(root) == ["GoneBlock", "SamGraph"]


def test_only_camelcase_names_are_checked(tmp_path):
    # one capital (a plain word), no lower-case letter (an acronym), an
    # underscore (a file stem) or prose outside backticks: none is a name
    root = tree(tmp_path, "x = 1\n",
                "`Block`, `ALU`, `BENCH_formats.json`, `x(i) = B(i,j)`, "
                "GoneBlock\n")
    assert refused(root) == []


def test_private_names_are_still_checked(tmp_path):
    root = tree(tmp_path, "def _kept():\n    pass\n", "`_kept` and `_gone`\n")
    assert refused(root) == ["_gone"]


def test_a_named_doc_the_tree_lacks_is_skipped(tmp_path):
    # neither README.md nor EXPERIMENTS.md exists: docs/ is still read
    root = tree(tmp_path, "x = 1\n", "`GoneBlock` and `repro nosuchcommand`\n")
    assert refused(root) == ["GoneBlock"]
    assert [message for _, message in check_links.check_commands(root)]
    (tmp_path / "README.md").write_text("`OtherGone`\n")
    assert refused(root) == ["GoneBlock", "OtherGone"]
