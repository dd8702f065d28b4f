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


def test_a_dotted_name_the_package_lacks_is_refused(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "data").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "data" / "__init__.py").write_text("from .io import read_mtx\n")
    (package / "data" / "io.py").write_text(
        "def read_mtx(path):\n    pass\n\n\n"
        "class CooTensor:\n    def __init__(self):\n        self.shape = ()\n\n"
        "    def to_scipy(self):\n        pass\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "doc.md").write_text(
        "`repro.data.io.read_mtx`, `repro.data.read_mtx(path)`, "
        "`repro.data.io.CooTensor.to_scipy`, `repro.data.io.CooTensor.shape`, "
        "`repro.data` and `repro.data.io`;\n"
        "gone: `repro.data.io.read_tns`, `repro.data.load_all`, "
        "`repro.data.io.CooTensor.to_fibertensor`, `repro.nothing.here`\n")
    refused = [message.split("`")[1]
               for _, message in check_links.check_dotted(str(tmp_path))]
    assert refused == ["repro.data.io.read_tns", "repro.data.load_all",
                       "repro.data.io.CooTensor.to_fibertensor",
                       "repro.nothing.here"]


def test_a_roadmap_item_the_roadmap_lacks_is_refused(tmp_path):
    root = tree(tmp_path, "x = 1\n",
                "ROADMAP item 2, ROADMAP items 3(d), 7 and 9, ROADMAP item 4\n")
    (tmp_path / "ROADMAP.md").write_text(
        "## Open items\n\nSuggested order:\n1. Item 9 first.\n\n"
        "2. **Two engines.**\n3. **Windows.**\n\n"
        "Items 5 and 7 are done.\n- Item 4 (a front end): done in a PR.\n")
    (tmp_path / "CHANGES.md").write_text("Serves ROADMAP item 6.\n")
    cited = [message.split("item ")[-1].split(",")[0]
             for _, message in check_links.check_roadmap_refs(root)]
    assert cited == ["9", "6"]
