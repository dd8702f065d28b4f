"""``tools/census.py``: every unentered function is allowlisted or fails."""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

MODULE = '''
def used():
    return helper()


def helper():
    return 1


def unused():
    return 2


def _raise_bad():
    raise ValueError("bad")


class Kind:
    @staticmethod
    def method():
        return 3
'''


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """The functions of a tiny package, and the ones a call of ``used``
    and ``Kind.method`` entered."""
    package = tmp_path / "censuspkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    mod = importlib.import_module("censuspkg.mod")
    with census.profiled() as seen:
        mod.used()
        mod.Kind.method()
    yield census.defined_functions(package), census.entered_keys(seen)
    for name in ("censuspkg.mod", "censuspkg"):
        sys.modules.pop(name, None)


def run(traced, allowlist):
    out = io.StringIO()
    status = census.report(*traced, allowlist, out=out)
    return status, out.getvalue().splitlines()


def test_the_one_uncalled_function_fails(traced):
    functions, _ = traced
    assert sorted(functions.values()) == [
        "censuspkg.mod:Kind.method", "censuspkg.mod:_raise_bad",
        "censuspkg.mod:helper", "censuspkg.mod:unused", "censuspkg.mod:used"]
    status, lines = run(traced, {})
    assert status == 1
    assert lines == [
        "unentered censuspkg.mod:_raise_bad [error-path]",
        "unentered censuspkg.mod:unused [NO REASON]",
        "census: censuspkg.mod:unused: no path enters it",
        "unentered [error-path]: 1",
        *(f"unentered [{reason}]: 0" for reason in census.REASONS[1:]),
        "function reach: 60.0 % (3 of 5 functions entered)",
    ]


def test_an_allowlisted_function_and_an_error_path_by_name_pass(traced):
    # _raise_bad needs no row: its name makes it an error path
    status, lines = run(traced, {"censuspkg.mod:unused": "public-api"})
    assert status == 0
    assert lines[:2] == ["unentered censuspkg.mod:_raise_bad [error-path]",
                         "unentered censuspkg.mod:unused [public-api]"]


def test_a_stale_allowlist_row_fails(traced):
    rows = {"censuspkg.mod:unused": "public-api"}
    for row, problem in [
        ({"censuspkg.mod:used": "oracle"},
         "census: censuspkg.mod:used: entered, drop its allowlist row"),
        ({"censuspkg.mod:gone": "oracle"},
         "census: censuspkg.mod:gone: allowlisted, but no such function"),
        ({"censuspkg.mod:unused": "kept"},
         f"census: censuspkg.mod:unused: reason 'kept' is not one of "
         f"{census.REASONS}"),
    ]:
        status, lines = run(traced, {**rows, **row})
        assert status == 1
        assert problem in lines


def test_the_public_api_rows_are_counted():
    # a new public-api row is a function no user path runs: it is added
    # here, on purpose, or not at all
    rows = [name for name, reason in census.ALLOWLIST.items()
            if reason == census.PUBLIC]
    assert len(rows) == 43
