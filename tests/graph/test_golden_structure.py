"""Structural + report golden tests for the declarative-port migration.

The pinned ``golden_structures.json`` was captured from the hand-wired
(pre-refactor) kernels; these tests assert the migrated kernels build
isomorphic graphs (same blocks, same port-level channel topology) and
produce bit-identical reports (cycles, per-block busy/stall, fusion kind
counts) on every backend.

Regenerate with ``PYTHONPATH=src python tests/graph/test_golden_structure.py --regen``
(only against a tree whose reports are known to match the seed).
"""

import sys

import pytest

from _goldenlib import capture_runs, kernel_cases, load_golden, report_signature
from blockkit import ENGINES

_CASES = {name: runner for name, runner in kernel_cases()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_structure_isomorphic_to_hand_wired(name, golden):
    structures = []
    with capture_runs(structures):
        _CASES[name]("cycle")
    assert structures == golden[name]["structures"], (
        f"{name}: migrated graph topology diverged from the hand-wired "
        f"golden capture"
    )


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("name", sorted(_CASES))
def test_reports_bit_identical(name, backend, golden):
    import importlib

    bind_mod = importlib.import_module("repro.graph.bind")
    builder_mod = importlib.import_module("repro.graph.builder")

    reports = []
    originals = (builder_mod.run_blocks, bind_mod.run_blocks)

    def wrap(original):
        def runner(blocks, *args, **kwargs):
            report = original(blocks, *args, **kwargs)
            reports.append(report_signature(report))
            return report

        return runner

    builder_mod.run_blocks = wrap(originals[0])
    bind_mod.run_blocks = wrap(originals[1])
    try:
        _CASES[name](backend)
    finally:
        builder_mod.run_blocks, bind_mod.run_blocks = originals
    assert reports == golden[name]["reports"][backend], (
        f"{name} on {backend}: report diverged from the pre-refactor capture"
    )


if __name__ == "__main__":
    if "--regen" in sys.argv:
        from _goldenlib import capture_all, write_golden

        path = write_golden(capture_all())
        print(f"wrote {path}")
    else:
        print("usage: test_golden_structure.py --regen")
