"""Golden-structure capture for the kernel graphs.

The declarative-port migration must be a pure construction-layer
refactor: every kernel has to assemble the *same* blocks wired by the
*same* channel topology and produce bit-identical reports on every
backend.  This module captures both as JSON-stable signatures:

* :func:`graph_signature` — block list (name, primitive, class) plus the
  port-level channel topology (src.port -> dst.port edges, unfed inputs,
  dangling outputs);
* :func:`report_signature` — cycles, per-block busy/stall counters, and
  the compiled backend's fusion kind counts.

``tests/graph/test_golden_structure.py --regen`` regenerates the pinned
``golden_structures.json`` (run against a known-good tree only).
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, List

import numpy as np

from blockkit import ENGINES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_structures.json")


def graph_signature(blocks) -> Dict:
    """Structural signature of a wired block list (topology, not values)."""
    producers: Dict[int, List] = {}
    consumers: Dict[int, List] = {}
    chan_info: Dict[int, tuple] = {}
    for block in blocks:
        for port, ch in block.outputs.items():
            producers.setdefault(id(ch), []).append((block.name, port))
            chan_info[id(ch)] = (ch.kind, ch.capacity)
        for port, ch in block.inputs.items():
            consumers.setdefault(id(ch), []).append((block.name, port))
            chan_info[id(ch)] = (ch.kind, ch.capacity)
    edges = []
    unfed = []
    dangling = []
    for cid, (kind, _cap) in chan_info.items():
        srcs = producers.get(cid, [])
        dsts = consumers.get(cid, [])
        for src, sport in srcs or [(None, None)]:
            for dst, dport in dsts or [(None, None)]:
                if src is None:
                    unfed.append(f"{dst}.{dport} [{kind}]")
                elif dst is None:
                    dangling.append(f"{src}.{sport} [{kind}]")
                else:
                    edges.append(f"{src}.{sport} -> {dst}.{dport} [{kind}]")
    return {
        "blocks": sorted(
            f"{b.name} ({b.primitive}/{type(b).__name__})" for b in blocks
        ),
        "edges": sorted(edges),
        "unfed_inputs": sorted(unfed),
        "dangling_outputs": sorted(dangling),
    }


def report_signature(report) -> Dict:
    """Bit-level report signature: cycles, counters, fusion kinds."""
    sig = {
        "cycles": report.cycles,
        "activity": {
            name: [act["busy"], act["stall"]]
            for name, act in sorted(report.block_activity().items())
        },
    }
    fusion = getattr(report, "fusion", None)
    if fusion is not None:
        sig["fusion_kinds"] = dict(sorted(fusion.get("kinds", {}).items()))
    return sig


@contextlib.contextmanager
def patched_runs(wrap):
    """Route every launch through ``wrap(run_blocks)`` while active:
    every graph runs through ``repro.graph.bind``'s ``run_blocks``."""
    import importlib

    bind_mod = importlib.import_module("repro.graph.bind")
    original = bind_mod.run_blocks
    bind_mod.run_blocks = wrap(original)
    try:
        yield
    finally:
        bind_mod.run_blocks = original


@contextlib.contextmanager
def capture_runs(structures: List[Dict]):
    """Append one :func:`graph_signature` per simulation launched while
    active."""

    def wrap(original):
        def runner(blocks, *args, **kwargs):
            blocks = list(blocks)
            structures.append(graph_signature(blocks))
            return original(blocks, *args, **kwargs)

        return runner

    with patched_runs(wrap):
        yield structures


def capture_reports(reports: List[Dict]):
    """Append one :func:`report_signature` per simulation launched while
    active."""

    def wrap(original):
        def runner(blocks, *args, **kwargs):
            report = original(blocks, *args, **kwargs)
            reports.append(report_signature(report))
            return report

        return runner

    return patched_runs(wrap)


def _operands(seed: int = 7):
    rng = np.random.default_rng(seed)

    def sparse(shape, density=0.4):
        dense = rng.uniform(0.5, 2.0, size=shape)
        return np.where(rng.random(shape) < density, dense, 0.0)

    return {
        "B10": sparse((10, 10)),
        "C10": sparse((10, 10)),
        "B8": sparse((8, 8)),
        "C8": sparse((8, 8)),
        "B6": sparse((6, 6)),
        "C6": sparse((6, 6)),
        "D86": rng.uniform(0.5, 2.0, size=(8, 6)),
        "C86": rng.uniform(0.5, 2.0, size=(8, 6)),
        "c10": rng.uniform(0.5, 2.0, size=10),
        "b32": sparse((32,)),
        "c32": sparse((32,)),
    }


def kernel_cases():
    """(case name, runner(backend) -> report list) for all six kernels."""
    ops = _operands()

    def spmv_locate(backend):
        from repro.kernels.spmv import spmv_locate

        spmv_locate(ops["B10"], ops["c10"], backend=backend)

    def spmv_scatter(backend):
        from repro.kernels.spmv import spmv_scatter

        spmv_scatter(ops["B10"], ops["c10"], backend=backend)

    def spmv_compiled(backend):
        from repro.kernels.spmv import spmv_program

        spmv_program().run({"B": ops["B8"], "c": ops["c10"][:8]},
                           backend=backend)

    def gamma(backend):
        from repro.kernels.gamma import gamma_spmm

        gamma_spmm(ops["B8"], ops["C8"], lanes=3, backend=backend)

    def outerspace(backend):
        from repro.kernels.outerspace import outerspace_spmm

        outerspace_spmm(ops["B6"], ops["C6"], backend=backend)

    def elementwise(backend):
        from repro.kernels.elementwise import CONFIGS, vecmul

        for config in CONFIGS:
            vecmul(config, ops["b32"], ops["c32"], split=4, bits_per_word=8,
                   backend=backend)

    def sddmm(backend):
        from repro.kernels.sddmm import (
            sddmm_fused_coiter,
            sddmm_fused_locate,
            sddmm_unfused,
        )

        sddmm_unfused(ops["B8"], ops["C86"], ops["D86"], backend=backend)
        sddmm_fused_coiter(ops["B8"], ops["C86"], ops["D86"], backend=backend)
        sddmm_fused_locate(ops["B8"], ops["C86"], ops["D86"], backend=backend)

    def spmm(backend):
        from repro.kernels.spmm import run_spmm

        run_spmm(ops["B8"], ops["C8"], order="ikj", backend=backend)
        run_spmm(ops["B8"], ops["C8"], order="kij", backend=backend)

    return [
        ("spmv_locate", spmv_locate),
        ("spmv_scatter", spmv_scatter),
        ("spmv_compiled", spmv_compiled),
        ("gamma", gamma),
        ("outerspace", outerspace),
        ("elementwise", elementwise),
        ("sddmm", sddmm),
        ("spmm", spmm),
    ]


def capture_all() -> Dict:
    """Structures (backend-independent) + per-backend report signatures."""
    out: Dict = {}
    for name, runner in kernel_cases():
        structures: List[Dict] = []
        with capture_runs(structures):
            runner("cycle")
        entry = {"structures": structures, "reports": {}}
        for backend in ENGINES:
            reports: List[Dict] = []
            with capture_reports(reports):
                runner(backend)
            entry["reports"][backend] = reports
        out[name] = entry
    return out


def load_golden() -> Dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def write_golden(data: Dict) -> str:
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return GOLDEN_PATH
