#!/usr/bin/env python3
"""Product census: which functions of ``src/repro`` do the user paths run?

Runs every path a user takes through the product in this process --
each study's quick grid swept and rendered on the three engines, a
cold, a warm and a ``--prune`` sweep (with a ``--jobs 2`` shard and a
bad ``--opt``), ``repro lint all --cross-validate`` and ``repro --engine
cycle lint all`` (every kernel on the oracle), the ``graph``
(expressions and a kernel) / ``compile`` / ``datasets`` commands CI
runs, the seven examples and every ``python`` block of README.md --
under ``sys.setprofile``, then lists every function defined in
``src/repro`` that none of them entered.

An unentered function must be a row of :data:`ALLOWLIST`, which gives
the one reason it stays (:data:`REASONS`), or be an error path by name
(:data:`ERROR_PATH_NAMES`).  The item numbers in two reasons are
ROADMAP.md items: the code waits on them.

Exits 1 when a function nobody enters is neither, when an allowlist row
names a function that is now entered or no longer exists, or when a
path fails.  Prints the count of unentered functions per reason and the
function reach (entered / defined).

Usage::

    PYTHONPATH=src python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: why an unentered function stays: it runs on bad input or a protocol
#: fault; it is the reference a faster path is tested against; the plan
#: hands a hand-built run to ``cycle`` before it starts for it; it is
#: the compiled engine's fall-back to the plain window plane; perfbench/
#: imports it; the paper-claim verdicts will read it; it is library
#: surface kept on purpose
REASONS = (ERROR, ORACLE, HANDOFF, COMPILED, PERFBENCH, CLAIMS, PUBLIC) = (
    "error-path", "oracle", "plan-handoff", "compiled (item 2(b))",
    "perfbench-import", "claims (item 19)", "public-api",
)

#: unentered functions that are error paths by their name alone
ERROR_PATH_NAMES = ("_raise_*", "_check_*", "*_misaligned")

ENGINES = ("cycle", "timed-batch", "compiled")
SPMV = "x(i) = B(i,j) * c(j)"
SPMM = "X(i,j) = B(i,k) * C(k,j)"

#: ``repro`` argument lists and the exit status each must return;
#: ``{cache}``, ``{out}``, ``{data}`` and ``{tmp}`` are scratch paths
CLI_PATHS = (
    *((("--engine", engine, "report", "--quick", "--cache-dir", "none"), 0)
      for engine in ENGINES),
    (("--engine", "timed-batch", "sweep", "--quick", "--cache-dir", "{cache}",
      "--out", "{out}"), 0),
    (("--engine", "timed-batch", "sweep", "--quick", "--cache-dir", "{cache}"), 0),
    (("--engine", "timed-batch", "sweep", "--quick", "--prune",
      "--cache-dir", "{cache}"), 0),
    (("--engine", "timed-batch", "sweep", "table2", "fig11", "--quick",
      "--jobs", "2", "--force", "--cache-dir", "{cache}"), 0),
    (("--engine", "timed-batch", "report", "table2", "fig11", "--quick",
      "--cache-dir", "{cache}"), 0),
    # fig11 at the paper's size: its dense scanners cut slabs (CI's memory gate)
    (("report", "fig11", "--opt", "size=250", "--opt", "k_sweep=100",
      "--cache-dir", "none"), 0),
    (("--engine", "timed-batch", "sweep", "fig12", "--quick", "--opt", "k=-2",
      "--cache-dir", "none"), 2),
    (("--engine", "timed-batch", "lint", "all", "--cross-validate",
      "--json", "{tmp}/lint.json"), 0),
    (("--engine", "cycle", "lint", "all"), 0),
    (("--engine", "cycle", "graph", SPMV, "--check"), 0),
    (("--engine", "compiled", "graph", SPMM, "--schedule", "i", "k", "j",
      "--check"), 0),
    (("--engine", "compiled", "graph", SPMV), 0),
    (("--engine", "cycle", "graph", SPMM, "--schedule", "i", "k", "j",
      "--dump-plan"), 0),
    (("graph", "outerspace"), 0),
    (("compile", SPMV, "--dot"), 0),
    (("datasets", "--list"), 0),
    (("datasets", "--materialize", "lpl3", "--data-dir", "{data}"), 0),
    (("--engine", "timed-batch", "datasets", "--smoke", "--matrix", "lpl3",
      "--data-dir", "{data}"), 0),
)

#: what an older version left in the cache: a file of the per-point
#: layout, which ``--prune`` names, and a line no load can parse, which
#: ``--prune`` drops
OLD_LAYOUT = "table1/0123abcd.json"
TORN_LINE = ("table1.jsonl", "0123abcd {\"spec\": \n")

#: every function no path enters, and the reason it stays
ALLOWLIST = {
    # a lint finding: `repro lint` on a faulty graph
    "repro.analysis.deadlock:_alternative_path": ERROR,
    "repro.analysis.findings:AnalysisReport.add": ERROR,
    "repro.analysis.findings:AnalysisReport.render": ERROR,
    "repro.analysis.findings:AnalysisReport.warnings": ERROR,
    "repro.analysis.findings:Finding.__post_init__": ERROR,
    "repro.analysis.findings:Finding.rank": ERROR,
    "repro.analysis.findings:Finding.render": ERROR,
    "repro.analysis.findings:Finding.to_json": ERROR,
    # a protocol fault in a block's input streams
    "repro.blocks.drop:CoordDropper._mid_fiber": ERROR,
    "repro.blocks.repeat:Repeater._mid_fiber": ERROR,
    "repro.blocks.writer:_BadValue.__init__": ERROR,
    "repro.streams.timing:Fibers.tokens": ERROR,
    "repro.streams.token:is_control": ERROR,
    "repro.streams.token:show_value": ERROR,
    "repro.streams.token:token_repr": ERROR,
    # a malformed .mtx body, a graph wired wrong, a run that deadlocks
    "repro.data.io:_body_error": ERROR,
    "repro.data.io:_is_number": ERROR,
    "repro.graph.bind:_Inputs.__missing__": ERROR,
    "repro.graph.builder:GraphValidationError.__init__": ERROR,
    "repro.sim.backends.base:Engine._deadlock": ERROR,
    # only `cycle` steps it, and no user path runs a graph with a Sink on
    # `cycle` (examples/tiled_finite_memory.py's tile sequencer runs on
    # the default engine)
    "repro.blocks.base:Sink._run": ORACLE,
    "repro.formats.compressed:CompressedLevel.from_fibers": ORACLE,
    "repro.formats.tensor:FiberTensor.from_coords_reference": ORACLE,
    # a hand-built run the plan sends to `cycle` before it starts: a
    # token queued before the run that does not batch, a finite FIFO
    "repro.sim.backends.plan:_queued": HANDOFF,
    "repro.sim.backends.plan:plan_blocks.demote": HANDOFF,
    # a fused unit hands its operand windows back and dissolves
    "repro.sim.backends.compiled:_Side.put_back": COMPILED,
    "repro.sim.backends.timed_batch:TimedBatchEngine.run.dissolve": COMPILED,
    # tokens a caller queued on a channel before the run, a stream that
    # goes on after its D, and a hand-wired run's output no block reads
    # (a bound graph's open outputs keep nothing)
    "repro.streams.batch:concat_batches": PUBLIC,
    "repro.streams.channel:Channel.materialize_timed": PUBLIC,
    "repro.streams.channel:Channel.stamp_queue": PUBLIC,
    "repro.streams.channel:Channel.take_batch": PUBLIC,
    "repro.streams.channel:Channel.timed_requeue_front": ERROR,
    "repro.jit:PlanCache.__len__": PERFBENCH,
    "repro.jit:PlanCache.clear": PERFBENCH,
    "repro.jit:jit_stats": PERFBENCH,
    "repro.jit:warmup": PERFBENCH,
    "repro.sim.stats:graph_token_counts": PERFBENCH,
    "repro.streams.batch:sequential_segment_sums": PERFBENCH,
    "repro.streams.timing:compose_rate1": PERFBENCH,
    "repro.studies.fig12:family_means": CLAIMS,
    "repro.studies.fig15:regions": CLAIMS,
    # the interfaces a new block, engine or level format implements
    "repro.blocks.base:Block._run": PUBLIC,
    "repro.sim.backends.base:Engine.run": PUBLIC,
    "repro.formats.level:Level.fiber_arrays": PUBLIC,
    "repro.formats.level:Level.locate_arrays": PUBLIC,
    "repro.formats.level:Level.num_fibers": PUBLIC,
    # level formats no study builds or probes: bitvector, dense, linked list
    "repro.formats.bitvector:BitvectorLevel.__repr__": PUBLIC,
    "repro.formats.bitvector:BitvectorLevel.fiber_arrays": PUBLIC,
    "repro.formats.bitvector:BitvectorLevel.from_arrays": PUBLIC,
    "repro.formats.bitvector:BitvectorLevel.num_fibers": PUBLIC,
    "repro.formats.compressed:CompressedLevel.__repr__": PUBLIC,
    "repro.formats.compressed:CompressedLevel.num_fibers": PUBLIC,
    "repro.formats.dense:DenseLevel.__repr__": PUBLIC,
    "repro.formats.dense:DenseLevel.num_fibers": PUBLIC,
    "repro.formats.linkedlist:LinkedListLevel.__repr__": PUBLIC,
    "repro.formats.linkedlist:LinkedListLevel.num_fibers": PUBLIC,
    # a numeric literal on `cycle` (README's quick-start runs ScalarALU on
    # the default engine); a scalar operand given as a plain number
    "repro.blocks.compute:ScalarALU._run": PUBLIC,
    "repro.formats.tensor:scalar_tensor": PUBLIC,
    # operands and specs a library caller builds: a .mtx in the array format
    # or with float-spelled indices, numpy scalars in a sweep point
    "repro.data.io:CooTensor.to_fibertensor": PUBLIC,
    "repro.data.io:_exact_indices": PUBLIC,
    "repro.data.io:_load_floats": PUBLIC,
    "repro.data.io:_zero_indexed": PUBLIC,
    "repro.harness.spec:_json_default": PUBLIC,
    # `repro datasets --materialize all`; the result cache's own API
    "repro.data.registry:DatasetRegistry.names": PUBLIC,
    "repro.harness.cache:ResultCache.__contains__": PUBLIC,
    "repro.harness.cache:ResultCache.evict": PUBLIC,
    "repro.harness.cache:ResultCache.iter_entries": PUBLIC,
    "repro.harness.cache:ResultCache.size": PUBLIC,
    # containers and their printed form
    "repro.blocks.base:Block.__repr__": PUBLIC,
    "repro.formats.tensor:FiberTensor.__repr__": PUBLIC,
    "repro.formats.tensor:FiberTensor.nnz": PUBLIC,
    "repro.graph.ir:SamGraph.__repr__": PUBLIC,
    "repro.lang.compile:CompiledProgram.__repr__": PUBLIC,
    "repro.sim.backends.base:SimulationReport.__repr__": PUBLIC,
    "repro.streams.batch:TokenBatch.__repr__": PUBLIC,
    "repro.streams.channel:Channel.__len__": PUBLIC,
    "repro.streams.token:Stop.__hash__": PUBLIC,
    "repro.streams.token:Stop.__repr__": PUBLIC,
    "repro.streams.token:_Done.__repr__": PUBLIC,
    "repro.streams.token:_Empty.__repr__": PUBLIC,
}


def defined_functions(package: Path) -> dict:
    """``{(file, first line, name): "module:Qual.name"}`` for every ``def``
    under *package*; the first line is a decorated function's first
    decorator, as its code object records it."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    qual = prefix + child.name
                    found[(os.path.realpath(path), first, child.name)] = \
                        f"{module}:{qual}"
                    walk(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


@contextlib.contextmanager
def profiled():
    """Collect the code object of every Python call made inside the
    block, on this thread and on threads started in it."""
    seen: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def entered_keys(seen: dict) -> set:
    return {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in seen.values()}


def run_paths(tmp: str) -> list:
    """Run every user path; the failures, one line each."""
    from repro.cli import main

    dirs = {name: os.path.join(tmp, name) for name in ("cache", "out", "data")}
    dirs["tmp"] = tmp
    old = os.path.join(dirs["cache"], OLD_LAYOUT)
    os.makedirs(os.path.dirname(old))
    Path(old).write_text("{}\n")
    Path(dirs["cache"], TORN_LINE[0]).write_text(TORN_LINE[1])
    failures = []
    for argv, status in CLI_PATHS:
        argv = [arg.format(**dirs) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            got = main(argv)
        if got != status:
            failures.append(f"repro {' '.join(argv)}: exit {got}, not {status}")
    for example in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    for i, block in enumerate(readme_blocks()):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md python block {i}", "exec"), {})
    return failures


def readme_blocks() -> list:
    """The source of every ``python`` block of README.md, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def verdict(functions: dict, entered: set, allowlist: dict) -> tuple:
    """``(unentered, problems)``: every unentered function with its
    reason, and each breach of the census's rules."""
    unentered, problems = {}, []
    names = set(functions.values())
    for key, name in sorted(functions.items(), key=lambda kv: kv[1]):
        if key in entered:
            if name in allowlist:
                problems.append(f"{name}: entered, drop its allowlist row")
            continue
        if name in allowlist:
            unentered[name] = allowlist[name]
        elif any(fnmatch(key[2], pattern) for pattern in ERROR_PATH_NAMES):
            unentered[name] = ERROR
        else:
            unentered[name] = None
            problems.append(f"{name}: no path enters it")
    for name, reason in sorted(allowlist.items()):
        if name not in names:
            problems.append(f"{name}: allowlisted, but no such function")
        if reason not in REASONS:
            problems.append(f"{name}: reason {reason!r} is not one of {REASONS}")
    return unentered, problems


def report(functions: dict, entered: set, allowlist: dict, out=sys.stdout) -> int:
    """Print the unentered functions, the breaches and the reach; the
    exit status."""
    unentered, problems = verdict(functions, entered, allowlist)
    for name, reason in unentered.items():
        print(f"unentered {name} [{reason or 'NO REASON'}]", file=out)
    for problem in problems:
        print(f"census: {problem}", file=out)
    for reason in REASONS:
        count = sum(r == reason for r in unentered.values())
        print(f"unentered [{reason}]: {count}", file=out)
    total = len(functions)
    reach = (total - len(unentered)) / total if total else 1.0
    print(f"function reach: {100 * reach:.1f} % "
          f"({total - len(unentered)} of {total} functions entered)", file=out)
    return 1 if problems else 0


def main() -> int:
    for var in ("REPRO_CACHE_DIR", "REPRO_DATA_DIR"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(PACKAGE.parent))
    functions = defined_functions(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp, profiled() as seen:
        failures = run_paths(tmp)
    for failure in failures:
        print(f"census: {failure}")
    status = report(functions, entered_keys(seen), ALLOWLIST)
    return 1 if failures else status


if __name__ == "__main__":
    sys.exit(main())
