#!/usr/bin/env python3
"""Mutation-kill check: the differentials must reject known-wrong edits.

Each entry of :data:`MUTATIONS` is one exact ``(file, old text, new
text)`` edit of ``src/`` that makes the code wrong — a gate dropped, a
pick swapped, a check skipped — and the test module that must notice.
For each one the check copies ``src/`` into a temporary directory,
applies the edit there, and runs that module against the copy; a
mutation *survives* when its tests pass.  The check fails (exit 1) if
any mutation survives, or if an edit's old text does not occur exactly
once (the source moved on: update the entry).

Usage::

    python tools/mutation_kill.py

It mutates this checkout's ``src/``: the window hooks and the
coordinate check of a feeder and of the plan are judged by
``tests/blocks/test_window_blocks.py`` (a value stream read as
coordinates by ``tests/blocks/test_reduce.py``), the engines' plane rule and the
parallelizer's ``N`` by ``tests/sim/test_plane_rule.py`` (the plane rule's
finite-FIFO gate by ``tests/sim/test_window_identity.py``, the
worklist's dependency-order seed by ``tests/sim/test_visit_order.py``,
the slab rule and the open outputs by ``tests/sim/test_slab_rule.py``),
the ``.mtx`` reader's byte-grammar check and its one-thread parse by
``tests/data/test_io.py``, the fibertree build's grouping passes by
``tests/formats/test_sorted_ingest.py``, the Table-1 pass's fixed cost
and the plan memo by ``tests/sim/test_call_budget.py``, the compile
memo and the immutable program it shares by
``tests/lang/test_compile_once.py``, scipy loaded on first use, not on
import, by ``tests/test_scipy_on_first_use.py``.
Every mutation costs one pytest run that stops at its first failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = "tests/blocks/test_window_blocks.py"
INGEST = "tests/data/test_io.py"
BUILD = "tests/formats/test_sorted_ingest.py"
PLANES = "tests/sim/test_plane_rule.py"
IDENTITY = "tests/sim/test_window_identity.py"
VISITS = "tests/sim/test_visit_order.py"
BUDGET = "tests/sim/test_call_budget.py"
COMPILE = "tests/lang/test_compile_once.py"
LAZY_SCIPY = "tests/test_scipy_on_first_use.py"
REDUCE = "tests/blocks/test_reduce.py"
SLABS = "tests/sim/test_slab_rule.py"
#: seconds one mutation's test run may take (a hang counts as killed)
TIMEOUT = 900


class Mutation(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: str = BLOCKS  # the test module that must kill it


MUTATIONS = (
    # -- the mergers and the vector reducer
    Mutation("merge gate without np.maximum", "repro/blocks/merge.py",
             "gate[at] = np.maximum(gate[at], arr[1:]) if n else arr[1:]",
             "gate[at] = arr[1:]"),
    # the fiber runs a scanner hands a merger side or a locator
    Mutation("run ramp starts a pair late", "repro/blocks/scanner.py",
             "first = offs + ev.starts + ev.after + runs.delta",
             "first = offs + ev.starts + ev.after + 1 + runs.delta"),
    Mutation("walk without the closing-stop gate", "repro/blocks/merge.py",
             "w2 = np.where(view.lens > 0, view.stops - e2, never)",
             "w2 = np.full(k, never)"),
    Mutation("locator run schedule without the terminator gate",
             "repro/blocks/locate.py",
             "val[1::2] = view.stops",
             "val[1::2] = 0"),
    # the reducer sorts what its workspace does not hold
    Mutation("reducer argsort key without its offset", "repro/blocks/reduce.py",
             "key = (region[a:b] - first) * span + (key - lo)",
             "key = (region[a:b] - first) * span + key"),
    Mutation("reducer argsort without the window_capacity split",
             "repro/blocks/reduce.py",
             "per = max(window_capacity(span), 1)",
             "per = len(sizes)"),
    Mutation("reducer workspace reads its sums, not its touched slots",
             "repro/blocks/reduce.py",
             "hit = touched.nonzero()[0]",
             "hit = sums.nonzero()[0]"),
    # -- the value dropper
    Mutation("value dropper without open pairs", "repro/blocks/drop.py",
             "crd, val = common_front([front_stream(w) for w in windows])",
             "crd, val = (v.head(len(v.codes)) for v in\n"
             "                    common_front([front_stream(w) for w in windows]))"),
    Mutation("value dropper without the coordinate gate on pairs",
             "repro/blocks/drop.py",
             "arrivals[on_value] = np.maximum(crd.sdata, val.sdata)",
             "arrivals[on_value] = val.sdata"),
    Mutation("value dropper without the coordinate gate on terminators",
             "repro/blocks/drop.py",
             "arrivals[ends] = np.maximum(crd.scodes, val.scodes)",
             "arrivals[ends] = val.scodes"),
    Mutation("value dropper without the coordinate gate on the first phantom",
             "repro/blocks/drop.py",
             "arrivals[first] = np.maximum(arrivals[first], crd.scodes)",
             "pass"),
    # -- the coordinate dropper
    Mutation("coordinate dropper without its fold gate", "repro/blocks/drop.py",
             "arrivals = insert_sorted(arrivals, at[folds] + 1, ostamps[fold[folds]])",
             "arrivals = insert_sorted(arrivals, at[folds] + 1, 0)"),
    # -- ALU, scatter writer
    Mutation("ALU pick swapped", "repro/blocks/compute.py",
             "_paired(a, pairing.crd_pick), _paired(b, pairing.pick)",
             "_paired(a, pairing.pick), _paired(b, pairing.crd_pick)"),
    Mutation("scatter writer scatters blanks", "repro/blocks/writer.py",
             "keep[ref.blank] = False",
             "pass"),
    Mutation("no open pairs (same-level reads wait for the terminator)",
             "repro/streams/timing.py",
             "tail = min(int(v.lens[k]) if len(v.codes) > k else v.tail "
             "for v in views)",
             "tail = 0"),
    Mutation("locator without its input check", "repro/blocks/locate.py",
             "self._check_pair(*pair)",
             "pass"),
    # -- a merger's N reference is payload, a malformed side one error
    Mutation("merger sends a blank reference out as data", "repro/blocks/merge.py",
             "blank=blank if blank is None else blank[pick])",
             "blank=None)"),
    Mutation("merger generator takes a repeated coordinate",
             "repro/blocks/merge.py",
             "and self._last[index] < crd <= MAX_COORDINATE):",
             "and crd <= MAX_COORDINATE):"),
    # -- typed coordinate streams: a feeder refuses a float when it is built
    Mutation("feeder lets a float coordinate through", "repro/streams/batch.py",
             'if batch is not None and (batch.data.dtype.kind == "i" '
             'or not len(batch.data)):',
             "if batch is not None:"),
    # ... and a route no feeder checks hands the run to cycle
    Mutation("plan lets a queued float coordinate onto windows",
             "repro/sim/backends/plan.py",
             "links[k] = _queued(ch, True) if ch.queue else None",
             "links[k] = _queued(ch, False) if ch.queue else None"),
    Mutation("plan reads a value stream as coordinates on windows",
             "repro/sim/backends/plan.py",
             '        if ch.kind != "crd":\n',
             "        if False:\n", REDUCE),
    # -- the timed engines' plane rule, and the parallelizer's N
    Mutation("parallelizer window reads N as data", "repro/blocks/parallel.py",
             "        if np.count_nonzero(ccode == CODE_EMPTY):\n"
             "            self._raise_empty()\n",
             "", PLANES),
    Mutation("plane rule skips timed_capable()", "repro/sim/backends/plan.py",
             "if not block.timed_capable():",
             "if False:", PLANES),
    Mutation("plane rule keeps a finite FIFO on windows",
             "repro/sim/backends/plan.py",
             "        if ch.capacity is not None:\n",
             "        if False:\n", IDENTITY),
    Mutation("worklist seeded in block order", "repro/sim/backends/plan.py",
             "tuple(dependency_order(n, producer, consumer))",
             "tuple(range(n))", VISITS),
    # -- the slab rule: a window run holds a slab, not the whole run
    Mutation("a cut source takes its next slab before this one is down",
             "repro/sim/backends/timed_batch.py",
             "                if block._t_cut and i not in cut:\n"
             "                    cut.append(i)\n",
             "                if block._t_cut:\n"
             "                    mark(i)\n", SLABS),
    Mutation("the next slab ignores what each cut source holds",
             "repro/sim/backends/timed_batch.py",
             "mark(cut.pop(held.index(min(held))))",
             "mark(cut.pop(0))", SLABS),
    Mutation("a scanner takes its whole window", "repro/blocks/scanner.py",
             "if m == len(refs) or np.count_nonzero(ccode[:nc] == CODE_DONE):",
             "if True:", SLABS),
    Mutation("an open output keeps its tokens", "repro/streams/channel.py",
             "        if not self.drops:\n            state.pending.append(",
             "        if True:\n            state.pending.append(", SLABS),
    # -- plan once per frozen graph: a warm bind re-plans nothing
    Mutation("plan memo off (every bind validates and re-plans)",
             "repro/graph/bind.py",
             "    plan = memo.get(key)\n",
             "    plan = None\n", BUDGET),
    # -- the fixed cost of a small run: port matching, numpy's Python layer
    Mutation("spec_for matches on every call", "repro/blocks/base.py",
             "        if key not in resolved:\n"
             "            resolved[key] = next(",
             "        if True:\n"
             "            resolved[key] = next(", BUDGET),
    Mutation("np.flatnonzero back in split_done_stamped", "repro/streams/timing.py",
             "hits = (ccode == CODE_DONE).nonzero()[0]",
             "hits = np.flatnonzero(ccode == CODE_DONE)", BUDGET),
    # -- the .mtx reader's byte-grammar check in front of scipy's parser
    Mutation("grammar check always passes", "repro/data/io.py",
             "_body_tokens(data, start, need) != need * nnz",
             "False", INGEST),
    Mutation("grammar check without the per-token order rule", "repro/data/io.py",
             "not _in_order(byte, spaced, marks, token)",
             "False", INGEST),
    Mutation("grammar check lets punctuation into index columns", "repro/data/io.py",
             "(token % need != 2).any()",
             "False", INGEST),
    Mutation("grammar check without the per-line token count", "repro/data/io.py",
             "((steps == 0) | (steps == need)).all()",
             "True", INGEST),
    Mutation("grammar check reads a neighbour across digits as the skeleton byte",
             "repro/data/io.py",
             "np.where(spaced[marks - 1], np.uint8(48), byte[marks - 1])",
             "byte[marks - 1]", INGEST),
    # a slab whose lines all have its first line's shape takes its first
    # line's verdict: the shape is the skeleton bytes and where digits lie
    Mutation("line shape without the digits between skeleton bytes",
             "repro/data/io.py",
             "(spaced[width:] == spaced[:-width]).all()",
             "True", INGEST),
    Mutation("line shape without the skeleton bytes", "repro/data/io.py",
             "(byte[width + 1:] == byte[1:-width]).all()",
             "True", INGEST),
    Mutation("the file's field passed through to scipy", "repro/data/io.py",
             "{'pattern' if need == 2 else 'real'}",
             "{data.split(None, 5)[3].decode()}", INGEST),
    Mutation("scipy parse on all cores", "repro/data/io.py",
             "parallelism=1", "parallelism=0", INGEST),
    # -- the fibertree build
    Mutation("grouping pass back on the last level", "repro/formats/tensor.py",
             "if d < order - 1:", "if True:", BUILD),
    # -- compile once: the memo's key, and nothing written onto the shared program
    Mutation("memo key ignores formats", "repro/lang/compile.py",
             "key_formats = tuple(sorted(format_spec.formats.items()))",
             "key_formats = ()", COMPILE),
    Mutation("clusters written onto the graph", "repro/cli.py",
             "    print(program.to_dot(clusters))",
             "    graph = program.graph\n"
             "    clusters = graph.__dict__.setdefault('clusters', clusters)\n"
             "    print(program.to_dot(clusters))", COMPILE),
    Mutation("output format stored on the shared program", "repro/studies/table2.py",
             "    for entry, program, count in zip(corpus.entries, programs, "
             "corpus.counts):\n"
             "        if lost_without(program, scenario, entry.output_format):",
             "    for entry, program in zip(corpus.entries, programs):\n"
             "        object.__setattr__(program, 'output_format', "
             "entry.output_format)\n"
             "    for program, count in zip(programs, corpus.counts):\n"
             "        if lost_without(program, scenario, program.output_format):",
             COMPILE),
    # -- scipy loaded on first use
    Mutation("scipy imported at module level in data/synthetic.py",
             "repro/data/synthetic.py",
             "import numpy as np\n\nif TYPE_CHECKING:\n    from scipy import sparse\n",
             "import numpy as np\nfrom scipy import sparse\n", LAZY_SCIPY),
)


def apply(src: Path, mutation: Mutation) -> None:
    path = src / mutation.file
    text = path.read_text()
    count = text.count(mutation.old)
    if count != 1:
        raise SystemExit(f"{mutation.name}: old text found {count} times in "
                         f"{mutation.file}")
    path.write_text(text.replace(mutation.old, mutation.new))


def run_tests(src: Path, tests: str) -> str:
    """The outcome of one pytest run of *tests* against *src*: ``""`` when
    they pass, else what failed first.  A run that ends in anything but
    passed or failed tests (a collection error, no tests) is no verdict
    on the mutation: it stops the check."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-W", "ignore", tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"no verdict within {TIMEOUT} s"
    if result.returncode < 0:  # a crash counts as killed, as a hang does
        return f"pytest killed by signal {-result.returncode}"
    if result.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {result.returncode}:\n{result.stdout}")
    return first_failure(result.stdout) if result.returncode else ""


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith("FAILED"):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1]


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as temp:
        src = Path(temp) / "src"
        for mutation in MUTATIONS:
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            apply(src, mutation)
            failed = run_tests(src, mutation.tests)
            print(f"{'killed' if failed else 'ALIVE '}  {mutation.name}: "
                  f"{failed or 'every test passed'}", flush=True)
            if not failed:
                survivors.append(mutation.name)
    print(f"{len(MUTATIONS) - len(survivors)} of {len(MUTATIONS)} mutations killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
