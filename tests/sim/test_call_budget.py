"""Call budget of the Table-1 pass: the simulator's fixed cost, counted.

``table1_mix`` compiles and runs the twelve Table-1 expressions on tiny
operands, where a run's bill is what it pays per call, not per token.
This contract pins that cost without a clock, on every timed engine,
over one pass of the twelve programs after a warm-up pass:

* named ``repro.*`` function calls per phase — compile, prepare (the
  operands' fibertrees), bind, run.  Comprehension frames are left out,
  so an interpreter that inlines them (PEP 709) counts the same;
* calls from ``repro.*`` frames into numpy's Python layer, by layer: the
  ``fromnumeric`` / ``numeric`` / ``function_base`` / ``shape_base``
  wrappers and the ``_methods`` reductions behind ``ndarray.sum`` and
  its kin.  On a window a few tokens long such a wrapper costs more than
  the work it wraps, so the window plane and fibertree construction call
  the C entry points instead (``docs/architecture.md``).  The dispatch
  stubs of C functions (``np.where``, ``np.concatenate``) and
  ``np.count_nonzero`` are not counted;
* ``PortSpec.matches`` (in a fresh interpreter): a declared spec is
  matched against a port at most once per class, and a second pass
  matches none;
* the structural analysis a warm run must not redo, by name: the
  wiring (``_wire``), validation (``validate_blocks``), the plan
  (``plan_blocks``: the plane rule), its ``dependency_order``,
  ``partition_segments`` and ``segment_plan_key``.  Each program's graph
  is wired and planned once, at its first bind; a warm pass calls none
  of them.  The same holds for each hand-drawn kernel: a second call
  with the same structural arguments does no wiring.

Each budget is the count this code makes.  A change may lower one;
raising one needs its reason in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import numpy as np

from repro.graph import builder
from repro.graph.bind import _wire, bind
from repro.kernels import elementwise, gamma, outerspace, sddmm, spmv
from repro.lang import compile as compile_module
from repro.lang import compile_expression
from repro.sim.backends import plan
from repro.studies.table1 import ENTRIES, _random_inputs

from blockkit import TIMED

#: per engine: named ``repro.*`` calls per phase, then calls into numpy's
#: Python layer from the window plane (``repro.blocks``, ``repro.streams``,
#: ``repro.sim``), from ``repro.formats`` and from every other module.
#: After the warm-up pass every compile is a hit of ``compile_expression``'s
#: memo: normalising the arguments is all the compile phase does.
BUDGETS = {
    "timed-batch": {"compile": 60, "prepare": 948, "bind": 4530, "run": 18700,
                    "numpy window": 91, "numpy formats": 0, "numpy other": 31},
    "compiled": {"compile": 60, "prepare": 948, "bind": 4530, "run": 16882,
                 "numpy window": 91, "numpy formats": 0, "numpy other": 31},
}
#: ``PortSpec.matches`` calls in a process's first pass
MATCHES_BUDGET = 51

#: numpy's Python-level wrappers, by the last part of their module's name
NUMPY_LAYER = {"fromnumeric", "numeric", "function_base", "_function_base_impl",
               "shape_base", "_shape_base_impl", "_methods"}
#: frames PEP 709 inlines from Python 3.12 on
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}
WINDOW_PLANE = ("repro.blocks", "repro.streams", "repro.sim")


def operands():
    return [_random_inputs(compile_expression(e.expression, e.formats, e.schedule), 0)
            for e in ENTRIES]


def table1_pass(inputs, engine, phase=lambda name: None):
    """One pass of the twelve programs; *phase* hears each phase start."""
    for entry, tensors in zip(ENTRIES, inputs):
        phase("compile")
        program = compile_expression(entry.expression, entry.formats, entry.schedule)
        phase("prepare")
        prepared = program._prepare_inputs(tensors)
        phase("bind")
        bound = bind(program.graph, prepared)
        phase("run")
        bound.run(backend=engine)
    phase(None)


def layer(module):
    if module.startswith(WINDOW_PLANE):
        return "numpy window"
    return "numpy formats" if module.startswith("repro.formats") else "numpy other"


def counted_pass(inputs, engine):
    """The counts :data:`BUDGETS` pins, over one pass."""
    counts, now = Counter(), [None]

    def profile(frame, event, arg):
        if event != "call" or now[0] is None:
            return
        module = frame.f_globals.get("__name__") or ""
        name = frame.f_code.co_name
        if module.startswith("repro."):
            if name not in INLINED:
                counts[now[0]] += 1
            return
        caller = frame.f_back.f_globals.get("__name__") or ""
        if (caller.startswith("repro.") and module.startswith("numpy.")
                and module.rpartition(".")[2] in NUMPY_LAYER
                and not name.endswith("_dispatcher") and name != "count_nonzero"):
            counts[layer(caller)] += 1

    def phase(name):
        now[0] = name

    sys.setprofile(profile)
    try:
        table1_pass(inputs, engine, phase)
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("engine", TIMED)
def test_table1_pass_keeps_its_call_budget(engine):
    inputs = operands()
    table1_pass(inputs, engine)  # memos warm, as in every later pass
    counts = counted_pass(inputs, engine)
    over = {key: (counts[key], budget) for key, budget in BUDGETS[engine].items()
            if counts[key] > budget}
    assert not over, f"over budget (count, budget): {over}"


#: the structural analysis a warm run does not redo, by name
STRUCTURE = {
    "_wire": _wire,
    "validate_blocks": builder.validate_blocks,
    "plan_blocks": plan.plan_blocks,
    "dependency_order": plan.dependency_order,
    "partition_segments": plan.partition_segments,
    "segment_plan_key": plan.segment_plan_key,
}


def structural_calls(run):
    """Calls of each :data:`STRUCTURE` function during ``run()``."""
    codes = {fn.__code__: name for name, fn in STRUCTURE.items()}
    calls = Counter({name: 0 for name in STRUCTURE})

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _kernel_operands():
    rng = np.random.default_rng(5)
    sparse = np.where(rng.random((12, 12)) < 0.3, rng.uniform(0.5, 2.0, (12, 12)), 0.0)
    vector = np.where(rng.random(32) < 0.4, rng.uniform(0.5, 2.0, 32), 0.0)
    return sparse, rng.uniform(0.5, 2.0, 12), vector, rng.uniform(0.5, 2.0, (12, 4))


#: each hand-drawn kernel: a call on (matrix, vector, sparse vector,
#: dense factor, engine), and the memoised builders of the graphs it runs
KERNELS = {
    "spmv_locate": (lambda B, c, v, M, e: spmv.spmv_locate(B, c, backend=e),
                    (spmv.locate_graph,)),
    "spmv_scatter": (lambda B, c, v, M, e: spmv.spmv_scatter(B, c, backend=e),
                     (spmv.scatter_graph,)),
    "gamma_spmm": (lambda B, c, v, M, e: gamma.gamma_spmm(B, B, lanes=3, backend=e),
                   (gamma.gamma_graph,)),
    "outerspace_spmm": (lambda B, c, v, M, e: outerspace.outerspace_spmm(B, B, backend=e),
                        (outerspace.multiply_graph, outerspace.merge_graph)),
    "vecmul_bv_split": (lambda B, c, v, M, e: elementwise.vecmul(
        "bv_split", v, v[::-1], split=4, bits_per_word=8, backend=e),
                        (elementwise.bv_graph,)),
    "sddmm_fused_locate": (lambda B, c, v, M, e: sddmm.sddmm_fused_locate(
        B, M, M, backend=e), (sddmm.locate_graph,)),
}


def _cold_run(workload, engine):
    """Forget *workload*'s graphs; returns a run of it and how many
    graphs it binds."""
    if workload == "table1":
        inputs = operands()
        compile_module._compile_text.cache_clear()  # new programs
        return (lambda: table1_pass(inputs, engine)), len(ENTRIES)
    call, builders = KERNELS[workload]
    for build in builders:
        build.cache_clear()  # new graphs
    args = _kernel_operands()
    return (lambda: call(*args, engine)), len(builders)


@pytest.mark.parametrize("engine", TIMED)
@pytest.mark.parametrize("workload", ["table1", *KERNELS])
def test_warm_pass_does_no_structural_work(workload, engine):
    run, graphs = _cold_run(workload, engine)
    cold = structural_calls(run)
    assert all(cold.values()), f"the counter sees no cold work: {cold}"
    assert cold["_wire"] == cold["validate_blocks"] == cold["plan_blocks"] == graphs
    warm = structural_calls(run)
    assert warm == {name: 0 for name in STRUCTURE}


MATCHES_PROBE = """
import json, sys
from collections import Counter
from repro.blocks.base import Block, PortSpec
sys.path[:0] = [{tests!r}, {here!r}]
from test_call_budget import TIMED, operands, table1_pass

resolving = Block.spec_for.__func__.__code__
real = PortSpec.matches
calls = Counter()

def matches(spec, port):
    frame = sys._getframe(1)
    while frame.f_code is not resolving:
        frame = frame.f_back
    calls[frame.f_locals["cls"].__name__, spec.direction, port, spec.name] += 1
    return real(spec, port)

PortSpec.matches = matches
inputs, passes = operands(), []
for engine in TIMED:
    table1_pass(inputs, engine)
    passes.append(sorted(calls.items()))
    calls.clear()
print(json.dumps(passes))
"""


def test_each_port_is_matched_once_per_class():
    here = os.path.dirname(os.path.abspath(__file__))
    probe = MATCHES_PROBE.format(tests=os.path.dirname(here), here=here)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", probe],
                         env=env, capture_output=True, text=True, check=True)
    first, second = json.loads(out.stdout)
    assert first, "the first pass matched no variadic port"
    assert [key for key, n in first if n > 1] == []
    assert sum(n for _, n in first) <= MATCHES_BUDGET
    assert second == []
