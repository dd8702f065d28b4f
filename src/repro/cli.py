"""Command-line interface: run reproduction studies and one-off kernels.

Usage::

    python -m repro report table1              # Table 1 primitive counts
    python -m repro report fig12 --opt k=16    # any study, any declared option
    python -m repro --engine compiled report fig13 --quick
    python -m repro compile "x(i) = B(i,j) * c(j)" --dot
    python -m repro --engine compiled graph "x(i) = B(i,j) * c(j)"
    python -m repro graph "x(i) = B(i,j) * c(j)" --check
    python -m repro graph outerspace           # a kernel's graphs as DOT

    # sharded, cached sweeps over any subset of studies
    python -m repro sweep all --jobs 8
    python -m repro sweep table2 fig11 --jobs 4 --out artifacts/
    python -m repro report table2            # render from cached results

``sweep`` and ``report`` are the only way to run a study (see
EXPERIMENTS.md): points fan out across ``--jobs`` worker processes and
every completed point lands in the ``--cache-dir`` result cache
(default ``.repro-cache`` or ``$REPRO_CACHE_DIR``; ``none`` keeps
nothing), so reruns are cache replays and interrupted sweeps resume
where they stopped; ``report`` runs any point it finds no record of.
``--opt KEY=VALUE`` sets one of a study's declared options
(:class:`repro.harness.Option`), parsed and range-checked by its row: a
bad value or an undeclared key is a one-line ``repro: error:`` with
status 2.  ``--engine`` selects the simulation backend (a key of
:data:`repro.sim.backends.BACKENDS`; default
:data:`~repro.sim.backends.DEFAULT_BACKEND`) for every command that runs
block-level simulations.
"""

from __future__ import annotations

import argparse
import os
import sys


def _opt_texts(args) -> dict:
    """``--opt KEY=VALUE`` as ``{KEY: VALUE}``, the values still text."""
    texts = {}
    for item in args.opt or ():
        if "=" not in item:
            raise SystemExit(f"--opt expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        texts[key] = text
    return texts


def _study_names(args) -> list:
    from .harness import STUDY_NAMES

    names = list(args.studies)
    for name in names:
        if name != "all" and name not in STUDY_NAMES:
            raise SystemExit(
                f"unknown study {name!r}; choose from {list(STUDY_NAMES)} or 'all'"
            )
    if not names or "all" in names:
        return list(STUDY_NAMES)
    return names


def _make_runner(args):
    from .harness import ResultCache, SweepRunner

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    cache = ResultCache(args.cache_dir) if args.cache_dir != "none" else None
    return SweepRunner(cache=cache, jobs=args.jobs,
                       force=getattr(args, "force", False))


def _study_specs(args) -> list:
    """``(study, specs)`` per selected study under ``--quick`` and
    ``--opt``.  Every study's options are parsed and checked before any
    point runs; an ``--opt`` key no selected study declares is refused."""
    from .harness import OptionError, get_study

    studies = [get_study(name) for name in _study_names(args)]
    texts = _opt_texts(args)
    declared = list(dict.fromkeys(o.name for s in studies for o in s.options))
    for key, text in texts.items():
        if key not in declared:
            raise OptionError(", ".join(s.name for s in studies), key, text,
                              "no such option; declared: "
                              + (", ".join(declared) or "none"))
    plans = []
    for study in studies:
        options = dict(study.quick_options) if args.quick else {}
        options.update(study.parse(texts))
        plans.append((study, study.enumerate(backend=args.engine,
                                             options=options)))
    return plans


def _write_artifacts(out_dir: str, name: str, results) -> list:
    from .harness import write_csv_artifact, write_json_artifact

    return [
        write_json_artifact(results, os.path.join(out_dir, f"{name}.json")),
        write_csv_artifact(results, os.path.join(out_dir, f"{name}.csv")),
    ]


def _cmd_sweep(args) -> None:
    runner = _make_runner(args)
    plans = _study_specs(args)
    if args.prune and runner.cache is not None:
        print(f"pruned {runner.cache.prune_stale()} stale cache entries")
        for path, files in runner.cache.old_layout():
            print(f"{path}{os.sep} holds {files} files of the older per-point "
                  f"cache layout, which no sweep reads: delete it by hand")
    for study, specs in plans:
        report = runner.run(specs)
        print(f"{study.name}: {report.summary()}")
        if args.out:
            for path in _write_artifacts(args.out, study.name, report.results):
                print(f"  wrote {path}")


def _cmd_report(args) -> None:
    runner = _make_runner(args)
    for study, specs in _study_specs(args):
        report = runner.run(specs)
        if report.executed and args.jobs == 1:
            print(f"# {study.name}: {report.executed} points were not cached; "
                  f"ran them serially (--jobs N runs them in N processes)",
                  file=sys.stderr)
        print(f"== {study.title} ==")
        print(study.render(report.results))
        print()
        if args.out:
            _write_artifacts(args.out, study.name, report.results)


def _dataset_spec(registry, name: str):
    try:
        return registry.spec(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _cmd_datasets(args) -> None:
    from .data import default_registry

    registry = default_registry(args.data_dir)
    if args.list or not (args.materialize or args.smoke):
        header = (f"{'name':<14}{'domain':<34}{'shape':>16}{'nnz':>9}"
                  f"{'density':>11}  source")
        print(header)
        print("-" * len(header))
        for name, spec, source in registry.rows():
            shape = f"{spec.shape[0]}x{spec.shape[1]}"
            print(f"{name:<14}{spec.domain:<34}{shape:>16}{spec.nnz:>9}"
                  f"{spec.density:>11.2e}  {source}")
    if args.materialize:
        names = (registry.names() if "all" in args.materialize
                 else args.materialize)
        for name in names:
            _dataset_spec(registry, name)
            try:
                print(f"wrote {registry.materialize(name, seed=args.seed)}")
            except FileExistsError:
                # Never clobber — the file may be a real download.
                print(f"{name}: already backed by {registry.path(name)}, "
                      f"skipping (delete the file to regenerate)")
    if args.smoke:
        _datasets_smoke(args, registry)


def _datasets_smoke(args, registry) -> None:
    """Large-matrix ingestion smoke: load -> FiberTensor -> SpMV -> scipy check."""
    import time

    import numpy as np

    from .formats import FiberTensor
    from .kernels.spmv import spmv_locate
    from .sim.backends import resolve_backend

    name = args.matrix
    spec = _dataset_spec(registry, name)
    backend = resolve_backend(args.engine)
    source = registry.source(name)
    matrix = registry.load_matrix(name, seed=args.seed)
    start = time.perf_counter()
    tensor = FiberTensor.from_scipy(matrix, name="B")
    build_s = time.perf_counter() - start
    rng = np.random.default_rng(args.seed)
    c = rng.uniform(0.1, 1.0, size=spec.shape[1])
    start = time.perf_counter()
    crd, vals, cycles = spmv_locate(tensor, c, backend=backend)
    run_s = time.perf_counter() - start
    x = np.zeros(spec.shape[0])
    x[crd] = vals
    reference = matrix @ c
    ok = bool(np.allclose(x, reference))
    print(f"{name} ({source}): shape {spec.shape[0]}x{spec.shape[1]}, "
          f"nnz {matrix.nnz}")
    print(f"  FiberTensor build: {build_s:.3f}s   SpMV [{backend}]: "
          f"{run_s:.3f}s ({cycles} cycles)")
    print(f"  values match scipy reference: {ok}")
    if not ok:
        raise SystemExit(f"{name}: SpMV mismatch vs. scipy reference")


def _cmd_lint(args) -> None:
    """Static analysis over kernel and expression graphs.

    Targets are kernel names (``spmv``, ``gamma``, ...), expressions
    (anything containing ``=``), or ``all`` (every kernel plus the
    expression-lowering targets).  Each target's graphs are captured by
    running it over small fixed-seed operands, then the protocol,
    deadlock, and (with ``--rate``) rate passes run; error-severity
    findings make the command exit non-zero.  Graphs are captured on the
    ``--engine`` backend; ``--cross-validate`` checks the static rate
    predictions against its measured busy counters.
    """
    import json as jsonlib

    from .analysis import lint_blocks
    from .analysis.targets import (
        EXPRESSION_TARGETS,
        KERNEL_RUNNERS,
        capture_expression,
        capture_kernel,
    )

    rate = args.rate or args.cross_validate

    jobs = []  # (capture thunk) pairs preserving CLI order
    for target in args.targets or ["all"]:
        if target == "all":
            for name in sorted(KERNEL_RUNNERS):
                jobs.append(("kernel", name, None))
            for expression, schedule in EXPRESSION_TARGETS:
                jobs.append(("expression", expression, schedule))
        elif "=" in target:
            jobs.append(("expression", target, None))
        else:
            if target not in KERNEL_RUNNERS:
                raise SystemExit(
                    f"unknown lint target {target!r}; choose kernel names "
                    f"from {sorted(KERNEL_RUNNERS)}, an expression "
                    f"containing '=', or 'all'"
                )
            jobs.append(("kernel", target, None))

    results = []
    errors = 0
    total_findings = 0
    for kind, spec, schedule in jobs:
        if kind == "kernel":
            captured = capture_kernel(spec, args.engine)
        else:
            captured = capture_expression(spec, args.engine, schedule=schedule)
        for graph in captured:
            measured = graph.measured_busy() if args.cross_validate else None
            report = lint_blocks(graph.blocks, rate=rate, measured=measured)
            errors += len(report.errors)
            total_findings += len(report.findings)
            results.append({"target": graph.label,
                            "blocks": len(graph.blocks),
                            **report.to_json()})
            status = report.worst() or "clean"
            line = f"{graph.label}: {status}"
            if rate and report.meta.get("rate", {}).get("bottleneck"):
                meta = report.meta["rate"]
                line += f" (bottleneck {meta['bottleneck']}"
                if "bottleneck_match" in meta:
                    line += (" — counters agree" if meta["bottleneck_match"]
                             else " — COUNTERS DISAGREE")
                line += ")"
            print(line)
            for finding in report.sorted_findings():
                print(f"  {finding.render()}")

    print(f"linted {len(results)} graphs: {total_findings} findings, "
          f"{errors} errors")
    if args.json:
        payload = {"graphs": results,
                   "errors": errors,
                   "findings": total_findings}
        with open(args.json, "w") as handle:
            jsonlib.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if errors:
        raise SystemExit(1)


def _cmd_compile(args) -> None:
    from .lang import compile_expression, expression_features, primitive_row

    program = compile_expression(args.expression, schedule=args.schedule)
    print("concrete index notation:", program.cin)
    print("primitive counts:       ", primitive_row(program))
    print("features:               ", expression_features(program))
    if args.dot:
        print(program.to_dot())


def _cmd_graph(args) -> None:
    """Bind an expression over synthetic operands and print its DOT graph.

    Under the compiled engine (``--engine compiled``; the default engine
    fuses nothing) the fused segments of the bound graph's plan — the
    partition the backend runs — are handed to the DOT exporter, which
    groups every fused segment in a dashed cluster: the fusion decisions
    become visually auditable without running a simulation.  The
    compiled program, shared by every compile of the expression, is left
    as it was.

    ``--dump-plan`` prints the plan instead: the plan cache counters,
    each fused segment's kind, plan digest and warm/cold state, then one
    line per block with its plane (``timed``, ``fused`` or ``cycle``)
    and the reason.

    With ``--check`` the command validates instead of rendering: binding
    runs the port-level wiring checks (kind mismatches, unconnected
    required ports, duplicate producers, fanout without an explicit
    Fanout, blocks no engine can run) and the process exits non-zero
    listing every violation.

    A kernel name (``repro lint``'s, e.g. ``outerspace``) in place of the
    expression runs the kernel on the engine over its lint operands drawn
    from ``--seed`` and prints the DOT of every graph it launches; the
    expression-only flags are refused.
    """
    import numpy as np

    from .analysis.targets import KERNEL_RUNNERS, capture_kernel
    from .graph import GraphValidationError, bind, to_dot
    from .lang import compile_expression
    from .lang.ast import ExpressionError
    from .sim.backends import resolve_backend

    if args.expression in KERNEL_RUNNERS:
        given = [flag for flag, value in (("--check", args.check),
                                          ("--dump-plan", args.dump_plan),
                                          ("--schedule", args.schedule),
                                          ("--size", args.size is not None))
                 if value]
        if given:
            raise ExpressionError(f"{args.expression!r} is a kernel name; "
                                  f"{given[0]} takes an expression")
        for captured in capture_kernel(args.expression, args.engine,
                                       seed=args.seed):
            print(to_dot(captured.graph))
        return
    size = 12 if args.size is None else args.size
    program = compile_expression(args.expression, schedule=args.schedule)
    rng = np.random.default_rng(args.seed)
    tensors = {}
    for name in program.assignment.input_tensors:
        access = next(a for a in program.assignment.accesses if a.tensor == name)
        ndim = len(access.indices)
        if ndim == 0:
            tensors[name] = 2.0
            continue
        shape = (size,) * ndim
        dense = rng.uniform(0.1, 1.0, size=shape)
        tensors[name] = np.where(rng.random(shape) < 0.5, dense, 0.0)
    if args.check:
        try:
            bound = bind(program.graph, program._prepare_inputs(tensors))
        except GraphValidationError as err:
            print(f"graph check FAILED: {args.expression}", file=sys.stderr)
            for violation in err.violations:
                print(f"  - {violation}", file=sys.stderr)
            raise SystemExit(1)
        n_streams = len({id(c) for b in bound.blocks
                         for c in (*b.inputs.values(), *b.outputs.values())})
        print(f"graph ok: {args.expression!r} — {len(bound.blocks)} blocks, "
              f"{n_streams} streams validated")
        return
    bound = bind(program.graph, program._prepare_inputs(tensors))
    plan = bound.plan  # a compiled program's graph is frozen: bind planned it
    if args.dump_plan:
        from .jit import PLAN_CACHE, plan_digest

        cache = PLAN_CACHE.snapshot()
        print(f"plan cache: {cache['size']} plans, {cache['hits']} hits, "
              f"{cache['misses']} misses")
        for seg in plan.segments:
            names = ", ".join(bound.blocks[i].name for i in seg.members)
            state = "warm" if seg.key in PLAN_CACHE else "cold"
            print(f"segment {seg.kind} [{plan_digest(seg.key)}] {state}: {names}")
        for block, (plane, reason) in zip(bound.blocks, plan.planes(bound.blocks)):
            print(f"block {block.name}: {plane} ({reason})")
        return
    clusters = []
    if resolve_backend(args.engine) == "compiled":
        segments = plan.segments
        clusters = [(seg.kind, [bound.blocks[i].name for i in seg.members])
                    for seg in segments]
        fused = sum(len(seg.members) for seg in segments)
        print(f"// fusion: {len(segments)} segments, {fused} fused blocks")
    print(program.to_dot(clusters))


def build_parser() -> argparse.ArgumentParser:
    from .sim.backends import BACKENDS, DEFAULT_BACKEND

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'The Sparse Abstract Machine' "
        "(ASPLOS 2023)",
    )
    parser.add_argument(
        "--engine",
        choices=tuple(BACKENDS),
        default=None,
        help=f"simulation backend (default: {DEFAULT_BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_harness_arguments(p, force: bool) -> None:
        from .harness import default_cache_dir

        p.add_argument("studies", nargs="*", metavar="study",
                       help="studies to cover (default: all)")
        p.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for uncached points")
        p.add_argument("--cache-dir", default=default_cache_dir(),
                       help="result cache directory ('none' disables caching; "
                       "default: $REPRO_CACHE_DIR or .repro-cache)")
        p.add_argument("--quick", action="store_true",
                       help="reduced-scale smoke sweep per study")
        p.add_argument("--opt", action="append", metavar="KEY=VALUE",
                       help="study option override, e.g. --opt size=12 "
                       "--opt k_sweep=1,4; a key goes to the selected studies "
                       "that declare it, and one none of them declares is "
                       "an error")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="write <study>.json + <study>.csv artifacts to DIR")
        if force:
            p.add_argument("--force", action="store_true",
                           help="ignore cached results and re-execute")
            p.add_argument("--prune", action="store_true",
                           help="first delete cache entries from older "
                           "code versions, and name the directories of the "
                           "older per-point cache layout")

    p = sub.add_parser(
        "sweep", help="execute study sweep points (sharded + cached)"
    )
    add_harness_arguments(p, force=True)

    p = sub.add_parser(
        "report", help="render a study's table/figure, running the points "
        "the cache lacks"
    )
    add_harness_arguments(p, force=False)

    p = sub.add_parser(
        "datasets", help="dataset registry: list entries, materialize "
        "stand-ins, run the ingestion smoke"
    )
    p.add_argument("--list", action="store_true",
                   help="list registry entries with their source "
                   "(default action)")
    p.add_argument("--data-dir", default=None, metavar="DIR",
                   help="dataset directory (default: $REPRO_DATA_DIR or "
                   ".repro-datasets)")
    p.add_argument("--materialize", nargs="+", metavar="NAME",
                   help="write synthetic stand-ins to the data dir as real "
                   ".mtx files ('all' for every entry)")
    p.add_argument("--smoke", action="store_true",
                   help="large-matrix end-to-end check: load, build a "
                   "FiberTensor, run SpMV, compare against scipy")
    p.add_argument("--matrix", default="lpl3",
                   help="registry entry used by --smoke (default: lpl3, "
                   "~1e5 nnz)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for synthetic stand-ins")

    p = sub.add_parser("compile", help="compile an expression and inspect it")
    p.add_argument("expression", help='e.g. "x(i) = B(i,j) * c(j)"')
    p.add_argument("--schedule", nargs="*", default=None,
                   help="index-variable order, e.g. --schedule i k j")
    p.add_argument("--dot", action="store_true", help="print the DOT graph")

    p = sub.add_parser(
        "graph", help="render the bound dataflow graph as DOT; under the "
        "compiled engine, fused segments appear as dashed clusters"
    )
    p.add_argument("expression", help='e.g. "x(i) = B(i,j) * c(j)", or a '
                   "kernel name repro lint takes (spmv, gamma, outerspace, ...)")
    p.add_argument("--schedule", nargs="*", default=None,
                   help="index-variable order, e.g. --schedule i k j")
    p.add_argument("--size", type=int, default=None,
                   help="synthetic operand dimension used to bind an "
                   "expression's graph (default 12)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the synthetic operands")
    p.add_argument("--check", action="store_true",
                   help="validate the wired graph (ports, kinds, runnable "
                   "blocks) instead of printing DOT; exits non-zero "
                   "listing every violation")
    p.add_argument("--dump-plan", action="store_true",
                   help="print the plan instead of DOT: the plan cache "
                   "counters, each fused segment's kind, plan digest and "
                   "warm/cold state, and each block's plane and its reason")

    p = sub.add_parser(
        "lint", help="static analysis (protocol, deadlock, rate) over "
        "kernel or expression graphs; exits non-zero on error findings"
    )
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="kernel names (spmv, gamma, ...), expressions "
                   "containing '=', or 'all' (default: all)")
    p.add_argument("--rate", action="store_true",
                   help="also run the rate pass (bottleneck prediction)")
    p.add_argument("--cross-validate", action="store_true",
                   help="check the static rate predictions against the "
                   "measured busy counters")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write machine-readable findings to FILE")
    return parser


_COMMANDS = {
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "datasets": _cmd_datasets,
    "compile": _cmd_compile,
    "graph": _cmd_graph,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ValueError as err:
        # A bad expression or study option is bad input: one line and
        # status 2, as argparse reports its own.  The error classes are
        # imported here, not above, so that commands that compile nothing
        # do not load the compiler.
        from .harness.options import OptionError
        from .lang.ast import ExpressionError

        if not isinstance(err, (ExpressionError, OptionError)):
            raise
        print(f"repro: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
