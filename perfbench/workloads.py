"""The four workloads: inputs, independent references, ops and their
layer-by-layer decompositions.

Each workload offers the same op twice.  :meth:`Workload.op` calls only
the top-level user function (what the end-to-end metrics time);
:meth:`Workload.traced` performs the same work as explicit calls into
each layer of ``src/repro`` with a span around every one.
:meth:`Workload.probes` times layer calls that *duplicate* work done
inside an op (partitioning, validation, the other engines), so they sit
outside the op span and never count towards ``trace.coverage``.

The program under test only ever sees operands and files generated here
from the seed, and every engine run passes ``backend="compiled"``
explicitly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from repro.blocks.base import BlockError
from repro.data import extensor_matrix, random_sparse_matrix, read_mtx, write_mtx
from repro.formats import FiberTensor
from repro.graph.bind import bind, partition_segments, segment_plan_key
from repro.graph.builder import capture_runs
from repro.harness import (
    STUDY_NAMES,
    ExperimentResult,
    ResultCache,
    SweepRunner,
    code_version,
    execute_spec,
    get_study,
)
from repro.kernels.gamma import gamma_spmm
from repro.kernels.spmv import spmv_locate
from repro.lang import (
    CompiledProgram,
    FormatSpec,
    Schedule,
    apply_schedule,
    compile_expression,
    lower,
    parse,
)
from repro.memory.extensor import extensor_spmm_cycles
from repro.sim import BACKENDS, graph_token_counts, make_engine

from perfbench.spans import Tracer

ENGINE = "compiled"


class Checked(NamedTuple):
    """Verdict on one op: output right, simulated cycles, layer numbers."""

    ok: bool
    cycles: float
    counts: Dict[str, float]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want))


def _report_counts(blocks, report) -> Dict[str, float]:
    """Exact simulated statistics of one engine run."""
    activity = report.block_activity()
    tokens = graph_token_counts(blocks)
    fusion = getattr(report, "fusion", {})
    return {
        "sim.cycles": report.cycles,
        "blocks.busy_cycles": sum(a["busy"] for a in activity.values()),
        "blocks.stall_cycles": sum(a["stall"] for a in activity.values()),
        "blocks.tokens": sum(sum(c.values()) for c in tokens.values()),
        "graph.blocks": len(blocks),
        "sim.total_blocks": fusion.get("total_blocks", len(blocks)),
        "sim.fused_blocks": fusion.get("fused_blocks", 0),
        "sim.fallbacks": fusion.get("fallbacks", 0),
    }


def _add(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def assert_report_identity(kernel: Callable[[str], Any]) -> None:
    """Run *kernel(backend)* under ``cycle`` and ``compiled`` and require
    bit-identical reports: cycles, per-block activity, per-channel tokens."""
    seen = []
    for backend in ("cycle", ENGINE):
        with capture_runs() as capture:
            kernel(backend)
        seen.append([
            (report.cycles, report.block_activity(), graph_token_counts(blocks))
            for blocks, report in capture.runs
        ])
    if not seen[0] or seen[0] != seen[1]:
        raise AssertionError(f"cycle and {ENGINE} reports differ")


def _simulate(tr: Tracer, blocks) -> Dict[str, float]:
    """The engine run and the report assembly, as two spans."""
    with tr.span("sim.run_s.compiled") as run:
        report = make_engine(blocks, ENGINE).run()
    with tr.span("sim.report_s"):
        counts = _report_counts(blocks, report)
    run.counts.update(cycles=counts["sim.cycles"], tokens=counts["blocks.tokens"])
    return counts


def _structure_probes(tr: Tracer, blocks) -> Dict[str, float]:
    """Partitioning and plan keys: the engine does both inside ``run()``."""
    with tr.span("graph.partition_s"):
        segments = partition_segments(blocks)
    with tr.span("graph.plan_key_s"):
        for segment in segments:
            segment_plan_key(blocks, segment)
    return {"graph.segments": len(segments)}


def _engine_probes(tr: Tracer, build: Callable[[], Sequence], engines) -> None:
    """Time every other engine on a freshly rebuilt copy of the block list."""
    for engine in engines:
        if engine in BACKENDS:  # a deleted engine is reported absent
            blocks = build()
            with tr.span(f"sim.run_s.{engine}"):
                make_engine(blocks, engine).run()


def _captured_blocks(kernel: Callable[[], Any]):
    """Build a hand-wired kernel's graph without simulating it."""
    with capture_runs(simulate=False) as capture:
        try:
            kernel()
        except BlockError:
            pass  # the kernel's own result assembly finds its writers empty
    return capture.runs[0][0]


class Workload:
    name = ""
    #: engines timed beside ``compiled`` on the same rebuilt block list
    probe_engines: Sequence[str] = ("timed-batch", "functional")

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        #: distinct ops in the op list; the timed loop cycles through them
        self.n_ops = 1

    def setup(self, tr: Tracer) -> None:
        """Generate inputs and references, check the scaled-down sibling
        under two engines, leave the op list ready (not yet warmed up)."""
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> Checked:
        raise NotImplementedError

    def traced(self, k: int, tr: Tracer) -> Checked:
        raise NotImplementedError

    def probes(self, k: int, tr: Tracer) -> Dict[str, float]:
        return {}

    def corrupt_reference(self) -> None:
        """Make every reference wrong (the smoke test's failure drill)."""
        raise NotImplementedError


# -- mtx_spmv --------------------------------------------------------------


class MtxSpmv(Workload):
    name = "mtx_spmv"

    def setup(self, tr):
        dim, nnz, files = (300, 2_000, 2) if self.smoke else (20_000, 200_000, 4)
        self.n_ops = files
        self.paths: List[str] = []
        self.refs: List[np.ndarray] = []
        self.c = _rng(self.seed, 0).uniform(0.1, 1.0, dim)
        for k in range(files):
            with tr.span("data.synthetic_s"):
                matrix = extensor_matrix(dim, nnz, seed=self.seed * 16 + k)
            path = os.path.join(self.workdir, f"m{k}.mtx")
            with tr.span("data.write_mtx_s", nnz=matrix.nnz):
                write_mtx(path, matrix)
            self.paths.append(path)
            self.refs.append(matrix @ self.c)
        small = extensor_matrix(300, 2_000, seed=self.seed)
        tensor = FiberTensor.from_scipy(small, name="B")
        vector = self.c[:300]
        assert_report_identity(lambda b: spmv_locate(tensor, vector, backend=b))

    def _dense(self, crd, vals) -> np.ndarray:
        x = np.zeros(self.c.size)
        x[np.asarray(crd, dtype=np.int64)] = np.asarray(vals, dtype=float)
        return x

    def op(self, k):
        coo = read_mtx(self.paths[k])
        tensor = FiberTensor.from_coords(coo.shape, coo.coords, coo.values, name="B")
        return spmv_locate(tensor, self.c, backend=ENGINE)

    def check(self, k, out):
        crd, vals, cycles = out
        return Checked(_close(self._dense(crd, vals), self.refs[k]), cycles, {})

    def _build(self, tensor):
        return _captured_blocks(lambda: spmv_locate(tensor, self.c, backend=ENGINE))

    def traced(self, k, tr):
        with tr.span("data.read_mtx_s") as span:
            coo = read_mtx(self.paths[k])
        span.counts["nnz"] = coo.nnz
        with tr.span("formats.from_coords_s", nnz=coo.nnz):
            tensor = FiberTensor.from_coords(coo.shape, coo.coords, coo.values,
                                             name="B")
        with tr.span("graph.build_s"):
            blocks = self._build(tensor)
        counts = _simulate(tr, blocks)
        by_name = {block.name: block for block in blocks}
        x = self._dense(by_name["write_x_i"].crd, by_name["write_x_vals"].vals)
        self._last = (tensor, blocks)
        return Checked(_close(x, self.refs[k]), counts["sim.cycles"], counts)

    def probes(self, k, tr):
        tensor, blocks = self._last
        _engine_probes(tr, lambda: self._build(tensor), self.probe_engines)
        return _structure_probes(tr, blocks)

    def corrupt_reference(self):
        self.refs = [ref + 1.0 for ref in self.refs]


# -- gamma_spmm ------------------------------------------------------------


class GammaSpmm(Workload):
    name = "gamma_spmm"

    def setup(self, tr):
        dim, density = (30, 0.1) if self.smoke else (500, 0.02)
        with tr.span("data.synthetic_s"):
            self.B = random_sparse_matrix(dim, dim, density, seed=self.seed * 16)
        with tr.span("data.synthetic_s"):
            self.C = random_sparse_matrix(dim, dim, density, seed=self.seed * 16 + 1)
        self.ref = self.B @ self.C
        small = 30 if self.smoke else 60
        b = random_sparse_matrix(small, small, 0.1, seed=self.seed)
        c = random_sparse_matrix(small, small, 0.1, seed=self.seed + 1)
        assert_report_identity(lambda backend: gamma_spmm(b, c, backend=backend))

    def op(self, k):
        return gamma_spmm(self.B, self.C, backend=ENGINE)

    def check(self, k, out):
        return Checked(_close(out.output, self.ref), out.cycles, {})

    def _build(self):
        return _captured_blocks(lambda: gamma_spmm(self.B, self.C, backend=ENGINE))

    def traced(self, k, tr):
        with tr.span("graph.build_s"):
            blocks = self._build()
        counts = _simulate(tr, blocks)
        by_name = {block.name: block for block in blocks}
        with tr.span("formats.to_numpy_s"):
            x = FiberTensor(
                self.ref.shape,
                [by_name["write_Xi"].level, by_name["write_Xj"].level],
                by_name["write_Xvals"].vals, name="X",
            ).to_numpy()
        self._last = blocks
        return Checked(_close(x, self.ref), counts["sim.cycles"], counts)

    def probes(self, k, tr):
        # gamma_spmm converts its operands itself, inside graph.build_s
        for operand in (self.B, self.C):
            with tr.span("formats.from_numpy_s"):
                FiberTensor.from_numpy(operand, name="B")
        _engine_probes(tr, self._build, self.probe_engines)
        return _structure_probes(tr, self._last)

    def corrupt_reference(self):
        self.ref = self.ref + 1.0


# -- table1_mix ------------------------------------------------------------


class Expr(NamedTuple):
    """One Table-1 expression with a hand-written dense reference."""

    name: str
    text: str
    schedule: Any
    operands: Dict[str, str]   # tensor -> its index variables ("" = scalar)
    reference: Callable[..., np.ndarray]


def _einsum(spec: str, *names: str):
    return lambda t: np.einsum(spec, *(t[n] for n in names))


#: The twelve Table-1 expressions.  Texts and schedules match
#: ``repro.studies.table1.ENTRIES``; the references are written against
#: numpy only, so they share no code with the compiler under test.
TABLE1 = (
    Expr("SpMV", "x(i) = B(i,j) * c(j)", None, {"B": "ij", "c": "j"},
         _einsum("ij,j->i", "B", "c")),
    Expr("SpM*SpM", "X(i,j) = B(i,k) * C(k,j)", ("i", "k", "j"),
         {"B": "ik", "C": "kj"}, _einsum("ik,kj->ij", "B", "C")),
    Expr("SDDMM", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", None,
         {"B": "ij", "C": "ik", "D": "jk"},
         _einsum("ij,ik,jk->ij", "B", "C", "D")),
    Expr("InnerProd", "chi = B(i,j,k) * C(i,j,k)", None,
         {"B": "ijk", "C": "ijk"}, _einsum("ijk,ijk->", "B", "C")),
    Expr("TTV", "X(i,j) = B(i,j,k) * c(k)", None, {"B": "ijk", "c": "k"},
         _einsum("ijk,k->ij", "B", "c")),
    Expr("TTM", "X(i,j,k) = B(i,j,l) * C(k,l)", None, {"B": "ijl", "C": "kl"},
         _einsum("ijl,kl->ijk", "B", "C")),
    Expr("MTTKRP", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", None,
         {"B": "ikl", "C": "jk", "D": "jl"},
         _einsum("ikl,jk,jl->ij", "B", "C", "D")),
    Expr("Residual", "x(i) = b(i) - C(i,j) * d(j)", None,
         {"b": "i", "C": "ij", "d": "j"}, lambda t: t["b"] - t["C"] @ t["d"]),
    Expr("MatTransMul", "x(i) = alpha * B(j,i) * c(j) + beta * d(i)", ("j", "i"),
         {"alpha": "", "B": "ji", "c": "j", "beta": "", "d": "i"},
         lambda t: t["alpha"] * (t["B"].T @ t["c"]) + t["beta"] * t["d"]),
    Expr("MMAdd", "X(i,j) = B(i,j) + C(i,j)", None, {"B": "ij", "C": "ij"},
         lambda t: t["B"] + t["C"]),
    Expr("Plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", None,
         {"B": "ij", "C": "ij", "D": "ij"}, lambda t: t["B"] + t["C"] + t["D"]),
    Expr("Plus2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", None,
         {"B": "ijk", "C": "ijk"}, lambda t: t["B"] + t["C"]),
)


def table1_operands(expr: Expr, position: int, rng) -> Dict[str, Any]:
    """Density-0.45 operands; every index extent lies in 6..12.

    The extents are a fixed function of the expression, not of the seed:
    drawn from the seed, one pass took 0.35 s to 0.72 s depending on the
    draw, which would drown every other effect.  The seed still decides
    every sparsity pattern and value.
    """
    variables = sorted(set("".join(expr.operands.values())))
    extent = {v: 6 + (3 * i + 2 * position) % 7 for i, v in enumerate(variables)}
    operands: Dict[str, Any] = {}
    for tensor, indices in expr.operands.items():
        if not indices:
            operands[tensor] = float(rng.uniform(0.5, 1.5))
            continue
        shape = tuple(extent[v] for v in indices)
        operands[tensor] = (rng.random(shape) < 0.45) * rng.uniform(0.1, 1.0, shape)
    return operands


def _assemble(program: CompiledProgram, bound, shape) -> np.ndarray:
    """The result assembly ``CompiledProgram.run`` does after the engine."""
    info = program.info
    vals = bound.writers[info.vals_writer_node].vals
    if not info.lhs_vars:
        return np.array(vals[0] if len(vals) else 0.0)
    levels = [bound.writers[info.writer_nodes[v]].level for v in info.lhs_vars]
    logical = program.assignment.lhs.indices
    mode_order = tuple(logical.index(v) for v in info.lhs_vars)
    return FiberTensor(shape, levels, vals, mode_order=mode_order,
                       name=program.assignment.lhs.tensor).to_numpy()


class Table1Mix(Workload):
    name = "table1_mix"
    probe_engines = ("cycle", "event", "timed-batch", "functional",
                     "functional-seq")

    def setup(self, tr):
        self.exprs = TABLE1[:3] if self.smoke else TABLE1
        rng = _rng(self.seed, 0)
        self.operands = [table1_operands(e, i, rng) for i, e in enumerate(self.exprs)]
        self.refs = [np.asarray(e.reference(t), dtype=float)
                     for e, t in zip(self.exprs, self.operands)]
        # the op *is* the scaled-down sibling: all expressions as they are
        for expr, operands in zip(self.exprs, self.operands):
            program = compile_expression(expr.text, schedule=expr.schedule)
            assert_report_identity(lambda b: program.run(operands, backend=b))

    def op(self, k):
        outputs, cycles = [], 0
        for expr, operands in zip(self.exprs, self.operands):
            program = compile_expression(expr.text, schedule=expr.schedule)
            result = program.run(operands, backend=ENGINE)
            outputs.append(result.to_numpy())
            cycles += result.cycles
        return outputs, cycles

    def check(self, k, out):
        outputs, cycles = out
        ok = all(_close(got, want) for got, want in zip(outputs, self.refs))
        return Checked(ok, cycles, {})

    def _compile(self, tr: Tracer, expr: Expr) -> CompiledProgram:
        with tr.span("lang.compile_s") as span:
            with tr.span("lang.parse_s"):
                assignment = parse(expr.text)
            with tr.span("lang.schedule_s"):
                cin = apply_schedule(assignment, Schedule.coerce(expr.schedule))
            with tr.span("lang.lower_s"):
                formats = FormatSpec.coerce(None)
                graph, info = lower(cin, formats)
            program = CompiledProgram(assignment, cin, graph, info, formats)
        span.counts.update(nodes=len(graph.nodes), edges=len(graph.edges))
        return program

    def _prepare(self, tr: Tracer, program: CompiledProgram, operands):
        prepared = {}
        for access in program.assignment.accesses:
            value = operands.get(access.tensor)
            if access is program.assignment.lhs or access.tensor in prepared:
                continue
            if isinstance(value, float):
                prepared[access.tensor] = value
                continue
            fmt = program.formats.for_access(access)
            with tr.span("formats.from_numpy_s"):
                prepared[access.tensor] = FiberTensor.from_numpy(
                    value, formats=fmt.formats, mode_order=fmt.mode_order,
                    name=access.tensor)
        return prepared

    def traced(self, k, tr):
        ok, counts, self._last = True, {}, []
        for expr, operands, ref in zip(self.exprs, self.operands, self.refs):
            program = self._compile(tr, expr)
            prepared = self._prepare(tr, program, operands)
            with tr.span("graph.bind_s"):
                bound = bind(program.graph, prepared)
            _add(counts, _simulate(tr, bound.blocks))
            with tr.span("formats.to_numpy_s"):
                out = _assemble(program, bound, ref.shape)
            ok = ok and _close(out, ref)
            _add(counts, {"lang.ir_nodes": len(program.graph.nodes),
                          "lang.ir_edges": len(program.graph.edges)})
            self._last.append((program, prepared, bound))
        return Checked(ok, counts["sim.cycles"], counts)

    def probes(self, k, tr):
        counts: Dict[str, float] = {}
        for program, prepared, bound in self._last:
            with tr.span("graph.validate_s"):
                bound.builder.validate()  # what bind() ends with
            _add(counts, _structure_probes(tr, bound.blocks))
            _engine_probes(tr, lambda: bind(program.graph, prepared).blocks,
                           self.probe_engines)
        return counts

    def corrupt_reference(self):
        self.refs = [ref + 1.0 for ref in self.refs]


# -- sweep_quick -----------------------------------------------------------

#: fig15 is cut to two dimensions at one nnz: under the real ``--quick``
#: and full grids it is > 95 % of the sweep and nothing else would show.
FIG15_CUT = {"dimensions": (1024, 3696), "nnzs": (5000,)}
#: the smoke run keeps two points of every study, fig15's at toy size
SMOKE_POINTS = 2
SMOKE_FIG15_CUT = {"dimensions": (256, 512), "nnzs": (500,)}


def _payload_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=lambda v: v.tolist())


def _digest(payloads) -> str:
    return hashlib.sha256("\n".join(map(_payload_json, payloads)).encode()).hexdigest()


def _payload_ok(payload) -> bool:
    return all(payload.get(flag, True) is True for flag in ("correct", "match"))


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


class SweepQuick(Workload):
    name = "sweep_quick"

    def setup(self, tr):
        with tr.span("harness.code_version_s"):
            code_version()  # memoised per process: this is the one real call
        self.specs = []
        for name in STUDY_NAMES:
            study = get_study(name)
            options = dict(study.quick_options, seed=self.seed)
            if name == "fig15":
                options.update(SMOKE_FIG15_CUT if self.smoke else FIG15_CUT)
            specs = study.enumerate(backend=ENGINE, options=options)
            self.specs += specs[:SMOKE_POINTS] if self.smoke else specs
        self.digest = None  # the first (warm-up) pass fixes it

    def _cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def op(self, k):
        root = self._cache_dir()
        try:
            cold = SweepRunner(ResultCache(root), jobs=1).run(self.specs)
            warm = SweepRunner(ResultCache(root), jobs=1).run(self.specs)
            return cold, warm, _tree_bytes(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _verdict(self, cold_payloads, warm_payloads, hits: int) -> bool:
        digest = _digest(cold_payloads)
        if self.digest is None:
            self.digest = digest
        return (
            digest == self.digest
            and hits == len(self.specs)
            and all(map(_payload_ok, cold_payloads))
            and list(map(_payload_json, cold_payloads))
            == list(map(_payload_json, warm_payloads))
        )

    @staticmethod
    def _cycles(payloads) -> float:
        return sum(p["cycles"] for p in payloads if "cycles" in p)

    def check(self, k, out):
        cold, warm, cache_bytes = out
        payloads = [r.payload for r in cold.results]
        ok = cold.executed == len(self.specs) and self._verdict(
            payloads, [r.payload for r in warm.results], warm.hits)
        counts = {f"studies.{name}.cold_s": 0.0 for name in STUDY_NAMES}
        for result in cold.results:
            counts[f"studies.{result.spec.study}.cold_s"] += result.elapsed_s
        counts.update({
            # the runner's self time: everything that is not a point executing
            "harness.cold_overhead_s": cold.elapsed_s - sum(
                r.elapsed_s for r in cold.results),
            "harness.warm_pass_s": warm.elapsed_s,
            "harness.hit_ratio": warm.hits / len(self.specs),
            "harness.cache_bytes": cache_bytes,
        })
        return Checked(ok, self._cycles(payloads), counts)

    def _execute(self, tr: Tracer, spec):
        if spec.study != "fig15":
            with tr.span(f"studies.{spec.study}.point_s"):
                return execute_spec(spec)
        # fig15 is data.synthetic + memory.extensor and nothing else
        with tr.span("studies.fig15.point_s"):
            p = spec.point
            with tr.span("data.synthetic_s"):
                B = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"])
            with tr.span("data.synthetic_s"):
                C = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"] + 1)
            with tr.span("memory.extensor_s") as span:
                result = extensor_spmm_cycles(B, C)
            span.counts["pairs"] = result.nonempty_pairs
            return dataclasses.asdict(result)

    def traced(self, k, tr):
        root = self._cache_dir()
        try:
            cache = ResultCache(root)
            cold_payloads, warm_payloads, hits = [], [], 0
            for spec in self.specs:
                with tr.span("harness.load_s"):
                    cache.load(spec)  # a miss
                payload = self._execute(tr, spec)
                with tr.span("harness.store_s"):
                    cache.store(ExperimentResult(spec, payload))
                cold_payloads.append(payload)
            for spec in self.specs:
                with tr.span("harness.load_s"):
                    result = cache.load(spec)
                hits += result is not None
                warm_payloads.append(result.payload if result else None)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        ok = self._verdict(cold_payloads, warm_payloads, hits)
        cycles = self._cycles(cold_payloads)
        return Checked(ok, cycles, {"sim.cycles": cycles})

    def corrupt_reference(self):
        self.digest = "not the digest of any pass"


BY_NAME = {w.name: w for w in (MtxSpmv, GammaSpmm, Table1Mix, SweepQuick)}
