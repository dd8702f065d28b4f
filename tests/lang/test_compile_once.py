"""Compile once per process: the memo of ``compile_expression``, counted.

A specification given as text is parsed, scheduled and lowered once;
every later call hands back the same :class:`CompiledProgram`.  That is
safe only because nothing changes a program after lowering: the graph
refuses new nodes and edges, and what belongs to one use of a program
(a corpus entry's output format, a backend's fusion clusters) travels
beside it.  The digest tests hold the graph unchanged across every use
that once wrote onto it.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.data.corpus import Corpus, CorpusEntry, compile_corpus_programs
from repro.graph.ir import GraphError
from repro.lang import compile as compile_module
from repro.lang import compile_expression
from repro.harness import SweepRunner, get_study
from repro.studies import table2

SPMV = "x(i) = B(i,j) * c(j)"
OUTER = "X(i,j) = b(i) * c(j)"  # both loop orders lower


def digest(graph):
    """The graph's structure: nodes, their params, edges, attribute names."""
    nodes = [(n.name, n.kind, n.params) for n in graph.nodes.values()]
    text = repr((nodes, graph.edges, sorted(vars(graph))))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def phases(monkeypatch):
    """Calls of parse, apply_schedule and lower made by compile_expression."""
    calls = {"parse": 0, "apply_schedule": 0, "lower": 0}
    for name in calls:
        real = getattr(compile_module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(compile_module, name, counted)
    return calls


class TestMemo:
    def test_same_specification_same_object(self):
        formats = {"B": ["dense", "compressed"]}
        first = compile_expression(SPMV, formats, ("i", "j"))
        assert compile_expression(SPMV, formats, ("i", "j")) is first
        # normalised arguments: lists or tuples, abbreviations, a FormatSpec
        assert compile_expression(SPMV, {"B": ("d", "comp")}, ["i", "j"]) is first
        assert compile_expression(SPMV, first.formats, ("i", "j")) is first

    def test_a_hit_does_no_parse_schedule_or_lower(self, phases):
        text = "y(i) = Q(i,j) * r(j)"  # a text no other test compiles
        compile_module._compile_text.cache_clear()
        first = compile_expression(text)
        assert phases == {"parse": 1, "apply_schedule": 1, "lower": 1}
        for _ in range(3):
            assert compile_expression(text) is first
        assert phases == {"parse": 1, "apply_schedule": 1, "lower": 1}

    @pytest.mark.parametrize("expression, change", [
        (SPMV, {"formats": {"B": ["dense", "compressed"]}}),
        (SPMV, {"formats": {"c": ["dense"]}}),
        (OUTER, {"schedule": ("j", "i")}),
        (SPMV, {"coordinate_skipping": True}),
    ])
    def test_different_specifications_different_objects(self, expression, change):
        base = compile_expression(expression)
        other = compile_expression(expression, **change)
        assert other is not base
        assert other.graph is not base.graph
        assert compile_expression(expression, **change) is other

    def test_the_memo_keeps_no_callers_dict(self):
        formats = {"B": ["compressed", "dense"]}
        program = compile_expression(SPMV, formats)
        formats["B"] = ["dense", "dense"]
        assert program.formats.formats["B"].formats == ("compressed", "dense")
        assert compile_expression(SPMV, {"B": ["compressed", "dense"]}) is program
        assert compile_expression(SPMV, formats) is not program

    def test_a_parsed_assignment_compiles_afresh(self):
        from repro.lang.parser import parse

        assignment = parse(SPMV)
        first = compile_expression(assignment)
        assert compile_expression(assignment) is not first
        assert first.assignment is assignment

    def test_the_memo_is_bounded(self):
        info = compile_module._compile_text.cache_info()
        assert info.maxsize == compile_module.COMPILE_MEMO_SIZE


class TestImmutable:
    def test_graph_takes_no_new_nodes_or_edges(self):
        program = compile_expression(SPMV)
        graph = program.graph
        before = digest(graph)
        with pytest.raises(GraphError, match="shared and immutable"):
            graph.add("sink")
        node = next(iter(graph.nodes))
        with pytest.raises(GraphError, match="shared and immutable"):
            graph.connect(node, "out", node, "spare")
        assert digest(graph) == before

    def test_program_takes_no_attributes(self):
        program = compile_expression(SPMV)
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.output_format = ("dense",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.graph = None

    def test_primitive_counts_are_counted_once(self):
        program = compile_expression(SPMV)
        counts = program.primitive_counts()
        assert program.primitive_counts() is counts
        assert dict(counts) == program.graph.primitive_counts()
        with pytest.raises(TypeError):
            counts["repeat"] = 0


class TestNothingWritesOntoTheGraph:
    def test_run(self, engine):
        program = compile_expression(SPMV)
        before = digest(program.graph)
        rng = np.random.default_rng(0)
        B = np.where(rng.random((5, 4)) < 0.5, rng.random((5, 4)), 0.0)
        c = rng.random(4)
        result = program.run({"B": B, "c": c}, backend=engine)
        assert np.allclose(result.to_numpy(), B @ c)
        assert digest(program.graph) == before

    def test_graph_command(self, capsys):
        program = compile_expression(SPMV)
        before = digest(program.graph)
        assert main(["--engine", "compiled", "graph", SPMV]) == 0
        assert "cluster_fused_0" in capsys.readouterr().out
        assert compile_expression(SPMV) is program
        assert digest(program.graph) == before

    def test_table2_ablation(self, monkeypatch):
        entries = [CorpusEntry(SPMV, (("B", ("compressed", "compressed")),),
                               None, fmt)
                   for fmt in (("dense",), ("compressed",))]
        corpus = Corpus(entries, [1, 2])
        programs = compile_corpus_programs(corpus)
        assert programs[0] is programs[1]
        before = digest(programs[0].graph)
        # The study's points ablate this corpus in place of the generated one.
        monkeypatch.setattr(table2, "compiled_corpus",
                            lambda **_: (corpus, programs))
        specs = get_study("table2").enumerate(options={"distinct": 2, "total": 3})
        results = SweepRunner().run(specs).results
        rows = {row.scenario: row for row in table2.rows_from_results(results)}
        assert digest(programs[0].graph) == before
        # The shared program keeps each entry's own output format apart.
        writer = rows["comp_level_writer"]
        assert (writer.lost_unique, writer.lost_all) == (1, 2)
