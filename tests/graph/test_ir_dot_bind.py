"""SAM graph IR, DOT export, and binding tests."""

import numpy as np
import pytest

from repro.formats import FiberTensor
from repro.graph import GraphError, SamGraph, bind, fanout_groups, to_dot


def tiny_identity_graph():
    """root -> scan_i -> scan_j -> writers, the Figure 14 identity graph."""
    g = SamGraph("identity")
    root = g.add("root", name="root_B")
    si = g.add("level_scanner", name="si", tensor="B", depth=0, var="i")
    sj = g.add("level_scanner", name="sj", tensor="B", depth=1, var="j")
    arr = g.add("array", name="vals_B", tensor="B")
    wi = g.add("level_writer", name="wi", format="compressed", var="i")
    wj = g.add("level_writer", name="wj", format="compressed", var="j")
    wv = g.add("vals_writer", name="wv")
    g.connect(root, "ref", si, "ref", "ref")
    g.connect(si, "ref", sj, "ref", "ref")
    g.connect(sj, "ref", arr, "ref", "ref")
    g.connect(si, "crd", wi, "crd", "crd")
    g.connect(sj, "crd", wj, "crd", "crd")
    g.connect(arr, "val", wv, "val", "vals")
    return g


class TestIR:
    def test_auto_names_unique(self):
        g = SamGraph()
        a = g.add("alu", op="mul")
        b = g.add("alu", op="add")
        assert a.name != b.name

    def test_duplicate_name_rejected(self):
        g = SamGraph()
        g.add("alu", name="x", op="mul")
        with pytest.raises(GraphError):
            g.add("alu", name="x", op="add")

    def test_double_driven_port_rejected(self):
        g = tiny_identity_graph()
        edges = list(g.edges)
        with pytest.raises(GraphError) as raised:
            g.connect("si", "crd", "wj", "crd")
        assert str(raised.value) == "input port wj.crd already driven by sj.crd"
        assert g.edges == edges
        # another port of the same node, or the same port name on another
        # node, is still free
        g.add("sink", name="extra")
        g.connect("si", "crd", "extra", "in")
        g.connect("sj", "crd", "extra", "crd")

    def test_unknown_node_rejected(self):
        g = SamGraph()
        g.add("root", name="r")
        with pytest.raises(GraphError):
            g.connect("r", "ref", "ghost", "ref")

    def test_primitive_counts(self):
        counts = tiny_identity_graph().primitive_counts()
        assert counts == {"level_scanner": 2, "array": 1, "level_writer": 3}

    def test_validate_catches_dangling_inputs(self):
        g = SamGraph()
        g.add("alu", name="lonely", op="mul")
        with pytest.raises(GraphError):
            g.validate()

    def test_fanout_groups(self):
        g = tiny_identity_graph()
        g.add("sink", name="extra")
        g.connect("si", "crd", "extra", "in")
        groups = fanout_groups(g)
        assert len(groups[("si", "crd")]) == 2


class TestDot:
    def test_dot_contains_nodes_and_edges(self):
        text = to_dot(tiny_identity_graph())
        assert "digraph" in text
        assert '"si"' in text and '"sj"' in text
        assert "->" in text

    def test_edge_styles_by_kind(self):
        text = to_dot(tiny_identity_graph())
        assert "dashed" in text  # reference streams


class TestBind:
    def test_identity_round_trip(self, engine):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        tensor = FiberTensor.from_numpy(matrix, name="B")
        bound = bind(tiny_identity_graph(), {"B": tensor})
        bound.run(backend=engine)
        out = FiberTensor(
            matrix.shape,
            [bound.writers["wi"].level, bound.writers["wj"].level],
            bound.writers["wv"].vals,
        )
        assert np.array_equal(out.to_numpy(), matrix)

    def test_fanout_inserted_automatically(self, engine):
        g = tiny_identity_graph()
        g.add("sink", name="extra")
        g.connect("si", "crd", "extra", "in")
        tensor = FiberTensor.from_numpy(np.eye(2), name="B")
        bound = bind(g, {"B": tensor})
        assert any(type(b).__name__ == "Fanout" for b in bound.blocks)
        bound.run(backend=engine)  # still runs to completion

    def test_unconnected_required_port_rejected(self):
        g = tiny_identity_graph()
        g.add("sink", name="lonely")
        tensor = FiberTensor.from_numpy(np.eye(2), name="B")
        with pytest.raises(GraphError) as raised:
            bind(g, {"B": tensor})
        assert str(raised.value) == "input lonely.in is not connected"

    def test_ports_found_without_edge_scans(self, monkeypatch, engine):
        # one (node, port) -> channel dict, not a scan of every edge a port
        def scan(graph, node):
            raise AssertionError(f"in_edges({node}) scanned every edge")

        monkeypatch.setattr(SamGraph, "in_edges", scan)
        g = tiny_identity_graph()
        g.add("sink", name="extra")
        g.connect("si", "crd", "extra", "in")
        tensor = FiberTensor.from_numpy(np.eye(2), name="B")
        bound = bind(g, {"B": tensor})
        bound.run(backend=engine)
        assert np.array_equal(bound.writers["wv"].vals, [1.0, 1.0])

    def test_missing_tensor_rejected(self):
        with pytest.raises(GraphError):
            bind(tiny_identity_graph(), {})

    def test_recorded_channels(self, engine):
        tensor = FiberTensor.from_numpy(np.eye(2), name="B")
        bound = bind(tiny_identity_graph(), {"B": tensor}, record=("si.crd",))
        bound.run(backend=engine)
        recorded = [c for c in bound.channels.values() if c.record]
        assert recorded and recorded[0].history
