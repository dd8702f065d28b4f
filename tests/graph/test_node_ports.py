"""Port-spec coverage for every IR node kind, plus assemble_tensor."""

import numpy as np
import pytest

from repro.blocks import CompressedLevelWriter, StreamFeeder, ValsWriter, assemble_tensor
from repro.graph import GraphError, Node, node_ports
from repro.sim import run_blocks
from repro.streams import Channel, DONE, Stop


class TestNodePorts:
    def _ports(self, kind, **params):
        return node_ports(Node("n", kind, params))

    def test_root_and_sink(self):
        assert self._ports("root") == ([], [("ref", "ref")])
        assert self._ports("sink") == ([("in", "crd")], [])

    def test_scanner_with_and_without_skip(self):
        ins, outs = self._ports("level_scanner", tensor="B", depth=0)
        assert ("skip", "crd") not in ins
        ins, _ = self._ports("level_scanner", tensor="B", depth=0, skip=True)
        assert ("skip", "crd") in ins

    def test_merger_ports_scale_with_sides(self):
        ins, outs = self._ports("intersect", sides=[1, 2])
        assert ("crd0", "crd") in ins and ("crd1", "crd") in ins
        assert ("ref1_1", "ref") in ins
        assert ("ref1_1", "ref") in outs

    def test_merger_skip_out_ports(self):
        _, outs = self._ports("intersect", sides=[1, 1], skipping=True)
        assert ("skip0", "crd") in outs and ("skip1", "crd") in outs

    def test_alu_const_single_input(self):
        ins, _ = self._ports("alu", op="mul", const=2.0)
        assert ins == [("a", "vals")]

    def test_reducer_dimensions(self):
        assert self._ports("reduce", n=0)[0] == [("val", "vals")]
        assert ("crd", "crd") in self._ports("reduce", n=1)[0]
        assert ("crd_outer", "crd") in self._ports("reduce", n=2)[0]
        with pytest.raises(GraphError):
            self._ports("reduce", n=3)

    def test_drop_modes(self):
        ins, _ = self._ports("crd_drop", mode="value")
        assert ("inner", "vals") in ins
        ins, _ = self._ports("crd_drop", mode="fiber")
        assert ("inner", "crd") in ins

    def test_locate_target_port(self):
        ins, _ = self._ports("locate", tensor="c", depth=0, use_target=True)
        assert ("target", "ref") in ins

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            self._ports("mystery")


class TestAssembleTensor:
    def test_writers_to_fibertensor(self, engine):
        crd_i, crd_j = Channel("ci"), Channel("cj")
        vals = Channel("v", kind="vals")
        wi = CompressedLevelWriter(crd_i, name="wi")
        wj = CompressedLevelWriter(crd_j, name="wj")
        wv = ValsWriter(vals, name="wv")
        run_blocks([
            StreamFeeder([0, 2, Stop(0), DONE], crd_i, name="fi"),
            StreamFeeder([1, Stop(0), 0, 2, Stop(1), DONE], crd_j, name="fj"),
            StreamFeeder([5.0, Stop(0), 6.0, 7.0, Stop(1), DONE], vals, name="fv"),
            wi, wj, wv,
        ], backend=engine)
        tensor = assemble_tensor((3, 3), [wi, wj], wv, name="X")
        expected = np.zeros((3, 3))
        expected[0, 1] = 5.0
        expected[2, 0] = 6.0
        expected[2, 2] = 7.0
        assert np.array_equal(tensor.to_numpy(), expected)


def test_package_level_compile_expression(engine):
    import repro

    program = repro.compile_expression("x(i) = b(i)")
    result = program.run({"b": np.array([1.0, 0.0, 2.0])}, backend=engine)
    assert np.allclose(result.to_numpy(), [1.0, 0.0, 2.0])
