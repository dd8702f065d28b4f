"""ALU tests (Definition 3.6)."""

import pytest

from repro.blocks import ALU, BlockError, ScalarALU, StreamFeeder
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import Exp


def alu(op, a_tokens, b_tokens, *, backend):
    a, b = Channel("a", kind="vals"), Channel("b", kind="vals")
    out = Channel("out", kind="vals", record=True)
    run_blocks([
        StreamFeeder(a_tokens, a, name="fa"),
        StreamFeeder(b_tokens, b, name="fb"),
        ALU(op, a, b, out),
    ], backend=backend)
    return list(out.history)


class TestALU:
    def test_multiply(self, engine):
        assert alu("mul", [2.0, 3.0, Stop(0), DONE], [4.0, 5.0, Stop(0), DONE],
                   backend=engine) == [
            8.0, 15.0, Stop(0), DONE,
        ]

    def test_add_and_sub(self, engine):
        assert alu("add", [1.0, DONE], [2.0, DONE], backend=engine) == [3.0, DONE]
        assert alu("sub", [5.0, DONE], [2.0, DONE], backend=engine) == [3.0, DONE]

    def test_empty_token_reads_as_zero(self, engine):
        # The union/ALU contract: N behaves as the additive identity.
        assert alu("add", [EMPTY, 2.0, DONE], [1.0, EMPTY, DONE],
                   backend=engine) == [1.0, 2.0, DONE]
        assert alu("mul", [EMPTY, DONE], [7.0, DONE], backend=engine) == [0.0, DONE]

    def test_stops_must_align(self, engine):
        with pytest.raises(BlockError):
            alu("add", [Stop(0), DONE], [Stop(1), DONE], backend=engine)

    def test_data_against_stop_rejected(self, engine):
        with pytest.raises(BlockError):
            alu("add", [1.0, DONE], [Stop(0), DONE], backend=engine)

    def test_unknown_op_rejected(self):
        with pytest.raises(BlockError):
            ALU("div", Channel("a"), Channel("b"), Channel("o"))

    def test_hierarchical_stops_forwarded(self, engine):
        out = alu("mul", [1.0, Stop(1), DONE], [2.0, Stop(1), DONE], backend=engine)
        assert out == [2.0, Stop(1), DONE]


class TestScalarALU:
    def test_constant_multiply(self, engine):
        a = Channel("a", kind="vals")
        out = Channel("o", kind="vals", record=True)
        run_blocks([
            StreamFeeder([2.0, Stop(0), DONE], a),
            ScalarALU("mul", 2.5, a, out),
        ], backend=engine)
        assert list(out.history) == [5.0, Stop(0), DONE]

    def test_empty_as_zero(self, engine):
        a = Channel("a", kind="vals")
        out = Channel("o", kind="vals", record=True)
        run_blocks([StreamFeeder([EMPTY, DONE], a), ScalarALU("add", 3.0, a, out)],
                   backend=engine)
        assert list(out.history) == [3.0, DONE]


def test_exp_map_block(engine):
    a = Channel("a", kind="vals")
    out = Channel("o", kind="vals", record=True)
    run_blocks([StreamFeeder([4.0, Stop(0), DONE], a), Exp(lambda v: v**2, a, out)],
               backend=engine)
    assert list(out.history) == [16.0, Stop(0), DONE]
