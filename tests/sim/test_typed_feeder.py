"""A coordinate stream's feeder holds integers only, checked when it is built.

``StreamFeeder`` is where hand-made tokens enter a graph.  On a ``crd``
channel it refuses, when it is built, the first data token that is no
coordinate — an ``int`` within int64 or a numpy signed integer; no
``bool``, float (integral or not), ``NaN``, infinity, integer past
int64, unsigned numpy integer or tuple — with one ``BlockError`` naming
it, so every engine gives the same message and no window hook has to
guess afterwards which floats were integers.  A list it accepts runs to
the same full report on every engine.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.blocks import BlockError, CompressedLevelWriter, Fanout, Sink, StreamFeeder
from repro.sim import graph_token_counts, run_blocks
from repro.streams import DONE, Channel, Stop, token_repr

from blockkit import TIMED

INT64 = 2**63
#: what a coordinate may be
coordinates = st.one_of(
    st.integers(-INT64, INT64 - 1),
    st.integers(0, 9),
    st.integers(-INT64, INT64 - 1).map(np.int64),
)
#: what it may not
others = st.one_of(
    st.integers(-9, 9).map(float),  # integral floats
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v % 1 != 0),
    st.booleans(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), INT64, -INT64 - 1,
                     np.uint64(INT64), (1, 2)]),
)


def is_coordinate(token) -> bool:
    """The rule, written out once more for the oracle."""
    return (type(token) is int and -INT64 <= token < INT64
            or isinstance(token, np.signedinteger))


@st.composite
def coordinate_lists(draw):
    """Fibers of coordinates closed by ``S0`` and a final ``D``; half the
    lists also hold tokens that are no coordinates, anywhere."""
    data = coordinates if draw(st.booleans()) else st.one_of(coordinates, others)
    fibers = draw(st.lists(st.lists(data, max_size=4), max_size=4))
    tokens = [t for fiber in fibers for t in fiber + [Stop(0)]]
    if data is not coordinates:
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(others))
    return tokens + [DONE]


def full_report(tokens, backend):
    crd, to_sink, to_writer = Channel("crd"), Channel("a"), Channel("b")
    sink, writer = Sink(to_sink, name="sink"), CompressedLevelWriter(to_writer)
    blocks = [StreamFeeder(tokens, crd, name="feed"),
              Fanout(crd, [to_sink, to_writer], name="fan"), sink, writer]
    report = run_blocks(blocks, backend=backend)
    return (report.cycles, report.block_activity(), graph_token_counts(blocks),
            report.handoff, sink.tokens, writer.crd.tolist(), writer.seg.tolist())


@given(tokens=coordinate_lists())
@example(tokens=[1, 2.0, Stop(1), DONE])
@example(tokens=[True, 2, Stop(1), DONE])
@example(tokens=[0, Stop(1), 1.0, Stop(0), DONE])
@example(tokens=[np.int64(-INT64), INT64 - 1, Stop(0), DONE])
def test_the_feeder_refuses_exactly_the_non_coordinates(tokens):
    bad = [t for t in tokens
           if t is not DONE and not isinstance(t, Stop) and not is_coordinate(t)]
    if bad:
        with pytest.raises(BlockError) as caught:
            StreamFeeder(tokens, Channel("crd"), name="feed")
        assert str(caught.value) == f"feed: non-integer coordinate {token_repr(bad[0])}"
        return
    want = full_report(tokens, "cycle")
    for backend in TIMED:
        assert full_report(tokens, backend) == want, backend


@pytest.mark.parametrize("kind", ["ref", "vals"])
def test_other_kinds_carry_what_they_are_given(kind):
    # a reference stream carries opaque payloads (value streams on a
    # merger's reference ports, 0.0 phantoms): only `crd` is checked
    feeder = StreamFeeder([1.5, (1, 2), True, DONE], Channel("x", kind=kind))
    assert not feeder.timed_capable()


def test_a_list_set_later_is_checked_too():
    feeder = StreamFeeder([1, DONE], Channel("crd"), name="feed")
    with pytest.raises(BlockError, match="feed: non-integer coordinate 0.5"):
        feeder.tokens = [0.5, DONE]

