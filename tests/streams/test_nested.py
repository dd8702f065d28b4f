"""Tests for nested-list <-> stream conversion, incl. property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams import DONE, Stop

from streamkit import (
    Stream,
    StreamError,
    flatten_values,
    from_stream,
    nesting_depth,
    stream_from_paper,
    to_stream,
)


class TestToStream:
    def test_paper_section_3_2_example(self):
        # "((1), (2, 3), (4, 5))" is the value stream "1,S0,2,3,S0,4,5,S1,D".
        stream = to_stream([[1], [2, 3], [4, 5]], kind="vals")
        assert stream == stream_from_paper("D, S1, 5, 4, S0, 3, 2, S0, 1")

    def test_flat_list(self):
        assert to_stream([7, 8]).tokens == [7, 8, Stop(0), DONE]

    def test_empty_inner_fiber_keeps_boundary(self):
        # Figure 8's ineffectual-intersection shape: empty fiber between
        # two real fibers shows up as consecutive stops.
        stream = to_stream([[1], [], [2]])
        assert stream == stream_from_paper("D, S1, 2, S0, S0, 1")

    def test_none_becomes_empty_token(self):
        stream = to_stream([None, 3])
        assert stream.paper_str() == "D, S0, 3, N"

    def test_three_levels(self):
        stream = to_stream([[[1], [2]], [[3]]])
        assert stream == stream_from_paper("D, S2, 3, S1, 2, S0, 1")

    def test_non_uniform_nesting_rejected(self):
        with pytest.raises(StreamError):
            to_stream([[1], 2])


class TestFromStream:
    def test_round_trip_two_levels(self):
        nested = [[1], [2, 3], [4, 5]]
        assert from_stream(to_stream(nested)) == nested

    def test_round_trip_empty_fibers(self):
        nested = [[1], [], [2]]
        assert from_stream(to_stream(nested)) == nested

    def test_scalar_stream(self):
        assert from_stream(Stream([4.5, DONE])) == [4.5]

    def test_requires_done(self):
        with pytest.raises(StreamError):
            from_stream([1, Stop(0)])


def test_nesting_depth():
    assert nesting_depth(5) == 0
    assert nesting_depth([1, 2]) == 1
    assert nesting_depth([[1], [2]]) == 2
    assert nesting_depth([]) == 1


def test_flatten_values():
    assert flatten_values([[1], [2, None]]) == [1, 2, None]


# -- property-based round trip -------------------------------------------

leaves = st.integers(min_value=0, max_value=100)


def nested_lists(depth: int):
    # Innermost fibers may be empty (Figure 8's consecutive-stop pattern)
    # but intermediate fibers must not be (to_stream rejects them).
    inner = st.lists(leaves, min_size=0, max_size=4)
    for level in range(depth - 1):
        min_size = 1 if level < depth - 2 else 0
        inner = st.lists(inner, min_size=min_size, max_size=3)
    return inner


@given(nested_lists(2))
def test_round_trip_depth2(nested):
    # Degenerate all-empty structures collapse stop levels; require at
    # least one leaf so the depth is well-defined.
    if not flatten_values(nested):
        return
    assert from_stream(to_stream(nested)) == nested


@given(nested_lists(3))
def test_round_trip_depth3(nested):
    if not flatten_values(nested):
        return
    assert from_stream(to_stream(nested)) == nested


@given(st.lists(leaves, min_size=1, max_size=10))
def test_round_trip_flat(nested):
    assert from_stream(to_stream(nested)) == nested
