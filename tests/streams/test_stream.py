"""Unit tests for the Stream container and the paper-notation parser."""

import pytest

from repro.streams import DONE, EMPTY, Stop

from streamkit import Stream, StreamError, root_ref_stream, stream_from_paper


class TestStreamFromPaper:
    def test_figure_1d_top_level(self):
        # Figure 1d: the i-coordinate stream "D, S0, 3, 1, 0".
        stream = stream_from_paper("D, S0, 3, 1, 0")
        assert stream.tokens == [0, 1, 3, Stop(0), DONE]

    def test_figure_1d_value_stream(self):
        stream = stream_from_paper("D, S1, 5, 4, S0, 3, 2, S0, 1", kind="vals")
        assert stream.tokens == [1, Stop(0), 2, 3, Stop(0), 4, 5, Stop(1), DONE]

    def test_empty_tokens(self):
        stream = stream_from_paper("D, S0, N, 4, N")
        assert stream.tokens == [EMPTY, 4, EMPTY, Stop(0), DONE]

    def test_floats(self):
        stream = stream_from_paper("D, S0, 2.5, 1.0", kind="vals")
        assert stream.tokens == [1.0, 2.5, Stop(0), DONE]

    def test_round_trip_rendering(self):
        text = "D, S1, 3, 1, S0, 2, 0, S0, 1"
        assert stream_from_paper(text).paper_str() == text


class TestStream:
    def test_validation_requires_done(self):
        with pytest.raises(StreamError):
            Stream([1, 2, Stop(0)]).validate()

    def test_validation_rejects_mid_stream_done(self):
        with pytest.raises(StreamError):
            Stream([1, DONE, 2, DONE]).validate()

    def test_validation_rejects_empty(self):
        with pytest.raises(StreamError):
            Stream([]).validate()

    def test_valid_stream_returns_self(self):
        stream = Stream([1, Stop(0), DONE])
        assert stream.validate() is stream

    def test_data_tokens(self):
        stream = stream_from_paper("D, S0, N, 3, 1")
        assert stream.data_tokens() == [1, 3]

    def test_max_stop_level(self):
        assert stream_from_paper("D, S1, 1, S0, 2").max_stop_level() == 1
        assert Stream([1, DONE]).max_stop_level() == -1

    def test_kind_checked(self):
        with pytest.raises(StreamError):
            Stream([DONE], kind="bogus")

    def test_len_iter_getitem(self):
        stream = Stream([1, 2, Stop(0), DONE])
        assert len(stream) == 4
        assert list(stream) == [1, 2, Stop(0), DONE]
        assert stream[0] == 1

    def test_equality_with_list(self):
        assert Stream([1, DONE]) == [1, DONE]
        assert Stream([1, DONE]) == Stream([1, DONE])


def test_root_ref_stream_is_d_zero():
    assert root_ref_stream().tokens == [0, DONE]
