"""Unit tests for channels (the wires of the dataflow graph)."""

import pytest

from repro.streams import DONE, EMPTY, Channel, Stop


class TestQueueBehaviour:
    def test_fifo_order(self):
        ch = Channel("c")
        for token in [1, 2, 3]:
            ch.push(token)
        assert [ch.pop(), ch.pop(), ch.pop()] == [1, 2, 3]

    def test_peek_does_not_consume(self):
        ch = Channel("c")
        ch.push(9)
        assert ch.peek() == 9
        assert len(ch) == 1

    def test_empty(self):
        ch = Channel("c")
        assert ch.empty()
        ch.push(1)
        assert not ch.empty()

    def test_capacity(self):
        ch = Channel("c", capacity=1)
        ch.push(1)
        assert ch.full()
        with pytest.raises(OverflowError):
            ch.push(2)


class TestStatistics:
    def test_token_counts_by_type(self):
        ch = Channel("c")
        for token in [1, 2, Stop(0), EMPTY, Stop(1), DONE]:
            ch.push(token)
        assert ch.token_counts() == {"data": 2, "stop": 2, "done": 1, "empty": 1}
        assert ch.pushed_total == 6

    def test_counts_survive_pops(self):
        ch = Channel("c")
        ch.push(1)
        ch.push(DONE)
        ch.pop()
        ch.pop()
        assert ch.pushed_data == 1
        assert ch.pushed_done == 1

    def test_recording(self):
        ch = Channel("c", kind="vals", record=True)
        for token in [1.5, Stop(0), DONE]:
            ch.push(token)
        while not ch.empty():
            ch.pop()
        assert ch.history == [1.5, Stop(0), DONE]
