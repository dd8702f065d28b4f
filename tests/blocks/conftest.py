"""Shared helpers for block-level tests."""

from typing import Dict, List

import pytest

from repro.blocks import StreamFeeder
from repro.sim import run_blocks
from repro.streams import Channel, Stream


def feed(tokens, name="in", kind="crd"):
    """Build a (feeder block, channel) pair playing *tokens*."""
    channel = Channel(name, kind=kind)
    feeder = StreamFeeder(list(tokens), channel, name=f"feed_{name}")
    return feeder, channel


def out_channel(name="out", kind="crd"):
    return Channel(name, kind=kind, record=True)


def run_and_collect(blocks, *channels) -> List[List]:
    """Run blocks to completion; return each channel's full history."""
    report = run_blocks(list(blocks))
    histories = [list(ch.history) for ch in channels]
    return [report] + histories


@pytest.fixture
def harness():
    """Convenience namespace bundling the helpers above."""

    class Harness:
        feed = staticmethod(feed)
        out = staticmethod(out_channel)
        run = staticmethod(run_and_collect)

        @staticmethod
        def paper(text, kind="crd"):
            from repro.streams import stream_from_paper

            return stream_from_paper(text, kind=kind).tokens

    return Harness()
