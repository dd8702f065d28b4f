"""Shared helpers for block-level tests."""

import pytest


@pytest.fixture
def harness():
    """``harness.paper(text)``: the tokens of a stream written as the
    paper's figures print it."""

    class Harness:
        @staticmethod
        def paper(text, kind="crd"):
            from streamkit import stream_from_paper

            return stream_from_paper(text, kind=kind).tokens

    return Harness()
