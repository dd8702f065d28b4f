"""Stream data model of the Sparse Abstract Machine (paper section 3.1-3.2)."""

from .batch import NO_TOKEN, TokenBatch, concat_batches
from .channel import Channel
from .nested import flatten_values, from_stream, nesting_depth, to_stream
from .stream import Stream, StreamError, root_ref_stream, stream_from_paper
from .token import (
    DONE,
    EMPTY,
    Stop,
    is_control,
    is_data,
    is_done,
    is_empty,
    is_stop,
    token_repr,
)

__all__ = [
    "Channel",
    "DONE",
    "NO_TOKEN",
    "TokenBatch",
    "concat_batches",
    "EMPTY",
    "Stop",
    "Stream",
    "StreamError",
    "flatten_values",
    "from_stream",
    "is_control",
    "is_data",
    "is_done",
    "is_empty",
    "is_stop",
    "nesting_depth",
    "root_ref_stream",
    "stream_from_paper",
    "to_stream",
    "token_repr",
]
