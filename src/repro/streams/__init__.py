"""Stream data model of the Sparse Abstract Machine (paper section 3.1-3.2)."""

from .batch import NO_TOKEN, TokenBatch, concat_batches
from .channel import Channel
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
    "is_control",
    "is_data",
    "is_done",
    "is_empty",
    "is_stop",
    "token_repr",
]
