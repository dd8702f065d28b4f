"""Token types for SAM streams (paper section 3.2).

A SAM stream is a sequence of tokens transmitting one fibertree level.
There are four kinds of tokens:

* *data tokens* — plain Python ints (coordinates, references) or floats
  (values).  We keep them unwrapped so that stream processing stays cheap.
* ``Stop(n)`` — a hierarchical stop token ``Sn`` denoting the end of a
  fiber ``n`` levels up from the innermost boundary.
* ``EMPTY`` — the empty token ``N`` emitted by unioners for coordinates
  that are missing on one input, and treated as zero by ALUs and arrays.
* ``DONE`` — the ``D`` token that terminates every stream.

The paper draws streams right-to-left (the token nearest the arrowhead is
sent first).  In this library a stream is a list in *arrival order*, so
the paper's ``D, S0, 3, 1, 0`` is written ``[0, 1, 3, Stop(0), DONE]``.
"""

from __future__ import annotations

import numpy as np


class Stop:
    """Hierarchical stop token ``Sn`` (end of a fiber, ``n`` extra levels).

    ``Stop(0)`` closes the current fiber; ``Stop(n)`` additionally closes
    ``n`` enclosing fibers (one stop token may close several nesting
    levels at once, exactly like the paper's ``S1`` in Figure 1d).
    """

    __slots__ = ("level",)

    def __init__(self, level: int):
        if level < 0:
            raise ValueError(f"stop level must be non-negative, got {level}")
        self.level = level

    def __repr__(self) -> str:
        return f"S{self.level}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Stop) and other.level == self.level

    def __hash__(self) -> int:
        return hash(("Stop", self.level))


class _Done:
    """The unique ``D`` token marking the end of a stream."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "D"


class _Empty:
    """The unique ``N`` (empty) token.

    Emitted by unioners on reference streams for coordinates present on
    only a subset of inputs; arrays and ALUs treat it as zero.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "N"


DONE = _Done()
EMPTY = _Empty()


def is_stop(token) -> bool:
    """True if *token* is a hierarchical stop token."""
    return isinstance(token, Stop)


def is_done(token) -> bool:
    """True if *token* is the stream-terminating ``D`` token."""
    return token is DONE


def is_empty(token) -> bool:
    """True if *token* is the ``N`` empty token."""
    return token is EMPTY


def is_data(token) -> bool:
    """True if *token* is a non-control (coordinate/reference/value) token."""
    return not (isinstance(token, Stop) or token is DONE or token is EMPTY)


def is_control(token) -> bool:
    """True if *token* is a control token (stop, done, or empty)."""
    return not is_data(token)


def token_repr(token) -> str:
    """Render *token* the way the paper prints it (``S0``, ``D``, ``N``)."""
    return repr(token) if is_control(token) else str(token)


def show_value(token) -> str:
    """A value-stream token as error messages print it: ``0.5`` whether
    it came as a Python number or, off a batch, as ``np.float64(0.5)``,
    and an ``N`` as the zero the timed plane has already made of it."""
    if is_empty(token):
        token = 0.0
    elif isinstance(token, (int, float, np.number)):
        token = float(token)
    return token_repr(token)
