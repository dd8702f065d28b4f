"""The paper's stream notation and nested-list form, for the tests.

A :class:`Stream` wraps a list of tokens in arrival order and knows which
SAM stream kind it is (:data:`repro.streams.channel.STREAM_KINDS`).
:func:`stream_from_paper` parses the paper's right-to-left notation
(section 3.2), and :func:`to_stream` / :func:`from_stream` convert
between a stream and the nested lists it stands for: "Streams can be
interpreted as variable-length nested lists where each stop token
represents a parenthesis."  The value stream ``1, S0, 2, 3, S0, 4, 5,
S1, D`` (arrival order) represents the nested level ``((1,), (2, 3),
(4, 5))``.

``tests/conftest.py`` puts this directory on ``sys.path``; import it as
``from streamkit import ...``.
"""

from typing import Iterable, Iterator, List, Sequence

from repro.streams.channel import STREAM_KINDS
from repro.streams.token import (
    DONE,
    EMPTY,
    Stop,
    is_data,
    is_done,
    is_empty,
    is_stop,
    token_repr,
)


class StreamError(ValueError):
    """Raised when a token sequence is not a well-formed SAM stream."""


class Stream:
    """A SAM stream: tokens in arrival order, ending with ``D``.

    The paper prints streams right-to-left; :meth:`paper_str` reproduces
    that rendering for easy cross-checking against the figures.
    """

    __slots__ = ("tokens", "kind")

    def __init__(self, tokens: Iterable, kind: str = "crd"):
        if kind not in STREAM_KINDS:
            raise StreamError(f"unknown stream kind {kind!r}")
        self.tokens: List = list(tokens)
        self.kind = kind

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, idx):
        return self.tokens[idx]

    def __eq__(self, other) -> bool:
        if isinstance(other, Stream):
            return self.tokens == other.tokens
        return self.tokens == list(other)

    def __repr__(self) -> str:
        return f"Stream({self.paper_str()!r}, kind={self.kind!r})"

    # -- inspection ----------------------------------------------------------
    def paper_str(self) -> str:
        """Render the stream the way the paper does (first token rightmost)."""
        return ", ".join(token_repr(t) for t in reversed(self.tokens))

    def data_tokens(self) -> List:
        """All non-control tokens, in arrival order."""
        return [t for t in self.tokens if is_data(t)]

    def max_stop_level(self) -> int:
        """Highest stop level present (-1 if the stream has no stops)."""
        levels = [t.level for t in self.tokens if is_stop(t)]
        return max(levels) if levels else -1

    def validate(self) -> "Stream":
        """Check well-formedness; returns self so calls can be chained.

        A well-formed stream has exactly one ``D``, as its final token.
        """
        if not self.tokens:
            raise StreamError("stream is empty (missing D token)")
        if not is_done(self.tokens[-1]):
            raise StreamError(f"stream does not end with D: {self.paper_str()}")
        for tok in self.tokens[:-1]:
            if is_done(tok):
                raise StreamError(f"D token before end of stream: {self.paper_str()}")
        return self


def stream_from_paper(text: str, kind: str = "crd") -> Stream:
    """Parse the paper's right-to-left textual stream notation.

    ``stream_from_paper("D, S0, 3, 1, 0")`` yields the stream whose
    arrival order is ``0, 1, 3, S0, D``.  Numbers containing a ``.`` are
    parsed as floats, everything else as ints.
    """
    tokens = []
    for part in reversed([p.strip() for p in text.split(",") if p.strip()]):
        if part == "D":
            tokens.append(DONE)
        elif part == "N":
            tokens.append(EMPTY)
        elif part.startswith("S"):
            tokens.append(Stop(int(part[1:])))
        elif "." in part:
            tokens.append(float(part))
        else:
            tokens.append(int(part))
    return Stream(tokens, kind=kind)


def root_ref_stream() -> Stream:
    """The ``D, 0`` root reference stream that kicks off tensor iteration."""
    return Stream([0, DONE], kind="ref")


def nesting_depth(nested) -> int:
    """Depth of a nested-list structure (a flat list of scalars has depth 1)."""
    if not isinstance(nested, (list, tuple)):
        return 0
    if not nested:
        return 1
    return 1 + max(nesting_depth(item) for item in nested)


def to_stream(nested: Sequence, kind: str = "crd") -> Stream:
    """Flatten a nested list into a SAM stream with hierarchical stops.

    The nesting must be uniform: every leaf sits at the same depth.  An
    empty *innermost* list becomes an empty fiber (a bare stop token,
    producing the consecutive-stop patterns of Figure 8); empty fibers at
    intermediate levels have no canonical single-token encoding and are
    rejected.  ``None`` leaves become ``N`` empty tokens.

    Stop encoding (Figure 1d): every innermost fiber ends with a stop
    whose level counts how many enclosing fibers end at the same point —
    the last fiber of a parent promotes its trailing stop by one, at
    every level including the outermost.
    """
    depth = nesting_depth(nested)
    if depth == 0:
        raise StreamError("to_stream expects a (possibly nested) list")
    tokens: List = []

    def emit(node, level: int) -> None:
        if level == depth - 1:
            for leaf in node:
                tokens.append(EMPTY if leaf is None else leaf)
            tokens.append(Stop(0))
            return
        if not node:
            raise StreamError(
                "empty fibers are only representable at the innermost level"
            )
        for child in node:
            if not isinstance(child, (list, tuple)):
                raise StreamError("non-uniform nesting in to_stream input")
            emit(child, level + 1)
        # Last child of this fiber: its trailing stop also closes us.
        tokens[-1] = Stop(tokens[-1].level + 1)

    if depth == 1:
        tokens.extend(EMPTY if leaf is None else leaf for leaf in nested)
        tokens.append(Stop(0))
    else:
        emit(nested, 0)
        # Undo the outermost promotion: the root list is the level itself,
        # not a fiber inside a parent... except the paper's streams do end
        # with the promoted stop (Figure 1d ends in S1 for a matrix), so
        # keep it.
    tokens.append(DONE)
    return Stream(tokens, kind=kind)


def from_stream(stream) -> list:
    """Rebuild the nested-list view of a stream.

    The result's depth is ``max stop level + 2`` (data level plus one list
    level per stop level).  Empty tokens become ``None`` leaves.  Streams
    with no stop tokens at all (e.g. a scalar result ``v, D``) come back
    as a flat list.
    """
    tokens = stream.tokens if isinstance(stream, Stream) else list(stream)
    if not tokens or not is_done(tokens[-1]):
        raise StreamError("from_stream requires a D-terminated stream")
    body = tokens[:-1]
    max_level = -1
    for tok in body:
        if is_stop(tok):
            max_level = max(max_level, tok.level)
    if max_level < 0:
        return [None if is_empty(t) else t for t in body]

    # stack[d] collects children at nesting depth d; depth 0 is outermost.
    depth = max_level + 2
    stack: List[list] = [[] for _ in range(depth)]
    for tok in body:
        if is_data(tok) or is_empty(tok):
            stack[-1].append(None if is_empty(tok) else tok)
        elif is_stop(tok):
            # Sn closes the innermost fiber and n enclosing fibers.
            for _ in range(tok.level + 1):
                if len(stack) < 2:
                    raise StreamError("stop token closes beyond the outermost level")
                closed = stack.pop()
                stack[-1].append(closed)
            stack.extend([] for _ in range(tok.level + 1))
        else:  # pragma: no cover - validated above
            raise StreamError(f"unexpected token {tok!r}")
    # Unclosed trailing fibers (streams typically close everything before D,
    # but scalar tails may not); fold any non-empty remnants inward.
    for d in range(depth - 1, 0, -1):
        if stack[d]:
            stack[d - 1].append(stack[d])
    # The outermost stack level is a *virtual root fiber*: a well-formed
    # stream's final promoted stop (Figure 1d's trailing S1) closes it,
    # leaving the actual nested level as its single child.
    if len(stack[0]) == 1 and isinstance(stack[0][0], list):
        return stack[0][0]
    return stack[0]


def flatten_values(nested) -> list:
    """All leaves of a nested list, in order (Nones included)."""
    out: list = []

    def walk(node):
        if isinstance(node, (list, tuple)):
            for child in node:
                walk(child)
        else:
            out.append(node)

    walk(nested)
    return out
