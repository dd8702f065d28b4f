"""Stream signatures and the depth-expression language of StreamXfer.

A stream's *signature* is the pair ``(kind, depth)``: what the data
tokens mean (coordinate / reference / value / bitvector / repeat
signal) and how many stop levels the stream nests.  ``[x, D]`` has
depth 0; a stream of fibers ``[a, b, S0, c, S0, D]`` depth 1; each
additional stop level adds one.

Depth expressions (in :class:`~repro.blocks.base.StreamXfer`) relate a
port's depth to the block's single depth variable ``d``:

* ``"d"``, ``"d+N"``, ``"d-N"`` — offset from ``d``;
* an integer literal — fixed depth regardless of ``d``;
* ``"max(d-N,M)"`` — offset clamped from below (a vector reducer
  flushing ``f`` levels emits at ``max(d-f, 1)``).

:func:`eval_depth` computes a port depth from ``d``; :func:`bind_depth`
inverts: given a port's known depth, the set of ``d`` values consistent
with it (clamped expressions can have several).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..streams.channel import STREAM_KINDS

_OFFSET_RE = re.compile(r"^d(?:\s*([+-])\s*(\d+))?$")
_MAX_RE = re.compile(r"^max\(\s*d\s*-\s*(\d+)\s*,\s*(\d+)\s*\)$")
_INT_RE = re.compile(r"^\d+$")

#: Practical bound on stop-nesting depth when enumerating the solutions
#: of a clamped expression; real kernels stay below rank 4.
MAX_DEPTH = 16


@dataclass(frozen=True)
class StreamSig:
    """Inferred signature of one channel: token kind and nesting depth.

    ``kind`` is one of :data:`repro.streams.channel.STREAM_KINDS` or
    ``None`` when unknown (opaque source); ``depth`` is ``None`` until
    inferred.
    """

    kind: Optional[str] = None
    depth: Optional[int] = None

    def __post_init__(self):
        if self.kind is not None and self.kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")

    def render(self) -> str:
        kind = self.kind if self.kind is not None else "?"
        depth = str(self.depth) if self.depth is not None else "?"
        return f"{kind}@{depth}"


def parse_depth_expr(expr: str) -> Tuple[str, int, int]:
    """Parse a depth expression into ``(form, a, b)``.

    Forms: ``("offset", k, 0)`` for ``d+k`` (k may be negative),
    ``("const", n, 0)`` for a literal, ``("maxoff", k, m)`` for
    ``max(d-k, m)``.
    """
    expr = expr.strip()
    m = _OFFSET_RE.match(expr)
    if m:
        sign, digits = m.groups()
        if digits is None:
            return ("offset", 0, 0)
        k = int(digits)
        return ("offset", -k if sign == "-" else k, 0)
    if _INT_RE.match(expr):
        return ("const", int(expr), 0)
    m = _MAX_RE.match(expr)
    if m:
        return ("maxoff", int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unparseable depth expression {expr!r}")


def eval_depth(expr: str, d: int) -> int:
    """Depth of a port given the block's depth variable ``d``."""
    form, a, b = parse_depth_expr(expr)
    if form == "offset":
        return d + a
    if form == "const":
        return a
    return max(d - a, b)


def bind_depth(expr: str, depth: int) -> Tuple[int, ...]:
    """All values of ``d`` for which ``eval_depth(expr, d) == depth``.

    Empty tuple means the observed depth is inconsistent with the
    expression (itself a protocol violation for constant expressions).
    For ``max(d-k, m)`` with ``depth == m`` every ``d <= m+k`` is a
    solution — enumerated up to :data:`MAX_DEPTH`.
    """
    form, a, b = parse_depth_expr(expr)
    if form == "offset":
        return (depth - a,)
    if form == "const":
        return tuple(range(MAX_DEPTH + 1)) if depth == a else ()
    # maxoff: max(d - a, b)
    if depth > b:
        return (depth + a,)
    if depth == b:
        return tuple(d for d in range(MAX_DEPTH + 1) if max(d - a, b) == depth)
    return ()


# -- variadic port patterns --------------------------------------------------

def match_pattern(pattern: str, port: str) -> Optional[Dict[str, str]]:
    """Match ``port`` against a ``{i}``/``{j}`` pattern.

    Returns the placeholder bindings (possibly empty) on a match, None
    otherwise: ``match_pattern("ref{i}_{j}", "ref1_0")`` → ``{"i": "1",
    "j": "0"}``.
    """
    if "{" not in pattern:
        return {} if port == pattern else None
    regex = re.escape(pattern)
    regex = regex.replace(r"\{i\}", r"(?P<i>\d+)").replace(r"\{j\}", r"(?P<j>\d+)")
    m = re.fullmatch(regex, port)
    if m is None:
        return None
    return {k: v for k, v in m.groupdict().items() if v is not None}


def substitute_indices(pattern: str, bindings: Dict[str, str]) -> str:
    """Fill ``{i}``/``{j}`` placeholders from a match's bindings."""
    out = pattern
    for key, value in bindings.items():
        out = out.replace("{" + key + "}", value)
    return out
