"""Scaling contract for a scanner paired with a locator: the locator's
work per window follows its fibers, not its tokens.

``spmv_locate`` streams B's nonzeros through a scanner into the locator
probing c.  The scanner hands the locator its fibers as runs, and the
locator schedules them sparsely: gates at each fiber's first pair and at
each terminator, ramps in between.  This module refutes a regression to
token-at-a-time work with counters, not a timer: the same graph runs
with B's nnz at *n* and *4n* (rows fixed, rows four times as full), and

* ``repro.blocks.scanner`` and ``repro.blocks.locate`` make the same
  numpy calls at both sizes, and
* no array the locator builds with ``np.empty`` / ``np.zeros`` /
  ``np.full`` / ``np.repeat`` / ``np.cumsum`` / ``np.where`` /
  ``np.concatenate`` is as long as the token window the scanner's two
  links would carry (its pairs and its terminators): the dense arrival
  array is never built.
"""

from contextlib import ExitStack

import numpy as np
import pytest

from repro.blocks import Locator
from repro.graph.builder import capture_runs
from repro.kernels.spmv import spmv_locate

from blockkit import TIMED
from numpy_counters import numpy_calls

ROWS = 8
#: numpy functions whose calls the contract counts
COUNTED = ("empty", "zeros", "full", "ones", "repeat", "searchsorted", "cumsum",
           "bincount", "flatnonzero", "concatenate", "where", "clip", "stack",
           "append", "diff", "arange")
#: the array-building calls, and the length of the array each returns
BUILT = {
    "empty": lambda args: int(np.prod(args[0])),
    "zeros": lambda args: int(np.prod(args[0])),
    "full": lambda args: int(np.prod(args[0])),
    "repeat": lambda args: int(np.sum(args[1])) if np.ndim(args[1])
    else int(args[1]) * int(np.size(args[0])),
    "cumsum": lambda args: int(np.size(args[0])),
    "where": lambda args: int(np.size(args[0])),
    "concatenate": lambda args: sum(int(np.size(a)) for a in args[0]),
}
WATCHED = ("repro.blocks.scanner", "repro.blocks.locate")


def operands(width):
    """B: ``ROWS`` rows, every other one of *width* columns a nonzero;
    c: dense, *width* long."""
    B = np.zeros((ROWS, width))
    B[:, ::2] = 1.0 + np.arange(ROWS)[:, None]
    return B, np.linspace(0.5, 1.5, width)


def counted_run(width, backend):
    """``(calls, built, window)``: the numpy calls the watched modules
    make, the length of every array the locator builds, and the tokens
    on each of the scanner's links to it."""
    built = []

    def note(name):
        def call(frame, args):
            module = frame.f_globals["__name__"]
            if module == "repro.blocks.locate" and name in BUILT:
                built.append((name, frame.f_code.co_name, BUILT[name](args)))
            return module
        return call

    with ExitStack() as stack:
        calls = {name: stack.enter_context(numpy_calls(name, note(name)))
                 for name in COUNTED}
        capture = stack.enter_context(capture_runs())
        spmv_locate(*operands(width), backend=backend)
    (blocks, report), = capture.runs
    assert report.handoff is None
    locator, = [b for b in blocks if isinstance(b, Locator)]
    assert locator.runs[0] is not None, "the scanner did not hand over its runs"
    link = locator.in_crd
    window = link.pushed_data + link.pushed_stop + link.pushed_done
    return ({name: sum(module in WATCHED for module in notes)
             for name, notes in calls.items()}, built, window)


@pytest.mark.parametrize("backend", TIMED)
def test_locate_work_follows_the_fibers(backend):
    n = 60  # B's nnz is ROWS * n / 2
    small, _, _ = counted_run(n, backend)
    large, built, window = counted_run(4 * n, backend)
    assert small == large
    assert built, "the locator built no array"
    assert window == ROWS * 2 * n + ROWS + 1  # pairs, a stop a row, D
    assert all(size < window for _, _, size in built), [
        b for b in built if b[2] >= window]
