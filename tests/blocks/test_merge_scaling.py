"""Scaling contract for the merger: its work follows the short side.

Gamma's k-intersect meets each row of B with C's whole k level, a
scanner's output.  The model's assumption is that a window's Python and
numpy work does not grow with the walked side; this module refutes it
with counters, not a timer: the same graph runs with C's k level *n*
and *4n* long and B's keys fixed, and

* ``repro.blocks.merge`` and ``repro.blocks.scanner`` make the same
  numpy calls at both sizes, and
* no array the merger builds with ``np.empty`` / ``np.zeros`` /
  ``np.repeat`` / ``np.searchsorted`` is as long as the walked side.
"""

import gc
from contextlib import ExitStack

import numpy as np
import pytest

from repro.blocks import Intersect, MergeSide, StreamFeeder, make_scanner
from repro.formats import CompressedLevel
from repro.sim import run_blocks
from repro.streams import Channel, DONE, Stop

from blockkit import TIMED
from numpy_counters import numpy_calls

#: B's keys a fiber: two on C's (even) coordinates, one between them
B_KEYS = [2, 3, 10]
FIBERS = 6
#: numpy functions whose calls the contract counts
COUNTED = ("empty", "zeros", "full", "ones", "repeat", "searchsorted", "cumsum",
           "bincount", "flatnonzero", "concatenate", "where", "clip", "stack",
           "append", "diff", "arange")
#: the array-building calls, and the length of the array each returns
BUILT = {
    "empty": lambda args: int(np.prod(args[0])),
    "zeros": lambda args: int(np.prod(args[0])),
    "repeat": lambda args: int(np.sum(args[1])) if np.ndim(args[1])
    else int(args[1]) * int(np.size(args[0])),
    "searchsorted": lambda args: int(np.size(args[1])),
}
WATCHED = ("repro.blocks.merge", "repro.blocks.scanner")


def gamma_shaped(n):
    """B's k fibers against C's k level of *n* even coordinates, scanned
    once per fiber, as Gamma's lane does."""
    level = CompressedLevel([0, n], [2 * c for c in range(n)])
    b_crd, b_ref, c_root = (Channel(name) for name in ("b_crd", "b_ref", "c_root"))
    c_crd, c_ref, o_crd = Channel("c_crd"), Channel("c_ref", kind="ref"), Channel("o")
    crds, refs = [], []
    for f in range(FIBERS):
        crds += B_KEYS + [Stop(0)]
        refs += [10 * f + i for i in range(len(B_KEYS))] + [Stop(0)]
    blocks = [
        StreamFeeder(crds + [DONE], b_crd, name="feed_crd"),
        StreamFeeder(refs + [DONE], b_ref, name="feed_ref"),
        StreamFeeder([0] * FIBERS + [DONE], c_root, name="feed_root"),
        make_scanner(level, c_root, c_crd, c_ref, name="scan_Ck"),
    ]
    outs = [[Channel("ob", kind="ref")], [Channel("oc", kind="ref")]]
    blocks.append(Intersect([MergeSide(b_crd, [b_ref]), MergeSide(c_crd, [c_ref])],
                            o_crd, outs, name="intersect_k"))
    return blocks


def counted_run(n, backend):
    """``(calls, built)``: the numpy calls the watched modules make, and
    the length of every array the merger builds."""
    built = []

    def note(name):
        def call(frame, args):
            module = frame.f_globals["__name__"]
            if module == "repro.blocks.merge" and name in BUILT:
                built.append((name, frame.f_code.co_name, BUILT[name](args)))
            return module
        return call

    with ExitStack() as stack:
        calls = {name: stack.enter_context(numpy_calls(name, note(name)))
                 for name in COUNTED}
        report = run_blocks(gamma_shaped(n), backend=backend)
    assert report.handoff is None
    return {name: sum(module in WATCHED for module in notes)
            for name, notes in calls.items()}, built


@pytest.mark.parametrize("backend", TIMED)
def test_merge_work_follows_the_short_side(backend):
    n = 200
    small, _ = counted_run(n, backend)
    large, built = counted_run(4 * n, backend)
    assert small == large
    assert built, "the merger built no array"
    walked = FIBERS * 4 * n  # C's pairs the merger's window walks
    assert all(size < walked for _, _, size in built), [
        b for b in built if b[2] >= walked]


@pytest.mark.parametrize("backend", TIMED)
def test_paired_run_leaves_no_cyclic_garbage(backend):
    # a scanner and the runs it hands its merger side must not reference
    # each other: a cycle keeps every graph alive until the cyclic
    # collector runs, and a loop of small graphs pays for that
    run_blocks(gamma_shaped(8), backend=backend)
    gc.collect()
    gc.disable()
    try:
        run_blocks(gamma_shaped(8), backend=backend)
        assert gc.collect() == 0
    finally:
        gc.enable()
