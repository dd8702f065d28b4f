"""Linked-list level format (paper section 6.5, OuterSPACE case study).

OuterSPACE writes its multiply-phase intermediate ``Y[i,k,j]`` in
``i,k,j`` order while the dataflow produces it in ``k,i,j`` order — a
*discordant* write.  A linked-list level supports appending a fiber entry
under any parent in any arrival order: each parent's list is its
appends, in arrival order.  The level keeps each node's coordinate and
parent; a read lays the nodes out list by list with one stable sort.

Reads present the nodes in insertion order (the merge phase's vector
reducer handles deduplication/sorting), matching the paper's description
that the level writer "is not restricted to a specific representation".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .level import Level, fiber_positions


class LinkedListLevel(Level):
    """Per-parent lists of (coordinate, child_ref) nodes, in append order."""

    format_name = "linkedlist"

    def __init__(self, num_fibers: int = 0):
        self._num_fibers = num_fibers
        self.node_crd: List[int] = []
        #: the fiber each node was appended under
        self.node_parent: List[int] = []
        #: ``fiber_arrays``' layout, by the level's size when it was built
        self._layout: Optional[tuple] = None

    def ensure_fiber(self, ref: int) -> None:
        """Grow the level so fiber *ref* exists (discordant writers need this)."""
        self._num_fibers = max(self._num_fibers, ref + 1)

    def append(self, ref: int, coordinate: int) -> int:
        """Append *coordinate* under fiber *ref*; returns the child reference."""
        self.ensure_fiber(ref)
        self.node_crd.append(coordinate)
        self.node_parent.append(ref)
        return len(self.node_crd) - 1

    # -- Level interface -----------------------------------------------------
    def num_fibers(self) -> int:
        return self._num_fibers

    def fiber_arrays(self, refs: np.ndarray):
        """A list's nodes are its appends in order, so a stable sort of
        the nodes by parent lays every list out in list order.  The
        layout is built once per size of the level: a reader's many
        windows share it."""
        _, order, seg, crd = self._lists()
        refs = np.asarray(refs, dtype=np.int64)
        starts = seg[refs]
        lens = seg[refs + 1] - starts
        children = order[fiber_positions(starts, lens)]
        return crd[children], children, lens

    def _lists(self):
        """``(size, order, seg, crd)``: the nodes laid out list by list,
        built once per size of the level."""
        size = (len(self.node_parent), self._num_fibers)
        if self._layout is None or self._layout[0] != size:
            parent = np.asarray(self.node_parent, dtype=np.int64)
            seg = np.zeros(size[1] + 1, dtype=np.int64)
            np.bincount(parent, minlength=size[1]).cumsum(out=seg[1:])
            self._layout = (size, parent.argsort(kind="stable"), seg,
                            np.asarray(self.node_crd, dtype=np.int64))
        return self._layout

    def __repr__(self) -> str:
        return f"LinkedListLevel(fibers={self._num_fibers}, nodes={len(self.node_crd)})"
