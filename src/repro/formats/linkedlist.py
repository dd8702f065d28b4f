"""Linked-list level format (paper section 6.5, OuterSPACE case study).

OuterSPACE writes its multiply-phase intermediate ``Y[i,k,j]`` in
``i,k,j`` order while the dataflow produces it in ``k,i,j`` order — a
*discordant* write.  A linked-list level supports appending a fiber entry
under any parent in any arrival order: each parent keeps the head of a
singly linked list of (coordinate, child_ref) nodes.

Reads present the nodes in insertion order (the merge phase's vector
reducer handles deduplication/sorting), matching the paper's description
that the level writer "is not restricted to a specific representation".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .level import Level


class LinkedListLevel(Level):
    """Per-parent singly linked lists of (coordinate, child_ref) nodes."""

    format_name = "linkedlist"

    def __init__(self, num_fibers: int = 0):
        self.heads: List[Optional[int]] = [None] * num_fibers
        self.tails: List[Optional[int]] = [None] * num_fibers
        self.node_crd: List[int] = []
        self.node_next: List[Optional[int]] = []
        #: the fiber each node was appended under
        self.node_parent: List[int] = []
        #: ``fiber_arrays``' layout, by the level's size when it was built
        self._layout: Optional[tuple] = None

    def ensure_fiber(self, ref: int) -> None:
        """Grow the level so fiber *ref* exists (discordant writers need this)."""
        while len(self.heads) <= ref:
            self.heads.append(None)
            self.tails.append(None)

    def append(self, ref: int, coordinate: int) -> int:
        """Append *coordinate* under fiber *ref*; returns the child reference."""
        self.ensure_fiber(ref)
        node = len(self.node_crd)
        self.node_crd.append(coordinate)
        self.node_next.append(None)
        self.node_parent.append(ref)
        if self.tails[ref] is None:
            self.heads[ref] = node
        else:
            self.node_next[self.tails[ref]] = node
        self.tails[ref] = node
        return node

    # -- Level interface -----------------------------------------------------
    def num_fibers(self) -> int:
        return len(self.heads)

    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        pairs = []
        node = self.heads[ref]
        while node is not None:
            pairs.append((self.node_crd[node], node))
            node = self.node_next[node]
        return pairs

    def fiber_arrays(self, refs: np.ndarray):
        """Vectorized :meth:`fiber` over a run of references.

        Returns ``(crds, children, lens)`` as
        :meth:`CompressedLevel.fiber_arrays` does.  A list's nodes are its
        appends in order, so a stable sort of the nodes by parent lays
        every list out in list order.  The layout is built once per size
        of the level: a reader's many windows share it.
        """
        _, order, seg, crd = self._lists()
        refs = np.asarray(refs, dtype=np.int64)
        starts = seg[refs]
        lens = seg[refs + 1] - starts
        before = lens.cumsum() - lens
        children = order[np.arange(int(np.add.reduce(lens)), dtype=np.int64)
                         + (starts - before).repeat(lens)]
        return crd[children], children, lens

    def fiber_lens(self, refs: np.ndarray) -> np.ndarray:
        """The node counts of the lists at *refs*."""
        seg = self._lists()[2]
        refs = np.asarray(refs, dtype=np.int64)
        return seg[refs + 1] - seg[refs]

    def _lists(self):
        """``(size, order, seg, crd)``: the nodes laid out list by list,
        built once per size of the level."""
        size = (len(self.node_parent), len(self.heads))
        if self._layout is None or self._layout[0] != size:
            parent = np.asarray(self.node_parent, dtype=np.int64)
            seg = np.zeros(size[1] + 1, dtype=np.int64)
            np.bincount(parent, minlength=size[1]).cumsum(out=seg[1:])
            self._layout = (size, parent.argsort(kind="stable"), seg,
                            np.asarray(self.node_crd, dtype=np.int64))
        return self._layout

    def __repr__(self) -> str:
        return f"LinkedListLevel(fibers={len(self.heads)}, nodes={len(self.node_crd)})"
