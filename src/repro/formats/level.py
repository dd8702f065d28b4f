"""Level format interface (paper section 3.1 and Figure 3).

A fibertree stores one *level* per tensor dimension.  Each level format
implements the same scan/locate interface so that level scanners remain
format agnostic — "the interfaces of the level scanner are format
agnostic and ... remain unchanged as the level format implementation
varies" (Figure 3).

A *reference* identifies one fiber inside a level; scanning a fiber
yields ``(coordinate, child_reference)`` pairs where the child reference
names the fiber at the next level down (or the value position for the
last level).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple


class Level(abc.ABC):
    """Abstract fibertree level: an ordered collection of fibers."""

    #: short name used by the format language ("compressed", "dense", ...)
    format_name: str = "abstract"

    @abc.abstractmethod
    def num_fibers(self) -> int:
        """Number of fibers stored at this level."""

    @abc.abstractmethod
    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        """The ``(coordinate, child_ref)`` pairs of the fiber at *ref*."""

    def locate(self, ref: int, coordinate: int) -> Optional[int]:
        """Child reference for *coordinate* in fiber *ref*, or None.

        This is the iterate-locate (leader-follower) primitive of
        section 4.2.  The default implementation is a linear probe;
        formats override it with something faster where possible.
        """
        for crd, child in self.fiber(ref):
            if crd == coordinate:
                return child
            if crd > coordinate:
                return None
        return None

    def skip_to(self, ref: int, position: int, coordinate: int) -> int:
        """First position >= *position* whose coordinate is >= *coordinate*.

        Supports the coordinate-skipping (galloping) optimisation of
        section 4.2: intersecters tell trailing scanners which coordinate
        is needed next and the scanner jumps ahead.  Positions index into
        the fiber as returned by :meth:`fiber`.
        """
        pairs = self.fiber(ref)
        lo, hi = position, len(pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            if pairs[mid][0] < coordinate:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def fiber_size(self, ref: int) -> int:
        """Number of stored coordinates in the fiber at *ref*."""
        return len(self.fiber(ref))

