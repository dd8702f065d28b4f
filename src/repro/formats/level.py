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

A format defines :meth:`Level.fiber_arrays` — the pairs of a run of
fibers as arrays — and :meth:`Level.num_fibers`; that is all a reader
needs.  The scalar methods the ``cycle`` oracle calls per token
(:meth:`~Level.fiber`, :meth:`~Level.locate`, :meth:`~Level.skip_to`)
and the locator's :meth:`~Level.locate_arrays` are derived from it once,
here; a format overrides one only where it has a cheaper answer.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

import numpy as np


def fiber_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i]..starts[i] + lens[i]``, concatenated: the
    positions of a run of fibers that each occupy consecutive slots."""
    out = (starts - (lens.cumsum() - lens)).repeat(lens)
    out += np.arange(len(out), dtype=np.int64)
    return out


class Level(abc.ABC):
    """Abstract fibertree level: an ordered collection of fibers."""

    #: short name used by the format language ("compressed", "dense", ...)
    format_name: str = "abstract"

    @abc.abstractmethod
    def num_fibers(self) -> int:
        """Number of fibers stored at this level."""

    @abc.abstractmethod
    def fiber_arrays(self, refs: np.ndarray):
        """The fibers at *refs*, gathered: ``(crds, children, lens)`` —
        the concatenated coordinates and child references of every
        requested fiber, plus per-fiber lengths (so callers can place the
        fiber-separating stop tokens)."""

    def fiber_lens(self, refs: np.ndarray) -> np.ndarray:
        """The pair counts of the fibers at *refs*."""
        return self.fiber_arrays(refs)[2]

    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        """The ``(coordinate, child_ref)`` pairs of the fiber at *ref*."""
        crds, children, _ = self.fiber_arrays(np.array([ref], dtype=np.int64))
        return list(zip(crds.tolist(), children.tolist()))

    def locate_arrays(self, ref: int, coordinates: np.ndarray):
        """Locate many coordinates in fiber *ref* (sorted) at once.

        Returns ``(found, hits)``: candidate child references and a hit
        mask (``found`` entries are only meaningful where ``hits``).
        """
        crds, children, _ = self.fiber_arrays(np.array([ref], dtype=np.int64))
        coordinates = np.asarray(coordinates, dtype=np.int64)
        width = len(crds)
        if width == 0:
            return np.zeros(len(coordinates), dtype=np.int64), np.zeros(
                len(coordinates), dtype=bool
            )
        pos = np.minimum(crds.searchsorted(coordinates), width - 1)
        return children[pos], crds[pos] == coordinates

    def locate(self, ref: int, coordinate: int) -> Optional[int]:
        """Child reference for *coordinate* in fiber *ref*, or None.

        This is the iterate-locate (leader-follower) primitive of
        section 4.2: one probe of :meth:`locate_arrays`.
        """
        found, hits = self.locate_arrays(ref, np.array([coordinate], dtype=np.int64))
        return int(found[0]) if hits[0] else None

    def skip_to(self, ref: int, position: int, coordinate: int) -> int:
        """First position >= *position* whose coordinate is >= *coordinate*.

        Supports the coordinate-skipping (galloping) optimisation of
        section 4.2: intersecters tell trailing scanners which coordinate
        is needed next and the scanner jumps ahead.  Positions index into
        the fiber as returned by :meth:`fiber`, whose coordinates ascend.
        """
        crds = self.fiber_arrays(np.array([ref], dtype=np.int64))[0]
        return max(position, int(crds.searchsorted(coordinate)))
