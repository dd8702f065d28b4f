"""Structure-keyed plan cache for the compiled backend's fused segments.

A fused segment is identified by its *structure*
(:func:`repro.sim.backends.plan.segment_plan_key`): block classes, fuse roles,
initiation intervals, transform tags and structural link deltas — nothing
run-specific — so two bindings of the same expression shape share one
key.  The cache remembers each key's display digest and counts lookups;
repeated runs in a sweep hit it, and the counters surface in
``report.plans`` and ``repro graph --dump-plan``.

(The module keeps the name of the kernel tier it once belonged to only
because the frozen benchmark imports it; see ROADMAP item 1.)
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, List

__all__ = ["PLAN_CACHE", "PlanCache", "jit_stats", "plan_digest", "warmup"]


def plan_digest(key: Hashable) -> str:
    """Short stable digest of a plan key, for display and artifacts."""
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:12]


class PlanCache:
    """Digest of every segment structure seen, with hit/miss accounting."""

    def __init__(self) -> None:
        self._digests: Dict[Hashable, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._digests

    def get(self, key: Hashable) -> str:
        """The digest of *key*, counted as a hit if seen before."""
        digest = self._digests.get(key)
        if digest is None:
            self.misses += 1
            digest = self._digests[key] = plan_digest(key)
        else:
            self.hits += 1
        return digest

    def snapshot(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._digests)}

    def clear(self) -> None:
        self._digests.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache; sweeps and repeated ``run()`` calls share it.
PLAN_CACHE = PlanCache()


# Constant: perfbench/env.py fingerprints with it; ROADMAP item 1 removes it.
def jit_stats() -> Dict[str, Any]:
    return {"numba": None, "backend": "numpy", "mode": "auto", "kernels": {},
            "plan_cache": PLAN_CACHE.snapshot()}


# Constant: perfbench/run.py calls it during set-up; ROADMAP item 1 removes it.
def warmup() -> List[str]:
    return []
