"""Pluggable simulation backends.

The registry maps backend names to engine classes:

======================  ==============================================
``"cycle"``             Reference model; steps every block every cycle.
``"timed-batch"``       Epoch-batched timing on the TokenBatch plane;
                        identical cycles/stats/token counts.  A graph
                        with a block that has no usable window hook
                        runs on ``"cycle"`` whole (``report.handoff``).
``"compiled"``          The timed-batch run loop plus static segment
                        fusion: linear chains run as one super-block
                        (composed schedules, fused kernels); identical
                        reports, fastest timed backend at scale.
``"event"``             Another name for ``"cycle"``.
``"functional"``        Another name for ``"timed-batch"``.
``"functional-seq"``    Another name for ``"cycle"``.
======================  ==============================================

``"event"`` named an event-driven engine that was bit-identical to
``"cycle"`` and never measurably faster than it; the engine is gone and
its key stays only because ``perfbench`` times every engine it lists by
name.  ``"functional"`` and ``"functional-seq"`` named two outputs-only
engines (window and generator) that reported no cycles; they stay as
keys for the same reason.

``resolve_backend(None)`` consults the ``REPRO_ENGINE`` environment
variable and falls back to ``"cycle"``, so any entry point that threads
a ``backend=None`` default through can be switched globally.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Type, Union

from .base import DeadlockError, Engine, SimulationReport
from .compiled import CompiledEngine
from .cycle import CycleEngine
from .plan import Plan
from .timed_batch import TimedBatchEngine

BACKENDS: Dict[str, Type[Engine]] = {
    CycleEngine.backend: CycleEngine,
    TimedBatchEngine.backend: TimedBatchEngine,
    CompiledEngine.backend: CompiledEngine,
    "event": CycleEngine,
    "functional": TimedBatchEngine,
    "functional-seq": CycleEngine,
}

#: environment variable consulted when no backend is given explicitly
ENGINE_ENV_VAR = "REPRO_ENGINE"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve an explicit/None backend name to a registry key."""
    if backend is None:
        backend = os.environ.get(ENGINE_ENV_VAR) or CycleEngine.backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    return backend


def get_backend(backend: Optional[str] = None) -> Type[Engine]:
    """The engine class registered under *backend* (None → default)."""
    return BACKENDS[resolve_backend(backend)]


def make_engine(
    blocks: Iterable,
    backend: Union[str, Type[Engine], None] = None,
) -> Engine:
    """Instantiate a backend over *blocks*; accepts a name or a class."""
    if isinstance(backend, type) and issubclass(backend, Engine):
        return backend(blocks)
    return get_backend(backend)(blocks)


def run_blocks(
    blocks: Iterable,
    max_cycles: Optional[int] = None,
    backend: Union[str, Type[Engine], None] = None,
    plan: Optional[Plan] = None,
) -> SimulationReport:
    """Convenience wrapper: build an engine and run it.

    *plan* is the blocks' :class:`~repro.sim.backends.plan.Plan` when the
    caller already holds one (a bound frozen graph does); a timed engine
    plans the run itself without it.
    """
    engine = make_engine(blocks, backend=backend)
    engine.plan = plan
    return engine.run(max_cycles=max_cycles)


__all__ = [
    "BACKENDS",
    "CompiledEngine",
    "CycleEngine",
    "DeadlockError",
    "ENGINE_ENV_VAR",
    "Engine",
    "SimulationReport",
    "TimedBatchEngine",
    "get_backend",
    "make_engine",
    "resolve_backend",
    "run_blocks",
]
