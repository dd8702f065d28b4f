"""Cycle-approximate SAM simulator with pluggable execution backends.

Backend API
===========

A *backend* is an :class:`~repro.sim.backends.base.Engine` subclass: it
takes the graph's block list, validates it (non-empty, unique names),
and implements ``run(max_cycles=None) -> SimulationReport``.  The
registry :data:`repro.sim.backends.BACKENDS` lists the shipped ones:

``cycle`` (:class:`CycleEngine`)
    The reference model — every unfinished block is stepped once per
    simulated cycle.  Cycle counts are the paper's reported metric.

``timed-batch`` (:class:`TimedBatchEngine`)
    Epoch-batched timing on the TokenBatch data plane: blocks with
    timing descriptors advance over whole control-free token segments
    analytically (one vectorized schedule per segment); a graph with a
    block that cannot runs on ``cycle`` whole.  Bit-identical reports
    (cycles, busy/stall, token counts) to ``cycle``.

``compiled`` (:class:`CompiledEngine`)
    The same timed plane and run loop with control-free segments
    fused into super-blocks (composed schedules, chained kernels);
    identical reports, the fastest timed backend on large workloads.

``event``, ``functional``, ``functional-seq``
    Other names for ``cycle``, ``timed-batch`` and ``cycle`` (see
    :mod:`repro.sim.backends`).

Selecting a backend
-------------------

Every entry point that runs a graph — :func:`run_blocks`,
``Graph.run``, ``BoundGraph.run``, ``CompiledProgram.run``, the
kernels, and the study drivers — accepts ``backend=`` (a registry name
or an Engine class).  ``backend=None`` defers to the ``REPRO_ENGINE``
environment variable and finally to ``"cycle"``.  The CLI exposes the
same choice as ``repro --engine <registry key> <command>``.

Adding a backend
----------------

Subclass :class:`~repro.sim.backends.base.Engine`, set a unique
``backend`` class attribute (and ``planes``, when it drives more than
the scalar generators), implement ``run``, and register the class in
:data:`repro.sim.backends.BACKENDS` — graph validation and the CLI's
``--engine`` choices are derived from the registry.  Blocks expose everything a
scheduler needs: ``step()`` (one cycle), ``drain_timed()`` (one window
visit, on blocks that declare a timing) and ``finished``.
"""

from .backends import (
    BACKENDS,
    CompiledEngine,
    CycleEngine,
    DeadlockError,
    Engine,
    SimulationReport,
    TimedBatchEngine,
    get_backend,
    make_engine,
    resolve_backend,
    run_blocks,
)
from .stats import TokenBreakdown, channel_breakdown, graph_token_counts

__all__ = [
    "BACKENDS",
    "CompiledEngine",
    "CycleEngine",
    "DeadlockError",
    "Engine",
    "SimulationReport",
    "TimedBatchEngine",
    "TokenBreakdown",
    "channel_breakdown",
    "graph_token_counts",
    "get_backend",
    "make_engine",
    "resolve_backend",
    "run_blocks",
]
