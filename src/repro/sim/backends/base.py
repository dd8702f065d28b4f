"""Shared machinery for simulation backends.

Every backend consumes the same graph — a list of :class:`~repro.blocks.base.Block`
instances wired by channels — and produces a :class:`SimulationReport`.
Backends differ only in *how* they schedule the blocks' work; the
registry in :mod:`repro.sim.backends` is the one list of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ...blocks.base import Block


class DeadlockError(RuntimeError):
    """No block can make progress but the graph has not finished."""


class SimulationReport:
    """Result of a simulation run: cycles plus per-block activity."""

    def __init__(self, cycles: int, blocks: List[Block]):
        self.cycles = cycles
        self.blocks = blocks
        #: why a timed engine ran this graph on ``cycle`` (None: it did not)
        self.handoff: Optional[str] = None

    def block_activity(self) -> Dict[str, Dict[str, int]]:
        """Per-block busy/stall cycle counts."""
        return {
            block.name: {"busy": block.busy_cycles, "stall": block.stall_cycles}
            for block in self.blocks
        }

    def __repr__(self) -> str:
        return f"SimulationReport(cycles={self.cycles}, blocks={len(self.blocks)})"


class Engine:
    """Base class for simulation backends: validates the block list."""

    #: registry key; subclasses override
    backend = "abstract"
    #: execution planes this backend can drive a block on ("scalar" =
    #: the ``_run`` generator, "timed" = ``drain_timed``); every engine
    #: falls back to the generator per block, so "scalar" appears in
    #: every subclass's tuple
    planes = ("scalar",)
    #: the blocks' precomputed :class:`~repro.sim.backends.plan.Plan`,
    #: set by :func:`~repro.sim.backends.run_blocks` (None: none is held)
    plan = None

    def __init__(self, blocks: Iterable[Block]):
        self.blocks: List[Block] = list(blocks)
        if not self.blocks:
            raise ValueError("engine needs at least one block")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            seen, dups = set(), set()
            for name in names:
                (dups if name in seen else seen).add(name)
            raise ValueError(f"duplicate block names: {sorted(dups)}")

    def run(self, max_cycles: Optional[int] = None) -> SimulationReport:
        raise NotImplementedError

    def _deadlock(self, cycles: int, stuck: List[str]) -> DeadlockError:
        return DeadlockError(
            f"no progress after {cycles} cycles; stuck blocks: {stuck}"
        )
