"""Memory hierarchy model for finite-hardware SAM graphs (section 6.4).

The paper's ExTensor recreation models two buffer levels — a last-level
buffer (LLB) and per-PE buffers (PEB) — fed by DRAM at a fixed bandwidth,
with n-buffering overlapping loads with compute.  This module provides
the DRAM and pipeline pieces as small composable models measured in
cycles; buffer capacity is a byte count on the model that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DramModel:
    """DRAM characterised by bandwidth; transfers are cycle-counted.

    The paper's configuration: 68.256 GB/s at a 1 GHz accelerator clock,
    i.e. 68.256 bytes per cycle.
    """

    bytes_per_cycle: float = 68.256

    def __post_init__(self):
        if not self.bytes_per_cycle > 0:
            raise ValueError(
                f"DramModel.bytes_per_cycle must be positive, "
                f"got {self.bytes_per_cycle}"
            )

    def load_cycles(self, num_bytes: float) -> float:
        return num_bytes / self.bytes_per_cycle


@dataclass
class NBufferedPipeline:
    """Load/compute overlap with n-buffering (double buffering by default).

    With n >= 2 buffers, steady-state time per step is the max of the load
    and compute times; with a single buffer they serialise.  The pipeline
    fill adds one load latency.
    """

    stages: int = 2

    def total_cycles(self, load_cycles, compute_cycles) -> float:
        load_list = list(load_cycles)
        compute_list = list(compute_cycles)
        if len(load_list) != len(compute_list):
            raise ValueError("one load time per compute step required")
        if not load_list:
            return 0.0
        if self.stages <= 1:
            return sum(load_list) + sum(compute_list)
        total = load_list[0]  # pipeline fill
        for load, compute in zip(load_list[1:] + [0.0], compute_list):
            total += max(load, compute)
        return total
