"""The array block: a memory proxy (Definition 3.5).

An array block is "a proxy for a memory interface".  Graphs here use it
in load mode only: it turns a reference stream into a data stream by
indexing a contiguous memory, the value load that feeds an ALU.

``N`` references load as ``0.0`` — this, together with the unioner's
``N`` emission and the ALU's N-as-zero rule, implements addition's
identity without materialising zeros.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..streams.channel import Channel
from ..streams.token import is_data, is_done, is_empty
from .base import Block, PortSpec, StreamXfer


class ArrayLoad(Block):
    """Load mode: reference stream in, data stream out (one-cycle memory)."""

    primitive = "array"

    port_specs = (
        PortSpec('in_ref', 'in', kind='ref'),
        PortSpec('out_data', 'out', kind='vals'),
    )
    stream_xfer = StreamXfer(
        ins=(("in_ref", "d"),),
        outs=(("out_data", "vals", "d"),),
    )

    def __init__(
        self,
        memory: Sequence[float],
        in_ref: Channel,
        out_data: Channel,
        empty_value: float = 0.0,
        name: str = "array",
    ):
        super().__init__(name)
        self.memory = memory
        self.in_ref = self._in("in_ref", in_ref)
        self.out_data = self._out("out_data", out_data)
        self.empty_value = empty_value
        self.loads = 0

    def _run(self):
        while True:
            token = yield from self._get(self.in_ref)
            if is_data(token):
                self.loads += 1
                self.out_data.push(self.memory[token])
            elif is_empty(token):
                self.out_data.push(self.empty_value)
            else:
                self.out_data.push(token)
            yield True
            if is_done(token):
                return

    fuse_role = "map"

    def timed_capable(self) -> bool:
        arr = getattr(self, "_mem_array", None)
        if arr is None:
            arr = np.asarray(self.memory)
            ok = arr.ndim == 1 and arr.dtype.kind in "if"
            if ok:
                # Cache the snapshot so the drain paths don't convert a
                # list memory a second time.
                self._mem_array = arr
            return ok
        return True

    def plan_tag(self):
        return ("array_load",)

    def map_parts(self):
        """``(gather, empty_value)``: the load as a window transform."""
        mem = getattr(self, "_mem_array", None)
        if mem is None:
            mem = self._mem_array = np.asarray(self.memory)

        def gather(refs):
            self.loads += len(refs)
            return mem[refs.astype(np.int64, copy=False)]

        return gather, self.empty_value

    def drain_timed(self) -> bool:
        """Timed drain: rate-1 single-cycle memory, whole windows gathered."""
        if self.finished:
            return False
        return self._t_unary_window(
            self.in_ref, self._tbuilder(self.out_data), *self.map_parts()
        )
