"""Rate analysis: steady-state busy-cycle prediction and bottlenecks.

The paper's cycle model makes every block a fully pipelined rate-1
machine (``Block.drain_timed``'s schedule ``c[k] = max(c[k-1] + 1,
arrival[k])``, and one generator ``yield True`` per event on
``cycle``): one busy cycle per token event, control tokens included.  Under that model a block's total busy cycles
equal the token volume through its busiest port, which the SDF-style
balance view makes *predictable from channel token counts alone* — no
timed simulation needed:

* default transfer: ``busy = max over connected channels of the
  channel's total pushed tokens`` (data + stop + done + empty — control
  tokens each cost one event too);
* :class:`~repro.blocks.reduce.VectorReducer` consumes one event per
  aligned input pair but *also* spends one event per flushed data
  token, so its busy count is ``total(in_crd) + data(out_crd)``;
* :class:`~repro.blocks.parallel.InterleaveSerializer` spends one event
  per copied data token, one per fiber-closing stop it consumes, one
  per normalised stop it emits, and one for done — except the final
  elevated stop rides the done event: ``data(out) + stops(ins) +
  stops(out) + done(out) - 1``;
* :class:`~repro.blocks.merge.Intersect` (two-finger merge) pops the
  lagging side each event and both sides on a match, so its event count
  is ``data(crd0) + data(crd1) - data(out_crd)`` plus one event per
  aligned stop pair and one for done (a Union emits one token per
  event, so its busiest channel — the union stream — already predicts
  it);
* :class:`~repro.blocks.bitvector.BVExpander` spends one event per
  expanded set bit plus one per word, stop, and done:
  ``data(out_crd) + total(in_bv)``;
* :class:`~repro.blocks.reduce.MatrixReducer` pays one event per input
  token (outer and inner aligned pairs, minus the shared done event)
  plus a two-level flush — one event per emitted row, one per inner
  coordinate, and one per row closure: ``total(in_crd_outer) +
  total(in_crd_inner) - 1 + 2*data(out_crd_outer) +
  data(out_crd_inner)``.

Channel token counts are exact after any run — every backend pushes
the same token sequences by construction — so one run calibrates the
prediction, and the same run's measured ``busy_cycles`` cross-validate
it (CounterPoint style: independent static prediction vs.
hardware-counter measurement, divergence localises a model bug to one
block).

The *bottleneck* is the block with the highest predicted busy count:
under rate-1 timing it is the block whose port carries the most tokens,
i.e. the chain everything else waits on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..blocks.base import Block
from ..blocks.bitvector import BVExpander
from ..blocks.merge import Intersect
from ..blocks.parallel import InterleaveSerializer
from ..blocks.reduce import MatrixReducer, VectorReducer
from .findings import AnalysisReport, Finding

#: relative tolerance for measured-vs-predicted divergence findings;
#: the model is exact for most primitives, but interleaving serializers
#: overlap control handling with data (measured runs ~10% under).
DEFAULT_TOLERANCE = 0.15


def _connected_channels(block: Block):
    seen = set()
    for registry in (block.inputs, block.outputs, block.sideband_outputs()):
        for chan in registry.values():
            if id(chan) not in seen:
                seen.add(id(chan))
                yield chan


def predict_busy(block: Block) -> int:
    """Predicted busy cycles for one block from channel token counts."""
    if isinstance(block, VectorReducer):
        in_crd = block.inputs.get("in_crd")
        out_crd = block.outputs.get("out_crd")
        if in_crd is not None and out_crd is not None:
            total = in_crd.pushed_total + out_crd.pushed_data
            if total:
                return total
    if isinstance(block, InterleaveSerializer):
        out = block.outputs.get("out")
        if out is not None and out.pushed_total:
            in_stops = sum(chan.pushed_stop
                           for chan in block.inputs.values())
            return (out.pushed_data + in_stops + out.pushed_stop
                    + out.pushed_done - 1)
    if isinstance(block, MatrixReducer):
        outer, inner = block.in_crd_outer, block.in_crd_inner
        if outer.pushed_total and inner.pushed_total:
            return (outer.pushed_total + inner.pushed_total - 1
                    + 2 * block.out_crd_outer.pushed_data
                    + block.out_crd_inner.pushed_data)
    if isinstance(block, Intersect) and len(block.sides) == 2:
        out_crd = block.outputs.get("out_crd")
        in_data = sum(block.inputs[f"crd{i}"].pushed_data
                      for i in range(2) if f"crd{i}" in block.inputs)
        if out_crd is not None and in_data:
            return (in_data - out_crd.pushed_data + out_crd.pushed_stop
                    + out_crd.pushed_done + out_crd.pushed_empty)
    if isinstance(block, BVExpander):
        out_crd = block.outputs.get("out_crd")
        if out_crd is not None and block.in_bv.pushed_total:
            return out_crd.pushed_data + block.in_bv.pushed_total
    totals = [chan.pushed_total for chan in _connected_channels(block)]
    return max(totals) if totals else 0


def analyze_rates(
    blocks: List[Block],
    measured: Optional[Dict[str, int]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AnalysisReport:
    """Predict per-block busy cycles and the bottleneck chain.

    Requires calibrated channel counters (run the graph first); with
    all counters zero the pass only records that it could
    not calibrate.  *measured* maps block name to measured busy cycles
    (``SimulationReport.block_activity()`` of a timed run); when given,
    each block is cross-validated and divergences beyond *tolerance*
    become info findings.
    """
    report = AnalysisReport()
    predicted = {block.name: predict_busy(block) for block in blocks}
    calibrated = any(predicted.values())
    meta: Dict[str, object] = {"calibrated": calibrated}
    report.meta["rate"] = meta
    if not calibrated:
        meta["note"] = ("channel counters are empty; run the graph "
                        "(any backend) before rate analysis")
        return report

    peak = max(predicted.values())
    utilization = {name: (busy / peak if peak else 0.0)
                   for name, busy in predicted.items()}
    chain = sorted(predicted, key=lambda name: -predicted[name])
    meta["predicted_busy"] = predicted
    meta["utilization"] = {name: round(u, 4)
                           for name, u in utilization.items()}
    meta["bottleneck"] = chain[0]
    meta["bottleneck_chain"] = chain[:5]

    if measured is None:
        return report

    meta["measured_busy"] = dict(measured)
    if measured:
        measured_peak = max(measured.values())
        measured_bottleneck = max(measured, key=lambda n: measured[n])
        meta["measured_bottleneck"] = measured_bottleneck
        meta["bottleneck_match"] = bool(
            measured.get(chain[0], -1) == measured_peak)
    for name, busy in predicted.items():
        actual = measured.get(name)
        if actual is None:
            continue
        scale = max(actual, 1)
        if abs(busy - actual) / scale <= tolerance:
            continue
        report.add(Finding(
            severity="info",
            pass_name="rate",
            code="rate-divergence",
            block=name,
            message=(
                f"predicted {busy} busy cycles but the timed backend "
                f"measured {actual} (|Δ|/measured = "
                f"{abs(busy - actual) / scale:.2f} > {tolerance}); the "
                f"static rate model disagrees with the counters here"
            ),
            details={"predicted": busy, "measured": actual,
                     "tolerance": tolerance},
        ))
    return report
