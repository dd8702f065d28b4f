"""Protocol inference: abstract interpretation of stream signatures.

The pass assigns every channel in a wired block graph a
:class:`~repro.analysis.signature.StreamSig` — token kind plus
stop-nesting depth — by propagating signatures through each block's
declarative :class:`~repro.blocks.base.StreamXfer` transfer function,
starting from the sources (feeders know the depth of the token list
they will play; roots are depth-0 reference streams).

Propagation runs to a fixpoint, then a checking sweep reports:

* ``depth-mismatch`` (error) — a block's bound inputs disagree on its
  depth variable ``d`` (a reducer fed the wrong nesting level, a
  repeater's signal and reference swapped);
* ``kind-mismatch`` (error) — a channel's inferred kind contradicts the
  consuming port's :class:`~repro.blocks.base.PortSpec` declaration
  (an ALU fed a coordinate stream);
* ``depth-conflict`` (error) — two producers'-side derivations give one
  channel different depths (only possible through explicit rewiring).

Opaque ports (skip side-bands) and blocks without a
transfer function simply do not constrain the fixpoint; the channels
they leave unknown are listed in ``meta["protocol"]["unresolved"]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..blocks.base import Block
from ..streams.channel import Channel
from ..streams.channel import STREAM_KINDS
from .findings import AnalysisReport, Finding
from .signature import (
    StreamSig,
    bind_depth,
    eval_depth,
    match_pattern,
    substitute_indices,
)


def _iter_ports(block: Block):
    """Every (direction, port, channel) the block is wired to."""
    for port, chan in block.inputs.items():
        yield "in", port, chan
    for port, chan in block.outputs.items():
        yield "out", port, chan
    for port, chan in block.sideband_outputs().items():
        yield "out", port, chan


def _match_in(xfer, port: str) -> Optional[Tuple[str, Dict[str, str]]]:
    """The (depth expr, index bindings) of the in-rule matching *port*."""
    for pattern, expr in xfer.ins:
        bindings = match_pattern(pattern, port)
        if bindings is not None:
            return expr, bindings
    return None


def _match_out(xfer, port: str) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """The (kind source, depth expr, bindings) of the out-rule for *port*."""
    for pattern, kind_src, expr in xfer.outs:
        bindings = match_pattern(pattern, port)
        if bindings is not None:
            return kind_src, expr, bindings
    return None


class _Inference:
    """One protocol-inference run over a wired block list."""

    def __init__(self, blocks: List[Block]):
        self.blocks = blocks
        self.sigs: Dict[int, StreamSig] = {}
        self.chan_by_id: Dict[int, Channel] = {}
        for block in blocks:
            for _, _, chan in _iter_ports(block):
                self.chan_by_id.setdefault(id(chan), chan)

    # -- signature store -------------------------------------------------
    def sig(self, chan: Channel) -> StreamSig:
        return self.sigs.get(id(chan), StreamSig())

    def _refine(self, chan: Channel, kind: Optional[str],
                depth: Optional[int]) -> bool:
        """Merge new facts into a channel's signature; True on change.

        First write wins on conflicts — the checking sweep re-derives
        and reports disagreements, so propagation itself never flaps.
        """
        current = self.sig(chan)
        new_kind = current.kind if current.kind is not None else kind
        new_depth = current.depth if current.depth is not None else depth
        if new_kind == current.kind and new_depth == current.depth:
            return False
        self.sigs[id(chan)] = StreamSig(new_kind, new_depth)
        return True

    # -- per-block transfer ---------------------------------------------
    def _bind_d(self, block: Block, xfer) -> Tuple[Optional[int], List[dict]]:
        """Resolve the block's depth variable from its bound inputs.

        Returns ``(d, disagreements)``: the consensus value (None when
        nothing binds it or nothing agrees) and, when the inputs are
        inconsistent, one record per port that contradicts the
        consensus.
        """
        candidates: List[Tuple[str, Channel, str, Tuple[int, ...]]] = []
        for port, chan in block.inputs.items():
            rule = _match_in(xfer, port)
            depth = self.sig(chan).depth
            if rule is None or depth is None:
                continue
            expr, _ = rule
            candidates.append((port, chan, expr, bind_depth(expr, depth)))
        if not candidates:
            return None, []
        votes: Dict[int, int] = {}
        for _, _, _, solutions in candidates:
            for d in solutions:
                votes[d] = votes.get(d, 0) + 1
        if not votes:
            # Every candidate was individually unsatisfiable (constant
            # expression fed the wrong depth): report them all.
            consensus = None
        else:
            best = max(votes.values())
            if best == len(candidates):
                # Consistent: every bound input admits this d.
                consensus = min(d for d, n in votes.items() if n == best)
                return consensus, []
            consensus = min(d for d, n in votes.items() if n == best)
        disagreements = []
        for port, chan, expr, solutions in candidates:
            if consensus is not None and consensus in solutions:
                continue
            expected = (eval_depth(expr, consensus)
                        if consensus is not None else None)
            disagreements.append({
                "port": port,
                "channel": chan.name,
                "expr": expr,
                "inferred_depth": self.sig(chan).depth,
                "expected_depth": expected,
            })
        return consensus, disagreements

    def _out_kind(self, block: Block, kind_src: str,
                  bindings: Dict[str, str], chan: Channel) -> Optional[str]:
        if kind_src in STREAM_KINDS:
            return kind_src
        if kind_src.startswith("="):
            source_port = substitute_indices(kind_src[1:], bindings)
            source = block.inputs.get(source_port)
            if source is None:
                return None
            inferred = self.sig(source).kind
            return inferred if inferred is not None else source.kind
        # "" — keep the channel's declared kind.
        return chan.kind

    def propagate_block(self, block: Block) -> bool:
        xfer = block.stream_xfer_for()
        if xfer is None:
            return False
        changed = False
        # Inputs carry their channel's declared kind when nothing else
        # has claimed one (seeds kind propagation at the graph edges).
        for port, chan in block.inputs.items():
            if _match_in(xfer, port) is not None:
                changed |= self._refine(chan, chan.kind, None)
        d, _ = self._bind_d(block, xfer)
        for port, chan in block.outputs.items():
            rule = _match_out(xfer, port)
            if rule is None:
                continue
            kind_src, expr, bindings = rule
            kind = self._out_kind(block, kind_src, bindings, chan)
            try:
                depth: Optional[int] = eval_depth(expr, d) if d is not None \
                    else eval_depth(expr, 0)
                if d is None and "d" in expr:
                    depth = None
            except ValueError:
                depth = None
            changed |= self._refine(chan, kind, depth)
        return changed

    def run(self) -> None:
        # Round-robin to fixpoint; each round is O(blocks), and depth
        # information only flows forward through the (acyclic, once skip
        # side-bands are opaque) dataflow order, so this converges in at
        # most graph-diameter rounds.
        for _ in range(len(self.blocks) + 2):
            changed = False
            for block in self.blocks:
                changed |= self.propagate_block(block)
            if not changed:
                return

    # -- checking sweep --------------------------------------------------
    def check(self, report: AnalysisReport) -> None:
        for block in self.blocks:
            xfer = block.stream_xfer_for()
            if xfer is None:
                continue
            _, disagreements = self._bind_d(block, xfer)
            for record in disagreements:
                expected = record["expected_depth"]
                expected_text = (f"depth {expected}" if expected is not None
                                 else "a consistent depth")
                report.add(Finding(
                    severity="error",
                    pass_name="protocol",
                    code="depth-mismatch",
                    block=block.name,
                    port=record["port"],
                    channel=record["channel"],
                    message=(
                        f"stream {record['channel']!r} arrives at nesting "
                        f"depth {record['inferred_depth']} but the "
                        f"{type(block).__name__} transfer {record['expr']!r} "
                        f"expects {expected_text} here"
                    ),
                    details=record,
                ))
            self._check_kinds(block, xfer, report)
        self._check_producer_consistency(report)

    def _check_kinds(self, block: Block, xfer, report: AnalysisReport) -> None:
        for port, chan in block.inputs.items():
            if _match_in(xfer, port) is None:
                continue
            spec = type(block).spec_for("in", port)
            expected = spec.kind if spec is not None else None
            inferred = self.sig(chan).kind
            if expected is None or inferred is None or inferred == expected:
                continue
            report.add(Finding(
                severity="error",
                pass_name="protocol",
                code="kind-mismatch",
                block=block.name,
                port=port,
                channel=chan.name,
                message=(
                    f"port expects a {expected!r} stream but "
                    f"{chan.name!r} is inferred to carry {inferred!r}"
                ),
                details={
                    "inferred": StreamSig(inferred, self.sig(chan).depth).render(),
                    "expected": StreamSig(expected, self.sig(chan).depth).render(),
                },
            ))

    def _check_producer_consistency(self, report: AnalysisReport) -> None:
        """Re-derive each producer's outputs against the fixpoint.

        A consumer-side rewiring can leave a channel whose fixpoint
        signature (claimed by whichever block propagated first) differs
        from what its actual producer emits; deriving the producer view
        once more and comparing catches it.
        """
        for block in self.blocks:
            xfer = block.stream_xfer_for()
            if xfer is None:
                continue
            d, disagreements = self._bind_d(block, xfer)
            if disagreements:
                continue  # already reported as depth-mismatch
            for port, chan in block.outputs.items():
                rule = _match_out(xfer, port)
                if rule is None:
                    continue
                _, expr, _ = rule
                if d is None and "d" in expr:
                    continue
                produced = eval_depth(expr, d if d is not None else 0)
                settled = self.sig(chan).depth
                if settled is None or settled == produced:
                    continue
                report.add(Finding(
                    severity="error",
                    pass_name="protocol",
                    code="depth-conflict",
                    block=block.name,
                    port=port,
                    channel=chan.name,
                    message=(
                        f"producer emits {chan.name!r} at nesting depth "
                        f"{produced} but the graph fixpoint settled on "
                        f"depth {settled}"
                    ),
                    details={"produced_depth": produced,
                             "settled_depth": settled},
                ))


def infer_protocol(blocks: List[Block]) -> AnalysisReport:
    """Run protocol inference over a wired block list.

    ``meta["protocol"]["signatures"]`` maps channel name to rendered
    signature; ``meta["protocol"]["unresolved"]`` lists channels whose
    depth stayed unknown (fed only by opaque blocks).
    """
    report = AnalysisReport()
    inference = _Inference(blocks)
    inference.run()
    inference.check(report)
    signatures = {}
    unresolved = []
    for cid, chan in inference.chan_by_id.items():
        sig = inference.sigs.get(cid)
        if sig is None or sig.depth is None:
            unresolved.append(chan.name)
        if sig is not None:
            signatures[chan.name] = sig.render()
    report.meta["protocol"] = {
        "signatures": signatures,
        "unresolved": sorted(unresolved),
    }
    return report
