"""Pass orchestration: run every static analysis over one block list."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..blocks.base import Block
from .deadlock import analyze_deadlock
from .findings import AnalysisReport
from .protocol import infer_protocol
from .rate import DEFAULT_TOLERANCE, analyze_rates


def lint_blocks(
    blocks: List[Block],
    rate: bool = False,
    measured: Optional[Dict[str, int]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AnalysisReport:
    """Run the protocol and deadlock passes (and optionally rates).

    The rate pass is opt-in because it needs calibrated channel token
    counters (a run of the graph); protocol and deadlock are
    purely structural.  *measured* feeds the rate pass's counter
    cross-validation (block name -> measured busy cycles).
    """
    report = AnalysisReport()
    report.extend(infer_protocol(blocks))
    report.extend(analyze_deadlock(blocks))
    if rate or measured is not None:
        report.extend(analyze_rates(blocks, measured=measured,
                                    tolerance=tolerance))
    return report
