"""SAM dataflow graph IR, DOT export, simulator binding, and run capture."""

from .bind import BoundGraph, bind
from .builder import (
    GraphValidationError,
    RunCapture,
    active_capture,
    capture_runs,
    validate_blocks,
)
from .dot import to_dot
from .ir import (
    NODE_KINDS,
    Edge,
    GraphError,
    Node,
    SamGraph,
    fanout_groups,
    node_ports,
)

__all__ = [
    "BoundGraph",
    "GraphValidationError",
    "RunCapture",
    "active_capture",
    "capture_runs",
    "Edge",
    "NODE_KINDS",
    "GraphError",
    "Node",
    "SamGraph",
    "bind",
    "fanout_groups",
    "node_ports",
    "to_dot",
    "validate_blocks",
]
