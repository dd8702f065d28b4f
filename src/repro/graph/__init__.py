"""SAM dataflow graph IR, DOT export, builder, and simulator binding."""

from .bind import BoundGraph, bind
from .builder import (
    Graph,
    GraphNode,
    GraphValidationError,
    RunCapture,
    active_capture,
    capture_runs,
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
    "Graph",
    "GraphNode",
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
]
