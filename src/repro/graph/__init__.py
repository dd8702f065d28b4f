"""SAM dataflow graph IR, DOT export, builder, and simulator binding."""

from .bind import BoundGraph, bind, node_ports
from .builder import (
    Graph,
    GraphNode,
    GraphValidationError,
    RunCapture,
    active_capture,
    capture_runs,
)
from .dot import blocks_to_dot, to_dot, write_dot
from .ir import Edge, GraphError, Node, SamGraph, fanout_groups

__all__ = [
    "BoundGraph",
    "Graph",
    "GraphNode",
    "GraphValidationError",
    "RunCapture",
    "active_capture",
    "capture_runs",
    "Edge",
    "GraphError",
    "Node",
    "SamGraph",
    "bind",
    "blocks_to_dot",
    "fanout_groups",
    "node_ports",
    "to_dot",
    "write_dot",
]
