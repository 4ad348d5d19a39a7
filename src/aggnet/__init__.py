"""aggnet: capacity analysis and dynamic policies for in-network aggregation."""

from . import checks, errors, flows, fmux, graph, harness, wireless, wireline

__all__ = ["checks", "errors", "flows", "fmux", "graph", "harness", "wireless", "wireline"]
__version__ = "0.1.0"
