"""``repro.graphs`` — ProGraML-style heterogeneous program graphs."""

from repro.graphs.batch import GraphBatch, batch_graphs
from repro.graphs.programl import CALL, CONTROL, DATA, ProgramGraph, build_graph
from repro.graphs.serialize import graph_from_arrays, graph_to_arrays

__all__ = [
    "ProgramGraph",
    "build_graph",
    "CONTROL",
    "DATA",
    "CALL",
    "GraphBatch",
    "batch_graphs",
    "graph_to_arrays",
    "graph_from_arrays",
]
