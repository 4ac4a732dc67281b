"""Coverage substrate: set systems, bipartite graphs, coverage evaluation."""

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.coverage.instance import CoverageInstance, ProblemKind
from repro.coverage.io import (
    ColumnarEdges,
    columnar_from_edge_list,
    load_system,
    open_columnar,
    read_edge_list,
    save_system,
    system_from_json,
    system_to_json,
    write_columnar,
    write_edge_list,
)
from repro.coverage.setsystem import SetSystem

__all__ = [
    "BipartiteGraph",
    "BitsetCoverage",
    "ColumnarEdges",
    "CoverageInstance",
    "ProblemKind",
    "SetSystem",
    "columnar_from_edge_list",
    "load_system",
    "open_columnar",
    "read_edge_list",
    "save_system",
    "system_from_json",
    "system_to_json",
    "write_columnar",
    "write_edge_list",
]
