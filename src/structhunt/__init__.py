"""structhunt: executable combinatorial structure analysis on layered graphs.

Submodules mirror the toolkit's layering: graphcore (layered graphs and the
degree/edge conventions), shadows, regularity, spots, decomposition, lks
(derived vertex sets of the common setting), splitting, cleaning,
configurations, pipeline (the constructive case analysis and CLI), treecut.
"""

from .graphcore import LayeredGraph, load_graph, dump_graph

__all__ = ["LayeredGraph", "load_graph", "dump_graph"]
__version__ = "0.1.0"
