"""Reference forms of the graph layer's replaced paths.

``load_graph_lines`` is the loader as one scan line by line, which names the
first offending line; the bulk loader must give the same layers, or the same
GraphFormatError, on every text.  ``edge_built_adj`` builds adjacency edge by
edge from an edge set, the reference for adjacency composed from named
layers.  ``scan_edges_between`` finds the edges between two sets by one pass
over every edge of the layer.
"""

from __future__ import annotations

from structhunt.graphcore import GraphFormatError, LayeredGraph, norm_edge


def load_graph_lines(text: str) -> LayeredGraph:
    """Parse the layered edge-list format line by line."""
    n = None
    layers = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "n" or len(fields) != 2:
                raise GraphFormatError(lineno, 'expected "n <count>", got %r' % raw)
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphFormatError(lineno, "bad vertex count %r" % fields[1])
            if n < 0:
                raise GraphFormatError(lineno, "negative vertex count")
            continue
        if fields[0] == "layer":
            if len(fields) != 2:
                raise GraphFormatError(lineno, 'expected "layer <name>"')
            current = fields[1]
            if current in layers:
                raise GraphFormatError(lineno, "layer %r declared twice" % current)
            layers[current] = set()
            continue
        if len(fields) != 2:
            raise GraphFormatError(lineno, "expected edge line 'u v', got %r" % raw)
        if current is None:
            raise GraphFormatError(lineno, "edge before any layer declaration")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(lineno, "non-integer vertex id in %r" % raw)
        if u == v:
            raise GraphFormatError(lineno, "self-loop %d %d" % (u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(lineno, "vertex id out of range in %r" % raw)
        e = norm_edge(u, v)
        if e in layers[current]:
            raise GraphFormatError(lineno, "duplicate edge %d %d in layer %s" % (u, v, current))
        layers[current].add(e)
    if n is None:
        raise GraphFormatError(0, "empty input, no 'n' line")
    if "G" not in layers:
        layers["G"] = set()
    return LayeredGraph(n, layers)


def edge_built_adj(n: int, edges) -> tuple:
    """Adjacency as a tuple of frozensets, one edge at a time."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(s) for s in nbrs)


def scan_edges_between(edges, X, Y) -> frozenset:
    """Edges xy with x in X and y in Y, by one pass over every edge."""
    return frozenset(e for e in edges
                     if (e[0] in X and e[1] in Y) or (e[1] in X and e[0] in Y))
