"""Reference forms of the graph layer's replaced paths.

``load_graph_lines`` is the loader as one scan line by line, which names the
first offending line; the bulk loader must give the same layers, or the same
GraphFormatError, on every text.  ``edge_built_adj`` builds adjacency edge by
edge from an edge set, the reference for adjacency composed from named
layers.  ``scan_edges_between`` finds the edges between two sets by one pass
over every edge of the layer.  ``LoopGraph`` keeps each layer as a frozenset
of (u, v) tuples and answers every query by a loop over frozenset
adjacency, the reference for the queries read off edge-code arrays.
``digit_records_fromstring`` reads the ids of a canonical record text with
one ``numpy.fromstring`` over the text, every separator turned into a space,
the reference for the digit-by-digit reader _digit_records.
"""

from __future__ import annotations

import re

import numpy as np

from structhunt.exactmath import floor_val
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


_SEPARATORS_TO_SPACE = bytes(b if 48 <= b <= 57 else 32 for b in range(256))


def digit_records_fromstring(text: str, seps: str, final: bool = True):
    """The ids of text as a (k, len(seps)) int64 array, or None, under the
    rules of graphcore._digit_records: the same byte checks, then one parse
    of the whole text with every separator turned into a space."""
    width = len(seps)
    if not text:
        return np.zeros((0, width), dtype=np.int64)
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero((b < 48) | (b > 57))
    count = ends.size + (not final)
    if count % width or (final and (ends.size == 0 or ends[-1] != b.size - 1)):
        return None
    pattern = np.frombuffer(seps.encode("ascii") * (count // width), dtype=np.uint8)
    if not np.array_equal(b[ends], pattern[:ends.size]):
        return None
    runs = np.diff(ends if final else np.append(ends, b.size), prepend=-1) - 1
    if runs.min() < 1 or runs.max() > 18:
        return None
    ids = np.fromstring(raw.translate(_SEPARATORS_TO_SPACE), dtype=np.int64, sep=" ")
    return ids.reshape(-1, width)


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


def scalar_layer(n: int, name, edges) -> frozenset:
    """The constructor's check of one layer, edge by edge."""
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge %r out of range in layer %s" % (e, name))
        ne = norm_edge(u, v)
        if ne in seen:
            raise ValueError("duplicate edge %r in layer %s" % (e, name))
        seen.add(ne)
    return frozenset(seen)


def scalar_added_layer(n: int, name, edges) -> frozenset:
    """with_layer's check of the layer it adds, edge by edge."""
    new = frozenset(norm_edge(*e) for e in edges)
    for u, v in new:
        if u < 0 or v >= n:
            raise ValueError("edge %r out of range in layer %s" % ((u, v), name))
    return new


class LoopGraph:
    """A layered graph as frozensets of edges, queried by loops.

    The conventions are LayeredGraph's: an id outside 0..n-1 has no edges
    inside a vertex set, and raises ValueError as the vertex of deg or a
    member of mindeg's or maxdeg's X.
    """

    def __init__(self, n: int, layers: dict):
        self.n = n
        self.layers = {name: frozenset(norm_edge(u, v) for u, v in es)
                       for name, es in layers.items()}

    def edges(self, spec) -> frozenset:
        tokens = re.split(r"([+-])", spec.replace(" ", ""))
        result = frozenset()
        for op, name in zip(["+"] + tokens[1::2], tokens[::2]):
            named = self.layers[name]
            result = result | named if op == "+" else result - named
        return result

    def adj(self, spec) -> tuple:
        return edge_built_adj(self.n, self.edges(spec))

    def deg(self, spec, v, U=None) -> int:
        if not 0 <= v < self.n:
            raise ValueError("vertex %d out of range" % v)
        nbrs = self.adj(spec)[v]
        return len(nbrs) if U is None else len(nbrs & U)

    def mindeg(self, spec, X, Y=None):
        if not X:
            return None
        return min(self.deg(spec, v, Y) for v in X)

    def maxdeg(self, spec, X, Y=None) -> int:
        if not X:
            return 0
        return max(self.deg(spec, v, Y) for v in X)

    def e_ordered(self, spec, X, Y) -> int:
        adj = self.adj(spec)
        return sum(len(adj[x] & frozenset(Y)) for x in frozenset(X)
                   if 0 <= x < self.n)

    def e_induced(self, spec, X) -> int:
        return self.e_ordered(spec, X, X) // 2

    def density(self, spec, U, W):
        from fractions import Fraction

        return Fraction(self.e_ordered(spec, U, W), len(U) * len(W))

    def edges_between(self, spec, X, Y) -> frozenset:
        adj = self.adj(spec)
        return frozenset((x, y) if x < y else (y, x) for x in X
                         if 0 <= x < self.n for y in adj[x] & Y)

    def neighbourhood(self, spec, X) -> frozenset:
        adj = self.adj(spec)
        return frozenset().union(*(adj[v] for v in X if 0 <= v < self.n))

    def shadow(self, spec, U, ell, exclude=frozenset()) -> frozenset:
        need = floor_val(ell) + 1
        adj = self.adj(spec)
        U = frozenset(U) - exclude
        return frozenset(v for v in range(self.n)
                         if v not in exclude and len(adj[v] & U) >= need)

    def dump(self) -> str:
        lines = ["n %d" % self.n]
        names = sorted(self.layers)
        if "G" in names:
            names.remove("G")
            names.insert(0, "G")
        for name in names:
            lines.append("layer %s" % name)
            for u, v in sorted(self.layers[name]):
                lines.append("%d %d" % (u, v))
        return "\n".join(lines) + "\n"
