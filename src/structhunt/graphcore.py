"""Immutable simple graphs with named edge layers.

A LayeredGraph is one vertex set 0..n-1 with several named edge sets on it.
The base layer "G" is always present; other layers (captured edges, the
expander part, dense-spot edges, the regular part, ...) are independent edge
sets and no containment between layers is enforced.

A layer spec is layer names joined by "+" (union) and "-" (difference), read
left to right, spaces ignored: "G_nabla+G_D-G_exp" is (G_nabla | G_D) - G_exp.
An empty spec raises ValueError, an empty or unknown name KeyError, and a
non-string TypeError.  Each graph caches the edges of a composite spec and
the adjacency of every spec under the spec string.

Adjacency is built from the edges only for a named layer.  A composite
spec's adjacency is composed per vertex from its named layers' adjacency,
folded left to right: N_{A+B}(v) = N_A(v) | N_B(v) and N_{A-B}(v) =
N_A(v) - N_B(v).  with_layer hands the new graph the parent's layers and
their cached adjacency, except for the layer it replaces.

Each edge is validated once, where it enters: the constructor checks all it
is given, load_graph each layer block, and with_layer only the layer it adds.
load_graph parses each block of the canonical form that dump_graph writes in
bulk, and checks ranges, self-loops and duplicates over the whole block.
Any other text (comments, blank lines, other whitespace, signed ids), and
any text the bulk checks reject, goes through the line scan, which accepts
the same files and names the first offending line.

Degree and edge-count conventions: deg(v, U) counts neighbours of v inside
U; e(X) counts edges induced by X; e(X, Y) counts ordered pairs (x, y) with
xy an edge, so e(X, X) = 2 e(X); densities are exact Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

import numpy as np

Edge = tuple  # normalized (u, v) with u < v
VertexSet = frozenset


class GraphFormatError(ValueError):
    """Malformed layered-edge-list input (carries a line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _support(g: LayeredGraph, layer) -> frozenset:
    """V(layer): the vertices with at least one edge in the layer."""
    return frozenset(v for e in g.edges(layer) for v in e)


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("self-loop at %d" % u)
    return (u, v) if u < v else (v, u)


class LayeredGraph:
    """n vertices, named edge layers; immutable after construction."""

    def __init__(self, n: int, layers: dict):
        if n < 0:
            raise ValueError("negative vertex count")
        if "G" not in layers:
            raise ValueError('base layer "G" missing')
        norm_layers = {}
        for name, edges in layers.items():
            seen = set()
            for e in edges:
                u, v = e
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError("edge %r out of range in layer %s" % (e, name))
                ne = norm_edge(u, v)
                if ne in seen:
                    raise ValueError("duplicate edge %r in layer %s" % (e, name))
                seen.add(ne)
            norm_layers[name] = frozenset(seen)
        self._assign(n, norm_layers)

    def _assign(self, n: int, layers: dict) -> None:
        """Set the fields; layers maps names to frozensets of valid (u, v), u < v."""
        self.n, self.layers, self._folded, self._adj_cache = n, layers, {}, {}

    @classmethod
    def _validated(cls, n: int, layers: dict) -> "LayeredGraph":
        """A graph on layers its caller has already validated."""
        g = cls.__new__(cls)
        g._assign(n, layers)
        return g

    # -- layer specs -----------------------------------------------------

    def has_layer(self, name: str) -> bool:
        return name in self.layers

    def edges(self, layer="G") -> frozenset:
        """Edge set of a layer spec (grammar in the module docstring)."""
        found = self.layers.get(layer)
        if found is None:
            found = self._folded.get(layer)
        if found is None:
            found = self._folded[layer] = self._fold(layer)
        return found

    def _terms(self, spec) -> list:
        """[(op, name)] of a spec, every name a layer of this graph."""
        if not isinstance(spec, str):
            raise TypeError("not a layer spec: %r" % (spec,))
        tokens = re.split(r"([+-])", spec.replace(" ", ""))
        if tokens == [""]:
            raise ValueError("empty layer spec")
        terms = list(zip(["+"] + tokens[1::2], tokens[::2]))
        for _, name in terms:
            if name not in self.layers:
                raise KeyError("unknown layer %r" % (name,))
        return terms

    def _fold(self, spec) -> frozenset:
        result = frozenset()
        for op, name in self._terms(spec):
            named = self.layers[name]
            result = result | named if op == "+" else result - named
        return result

    def with_layer(self, name: str, edges: Iterable) -> "LayeredGraph":
        """New graph with one extra (or replaced) layer; duplicate edges merge."""
        new = frozenset(norm_edge(*e) for e in edges)
        for u, v in new:
            if u < 0 or v >= self.n:
                raise ValueError("edge %r out of range in layer %s" % ((u, v), name))
        g = LayeredGraph._validated(self.n, {**self.layers, name: new})
        g._adj_cache = {spec: adj for spec, adj in self._adj_cache.items()
                        if spec in self.layers and spec != name}
        return g

    def adj(self, layer="G"):
        """Adjacency as a tuple of frozensets, cached per spec string."""
        cached = self._adj_cache.get(layer)
        if cached is None:
            named = self.layers.get(layer)
            if named is not None:
                nbrs = [set() for _ in range(self.n)]
                for u, v in named:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
                cached = tuple(frozenset(s) for s in nbrs)
            else:
                (_, first), *rest = self._terms(layer)
                cached = self.adj(first)
                for op, name in rest:
                    part = self.adj(name)
                    if op == "+":
                        cached = tuple(a | b for a, b in zip(cached, part))
                    else:
                        cached = tuple(a - b for a, b in zip(cached, part))
            self._adj_cache[layer] = cached
        return cached

    def vertices(self) -> frozenset:
        return frozenset(range(self.n))

    # -- degree / edge-count conventions --------------------------------

    def deg(self, layer, v: int, U=None) -> int:
        """Number of neighbours of v inside U (all vertices if U is None)."""
        if not 0 <= v < self.n:
            raise ValueError("vertex %d out of range" % v)
        nbrs = self.adj(layer)[v]
        if U is None:
            return len(nbrs)
        return len(nbrs & U)

    def mindeg(self, layer, X, Y=None):
        """min over v in X of deg(v, Y); None (vacuous) for empty X."""
        if not X:
            return None
        return min(self.deg(layer, v, Y) for v in X)

    def maxdeg(self, layer, X, Y=None) -> int:
        """max over v in X of deg(v, Y); 0 for empty X."""
        if not X:
            return 0
        return max(self.deg(layer, v, Y) for v in X)

    def e_induced(self, layer, X) -> int:
        """e(X): number of edges with both ends in X."""
        Xs = frozenset(X)
        return self.e_ordered(layer, Xs, Xs) // 2

    def e_ordered(self, layer, X, Y) -> int:
        """e(X, Y): ordered pairs (x, y), xy an edge; X and Y may overlap.

        Summed over the smaller side's adjacency, as e(X, Y) = e(Y, X);
        vertices outside 0..n-1 have no edges.
        """
        Xs, Ys = frozenset(X), frozenset(Y)
        if len(Ys) < len(Xs):
            Xs, Ys = Ys, Xs
        adj, n = self.adj(layer), self.n
        return sum(len(adj[x] & Ys) for x in Xs if 0 <= x < n)

    def edges_between(self, layer, X, Y) -> frozenset:
        """Edges xy with x in X and y in Y; X and Y may overlap.

        Read off the smaller side's adjacency, as the condition is symmetric
        in X and Y; vertices outside 0..n-1 have no edges.
        """
        Xs, Ys = frozenset(X), frozenset(Y)
        if len(Ys) < len(Xs):
            Xs, Ys = Ys, Xs
        adj, n = self.adj(layer), self.n
        return frozenset((x, y) if x < y else (y, x)
                         for x in Xs if 0 <= x < n for y in adj[x] & Ys)

    def pair_counts(self, layer, X, Y):
        """(e(X), e(X, Y)) under the ordered-pair convention."""
        return self.e_induced(layer, X), self.e_ordered(layer, X, Y)

    def density(self, layer, U, W) -> Fraction:
        """d(U, W) = e(U, W) / (|U| |W|) for disjoint non-empty U, W."""
        Us, Ws = frozenset(U), frozenset(W)
        if not Us or not Ws:
            raise ValueError("density of an empty side")
        if Us & Ws:
            raise ValueError("density sides overlap")
        return Fraction(self.e_ordered(layer, Us, Ws), len(Us) * len(Ws))

    def neighbourhood(self, layer, X) -> frozenset:
        """N(X): union of neighbourhoods of vertices of X."""
        adj = self.adj(layer)
        out = set()
        for v in X:
            out |= adj[v]
        return frozenset(out)

    def __repr__(self):
        sizes = ", ".join("%s:%d" % (k, len(v)) for k, v in sorted(self.layers.items()))
        return "LayeredGraph(n=%d, %s)" % (self.n, sizes)


# -- text format -------------------------------------------------------
#
# Layered edge-list format (bit-exact):
#   first line    "n <count>"
#   then blocks   "layer <name>" followed by one "u v" pair per line
#   "#" starts a comment line; blank lines are ignored
#   0-based ids, u != v; duplicate (u,v)/(v,u) within a layer is an error.


def load_graph(text: str) -> LayeredGraph:
    """Parse the layered edge-list format; errors name the offending line."""
    loaded = _load_bulk(text)
    if loaded is None:
        loaded = _load_lines(text)
    n, layers = loaded
    if "G" not in layers:
        layers["G"] = frozenset()
    return LayeredGraph._validated(n, layers)


_COUNT_LINE = re.compile(r"n ([0-9]{1,18})\n")
_LAYER_LINE = re.compile(r"layer ([!-~]+)\n")


def _load_bulk(text: str):
    """(n, layers) of a valid text in canonical form, else None.

    Canonical: "n <count>", then blocks of "layer <name>" (printable ASCII
    name) and "u v" edge lines, every line ending in a newline, ids of
    ASCII digits.  Within that form the line scan accepts exactly the texts
    whose layers are declared once and whose blocks pass _edge_block.
    """
    m = _COUNT_LINE.match(text)
    if m is None:
        return None
    n, pos, layers = int(m.group(1)), m.end(), {}
    while pos < len(text):
        m = _LAYER_LINE.match(text, pos)
        if m is None or m.group(1) in layers:
            return None
        end = text.find("\nlayer ", m.end() - 1) + 1 or len(text)  # next header
        edges = _edge_block(text[m.end():end], n)
        if edges is None:
            return None
        layers[m.group(1)] = edges
        pos = end
    return n, layers


def _edge_block(body: str, n: int):
    """The edges of a block of "u v" lines, or None unless every line is
    two runs of 1-18 ASCII digits joined by one space and ending in a
    newline, and the edges are in range, loop-free and distinct."""
    if not body:
        return frozenset()
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((b == 32) | (b == 10))
    if seps.size % 2 or seps.size == 0 or seps[-1] != b.size - 1:
        return None
    runs = np.diff(seps, prepend=-1) - 1  # digits before each separator;
    # at most 18 of them keep every id inside int64
    if ((b[seps[0::2]] != 32).any() or (b[seps[1::2]] != 10).any()
            or runs.min() < 1 or runs.max() > 18
            or np.count_nonzero((b < 48) | (b > 57)) != seps.size):
        return None
    uv = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    if (lo == hi).any() or hi.max() >= n:
        return None
    edges = frozenset(zip(lo.tolist(), hi.tolist()))
    return edges if len(edges) == len(uv) else None


def _load_lines(text: str):
    """(n, layers) by a scan line by line; raises on the first bad line."""
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
    return n, {name: frozenset(es) for name, es in layers.items()}


def dump_graph(g: LayeredGraph) -> str:
    """Inverse of load_graph (layers and edges in sorted order)."""
    lines = ["n %d" % g.n]
    names = sorted(g.layers)
    if "G" in names:  # base layer first
        names.remove("G")
        names.insert(0, "G")
    for name in names:
        lines.append("layer %s" % name)
        for u, v in sorted(g.layers[name]):
            lines.append("%d %d" % (u, v))
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str, n: int) -> frozenset:
    """Parse "1,4,7" or "1 4 7" (empty string -> empty set)."""
    text = text.strip()
    if not text:
        return frozenset()
    ids = [int(t) for t in text.replace(",", " ").split()]
    for i in ids:
        if not 0 <= i < n:
            raise ValueError("vertex id %d out of range" % i)
    return frozenset(ids)


def fmt_vertex_set(X) -> str:
    return ",".join(str(i) for i in sorted(X))
