"""Immutable simple graphs with named edge layers.

A LayeredGraph is one vertex set 0..n-1 with several named edge sets on it.
The base layer "G" is always present; other layers (captured edges, the
expander part, dense-spot edges, the regular part, ...) are independent edge
sets and no containment between layers is enforced.

A layer spec is layer names joined by "+" (union) and "-" (difference), read
left to right, spaces ignored: "G_nabla+G_D-G_exp" is (G_nabla | G_D) - G_exp.
An empty spec raises ValueError, an empty or unknown name KeyError, and a
non-string TypeError.

Representation.  A layer is one sorted, duplicate-free int64 array of edge
codes u*n + v with u < v (Python integers in an object array when n*n would
overflow int64), so code order is the sorted order of the (u, v) tuples.
Codes are the one edge form the package computes with, spots' edges too
(see spots): unions, differences and containment are sorted-array
operations (_union_codes, np.setdiff1d, _isin_sorted).  A composite spec
folds its named layers' codes left to right the same way, once per graph
and spec string.  Everything else is built from the codes on first use and
kept with them:
  - the directed form: the ends u < v of every edge and each vertex's
    degree, by one decode and two bincounts.  deg(v), mindeg/maxdeg, e(X,
    Y), densities, _codes_between, neighbourhoods, V(layer) and the counts
    behind shadows, peels and cuts read each edge in both orientations from
    u and v: one pass of numpy operations and membership masks of the vertex
    sets, O(n + |E|) whatever their sizes.  Both orientations sorted by
    (source, target), as rows and cols, are built on first read, which only
    adj() and verify_split make;
  - the frozenset of (u, v) tuples behind edges(), edges_between() and
    layers: a public view that no path of the package builds.  The edges of
    a D1 or D10 witness are a layer too, written and read as codes;
  - the tuple of neighbour frozensets behind adj() and deg(v, U): a public
    view, read in the package only by the spot searches of spots.
with_layer hands the new graph the parent's layers, and with them these
forms, except for the layer it replaces.

Each edge is validated once, where it enters: the constructor checks all it
is given, load_graph each layer block, and with_layer only the layer it adds,
each in bulk over integer arrays.  Input the bulk check rejects or cannot
read as integer pairs goes through the scalar loop, which raises the error
for the first offending edge, or accepts it; a non-integer id raises
TypeError.  Callers in the package that build a layer from layers or spots
of the same graph pass codes (_with_codes, or _code_graph for a graph of
one layer), so those edges are neither re-checked nor turned into tuples.
load_graph parses each block of the canonical form that dump_graph writes in
bulk, and checks ranges, self-loops and duplicates over the whole block (a
dumped block is in code order, so it needs no sort).
Any other text (comments, blank lines, other whitespace, signed ids), and
any text the bulk checks reject, goes through the line scan, which accepts
the same files and names the first offending line.  The byte checks
(_digit_records) also serve the bulk readers of fileio.

Degree and edge-count conventions: deg(v, U) counts neighbours of v inside
U; e(X) counts edges induced by X; e(X, Y) counts ordered pairs (x, y) with
xy an edge, so e(X, X) = 2 e(X); densities are exact Fractions.  Ids outside
0..n-1 have no edges where they stand in a vertex set; as the vertex of deg
or a member of mindeg's or maxdeg's X they raise ValueError.
"""

from __future__ import annotations

import re
from array import array
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

Edge = tuple  # normalized (u, v) with u < v
VertexSet = frozenset

_INT64_CODES = 3037000499  # the largest n with n * n below 2^63
_NO_CODES = np.zeros(0, dtype=np.int64)
_NO_CODES.setflags(write=False)  # shared by every empty layer


class GraphFormatError(ValueError):
    """Malformed layered-edge-list input (carries a line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _support(g: LayeredGraph, layer) -> frozenset:
    """V(layer): the vertices with at least one edge in the layer."""
    return _vertices_where(g._directed(layer).degrees > 0)


def _vertices_where(mask) -> frozenset:
    """The vertices v with mask[v] true."""
    return frozenset(np.flatnonzero(mask).tolist())


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("self-loop at %d" % u)
    return (u, v) if u < v else (v, u)


# -- edge codes ----------------------------------------------------------


def _encode(u, v, n):
    """Codes u*n + v of two id arrays."""
    if n > _INT64_CODES:
        u, v = u.astype(object), v.astype(object)
    return u * n + v


def _decode(codes, n):
    """(u, v) int64 arrays of an array of codes."""
    n = max(n, 1)
    u = codes // n
    return u.astype(np.int64, copy=False), (codes - u * n).astype(np.int64, copy=False)


def _distinct(codes):
    """A sorted code array without its repeats."""
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _union_codes(*code_arrays):
    """Sorted codes of the union of edge sets given as code arrays (by a
    sort: numpy's hash-based unique is many times slower on these)."""
    return _distinct(np.sort(np.concatenate((_NO_CODES,) + code_arrays)))


def _edge_tuples(codes, n) -> frozenset:
    u, v = _decode(codes, n)
    return frozenset(zip(u.tolist(), v.tolist()))


def _pairs(edges):
    """(u, v) int64 arrays of a sized collection of integer pairs.  Raises
    ValueError unless every item has length 2, TypeError on a non-integer
    id and OverflowError on one beyond int64."""
    if set(map(len, edges)) - {2}:
        raise ValueError("not a collection of pairs")
    flat = np.frombuffer(array("q", chain.from_iterable(edges)), dtype=np.int64)
    return flat[0::2], flat[1::2]


def _bulk_codes(edges, n: int):
    """Sorted codes, repeats kept, of edges that are integer pairs of
    distinct vertices 0..n-1; None for any other input."""
    try:
        u, v = _pairs(edges)
    except (TypeError, ValueError, OverflowError):
        return None
    if not ((u >= 0) & (u < n) & (v >= 0) & (v < n) & (u != v)).all():
        return None
    return np.sort(_encode(np.minimum(u, v), np.maximum(u, v), n))


def _sized(edges):
    """The edges as a collection that can be read twice."""
    return edges if isinstance(edges, (list, tuple, set, frozenset)) else list(edges)


def _codes_of(pairs, n):
    """Sorted codes of a set of valid normalised pairs."""
    u, v = _pairs(pairs)
    return np.sort(_encode(u, v, n))


def _constructor_codes(n: int, name, edges):
    """Sorted codes of one layer given to the constructor, checked in bulk;
    anything the bulk check rejects is checked again by the scalar loop."""
    edges = _sized(edges)
    codes = _bulk_codes(edges, n)
    if codes is not None and not _has_repeats(codes):
        return codes
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge %r out of range in layer %s" % (e, name))
        ne = norm_edge(u, v)
        if ne in seen:
            raise ValueError("duplicate edge %r in layer %s" % (e, name))
        seen.add(ne)
    return _codes_of(seen, n)


class _Directed:
    """A layer's edges as arrays: its own ends u < v in code order, each
    vertex's degree, as an array and as a list, and, built on first read,
    both orientations sorted by (source, target) as rows and cols."""

    __slots__ = ("n", "codes", "u", "v", "degrees", "degree_list", "_arcs")

    def __init__(self, codes, n: int):
        self.n, self.codes, self._arcs = n, codes, None
        self.u, self.v = _decode(codes, n)
        self.degrees = np.bincount(self.u, minlength=n) + np.bincount(self.v, minlength=n)
        self.degrees.setflags(write=False)  # shared by graphs and callers
        self.degree_list = self.degrees.tolist()

    @property
    def rows(self):
        return _sorted_arcs(self)[0]

    @property
    def cols(self):
        return _sorted_arcs(self)[1]


def _sorted_arcs(d: _Directed):
    """(rows, cols) of d, kept: a stable merge of the codes and the sorted reversed codes."""
    if d._arcs is None:
        n = d.n
        both = np.sort(np.concatenate([d.codes, np.sort(_encode(d.v, d.u, n))]), kind="stable")
        rows = np.repeat(np.arange(n, dtype=np.int64), d.degrees)
        starts = rows.astype(object) if n > _INT64_CODES else rows
        d._arcs = rows, (both - starts * n).astype(np.int64, copy=False)
    return d._arcs


class _Layer:
    """One edge set on the vertices 0..n-1 as its codes, with the forms built
    from them on first use; graphs that share the layer share the forms.  It
    iterates as (u, v) tuples, u < v, in code order, so a layer also holds
    the edges of a D1 or D10 witness (_edge_layer, fmt_edges)."""

    __slots__ = ("n", "codes", "_edges", "_directed", "_adj")

    def __init__(self, n: int, codes):
        self.n, self.codes = n, codes
        self._edges = self._directed = self._adj = None

    def __iter__(self):
        u, v = _decode(self.codes, self.n)
        return zip(u.tolist(), v.tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def edges(self) -> frozenset:
        if self._edges is None:
            self._edges = _edge_tuples(self.codes, self.n)
        return self._edges

    def directed(self) -> _Directed:
        if self._directed is None:
            self._directed = _Directed(self.codes, self.n)
        return self._directed

    def adj(self) -> tuple:
        if self._adj is None:
            d = self.directed()
            cols, ends = d.cols.tolist(), np.cumsum(d.degrees).tolist()
            self._adj = tuple(frozenset(cols[a:b])
                              for a, b in zip([0] + ends, ends))
        return self._adj


def _edge_layer(edges, n=None) -> _Layer:
    """edges as a layer on n vertices, one more than the largest id when n
    is None: a layer on n vertices as it is, any other collection of integer
    pairs (either orientation, repeats merge) encoded once.  A self-loop or
    an id outside 0..n-1 raises the constructor's ValueError for it."""
    if isinstance(edges, _Layer) and n in (None, edges.n):
        return edges
    edges = _sized(edges)
    n = 1 + max(map(max, edges), default=-1) if n is None else n
    codes = _bulk_codes(edges, n)
    if codes is None:  # the constructor raises the error for the first bad edge
        codes = LayeredGraph(n, {"G": frozenset(tuple(sorted(e)) for e in edges)})._codes()
    return _Layer(n, _distinct(codes))


def fmt_edges(edges: _Layer, pattern: str, sep: str = ",") -> str:
    """The edges formatted by pattern, such as "%d-%d", joined by sep."""
    u, v = _decode(edges.codes, edges.n)
    return sep.join([pattern] * len(edges)) % tuple(np.stack([u, v], 1).ravel().tolist())


def _id_array(X) -> np.ndarray:
    """The members of X as an int64 array, in iteration order."""
    return np.fromiter(X, dtype=np.int64)


def _members(X, n: int) -> np.ndarray:
    """The members of X that are vertices 0..n-1, as an int64 array."""
    try:
        a = _id_array(X)
    except OverflowError:  # an id beyond int64 is no vertex
        a = _id_array(v for v in X if 0 <= v < n)
    return a[(a >= 0) & (a < n)]


def _mask(X, n: int) -> np.ndarray:
    """Membership of 0..n-1 in X, as a boolean array."""
    m = np.zeros(n, dtype=bool)
    m[_members(X, n)] = True
    return m


class LayeredGraph:
    """n vertices, named edge layers; immutable after construction."""

    def __init__(self, n: int, layers: dict):
        if n < 0:
            raise ValueError("negative vertex count")
        if "G" not in layers:
            raise ValueError('base layer "G" missing')
        self._assign(n, {name: _Layer(n, _constructor_codes(n, name, edges))
                         for name, edges in layers.items()})

    def _assign(self, n: int, layers: dict) -> None:
        """Set the fields; layers maps names to _Layer objects.  _adj maps
        spec strings to adjacency already asked for, so the hot loops over
        deg(v, U) find it with one dictionary lookup."""
        self.n, self._layers, self._folded, self._adj = n, layers, {}, {}

    @classmethod
    def _validated(cls, n: int, layers: dict) -> "LayeredGraph":
        """A graph on layers its caller has already validated."""
        g = cls.__new__(cls)
        g._assign(n, layers)
        return g

    # -- layer specs -----------------------------------------------------

    @property
    def layers(self) -> dict:
        """Layer name -> frozenset of its edges (u, v), u < v."""
        return {name: layer.edges() for name, layer in self._layers.items()}

    def has_layer(self, name: str) -> bool:
        return name in self._layers

    def _layer(self, spec) -> _Layer:
        """The named layer, or the fold of a composite spec (cached)."""
        found = self._layers.get(spec)
        if found is None:
            found = self._folded.get(spec)
        if found is None:
            found = self._folded[spec] = self._fold(spec)
        return found

    def edges(self, layer="G") -> frozenset:
        """Edge set of a layer spec (grammar in the module docstring)."""
        return self._layer(layer).edges()

    def _codes(self, layer="G"):
        """Sorted edge codes u*n + v of a layer spec."""
        return self._layer(layer).codes

    def _directed(self, layer="G") -> _Directed:
        """Directed form of a layer spec."""
        return self._layer(layer).directed()

    def _terms(self, spec) -> list:
        """[(op, name)] of a spec, every name a layer of this graph."""
        if not isinstance(spec, str):
            raise TypeError("not a layer spec: %r" % (spec,))
        tokens = re.split(r"([+-])", spec.replace(" ", ""))
        if tokens == [""]:
            raise ValueError("empty layer spec")
        terms = list(zip(["+"] + tokens[1::2], tokens[::2]))
        for _, name in terms:
            if name not in self._layers:
                raise KeyError("unknown layer %r" % (name,))
        return terms

    def _fold(self, spec) -> _Layer:
        (_, first), *rest = self._terms(spec)
        if not rest:
            return self._layers[first]
        codes = self._layers[first].codes
        for op, name in rest:
            named = self._layers[name].codes
            codes = (_union_codes(codes, named) if op == "+"
                     else np.setdiff1d(codes, named, assume_unique=True))
        return _Layer(self.n, codes)

    def with_layer(self, name: str, edges: Iterable) -> "LayeredGraph":
        """New graph with one extra (or replaced) layer; duplicate edges merge."""
        edges = _sized(edges)
        codes = _bulk_codes(edges, self.n)
        if codes is not None:
            codes = _distinct(codes)
        else:
            new = frozenset(norm_edge(*e) for e in edges)
            for u, v in new:
                if u < 0 or v >= self.n:
                    raise ValueError("edge %r out of range in layer %s" % ((u, v), name))
            codes = _codes_of(new, self.n)
        return self._with_codes(name, codes)

    def _with_codes(self, name: str, codes) -> "LayeredGraph":
        """with_layer for sorted, distinct codes of valid edges."""
        return LayeredGraph._validated(
            self.n, {**self._layers, name: _Layer(self.n, codes)})

    def adj(self, layer="G"):
        """Adjacency as a tuple of frozensets, cached per spec string."""
        found = self._adj.get(layer)
        if found is None:
            found = self._adj[layer] = self._layer(layer).adj()
        return found

    def vertices(self) -> frozenset:
        return frozenset(range(self.n))

    # -- degree / edge-count conventions --------------------------------

    def deg(self, layer, v: int, U=None) -> int:
        """Number of neighbours of v inside U (all vertices if U is None)."""
        if not 0 <= v < self.n:
            raise ValueError("vertex %d out of range" % v)
        if U is None:
            return self._directed(layer).degree_list[v]
        nbrs = self._adj.get(layer)
        if nbrs is None:
            nbrs = self.adj(layer)
        return len(nbrs[v] & U)

    def _degrees(self, layer, U=None):
        """deg(v, U) of every vertex v, as an int64 array (read-only when
        U is None)."""
        d = self._directed(layer)
        if U is None:
            return d.degrees
        inU = _mask(U, self.n)
        return np.bincount(np.concatenate([d.u[inU[d.v]], d.v[inU[d.u]]]), minlength=self.n)

    def _degrees_of(self, layer, X, Y):
        """deg(v, Y) for the members v of X, in its order; an id out of
        range raises deg's ValueError, the first one first."""
        if not X:
            return np.zeros(0, dtype=np.int64)
        try:
            xs = _id_array(X)
        except OverflowError:  # an id beyond int64: deg raises on the first bad one
            return np.array([self.deg(layer, v, Y) for v in X])
        bad = (xs < 0) | (xs >= self.n)
        if bad[0]:
            raise ValueError("vertex %d out of range" % xs[0])
        self._layer(layer)  # a bad spec raises before a later bad vertex
        if bad.any():
            raise ValueError("vertex %d out of range" % xs[bad.argmax()])
        return self._degrees(layer, Y)[xs]

    def mindeg(self, layer, X, Y=None):
        """min over v in X of deg(v, Y); None (vacuous) for empty X."""
        if not X:
            return None
        return int(self._degrees_of(layer, X, Y).min())

    def maxdeg(self, layer, X, Y=None) -> int:
        """max over v in X of deg(v, Y); 0 for empty X."""
        if not X:
            return 0
        return int(self._degrees_of(layer, X, Y).max())

    def e_induced(self, layer, X) -> int:
        """e(X): number of edges with both ends in X."""
        Xs = frozenset(X)
        return self.e_ordered(layer, Xs, Xs) // 2

    def e_ordered(self, layer, X, Y) -> int:
        """e(X, Y): ordered pairs (x, y), xy an edge; X and Y may overlap."""
        Xs, Ys = frozenset(X), frozenset(Y)
        d = self._directed(layer)
        mX, mY = _mask(Xs, self.n), _mask(Ys, self.n)
        return int(np.count_nonzero(mX[d.u] & mY[d.v]) + np.count_nonzero(mY[d.u] & mX[d.v]))

    def _codes_between(self, layer, X, Y):
        """Sorted codes of the edges xy with x in X and y in Y."""
        Xs, Ys = frozenset(X), frozenset(Y)
        found = self._layer(layer)
        d = found.directed()
        mX, mY = _mask(Xs, self.n), _mask(Ys, self.n)
        return found.codes[(mX[d.u] & mY[d.v]) | (mY[d.u] & mX[d.v])]

    def edges_between(self, layer, X, Y) -> frozenset:
        """Edges xy with x in X and y in Y; X and Y may overlap."""
        return _edge_tuples(self._codes_between(layer, X, Y), self.n)

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
        d = self._directed(layer)
        inX, inside = _mask(X, self.n), np.zeros(self.n, dtype=bool)
        inside[d.v[inX[d.u]]] = inside[d.u[inX[d.v]]] = True
        return _vertices_where(inside)

    def __repr__(self):
        sizes = ", ".join("%s:%d" % (k, len(v.codes))
                          for k, v in sorted(self._layers.items()))
        return "LayeredGraph(n=%d, %s)" % (self.n, sizes)


def _code_graph(n: int, codes) -> LayeredGraph:
    """The graph on n vertices whose layer G has these codes of valid edges."""
    return LayeredGraph._validated(n, {"G": _Layer(n, codes)})


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
    layers.setdefault("G", _NO_CODES)
    return LayeredGraph._validated(
        n, {name: _Layer(n, codes) for name, codes in layers.items()})


_COUNT_LINE = re.compile(r"n ([0-9]{1,18})\n")
_LAYER_LINE = re.compile(r"layer ([!-~]+)\n")


def _load_bulk(text: str):
    """(n, {name: codes}) of a valid text in canonical form, else None.

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
        codes = _edge_block(text[m.end():end], n)
        if codes is None:
            return None
        layers[m.group(1)] = codes
        pos = end
    return n, layers


def _edge_block(body: str, n: int):
    """The sorted codes of a block of "u v" lines, or None unless every line
    is two runs of 1-18 ASCII digits joined by one space and ending in a
    newline, and the edges are in range, loop-free and distinct."""
    if not body:
        return _NO_CODES
    uv = _digit_records(body, " \n")
    if uv is None:
        return None
    lo, hi = np.minimum(uv[:, 0], uv[:, 1]), np.maximum(uv[:, 0], uv[:, 1])
    if (lo == hi).any() or hi.max() >= n:
        return None
    return _ascending(_encode(lo, hi, n))


def _ascending(codes):
    """The codes sorted, or None when one repeats; codes already strictly
    ascending are proved sorted and distinct by one pass, without a sort."""
    if (codes[1:] > codes[:-1]).all():
        return codes
    codes = np.sort(codes)
    return None if _has_repeats(codes) else codes


def _digit_records(text: str, seps: str, final: bool = True):
    """The ids of text as a (k, len(seps)) int64 array, or None.

    text must be k records, each len(seps) runs of 1-18 ASCII digits with
    the i-th run followed by seps[i], except that the last record's last
    run ends the text when final is false; empty text is k = 0.  Every
    other text, such as signs, underscores, non-ASCII digits, spaces,
    empty runs or more than 18 digits (which could overflow int64), gives
    None.  One pass of numpy checks over the bytes, then one gather per
    digit position (int32 while no run passes 9 digits), linear in the text.
    """
    width = len(seps)
    if not text:
        return np.zeros((0, width), dtype=np.int64)
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero((b < 48) | (b > 57))  # every non-digit ends a run
    count = ends.size + (not final)
    if count % width or (final and (ends.size == 0 or ends[-1] != b.size - 1)):
        return None
    pattern = np.frombuffer(seps.encode("ascii") * (count // width), dtype=np.uint8)
    if not np.array_equal(b[ends], pattern[:ends.size]):
        return None
    last = (ends if final else np.append(ends, b.size)) - 1  # each run's last digit
    runs = np.empty_like(last)  # each run's length plus one
    runs[0] = last[0] + 2
    np.subtract(last[1:], last[:-1], out=runs[1:])
    longest = int(runs.max()) - 1
    if runs.min() < 2 or longest > 18:
        return None
    digits = b - 48  # read before a run (or, wrapped, the text) only under a zero mask
    ids = digits[last].astype(np.int32 if longest <= 9 else np.int64)
    for j in range(1, longest):  # the digit j places before each run's last
        ids += digits[last - j] * (runs > j + 1) * ids.dtype.type(10 ** j)
    return ids.astype(np.int64, copy=False).reshape(-1, width)


def _has_repeats(sorted_array) -> bool:
    """Does a sorted array hold any value twice?"""
    return bool((sorted_array[1:] == sorted_array[:-1]).any())


def _isin_sorted(codes, sorted_codes):
    """For each code, is it in the sorted array sorted_codes?"""
    if not sorted_codes.size:
        return np.zeros(len(codes), dtype=bool)
    at = np.searchsorted(sorted_codes, codes)
    return sorted_codes[np.minimum(at, sorted_codes.size - 1)] == codes


def _load_lines(text: str):
    """(n, {name: codes}) by a scan line by line; raises on the first bad line."""
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
    return n, {name: _codes_of(es, n) for name, es in layers.items()}


def dump_graph(g: LayeredGraph) -> str:
    """Inverse of load_graph (layers and edges in sorted order, which is
    code order)."""
    lines = ["n %d" % g.n]
    names = sorted(g._layers)
    if "G" in names:  # base layer first
        names.remove("G")
        names.insert(0, "G")
    for name in names:
        lines.append("layer %s" % name)
        if len(g._layers[name]):
            lines.append(fmt_edges(g._layers[name], "%d %d", "\n"))
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str, n: int) -> frozenset:
    """Parse "1,4,7" or "1 4 7" (empty string -> empty set); ids are -?[0-9]+."""
    text = text.strip()
    if not text:
        return frozenset()
    ids = []
    for t in text.replace(",", " ").split():
        if not re.fullmatch(r"-?[0-9]+", t):
            raise ValueError("bad integer %r" % t)
        ids.append(int(t))
    for i in ids:
        if not 0 <= i < n:
            raise ValueError("vertex id %d out of range" % i)
    return frozenset(ids)


def fmt_vertex_set(X) -> str:
    return ",".join(str(i) for i in sorted(X))
