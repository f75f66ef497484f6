"""Iterated shadows and the two graph-surgery subroutines built on them.

shadow(U, ell) is the set of vertices with strictly more than ell
neighbours in U; iterating it is the look-ahead device used throughout the
structure hunt.  The threshold comparison is strict (">"), which matters:
off-by-one here silently changes every downstream set.  Shadows, peels
and cuts read the layer's arrays, never its neighbour frozensets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .exactmath import floor_val, frac
from .graphcore import LayeredGraph, _mask, _members, _vertices_where


@dataclass(frozen=True)
class ShadowQuery:
    layer: object
    U: frozenset
    ell: Fraction
    depth: int = 1

    def __post_init__(self):
        from .exactmath import RootVal

        if not isinstance(self.ell, RootVal) and frac(self.ell) < 0:
            raise ValueError("negative shadow threshold")
        if self.depth < 0:
            raise ValueError("negative shadow depth")


def shadow(g: LayeredGraph, layer, U, ell, exclude=frozenset()) -> frozenset:
    """One shadow step: { v : deg(v, U) > ell }, v ranging outside exclude.

    exclude removes vertices from the host graph (vertex deletion), used for
    shadows computed in G - H; edges touching excluded vertices are ignored.
    The threshold may be a RootVal (e.g. sqrt(gamma) * k), compared exactly:
    an integer degree exceeds ell exactly when it reaches floor(ell) + 1.
    """
    need = floor_val(ell) + 1
    counts = g._degrees(layer, frozenset(U) - exclude)
    inside = counts >= max(0, min(need, g.n + 1))  # a threshold inside int64
    inside[_members(exclude, g.n)] = False
    return _vertices_where(inside)


def shadow_iter(g: LayeredGraph, q: ShadowQuery, exclude=frozenset()) -> frozenset:
    """Depth-i shadow; depth 0 returns U itself.  May intersect U."""
    current = frozenset(q.U) - exclude if q.depth > 0 else frozenset(q.U)
    for _ in range(q.depth):
        current = shadow(g, q.layer, current, q.ell, exclude)
    return current


def _arcs(g: LayeredGraph, layer, X, Y=None):
    """(inside, counts, heads): the layer restricted to X, or to the edges
    between X and Y, with inside the mask of X | Y and the kept neighbours
    of each vertex in turn, counts[v] of them for v, in heads (in an order
    that neither the confluent peel nor the cut's commuting updates see)."""
    d = g._directed(layer)
    inside = _mask(X, g.n)
    if Y is None:
        keep = inside[d.u] & inside[d.v]
    else:
        inY = _mask(Y, g.n)
        keep = (inside[d.u] & inY[d.v]) | (inY[d.u] & inside[d.v])
        inside |= inY
    src, dst = np.concatenate([d.u[keep], d.v[keep]]), np.concatenate([d.v[keep], d.u[keep]])
    return inside, np.bincount(src, minlength=g.n), dst[np.argsort(src, kind="stable")]


def _peel(inside, counts, heads, d) -> frozenset:
    """The vertices of inside left after deleting, while there is one, a
    vertex with fewer than d kept neighbours left; each deleted vertex's
    edges are walked once, so the peel is O(n + |E|)."""
    need = math.ceil(frac(d))  # an integer count is below d iff below ceil(d)
    low = np.flatnonzero(inside & (counts < need)).tolist()
    if not low:
        return _vertices_where(inside)
    left, counts, heads = inside.tolist(), counts.tolist(), heads.tolist()
    starts = list(accumulate(counts, initial=0))
    for v in low:  # grows while walked; a vertex joins once, as it drops below d
        left[v] = False
        for u in heads[starts[v]:starts[v + 1]]:
            if left[u]:
                counts[u] -= 1
                if counts[u] == need - 1:
                    low.append(u)
    return _vertices_where(left)


def maximal_cut(g: LayeredGraph, layer, S):
    """Local-search bipartition (A, B) of the vertex set S.

    Single-vertex moves, sweeping ascending ids until a full pass makes no
    move; a vertex moves when its same-side degree strictly exceeds its
    cross-side degree.  At the fixed point every v in A has
    deg(v, B) >= deg(v, A), and symmetrically.  This is a local optimum,
    not a maximum cut, which is all the downstream arguments need.  The
    same-side degrees are counters updated as neighbours move.
    """
    S = frozenset(S)
    if not S:
        raise ValueError("maximal_cut of an empty set")
    inside, counts, heads = _arcs(g, layer, S)
    order = np.flatnonzero(inside).tolist()
    degree, heads = counts.tolist(), heads.tolist()
    starts = list(accumulate(degree, initial=0))
    same = list(degree)  # every vertex starts in A with all its neighbours
    side = [0] * g.n  # 0 = A, 1 = B
    moved = True
    while moved:
        moved = False
        for v in order:
            if 2 * same[v] > degree[v]:
                was = side[v]
                side[v] = 1 - was
                same[v] = degree[v] - same[v]
                for u in heads[starts[v]:starts[v + 1]]:
                    same[u] += -1 if side[u] == was else 1
                moved = True
    inB = np.array(side, dtype=bool)
    return _vertices_where(inside & ~inB), _vertices_where(inside & inB)


def min_degree_subgraph(g: LayeredGraph, layer, S, d) -> frozenset:
    """Maximal T subseteq S whose induced layer-subgraph has mindeg >= d.

    Obtained by repeatedly deleting vertices of induced degree < d; the
    result is unique (peeling is confluent), possibly empty.
    """
    return _peel(*_arcs(g, layer, S), d)


def peel_bipartite(g: LayeredGraph, layer, A, B, d):
    """Peel disjoint (A, B) to cross-degrees >= d on both sides
    (order-independent)."""
    A, B = frozenset(A), frozenset(B)
    left = _peel(*_arcs(g, layer, A, B), d)
    return A & left, B & left
