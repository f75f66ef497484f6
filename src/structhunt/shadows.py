"""Iterated shadows and the two graph-surgery subroutines built on them.

shadow(U, ell) is the set of vertices with strictly more than ell
neighbours in U; iterating it is the look-ahead device used throughout the
structure hunt.  The threshold comparison is strict (">"), which matters:
off-by-one here silently changes every downstream set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import floor_val, frac
from .graphcore import LayeredGraph, _members, _vertices_where


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


def maximal_cut(g: LayeredGraph, layer, S):
    """Local-search bipartition (A, B) of S.

    Single-vertex moves, sweeping ascending ids until a full pass makes no
    move; a vertex moves when its same-side degree strictly exceeds its
    cross-side degree.  At the fixed point every v in A has
    deg(v, B) >= deg(v, A), and symmetrically.  This is a local optimum,
    not a maximum cut, which is all the downstream arguments need.
    """
    S = frozenset(S)
    if not S:
        raise ValueError("maximal_cut of an empty set")
    adj = g.adj(layer)
    side = {v: 0 for v in sorted(S)}  # 0 = A, 1 = B
    moved = True
    while moved:
        moved = False
        for v in sorted(S):
            same = cross = 0
            for u in adj[v] & S:
                if side[u] == side[v]:
                    same += 1
                else:
                    cross += 1
            if same > cross:
                side[v] = 1 - side[v]
                moved = True
    A = frozenset(v for v in S if side[v] == 0)
    B = frozenset(v for v in S if side[v] == 1)
    return A, B


def min_degree_subgraph(g: LayeredGraph, layer, S, d) -> frozenset:
    """Maximal T subseteq S whose induced layer-subgraph has mindeg >= d.

    Obtained by repeatedly deleting vertices of induced degree < d; the
    result is unique (peeling is confluent), possibly empty.
    """
    d = frac(d)
    adj = g.adj(layer)
    T = set(S)
    degs = {v: len(adj[v] & T) for v in T}
    queue = [v for v in T if degs[v] < d]
    while queue:
        v = queue.pop()
        if v not in T:
            continue
        T.remove(v)
        for u in adj[v]:
            if u in T:
                degs[u] -= 1
                if degs[u] < d:
                    queue.append(u)
    return frozenset(T)


def peel_bipartite(g: LayeredGraph, layer, A, B, d):
    """Peel (A, B) to cross-degrees >= d on both sides (order-independent)."""
    d = frac(d)
    adj = g.adj(layer)
    A, B = set(A), set(B)
    degA = {v: len(adj[v] & B) for v in A}
    degB = {v: len(adj[v] & A) for v in B}
    queue = [v for v in A if degA[v] < d] + [v for v in B if degB[v] < d]
    while queue:
        v = queue.pop()
        if v in A:
            A.remove(v)
            for u in adj[v]:
                if u in B:
                    degB[u] -= 1
                    if degB[u] < d:
                        queue.append(u)
        elif v in B:
            B.remove(v)
            for u in adj[v]:
                if u in A:
                    degA[u] -= 1
                    if degA[u] < d:
                        queue.append(u)
    return frozenset(A), frozenset(B)
