"""Frozenset references for the peels and the cut of structhunt.shadows.

These are maximal_cut, min_degree_subgraph and peel_bipartite as first
written: each walks the layer's neighbour frozensets (g.adj) one vertex at
a time, with dictionaries of degrees and a queue.  structhunt.shadows
computes the same sets from the layer's arrays restricted to the given
vertices; the two share no code, so they cross-check each other.
"""

from __future__ import annotations

from structhunt.exactmath import frac
from structhunt.graphcore import LayeredGraph


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
