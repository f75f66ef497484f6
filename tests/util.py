"""Shared construction helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from structhunt.decomposition import BoundedDecomposition, Params
from structhunt.graphcore import LayeredGraph, norm_edge
from structhunt.spots import DenseCover, DenseSpot


def graph_from_edges(n, edges, **extra_layers):
    layers = {"G": [norm_edge(*e) for e in edges]}
    for name, es in extra_layers.items():
        layers[name] = [norm_edge(*e) for e in es]
    return LayeredGraph(n, layers)


def complete_graph(n):
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a_ids, b_ids, n=None):
    a_ids, b_ids = sorted(a_ids), sorted(b_ids)
    n = n if n is not None else max(a_ids + b_ids) + 1
    return graph_from_edges(n, [(u, v) for u in a_ids for v in b_ids])


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_bipartite_edges(a_ids, b_ids, p, seed):
    rng = random.Random(seed)
    return [(u, v) for u in a_ids for v in b_ids if rng.random() < p]


def brute_force_e_ordered(edges, X, Y):
    """Oracle: count ordered pairs (x, y) in X x Y with xy an edge."""
    es = {norm_edge(*e) for e in edges}
    return sum(1 for x in X for y in Y if x != y and norm_edge(x, y) in es)


def brute_force_density(edges, U, W):
    return Fraction(brute_force_e_ordered(edges, U, W), len(U) * len(W))



SPOT_CASES = ("plain", "share", "exp", "leave", "outside", "far")


def random_decomposition(seed):
    """(g, bd, p, cases): a small random bounded decomposition whose spots
    may share edges (share), use G_exp edges (exp), have an edge leaving
    U x W (leave), have edges outside G (outside), or hold one of the ids
    -3, n, 2^40 and 2^70 (far); cases is the set of kinds drawn."""
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    verts = list(range(n))
    G = {e for e in itertools.combinations(verts, 2) if rng.random() < 0.25}
    exp = {e for e in itertools.combinations(verts, 2) if rng.random() < 0.03}
    rng.shuffle(verts)
    size = rng.randint(1, 3)
    clusters = [frozenset(verts[i:i + size]) for i in range(0, size * rng.randint(0, 3), size)
                if i + size <= n]
    spots, cases = [], set()
    for _ in range(rng.randint(0, 3)):
        case = rng.choice(SPOT_CASES)
        if case == "share" and spots:
            U = sorted(spots[-1].U)[:rng.randint(1, 3)]
            W = sorted(spots[-1].W)[:rng.randint(1, 3)]
        else:
            rng.shuffle(verts)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            U, W = verts[:a], verts[a:a + b]
        F = [norm_edge(u, w) for u in U for w in W if rng.random() < 0.85]
        F = F or [norm_edge(U[0], W[0])]
        if case == "far":
            far = rng.choice([-3, n, 1 << 40, 1 << 70])
            W = W + [far]
            F.append(norm_edge(U[0], far))
        stray = next((v for v in range(n) if v not in U + W), None)
        if case == "leave" and stray is not None:
            F.append(norm_edge(U[0], stray))
        if case == "exp":
            exp.add(F[0])
        if case != "outside":
            G.update(e for e in F if 0 <= e[0] and e[1] < n)
        cases.add(case)
        spots.append(DenseSpot(U, W, F, rng.choice([0, 0, 1]), Fraction(1, 2)))
    locate = {v: i for i, C in enumerate(clusters) for v in C}
    cross = {e for e in G if locate.get(e[0], -1) != locate.get(e[1], -1)
             and e[0] in locate and e[1] in locate}
    reg = cross | set(rng.sample(sorted(G), min(len(G), rng.choice([0, 0, 1]))))
    if cross and rng.random() < 0.15:
        reg.discard(min(cross))
    g = LayeredGraph(n, {"G": sorted(G), "G_exp": sorted(exp), "G_reg": sorted(reg)})
    E = frozenset(v for v in range(n) if v not in locate and rng.random() < 0.2)
    bd = BoundedDecomposition(clusters, DenseCover(spots), "G_reg", "G_exp", E,
                              [g.vertices()])
    p = Params(k=rng.randint(1, 2), gamma=Fraction(1, 2),
               eps=rng.choice([Fraction(1), Fraction(1, 4)]),
               nu=Fraction(1, 4), Lambda=Fraction(1, 2))
    return g, bd, p, cases
