"""Tuple-set forms of clean_spots and of the D1 clauses.

``tuple_clean_spots`` is clean_spots on frozensets of (u, v) tuples: the
captured edges as one tuple set, and a peel that finds a removed vertex's
edges by scanning all of F.  ``tuple_d1_report`` is verify_configuration's
D1 branch on a tuple set of sorted witness edges, tested against the base
layer's tuple set and checked through a freshly constructed helper graph.
Both are the references the code-array forms must match report for report.
"""

from __future__ import annotations

from fractions import Fraction

from structhunt.configurations import _mindeg_clause
from structhunt.exactmath import frac, sqrt_val
from structhunt.graphcore import LayeredGraph
from structhunt.report import Report
from structhunt.spots import DenseCover, DenseSpot, is_dense_spot


def tuple_clean_spots(g, spots, E, clusters, gamma, k, rho, reg_layer="G_reg"):
    gamma, k, rho = frac(gamma), frac(k), frac(rho)
    E = frozenset(E)
    captured = g.edges(reg_layer) | g.edges_between("G", E, E.union(*clusters))

    rep = Report("clean-spots")
    out_spots = []
    absorption = []
    root_gamma = sqrt_val(gamma)
    for idx, D in enumerate(spots):
        uncaptured = D.F - captured
        if root_gamma * len(D.F) <= len(uncaptured):
            absorption.append((idx, None))
            continue
        a, b = len(D.U), len(D.W)
        thr_u = gamma * gamma * b / 4
        thr_w = gamma * gamma * a / 4
        F = set(D.F & captured)
        degs = {}
        for e in F:
            for v in e:
                degs[v] = degs.get(v, 0) + 1
        U, W = set(D.U) & set(degs), set(D.W) & set(degs)
        changed = True
        while changed:
            changed = False
            for side, thr in ((U, thr_u), (W, thr_w)):
                for v in sorted(side):
                    if degs.get(v, 0) < thr:
                        side.remove(v)
                        for e in [e for e in F if v in e]:
                            F.remove(e)
                            for w in e:
                                degs[w] = degs.get(w, 0) - 1
                        changed = True
        support = {v for e in F for v in e}
        if F:
            new = DenseSpot(frozenset(U) & support, frozenset(W) & support,
                            F, gamma ** 3 * k / 4, gamma / 2)
            out_spots.append(new)
            absorption.append((idx, new))
        else:
            absorption.append((idx, None))

    lost = sum(len(D.F) for D in spots) - sum(len(s.F) for s in out_spots)
    rep.check_le("property 1: |E(D) \\ E(D_nabla)| <= rho k n", lost,
                 rho * k * g.n, note="reported, not asserted")
    prop2 = all(s.F <= captured for s in out_spots)
    rep.add("property 2: output edges captured", prop2)
    dense_ok = all(is_dense_spot(s).ok for s in out_spots)
    rep.add("outputs are (gamma^3 k/4, gamma/2)-dense", dense_ok)
    seen = set()
    disjoint = True
    for s in out_spots:
        if s.F & seen:
            disjoint = False
        seen |= s.F
    rep.add("outputs edge-disjoint", disjoint)
    absorbed = all(new.absorbed_by(spots[idx]) for idx, new in absorption
                   if new is not None)
    rep.add("absorption recorded", absorbed)
    rep.absorption = absorption
    return DenseCover(out_spots), rep


def tuple_d1_report(w, b) -> Report:
    g, k = b.g, b.p.k
    rep = Report("configuration %s" % w.tag)
    V = g.vertices()
    A, B, F = frozenset(w["A"]), frozenset(w["B"]), w["F"]
    if A & B:
        raise ValueError("D1 sides overlap")
    F = frozenset(tuple(sorted(e)) for e in F)
    rep.add("H non-empty", bool(F), measured=len(F))
    rep.add("H inside G", F <= g.edges("G"))
    ok_bip = all((e[0] in A) != (e[1] in A) and (e[0] in B) != (e[1] in B)
                 for e in F)
    rep.add("H bipartite between A and B", ok_bip)
    helper = LayeredGraph(g.n, {"G": F})
    support = A | B
    _mindeg_clause(rep, g, "G", "mindeg_G(V(H)) >= k", support, V, k)
    _mindeg_clause(rep, helper, "G", "mindeg(H) >= k/2", support, support,
                   Fraction(k, 2))
    return rep
