"""Tuple-set forms of the spot checks, clean_spots, the decomposition
clauses and the D1 clauses.

``tuple_clean_spots`` is clean_spots on frozensets of (u, v) tuples: the
captured edges as one tuple set, and a peel that finds a removed vertex's
edges by scanning all of F.  ``tuple_d1_report`` is verify_configuration's
D1 branch on a tuple set of sorted witness edges, tested against the base
layer's tuple set and checked through a freshly constructed helper graph.
``tuple_is_dense_spot``, ``tuple_absorbed_by``, ``tuple_edge_union`` and
``tuple_greedy_dense_cover`` are the spot checks, the spot union and the
greedy cover's remainder on each spot's tuple set F.
``tuple_bounded_clauses`` is validate_bounded's clauses 1, 3 and 5, and
``tuple_sparse_clauses`` validate_sparse's clauses 1 and 2, on the layers'
and spots' tuple sets.  All are the references the code-array forms must
match report for report.
"""

from __future__ import annotations

from fractions import Fraction

from structhunt.configurations import _mindeg_clause
from structhunt.exactmath import cmp_le, frac, sqrt_val
from structhunt.graphcore import LayeredGraph, _support, norm_edge
from structhunt.regularity import check_regular_pair
from structhunt.report import Report
from structhunt.spots import (DenseCover, DenseSpot, certify_nowhere_dense,
                              extract_dense_spot, is_dense_spot)


def tuple_is_dense_spot(s) -> Report:
    """is_dense_spot, walking the edges of F (least first) in Python."""
    if s.U & s.W:
        raise ValueError("spot sides overlap")
    for u, v in sorted(s.F):
        in_u = (u in s.U) + (v in s.U)
        in_w = (u in s.W) + (v in s.W)
        if not (in_u == 1 and in_w == 1):
            raise ValueError("spot edge %r not between U and W" % ((u, v),))
    rep = Report("dense spot")
    rep.add("F non-empty", bool(s.F), measured=len(s.F))
    if s.F:
        dens = Fraction(len(s.F), len(s.U) * len(s.W))
        rep.add("density > gamma", dens > s.gamma, measured=dens, needed=s.gamma)
        md = min(sum(1 for e in s.F if v in e) for v in s.vertices())
        rep.add("mindeg > m", not cmp_le(md, s.m), measured=md, needed=s.m)
    return rep


def tuple_absorbed_by(s, other) -> bool:
    if not s.F <= other.F:
        return False
    return ((s.U <= other.U and s.W <= other.W) or
            (s.U <= other.W and s.W <= other.U))


def tuple_edge_union(spots) -> frozenset:
    out = set()
    for s in spots:
        out |= s.F
    return frozenset(out)


def tuple_greedy_dense_cover(g, layer, m, gamma):
    remaining = set(g.edges(layer))
    spots = []
    while True:
        spot = extract_dense_spot(g.with_layer(layer, remaining), layer, m, gamma)
        if spot is None:
            break
        spots.append(spot)
        remaining -= spot.F
    return DenseCover(spots), frozenset(remaining)


def tuple_bounded_clauses(bd, g, p, mode="exact", nd_cap=14,
                          in_graph=True) -> Report:
    """Clauses 1, 3 and 5 of validate_bounded.  Clause 3 names the least
    offending G_reg edge.  With in_graph false, clause 5 lets spot edges
    outside G pass, as it did before it checked them."""
    rep = Report("bounded decomposition")
    k, gamma, rho, eps = p.k, p.gamma, p.rho, p.eps
    exp_edges = g.edges(bd.exp_layer)
    if exp_edges:
        exp_graph = LayeredGraph(g.n, {"G": exp_edges})
        mind = exp_graph.mindeg("G", _support(g, bd.exp_layer))
        nd_ok = None
        if g.n <= nd_cap or mode == "heuristic":
            try:
                nd_ok = certify_nowhere_dense(
                    exp_graph, "G", gamma * k, gamma,
                    mode="exact" if g.n <= nd_cap else "heuristic", cap=nd_cap).ok
            except ValueError:
                nd_ok = None
        rep.add("1. G_exp nowhere-dense", nd_ok,
                note="exact" if g.n <= nd_cap else "heuristic/skipped")
        rep.add("1. mindeg(G_exp) > rho k", mind > rho * k, measured=mind,
                needed=rho * k)
        rep.add("1. G_exp inside G", exp_edges <= g.edges("G"))
    else:
        rep.add("1. G_exp nowhere-dense", True, note="empty layer")
        rep.add("1. mindeg(G_exp) > rho k", True, note="vacuous: no edges")
        rep.add("1. G_exp inside G", True)

    locate = {}
    for i, C in enumerate(bd.clusters):
        for v in C:
            locate[v] = i
    ok3 = True
    note3 = ""
    undecided = []
    pairs = set()
    for u, v in sorted(g.edges(bd.reg_layer)):
        if norm_edge(u, v) in exp_edges or u not in locate or v not in locate \
                or locate[u] == locate[v]:
            ok3, note3 = False, "edge %r breaks layering/cluster rules" % ((u, v),)
            break
        pairs.add((min(locate[u], locate[v]), max(locate[u], locate[v])))
    if ok3:
        for (i, j) in sorted(pairs):
            Ci, Cj = bd.clusters[i], bd.clusters[j]
            between_g = g.edges_between("G", Ci, Cj)
            if between_g != g.edges_between(bd.reg_layer, Ci, Cj):
                ok3, note3 = False, "G[C%d,C%d] != G_reg[C%d,C%d]" % (i, j, i, j)
                break
            dens = Fraction(len(between_g), len(Ci) * len(Cj))
            if dens < gamma * gamma:
                ok3, note3 = False, "pair (C%d,C%d) density %s < gamma^2" % (i, j, dens)
                break
            cert = check_regular_pair(g, "G", Ci, Cj, eps,
                                      mode=mode if mode != "heuristic" else "exact")
            if cert.verdict == "exact-irregular":
                ok3, note3 = False, "pair (C%d,C%d) irregular" % (i, j)
                break
            if cert.verdict == "indeterminate":
                undecided.append((i, j, cert.note))
    if ok3 and undecided:
        i, j, why = undecided[0]
        note3 = "pair (C%d,C%d) indeterminate: %s" % (i, j, why)
        if len(undecided) > 1:
            note3 += "; %d more undecided pairs" % (len(undecided) - 1)
    rep.add("3. G_reg respects clusters, pairs eps-regular of density >= gamma^2",
            None if ok3 and undecided else ok3, note=note3)

    spot_ok = True
    note5 = ""
    seen_edges = set()
    for idx, s in enumerate(bd.spots):
        if not tuple_is_dense_spot(s).ok:
            spot_ok, note5 = False, "spot %d fails (gamma k, gamma) clauses" % idx
            break
        dens = Fraction(len(s.F), len(s.U) * len(s.W))
        mind = min(sum(1 for e in s.F if v in e) for v in s.vertices())
        if not (dens > gamma and mind > gamma * k):
            spot_ok, note5 = False, "spot %d not (gamma k, gamma)-dense" % idx
            break
        if s.F & seen_edges:
            spot_ok, note5 = False, "spot %d shares edges" % idx
            break
        if s.F & exp_edges:
            spot_ok, note5 = False, "spot %d uses G_exp edges" % idx
            break
        if in_graph and not s.F <= g.edges("G"):
            spot_ok, note5 = False, "spot %d has edges outside G" % idx
            break
        seen_edges |= s.F
    if spot_ok:
        for idx, s in enumerate(bd.spots):
            if not g.edges_between("G-" + bd.exp_layer, s.U, s.W) <= seen_edges:
                spot_ok = False
                note5 = "spot %d: G[U,W] not covered by the family" % idx
                break
    rep.add("5. spots edge-disjoint (gamma k, gamma)-dense in G - G_exp, sides covered",
            spot_ok, note=note5)
    return rep


def tuple_sparse_clauses(sd, g, p) -> Report:
    """Clauses 1 and 2 of validate_sparse, without the bounded validation."""
    rep = Report("sparse decomposition")
    H = sd.H
    k = p.k
    if H:
        mind = min(g.deg("G", v) for v in H)
        rep.check_ge("1. mindeg_G(H) >= Omega** k", mind, p.omega_sstar * k)
    else:
        rep.add("1. mindeg_G(H) >= Omega** k", True, note="H empty")
    K_edges = (tuple_edge_union(sd.bd.spots) | g.edges(sd.bd.exp_layer)
               | g.edges_between("G", H, g.vertices()))
    if K_edges:
        kg = LayeredGraph(g.n, {"G": K_edges})
        maxd = kg.maxdeg("G", g.vertices() - H)
        rep.check_le("1. maxdeg_K(V \\ H) <= Omega* k", maxd, p.omega_star * k)
    else:
        rep.add("1. maxdeg_K(V \\ H) <= Omega* k", True, note="K empty")
    structural = (not (sd.bd.E & H) and not (sd.bd.cluster_union() & H) and
                  not any(u in H or v in H for u, v in g.edges(sd.bd.exp_layer)) and
                  not any(u in H or v in H for u, v in g.edges(sd.bd.reg_layer)) and
                  not any(s.vertices() & H for s in sd.bd.spots))
    rep.add("2. bounded decomposition avoids H", structural)
    return rep


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
