"""Bounded and sparse decompositions, captured edges, and the cluster graph.

A bounded decomposition splits a graph into clusters carrying a regular
layer G_reg, an expander-like nowhere-dense layer G_exp, a family of dense
spots, and an avoiding set E; a sparse decomposition adds the huge-degree
set H on top.  Validators check each defining clause independently and
report margins instead of aborting on the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactmath import frac
from .graphcore import (_NO_CODES, LayeredGraph, _code_graph, _isin_sorted,
                        _members, _support, _union_codes)
from .regularity import check_regular_pair
from .report import Report
from .spots import (DenseCover, _cover_codes, _spot_codes, certify_nowhere_dense,
                    check_avoiding, is_dense_spot)


@dataclass(frozen=True)
class Params:
    """The numeric parameter bundle; all strictly positive, no hierarchy asserted."""

    k: int
    Lambda: Fraction = Fraction(2)
    gamma: Fraction = Fraction(1, 2)
    eps: Fraction = Fraction(1, 2)
    eps_prime: Fraction = Fraction(1, 2)
    nu: Fraction = Fraction(1, 4)
    rho: Fraction = Fraction(1, 4)
    eta: Fraction = Fraction(1, 2)
    pi: Fraction = Fraction(1, 4)
    alpha_hat: Fraction = Fraction(1, 4)
    tau: Fraction = Fraction(1, 8)
    d: Fraction = Fraction(1, 4)
    omega_star: Fraction = Fraction(4)
    omega_sstar: Fraction = Fraction(8)
    b: Fraction = Fraction(1)  # avoiding threshold

    def __post_init__(self):
        for name in ("Lambda", "gamma", "eps", "eps_prime", "nu", "rho", "eta",
                     "pi", "alpha_hat", "tau", "d", "omega_star", "omega_sstar"):
            if frac(getattr(self, name)) <= 0:
                raise ValueError("parameter %s must be positive" % name)
        if self.k < 1:
            raise ValueError("k must be a positive integer")


@dataclass
class BoundedDecomposition:
    clusters: list            # disjoint VertexSets ("V" in bold)
    spots: DenseCover         # the family D
    reg_layer: str            # layer name of G_reg
    exp_layer: str            # layer name of G_exp
    E: frozenset              # avoiding set
    prepartition: list        # the ambient partition classes

    def cluster_union(self) -> frozenset:
        return frozenset().union(*self.clusters) if self.clusters else frozenset()

    def cluster_size(self) -> int:
        """Common cluster size; undefined (error) when there are no clusters."""
        if not self.clusters:
            raise ValueError("cluster size undefined: no clusters")
        return len(self.clusters[0])


@dataclass
class SparseDecomposition:
    H: frozenset
    bd: BoundedDecomposition


def validate_bounded(bd: BoundedDecomposition, g: LayeredGraph, p: Params,
                     mode="exact", universe: Optional[frozenset] = None,
                     nd_cap: int = 14, avoid_seed: int = 0) -> Report:
    """Per-item check of the bounded-decomposition definition.

    universe restricts the ambient vertex set (used by validate_sparse to
    interpret the decomposition inside G - H).  Structural inconsistencies
    (overlapping clusters) raise before property checks.
    """
    rep = Report("bounded decomposition")
    V = g.vertices() if universe is None else frozenset(universe)
    k, gamma, rho, eps, nu = p.k, p.gamma, p.rho, p.eps, p.nu

    seen = set()
    for C in bd.clusters:
        if C & seen:
            raise ValueError("clusters overlap")
        seen |= C

    exp_codes = g._codes(bd.exp_layer)
    exp_support = _support(g, bd.exp_layer)
    if exp_codes.size:
        mind = g.mindeg(bd.exp_layer, exp_support)
        nd_ok = None
        if g.n <= nd_cap or mode == "heuristic":
            try:
                nd_rep = certify_nowhere_dense(g, bd.exp_layer, gamma * k, gamma,
                                               mode="exact" if g.n <= nd_cap else "heuristic",
                                               cap=nd_cap)
                nd_ok = nd_rep.ok
            except ValueError:
                nd_ok = None
        rep.add("1. G_exp nowhere-dense", nd_ok,
                note="exact" if g.n <= nd_cap else "heuristic/skipped")
        rep.add("1. mindeg(G_exp) > rho k", mind > rho * k, measured=mind,
                needed=rho * k)
        rep.add("1. G_exp inside G", bool(_isin_sorted(exp_codes, g._codes()).all()))
    else:
        rep.add("1. G_exp nowhere-dense", True, note="empty layer")
        rep.add("1. mindeg(G_exp) > rho k", True, note="vacuous: no edges")
        rep.add("1. G_exp inside G", True)

    rep.add("2. clusters disjoint", True)  # raised above otherwise
    rep.add("2. clusters inside universe", all(C <= V for C in bd.clusters))

    cu = bd.cluster_union()
    where = np.full(g.n, -1, dtype=np.int64)  # cluster index per vertex
    for i, C in enumerate(bd.clusters):
        where[_members(C, g.n)] = i
    reg = g._directed(bd.reg_layer)
    low, high = np.sort([where[reg.u], where[reg.v]], axis=0)
    bad = (low < 0) | (low == high) | _isin_sorted(g._codes(bd.reg_layer), exp_codes)
    ok3, note3 = not bad.any(), ""
    undecided = []  # pairs whose certificate is indeterminate
    reg_cluster_pairs = []
    if not ok3:
        at = int(bad.argmax())
        note3 = "edge %r breaks layering/cluster rules" % ((int(reg.u[at]), int(reg.v[at])),)
    else:
        nc = len(bd.clusters)
        reg_cluster_pairs = [divmod(c, nc) for c in np.unique(low * nc + high).tolist()]
        for (i, j) in reg_cluster_pairs:
            Ci, Cj = bd.clusters[i], bd.clusters[j]
            between = g._codes_between("G", Ci, Cj)
            if not np.array_equal(between, g._codes_between(bd.reg_layer, Ci, Cj)):
                ok3, note3 = False, "G[C%d,C%d] != G_reg[C%d,C%d]" % (i, j, i, j)
                break
            dens = Fraction(between.size, len(Ci) * len(Cj))
            if dens < gamma * gamma:
                ok3, note3 = False, "pair (C%d,C%d) density %s < gamma^2" % (i, j, dens)
                break
            cert = check_regular_pair(g, "G", Ci, Cj, eps, mode=mode if mode != "heuristic" else "exact")
            if cert.verdict == "exact-irregular":
                ok3, note3 = False, "pair (C%d,C%d) irregular" % (i, j)
                break
            if cert.verdict == "indeterminate":
                undecided.append((i, j, cert.note))
    if ok3 and undecided:  # nothing failed, but not every pair was decided
        i, j, why = undecided[0]
        note3 = "pair (C%d,C%d) indeterminate: %s" % (i, j, why)
        if len(undecided) > 1:
            note3 += "; %d more undecided pairs" % (len(undecided) - 1)
    rep.add("3. G_reg respects clusters, pairs eps-regular of density >= gamma^2",
            None if ok3 and undecided else ok3, note=note3)

    sizes = sorted({len(C) for C in bd.clusters})
    if bd.clusters:
        same = len(sizes) == 1
        size_ok = same and nu * k <= sizes[0] <= eps * k
        rep.add("4. nu k <= |C| = |C'| <= eps k", size_ok,
                measured=sizes, needed=(nu * k, eps * k))
    else:
        rep.add("4. nu k <= |C| = |C'| <= eps k", True, note="no clusters")

    spot_ok = True
    note5 = ""
    inner = g._codes("G-" + bd.exp_layer)
    seen = _NO_CODES  # the edges of the spots that passed, all inside G
    for idx, s in enumerate(bd.spots):
        r = is_dense_spot(s)
        if not r.ok:
            spot_ok, note5 = False, "spot %d fails (gamma k, gamma) clauses" % idx
            break
        # enforce the (gamma k, gamma) parameters regardless of stored ones
        if not (r["density > gamma"].measured > gamma
                and r["mindeg > m"].measured > gamma * k):
            spot_ok, note5 = False, "spot %d not (gamma k, gamma)-dense" % idx
            break
        codes = _spot_codes(s, g.n)
        if _isin_sorted(codes, seen).any():
            spot_ok, note5 = False, "spot %d shares edges" % idx
            break
        if not (codes.size == s._ends[0].size and _isin_sorted(codes, inner).all()):
            spot_ok = False
            note5 = "spot %d %s" % (idx, "uses G_exp edges"
                                    if _isin_sorted(codes, exp_codes).any()
                                    else "has edges outside G")
            break
        seen = _union_codes(seen, codes)
    if spot_ok:
        for idx, s in enumerate(bd.spots):
            if not _isin_sorted(g._codes_between("G-" + bd.exp_layer, s.U, s.W),
                                seen).all():
                spot_ok = False
                note5 = "spot %d: G[U,W] not covered by the family" % idx
                break
    rep.add("5. spots edge-disjoint (gamma k, gamma)-dense in G - G_exp, sides covered",
            spot_ok, note=note5)

    ok6 = True
    for (i, j) in reg_cluster_pairs if ok3 else []:
        Ci, Cj = bd.clusters[i], bd.clusters[j]
        if not any((Ci <= s.U and Cj <= s.W) or (Ci <= s.W and Cj <= s.U)
                   for s in bd.spots):
            ok6 = False
            break
    rep.add("6. G_reg-adjacent cluster pairs sit inside one spot", ok6)

    ok7 = True
    note7 = ""
    for i, C in enumerate(bd.clusters):
        if not any(C <= (P & exp_support) or C <= (P - exp_support)
                   for P in bd.prepartition):
            ok7, note7 = False, "cluster %d ignores prepartition x V(G_exp)" % i
            break
        for s in bd.spots:
            inter = C & s.vertices()
            if inter and inter != C:
                ok7, note7 = False, "cluster %d straddles a spot" % i
                break
        if not ok7:
            break
    rep.add("7. clusters respect prepartition, V(G_exp), and spot sides", ok7, note=note7)

    rep.add("8. E disjoint from clusters", not (bd.E & cu))
    av = check_avoiding(g, bd.spots, bd.E, p.Lambda, eps, gamma, k,
                        adversary="exhaustive" if g.n <= 16 else "sampled",
                        seed=avoid_seed)
    rep.add("8. E avoiding w.r.t. spots", av.ok,
            note="; ".join(ci.render() for ci in av.failures()))

    okb = True
    for i, C in enumerate(bd.clusters):
        if not C:
            continue
        degs = g._degrees_of("G", C, bd.E)
        if not (int(degs.max()) <= p.b or int(degs.min()) > p.b):
            okb = False
            break
    rep.add("avoiding threshold b respected", okb, needed=p.b)
    return rep


def validate_sparse(sd: SparseDecomposition, g: LayeredGraph, p: Params,
                    mode="exact", nd_cap: int = 14) -> Report:
    """Sparse-decomposition items 1-2, then the bounded validation on G - H."""
    rep = Report("sparse decomposition")
    H = sd.H
    k = p.k
    if H:
        mind = g.mindeg("G", H)
        rep.check_ge("1. mindeg_G(H) >= Omega** k", mind, p.omega_sstar * k)
    else:
        rep.add("1. mindeg_G(H) >= Omega** k", True, note="H empty")

    K = _union_codes(_cover_codes(sd.bd.spots, g.n), g._codes(sd.bd.exp_layer),
                     g._codes_between("G", H, g.vertices()))
    if K.size:
        maxd = _code_graph(g.n, K).maxdeg("G", g.vertices() - H)
        rep.check_le("1. maxdeg_K(V \\ H) <= Omega* k", maxd, p.omega_star * k)
    else:
        rep.add("1. maxdeg_K(V \\ H) <= Omega* k", True, note="K empty")

    structural = (not (sd.bd.E & H) and not (sd.bd.cluster_union() & H) and
                  not g._degrees("%s+%s" % (sd.bd.exp_layer, sd.bd.reg_layer))[
                      _members(H, g.n)].any() and
                  not any(s.vertices() & H for s in sd.bd.spots))
    rep.add("2. bounded decomposition avoids H", structural)
    sub = validate_bounded(sd.bd, g, p, mode=mode, universe=g.vertices() - H,
                           nd_cap=nd_cap)
    rep.extend(sub, prefix="2. ")
    return rep


def captured_subgraph(sd: SparseDecomposition, g: LayeredGraph,
                      layer_name: str = "G_nabla") -> LayeredGraph:
    """Install the captured-edge layer: G_reg + G_exp + H-incident + E-incident.

    E-incident means edges of G between E and E union the clusters.
    """
    E = sd.bd.E
    captured = _union_codes(g._codes(sd.bd.reg_layer), g._codes(sd.bd.exp_layer),
                            g._codes_between("G", sd.H, g.vertices()),
                            g._codes_between("G", E, E | sd.bd.cluster_union()))
    return g._with_codes(layer_name, captured)


@dataclass
class ClusterGraph:
    edges: frozenset          # pairs of cluster indices (i, j), i < j
    densities: dict           # (i, j) -> Fraction in the G_reg layer

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def cluster_graph(bd: BoundedDecomposition, g: LayeredGraph, gamma) -> ClusterGraph:
    """Edge C1C2 for each cluster pair of G_reg-density >= gamma^2 (inclusive)."""
    gamma = frac(gamma)
    thr = gamma * gamma
    edges = set()
    densities = {}
    for i in range(len(bd.clusters)):
        for j in range(i + 1, len(bd.clusters)):
            Ci, Cj = bd.clusters[i], bd.clusters[j]
            if not Ci or not Cj:
                continue
            dens = Fraction(g.e_ordered(bd.reg_layer, Ci, Cj), len(Ci) * len(Cj))
            densities[(i, j)] = dens
            if dens >= thr:
                edges.add((i, j))
    return ClusterGraph(frozenset(edges), densities)
