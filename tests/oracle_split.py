"""Loop-form references for splitting.

oracle_verify_split is verify_split as first written: clause (4) rescans
each spot's edge set for every (vertex, class) pair, clause (5) walks every
vertex's adjacency and tallies its neighbours per membership cell in dicts,
and clause (6) expands every edge's B-membership bits in Python.  It
computes the same report items and exceptional sets as the vectorised
structhunt.splitting.verify_split and shares none of its counting code, so
the two cross-check each other at desk scale.

loop_random_split draws one getrandbits(53) per vertex, loop_cells
re-densifies the membership cells after each B, and loop_leftover_degree
asks deg(v, leftover) of every vertex: the forms that random_split, _cells
and restrict_matching's leftover-degree clause had before they were
batched.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from structhunt.exactmath import floor_root, frac, ge_with_pow_slack, le_frac_pow
from structhunt.graphcore import _members
from structhunt.report import Report
from structhunt.rng import make_rng
from structhunt.splitting import Split

TWO53 = 1 << 53


def loop_random_split(g, target, q, seed: int) -> Split:
    """random_split with one getrandbits(53) draw and one set insert per
    vertex, ascending id order."""
    q = tuple(frac(x) for x in q)
    if any(x < 0 for x in q):
        raise ValueError("negative fraction")
    total = sum(q)
    if total > 1:
        raise ValueError("fractions sum to %s > 1" % total)
    target = frozenset(target)
    p = len(q)
    rng = make_rng(seed)
    if total == 0:
        if target:
            raise ValueError("all fractions zero with non-empty target")
        return Split(target, tuple(frozenset() for _ in q), q, seed)
    cumulative = []
    acc = Fraction(0)
    for x in q:
        acc += x / total
        cumulative.append(int(acc * TWO53))
    buckets = [set() for _ in range(p)]
    nonzero = [i for i in range(p) if q[i] != 0]
    last = nonzero[-1]
    for v in sorted(target):
        r = rng.getrandbits(53)
        for i in nonzero:
            if r < cumulative[i]:
                buckets[i].add(v)
                break
        else:
            buckets[last].add(v)
    return Split(target, tuple(frozenset(b) for b in buckets), q, seed)


def loop_cells(Bs, n):
    """(cell, cell_bits): dense membership-cell ids, re-densified after each
    B, and each cell's sorted B-indices."""
    member = np.zeros((n, len(Bs)), dtype=bool)
    for j, B in enumerate(Bs):
        member[_members(B, n), j] = True
    cell = np.zeros(n, dtype=np.int64)
    for j in range(len(Bs)):
        cell = np.unique(2 * cell + member[:, j], return_inverse=True)[1]
    first = np.unique(cell, return_index=True)[1]
    return cell, [np.flatnonzero(row).tolist() for row in member[first]]


def loop_leftover_degree(g, F, leftover, thr) -> tuple:
    """(worst, ok) of restrict_matching's leftover-degree clause, one
    deg(v, leftover) per vertex v outside F."""
    worst = 0
    ok_left = True
    for v in range(g.n):
        if v in F:
            continue
        dv = g.deg("G_D", v, leftover) if g.has_layer("G_D") else 0
        worst = max(worst, dv)
        if dv > thr:
            ok_left = False
    return worst, ok_left


def oracle_verify_split(split, g, layers=("G",), spots=(), matching=None,
                        clusters=(), Bs=(), k=1, gamma=Fraction(1, 2)) -> Report:
    """Same signature, report and exceptional_* side effect as verify_split."""
    k = frac(k)
    gamma = frac(gamma)
    q = split.fractions
    p = len(q)
    n = g.n
    rep = Report("split verification")

    def size_clause(C, i):
        # |C cap A_i| >= q_i |C| - k^0.9
        return ge_with_pow_slack(len(C & split.classes[i]), q[i] * len(C), k, 9, 10)

    bad_clusters = tuple(C for C in clusters
                         if not all(size_clause(C, i) for i in range(p)))
    rep.add("(2) cluster splits within k^0.9 slack", not bad_clusters,
            measured=len(bad_clusters), note="violators -> exceptional clusters")

    members = matching.members() if matching is not None else []
    bad_members = tuple(C for C in members
                        if not all(size_clause(C, i) for i in range(p)))
    rep.add("(3) matching-member splits within k^0.9 slack", not bad_members,
            measured=len(bad_members), note="violators -> exceptional members")

    vbar1 = set()
    for s in spots:
        for (U, W) in ((s.U, s.W), (s.W, s.U)):
            for v in U:
                dv_ok = True
                for i in range(p):
                    got = len({u for u in _spot_nbrs(s, v)} & split.classes[i])
                    if not ge_with_pow_slack(got, q[i] * gamma * k, k, 9, 10):
                        dv_ok = False
                        break
                if not dv_ok:
                    vbar1.add(v)
    rep.add("(4) spot degrees into classes within k^0.9 slack", not vbar1,
            measured=len(vbar1), note="violators -> Vbar")

    # membership cell of each vertex over the Bs
    Bs = [frozenset(B) for B in Bs]
    nb = len(Bs)
    cellmask = {}
    for v in range(n):
        m = 0
        for j, B in enumerate(Bs):
            if v in B:
                m |= 1 << j
        cellmask[v] = m
    cls = {}
    for i, A in enumerate(split.classes):
        for v in A:
            cls[v] = i

    # (5): the check "got >= q_i degBJ - 2^-p k^0.9" is cleared of
    # denominators once per class: with q_i = num/den it becomes
    # num*degBJ - got*den <= floor(den * 2^-p * k^(9/10)), all integers
    slack_floor = {}
    nonzero_q = []
    for i in range(p):
        if q[i] == 0:
            continue
        num, den = q[i].numerator, q[i].denominator
        slack_floor[i] = (num, den,
                          floor_root(frac(den) ** 10 * frac(k) ** 9
                                     / 2 ** (10 * p), 10))
        nonzero_q.append(i)
    vbar2 = set()
    layer_list = list(layers)
    for layer in layer_list:
        adj = g.adj(layer)
        for v in range(n):
            per_cell = {}
            per_cell_class = {}
            for u in adj[v]:
                cm = cellmask[u]
                per_cell[cm] = per_cell.get(cm, 0) + 1
                ci = cls.get(u)
                if ci is not None:
                    key = (ci, cm)
                    per_cell_class[key] = per_cell_class.get(key, 0) + 1
            ok = True
            for cm, degBJ in per_cell.items():
                for i in nonzero_q:
                    num, den, fl = slack_floor[i]
                    got = per_cell_class.get((i, cm), 0)
                    if num * degBJ - got * den > fl:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                vbar2.add(v)
    rep.add("(5) per-vertex degree splitting within 2^-p k^0.9 slack", not vbar2,
            measured=len(vbar2), note="violators -> Vbar")

    vbar = frozenset(vbar1 | vbar2)
    split.exceptional_vertices = vbar
    split.exceptional_members = bad_members
    split.exceptional_clusters = bad_clusters

    cap = math.exp(-float(k) ** 0.1) * n  # transcendental bound: float only here
    rep.add("(1) |Vbar| <= exp(-k^0.1) n", len(vbar) <= cap,
            measured=len(vbar), needed=cap)
    rep.add("(1) |union exceptional members| <= exp(-k^0.1) n",
            sum(len(c) for c in bad_members) <= cap,
            measured=sum(len(c) for c in bad_members), needed=cap)
    rep.add("(1) |union exceptional clusters| <= exp(-k^0.1) n",
            sum(len(c) for c in bad_clusters) <= cap,
            measured=sum(len(c) for c in bad_clusters), needed=cap)

    ok_sizes = True
    for i in range(p):
        for j, B in enumerate(Bs):
            got = len(split.classes[i] & B)
            if not ge_with_pow_slack(got, q[i] * len(B), n, 9, 10):
                ok_sizes = False
    rep.add("(sizes) |A_i cap B_j| >= q_i |B_j| - n^0.9", ok_sizes)

    ok6 = True
    kn = k * n
    for layer in layer_list:
        e_bd, e_b = _edge_cells(g, layer, cls, cellmask, p, nb)
        for i in range(p):
            for i2 in range(p):
                for j in range(nb):
                    for j2 in range(nb):
                        want = q[i] * q[i2] * e_b.get((j, j2), 0)
                        got = e_bd.get((i, j, i2, j2), 0)
                        if j == j2:
                            # same-cell variants compare against the induced
                            # count e(H[B_j]) = ordered/2; for i = i2 the
                            # left side is induced as well
                            want = want / 2
                            if i == i2:
                                got = got // 2
                        if not _ge_kn_slack(got, want, kn):
                            ok6 = False
    rep.add("(6) edge counts between class/cell intersections within k^0.6 n^0.6",
            ok6)

    ok7 = all(not split.classes[i] for i in range(p) if q[i] == 0)
    rep.add("(7) zero-fraction classes empty", ok7)
    return rep


def _ge_kn_slack(got, want, kn) -> bool:
    """got >= want - (kn)^(3/5), exactly."""
    shortfall = frac(want) - got
    if shortfall <= 0:
        return True
    return le_frac_pow(shortfall, kn, 3, 5)


def _spot_nbrs(s, v):
    for a, b in s.F:
        if a == v:
            yield b
        elif b == v:
            yield a


def _edge_cells(g, layer, cls, cellmask, p, nb):
    """Aggregate ordered pair counts by (class, B-index) on both endpoints.

    Returns (e_bd, e_b): e_bd[(i, j, i', j')] counts ordered pairs with the
    first endpoint in A_i cap B_j and the second in A_i' cap B_j'; e_b is
    the class-blind version.  Vertices outside all classes are skipped for
    e_bd but counted in e_b.
    """
    e_bd = {}
    e_b = {}
    for u, v in g.edges(layer):
        mu, mv = cellmask[u], cellmask[v]
        cu, cv = cls.get(u), cls.get(v)
        for (m1, c1, m2, c2) in ((mu, cu, mv, cv), (mv, cv, mu, cu)):
            for j in _bits(m1, nb):
                for j2 in _bits(m2, nb):
                    e_b[(j, j2)] = e_b.get((j, j2), 0) + 1
                    if c1 is not None and c2 is not None:
                        key = (c1, j, c2, j2)
                        e_bd[key] = e_bd.get(key, 0) + 1
    return e_bd, e_b


def _bits(mask, nb):
    for j in range(nb):
        if mask >> j & 1:
            yield j
