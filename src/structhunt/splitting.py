"""Randomized proportional splitting and matching restriction.

The split itself is the probabilistic construction made explicit: an iid
categorical assignment of each vertex, in ascending id order, from a seeded
Mersenne Twister (see rng.py), so fixed seeds reproduce byte-identically.
Verification is a separate step that measures every concentration clause on
the actual instance: per-cluster and per-member splits, spot degrees, the
per-vertex degree splitting over all membership cells, and the edge-count
clauses, each with its fractional-power slack compared exactly.

Verification is O(|E|) per layer: it reads the layer's directed form, both
orientations of every edge as two int64 arrays kept by the graph, and the
(vertex, cell), (vertex, class, cell) and (class, cell, class', cell')
tallies are sort-based counts over it (numpy.unique), so
memory stays linear in |E| however many classes and B-sets there are.  All
comparisons are exact integer ones.  They run in int64 only when every
operand and product provably stays below 2^62, and in Python integers
otherwise, so large fraction denominators cannot wrap around.  The only
floating-point comparison is the exp(-k^0.1) n cap on exceptional-set sizes
(a transcendental bound); everything algebraic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactmath import floor_root, frac, ge_with_pow_slack, le_frac_pow
from .graphcore import LayeredGraph, _members
from .regularity import RegularizedMatching, check_regular_pair
from .report import Report
from .rng import make_rng
from .shadows import shadow

TWO53 = 1 << 53
INT64_SAFE = 1 << 62  # int64 arithmetic only on values provably below this


@dataclass
class Split:
    target: frozenset
    classes: tuple       # VertexSets partitioning target
    fractions: tuple     # the requested q_i (Fractions)
    seed: int
    exceptional_vertices: frozenset = frozenset()   # Vbar
    exceptional_members: tuple = ()                 # member sets of the matching
    exceptional_clusters: tuple = ()
    F_shadow: frozenset = frozenset()

    def dump(self) -> str:
        lines = []
        cls = {}
        for i, A in enumerate(self.classes):
            for v in A:
                cls[v] = i
        for v in sorted(self.target):
            lines.append("%d %d" % (v, cls[v]))
        return "\n".join(lines) + "\n"


def random_split(g: LayeredGraph, target, q, seed: int) -> Split:
    """iid categorical assignment of target vertices into len(q) classes.

    q_i = 0 forces an empty class; the q_i must be nonnegative with sum at
    most 1 (error above 1).  A deficit (sum < 1) is spread proportionally
    over the nonzero classes, which only helps the lower-bound clauses.
    Each vertex consumes one 53-bit draw, ascending id order.
    """
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
    # integer thresholds: draw r in [0, 2^53), assign the first class whose
    # cumulative share (scaled by 2^53, floor) exceeds r
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


def verify_split(split: Split, g: LayeredGraph, layers=("G",), spots=(),
                 matching: Optional[RegularizedMatching] = None, clusters=(),
                 Bs=(), k=1, gamma=Fraction(1, 2)) -> Report:
    """Measure every concentration clause of the splitting lemma.

    Populates split.exceptional_* as a side effect: vertices violating the
    spot-degree or degree-splitting clauses, matching member sets and
    clusters violating their per-class size clauses.
    """
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

    # (4): one neighbour map per spot, one slack test per (class, degree)
    vbar1 = set()
    spot_ok = {}
    for s in spots:
        nbrs = {}
        for a, b in s.F:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        for v in s.U | s.W:
            vn = nbrs.get(v, frozenset())
            for i in range(p):
                key = (i, len(vn & split.classes[i]))
                ok = spot_ok.get(key)
                if ok is None:
                    ok = spot_ok[key] = ge_with_pow_slack(key[1], q[i] * gamma * k,
                                                          k, 9, 10)
                if not ok:
                    vbar1.add(v)
                    break
    rep.add("(4) spot degrees into classes within k^0.9 slack", not vbar1,
            measured=len(vbar1), note="violators -> Vbar")

    # membership cell (dense id over the Bs) and class (-1: none) per vertex
    Bs = [frozenset(B) for B in Bs]
    nb = len(Bs)
    cell, cell_bits = _cells(Bs, n)
    ncell = len(cell_bits)
    cls = np.full(n, -1, dtype=np.int64)
    for i, A in enumerate(split.classes):
        cls[_members(A, n)] = i
    side = cls * ncell + cell   # (class, cell) id; negative outside the classes

    # (5): the check "got >= q_i degBJ - 2^-p k^0.9" is cleared of
    # denominators once per class: with q_i = num/den it becomes
    # num*degBJ - got*den <= floor(den * 2^-p * k^(9/10)), all integers
    slack_floor = []
    for i in range(p):
        if q[i] == 0:
            continue
        num, den = q[i].numerator, q[i].denominator
        slack_floor.append((i, num, den,
                            floor_root(frac(den) ** 10 * frac(k) ** 9
                                       / 2 ** (10 * p), 10)))
    vbar2 = set()
    edge_cells = []
    for layer in layers:
        form = g._directed(layer)
        src, dst = form.rows, form.cols
        cls_dst = cls[dst]
        has_cls = cls_dst >= 0
        # degBJ per (vertex, cell) group, then got per (group, class)
        vx, _, grp, degBJ = _count_pairs(src, cell[dst], ncell)
        gi, ci, _, cnt = _count_pairs(grp[has_cls], cls_dst[has_cls], p)
        per_class = np.zeros((len(vx), p), dtype=np.int64)
        per_class[gi, ci] = cnt
        maxdeg = int(degBJ.max()) if degBJ.size else 0
        bad = np.zeros(len(vx), dtype=bool)
        for i, num, den, fl in slack_floor:
            deg_i, got_i = degBJ, per_class[:, i]
            if max(abs(num), den) * maxdeg >= INT64_SAFE or fl >= INT64_SAFE:
                deg_i, got_i = deg_i.astype(object), got_i.astype(object)
            bad |= np.asarray(num * deg_i - got_i * den > fl, dtype=bool)
        vbar2.update(vx[bad].tolist())
        # (6) inputs: ordered pairs by cell, and by (class, cell) on both ends
        both = has_cls & (cls[src] >= 0)
        e_b = {(j, j2): c for (_, j, _, j2), c in
               _edge_cells(cell[src], cell[dst], ncell, ncell, cell_bits).items()}
        e_bd = _edge_cells(side[src][both], side[dst][both], p * ncell, ncell,
                           cell_bits)
        edge_cells.append((e_bd, e_b))
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

    def edge_ok(e_bd, e_b, i, i2, j, j2):
        want = q[i] * q[i2] * e_b.get((j, j2), 0)
        got = e_bd.get((i, j, i2, j2), 0)
        if j == j2:
            # same-cell variants compare against the induced count
            # e(H[B_j]) = ordered/2; for i = i2 the left side is induced too
            want = want / 2
            if i == i2:
                got = got // 2
        return _ge_kn_slack(got, want, kn)

    kn = k * n
    live = [i for i in range(p) if q[i] != 0]  # q_i = 0 wants 0: always met
    ok6 = all(edge_ok(e_bd, e_b, i, i2, j, j2) for e_bd, e_b in edge_cells
              for i in live for i2 in live for j in range(nb) for j2 in range(nb))
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


def _cells(Bs, n):
    """Dense membership-cell id per vertex, and each cell's sorted B-indices.

    Ids are re-densified after each B, so they stay below n for any number
    of Bs; vertices in exactly the same Bs share a cell.
    """
    member = np.zeros((n, len(Bs)), dtype=bool)
    for j, B in enumerate(Bs):
        member[_members(B, n), j] = True
    cell = np.zeros(n, dtype=np.int64)
    for j in range(len(Bs)):
        cell = np.unique(2 * cell + member[:, j], return_inverse=True)[1]
    first = np.unique(cell, return_index=True)[1]
    return cell, [np.flatnonzero(row).tolist() for row in member[first]]


def _count_pairs(a, b, size_b):
    """Distinct pairs (a[t], b[t]), 0 <= b[t] < size_b, with multiplicities.

    Returns (pa, pb, which, count): the distinct pairs in sorted order, the
    index of each input's pair, and how often each pair occurs.  Pairs are
    packed into one int64 key when a * size_b provably fits, else sorted as
    rows; either way the counts are exact.
    """
    if a.size == 0 or (int(a.max()) + 1) * size_b < INT64_SAFE:
        keys, which, count = np.unique(a * size_b + b, return_inverse=True,
                                       return_counts=True)
        return keys // size_b, keys % size_b, which, count
    rows, which, count = np.unique(np.stack([a, b], axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
    return rows[:, 0], rows[:, 1], which.reshape(-1), count


def _edge_cells(side_a, side_b, size, ncell, cell_bits):
    """Ordered-pair counts keyed (i, j, i', j') over endpoint ids i*ncell+cell.

    Each distinct (side_a, side_b) pair is expanded once over the B-indices
    of its two cells: the result counts ordered pairs with the first
    endpoint in A_i cap B_j and the second in A_i' cap B_j'.
    """
    out = {}
    xs, ys, _, count = _count_pairs(side_a, side_b, size)
    for x, y, c in zip(xs.tolist(), ys.tolist(), count.tolist()):
        i, cx = divmod(x, ncell)
        i2, cy = divmod(y, ncell)
        for j in cell_bits[cx]:
            for j2 in cell_bits[cy]:
                key = (i, j, i2, j2)
                out[key] = out.get(key, 0) + c
    return out


def proportional_split(bundle, p0, p1, p2, seed: int) -> tuple:
    """The ten-class proportional splitting of V(G) - H, plus verification.

    Classes 1..3 receive the requested fractions (each at least eta/100);
    classes 4..10 carry the distinguished sets with fraction zero.  The
    verification graph family is built around (G_nabla - H) + G_D, and the
    shadow set F of the exceptional members/clusters is computed and its
    eps n bound reported.
    """
    p0, p1, p2 = frac(p0), frac(p1), frac(p2)
    p = bundle.p
    eta, k = p.eta, p.k
    for x in (p0, p1, p2):
        if x < eta / 100:
            raise ValueError("proportion %s below eta/100" % x)
    g = bundle.g
    H = bundle.H
    target = g.vertices() - H

    q = (p0, p1, p2) + (Fraction(0),) * 7
    split = random_split(g, target, q, seed)

    Bs = [bundle.V_good, bundle.XA - (H | bundle.J), bundle.XB - bundle.J,
          bundle.exp_support, bundle.E, bundle.V_to_E, bundle.J_E, bundle.L,
          bundle.L_sharp, bundle.V_not_to_H]

    h_incident = g.edges_between("G_nabla", H, g.vertices())
    gstar_edges = (g.edges("G_nabla") - h_incident) | g.edges("G_D")
    gw = g.with_layer("G_star", gstar_edges)
    E = bundle.E
    bd_captured = (gw.edges(bundle.sd.bd.reg_layer) | gw.edges(bundle.sd.bd.exp_layer)
                   | gw.edges_between("G_D", E, E | bundle.sd.bd.cluster_union()))
    gw = gw.with_layer("G_nabla_bd", bd_captured)
    layers = ["G_star", "G_nabla_bd", bundle.sd.bd.exp_layer, "G_D",
              "G_nabla_bd+G_D"]

    rep = verify_split(split, gw, layers=layers, spots=bundle.sd.bd.spots,
                       matching=bundle.MAB(), clusters=bundle.sd.bd.clusters,
                       Bs=Bs, k=k, gamma=p.gamma)

    partners = []
    mab = bundle.MAB()
    for C in split.exceptional_members:
        try:
            partners.append(mab.partner(C))
        except KeyError:
            pass
    src = frozenset().union(*split.exceptional_members) if split.exceptional_members else frozenset()
    src |= frozenset().union(*partners) if partners else frozenset()
    src |= frozenset().union(*split.exceptional_clusters) if split.exceptional_clusters else frozenset()
    split.F_shadow = shadow(g, "G_D", src, eta * eta * k / Fraction(10**10))
    rep.check_le("|F| <= eps n", len(split.F_shadow), p.eps * g.n)
    return split, rep


def restrict_matching(N: RegularizedMatching, split: Split, i: int,
                      g: LayeredGraph, p, c_size=None, recertify=True,
                      cap: int = 12) -> tuple:
    """N|i: trim each pair to equal-size subsets inside class i.

    Pairs with a side among the split's exceptional members are skipped per
    the definition; the sub-pair is the lexicographically lowest ids of each
    side's intersection with the class.  The report evaluates the propagated
    matching parameters, the size lower bound, and the leftover-degree
    clause for vertices outside F.
    """
    eta, k, d, eps, pi = p.eta, p.k, p.d, p.eps, p.pi
    Ai = split.classes[i]
    skip = set(split.exceptional_members)
    out_pairs = []
    for X, Y in N.pairs:
        if X in skip or Y in skip:
            continue
        Xi = sorted(X & Ai)
        Yi = sorted(Y & Ai)
        m = min(len(Xi), len(Yi))
        if m == 0:
            continue
        out_pairs.append((frozenset(Xi[:m]), frozenset(Yi[:m])))

    eps2 = 400 * eps / eta
    d2 = d / 2
    ell2 = eta * pi / 200 * (c_size if c_size is not None else 0)
    out = RegularizedMatching(out_pairs, min(eps2, Fraction(1)), d2, ell2, N.layer)

    rep = Report("matching restriction")
    rep.add("pairs kept", None, measured=len(out_pairs))
    sizes_ok = all(len(a) == len(b) for a, b in out_pairs)
    rep.add("structural: equal sides, disjoint", sizes_ok)
    if c_size is not None:
        rep.check_ge("|sides| >= (eta pi/200) c", min((len(a) for a, _ in out_pairs),
                                                      default=0), ell2)
    want = split.fractions[i] * len(N.vertices())
    got = len(out.vertices())
    # |V(N|i)| >= p_i |V(N)| - 2 k^-0.05 n: the shortfall must satisfy
    # shortfall <= 2 n / k^(1/20), i.e. k * shortfall^20 <= (2n)^20, exactly
    shortfall = frac(want) - got
    size_pass = shortfall <= 0 or frac(k) * shortfall**20 <= (2 * g.n)**20
    rep.add("|V(N|i)| >= p_i |V(N)| - 2 k^-0.05 n", size_pass,
            measured=got, needed=want)

    if recertify:
        from .regularity import Sampled

        bad = None
        for idx, (a, b) in enumerate(out_pairs):
            mode = "exact" if max(len(a), len(b)) <= cap else Sampled(400, 0)
            cert = check_regular_pair(g, N.layer, a, b,
                                      min(eps2, Fraction(99, 100)), mode=mode)
            dens = g.density(N.layer, a, b) if a and b else Fraction(0)
            if not cert.is_regular or dens < d2:
                bad = (idx, cert.verdict, dens)
                break
        rep.add("pairs (400eps/eta)-regular of density >= d/2", bad is None,
                note="" if bad is None else "pair %d: %s density=%s" % bad)

    inside = frozenset()
    if out_pairs:
        inside = frozenset().union(*[a | b for a, b in out_pairs])
    vN_i = N.vertices() & Ai
    leftover = vN_i - inside
    worst = 0
    thr = eta * eta * k / 10**5
    ok_left = True
    for v in range(g.n):
        if v in split.F_shadow:
            continue
        dv = g.deg("G_D", v, leftover) if g.has_layer("G_D") else 0
        worst = max(worst, dv)
        if dv > thr:
            ok_left = False
    rep.add("leftover degree <= eta^2 k / 10^5 outside F", ok_left,
            measured=worst, needed=thr)
    return out, rep
