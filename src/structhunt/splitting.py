"""Randomized proportional splitting and matching restriction.

The split itself is the probabilistic construction made explicit: an iid
categorical assignment of each vertex, in ascending id order, from a seeded
Mersenne Twister (see rng.py), so fixed seeds reproduce byte-identically.
Each vertex takes one 53-bit draw r and joins the first nonzero class whose
cumulative share, scaled by 2^53 and floored, exceeds r.  The draws of all m
vertices come from one getrandbits(64 m) call.  CPython builds a k-bit draw
from ceil(k/32) successive 32-bit generator outputs, least significant word
first, and keeps only the top k mod 32 bits of a partial last word.  So a
53-bit draw is w0 | (w1 >> 11) << 32 for two successive outputs w0, w1, and
the 64 m-bit draw is the same 2m outputs in the same order: the split, and
the generator's final state, are those of m getrandbits(53) calls.

Verification is a separate step that measures every concentration clause on
the actual instance: per-cluster and per-member splits, spot degrees, the
per-vertex degree splitting over all membership cells, and the edge-count
clauses, each with its fractional-power slack compared exactly.

Verification sorts each layer once for clause (5) and once for clause (6).
It reads the layer's directed form, both orientations of every edge as two
int64 arrays kept by the graph.  Every vertex has a membership cell (a dense
id of the set of Bs it lies in) and a class.  Clause (5) packs each directed
edge into one (source, target's cell, target's class) key; the runs of the
sorted keys give each (vertex, cell) degree and its split over the classes.
Clause (6) counts the ((class, cell), (class, cell)) pairs of the edge ends
the same way and spreads the counts over the Bs of each cell with one small
integer matrix product.  Spot degrees (4) are one count over each spot's
edge ends.  Memory stays linear in |E| however many classes and B-sets there
are.  All comparisons are exact integer ones.  They run in int64 only when
every operand, product and packed key provably stays below 2^62, and in
Python integers (or sorted rows) otherwise, so large fraction denominators
cannot wrap around.  The only floating-point comparison is the exp(-k^0.1) n
cap on exceptional-set sizes (a transcendental bound); everything algebraic
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactmath import floor_root, frac, ge_with_pow_slack, le_frac_pow
from .graphcore import LayeredGraph, _mask, _members, _union_codes
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
    rng = make_rng(seed)
    if total == 0:
        if target:
            raise ValueError("all fractions zero with non-empty target")
        return Split(target, tuple(frozenset() for _ in q), q, seed)
    # integer thresholds: a draw r in [0, 2^53) joins the first nonzero class
    # whose cumulative share (scaled by 2^53, floor) exceeds r.  The last
    # nonzero class's share is exactly 2^53, so it takes every r that the
    # thresholds before it leave
    nonzero = [i for i, x in enumerate(q) if x != 0]
    thresholds = []
    acc = Fraction(0)
    for x in q:
        acc += x / total
        if x != 0:
            thresholds.append(int(acc * TWO53))
    order = np.array(sorted(target), dtype=object)
    m = order.size
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"),
                          dtype="<u4").astype(np.int64)
    draws = words[0::2] | (words[1::2] >> 11) << 32
    picked = np.searchsorted(np.array(thresholds[:-1], dtype=np.int64), draws,
                             side="right")
    classes = [frozenset()] * len(q)
    for t, i in enumerate(nonzero):
        classes[i] = frozenset(order[picked == t].tolist())
    return Split(target, tuple(classes), q, seed)


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

    # class per vertex (-1: none); class members outside 0..n-1 by id
    cls = np.full(n, -1, dtype=np.int64)
    stray = {}
    for i, A in enumerate(split.classes):
        inside = _members(A, n)
        cls[inside] = i
        if inside.size < len(A):
            stray.update((v, i) for v in A if not 0 <= v < n)

    def class_of(ids):
        inside = (ids >= 0) & (ids < n)
        c = np.full(ids.size, -1, dtype=np.int64)
        c[inside] = cls[ids[inside].astype(np.int64, copy=False)]
        if stray:
            for t in np.flatnonzero(~inside).tolist():
                c[t] = stray.get(int(ids[t]), -1)
        return c

    # (4): each spot's (vertex, class) degrees by one count over its edge
    # ends, then one slack test per distinct (class, degree)
    vbar1 = set()
    spot_ok = {}
    for s in spots:
        verts = _int_array(sorted(s.U | s.W))
        lo, hi = s._ends
        src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        c = class_of(dst)
        at = np.searchsorted(verts, src)
        hit = (c >= 0) & (at < verts.size)
        hit[hit] = verts[at[hit]] == src[hit]
        deg = np.bincount(at[hit] * p + c[hit],
                          minlength=verts.size * p).reshape(-1, p)
        bad = np.zeros(verts.size, dtype=bool)
        for i in range(p):
            failing = []
            for d in np.unique(deg[:, i]).tolist():
                ok = spot_ok.get((i, d))
                if ok is None:
                    ok = spot_ok[i, d] = ge_with_pow_slack(d, q[i] * gamma * k,
                                                           k, 9, 10)
                if not ok:
                    failing.append(d)
            if failing:
                bad |= np.isin(deg[:, i], failing)
        vbar1.update(verts[bad].tolist())
    rep.add("(4) spot degrees into classes within k^0.9 slack", not vbar1,
            measured=len(vbar1), note="violators -> Vbar")

    # membership cell (dense id over the Bs) per vertex, and the Bs of each
    # cell as a 0/1 matrix
    Bs = [frozenset(B) for B in Bs]
    nb = len(Bs)
    cell, cell_member = _cells(Bs, n)
    ncell = len(cell_member)

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
        # distinct (vertex, target cell, target class + 1) with counts; the
        # (vertex, cell) groups are runs of them, got[class + 1, group]
        vx, rest, count = _tally_pairs(src, cell[dst] * (p + 1) + cls[dst] + 1,
                                       ncell * (p + 1))
        cl, ce = rest % (p + 1), rest // (p + 1)
        start = np.ones(vx.size, dtype=bool)
        start[1:] = (vx[1:] != vx[:-1]) | (ce[1:] != ce[:-1])
        group = np.cumsum(start) - 1
        got = np.zeros((p + 1, np.count_nonzero(start)), dtype=np.int64)
        got[cl, group] = count
        degBJ = got.sum(axis=0)
        maxdeg = int(degBJ.max()) if degBJ.size else 0
        bad = np.zeros(degBJ.size, dtype=bool)
        for i, num, den, fl in slack_floor:
            deg_i, got_i = degBJ, got[i + 1]
            if max(abs(num), den) * maxdeg >= INT64_SAFE or fl >= INT64_SAFE:
                deg_i, got_i = deg_i.astype(object), got_i.astype(object)
            bad |= np.asarray(num * deg_i - got_i * den > fl, dtype=bool)
        vbar2.update(vx[start][bad].tolist())
        # (6) inputs: e[a, b, j, j2] counts the ordered pairs from A_{a-1}
        # cap B_j to A_{b-1} cap B_j2 (class 0: in no class).  Count the
        # distinct (class pair, cell pair)s once; each class pair's run is
        # spread over the Bs of its cells by one matrix product
        pair, cells, count = _tally_pairs(
            (cls[src] + 1) * (p + 1) + cls[dst] + 1,
            cell[src] * ncell + cell[dst], ncell * ncell)
        e = np.zeros(((p + 1) ** 2, nb, nb), dtype=np.int64)
        starts = np.flatnonzero(np.diff(pair, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [pair.size]):
            cx, cy = np.divmod(cells[a:b], ncell)
            e[pair[a]] = cell_member[cx].T @ (cell_member[cy] * count[a:b, None])
        e = e.reshape(p + 1, p + 1, nb, nb)
        edge_cells.append((e[1:, 1:].tolist(), e.sum(axis=(0, 1)).tolist()))
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

    # |A_i cap B_j|: the vertices by (class + 1, cell), spread over the Bs,
    # plus the class members outside 0..n-1
    inter = (np.bincount((cls + 1) * ncell + cell, minlength=(p + 1) * ncell)
             .reshape(p + 1, ncell) @ cell_member)[1:].tolist()
    for v, i in stray.items():
        for j, B in enumerate(Bs):
            inter[i][j] += v in B
    ok_sizes = all(ge_with_pow_slack(inter[i][j], q[i] * len(B), n, 9, 10)
                   for i in range(p) for j, B in enumerate(Bs))
    rep.add("(sizes) |A_i cap B_j| >= q_i |B_j| - n^0.9", ok_sizes)

    def edge_ok(e_bd, e_b, i, i2, j, j2):
        want = q[i] * q[i2] * e_b[j][j2]
        got = e_bd[i][i2][j][j2]
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


def _int_array(ids):
    """A sequence of integers as an int64 array, or as an object array
    when one does not fit int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _cells(Bs, n):
    """Dense membership-cell id per vertex, and each cell's row of the
    vertex-by-B membership matrix (as 0/1 int64).

    A vertex's code sets bit nb-1-j when it lies in B_j, so ids follow the
    lexicographic order of membership rows, B_0 first; vertices in exactly
    the same Bs share a cell.  Codes take at most 62 - bits(n) Bs at a time
    and are re-densified after each chunk, so they fit int64 for any number
    of Bs.
    """
    member = np.zeros((n, len(Bs)), dtype=bool)
    for j, B in enumerate(Bs):
        member[_members(B, n), j] = True
    cell = np.zeros(n, dtype=np.int64)
    chunk = 62 - n.bit_length()
    for first in range(0, len(Bs), chunk):
        for column in member[:, first:first + chunk].T:
            cell = 2 * cell + column
        cell = np.unique(cell, return_inverse=True)[1]
    example = np.zeros(cell.max(initial=-1) + 1, dtype=np.int64)
    example[cell] = np.arange(n)   # any vertex of the cell: all share its row
    return cell, member[example].astype(np.int64)


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


def _tally_pairs(a, b, size_b):
    """(pa, pb, count) of _count_pairs, by one sort of the packed keys and
    without the index of each input's pair."""
    if a.size and (int(a.max()) + 1) * size_b >= INT64_SAFE:
        pa, pb, _, count = _count_pairs(a, b, size_b)
        return pa, pb, count
    keys = np.sort(a * size_b + b)
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    at = np.flatnonzero(start)
    keys = keys[at]
    return keys // size_b, keys % size_b, np.diff(np.append(at, start.size))


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

    h_incident = g._codes_between("G_nabla", H, g.vertices())
    gw = g._with_codes("G_star", _union_codes(
        np.setdiff1d(g._codes("G_nabla"), h_incident, assume_unique=True),
        g._codes("G_D")))
    E = bundle.E
    bd = bundle.sd.bd
    gw = gw._with_codes("G_nabla_bd", _union_codes(
        gw._codes(bd.reg_layer), gw._codes(bd.exp_layer),
        gw._codes_between("G_D", E, E | bd.cluster_union())))
    layers = ["G_star", "G_nabla_bd", bd.exp_layer, "G_D", "G_nabla_bd+G_D"]

    rep = verify_split(split, gw, layers=layers, spots=bd.spots,
                       matching=bundle.MAB(), clusters=bd.clusters,
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
    thr = eta * eta * k / 10**5
    worst, ok_left = _leftover_degree(g, split.F_shadow, vN_i - inside, thr)
    rep.add("leftover degree <= eta^2 k / 10^5 outside F", ok_left,
            measured=worst, needed=thr)
    return out, rep


def _leftover_degree(g: LayeredGraph, F, leftover, thr) -> tuple:
    """(worst, ok): the largest G_D-degree into leftover of a vertex outside
    F (0 if none is larger, or G_D is absent), and whether none exceeds thr."""
    if not g.has_layer("G_D"):
        degrees = np.zeros(g.n, dtype=np.int64)
    else:
        degrees = g._degrees("G_D", leftover)
    outside = degrees[~_mask(F, g.n)]
    return (int(outside.max(initial=0)),
            not outside.size or int(outside.max()) <= thr)
