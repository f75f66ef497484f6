"""Regular-pair certificates, regularized matchings and regularized graphs.

A pair (U, W) is eps-regular when every pair of subsets U' of U, W' of W
with |U'| >= eps|U| and |W'| >= eps|W| has |d(U,W) - d(U',W')| < eps.
Exact certification enumerates all qualifying subset pairs (feasible only at
desk scale, default cap 20 per side); above the cap a sampled check is
available, and its verdict is explicitly labelled non-exhaustive.  A found
irregularity witness is always exact regardless of mode.

All density comparisons are integer arithmetic: the test
|e'/(a m) - e/(AB)| >= p/q is cleared of denominators before comparing.

Within the cap an exact check first tries a degree certificate (Alon, Duke,
Lefmann, Rodl and Yuster, 1994): the degrees bound e(U', W') for each
(|U'|, |W'|), and when every bound lies inside the eps interval the pair is
exact-regular with no subset enumerated.  That decides complete and empty
pairs and pairs a few edges from them; the rest go to the scan.

The scan is one numpy kernel.  It scans U'-masks in increasing
integer order, 2**10 at a time (fewer when |U| < 10), and for each U'
compares the sums of the m largest and the m smallest degrees into U'
against per-(a, m) integer bounds; the first violating U' is then fixed and
W'-masks are scanned the same way for the first violating W'.  So the
witness is the lex-first violating pair, and memory is O(2**10 |W|)
whatever the side sizes.  The bounds are tabulated once per call with
Python integers and clamped to the range the sums can take, so the scans
run in int64 for every eps, however large its numerator and denominator.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

import numpy as np

from .exactmath import ceil_val, floor_val, frac
from .graphcore import LayeredGraph, _decode, _edge_layer, _members
from .report import Report
from .rng import make_rng

EXACT_CAP = 20  # largest side size for exhaustive subset enumeration
_BLOCK_BITS = 10  # an exact scan takes its masks 2**10 at a time


@dataclass(frozen=True)
class Sampled:
    trials: int = 2000
    seed: int = 0


@dataclass
class RegPairCertificate:
    verdict: str  # exact-regular | exact-irregular | sampled-regular | indeterminate
    epsilon: Fraction
    density: Fraction
    witness: Optional[tuple] = None  # (U', W', d(U', W'))
    trials: int = 0
    worst_deviation: Optional[Fraction] = None
    note: str = ""

    @property
    def is_regular(self) -> bool:
        return self.verdict in ("exact-regular", "sampled-regular")


def _min_size(eps: Fraction, size: int) -> int:
    """Smallest integer a with a >= eps * size."""
    bound = eps * size
    a = int(bound)
    if a < bound:
        a += 1
    return max(a, 0)


def _adj_matrix(g: LayeredGraph, layer, U, W):
    """(sorted U, sorted W, M) with M[i, j] = 1 when the i-th vertex of U
    and the j-th of W are adjacent in the layer; ids outside 0..n-1 have no
    edges."""
    u_list, w_list = sorted(U), sorted(W)
    d = g._directed(layer)
    pu, pw = _positions(u_list, g.n), _positions(w_list, g.n)
    row, col = np.concatenate([pu[d.u], pu[d.v]]), np.concatenate([pw[d.v], pw[d.u]])
    hit = (row >= 0) & (col >= 0)
    M = np.zeros((len(u_list), len(w_list)), dtype=np.int64)
    M[row[hit], col[hit]] = 1
    return u_list, w_list, M


def _positions(ids: list, n: int) -> np.ndarray:
    """pos[v]: the index of vertex v in the sorted list ids, -1 for the
    vertices not in it."""
    inside = _members(ids, n)  # a contiguous run of the sorted ids
    first = bisect_left(ids, 0)
    pos = np.full(n, -1, dtype=np.int64)
    pos[inside] = np.arange(first, first + inside.size)
    return pos


def check_regular_pair(g: LayeredGraph, layer, U, W, eps, mode="exact",
                       cap: int = EXACT_CAP) -> RegPairCertificate:
    """Certify (U, W) as eps-regular or produce an exact irregularity witness.

    Exact mode enumerates subset pairs in lexicographic bitmask order (over
    the sorted vertex lists) and reports the first violating pair, so the
    witness is canonical.  Sampled mode draws qualifying subset pairs at
    random; it can only return sampled-regular or an exact witness.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    U, W = frozenset(U), frozenset(W)
    if U & W:
        raise ValueError("regular-pair sides overlap")
    if not U or not W:
        return RegPairCertificate("exact-regular", eps, Fraction(0),
                                  note="empty side: all sub-densities 0")
    nu, nw = len(U), len(W)
    u_list, w_list, M = _adj_matrix(g, layer, U, W)
    e = int(M.sum())
    ab = nu * nw
    d = Fraction(e, ab)
    a_min = max(_min_size(eps, nu), 1)
    m_min = max(_min_size(eps, nw), 1)

    if mode == "exact":
        if nu > cap or nw > cap:
            return RegPairCertificate(
                "indeterminate", eps, d,
                note="sides %dx%d above exact cap %d; use sampled mode" % (nu, nw, cap))
        return _check_exact(M, u_list, w_list, e, ab, eps, d, a_min, m_min)
    if isinstance(mode, Sampled):
        return _check_sampled(M, u_list, w_list, e, ab, eps, d, a_min, m_min, mode)
    raise ValueError("unknown mode %r" % (mode,))


def _check_exact(M, u_list, w_list, e, ab, eps, d, a_min, m_min) -> RegPairCertificate:
    """Exhaustive check; the witness is the lex-first violating subset pair.

    The bounds of ``_edge_bounds`` go first: when no (|U'|, |W'|) bound
    violates, no subset pair does, and the pair is exact-regular unscanned.
    Otherwise U'-masks over u_list are scanned in increasing order
    (``_first_hit``).
    For a U' of size a the m largest and the m smallest degrees of w_list
    into U' are the extremal e(U', W') over all W' of size m, so U' admits a
    violating W' exactly when one of those prefix sums violates for some m.
    The first such U' is fixed, and W'-masks over w_list are then scanned in
    increasing order for the first violating W' (the extremal W' is one, so
    the scan always finds one).  Both scans use the one ``violates`` test.
    """
    nu, nw = M.shape
    violates = _violation_test(e, ab, eps, a_min, m_min, nu, nw)
    lo_u, hi_u = _edge_bounds(M.sum(axis=0), nu)
    lo_w, hi_w = _edge_bounds(M.sum(axis=1), nw)
    bounds = np.stack([np.maximum(lo_u, lo_w.T), np.minimum(hi_u, hi_w.T)])
    if not violates(bounds, slice(None), slice(None)).any():
        return RegPairCertificate("exact-regular", eps, d)
    ordered = extremal = None  # reused by every block (see _first_hit)

    def u_test(sums):  # per U': degrees of w_list into U', then |U'|
        nonlocal ordered, extremal
        if ordered is None:
            ordered = np.empty((2, len(sums), nw), dtype=np.int64)
            extremal = np.empty_like(ordered)
        ordered[0] = sums[:, :nw]
        ordered[0].sort(axis=1)
        ordered[1] = ordered[0][:, ::-1]
        np.cumsum(ordered, axis=2, out=extremal)
        return violates(extremal, sums[:, nw], slice(1, None)).any(axis=(0, 2))

    found = _first_hit(np.column_stack([M, np.ones(nu, dtype=np.int64)]), u_test)
    if found is None:
        return RegPairCertificate("exact-regular", eps, d)
    umask, sums = found
    deg, a = sums[:nw], int(sums[nw])
    wmask, (x, m) = _first_hit(np.column_stack([deg, np.ones(nw, dtype=np.int64)]),
                               lambda s: violates(s[:, 0], a, s[:, 1]))
    Up = frozenset(u for i, u in enumerate(u_list) if umask >> i & 1)
    Wp = frozenset(w for j, w in enumerate(w_list) if wmask >> j & 1)
    return RegPairCertificate("exact-irregular", eps, d,
                              witness=(Up, Wp, Fraction(int(x), a * int(m))))


def _violation_test(e, ab, eps, a_min, m_min, nu, nw):
    """violates(x, a, m): |x/(a m) - e/ab| >= eps, with a >= a_min, m >= m_min.

    x = e(U', W'), a = |U'| and m = |W'|; ``upper[a, m]`` and ``lower[a, m]``
    must index to an array that broadcasts against x.  Cleared of
    denominators the test is |x ab - e a m| q >= p a m ab.  The left side is
    an integer, so with need = ceil(p a m ab / q) it holds exactly when
    x ab >= e a m + need or x ab <= e a m - need, that is, when
    x >= ceil((e a m + need) / ab) or x <= floor((e a m - need) / ab).
    Those two bounds are tabulated once per (a, m) in Python integers and
    clamped to ab + 1 and -1, which no x in [0, ab] reaches; sizes below the
    minimum get the clamps.  So the tables are int64 whatever p and q are,
    and the test on arrays is two comparisons.
    """
    p, q = eps.numerator, eps.denominator
    upper = np.full((nu + 1, nw + 1), ab + 1, dtype=np.int64)
    lower = np.full((nu + 1, nw + 1), -1, dtype=np.int64)
    for a in range(a_min, nu + 1):
        for m in range(m_min, nw + 1):
            need = -(-p * a * m * ab // q)
            upper[a, m] = min(-(-(e * a * m + need) // ab), ab + 1)
            lower[a, m] = max((e * a * m - need) // ab, -1)

    def violates(x, a, m):
        return (x >= upper[a, m]) | (x <= lower[a, m])

    return violates


def _edge_bounds(deg, n):
    """(lo, hi) with lo[x, y] <= e(X', Y') <= hi[x, y] for every x-subset X'
    of an n-set X and y-subset Y' of the vertices whose degrees into X are
    ``deg``.  A vertex of degree t has max(0, t - (n - x)) to min(x, t)
    neighbours in X'; lo sums the y smallest lower ends and hi the y largest
    upper ends.  Both maps keep the order of t, so one sort serves every x.
    """
    t = np.sort(deg)
    x = np.arange(n + 1)[:, None]
    ends = np.zeros((2, n + 1, len(t) + 1), dtype=np.int64)
    np.cumsum(np.maximum(t - (n - x), 0), axis=1, out=ends[0, :, 1:])
    np.cumsum(np.minimum(t[::-1], x), axis=1, out=ends[1, :, 1:])
    return ends


def _first_hit(rows, test):
    """The first mask, in increasing order, whose subset sum passes ``test``.

    The subset sum of a mask is the sum of the rows of the (k, n) integer
    array ``rows`` at its set bits.  Masks are scanned in blocks of 2**c,
    c = min(10, k): the sums over the low c bits come from a table built
    once by doubling, and each block adds the one sum of its fixed high
    bits, so a block holds 2**c x n integers and memory is O(2**10 n)
    whatever k is.  ``test`` maps a block's (2**c, n) sums to a (2**c,)
    bool array.  Returns (mask, subset sum) or None.

    Every block writes its sums into one buffer, and the u-scan's test
    reuses its own: blocks of a few hundred kilobytes allocated and freed
    in turn can make the allocator hand the memory back to the system and
    fault it in again on every block, which costs more than the scan.
    """
    c = min(_BLOCK_BITS, len(rows))
    low = np.zeros((1 << c, rows.shape[1]), dtype=np.int64)
    for i in range(c):
        low[1 << i:2 << i] = low[:1 << i] + rows[i]
    high = rows[c:]
    places = np.arange(len(high))
    sums = np.empty_like(low)
    for b in range(1 << len(high)):
        np.add(low, ((b >> places) & 1) @ high, out=sums)
        hit = test(sums)
        if hit.any():
            j = int(hit.argmax())
            return (b << c) + j, sums[j].copy()
    return None


def _check_sampled(M, u_list, w_list, e, ab, eps, d, a_min, m_min,
                   mode: Sampled) -> RegPairCertificate:
    """Draw mode.trials subset pairs; the first deviating one is a witness.

    A constant pair (e = 0 or e = ab) has every sub-density equal to d, so
    every draw deviates by 0 < eps: the result is the loop's, without the
    draws.  The generator is local, so skipping them moves no later draw.
    """
    rng = make_rng(mode.seed)
    nu, nw = len(u_list), len(w_list)
    worst = Fraction(0)
    constant = e in (0, ab)
    if constant and mode.trials > 0:
        rng.randint(a_min, nu)  # raises (eps > 1) where the first draw would
    for _ in range(0 if constant else mode.trials):
        a = rng.randint(a_min, nu)
        m = rng.randint(m_min, nw)
        ui = rng.sample(range(nu), a)
        wj = rng.sample(range(nw), m)
        e_sub = int(M[np.ix_(ui, wj)].sum())
        dev = abs(Fraction(e_sub, a * m) - d)
        if dev > worst:
            worst = dev
        if dev >= eps:
            Up = frozenset(u_list[i] for i in ui)
            Wp = frozenset(w_list[j] for j in wj)
            return RegPairCertificate("exact-irregular", eps, d,
                                      witness=(Up, Wp, Fraction(e_sub, a * m)),
                                      trials=mode.trials, worst_deviation=dev)
    return RegPairCertificate("sampled-regular", eps, d, trials=mode.trials,
                              worst_deviation=worst,
                              note="non-exhaustive: %d sampled subset pairs" % mode.trials)


def check_super_regular(g: LayeredGraph, layer, A, B, eps, gamma,
                        mode="exact", cap: int = EXACT_CAP) -> Report:
    """(eps, gamma)-super-regularity: eps-regular plus the two mindeg clauses."""
    eps, gamma = frac(eps), frac(gamma)
    A, B = frozenset(A), frozenset(B)
    rep = Report("super-regular pair")
    cert = check_regular_pair(g, layer, A, B, eps, mode, cap)
    rep.add("regular", cert.is_regular if cert.verdict != "indeterminate" else None,
            measured=cert.verdict, note=cert.note)
    rep.cert = cert
    if A and B:
        rep.check_ge("mindeg(A,B)", g.mindeg(layer, A, B), gamma * len(B))
        rep.check_ge("mindeg(B,A)", g.mindeg(layer, B, A), gamma * len(A))
        if rep.ok:
            rep.info("implied density >= gamma", measured=g.density(layer, A, B))
    else:
        rep.add("mindeg clauses", False, note="empty side")
    return rep


def restrict_pair_params(eps, d, alpha):
    """Certificate propagation to subsets of fractional size >= alpha.

    A restriction of an eps-regular pair of density d to sides of at least
    an alpha-fraction is (2 eps / alpha)-regular of density >= d - eps.
    """
    eps, d, alpha = frac(eps), frac(d), frac(alpha)
    if alpha <= eps:
        raise ValueError("alpha must exceed eps")
    return 2 * eps / alpha, d - eps


def degree_typicality(g: LayeredGraph, layer, R, Qs, eps) -> Report:
    """Vertices of R whose degree into the union of the Qs is atypical.

    Reports the sets violating the lower bound (a) and the upper bound (b)
    around e(R, Q)/|R| with slack eps |Q|.  When every (R, Q_i) is an
    eps-regular pair, each violating set has size at most eps |R|; that is a
    consequence the caller may assert, not something enforced here.
    """
    eps = frac(eps)
    R = frozenset(R)
    rep = Report("degree typicality")
    Q = frozenset().union(*Qs) if Qs else frozenset()
    if R & Q:
        raise ValueError("R intersects a Q_i")
    union = frozenset(Q)
    if not R or not union:
        rep.low_violators = frozenset()
        rep.high_violators = frozenset()
        rep.add("violators", True, measured=0, note="vacuous")
        return rep
    expected = Fraction(g.e_ordered(layer, R, union), len(R))
    slack = eps * len(union)
    degs = g._degrees_of(layer, R, union)
    low = frozenset(compress(R, (degs < ceil_val(expected - slack)).tolist()))
    high = frozenset(compress(R, (degs > floor_val(expected + slack)).tolist()))
    rep.low_violators = low
    rep.high_violators = high
    rep.info("expected degree e(R,Q)/|R|", measured=expected)
    rep.add("low violators", None, measured=len(low), note="bound (a)")
    rep.add("high violators", None, measured=len(high), note="bound (b)")
    return rep


@dataclass
class RegularizedMatching:
    """Ordered list of disjoint (A, B) pairs certified regular and dense."""

    pairs: tuple
    eps: Fraction
    d: Fraction
    ell: object  # rational or RootVal lower bound on side sizes
    layer: object = "G"

    def __init__(self, pairs, eps, d, ell, layer="G"):
        self.pairs = tuple((frozenset(a), frozenset(b)) for a, b in pairs)
        self.eps = frac(eps)
        self.d = frac(d)
        self.ell = ell
        self.layer = layer

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def members(self) -> list:
        """V(M) as the family of member sets, firsts then seconds per pair."""
        out = []
        for a, b in self.pairs:
            out.append(a)
            out.append(b)
        return out

    def firsts(self) -> list:
        return [a for a, _ in self.pairs]

    def seconds(self) -> list:
        return [b for _, b in self.pairs]

    def v1(self) -> frozenset:
        return frozenset().union(*self.firsts()) if self.pairs else frozenset()

    def v2(self) -> frozenset:
        return frozenset().union(*self.seconds()) if self.pairs else frozenset()

    def vertices(self) -> frozenset:
        return self.v1() | self.v2()

    def partner(self, X: frozenset):
        for a, b in self.pairs:
            if a == X:
                return b
            if b == X:
                return a
        raise KeyError("set is not a member of the matching")

    def union(self, other: "RegularizedMatching") -> "RegularizedMatching":
        return RegularizedMatching(self.pairs + other.pairs,
                                   max(self.eps, other.eps),
                                   min(self.d, other.d),
                                   min(self.ell, other.ell), self.layer)


def validate_regularized_matching(m: RegularizedMatching, g: LayeredGraph,
                                  layer=None, mode="exact",
                                  cap: int = EXACT_CAP) -> Report:
    """Per-clause check of the regularized-matching definition."""
    layer = m.layer if layer is None else layer
    rep = Report("regularized matching")
    bad_size = next((i for i, (a, b) in enumerate(m.pairs)
                     if len(a) != len(b) or not (len(a) >= m.ell)), None)
    rep.add("(i) |A|=|B|>=ell", bad_size is None,
            note="" if bad_size is None else "pair %d" % bad_size)
    bad_reg = None
    for i, (a, b) in enumerate(m.pairs):
        cert = check_regular_pair(g, layer, a, b, m.eps, mode, cap)
        if not cert.is_regular or cert.density < m.d:
            bad_reg = (i, cert)
            break
    rep.add("(ii) eps-regular with density >= d", bad_reg is None,
            note="" if bad_reg is None else
            "pair %d: %s, density %s" % (bad_reg[0], bad_reg[1].verdict, bad_reg[1].density))
    members = m.members()
    disjoint = True
    seen = set()
    for s in members:
        if s & seen:
            disjoint = False
            break
        seen |= s
    rep.add("(iii) members pairwise disjoint", disjoint)
    return rep


class RegularizedGraph:
    """Edge set over a vertex ensemble with empty insides and regular crossings,
    kept as a layer of codes; edges is a public view as (u, v) tuples."""

    def __init__(self, edges, ensemble, eps, d, ell1, ell2):
        self.edge_layer = _edge_layer(edges)
        self.ensemble = tuple(frozenset(x) for x in ensemble)
        self.eps = frac(eps)
        self.d = frac(d)
        self.ell1 = ell1
        self.ell2 = ell2

    @property
    def edges(self) -> frozenset:
        return self.edge_layer.edges()

    def universe(self) -> frozenset:
        return frozenset().union(*self.ensemble) if self.ensemble else frozenset()


def validate_regularized_graph(rg: RegularizedGraph, mode="exact",
                               cap: int = EXACT_CAP,
                               matching: Optional[RegularizedMatching] = None) -> Report:
    """Check the regularized-graph clauses, plus matching consistency if given.
    A stray edge or an edge inside a member named is the least one."""
    rep = Report("regularized graph")
    universe = rg.universe()
    total = sum(len(x) for x in rg.ensemble)
    if total != len(universe):
        raise ValueError("ensemble members overlap")
    layer = rg.edge_layer
    u, v = _decode(layer.codes, layer.n)
    member = np.full(layer.n, -1)  # the ensemble member of each vertex, -1 outside
    for idx, x in enumerate(rg.ensemble):
        member[_members(x, layer.n)] = idx
    stray = (member[u] < 0) | (member[v] < 0)
    if stray.any():
        at = stray.argmax()
        raise ValueError("edge %r leaves the ensemble universe" % ((int(u[at]), int(v[at])),))
    rep.check_ge("ensemble sizes >= ell1", min(map(len, rg.ensemble), default=0), rg.ell1)
    inner = member[u] == member[v]
    at = inner.argmax() if inner.any() else None
    rep.add("no edges inside a member", at is None,
            note="" if at is None else "edge %r" % ((int(u[at]), int(v[at])),))

    helper = LayeredGraph._validated(layer.n, {"G": layer})  # other ids have no edges
    bad_pair = None
    for i in range(len(rg.ensemble)):
        for j in range(i + 1, len(rg.ensemble)):
            X, Y = rg.ensemble[i], rg.ensemble[j]
            cross = helper.e_ordered("G", X, Y)
            if cross == 0:
                continue
            dens = Fraction(cross, len(X) * len(Y))
            cert = check_regular_pair(helper, "G", X, Y, rg.eps, mode, cap)
            if dens < rg.d or not cert.is_regular:
                bad_pair = (i, j, dens, cert.verdict)
                break
        if bad_pair:
            break
    rep.add("cross pairs eps-regular, density 0 or >= d", bad_pair is None,
            note="" if bad_pair is None else "pair (%d,%d) density=%s %s" % bad_pair)
    worst_nbhd = max((len(helper.neighbourhood("G", x)) for x in rg.ensemble), default=0)
    rep.check_le("|N(X)| <= ell2", worst_nbhd, rg.ell2)
    if matching is not None:
        ens = set(rg.ensemble)
        consistent = all(s in ens for s in matching.members())
        rep.add("matching consistent (members drawn from ensemble)", consistent)
    return rep


def check_m_cover(F, m: RegularizedMatching) -> Report:
    """Is F a cover of m: does every pair have a member in F?"""
    rep = Report("matching cover")
    fam = [frozenset(x) for x in F]
    missing = next((i for i, (a, b) in enumerate(m.pairs)
                    if a not in fam and b not in fam), None)
    rep.add("every pair has a member in F", missing is None,
            note="" if missing is None else "pair %d uncovered" % missing)
    return rep
