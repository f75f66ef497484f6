"""Dense spots, dense covers, nowhere-density and the spot-cleaning pass.

An (m, gamma)-dense spot is a non-empty bipartite subgraph D = (U, W; F)
with density > gamma and minimum degree > m (strict on both counts).  A
dense cover is a family of edge-disjoint spots covering a target edge set.
Spot detection is NP-hard in general: extract_dense_spot is a peeling +
max-cut heuristic whose failure certifies nothing, while
certify_nowhere_dense has a separate exact mode (exponential, desk scale
only) that is a genuine decision procedure.

A spot holds F as the arrays (lo, hi) of the ends of its distinct edges,
lo < hi, in sorted order; object arrays when an id is beyond int64, as a
spot's ids need not be vertices.  Checks run on codes: a graph's edge codes
(_spot_codes), or exact codes of several spots' edges whatever their ids
(_common_codes).  The tuple set F is a public view built on first access.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import cmp_le, frac, sqrt_val
from .graphcore import (_INT64_CODES, _NO_CODES, LayeredGraph, _code_graph,
                        _edge_tuples, _encode, _has_repeats, _isin_sorted, _mask,
                        _pairs, _sized, _support, _union_codes, norm_edge)
from .report import Report
from .rng import split_rng
from .shadows import maximal_cut, min_degree_subgraph, peel_bipartite

EXACT_ND_CAP = 14  # largest n for the exact nowhere-density decision


class DenseSpot:
    """Bipartite subgraph (U, W; F); (U, W; F) and (W, U; F) compare equal."""

    def __init__(self, U, W, F, m, gamma):
        F = _sized(F)
        try:
            u, v = _pairs(F)
        except OverflowError:  # an id beyond int64
            u, v = (np.array(end, dtype=object) for end in zip(*F))
        self._assign(U, W, u, v, m, gamma)

    @classmethod
    def _from_arrays(cls, U, W, u, v, m, gamma) -> "DenseSpot":
        """The spot (U, W; F) for id arrays u, v of the ends of F's edges."""
        return cls.__new__(cls)._assign(U, W, u, v, m, gamma)

    def _assign(self, U, W, u, v, m, gamma) -> "DenseSpot":
        """Set the fields (repeats merge, a self-loop raises); return self."""
        self.U, self.W = frozenset(U), frozenset(W)
        self.m, self.gamma = m, frac(gamma)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if (lo == hi).any():
            raise ValueError("self-loop at %d" % lo[(lo == hi).argmax()])
        first = np.unique(_common_codes((lo, hi))[0], return_index=True)[1]
        self._ends = lo[first], hi[first]
        self._F = None
        return self

    @property
    def F(self) -> frozenset:
        """The edges as (u, v) tuples, u < v."""
        if self._F is None:
            self._F = frozenset(zip(*(end.tolist() for end in self._ends)))
        return self._F

    def sides(self) -> frozenset:
        return frozenset({self.U, self.W})

    def vertices(self) -> frozenset:
        return self.U | self.W

    def __eq__(self, other):
        if not isinstance(other, DenseSpot):
            return NotImplemented
        return self.sides() == other.sides() and all(map(np.array_equal, self._ends, other._ends))

    def __hash__(self):
        return hash((self.sides(), self._ends[0].size))

    def __repr__(self):
        return "DenseSpot(|U|=%d, |W|=%d, |F|=%d)" % (len(self.U), len(self.W), self._ends[0].size)

    def degree(self, v) -> int:
        return sum(np.count_nonzero(end == v) for end in self._ends)

    def absorbed_by(self, other: "DenseSpot") -> bool:
        """Is self contained in other as a subgraph (either orientation)?"""
        if not ((self.U <= other.U and self.W <= other.W) or
                (self.U <= other.W and self.W <= other.U)):
            return False
        mine, theirs = _common_codes(self._ends, other._ends)
        return bool(_isin_sorted(mine, theirs).all())


@dataclass
class DenseCover:
    spots: list

    def __iter__(self):
        return iter(self.spots)

    def __len__(self):
        return len(self.spots)


def _spot_codes(s: DenseSpot, n: int):
    """Sorted codes u*n + v of the spot's edges with both ends in 0..n-1."""
    lo, hi = s._ends
    inside = (lo >= 0) & (hi < n)
    return _encode(lo[inside].astype(np.int64), hi[inside].astype(np.int64), n)


def _cover_codes(spots, n: int):
    """Sorted codes of the union of the spots' edges; ValueError unless all
    their ends are in 0..n-1."""
    found = [_spot_codes(s, n) for s in spots]
    if any(codes.size < s._ends[0].size for codes, s in zip(found, spots)):
        raise ValueError("spot edge out of range")
    return _union_codes(*found)


def _common_codes(*ends) -> list:
    """Codes on one base of the edges (lo, hi) of several edge lists, exact
    and in (lo, hi) order whatever the ids (negative or beyond int64)."""
    low = min((int(lo.min()) for lo, _ in ends if lo.size), default=0)
    base = max((int(hi.max()) for _, hi in ends if hi.size), default=0) - low + 1
    wide = base > _INT64_CODES or any(lo.dtype == object for lo, _ in ends)
    kind = object if wide else np.int64
    return [_encode(lo.astype(kind) - low, hi.astype(kind) - low, base)
            for lo, hi in ends]


def is_dense_spot(s: DenseSpot) -> Report:
    """Exact check of the three dense-spot clauses."""
    if s.U & s.W:
        raise ValueError("spot sides overlap")
    lo, hi = s._ends
    Us, Ws = (np.array(sorted(X)) for X in (s.U, s.W))
    across = ((_isin_sorted(lo, Us) & _isin_sorted(hi, Ws))
              | (_isin_sorted(lo, Ws) & _isin_sorted(hi, Us)))
    if not across.all():
        i = int(across.argmin())
        raise ValueError("spot edge %r not between U and W" % ((int(lo[i]), int(hi[i])),))
    rep = Report("dense spot")
    rep.add("F non-empty", bool(lo.size), measured=lo.size)
    if lo.size:
        dens = Fraction(lo.size, len(s.U) * len(s.W))
        rep.add("density > gamma", dens > s.gamma, measured=dens, needed=s.gamma)
        present, counts = np.unique(np.concatenate([lo, hi]), return_counts=True)
        md = int(counts.min()) if present.size == len(s.U) + len(s.W) else 0
        rep.add("mindeg > m", not cmp_le(md, s.m), measured=md, needed=s.m)
    return rep


def _strictly_above(m) -> Fraction:
    """Smallest integer threshold t with (integer deg >= t  <=>  deg > m)."""
    m = frac(m)
    return Fraction(int(m) + 1) if m >= 0 else Fraction(0)


def extract_dense_spot(g: LayeredGraph, layer, m, gamma):
    """Heuristic spot extraction: core peel, maximal cut, bipartite peel.

    The core threshold is the sound one: every vertex of an (m, gamma)-spot
    has more than m neighbours inside the spot, so peeling at degree <= m
    never discards a spot vertex.  Returns a qualifying DenseSpot or None.
    None does NOT certify nowhere-density at this level; use
    certify_nowhere_dense for that.
    """
    gamma = frac(gamma)
    core = min_degree_subgraph(g, layer, _support(g, layer), _strictly_above(m))
    if not core:
        return None
    A, B = maximal_cut(g, layer, core)
    if not A or not B:
        return None
    A, B = peel_bipartite(g, layer, A, B, _strictly_above(m))
    if not A or not B:
        return None
    F = _code_graph(g.n, g._codes_between(layer, A, B))
    d = F._directed()
    # a connected component of a qualifying candidate has at least its
    # density, so search components and keep the densest qualifying one
    best = None
    best_key = None
    for comp in _components(F.adj("G"), _support(F, "G")):
        inside = _mask(comp, g.n)[d.u]
        cand = DenseSpot._from_arrays(comp & A, comp & B, d.u[inside], d.v[inside], m, gamma)
        if is_dense_spot(cand).ok:
            dens = Fraction(cand._ends[0].size, len(cand.U) * len(cand.W))
            key = (-dens, min(cand.vertices()))
            if best is None or key < best_key:
                best, best_key = cand, key
    return best


def _components(adj, vertices) -> list:
    """The connected components, by least vertex, of the graph that the
    neighbour sets adj induce on the frozenset vertices."""
    todo = set(vertices)
    comps = []
    while todo:
        start = min(todo)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v] & vertices:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        todo -= comp
        comps.append(frozenset(comp))
    return comps


def certify_nowhere_dense(g: LayeredGraph, layer, m, gamma, mode="exact",
                          cap: int = EXACT_ND_CAP) -> Report:
    """Decide (exact mode) or probe (heuristic mode) for (m, gamma)-spots.

    Exact mode enumerates bipartitions of connected subsets of the
    (m+1)-core with pruning; a connected qualifying spot exists iff any
    qualifying spot exists, and for fixed sides the full induced bipartite
    graph dominates every sub-selection of edges, so this is a decision.
    """
    gamma = frac(gamma)
    rep = Report("nowhere-dense")
    if mode == "heuristic":
        spot = extract_dense_spot(g, layer, m, gamma)
        rep.add("no spot found (heuristic)", spot is None,
                note="heuristic failure is not a certificate")
        rep.spot = spot
        return rep
    if g.n > cap:
        raise ValueError("exact mode capped at n <= %d (got n=%d)" % (cap, g.n))
    spot = _exact_spot_search(g, layer, m, gamma)
    rep.add("nowhere-dense (exact decision)", spot is None,
            note="" if spot is None else "found spot %r" % (spot,))
    rep.spot = spot
    return rep


def _exact_spot_search(g: LayeredGraph, layer, m, gamma):
    """Exhaustive connected-spot search; returns a spot or None."""
    m = frac(m)
    gamma = frac(gamma)
    core = min_degree_subgraph(g, layer, _support(g, layer), _strictly_above(m))
    if not core:
        return None
    adj = g.adj(layer)
    # a spot lives inside one connected component of the core
    for comp in _components(adj, core):
        found = _component_spot_search(adj, sorted(comp), m, gamma)
        if found:
            return found
    return None


def _component_spot_search(adj, comp, m, gamma):
    """Branch over assignments of comp to {out, U, W} with degree pruning."""
    order = sorted(comp, key=lambda v: -len(adj[v] & frozenset(comp)))
    t = len(order)
    nbrs = [adj[v] & frozenset(comp) for v in order]
    index = {v: i for i, v in enumerate(order)}
    # state per vertex: 0 = undecided, 1 = out, 2 = U, 3 = W
    state = [0] * t
    gp, gq = gamma.numerator, gamma.denominator

    def feasible(i):
        # every assigned U/W vertex must still be able to reach degree > m
        for j in range(i):
            if state[j] in (2, 3):
                want = 3 if state[j] == 2 else 2
                have = potential = 0
                for u in nbrs[j]:
                    k = index[u]
                    if k < i:
                        if state[k] == want:
                            have += 1
                    else:
                        potential += 1
                if have + potential <= m:
                    return False
        return True

    def leaf_check():
        U = [order[j] for j in range(t) if state[j] == 2]
        W = [order[j] for j in range(t) if state[j] == 3]
        if not U or not W:
            return None
        Uset, Wset = frozenset(U), frozenset(W)
        F = []
        for j in range(t):
            if state[j] == 2:
                for u in nbrs[j] & Wset:
                    F.append(norm_edge(order[j], u))
        if not F:
            return None
        # mindeg > m on both sides
        degs = {}
        for a, b in F:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        if any(v not in degs or degs[v] <= m for v in Uset | Wset):
            return None
        if len(F) * gq <= gp * len(Uset) * len(Wset):
            return None
        return DenseSpot(Uset, Wset, F, m, gamma)

    def rec(i):
        if i == t:
            return leaf_check()
        for choice in (2, 3, 1):
            # symmetry breaking: the first non-out vertex goes to U only
            if choice == 3 and not any(s in (2, 3) for s in state[:i]):
                continue
            state[i] = choice
            if feasible(i + 1):
                found = rec(i + 1)
                if found:
                    return found
            state[i] = 0
        return None

    return rec(0)


def greedy_dense_cover(g: LayeredGraph, layer, m, gamma):
    """Repeatedly extract spots from the remaining edges.

    Returns (DenseCover, residual edge set); spots are edge-disjoint by
    construction, and the residual is empty iff a true dense cover of the
    layer was achieved.
    """
    remaining = g._codes(layer)
    spots = []
    while True:
        spot = extract_dense_spot(_code_graph(g.n, remaining), "G", m, gamma)
        if spot is None:
            break
        spots.append(spot)
        remaining = np.setdiff1d(remaining, _spot_codes(spot, g.n), assume_unique=True)
    return DenseCover(spots), _edge_tuples(remaining, g.n)


def check_avoiding(g: LayeredGraph, spots, E, Lambda, eps, gamma, k,
                   adversary="sampled", seed: int = 0, trials: int = 60) -> Report:
    """Avoiding-set check for E with respect to a spot family.

    For each tested U with |U| <= Lambda*k, a vertex v of E fails if no
    spot containing v has |U intersect V(spot)| <= gamma^2 k; the test
    passes iff every tested U leaves at most eps*k failures.  Exhaustive
    mode enumerates all U (n <= 16 only); the sampled adversary draws
    random subsets, unions of spot sides, and high-degree prefixes.
    """
    eps, gamma, Lambda, k = frac(eps), frac(gamma), frac(Lambda), frac(k)
    E = frozenset(E)
    rep = Report("avoiding set")
    spot_list = list(spots)
    vset = [s.vertices() for s in spot_list]
    covered = frozenset().union(*vset) if vset else frozenset()
    if not E <= covered:
        rep.add("E inside union of spot vertex sets", False,
                note="%d vertices of E uncovered" % len(E - covered))
        return rep
    rep.add("E inside union of spot vertex sets", True)
    if not E:
        rep.add("every tested U leaves <= eps*k failures", True, measured=0,
                note="E empty: vacuous")
        rep.worst = (frozenset(), frozenset())
        return rep

    budget = Lambda * k
    cap2 = gamma * gamma * k

    def failures(U):
        out = []
        for v in E:
            ok = any(v in vs and len(U & vs) <= cap2 for vs in vset)
            if not ok:
                out.append(v)
        return frozenset(out)

    candidates = []
    if adversary == "exhaustive":
        if g.n > 16:
            raise ValueError("exhaustive avoiding check capped at n <= 16")
        verts = sorted(range(g.n))
        for mask in range(1 << g.n):
            U = frozenset(verts[i] for i in range(g.n) if mask >> i & 1)
            if len(U) <= budget:
                candidates.append(U)
    else:
        rng = split_rng(seed, "avoiding")
        size = int(budget)
        verts = sorted(range(g.n))
        by_degree = np.argsort(-g._degrees("G"), kind="stable").tolist()
        for i in range(trials):
            kind = i % 3
            if kind == 0 and size > 0:
                U = frozenset(rng.sample(verts, min(size, g.n)))
            elif kind == 1 and vset:
                sides = []
                for s in spot_list:
                    sides.extend([s.U, s.W])
                pick = rng.sample(sides, min(len(sides), 1 + rng.randrange(2)))
                U = frozenset().union(*pick)
                U = frozenset(sorted(U)[:size]) if len(U) > budget else U
            else:
                U = frozenset(by_degree[:min(size, g.n)])
            if len(U) <= budget:
                candidates.append(U)
        candidates.append(frozenset())

    worst_U, worst_fail = frozenset(), frozenset()
    for U in candidates:
        f = failures(U)
        if len(f) > len(worst_fail):
            worst_U, worst_fail = U, f
    rep.check_le("every tested U leaves <= eps*k failures", len(worst_fail), eps * k)
    rep.add("tested U count", None, measured=len(candidates))
    rep.worst = (worst_U, worst_fail)
    return rep


def clean_spots(g: LayeredGraph, spots, E, clusters, gamma, k, rho,
                reg_layer="G_reg") -> tuple:
    """Discard-and-peel pass that absorbs a spot family into captured edges.

    Spots losing at least a sqrt(gamma)-fraction of their edges to the
    uncaptured part are discarded; each survivor keeps only captured edges
    and is peeled at the static thresholds gamma^2 b / 4 and gamma^2 a / 4
    (a, b the original side sizes).  Output spots are evaluated against the
    (gamma^3 k/4, gamma/2) clauses; edge-loss property 1 is reported against
    rho*k*n, not asserted.
    """
    gamma, k, rho = frac(gamma), frac(k), frac(rho)
    E = frozenset(E)
    captured = _union_codes(g._codes(reg_layer),
                            g._codes_between("G", E, E.union(*clusters)))

    def is_captured(lo, hi):
        return (lo >= 0) & (hi < g.n) & _isin_sorted(_encode(lo, hi, g.n), captured)

    rep = Report("clean-spots")
    out_spots = []
    absorption = []
    root_gamma = sqrt_val(gamma)
    for idx, D in enumerate(spots):
        lo, hi = D._ends
        keep = is_captured(lo, hi)
        # discard rule: |uncaptured| >= sqrt(gamma) * e(D), exactly
        if root_gamma * lo.size <= lo.size - int(np.count_nonzero(keep)):
            absorption.append((idx, None))
            continue
        a, b = len(D.U), len(D.W)
        thr_u = gamma * gamma * b / 4  # static: original side sizes
        thr_w = gamma * gamma * a / 4
        lo, hi = _peel(D, lo[keep], hi[keep], thr_u, thr_w)
        if lo.size:
            support = set(lo.tolist()) | set(hi.tolist())
            new = DenseSpot._from_arrays(D.U & support, D.W & support, lo, hi,
                                         gamma ** 3 * k / 4, gamma / 2)
            out_spots.append(new)
            absorption.append((idx, new))
        else:
            absorption.append((idx, None))

    lost = sum(D._ends[0].size for D in spots) - sum(s._ends[0].size for s in out_spots)
    rep.check_le("property 1: |E(D) \\ E(D_nabla)| <= rho k n", lost,
                 rho * k * g.n, note="reported, not asserted")
    prop2 = all(is_captured(*s._ends).all() for s in out_spots)
    rep.add("property 2: output edges captured", prop2)
    dense_ok = all(is_dense_spot(s).ok for s in out_spots)
    rep.add("outputs are (gamma^3 k/4, gamma/2)-dense", dense_ok)
    out_codes = np.concatenate([_NO_CODES] + [_spot_codes(s, g.n) for s in out_spots])
    rep.add("outputs edge-disjoint", not _has_repeats(np.sort(out_codes)))
    absorbed = all(new.absorbed_by(spots[idx]) for idx, new in absorption
                   if new is not None)
    rep.add("absorption recorded", absorbed)
    rep.absorption = absorption
    return DenseCover(out_spots), rep


def _peel(D: DenseSpot, lo, hi, thr_u, thr_w) -> tuple:
    """The edges (lo, hi) left after peeling D's sides: sweep U, then W, in
    increasing order, removing each vertex with fewer than thr_u (on U) or
    thr_w (on W) edges left and its edges, until a sweep removes nothing."""
    ends = lo.tolist() + hi.tolist()
    degs = Counter(ends)
    U, W = set(D.U).intersection(degs), set(D.W).intersection(degs)
    if all(degs[v] >= thr_u for v in U) and all(degs[v] >= thr_w for v in W):
        return lo, hi
    incident = {}  # vertex -> indices of its edges
    for i, v in enumerate(ends):
        incident.setdefault(v, []).append(i % lo.size)
    alive = [True] * lo.size
    changed = True
    while changed:
        changed = False
        for side, thr in ((U, thr_u), (W, thr_w)):
            for v in sorted(side):
                if degs[v] < thr:
                    side.remove(v)
                    for i in incident.get(v, ()):
                        if alive[i]:
                            alive[i] = False
                            degs[ends[i]] -= 1
                            degs[ends[i + lo.size]] -= 1
                    changed = True
    keep = np.array(alive, dtype=bool)
    return lo[keep], hi[keep]
