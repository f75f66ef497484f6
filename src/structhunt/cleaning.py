"""The five cleaning algorithms: deterministic discard loops with verifiers.

Each operation repeatedly discards vertices violating its minimum/maximum
degree conditions until a full sweep removes nothing, then evaluates every
conclusion of the corresponding statement.  The by-construction conclusions
hold on every input; the edge-count conclusions are analytic and are only
asserted when the hypotheses held, but they are always measured.

Discard order is pinned for reproducibility: sets in index order, vertices
ascending, conditions in listed order.  Hypothesis failures never abort: the
algorithms are total and out-of-regime runs are part of normal operation.

A sweep is a sequence of steps; a step sweeps one live set under an ordered
list of rules, each a degree bound into a reference set.  No step removes
from its own reference sets, so they are fixed while it runs, and one degree
array per rule gives exactly the removals, order and labels of testing one
vertex at a time.  Every bound is turned into an integer once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import (RootVal, ceil_val, cmp_ge, cmp_le, frac, floor_val,
                        sqrt_val)
from .graphcore import LayeredGraph
from .regularity import (RegularizedMatching, Sampled, check_super_regular,
                         validate_regularized_matching)
from .report import Report


@dataclass
class CleaningReport:
    hypotheses: Report
    conclusions: Report
    trace: list           # ordered (vertex-or-pair, set-name, condition)
    iterations: int = 0

    def render(self) -> str:
        out = [self.hypotheses.render(), self.conclusions.render(),
               "iterations: %d" % self.iterations,
               "removals: %d" % len(self.trace)]
        return "\n".join(out)


def _sweep(g: LayeredGraph, live, rules) -> list:
    """The members of live that fail a rule, ascending, each with the label
    of the first rule it fails.

    A rule is (label, layer, ref, bound, below): v passes it when
    deg(v, ref) >= bound, or deg(v, ref) < bound when below is true.  Each
    rule is one _degrees read; an id outside 0..n-1 raises ValueError."""
    xs = sorted(live)
    first = np.full(len(xs), len(rules))
    for i in reversed(range(len(rules))):  # the first failed rule is written last
        _label, layer, ref, bound, below = rules[i]
        deg = g._degrees_of(layer, xs, ref)
        first[deg >= bound if below else deg < bound] = i
    return [(v, rules[i][0]) for v, i in zip(xs, first.tolist()) if i < len(rules)]


def _drop(live: set, name: str, found: list, trace: list) -> bool:
    """Remove the vertices _sweep found from live and trace them."""
    for v, label in found:
        live.remove(v)
        trace.append((v, name, label))
    return bool(found)


def _chain(g: LayeredGraph, layers, Xs, Xp: list, back: int, forward: int,
           first: int, labels) -> tuple:
    """The sweep loop of clean-C+yellow and clean-yellow; layers[i] joins
    X_i and X_i+1.  X_i' (i >= 1) keeps degree >= back into X_i-1', X_i'
    (i < r) degree < forward into X_i+1 - X_i+1', and X_0' degree >= first
    into X_1', the rules labelled in that order.  Returns (trace,
    iterations)."""
    trace, iterations, changed = [], 0, True
    while changed:
        changed = False
        iterations += 1
        for i in range(len(Xp)):
            rules = [(labels[0], layers[i - 1], Xp[i - 1], back, False)] if i else []
            if i < len(Xp) - 1:
                rules.append((labels[1], layers[i], Xs[i + 1] - Xp[i + 1], forward, True))
            if i == 0:
                rules.append((labels[2], layers[0], Xp[1], first, False))
            changed |= _drop(Xp[i], "X%d'" % i, _sweep(g, Xp[i], rules), trace)
    return trace, iterations


def _min_ok(g: LayeredGraph, layer, X, ref, bound: int) -> bool:
    """deg(v, ref) >= bound for every v in X."""
    low = g.mindeg(layer, X, ref)
    return low is None or low >= bound


def _max_ok(g: LayeredGraph, layer, X, ref, bound: int) -> bool:
    """deg(v, ref) < bound for every v in X."""
    return not X or g.maxdeg(layer, X, ref) < bound


def envelope(g: LayeredGraph, layer, P, Q, Y, psi, Gamma, Omega, k) -> tuple:
    """Distill P' and nested Q'' from Q so that P'-Q'' degrees are large while
    Q' and Q'' see little of what was discarded.

    Conclusions: (a) mindeg(P', Q'') >= (psi^3 Omega / 4 Gamma^2) k;
    (b) maxdeg(Q', P - P') < psi k; (c) maxdeg(Q'', Q - Q') < psi k;
    (d) e(P', Q'') >= (1 - psi) e(P, Q) - (2 |Y cap Q| Gamma^2 / psi) k.
    """
    psi, Gamma, Omega, k = frac(psi), frac(Gamma), frac(Omega), frac(k)
    P, Q, Y = frozenset(P), frozenset(Q), frozenset(Y)
    if P & Q:
        raise ValueError("P and Q overlap")

    hyp = Report("envelope hypotheses")
    hyp.check_ge("mindeg(P,Q) >= Omega k", g.mindeg(layer, P, Q) or 0, Omega * k)
    hyp.check_le("maxdeg(Q) <= Gamma k", g.maxdeg(layer, Q), Gamma * k)

    a_bound = psi**3 * Omega / (4 * Gamma**2) * k
    psi_k = psi * k
    a_min, psi_c = ceil_val(a_bound), ceil_val(psi_k)
    Pp = set(P)
    Qp = set(Q - Y)
    Qpp = set(Qp)
    trace = []
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = _drop(Pp, "P'", _sweep(g, Pp, [("(a)", layer, Qpp, a_min, False)]),
                        trace)
        for v, label in _sweep(g, Qp, [("(b)", layer, P - Pp, psi_c, True)]):
            Qp.remove(v)
            trace.append((v, "Q'", label))
            if v in Qpp:
                Qpp.remove(v)
                trace.append((v, "Q''", "cascade"))
            changed = True
        changed |= _drop(Qpp, "Q''",
                         _sweep(g, Qpp, [("(c)", layer, Q - Qp, psi_c, True)]), trace)

    Pp, Qp, Qpp = frozenset(Pp), frozenset(Qp), frozenset(Qpp)
    conc = Report("envelope conclusions")
    conc.add("(a) mindeg(P',Q'') >= psi^3 Omega k/(4 Gamma^2)",
             _min_ok(g, layer, Pp, Qpp, a_min), needed=a_bound)
    conc.add("(b) maxdeg(Q', P-P') < psi k",
             _max_ok(g, layer, Qp, P - Pp, psi_c), needed=psi_k)
    conc.add("(c) maxdeg(Q'', Q-Q') < psi k",
             _max_ok(g, layer, Qpp, Q - Qp, psi_c), needed=psi_k)
    e_before = g.e_ordered(layer, P, Q)
    e_after = g.e_ordered(layer, Pp, Qpp)
    d_bound = (1 - psi) * e_before - 2 * len(Y & Q) * Gamma**2 / psi * k
    conc.add("(d) e(P',Q'') >= (1-psi) e(P,Q) - 2|Y cap Q| Gamma^2 k/psi" +
             ("" if hyp.ok else " [hyp failed]"),
             e_after >= d_bound if hyp.ok else None,
             measured=e_after, needed=d_bound)
    return Pp, Qp, Qpp, CleaningReport(hyp, conc, trace, iterations)


def clean_c_plus_yellow(g: LayeredGraph, layer, Xs, Y, r, omega_star,
                        omega_sstar, delta, gamma, eta, k) -> tuple:
    """Chain cleaning toward the huge-degree configurations.

    Xs = (X_0, ..., X_r).  Conclusions: (a) X_1' avoids Y; (b) chain mindeg
    >= delta k; (c) forward maxdeg into discarded < gamma k / 2;
    (d) mindeg(X_0', X_1') >= sqrt(Omega**) k; (e) e(X_0', X_1') >= eta k n/2.
    omega_sstar may be a RootVal; its square root is compared exactly.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if len(Xs) != r + 1:
        raise ValueError("expected r+1 sets")
    delta, gamma, eta, k = frac(delta), frac(gamma), frac(eta), frac(k)
    omega_star = frac(omega_star)
    Y = frozenset(Y)
    n = g.n

    hyp = Report("clean-C+yellow hypotheses")
    side = (3 * omega_star / gamma) ** r * delta
    hyp.add("side condition (3 Omega*/gamma)^r delta < eta/10", side < eta / 10,
            measured=side, needed=eta / 10)
    hyp.add("Omega** > 1000", not cmp_le(omega_sstar, 1000), measured=omega_sstar)
    hyp.add("1. |Y| < eta n/(4 Omega*)", len(Y) < eta * n / (4 * omega_star),
            measured=len(Y), needed=eta * n / (4 * omega_star))
    hyp.check_ge("2. e(X0,X1) >= eta k n", g.e_ordered(layer, Xs[0], Xs[1]),
                 eta * k * n)
    hyp.add("3. mindeg(X0,X1) >= Omega** k",
            _min_ok(g, layer, Xs[0], Xs[1], ceil_val(omega_sstar * k)))
    gamma_c = ceil_val(gamma * k)
    hyp.add("4. chain mindeg(X_i, X_i+1) >= gamma k",
            all(_min_ok(g, layer, Xs[i], Xs[i + 1], gamma_c) for i in range(1, r)))
    big = Y.union(*Xs[1:])
    hyp.check_le("5. maxdeg(Y + X_1..X_r) <= Omega* k",
                 g.maxdeg(layer, big), omega_star * k)

    sqrt_bound = (omega_sstar.sqrt() if isinstance(omega_sstar, RootVal)
                  else sqrt_val(omega_sstar)) * k
    delta_k, half_gamma_k = delta * k, gamma * k / 2
    sqrt_c, delta_c, half_gamma_c = (ceil_val(sqrt_bound), ceil_val(delta_k),
                                     ceil_val(half_gamma_k))
    Xp = [set(X) for X in Xs]
    Xp[1] -= Y
    trace, iterations = _chain(g, [layer] * r, Xs, Xp, delta_c, half_gamma_c, sqrt_c,
                               ("(b)", "(c)", "(d)"))

    Xp = [frozenset(X) for X in Xp]
    conc = Report("clean-C+yellow conclusions")
    conc.add("(a) X1' avoids Y", not (Xp[1] & Y))
    conc.add("(b) mindeg(X_i',X_i-1') >= delta k",
             all(_min_ok(g, layer, Xp[i], Xp[i - 1], delta_c)
                 for i in range(1, r + 1)), needed=delta_k)
    conc.add("(c) maxdeg(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(_max_ok(g, layer, Xp[i], Xs[i + 1] - Xp[i + 1], half_gamma_c)
                 for i in range(r)), needed=half_gamma_k)
    conc.add("(d) mindeg(X0',X1') >= sqrt(Omega**) k",
             _min_ok(g, layer, Xp[0], Xp[1], sqrt_c))
    e_after = g.e_ordered(layer, Xp[0], Xp[1])
    conc.add("(e) e(X0',X1') >= eta k n/2" + ("" if hyp.ok else " [hyp failed]"),
             e_after >= eta * k * n / 2 if hyp.ok else None,
             measured=e_after, needed=eta * k * n / 2)
    return tuple(Xp), CleaningReport(hyp, conc, trace, iterations)


def clean_c_plus_black(g: LayeredGraph, layer, X0, X1, Y, clusters, delta, eta,
                       omega_star, omega_sstar, h, k) -> tuple:
    """Cluster-respecting cleaning: X1' meets every cluster in 0 or >= h
    vertices while keeping the X0'-X1' degrees two-sided."""
    delta, eta, k = frac(delta), frac(eta), frac(k)
    omega_star = frac(omega_star)
    X0, X1, Y = frozenset(X0), frozenset(X1), frozenset(Y)
    n = g.n

    hyp = Report("clean-C+black hypotheses")
    sq = omega_sstar.sqrt() if isinstance(omega_sstar, RootVal) else sqrt_val(omega_sstar)
    # 20 (delta + 2/sqrt(Omega**)) < eta  <=>  sqrt(Omega**) (eta/20 - delta) > 2
    margin = eta / 20 - delta
    hyp.add("1. 20(delta + 2/sqrt(Omega**)) < eta",
            margin > 0 and sq * margin > 2)
    e01 = g.e_ordered(layer, X0, X1)
    hyp.add("2. eta k n <= e(X0,X1) <= 2 k n",
            eta * k * n <= e01 <= 2 * k * n, measured=e01)
    hyp.add("3. mindeg(X0,X1) >= Omega** k",
            _min_ok(g, layer, X0, X1, ceil_val(omega_sstar * k)))
    hyp.check_le("4. maxdeg(X1) <= Omega* k", g.maxdeg(layer, X1), omega_star * k)
    hyp.add("5. |Y| < eta n/(4 Omega*)", len(Y) < eta * n / (4 * omega_star),
            measured=len(Y), needed=eta * n / (4 * omega_star))
    budget = (10 * len(clusters) * omega_star) * h if isinstance(h, RootVal) \
        else 10 * frac(h) * len(clusters) * omega_star
    hyp.add("6. 10 h |C| Omega* < eta n", not cmp_ge(budget, eta * n),
            measured=budget, needed=eta * n)

    sqrt_bound, delta_k = sq * k, delta * k
    sqrt_c, delta_c, h_c = ceil_val(sqrt_bound), ceil_val(delta_k), ceil_val(h)
    clusters = [frozenset(C) for C in clusters]
    X0p = set(X0)
    X1p = set(X1 - Y)
    trace = []
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = _drop(X0p, "X0'", _sweep(g, X0p, [("(a)", layer, X1p, sqrt_c, False)]),
                        trace)
        changed |= _drop(X1p, "X1'",
                         _sweep(g, X1p, [("(b)", layer, X0p, delta_c, False)]), trace)
        for ci, C in enumerate(clusters):  # clusters may overlap: one at a time
            inter = C & X1p
            if inter and len(inter) < h_c:
                changed = _drop(X1p, "X1'", [(v, "(c) cluster %d" % ci)
                                             for v in sorted(inter)], trace)

    X0p, X1p = frozenset(X0p), frozenset(X1p)
    conc = Report("clean-C+black conclusions")
    conc.add("(a) mindeg(X0',X1') >= sqrt(Omega**) k",
             _min_ok(g, layer, X0p, X1p, sqrt_c))
    conc.add("(b) mindeg(X1',X0') >= delta k",
             _min_ok(g, layer, X1p, X0p, delta_c), needed=delta_k)
    conc.add("(c) every cluster meets X1' in 0 or >= h vertices",
             all(not 0 < len(C & X1p) < h_c for C in clusters), needed=h)
    e_after = g.e_ordered(layer, X0p, X1p)
    conc.add("(d) e(X0',X1') >= eta k n/2" + ("" if hyp.ok else " [hyp failed]"),
             e_after >= eta * k * n / 2 if hyp.ok else None,
             measured=e_after, needed=eta * k * n / 2)
    return X0p, X1p, CleaningReport(hyp, conc, trace, iterations)


def clean_yellow(g: LayeredGraph, layers, Xs, Y, r, omega, gamma, delta, eta,
                 k) -> tuple:
    """Per-level cleaning with one edge set per chain link.

    layers = (E_1, ..., E_r); deg_i refers to E_i, connecting X_i-1 to X_i.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if len(Xs) != r + 1 or len(layers) != r:
        raise ValueError("expected r+1 sets and r edge layers")
    delta, gamma, eta, k = frac(delta), frac(gamma), frac(eta), frac(k)
    omega = frac(omega)
    Y = frozenset(Y)
    n = g.n

    hyp = Report("clean-yellow hypotheses")
    side = (8 * omega / gamma) ** r * delta
    hyp.add("side condition (8 Omega/gamma)^r delta <= eta/10", side <= eta / 10,
            measured=side, needed=eta / 10)
    hyp.add("1. |Y| < delta n", len(Y) < delta * n, measured=len(Y),
            needed=delta * n)
    hyp.check_ge("2. e_1(X0,X1) >= eta k n", g.e_ordered(layers[0], Xs[0], Xs[1]),
                 eta * k * n)
    gamma_c = ceil_val(gamma * k)
    hyp.add("3. mindeg_i+1(X_i - Y, X_i+1) >= gamma k",
            all(_min_ok(g, layers[i], Xs[i] - Y, Xs[i + 1], gamma_c)
                for i in range(1, r)))
    hyp.add("4. maxdeg_i+1(X_i), maxdeg_i+1(X_i+1) <= Omega k",
            all(g.maxdeg(layers[i], Xs[i]) <= omega * k and
                g.maxdeg(layers[i], Xs[i + 1]) <= omega * k for i in range(r)))

    delta_k, half_gamma_k = delta * k, gamma * k / 2
    delta_c, half_gamma_c = ceil_val(delta_k), ceil_val(half_gamma_k)
    Xp = [set(X - Y) for X in Xs]
    trace, iterations = _chain(g, layers, Xs, Xp, delta_c, half_gamma_c, delta_c,
                               ("(a)", "(b)", "(c)"))

    Xp = [frozenset(X) for X in Xp]
    conc = Report("clean-yellow conclusions")
    conc.add("(a) mindeg_i(X_i',X_i-1') >= delta k",
             all(_min_ok(g, layers[i - 1], Xp[i], Xp[i - 1], delta_c)
                 for i in range(1, r + 1)), needed=delta_k)
    conc.add("(b) maxdeg_i+1(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(_max_ok(g, layers[i], Xp[i], Xs[i + 1] - Xp[i + 1], half_gamma_c)
                 for i in range(r)), needed=half_gamma_k)
    conc.add("(c) mindeg_1(X0',X1') >= delta k",
             _min_ok(g, layers[0], Xp[0], Xp[1], delta_c))
    e_after = g.e_ordered(layers[0], Xp[0], Xp[1])
    conc.add("(d) e_1(X0',X1') >= eta k n/2" + ("" if hyp.ok else " [hyp failed]"),
             e_after >= eta * k * n / 2 if hyp.ok else None,
             measured=e_after, needed=eta * k * n / 2)
    conc.add("X_i' avoid Y", all(not (X & Y) for X in Xp))
    return tuple(Xp), CleaningReport(hyp, conc, trace, iterations)


def clean_match(g: LayeredGraph, layers, Xs, Y, partitions, r, omega, gamma,
                eta, delta, eps, mu, d, k, recert_cap: int = 12) -> tuple:
    """Matching-aware cleaning yielding super-regular surviving pairs.

    partitions = list of (P0_j, P1_j) partitioning X_0 and X_1 and forming an
    (eps, d, mu k)-regularized matching w.r.t. E_1.  Eviction removes
    vertices whose pair-internal degree drops to d |P|/4 or below; pairs
    losing a quarter of a side to Y (or to forward-discards on side 1) are
    flushed whole.  Survivors are re-certified (4 eps, d/4)-super-regular.

    Returns (pair family {(Q0_j, Q1_j)}, X', CleaningReport); X0'/X1' are the
    unions of the surviving pair sides.  X0a/X1a eviction sets are both
    tracked and reported.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if len(Xs) != r + 1 or len(layers) != r:
        raise ValueError("expected r+1 sets and r edge layers")
    delta, gamma, eta, k = frac(delta), frac(gamma), frac(eta), frac(k)
    omega, eps, mu, d = frac(omega), frac(eps), frac(mu), frac(d)
    Y = frozenset(Y)
    n = g.n

    for j, (P0, P1) in enumerate(partitions):
        if not (frozenset(P0) <= Xs[0] and frozenset(P1) <= Xs[1]):
            raise ValueError("partition pair %d leaves X_0/X_1" % j)
    u0 = frozenset().union(*[frozenset(p[0]) for p in partitions]) if partitions else frozenset()
    u1 = frozenset().union(*[frozenset(p[1]) for p in partitions]) if partitions else frozenset()
    if u0 != frozenset(Xs[0]) or u1 != frozenset(Xs[1]):
        raise ValueError("partitions do not partition X_0/X_1")

    hyp = Report("clean-Match hypotheses")
    hyp.add("side condition 20 eps < d", 20 * eps < d)
    side = (8 * omega / gamma) ** r * delta
    hyp.add("side condition (8 Omega/gamma)^r delta <= eta/30", side <= eta / 30,
            measured=side, needed=eta / 30)
    hyp.add("1. |Y| < delta n", len(Y) < delta * n, measured=len(Y),
            needed=delta * n)
    hyp.check_ge("2. |X1| >= eta n", len(Xs[1]), eta * n)
    gamma_c = ceil_val(gamma * k)
    hyp.add("3. mindeg_i+1(X_i - Y, X_i+1) >= gamma k",
            all(_min_ok(g, layers[i], Xs[i] - Y, Xs[i + 1], gamma_c)
                for i in range(1, r)))
    pm = RegularizedMatching(partitions, eps, d, mu * k, layers[0])
    hyp.add("4. partitions form an (eps,d,mu k)-regularized matching w.r.t. E_1",
            validate_regularized_matching(pm, g, layers[0],
                                          mode="exact" if max((len(a) for a, _ in partitions),
                                                              default=0) <= recert_cap
                                          else Sampled(300, 0)).ok)
    hyp.add("5. maxdeg_i+1(X_i), maxdeg_i+1(X_i+1) <= Omega k",
            all(g.maxdeg(layers[i], Xs[i]) <= omega * k and
                g.maxdeg(layers[i], Xs[i + 1]) <= omega * k for i in range(r)))

    delta_k, half_gamma_k = delta * k, gamma * k / 2
    delta_c, half_gamma_c = ceil_val(delta_k), ceil_val(half_gamma_k)
    # a vertex is evicted at degree <= d |P|/4 into the other side P
    pairs = [(frozenset(P0), frozenset(P1)) for P0, P1 in partitions]
    keep = [(floor_val(d * len(P1) / 4) + 1, floor_val(d * len(P0) / 4) + 1)
            for P0, P1 in pairs]
    Xp = [set(X - Y) for X in Xs]
    flushed = set()           # pair indices in J
    X1c = set()               # side-1 forward-discards, feeds the flush rule
    Xa = (set(), set())       # eviction sets per side
    trace = []
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for i in range(1, r):  # conclusion (b): X_{i+1}' against X_i'
            changed |= _drop(Xp[i + 1], "X%d'" % (i + 1), _sweep(
                g, Xp[i + 1], [("(b)", layers[i], Xp[i], delta_c, False)]), trace)
        for i in range(1, r):  # conclusion (c): X_i' forward degrees
            found = _sweep(g, Xp[i], [("(c)", layers[i], Xs[i + 1] - Xp[i + 1],
                                       half_gamma_c, True)])
            changed |= _drop(Xp[i], "X%d'" % i, found, trace)
            if i == 1:
                X1c.update(v for v, _ in found)
        for j, P in enumerate(pairs):
            if j in flushed:
                continue
            for i in (0, 1):  # side 1 reads side 0 after its evictions
                found = _sweep(g, Xp[i] & P[i], [("eviction pair %d" % j, layers[0],
                                                  Xp[1 - i] & P[1 - i], keep[j][i],
                                                  False)])
                changed |= _drop(Xp[i], "X%d'" % i, found, trace)
                Xa[i].update(v for v, _ in found)
        for j, P in enumerate(pairs):
            if j not in flushed and (4 * len(P[0] & Y) > len(P[0]) or
                                     4 * len(P[1] & (Y | X1c)) > len(P[1])):
                flushed.add(j)
                for i in (0, 1):
                    _drop(Xp[i], "X%d'" % i, [(v, "flush pair %d" % j)
                                              for v in sorted(P[i] & Xp[i])], trace)
                changed = True

    qpairs = [(P0 & frozenset(Xp[0]), P1 & frozenset(Xp[1]))
              for j, (P0, P1) in enumerate(pairs) if j not in flushed]
    Xp = [frozenset(X) for X in Xp]

    conc = Report("clean-Match conclusions")
    sizes_ok = all(len(q0) >= mu * k / 2 and len(q1) >= mu * k / 2
                   for q0, q1 in qpairs)
    conc.add("(a) |Q0_j|, |Q1_j| >= mu k/2", sizes_ok, needed=mu * k / 2)
    sr_ok = True
    sr_note = ""
    for j, (q0, q1) in enumerate(qpairs):
        if not q0 or not q1:
            sr_ok, sr_note = False, "pair %d emptied" % j
            break
        mode = "exact" if max(len(q0), len(q1)) <= recert_cap else Sampled(300, 0)
        rep = check_super_regular(g, layers[0], q0, q1, min(4 * eps, Fraction(1)),
                                  d / 4, mode=mode)
        if not rep.ok:
            sr_ok, sr_note = False, "pair %d: %s" % (j, "; ".join(
                ci.render() for ci in rep.failures()))
            break
    conc.add("(a) surviving pairs (4 eps, d/4)-super-regular", sr_ok, note=sr_note)
    conc.add("(b) mindeg_i+1(X_i+1',X_i') >= delta k",
             all(_min_ok(g, layers[i], Xp[i + 1], Xp[i], delta_c)
                 for i in range(1, r)), needed=delta_k)
    conc.add("(c) maxdeg_i+1(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(_max_ok(g, layers[i], Xp[i], Xs[i + 1] - Xp[i + 1], half_gamma_c)
                 for i in range(1, r)), needed=half_gamma_k)
    conc.add("X1' non-empty" + ("" if hyp.ok else " [hyp failed]"),
             bool(Xp[1]) if hyp.ok else None, measured=len(Xp[1]))
    conc.add("eviction sets", None,
             measured=(len(Xa[0]), len(Xa[1])),
             note="X0a and X1a tracked separately")
    report = CleaningReport(hyp, conc, trace, iterations)
    report.flushed_pairs = sorted(flushed)
    report.evictions = (frozenset(Xa[0]), frozenset(Xa[1]))
    return qpairs, Xp, report
