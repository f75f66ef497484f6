"""Per-vertex references for the five cleaning ops.

These are the discard loops as first written: every sweep asks
g.deg(layer, v, U) of one vertex at a time, recomputes set differences and
Fraction or RootVal bounds per vertex, and every hypothesis and conclusion
is an all(...) over the members of a set.  structhunt.cleaning computes the
same sets, reports, traces and iteration counts from one degree array per
rule and step with integer thresholds; the two share no sweep code, so they
cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction

from structhunt.cleaning import CleaningReport
from structhunt.exactmath import RootVal, cmp_ge, cmp_le, frac, sqrt_val
from structhunt.graphcore import LayeredGraph
from structhunt.regularity import (RegularizedMatching, Sampled, check_super_regular,
                                   validate_regularized_matching)
from structhunt.report import Report


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
    Pp = set(P)
    Qp = set(Q - Y)
    Qpp = set(Qp)
    trace = []
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for v in sorted(Pp):
            if g.deg(layer, v, Qpp) < a_bound:
                Pp.remove(v)
                trace.append((v, "P'", "(a)"))
                changed = True
        for v in sorted(Qp):
            if g.deg(layer, v, P - Pp) >= psi_k:
                Qp.remove(v)
                trace.append((v, "Q'", "(b)"))
                if v in Qpp:
                    Qpp.remove(v)
                    trace.append((v, "Q''", "cascade"))
                changed = True
        for v in sorted(Qpp):
            if g.deg(layer, v, Q - Qp) >= psi_k:
                Qpp.remove(v)
                trace.append((v, "Q''", "(c)"))
                changed = True

    Pp, Qp, Qpp = frozenset(Pp), frozenset(Qp), frozenset(Qpp)
    conc = Report("envelope conclusions")
    conc.add("(a) mindeg(P',Q'') >= psi^3 Omega k/(4 Gamma^2)",
             all(g.deg(layer, v, Qpp) >= a_bound for v in Pp),
             needed=a_bound)
    conc.add("(b) maxdeg(Q', P-P') < psi k",
             all(g.deg(layer, v, P - Pp) < psi_k for v in Qp), needed=psi_k)
    conc.add("(c) maxdeg(Q'', Q-Q') < psi k",
             all(g.deg(layer, v, Q - Qp) < psi_k for v in Qpp), needed=psi_k)
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
            all(cmp_ge(g.deg(layer, v, Xs[1]), omega_sstar * k) for v in Xs[0]))
    hyp.add("4. chain mindeg(X_i, X_i+1) >= gamma k",
            all(g.deg(layer, v, Xs[i + 1]) >= gamma * k
                for i in range(1, r) for v in Xs[i]))
    big = Y.union(*Xs[1:])
    hyp.check_le("5. maxdeg(Y + X_1..X_r) <= Omega* k",
                 g.maxdeg(layer, big), omega_star * k)

    sqrt_bound = (omega_sstar.sqrt() if isinstance(omega_sstar, RootVal)
                  else sqrt_val(omega_sstar)) * k
    delta_k, half_gamma_k = delta * k, gamma * k / 2
    Xp = [set(X) for X in Xs]
    Xp[1] -= Y
    trace = []
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for i in range(r + 1):
            for v in sorted(Xp[i]):
                if i >= 1 and g.deg(layer, v, Xp[i - 1]) < delta_k:
                    Xp[i].remove(v)
                    trace.append((v, "X%d'" % i, "(b)"))
                    changed = True
                    continue
                if i <= r - 1 and g.deg(layer, v, Xs[i + 1] - Xp[i + 1]) >= half_gamma_k:
                    Xp[i].remove(v)
                    trace.append((v, "X%d'" % i, "(c)"))
                    changed = True
                    continue
                if i == 0 and not cmp_ge(g.deg(layer, v, Xp[1]), sqrt_bound):
                    Xp[i].remove(v)
                    trace.append((v, "X0'", "(d)"))
                    changed = True

    Xp = [frozenset(X) for X in Xp]
    conc = Report("clean-C+yellow conclusions")
    conc.add("(a) X1' avoids Y", not (Xp[1] & Y))
    conc.add("(b) mindeg(X_i',X_i-1') >= delta k",
             all(g.deg(layer, v, Xp[i - 1]) >= delta_k
                 for i in range(1, r + 1) for v in Xp[i]), needed=delta_k)
    conc.add("(c) maxdeg(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(g.deg(layer, v, Xs[i + 1] - Xp[i + 1]) < half_gamma_k
                 for i in range(r) for v in Xp[i]), needed=half_gamma_k)
    conc.add("(d) mindeg(X0',X1') >= sqrt(Omega**) k",
             all(cmp_ge(g.deg(layer, v, Xp[1]), sqrt_bound) for v in Xp[0]))
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
            all(cmp_ge(g.deg(layer, v, X1), omega_sstar * k) for v in X0))
    hyp.check_le("4. maxdeg(X1) <= Omega* k", g.maxdeg(layer, X1), omega_star * k)
    hyp.add("5. |Y| < eta n/(4 Omega*)", len(Y) < eta * n / (4 * omega_star),
            measured=len(Y), needed=eta * n / (4 * omega_star))
    budget = (10 * len(clusters) * omega_star) * h if isinstance(h, RootVal) \
        else 10 * frac(h) * len(clusters) * omega_star
    hyp.add("6. 10 h |C| Omega* < eta n", not cmp_ge(budget, eta * n),
            measured=budget, needed=eta * n)

    sqrt_bound, delta_k = sq * k, delta * k
    X0p = set(X0)
    X1p = set(X1 - Y)
    trace = []
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for v in sorted(X0p):
            if not cmp_ge(g.deg(layer, v, X1p), sqrt_bound):
                X0p.remove(v)
                trace.append((v, "X0'", "(a)"))
                changed = True
        for v in sorted(X1p):
            if g.deg(layer, v, X0p) < delta_k:
                X1p.remove(v)
                trace.append((v, "X1'", "(b)"))
                changed = True
        for ci, C in enumerate(clusters):
            inter = frozenset(C) & X1p
            if inter and not cmp_ge(len(inter), h):
                for v in sorted(inter):
                    X1p.remove(v)
                    trace.append((v, "X1'", "(c) cluster %d" % ci))
                changed = True

    X0p, X1p = frozenset(X0p), frozenset(X1p)
    conc = Report("clean-C+black conclusions")
    conc.add("(a) mindeg(X0',X1') >= sqrt(Omega**) k",
             all(cmp_ge(g.deg(layer, v, X1p), sqrt_bound) for v in X0p))
    conc.add("(b) mindeg(X1',X0') >= delta k",
             all(g.deg(layer, v, X0p) >= delta_k for v in X1p),
             needed=delta_k)
    conc.add("(c) every cluster meets X1' in 0 or >= h vertices",
             all(not (frozenset(C) & X1p) or cmp_ge(len(frozenset(C) & X1p), h)
                 for C in clusters), needed=h)
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
    hyp.add("3. mindeg_i+1(X_i - Y, X_i+1) >= gamma k",
            all(g.deg(layers[i], v, Xs[i + 1]) >= gamma * k
                for i in range(1, r) for v in (Xs[i] - Y)))
    hyp.add("4. maxdeg_i+1(X_i), maxdeg_i+1(X_i+1) <= Omega k",
            all(g.maxdeg(layers[i], Xs[i]) <= omega * k and
                g.maxdeg(layers[i], Xs[i + 1]) <= omega * k for i in range(r)))

    delta_k, half_gamma_k = delta * k, gamma * k / 2
    Xp = [set(X - Y) for X in Xs]
    trace = []
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for i in range(r + 1):
            for v in sorted(Xp[i]):
                if i >= 1 and g.deg(layers[i - 1], v, Xp[i - 1]) < delta_k:
                    Xp[i].remove(v)
                    trace.append((v, "X%d'" % i, "(a)"))
                    changed = True
                    continue
                if i <= r - 1 and \
                        g.deg(layers[i], v, Xs[i + 1] - Xp[i + 1]) >= half_gamma_k:
                    Xp[i].remove(v)
                    trace.append((v, "X%d'" % i, "(b)"))
                    changed = True
                    continue
                if i == 0 and g.deg(layers[0], v, Xp[1]) < delta_k:
                    Xp[i].remove(v)
                    trace.append((v, "X0'", "(c)"))
                    changed = True

    Xp = [frozenset(X) for X in Xp]
    conc = Report("clean-yellow conclusions")
    conc.add("(a) mindeg_i(X_i',X_i-1') >= delta k",
             all(g.deg(layers[i - 1], v, Xp[i - 1]) >= delta_k
                 for i in range(1, r + 1) for v in Xp[i]), needed=delta_k)
    conc.add("(b) maxdeg_i+1(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(g.deg(layers[i], v, Xs[i + 1] - Xp[i + 1]) < half_gamma_k
                 for i in range(r) for v in Xp[i]), needed=half_gamma_k)
    conc.add("(c) mindeg_1(X0',X1') >= delta k",
             all(g.deg(layers[0], v, Xp[1]) >= delta_k for v in Xp[0]))
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
    hyp.add("3. mindeg_i+1(X_i - Y, X_i+1) >= gamma k",
            all(g.deg(layers[i], v, Xs[i + 1]) >= gamma * k
                for i in range(1, r) for v in (Xs[i] - Y)))
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
            for v in sorted(Xp[i + 1]):
                if g.deg(layers[i], v, Xp[i]) < delta_k:
                    Xp[i + 1].remove(v)
                    trace.append((v, "X%d'" % (i + 1), "(b)"))
                    changed = True
        for i in range(1, r):  # conclusion (c): X_i' forward degrees
            for v in sorted(Xp[i]):
                if g.deg(layers[i], v, Xs[i + 1] - Xp[i + 1]) >= half_gamma_k:
                    Xp[i].remove(v)
                    trace.append((v, "X%d'" % i, "(c)"))
                    if i == 1:
                        X1c.add(v)
                    changed = True
        for j, (P0, P1) in enumerate(partitions):
            if j in flushed:
                continue
            P0, P1 = frozenset(P0), frozenset(P1)
            for i, (Pi, Pother) in enumerate(((P0, P1), (P1, P0))):
                for v in sorted(Xp[i] & Pi):
                    if g.deg(layers[0], v, Xp[1 - i] & Pother) <= d * len(Pother) / 4:
                        Xp[i].remove(v)
                        Xa[i].add(v)
                        trace.append((v, "X%d'" % i, "eviction pair %d" % j))
                        changed = True
        for j, (P0, P1) in enumerate(partitions):
            if j in flushed:
                continue
            P0, P1 = frozenset(P0), frozenset(P1)
            if len(P0 & Y) > len(P0) / 4 or len(P1 & (Y | X1c)) > len(P1) / 4:
                flushed.add(j)
                for v in sorted(P0 & Xp[0]):
                    Xp[0].remove(v)
                    trace.append((v, "X0'", "flush pair %d" % j))
                for v in sorted(P1 & Xp[1]):
                    Xp[1].remove(v)
                    trace.append((v, "X1'", "flush pair %d" % j))
                changed = True

    survivors = [j for j in range(len(partitions)) if j not in flushed]
    qpairs = []
    for j in survivors:
        P0, P1 = partitions[j]
        q0 = frozenset(P0) & frozenset(Xp[0])
        q1 = frozenset(P1) & frozenset(Xp[1])
        qpairs.append((q0, q1))
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
             all(g.deg(layers[i], v, Xp[i]) >= delta_k
                 for i in range(1, r) for v in Xp[i + 1]), needed=delta_k)
    conc.add("(c) maxdeg_i+1(X_i', X_i+1 - X_i+1') < gamma k/2",
             all(g.deg(layers[i], v, Xs[i + 1] - Xp[i + 1]) < half_gamma_k
                 for i in range(1, r) for v in Xp[i]), needed=half_gamma_k)
    conc.add("X1' non-empty" + ("" if hyp.ok else " [hyp failed]"),
             bool(Xp[1]) if hyp.ok else None, measured=len(Xp[1]))
    conc.add("eviction sets", None,
             measured=(len(Xa[0]), len(Xa[1])),
             note="X0a and X1a tracked separately")
    report = CleaningReport(hyp, conc, trace, iterations)
    report.flushed_pairs = sorted(flushed)
    report.evictions = (frozenset(Xa[0]), frozenset(Xa[1]))
    return qpairs, Xp, report
