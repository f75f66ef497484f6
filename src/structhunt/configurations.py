"""Witness data types and exact checkers for the ten target configurations.

A ConfigurationWitness is a tagged payload of vertex sets / matchings /
families; verify_configuration evaluates every displayed inequality and
membership clause of the corresponding definition, returning a clause-by-
clause report.  Checkers never search: finding witnesses is the pipeline's
job.  Tags: club, heart1, heart2, exp, reg (preconfigurations) and D1..D10.

All "non-empty" demands of the definitions fail on empty payloads; "all but
at most eps|A| vertices" clauses are counted exactly with rational
thresholds, ties passing per "at most".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from .exactmath import ceil_val, cmp_ge, cmp_le, frac
from .graphcore import (LayeredGraph, _edge_layer, _isin_sorted, _mask,
                         _vertices_where)
from .regularity import (RegularizedGraph, RegularizedMatching, Sampled,
                         check_m_cover, check_super_regular,
                         validate_regularized_graph,
                         validate_regularized_matching)
from .report import Report
from .shadows import shadow

PRECONFIG_TAGS = ("club", "heart1", "heart2", "exp", "reg")
CONFIG_TAGS = tuple("D%d" % i for i in range(1, 11))
TAG_ALIASES = {"◊%d" % i: "D%d" % i for i in range(1, 11)}
TAG_ALIASES.update({"♣": "club", "♥1": "heart1", "♥2": "heart2"})


def _is_edge_field(tag: str, name: str) -> bool:
    """Does field name of a witness with this tag hold edges?"""
    return name in ("F_edges", "Gt_edges") or (name == "F" and tag == "D1")


@dataclass
class ConfigParams:
    """Per-configuration numeric parameters; only the used ones need values."""

    omega_star: object = None    # club degree threshold
    omega_tilde: object = None
    beta: object = None
    zeta: object = None
    delta: object = None
    pi_tilde: object = None
    gamma_prime: object = None
    h: object = None
    h1: object = None
    h2: object = None
    rho_prime: object = None
    eps1: object = None
    eps2: object = None
    d1: object = None
    d2: object = None
    mu1: object = None
    mu2: object = None
    eps_tilde: object = None
    d_prime: object = None
    mu: object = None
    ell1: object = None
    ell2: object = None
    eta_prime: object = None


class MissingField(KeyError):
    """A witness lacks a field its configuration requires."""


@dataclass
class ConfigurationWitness:
    tag: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tag = TAG_ALIASES.get(self.tag, self.tag)
        if self.tag not in PRECONFIG_TAGS + CONFIG_TAGS:
            raise ValueError("unknown witness tag %r" % (self.tag,))

    def __getitem__(self, key):
        try:
            return self.data[key]
        except KeyError:
            raise MissingField("witness %s missing field %r" % (self.tag, key)) from None

    def get(self, key, default=None):
        return self.data.get(key, default)


def _mindeg_clause(rep, g, layer, name, X, T, bound):
    """mindeg_layer(X, T) >= bound; vacuous for empty X."""
    if not X:
        rep.add(name, True, note="vacuous: empty source")
        return
    worst = g.mindeg(layer, X, frozenset(T))
    rep.add(name, cmp_ge(worst, bound), measured=worst, needed=bound)


def _maxdeg_clause(rep, g, layer, name, X, T, bound, strict=False):
    if not X:
        rep.add(name, True, note="vacuous: empty source")
        return
    worst = g.maxdeg(layer, X, frozenset(T))
    ok = (not cmp_ge(worst, bound)) if strict else cmp_le(worst, bound)
    rep.add(name, ok, measured=worst, needed=bound)


def _membership(rep, name, X, allowed):
    rep.add(name, frozenset(X) <= frozenset(allowed),
            note="" if frozenset(X) <= frozenset(allowed) else
            "%d stray vertices" % len(frozenset(X) - frozenset(allowed)))


def _nonempty(rep, name, X):
    rep.add("%s non-empty" % name, bool(X), measured=len(X))


def _large_nabla(b):
    """Vertices of G_nabla-degree at least (1 + 9 eta/10) k."""
    g, p = b.g, b.p
    thr = (1 + Fraction(9, 10) * p.eta) * p.k
    return _vertices_where(g._degrees("G_nabla") >= math.ceil(thr))


def _heart_membership_pool(b, split):
    """P0 minus (F + shadow_{G_D}(V_not_to_H, eta^2 k/1e5))."""
    g, p = b.g, b.p
    sh = shadow(g, "G_D", b.V_not_to_H, p.eta * p.eta * p.k / 10**5)
    return split.classes[0] - (split.F_shadow | sh)


def verify_preconfiguration(w: ConfigurationWitness, b, split, cp: ConfigParams,
                            mode="exact", cap: int = 12) -> Report:
    """Clause-by-clause check of one preconfiguration witness."""
    g, p = b.g, b.p
    k, eta = p.k, p.eta
    rep = Report("preconfiguration %s" % w.tag)
    if w.tag == "club":
        L2, L1, H1 = w["L2"], w["L1"], w["H1"]
        _nonempty(rep, "L''", L2)
        _nonempty(rep, "L'", L1)
        _nonempty(rep, "H'", H1)
        big = _large_nabla(b)
        rep.add("L'' inside L'", frozenset(L2) <= frozenset(L1))
        _membership(rep, "L' inside large-nabla minus H", L1, big - b.H)
        _membership(rep, "H' inside H", H1, b.H)
        _maxdeg_clause(rep, g, "G_nabla", "maxdeg(L', H - H') < eta k/100",
                       L1, b.H - frozenset(H1), eta * k / 100, strict=True)
        _mindeg_clause(rep, g, "G_nabla", "mindeg(H', L'') >= Omega_star k",
                       H1, L2, frac(cp.omega_star) * k if not hasattr(cp.omega_star, "degree")
                       else cp.omega_star * k)
        _maxdeg_clause(rep, g, "G_nabla",
                       "maxdeg(L'', large-nabla - (H + L')) <= eta k/100",
                       L2, big - (b.H | frozenset(L1)), eta * k / 100)
        return rep
    if w.tag in ("heart1", "heart2"):
        V0, V1 = w["V0"], w["V1"]
        _nonempty(rep, "V0", V0)
        _nonempty(rep, "V1", V1)
        pool = _heart_membership_pool(b, split)
        _membership(rep, "V0 inside P0 - (F + shadow(V_not_to_H))", V0, pool)
        _membership(rep, "V1 inside P0 - (F + shadow(V_not_to_H))", V1, pool)
        tgt = b.V_good & split.classes[2]
        if w.tag == "heart1":
            hval = frac(cp.h)
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V0, V_good|2) >= h/2",
                           V0, tgt, hval / 2)
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V1, V_good|2) >= h",
                           V1, tgt, hval)
            F = w["F"]
            rep.add("F is an (M_A+M_B)-cover", check_m_cover(F, b.MAB()).ok)
            union_F = frozenset().union(*[frozenset(x) for x in F]) if F else frozenset()
            _maxdeg_clause(rep, g, "G_nabla", "maxdeg(V1, union F) <= gamma' k",
                           V1, union_F, frac(cp.gamma_prime) * k)
        else:
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V0+V1, V_good|2) >= h",
                           frozenset(V0) | frozenset(V1), tgt, frac(cp.h))
        return rep
    if w.tag == "exp":
        V0, V1 = w["V0"], w["V1"]
        _nonempty(rep, "V0", V0)
        _nonempty(rep, "V1", V1)
        _membership(rep, "V0 inside P0", V0, split.classes[0])
        _membership(rep, "V1 inside P0", V1, split.classes[0])
        bound = frac(cp.beta) * k
        _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V0,V1) >= beta k", V0, V1, bound)
        _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V1,V0) >= beta k", V1, V0, bound)
        return rep
    if w.tag == "reg":
        V0, V1, pairs = w["V0"], w["V1"], w["pairs"]
        _nonempty(rep, "V0", V0)
        _nonempty(rep, "V1", V1)
        _membership(rep, "V0 inside P0", V0, split.classes[0])
        _membership(rep, "V1 inside P0", V1, split.classes[0])
        rep.add("family non-empty", bool(pairs))
        u0 = frozenset().union(*[frozenset(q[0]) for q in pairs]) if pairs else frozenset()
        u1 = frozenset().union(*[frozenset(q[1]) for q in pairs]) if pairs else frozenset()
        rep.add("V0 = union Q0, V1 = union Q1",
                u0 == frozenset(V0) and u1 == frozenset(V1))
        seen = set()
        disjoint = True
        for q0, q1 in pairs:
            qq = frozenset(q0) | frozenset(q1)
            if qq & seen:
                disjoint = False
            seen |= qq
        rep.add("pairs vertex-disjoint", disjoint)
        min_side = min((min(len(q0), len(q1)) for q0, q1 in pairs), default=0)
        rep.add("min side >= mu k", cmp_ge(min_side, frac(cp.mu) * k),
                measured=min_side, needed=frac(cp.mu) * k)
        bad = None
        for j, (q0, q1) in enumerate(pairs):
            if not q0 or not q1:
                bad = (j, "empty side")
                break
            m = mode if max(len(q0), len(q1)) <= cap or mode != "exact" \
                else Sampled(400, 0)
            sub = check_super_regular(g, "G", q0, q1, frac(cp.eps_tilde),
                                      frac(cp.d_prime), mode=m, cap=cap)
            if not sub.ok:
                bad = (j, "; ".join(ci.render() for ci in sub.failures()))
                break
        rep.add("pairs (eps~, d')-super-regular w.r.t. E(G)", bad is None,
                note="" if bad is None else "pair %d: %s" % bad)
        return rep
    raise ValueError("not a preconfiguration tag: %s" % w.tag)


def _club_part(rep, w, b, split, cp, mode, cap):
    sub = verify_preconfiguration(
        ConfigurationWitness("club", {"L2": w["L2"], "L1": w["L1"], "H1": w["H1"]}),
        b, split, cp, mode, cap)
    rep.extend(sub, prefix="club: ")


def _heart_part(rep, w, b, split, cp, mode, cap):
    variant = w.get("heart", 1)
    data = {"V0": w["V0"], "V1": w["V1"]}
    if variant == 1:
        data["F"] = w["F"]
        sub = verify_preconfiguration(ConfigurationWitness("heart1", data),
                                      b, split, cp, mode, cap)
    else:
        sub = verify_preconfiguration(ConfigurationWitness("heart2", data),
                                      b, split, cp, mode, cap)
    rep.extend(sub, prefix="heart%d: " % variant)


def _reg_or_exp_part(rep, w, b, split, cp, mode, cap):
    variant = w.get("precfg", "reg")
    if variant == "exp":
        sub = verify_preconfiguration(
            ConfigurationWitness("exp", {"V0": w["V0"], "V1": w["V1"]}),
            b, split, ConfigParams(beta=cp.delta), mode, cap)
        rep.extend(sub, prefix="exp: ")
    else:
        sub = verify_preconfiguration(
            ConfigurationWitness("reg", {"V0": w["V0"], "V1": w["V1"],
                                         "pairs": w["pairs"]}),
            b, split, ConfigParams(eps_tilde=cp.eps_tilde, d_prime=cp.d_prime,
                                   mu=cp.mu), mode, cap)
        rep.extend(sub, prefix="reg: ")


def _absorbed_by_pairs(N: RegularizedMatching, host_pairs) -> bool:
    """Every pair of N sits inside a host pair (either orientation)."""
    for X, Y in N.pairs:
        if not any((X <= A and Y <= B) or (X <= B and Y <= A)
                   for A, B in host_pairs):
            return False
    return True


def verify_configuration(w: ConfigurationWitness, b, split, cp: ConfigParams,
                         mode="exact", cap: int = 12) -> Report:
    """Full clause-by-clause report for a configuration witness."""
    g, p = b.g, b.p
    k = p.k
    rep = Report("configuration %s" % w.tag)
    V = g.vertices()

    if w.tag == "D1":
        A, B = frozenset(w["A"]), frozenset(w["B"])
        if A & B:
            raise ValueError("D1 sides overlap")
        helper = LayeredGraph._validated(g.n, {"G": _edge_layer(w["F"], g.n)})
        H = helper._directed()
        rep.add("H non-empty", H.u.size > 0, measured=H.u.size)
        rep.add("H inside G", bool(_isin_sorted(helper._codes(), g._codes()).all()))
        inA, inB = _mask(A, g.n), _mask(B, g.n)
        rep.add("H bipartite between A and B",
                bool(((inA[H.u] != inA[H.v]) & (inB[H.u] != inB[H.v])).all()))
        support = A | B
        _mindeg_clause(rep, g, "G", "mindeg_G(V(H)) >= k", support, V, k)
        _mindeg_clause(rep, helper, "G", "mindeg(H) >= k/2", support, support,
                       Fraction(k, 2))
        return rep

    if w.tag in ("D2", "D3", "D4", "D5"):
        _club_part(rep, w, b, split, cp, mode, cap)
        H2 = frozenset(w["H2"])
        _nonempty(rep, "H''", H2)
        rep.add("H'' inside H'", H2 <= frozenset(w["H1"]))
        V1 = frozenset(w["V1"])
        exp_support = b.exp_support
        big_nabla_L2 = b.YB & frozenset(w["L2"])
        omt = cp.omega_tilde
        _mindeg_clause(rep, g, "G_nabla", "mindeg(H'', V1) >= Omega~ k",
                       H2, V1, omt * k if hasattr(omt, "degree") else frac(omt) * k)
        if w.tag == "D2":
            V2 = frozenset(w["V2"])
            _membership(rep, "V1 inside V(G_exp) + YB + L''", V1,
                        exp_support & big_nabla_L2)
            _membership(rep, "V2 inside V(G_exp)", V2, exp_support)
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V1, H'') >= beta k",
                           V1, H2, frac(cp.beta) * k)
            _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V1,V2) >= beta k",
                           V1, V2, frac(cp.beta) * k)
            _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V2,V1) >= beta k",
                           V2, V1, frac(cp.beta) * k)
        elif w.tag == "D3":
            V2 = frozenset(w["V2"])
            _membership(rep, "V1 inside E + YB + L''", V1, b.E & big_nabla_L2)
            _membership(rep, "V2 inside V - H", V2, V - b.H)
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V1, H'') >= delta k",
                           V1, H2, frac(cp.delta) * k)
            _maxdeg_clause(rep, g, "G_D", "maxdeg_D(V1, V - (V2+H)) <= zeta k",
                           V1, V - (V2 | b.H), frac(cp.zeta) * k)
            _mindeg_clause(rep, g, "G_D", "mindeg_D(V2, V1) >= delta k",
                           V2, V1, frac(cp.delta) * k)
        elif w.tag == "D4":
            V2, E1 = frozenset(w["V2"]), frozenset(w["E1"])
            _membership(rep, "V1 inside YB + L''", V1, big_nabla_L2)
            _membership(rep, "E' inside E", E1, b.E)
            _membership(rep, "V2 inside V - H", V2, V - b.H)
            dd = frac(cp.delta) * k
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V1, H'') >= delta k",
                           V1, H2, dd)
            _mindeg_clause(rep, g, "G_nabla+G_D", "mindeg(V1, E') >= delta k",
                           V1, E1, dd)
            _mindeg_clause(rep, g, "G_nabla+G_D", "mindeg(E', V1) >= delta k",
                           E1, V1, dd)
            _mindeg_clause(rep, g, "G_nabla+G_D", "mindeg(V2, E') >= delta k",
                           V2, E1, dd)
            _maxdeg_clause(rep, g, "G_nabla+G_D",
                           "maxdeg(E', V - (H+V2)) <= zeta k",
                           E1, V - (b.H | V2), frac(cp.zeta) * k)
        else:  # D5
            cu = b.sd.bd.cluster_union()
            _membership(rep, "V1 inside (YB + L'' + clusters) - V(G_exp)", V1,
                        (big_nabla_L2 & cu) - exp_support)
            _mindeg_clause(rep, g, "G_nabla", "mindeg(V1, H'') >= delta k",
                           V1, H2, frac(cp.delta) * k)
            _mindeg_clause(rep, g, "G_reg", "mindeg_reg(V1) >= zeta k",
                           V1, V, frac(cp.zeta) * k)
            ok = True
            for C in b.sd.bd.clusters:
                inter = C & V1
                if inter and len(inter) < frac(cp.pi_tilde) * len(C):
                    ok = False
                    break
            rep.add("every cluster meets V1 in 0 or >= pi~ |C| vertices", ok)
        return rep

    if w.tag == "D6":
        _reg_or_exp_part(rep, w, b, split, cp, mode, cap)
        _heart_part(rep, w, b, split, ConfigParams(h=cp.h2, gamma_prime=cp.gamma_prime),
                    mode, cap)
        V1, V2, V3 = frozenset(w["V1"]), frozenset(w["V2"]), frozenset(w["V3"])
        _nonempty(rep, "V2", V2)
        _nonempty(rep, "V3", V3)
        _membership(rep, "V2 inside P1", V2, split.classes[1])
        _membership(rep, "V3 inside P1", V3, split.classes[1])
        dd = frac(cp.delta) * k
        _mindeg_clause(rep, g, "G", "mindeg_G(V1,V2) >= delta k", V1, V2, dd)
        _mindeg_clause(rep, g, "G", "mindeg_G(V2,V1) >= delta k", V2, V1, dd)
        _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V2,V3) >= delta k", V2, V3, dd)
        _mindeg_clause(rep, g, "G_exp", "mindeg_exp(V3,V2) >= delta k", V3, V2, dd)
        return rep

    if w.tag == "D7":
        _reg_or_exp_part(rep, w, b, split, cp, mode, cap)
        _heart_part(rep, w, b, split, ConfigParams(h=cp.h2, gamma_prime=cp.gamma_prime),
                    mode, cap)
        V1, V2, V3 = frozenset(w["V1"]), frozenset(w["V2"]), frozenset(w["V3"])
        _nonempty(rep, "V2", V2)
        _nonempty(rep, "V3", V3)
        _membership(rep, "V2 inside E|1 - Vbar", V2,
                    (b.E & split.classes[1]) - split.exceptional_vertices)
        _membership(rep, "V3 inside P1", V3, split.classes[1])
        dd = frac(cp.delta) * k
        _mindeg_clause(rep, g, "G", "mindeg_G(V1,V2) >= delta k", V1, V2, dd)
        _mindeg_clause(rep, g, "G", "mindeg_G(V2,V1) >= delta k", V2, V1, dd)
        _maxdeg_clause(rep, g, "G_D", "maxdeg_D(V2, P1 - V3) < rho' k",
                       V2, split.classes[1] - V3, frac(cp.rho_prime) * k,
                       strict=True)
        _mindeg_clause(rep, g, "G_D", "mindeg_D(V3,V2) >= delta k", V3, V2, dd)
        return rep

    if w.tag == "D8":
        sub = verify_preconfiguration(
            ConfigurationWitness("reg", {"V0": w["V0"], "V1": w["V1"],
                                         "pairs": w["pairs"]}),
            b, split, ConfigParams(eps_tilde=cp.eps2, d_prime=cp.d2, mu=cp.mu2),
            mode, cap)
        rep.extend(sub, prefix="reg: ")
        sub = verify_preconfiguration(
            ConfigurationWitness("heart2", {"V0": w["V0"], "V1": w["V1"]}),
            b, split, ConfigParams(h=cp.h2), mode, cap)
        rep.extend(sub, prefix="heart2: ")
        V1 = frozenset(w["V1"])
        V2, V3, V4 = (frozenset(w["V2"]), frozenset(w["V3"]), frozenset(w["V4"]))
        N = w["N"]
        for nm, X in (("V2", V2), ("V3", V3), ("V4", V4)):
            _nonempty(rep, nm, X)
        _membership(rep, "V2 inside P0", V2, split.classes[0])
        _membership(rep, "V3 inside P1", V3, split.classes[1])
        _membership(rep, "V4 inside P1", V4, split.classes[1])
        # the definition states V3 in P1 and V3 in E - Vbar; both enforced
        _membership(rep, "V3 inside E - Vbar", V3,
                    b.E - split.exceptional_vertices)
        mrep = validate_regularized_matching(
            RegularizedMatching(N.pairs, frac(cp.eps1), frac(cp.d1),
                                frac(cp.mu1) * k, N.layer), g, N.layer,
            mode=mode, cap=cap)
        rep.add("N is an (eps1,d1,mu1 k)-regularized matching", mrep.ok,
                note="" if mrep.ok else "; ".join(ci.render() for ci in mrep.failures()))
        host = [pair for pair in b.MAB().pairs if pair not in b.N_E.pairs]
        rep.add("N absorbed by (M_A+M_B) - N_E", _absorbed_by_pairs(N, host))
        _membership(rep, "V(N) inside P1 - V3", N.vertices(),
                    split.classes[1] - V3)
        dd = frac(cp.delta) * k
        _mindeg_clause(rep, g, "G", "mindeg_G(V1,V2) >= delta k", V1, V2, dd)
        _mindeg_clause(rep, g, "G", "mindeg_G(V2,V1) >= delta k", V2, V1, dd)
        _mindeg_clause(rep, g, "G_nabla", "mindeg(V2,V3) >= delta k", V2, V3, dd)
        _mindeg_clause(rep, g, "G_nabla", "mindeg(V3,V2) >= delta k", V3, V2, dd)
        _maxdeg_clause(rep, g, "G_D", "maxdeg_D(V3, P1 - V4) < rho' k",
                       V3, split.classes[1] - V4, frac(cp.rho_prime) * k,
                       strict=True)
        _mindeg_clause(rep, g, "G_D", "mindeg_D(V4,V3) >= delta k", V4, V3, dd)
        vN = N.vertices()
        h1 = frac(cp.h1)
        worst = None
        if V2:
            worst = int((g._degrees_of("G_D", V2, V3) +
                         g._degrees_of("G_reg", V2, vN)).min())
        rep.add("deg_D(v,V3) + deg_reg(v,V(N)) >= h1 on V2",
                worst is None or worst >= ceil_val(h1), measured=worst, needed=h1)
        return rep

    if w.tag == "D9":
        sub = verify_preconfiguration(
            ConfigurationWitness("heart1", {"V0": w["V0"], "V1": w["V1"],
                                            "F": w["F"]}),
            b, split, ConfigParams(h=cp.h2, gamma_prime=cp.gamma_prime),
            mode, cap)
        rep.extend(sub, prefix="heart1: ")
        sub = verify_preconfiguration(
            ConfigurationWitness("reg", {"V0": w["V0"], "V1": w["V1"],
                                         "pairs": w["pairs"]}),
            b, split, ConfigParams(eps_tilde=cp.eps2, d_prime=cp.d2, mu=cp.mu2),
            mode, cap)
        rep.extend(sub, prefix="reg: ")
        N = w["N"]
        V1, V2 = frozenset(w["V1"]), frozenset(w["V2"])
        mrep = validate_regularized_matching(
            RegularizedMatching(N.pairs, frac(cp.eps1), frac(cp.d1),
                                frac(cp.mu1) * k, N.layer), g, N.layer,
            mode=mode, cap=cap)
        rep.add("N is an (eps1,d1,mu1 k)-regularized matching", mrep.ok,
                note="" if mrep.ok else "; ".join(ci.render() for ci in mrep.failures()))
        rep.add("N absorbed by M_A+M_B", _absorbed_by_pairs(N, b.MAB().pairs))
        _membership(rep, "V(N) inside P1", N.vertices(), split.classes[1])
        union_F = frozenset().union(*[frozenset(x) for x in w["F"]]) \
            if w["F"] else frozenset()
        _membership(rep, "V2 inside V(N) - union F'", V2, N.vertices() - union_F)
        # the definition notes V(N) - union F' sits inside the clusters (a
        # consequence of the setting), so this is reported, not asserted
        rep.add("V2 inside the clusters", None,
                measured=V2 <= b.sd.bd.cluster_union(), note="noted inclusion")
        _mindeg_clause(rep, g, "G_D", "mindeg_D(V1,V2) >= h1", V1, V2, frac(cp.h1))
        _mindeg_clause(rep, g, "G_D", "mindeg_D(V2,V1) >= delta k", V2, V1,
                       frac(cp.delta) * k)
        return rep

    if w.tag == "D10":
        Gt_edges = w["Gt_edges"]
        ensemble = [frozenset(x) for x in w["ensemble"]]
        M = w["M"]
        Lstar = [frozenset(x) for x in w["Lstar"]]
        A, B = frozenset(w["A"]), frozenset(w["B"])
        rg = RegularizedGraph(Gt_edges, ensemble, frac(cp.eps_tilde),
                              frac(cp.d_prime), cp.ell1, cp.ell2)
        m_obj = RegularizedMatching(M.pairs, frac(cp.eps_tilde), frac(cp.d_prime),
                                    cp.ell1, M.layer)
        grep = validate_regularized_graph(rg, mode=mode, cap=cap, matching=m_obj)
        rep.add("(G~, V) regularized graph + matching consistent", grep.ok,
                note="" if grep.ok else "; ".join(ci.render() for ci in grep.failures()))
        helper = LayeredGraph._validated(g.n, {"G": _edge_layer(rg.edge_layer, g.n)})
        mrep = validate_regularized_matching(m_obj, helper, "G", mode=mode, cap=cap)
        rep.add("M is an (eps~, d', ell1)-regularized matching in G~", mrep.ok)
        ens = set(ensemble)
        rep.add("L* drawn from the ensemble", all(x in ens for x in Lstar))
        rep.add("A, B distinct ensemble members",
                A in ens and B in ens and A != B)
        cross = helper.e_ordered("G", A, B) if A and B else 0
        rep.add("(a) E(G~[A,B]) non-empty", cross > 0, measured=cross)
        target = m_obj.vertices() | (frozenset().union(*Lstar) if Lstar else frozenset())
        thr = ceil_val((1 + frac(cp.eta_prime)) * k)
        eps_t = frac(cp.eps_tilde)
        for name, X in (("A", A), ("B", B)):
            badcount = int((helper._degrees_of("G", X, target) < thr).sum())
            rep.add("(b) all but <= eps~|%s| vertices see (1+eta')k into V(M)+L*" % name,
                    badcount <= eps_t * len(X), measured=badcount,
                    needed=eps_t * len(X))
        ok_c = True
        for X in Lstar:
            badcount = int((helper._degrees_of("G", X, None) < thr).sum())
            if badcount > eps_t * len(X):
                ok_c = False
                break
        rep.add("(c) every L* member nearly all of degree (1+eta')k", ok_c)
        return rep

    raise ValueError("unhandled tag %s" % w.tag)
