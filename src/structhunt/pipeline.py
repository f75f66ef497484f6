"""The constructive case analysis: from a common-setting instance with a
proportional split to a verified configuration witness.

hunt_configuration executes the proof skeleton: evaluate the two entry
hypotheses, dispatch on the huge-degree edge mass, construct every
intermediate set by its defining formula, run the cleaning algorithms, and
assemble a witness which is then verified clause by clause.  Desk-scale
parameters cannot satisfy the asymptotic constant hierarchy, so every
step inequality is reported as (needed, measured) and control flow proceeds
regardless; the outcome is honest: "found" requires the final checker to
pass every clause, otherwise the trace shows where verification failed.

Determinism: identical (instance, seed, parameters) give byte-identical
outcomes; all set iterations are sorted and all arbitrary choices are
pinned to lowest ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cleaning import (clean_c_plus_black, clean_c_plus_yellow, clean_match,
                       clean_yellow, envelope)
from .configurations import (ConfigParams, ConfigurationWitness, _is_edge_field,
                             _large_nabla, verify_configuration)
from .exactmath import ceil_val, frac, root4_val, sqrt_val
from .graphcore import (_code_graph, _edge_layer, _Layer, _union_codes, _vertices_where,
                        fmt_edges, fmt_vertex_set)
from .lks import CommonSettingBundle
from .regularity import RegularizedMatching, Sampled, check_regular_pair
from .report import Report
from .shadows import maximal_cut, min_degree_subgraph, peel_bipartite, shadow
from .splitting import Split
from .spots import DenseCover, _cover_codes, _spot_codes, clean_spots


@dataclass
class HuntOutcome:
    status: str                   # found | hypotheses-unmet | out-of-regime
    witness: Optional[ConfigurationWitness] = None
    config_params: Optional[ConfigParams] = None
    verification: Optional[Report] = None
    trace: Report = field(default_factory=lambda: Report("hunt trace"))
    sets: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {"found": 0, "hypotheses-unmet": 2, "out-of-regime": 3}[self.status]

    def dump(self) -> str:
        lines = ["status: %s" % self.status]
        if self.witness is not None:
            lines.append("witness: %s" % self.witness.tag)
            for key in sorted(self.witness.data):
                val = self.witness.data[key]
                if _is_edge_field(self.witness.tag, key):
                    lines.append("  %s = %s" % (key, fmt_edges(_edge_layer(val), "(%d, %d)")))
                elif isinstance(val, frozenset):
                    lines.append("  %s = %s" % (key, fmt_vertex_set(val)))
                elif isinstance(val, RegularizedMatching):
                    lines.append("  %s = matching with %d pairs" % (key, len(val)))
                else:
                    lines.append("  %s = %s" % (key, _stable_repr(val)))
        lines.append(self.trace.render())
        if self.verification is not None:
            lines.append(self.verification.render())
        for name in sorted(self.sets):
            val = self.sets[name]
            if isinstance(val, frozenset):
                lines.append("%s = %s" % (name, fmt_vertex_set(val)))
        return "\n".join(lines) + "\n"


def _stable_repr(val):
    if isinstance(val, tuple):
        return "(" + ", ".join(_stable_repr(v) for v in val) + ")"
    if isinstance(val, frozenset):
        return "{" + ",".join(str(x) for x in sorted(val)) + "}"
    return str(val)


def _record(outcome, name, value):
    if isinstance(value, (frozenset, set)):
        outcome.sets[name] = frozenset(value)


# ---------------------------------------------------------------------
# top-level dispatch


def hunt_configuration(b: CommonSettingBundle, split: Split, seed: int = 0,
                       overrides: Optional[dict] = None) -> HuntOutcome:
    """Run the case analysis end to end and verify whatever it produces."""
    overrides = overrides or {}
    g, p = b.g, b.p
    k, eta, n = p.k, p.eta, g.n
    out = HuntOutcome("out-of-regime")
    tr = out.trace

    k1 = 2 * g.e_induced("G", b.XA) + g.e_ordered("G", b.XA, b.XB)
    k1_need = eta * k * n / 3
    tr.add("(K1) 2e(XA) + e(XA,XB) >= eta k n/3", k1 >= k1_need,
           measured=k1, needed=k1_need)
    k2 = len(b.M_good.vertices())
    k2_need = eta * n / 3
    tr.add("(K2) |V(M_good)| >= eta n/3", k2 >= k2_need,
           measured=k2, needed=k2_need)
    k1_ok = k1 >= k1_need or overrides.get("force_k1")
    k2_ok = k2 >= k2_need or overrides.get("force_k2")
    if not (k1_ok or k2_ok):
        out.status = "hypotheses-unmet"
        return out

    huge_mass = g.e_ordered("G", b.H, b.XA | b.XB)
    huge_need = eta**13 * k * n / (Fraction(10**28) * p.omega_star**3)
    tr.add("e(H, XA+XB) >= eta^13 k n / (1e28 Omega*^3)", huge_mass >= huge_need,
           measured=huge_mass, needed=huge_need)
    if (huge_mass >= huge_need and huge_mass > 0) or overrides.get("force_huge"):
        return obtain_config_huge(b, out)
    if k1_ok:
        return _k1_path(b, split, out, overrides)
    return _k2_path(b, split, out, overrides)


# ---------------------------------------------------------------------
# huge-degree case


def obtain_config_huge(b: CommonSettingBundle, out: Optional[HuntOutcome] = None
                       ) -> HuntOutcome:
    """The huge-degree case: configuration D1 or envelope + chain cleaning."""
    out = out or HuntOutcome("out-of-regime")
    tr = out.trace
    g, p = b.g, b.p
    k, eta, gamma = p.k, p.eta, p.gamma
    n = g.n
    eta_t = eta**13 / (Fraction(10**28) * p.omega_star**3)

    N_up = _vertices_where(g._degrees("G_nabla", b.H) >= math.ceil(k))
    N_down = g.neighbourhood("G_nabla", b.H) - N_up
    _record(out, "N_up", N_up)
    _record(out, "N_down", N_down)
    mass = g.e_ordered("G_nabla", b.H, b.XA | b.XB)
    up_mass = g.e_ordered("G_nabla", b.H, N_up)
    case_a = up_mass >= Fraction(mass, 8) if mass else False
    tr.add("Case A: e(H, N_up) >= e(H, XA+XB)/8", case_a,
           measured=up_mass, needed=Fraction(mass, 8))

    if case_a:
        tr.add("|H| <= |N_up|", len(b.H) <= len(N_up),
               measured=len(b.H), needed=len(N_up),
               note="failure contradicts the edge budget in regime")
        far = N_up - b.H  # H is independent in regime; enforce bipartiteness
        gw = g._with_codes("_huge_D1", g._codes_between("G_nabla", b.H, far))
        core = min_degree_subgraph(gw, "_huge_D1", b.H | far, Fraction(k, 2))
        F = _Layer(n, gw._codes_between("_huge_D1", core, core))
        w = ConfigurationWitness("D1", {"A": core & b.H, "B": core & far, "F": F})
        return _finish(out, w, ConfigParams(), b, None)

    # Case B: envelope toward the club preconfiguration
    L = b.L
    psi = eta_t / 100
    Hp, Lp, Lpp, env_rep = envelope(g, "G_nabla", b.H, L - b.H,
                                    L - _large_nabla(b), psi,
                                    p.omega_star, p.omega_sstar, k)
    tr.add("envelope hypotheses", env_rep.hypotheses.ok)
    _record(out, "H_prime", Hp)
    _record(out, "L_prime", Lp)
    _record(out, "L_dprime", Lpp)
    club_param = psi**3 * p.omega_sstar / (4 * p.omega_star**2)

    target = Lpp & (b.XA | b.XB) & N_down
    sqrt_oss = sqrt_val(p.omega_sstar)
    deg_target = g._degrees("G_nabla", target)
    star = (deg_target >= ceil_val(sqrt_oss * k)).tolist()
    H_star = frozenset(v for v in Hp if star[v])
    _record(out, "H_star", H_star)
    star_mass = g.e_ordered("G_nabla", H_star, target)
    tr.add("e(H*, L'' + (XA+XB) + N_down) >= eta~ k n/8",
           star_mass >= eta_t * k * n / 8, measured=star_mass,
           needed=eta_t * k * n / 8)

    O = shadow(g, "G_nabla", b.E, gamma * k)
    exp_support = b.exp_support
    N1 = exp_support & target
    N2 = b.E & target
    N3 = (O & target) - (N1 | N2)
    N4 = target - (N1 | N2 | N3)
    Ns = [N1, N2, N3, N4]
    for i, Ni in enumerate(Ns, start=1):
        _record(out, "N%d" % i, Ni)
    Cs = []
    for i, Ni in enumerate(Ns, start=1):
        heavy = (4 * g._degrees("G_nabla", Ni) >= deg_target).tolist()
        Ci = frozenset(v for v in H_star if heavy[v])
        Cs.append(Ci)
        _record(out, "C%d" % i, Ci)
    masses = [g.e_ordered("G_nabla", Cs[i], Ns[i]) for i in range(4)]
    best = max(range(4), key=lambda i: (masses[i], -i))
    tr.add("index selection: e(C_i, N_i) >= e(H*, target)/16",
           masses[best] * 16 >= star_mass,
           measured=masses[best], needed=Fraction(star_mass, 16),
           note="chose i=%d" % (best + 1))

    Y = (b.XA | b.XB) - (b.YB | b.H)
    eta_c = eta_t / 128
    oss4 = sqrt_val(p.omega_sstar) / 4

    if best == 0:  # i=1 -> D2 via the exp-chain cleaning
        both = np.intersect1d(g._codes("G_nabla"), g._codes("G_exp"),
                              assume_unique=True)
        gw = g._with_codes("_huge_i1", _union_codes(
            both, g._codes_between("G_nabla", b.H, g.vertices())))
        delta = eta_c * p.rho**2 / (100 * p.omega_star**2)
        Xp, crep = clean_c_plus_yellow(gw, "_huge_i1", [Cs[0], N1, exp_support],
                                       Y, 2, p.omega_star, oss4, delta,
                                       p.rho, eta_c, k)
        tr.add("clean-C+yellow (i=1) hypotheses", crep.hypotheses.ok)
        w = ConfigurationWitness("D2", {
            "L2": Lpp, "L1": Lp, "H1": Hp, "H2": Xp[0], "V1": Xp[1],
            "V2": Xp[2]})
        cp = ConfigParams(omega_star=club_param, omega_tilde=root4_val(p.omega_sstar) / 2,
                          beta=delta)
    elif best == 1:  # i=2 -> D3
        gw = g._with_codes("_huge_i2", _union_codes(
            g._codes("G_D"), g._codes_between("G", b.H, g.vertices())))
        delta = eta_c * gamma**2 / (100 * p.omega_star**2)
        Xp, crep = clean_c_plus_yellow(gw, "_huge_i2",
                                       [Cs[1], N2, g.vertices() - b.H], Y, 2,
                                       p.omega_star, oss4, delta, gamma,
                                       eta_c, k)
        tr.add("clean-C+yellow (i=2) hypotheses", crep.hypotheses.ok)
        w = ConfigurationWitness("D3", {
            "L2": Lpp, "L1": Lp, "H1": Hp, "H2": Xp[0], "V1": Xp[1],
            "V2": Xp[2]})
        cp = ConfigParams(omega_star=club_param, omega_tilde=root4_val(p.omega_sstar) / 2,
                          zeta=gamma / 2, delta=delta)
    elif best == 2:  # i=3 -> D4
        gw = b.g
        delta = eta_c * gamma**3 / (300 * p.omega_star**3)
        Xp, crep = clean_c_plus_yellow(gw, "G_nabla+G_D",
                                       [Cs[2], N3, b.E, g.vertices() - b.H],
                                       Y, 3, p.omega_star, oss4, delta, gamma,
                                       eta_c, k)
        tr.add("clean-C+yellow (i=3) hypotheses", crep.hypotheses.ok)
        w = ConfigurationWitness("D4", {
            "L2": Lpp, "L1": Lp, "H1": Hp, "H2": Xp[0], "V1": Xp[1],
            "E1": Xp[2], "V2": Xp[3]})
        cp = ConfigParams(omega_star=club_param, omega_tilde=root4_val(p.omega_sstar) / 2,
                          zeta=gamma / 2, delta=delta)
    else:  # i=4 -> D5 via cluster-respecting cleaning
        if not b.sd.bd.clusters:
            tr.add("i=4 requires clusters", False, note="no clusters present")
            return out
        c_size = b.sd.bd.cluster_size()
        h = eta_c * c_size / (100 * p.omega_star)
        delta = eta_c / 100
        X0p, X1p, crep = clean_c_plus_black(g, "G_nabla", Cs[3], N4, Y,
                                            b.sd.bd.clusters, delta, eta_c,
                                            p.omega_star, oss4, h, k)
        tr.add("clean-C+black (i=4) hypotheses", crep.hypotheses.ok)
        w = ConfigurationWitness("D5", {
            "L2": Lpp, "L1": Lp, "H1": Hp, "H2": X0p, "V1": X1p})
        cp = ConfigParams(omega_star=club_param, omega_tilde=root4_val(p.omega_sstar) / 2,
                          delta=delta, zeta=eta / 2,
                          pi_tilde=h / c_size)
    return _finish(out, w, cp, b, None)


# ---------------------------------------------------------------------
# expander case


def obtain_config_exp(b: CommonSettingBundle, split: Split, YA1, YA2,
                      out: Optional[HuntOutcome] = None) -> HuntOutcome:
    """Expander-mass case: chain cleaning toward configuration D6."""
    out = out or HuntOutcome("out-of-regime")
    tr = out.trace
    g, p = b.g, b.p
    k, eta, rho = p.k, p.eta, p.rho
    n = g.n
    YA1, YA2 = frozenset(YA1), frozenset(YA2)
    mass = g.e_ordered("G_exp", YA1, YA2)
    tr.add("e_exp(YA1,YA2) >= 2 rho k n", mass >= 2 * rho * k * n,
           measured=mass, needed=2 * rho * k * n)

    pool_a = (b.XA & split.classes[0]) - (b.J | split.exceptional_vertices |
                                          split.F_shadow)
    variant_63 = YA1 | YA2 <= pool_a
    pool_a2 = pool_a - (b.J2 | b.J3)
    pool_b = (b.XB & split.classes[0]) - (b.J | split.exceptional_vertices |
                                          split.F_shadow)
    variant_64 = YA1 <= pool_a2 and YA2 <= pool_b
    tr.add("membership variant (both XA)", variant_63)
    tr.add("membership variant (XA minus J2,J3 vs XB)", variant_64)

    dense = (g._degrees("G_exp", YA2) >= ceil_val(rho * k)).tolist()
    YA1p = frozenset(v for v in YA1 if dense[v])
    _record(out, "YA1_filtered", YA1p)
    exp1 = b.exp_support & split.classes[1]
    delta = eta**3 * rho**4 / (Fraction(10**14) * p.omega_star**3)
    Xp, crep = clean_yellow(g, ["G_exp", "G_nabla", "G_exp"],
                            [YA2, YA1p, exp1, exp1],
                            split.exceptional_vertices, 3, p.omega_star,
                            rho * eta / 10**3, delta, rho, k)
    tr.add("clean-yellow hypotheses", crep.hypotheses.ok)
    heart = 1 if variant_64 and not variant_63 else 2
    data = {"precfg": "exp", "heart": heart, "V0": Xp[0], "V1": Xp[1],
            "V2": Xp[2], "V3": Xp[3]}
    if heart == 1:
        data["F"] = b.F_cover
    w = ConfigurationWitness("D6", data)
    cp = ConfigParams(delta=delta, gamma_prime=3 * eta**3 / 2000,
                      h2=split.fractions[2] * (1 + eta / 20) * k)
    return _finish(out, w, cp, b, split)


def _finish(out: HuntOutcome, w: ConfigurationWitness, cp: ConfigParams,
            b: CommonSettingBundle, split) -> HuntOutcome:
    """Attach the witness and its clause-by-clause verification; the status
    is "found" only when every clause passes."""
    out.witness = w
    out.config_params = cp
    out.verification = verify_configuration(w, b, split, cp)
    out.status = "found" if out.verification.ok else "out-of-regime"
    return out


# ---------------------------------------------------------------------
# majority dispatch and the matching case


def majority_dispatch(b: CommonSettingBundle, D_nabla: DenseCover, YA1, YA2,
                      case: str) -> tuple:
    """Type sets, edge masses and the winning type for case wA or wB.

    Returns (ytype, Z1, Z2, report).  Ties break toward the smaller type
    index; in case wA type 4 is excluded by the supporting bound and is
    reported only.
    """
    g, p = b.g, b.p
    k, rho = p.k, p.rho
    n = g.n
    rep = Report("majority dispatch (%s)" % case)
    YA1, YA2 = frozenset(YA1), frozenset(YA2)
    gw = g._with_codes("_D_nabla", _cover_codes(D_nabla, n))
    Y = dict(zip((1, 2), _type_sets(b, (YA1, YA2))))

    masses = {}
    zsets = {}
    if case == "wB":
        for t in (1, 2, 3, 4, 5):
            masses[t] = gw.e_ordered("_D_nabla", Y[1][t], YA2)
            zsets[t] = (Y[1][t], YA2)
        candidates = [1, 2, 3, 4, 5]
    else:
        m1a = gw.e_ordered("_D_nabla", Y[1][1], YA2)
        m1b = gw.e_ordered("_D_nabla", YA1, Y[2][1])
        masses[1] = m1a + m1b
        zsets[1] = (Y[1][1], YA2) if m1a >= m1b else (Y[2][1], YA1)
        m2a = gw.e_ordered("_D_nabla", Y[1][2], YA2 - Y[2][1])
        m2b = gw.e_ordered("_D_nabla", YA1 - Y[1][1], Y[2][2])
        masses[2] = m2a + m2b
        zsets[2] = (Y[1][2], YA2 - Y[2][1]) if m2a >= m2b \
            else (Y[2][2], YA1 - Y[1][1])
        m3a = gw.e_ordered("_D_nabla", Y[1][3], YA2 - (Y[2][1] | Y[2][2]))
        m3b = gw.e_ordered("_D_nabla", YA1 - (Y[1][1] | Y[1][2]), Y[2][3])
        masses[3] = m3a + m3b
        zsets[3] = (Y[1][3], YA2 - (Y[2][1] | Y[2][2])) if m3a >= m3b \
            else (Y[2][3], YA1 - (Y[1][1] | Y[1][2]))
        masses[4] = gw.e_ordered("_D_nabla", Y[1][4],
                                 YA2 - (Y[2][1] | Y[2][2] | Y[2][3])) + \
            gw.e_ordered("_D_nabla", YA1 - (Y[1][1] | Y[1][2] | Y[1][3]),
                         Y[2][4])
        masses[5] = gw.e_ordered("_D_nabla", Y[1][5], Y[2][5])
        zsets[5] = (Y[1][5], Y[2][5])
        candidates = [1, 2, 3, 5]
        rep.add("t4 mass excluded by the E-degree bound", None,
                measured=masses[4], needed=rho * k * n,
                note="supporting bound, never selected in wA")

    best = max(candidates, key=lambda t: (masses[t], -t))
    for t in sorted(masses):
        thr = (4 if case == "wA" and t != 5 else 2) * rho * k * n
        rep.add("t%d mass %s threshold" % (t, ">=" if masses[t] >= thr else "<"),
                None, measured=masses[t], needed=thr)
    rep.add("selected type", None, measured="t%d" % best)
    rep.ytype_sets = Y
    return best, zsets[best][0], zsets[best][1], rep


def _type_sets(b: CommonSettingBundle, YAs) -> list:
    """The type sets {1: Y1, ..., 5: Y5} of each YA: the G-shadow of V(G_exp),
    then V_to_E, R and E, each minus the earlier types; Y5 is the rest."""
    sh_exp = shadow(b.g, "G", b.exp_support, b.p.rho * b.p.k)
    out = []
    for YA in YAs:
        rest, ys = frozenset(YA), {}
        for t, S in enumerate((sh_exp, b.V_to_E, b.R, b.E), start=1):
            ys[t] = S & rest
            rest = rest - ys[t]
        ys[5] = rest
        out.append(ys)
    return out


def build_spot_matching(b: CommonSettingBundle, D_nabla: DenseCover, Z1, Z2,
                        cap: int = 12) -> tuple:
    """Greedy per-spot regularized matching between Z1 and Z2.

    The contract (pair parameters, total size >= rho n / Omega*) is
    evaluated and reported, never assumed.
    """
    g, p = b.g, b.p
    k = p.k
    rep = Report("spot matching contract")
    Z1, Z2 = frozenset(Z1), frozenset(Z2)
    eps_goal = p.pi
    d_goal = p.gamma**3 * p.rho / (32 * p.omega_star)
    ell_goal = p.alpha_hat * p.rho * k / p.omega_star
    used = set()
    pairs = []
    for s in sorted(D_nabla, key=lambda s: (-s._ends[0].size, min(s.vertices()))):
        for (U, W) in ((s.U, s.W), (s.W, s.U)):
            A = sorted((Z1 & U) - used)
            B = sorted((Z2 & W) - used)
            if not A or not B:
                continue
            spot_g = _code_graph(g.n, _spot_codes(s, g.n))
            Af, Bf = peel_bipartite(spot_g, "G", A, B, 1)
            m = min(len(Af), len(Bf))
            if m == 0:
                continue
            A = sorted(Af)[:m]
            B = sorted(Bf)[:m]
            dens = spot_g.density("G", frozenset(A), frozenset(B))
            if dens < d_goal:
                continue
            mode = "exact" if m <= cap else Sampled(300, 0)
            cert = check_regular_pair(spot_g, "G", frozenset(A), frozenset(B),
                                      min(eps_goal, Fraction(99, 100)), mode, cap)
            if not cert.is_regular:
                continue
            pairs.append((frozenset(A), frozenset(B)))
            used |= frozenset(A) | frozenset(B)
    N = RegularizedMatching(pairs, eps_goal, d_goal, ell_goal, "_Dn")
    rep.add("pairs found", None, measured=len(pairs))
    small = min((len(a) for a, _ in pairs), default=0)
    rep.add("side sizes >= alpha^ rho k / Omega*",
            bool(pairs) and not (small < ell_goal), measured=small,
            needed=ell_goal)
    got = len(N.vertices())
    need = p.rho * g.n / p.omega_star
    rep.add("|V(N)| >= rho n / Omega*", got >= need, measured=got, needed=need)
    rep.add("sides inside Z1/Z2",
            all(a <= Z1 and bb <= Z2 for a, bb in pairs))
    return N, rep


def _k1_path(b: CommonSettingBundle, split: Split, out: HuntOutcome,
             overrides: dict) -> HuntOutcome:
    g, p = b.g, b.p
    k, rho, gamma = p.k, p.rho, p.gamma
    n = g.n
    tr = out.trace

    XAJ0 = (b.XA - b.J) & split.classes[0]
    wa_mass = g.e_induced("G_nabla", XAJ0)
    wa = wa_mass >= 40 * rho * k * n
    tr.add("case wA: e_nabla((XA-J)|0) >= 40 rho k n", wa,
           measured=wa_mass, needed=40 * rho * k * n)
    bad = b.J | split.exceptional_vertices | split.F_shadow
    if wa or overrides.get("force_wa"):
        S = (b.XA - bad) & split.classes[0]
        if len(S) < 2:
            tr.add("wA cut source big enough", False, measured=len(S))
            return out
        YA1, YA2 = maximal_cut(g, "G_nabla", S)
        case = "wA"
    else:
        YA1 = (b.XA - (bad | b.J2 | b.J3)) & split.classes[0]
        YA2 = (b.XB - bad) & split.classes[0]
        case = "wB"
    _record(out, "YA1", YA1)
    _record(out, "YA2", YA2)
    tr.add("case", None, measured=case)
    cut_mass = g.e_ordered("G_nabla", YA1, YA2)
    tr.add("e_nabla(YA1,YA2) >= 19 rho k n", cut_mass >= 19 * rho * k * n,
           measured=cut_mass, needed=19 * rho * k * n)

    exp_mass = g.e_ordered("G_exp", YA1, YA2)
    if exp_mass >= 2 * rho * k * n and not overrides.get("force_matching"):
        tr.add("expander branch", True, measured=exp_mass,
               needed=2 * rho * k * n)
        return obtain_config_exp(b, split, YA1, YA2, out)
    tr.add("expander branch", False, measured=exp_mass,
           needed=2 * rho * k * n)

    D_nabla, cs_rep = clean_spots(g, list(b.sd.bd.spots), b.E,
                                  b.sd.bd.clusters, gamma, k, rho,
                                  reg_layer=b.sd.bd.reg_layer)
    tr.add("clean-spots properties", cs_rep.ok)
    ytype, Z1, Z2, mrep = majority_dispatch(b, D_nabla, YA1, YA2, case)
    tr.extend(mrep)
    if case == "wB" and ytype == 4:
        tr.add("t4 in wB mapped to the t3-5 handling", None,
               note="documented mapping, not in the source analysis")
    N, nrep = build_spot_matching(b, D_nabla, Z1, Z2)
    tr.extend(nrep, prefix="Isabelle contract: ")
    if not N.pairs:
        return out
    flag = "cA" if case == "wA" else "cB"
    return obtain_config_matching(b, split, N, flag, ytype, "M2", D_nabla, out)


def _k2_path(b: CommonSettingBundle, split: Split, out: HuntOutcome,
             overrides: dict) -> HuntOutcome:
    g, p = b.g, b.p
    k, eta, rho, gamma = p.k, p.eta, p.rho, p.gamma
    n = g.n
    tr = out.trace
    bad = b.J | split.exceptional_vertices | split.F_shadow
    c_size = b.cluster_size_or_k
    floor_size = eta * eta * c_size / (2 * Fraction(10**3))
    pairs = []
    for X, Yv in b.M_good.pairs:
        Xp = sorted((X & split.classes[0]) - bad)
        Yp = sorted((Yv & split.classes[0]) - bad)
        m = min(len(Xp), len(Yp))
        if m and m >= floor_size:
            pairs.append((frozenset(Xp[:m]), frozenset(Yp[:m])))
    N0 = RegularizedMatching(pairs, 4 * Fraction(10**3) * p.eps_prime / eta**2,
                             gamma**2 / 2, floor_size, "G_D")
    tr.add("|V(N)| >= eta^2 n / 1000", len(N0.vertices()) >= eta**2 * n / 1000,
           measured=len(N0.vertices()), needed=eta**2 * n / 1000)
    if not N0.pairs:
        return out

    D_nabla, cs_rep = clean_spots(g, list(b.sd.bd.spots), b.E,
                                  b.sd.bd.clusters, gamma, k, rho,
                                  reg_layer=b.sd.bd.reg_layer)
    tr.add("clean-spots properties", cs_rep.ok)

    # type sets with YA_i := V_i(N); Y4 is empty inside the regular part
    sides = [Xi for pair in N0.pairs for Xi in pair]
    ytypes = dict(zip(sides, _type_sets(b, sides)))
    per_type = {}
    for t in (1, 2, 3, 5):
        tpairs = []
        for X, Yv in N0.pairs:
            for (Xi, other) in ((X, Yv), (Yv, X)):
                cell = ytypes[Xi][t]
                if 4 * len(cell) >= len(Xi) and cell:
                    msize = min(len(cell), len(other))
                    tpairs.append((frozenset(sorted(cell)[:msize]),
                                   frozenset(sorted(other)[:msize])))
                    break
        per_type[t] = RegularizedMatching(
            tpairs, Fraction(10**5) * p.eps_prime / eta**2, gamma**2 / 4,
            eta**2 * c_size / (8 * Fraction(10**3)), "G_D")
    best = max((1, 2, 3, 5),
               key=lambda t: (len(per_type[t].vertices()), -t))
    tr.add("majority type over the matching", None, measured="t%d" % best)
    need = rho * n / p.omega_star
    tr.add("|V(N_t)| >= rho n / Omega*",
           len(per_type[best].vertices()) >= need,
           measured=len(per_type[best].vertices()), needed=need)
    if not per_type[best].pairs:
        return out
    return obtain_config_matching(b, split, per_type[best], "cA", best, "M1",
                                  D_nabla, out)


def obtain_config_matching(b: CommonSettingBundle, split: Split,
                           M: RegularizedMatching, flag: str, ytype: int,
                           mkind: str, D_nabla: DenseCover,
                           out: Optional[HuntOutcome] = None) -> HuntOutcome:
    """Route a regularized matching through the type subcases to a witness."""
    out = out or HuntOutcome("out-of-regime")
    tr = out.trace
    g, p = b.g, b.p
    k, eta, rho, gamma = p.k, p.eta, p.rho, p.gamma
    n = g.n
    tr.add("matching case", None, measured="%s %s t%d" % (mkind, flag, ytype))

    c_size = b.cluster_size_or_k
    if mkind == "M1":
        eps_bar = Fraction(10**5) * p.eps_prime / eta**2
        d_bar = gamma**2 / 4
        beta = eta**2 * c_size / (8 * Fraction(10**3) * k)
    else:
        eps_bar = p.pi
        d_bar = gamma**3 * rho / (32 * p.omega_star)
        beta = p.alpha_hat * rho / p.omega_star
    tr.add("|V(M)| >= rho n / Omega*",
           len(M.vertices()) >= rho * n / p.omega_star,
           measured=len(M.vertices()), needed=rho * n / p.omega_star)

    spots = _code_graph(n, _cover_codes(D_nabla, n))
    gw = g._with_codes("_E1", _union_codes(
        *(spots._codes_between("G", X, Yv) for X, Yv in M.pairs)))
    Ybar = split.exceptional_vertices | split.F_shadow
    heart = 2 if flag == "cA" else 1
    parts = [(Yv, X) for X, Yv in M.pairs]  # partitions of (X_0, X_1) = (V_2, V_1)

    if ytype == 1:
        exp1 = b.exp_support & split.classes[1]
        delta = eta**3 * rho**4 / (Fraction(10**12) * p.omega_star**4)
        qpairs, Xp, crep = clean_match(
            gw, ["_E1", "G_nabla", "G_exp"],
            [M.v2(), M.v1(), exp1, exp1], Ybar, parts, 3,
            p.omega_star, eta * rho / 200, rho / (2 * p.omega_star), delta,
            eps_bar, beta, d_bar, k)
        tr.add("clean-Match (t1) hypotheses", crep.hypotheses.ok)
        data = {"precfg": "reg", "heart": heart, "V0": Xp[0], "V1": Xp[1],
                "pairs": tuple(qpairs), "V2": Xp[2], "V3": Xp[3]}
        if heart == 1:
            data["F"] = b.F_cover
        w = ConfigurationWitness("D6", data)
        cp = ConfigParams(delta=delta, eps_tilde=min(4 * eps_bar, Fraction(1)),
                          d_prime=d_bar / 4, mu=beta / 2,
                          gamma_prime=3 * eta**3 / 2000,
                          h2=split.fractions[2] * (1 + eta / 20) * k)
    elif ytype == 2:
        delta = eta**3 * gamma**3 * rho / (Fraction(10**12) * p.omega_star**4)
        qpairs, Xp, crep = clean_match(
            gw, ["_E1", "G_nabla", "G_D"],
            [M.v2(), M.v1(), b.E & split.classes[1], split.classes[1]],
            Ybar, parts, 3, p.omega_star, eta * gamma / 200,
            rho / p.omega_star, delta, eps_bar, beta, d_bar, k)
        tr.add("clean-Match (t2) hypotheses", crep.hypotheses.ok)
        data = {"precfg": "reg", "heart": heart, "V0": Xp[0], "V1": Xp[1],
                "pairs": tuple(qpairs), "V2": Xp[2], "V3": Xp[3]}
        if heart == 1:
            data["F"] = b.F_cover
        w = ConfigurationWitness("D7", data)
        cp = ConfigParams(delta=delta, rho_prime=eta * gamma / 400,
                          eps_tilde=min(4 * eps_bar, Fraction(1)),
                          d_prime=d_bar / 4, mu=beta / 2,
                          gamma_prime=3 * eta**3 / 2000,
                          h2=split.fractions[2] * (1 + eta / 20) * k)
    elif ytype == 3 and flag == "cA":
        Mbar, rrep = _restricted_mab(b, split)
        tr.extend(rrep, prefix="M-bar: ")
        Ym = Ybar | shadow(g, "G_D", _leftover(b, split, Mbar),
                           eta * eta * k / 1000)
        X2 = ((b.L & b.V_to_E) & split.classes[0]) - \
            (b.exp_support | b.E |
             b.MAB().vertices() | b.V_not_to_H | b.L_sharp | b.J_E | b.J1)
        delta = eta**4 * gamma**4 * rho / (Fraction(10**15) * p.omega_star**5)
        qpairs, Xp, crep = clean_match(
            gw, ["_E1", "G_nabla", "G_nabla", "G_D"],
            [M.v2(), M.v1(), X2, b.E & split.classes[1], split.classes[1]],
            Ym, parts, 4, p.omega_star, eta * gamma / 200,
            rho / p.omega_star, delta, eps_bar, beta, d_bar, k)
        tr.add("clean-Match (t3) hypotheses", crep.hypotheses.ok)
        NN = RegularizedMatching(
            [(X, Yv) for X, Yv in Mbar.pairs
             if not (X | Yv) <= b.N_E.vertices()],
            400 * p.eps / eta, p.d / 2, eta * p.pi * c_size / 200, "G_D")
        w = ConfigurationWitness("D8", {
            "V0": Xp[0], "V1": Xp[1], "pairs": tuple(qpairs),
            "V2": Xp[2], "V3": Xp[3], "V4": Xp[4], "N": NN})
        cp = ConfigParams(delta=delta, rho_prime=eta * gamma / 400,
                          eps1=400 * p.eps / eta, eps2=min(4 * eps_bar, Fraction(1)),
                          d1=p.d / 2, d2=d_bar / 4,
                          mu1=eta * p.pi * c_size / (200 * k), mu2=beta / 2,
                          h1=split.fractions[1] * (1 + eta / 20) * k,
                          h2=split.fractions[2] * (1 + eta / 20) * k)
    elif ytype in (3, 4, 5) and flag == "cB":
        Mbar, rrep = _restricted_mab(b, split)
        tr.extend(rrep, prefix="M-bar: ")
        Ym = Ybar | shadow(g, "G_D", _leftover(b, split, Mbar),
                           eta * eta * k / 1000)
        F_prime = tuple(b.F_cover) + tuple(X for X in b.MB.members()
                                           if X <= b.E)
        union_fp = frozenset().union(*[frozenset(x) for x in F_prime]) \
            if F_prime else frozenset()
        X2 = Mbar.vertices() - union_fp
        delta = rho * eta**8 / (Fraction(10**27) * p.omega_star**3)
        qpairs, Xp, crep = clean_match(
            gw, ["_E1", "G_D"], [M.v2(), M.v1(), X2], Ym, parts, 2,
            p.omega_star, eta**4 / Fraction(10**11), rho / (2 * p.omega_star),
            delta, eps_bar, beta, d_bar, k)
        tr.add("clean-Match (t3-5) hypotheses", crep.hypotheses.ok)
        NN = RegularizedMatching(Mbar.pairs, 400 * p.eps / eta, p.d / 2,
                                 eta * p.pi * c_size / 200, "G_D")
        w = ConfigurationWitness("D9", {
            "V0": Xp[0], "V1": Xp[1], "F": F_prime, "pairs": tuple(qpairs),
            "N": NN, "V2": Xp[2]})
        cp = ConfigParams(delta=delta, gamma_prime=2 * eta**3 / Fraction(10**3),
                          h1=split.fractions[1] * (1 + eta / 40) * k,
                          h2=split.fractions[2] * (1 + eta / 20) * k,
                          eps1=400 * p.eps / eta, d1=p.d / 2,
                          mu1=eta * p.pi * c_size / (200 * k),
                          eps2=min(4 * eps_bar, Fraction(1)), d2=d_bar / 4,
                          mu2=beta / 2)
    elif ytype == 5 and flag == "cA":
        return _t5_case(b, split, M, mkind, D_nabla, out)
    else:
        tr.add("no subcase for (%s, t%d)" % (flag, ytype), False)
        return out
    return _finish(out, w, cp, b, split)


def _restricted_mab(b, split):
    from .splitting import restrict_matching

    c_size = b.sd.bd.cluster_size() if b.sd.bd.clusters else None
    return restrict_matching(b.MAB(), split, 1, b.g, b.p, c_size,
                             recertify=False)


def _leftover(b, split, Mbar):
    vmab_1 = b.MAB().vertices() & split.classes[1]
    return vmab_1 - Mbar.vertices()


def _t5_case(b: CommonSettingBundle, split: Split, M: RegularizedMatching,
             mkind: str, D_nabla: DenseCover, out: HuntOutcome) -> HuntOutcome:
    """Case t5: assemble the regularized graph for configuration D10."""
    g, p = b.g, b.p
    k, eta, gamma = p.k, p.eta, p.gamma
    tr = out.trace
    vmab = b.MAB().vertices()
    stripped = {}
    for i, C in enumerate(b.sd.bd.clusters):
        stripped[i] = C - (b.L_sharp | vmab | b.V_not_to_H | b.J1)
    c_size = b.cluster_size_or_k
    small_thr = sqrt_val(p.eps_prime) * c_size
    C_minus = {i for i, C in stripped.items() if small_thr > len(C)}
    cm_union = frozenset().union(*(stripped[i] for i in C_minus))
    _record(out, "C_minus_union", cm_union)
    ensemble = [X for X in b.MAB().members()]
    ensemble += [stripped[i] for i in sorted(stripped) if i not in C_minus
                 and stripped[i]]
    universe = frozenset().union(*ensemble)

    gw = g._with_codes("_G_circ", _union_codes(
        g._codes_between(b.sd.bd.reg_layer, universe, universe),
        *(g._codes_between("G_nabla-G_exp", X, Yv) for X, Yv in b.MAB().pairs)))

    L_circ = []
    member_sets = set(b.MAB().members())
    for X in ensemble:
        if X in member_sets:
            continue
        if X and gw.mindeg("_G_circ", X) >= (1 + eta / 2) * k:
            L_circ.append(X)
    lc_union = frozenset().union(*L_circ)
    _record(out, "L_circ_union", lc_union)

    S = shadow(g, b.sd.bd.reg_layer, cm_union, eta * k / 200)
    M_S = [(X, Yv) for X, Yv in M.pairs
           if 4 * len((X | Yv) & S) >= len(X | Yv)]
    good_pairs = [pair for pair in M.pairs if pair not in M_S]
    tr.add("M - M_S non-empty", bool(good_pairs),
           measured=len(good_pairs), needed=1)
    if not good_pairs:
        return out

    target = b.MAB().vertices() | lc_union
    thr = (1 + eta / 40) * k + eta * k / 200
    low = (g._degrees(b.sd.bd.reg_layer, target) < ceil_val(thr)).tolist()

    def fail_set(X):
        return frozenset(v for v in X if low[v])

    chosen = None
    for A, B in good_pairs:
        P_A, P_B = fail_set(A), fail_set(B)
        if 2 * len(A - P_A) >= len(A) and 2 * len(B - P_B) >= len(B):
            chosen = (A, B, P_A, P_B)
            break
    if chosen is None:
        chosen = (good_pairs[0][0], good_pairs[0][1],
                  fail_set(good_pairs[0][0]), fail_set(good_pairs[0][1]))
        tr.add("degree-rich pair found", False)
    A, B, P_A, P_B = chosen

    if mkind == "M1":
        X_A = X_B = None
        for X, Yv in b.M_good.pairs:
            if A <= X and B <= Yv:
                X_A, X_B = X, Yv
                break
            if A <= Yv and B <= X:
                X_A, X_B = Yv, X
                break
        if X_A is None or X_B is None:
            X_A, X_B = A, B  # fall back to the pair itself
    else:
        neg_thr = gamma**3 * c_size / (16 * p.omega_star * k)

        def sparse_clusters(X, P_X):
            return frozenset().union(*(C for C in b.sd.bd.clusters
                                       if len(C & (X - P_X)) <= neg_thr * len(X)))

        R_A, R_B = sparse_clusters(A, P_A), sparse_clusters(B, P_B)
        _record(out, "R_A", R_A)
        _record(out, "R_B", R_B)
        between = _code_graph(g.n, _cover_codes(D_nabla, g.n))._codes_between(
            "G", A - (P_A | R_A), B - (P_B | R_B))
        tr.add("spot edge between the trimmed pair", between.size > 0)
        if not between.size:
            return out
        a, bb = divmod(int(between[0]), g.n)  # the least edge
        if a not in A:
            a, bb = bb, a
        C_A = next((C for C in b.sd.bd.clusters if a in C), None)
        C_B = next((C for C in b.sd.bd.clusters if bb in C), None)
        if C_A is None or C_B is None:
            return out
        idx_A = b.sd.bd.clusters.index(C_A)
        idx_B = b.sd.bd.clusters.index(C_B)
        X_A = stripped.get(idx_A) if idx_A not in C_minus else None
        X_B = stripped.get(idx_B) if idx_B not in C_minus else None
        if not X_A or not X_B:
            members_in = [X for X in ensemble if X <= C_A]
            X_A = min(members_in, key=lambda X: min(X)) if members_in else None
            members_in = [X for X in ensemble if X <= C_B]
            X_B = min(members_in, key=lambda X: min(X)) if members_in else None
        if not X_A or not X_B:
            return out

    w = ConfigurationWitness("D10", {
        "Gt_edges": gw._layer("_G_circ"), "ensemble": tuple(ensemble),
        "M": b.MAB(), "Lstar": tuple(L_circ), "A": X_A, "B": X_B})
    cp = ConfigParams(eps_tilde=p.eps, d_prime=gamma**2 * p.d / 2,
                      ell1=p.pi * sqrt_val(p.eps_prime) * p.nu * k,
                      ell2=p.omega_star**2 * k / gamma**2,
                      eta_prime=eta / 40)
    return _finish(out, w, cp, b, split)
