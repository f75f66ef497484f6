"""Degree-class machinery: L/S split, class membership, and every derived
vertex set of the common setting.

The common setting takes a graph with a sparse decomposition plus two
regularized matchings and derives, by fixed formulas, the sets the whole
case analysis runs on: XA/XB/XC, S0, V_plus, L_sharp, V_good, YA/YB, the
shadow-based bad sets J*, the cover family F, and the matchings M_good and
N_E.  Each set is computed on its first read, from the graph the bundle
was derived from, and then kept: a set no caller reads is never computed,
and re-deriving yields the identical sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .decomposition import Params, SparseDecomposition, captured_subgraph
from .exactmath import frac, sqrt_val
from .graphcore import (LayeredGraph, _isin_sorted, _support, _union_codes,
                        _vertices_where)
from .regularity import RegularizedMatching, check_m_cover
from .report import Report
from .shadows import shadow
from .spots import _cover_codes


@dataclass
class LKSClassification:
    L: frozenset          # degree >= (1 + eta) k
    S: frozenset          # the complement (strict <)
    is_lks: bool          # |L| >= (1/2 + eta) n
    small_clauses: Report  # the three extra class-membership clauses


def classify_vertices(g: LayeredGraph, k, eta) -> LKSClassification:
    """Split V by the (1 + eta) k degree threshold and test class membership."""
    k, eta = frac(k), frac(eta)
    form = g._directed("G")
    deg, u, v = form.degrees, form.u, form.v
    ceil_2eta = math.ceil((1 + 2 * eta) * k)
    ceil_eta = math.ceil((1 + eta) * k)
    in_L = deg >= ceil_eta  # deg >= (1 + eta) k
    L = _vertices_where(in_L)
    S = g.vertices() - L
    is_lks = len(L) >= (Fraction(1, 2) + eta) * g.n

    rep = Report("small-class clauses")
    high = deg > ceil_2eta
    ok1 = not (high[u] & high[v]).any()
    rep.add("1. neighbours of deg > ceil((1+2eta)k) have deg <= that", ok1)
    ok2 = not ((~in_L[u] & (deg[v] != ceil_eta)) | (~in_L[v] & (deg[u] != ceil_eta))).any()
    rep.add("2. neighbours of S-vertices have degree exactly ceil((1+eta)k)", ok2)
    e_total = len(g._codes("G"))
    rep.check_le("3. e(G) <= k n", e_total, k * g.n)
    return LKSClassification(L, S, is_lks, rep)


# The derived sets of the common setting, in the paper's order: name ->
# formula(bundle, pinned graph, params).  A formula reads the sets it needs
# as bundle attributes, so each set is computed on its first read and kept.
# Names with a leading underscore are intermediates shared by two or more.
_FORMULAS = {
    "_exp_support": lambda b, g, p: _support(g, b.sd.bd.exp_layer),
    "_vmab": lambda b, g, p: b.MA.vertices() | b.MB.vertices(),
    "L": lambda b, g, p: classify_vertices(g, p.k, p.eta).L,
    "S": lambda b, g, p: g.vertices() - b.L,
    "S0": lambda b, g, p: b.S - (b._exp_support | b.E),
    "_XABC": lambda b, g, p: compute_XABC(g, b.L, b.S, b._exp_support, b.E,
                                          b.MA, b.MB, p.k, p.eta),
    "XA": lambda b, g, p: b._XABC[0],
    "XB": lambda b, g, p: b._XABC[1],
    "XC": lambda b, g, p: b._XABC[2],
    "deg_hat": lambda b, g, p: b._XABC[3],
    "V_plus": lambda b, g, p: g.vertices() - (b.S0 - b._vmab),
    "L_sharp": lambda b, g, p: b.L - _vertices_where(
        g._degrees("G_nabla") >= math.ceil((1 + Fraction(9, 10) * p.eta) * p.k)),
    "V_good": lambda b, g, p: b.V_plus - (b.H | b.L_sharp),
    "_uncaptured_shadow": lambda b, g, p: shadow(g, "G-G_nabla", g.vertices(),
                                                 p.eta * p.k / 100),
    "YA": lambda b, g, p: shadow(g, "G_nabla", b.V_plus - b.L_sharp,
                                 (1 + p.eta / 10) * p.k) - b._uncaptured_shadow,
    "YB": lambda b, g, p: shadow(g, "G_nabla", b.V_plus - b.L_sharp,
                                 (1 + p.eta / 10) * p.k / 2) - b._uncaptured_shadow,
    "V_not_to_H": lambda b, g, p: (b.XA | b.XB) & shadow(g, "G", b.H, p.eta * p.k / 100),
    "V_to_E": lambda b, g, p: shadow(g, "G_nabla", b.E, p.rho * p.k / (100 * p.omega_star),
                                     exclude=b.H),
    "clusters_to_E": lambda b, g, p: tuple(C for C in b.sd.bd.clusters if C <= b.V_to_E),
    "N_E": lambda b, g, p: _sub_matching(b.MAB(), lambda X, Y: (X | Y) & b.E),
    "M_good": lambda b, g, p: _sub_matching(b.MA, lambda X, Y: (X | Y) <= b.XA),
    "J_E": lambda b, g, p: shadow(g, "G_reg", b.N_E.vertices(), p.gamma * p.k) - b._vmab,
    "J1": lambda b, g, p: shadow(g, "G_reg", g.vertices() - b._vmab,
                                 p.gamma * p.k) - b._vmab,
    "J": lambda b, g, p: (
        (b.XA - b.YA) | ((b.XA | b.XB) - b.YB) | b.V_not_to_H | b.L_sharp | b.J1
        | shadow(g, "G_D+G_nabla", b.V_not_to_H | b.L_sharp | b.J_E | b.J1,
                 p.eta * p.eta * p.k / 10**5)),
    "J2": lambda b, g, p: b.XA & shadow(g, "G_nabla", b.S0 - b.MA.vertices(),
                                        sqrt_val(p.gamma) * p.k),
    "J3": lambda b, g, p: b.XA & shadow(g, "G_nabla", b.XA, p.eta**3 * p.k / 10**3),
    "F_cover": lambda b, g, p: tuple([C for C in b.MA.members() if C <= b.XA]
                                     + b.MB.firsts()),
    "R": lambda b, g, p: shadow(g, "G_nabla", (b.V_to_E & b.L) - b._vmab,
                                2 * p.eta * p.eta * p.k / 10**5),
}
DERIVED = tuple(name for name in _FORMULAS if not name.startswith("_"))


def _sub_matching(M: RegularizedMatching, keep) -> RegularizedMatching:
    """The pairs (X, Y) of M with keep(X, Y), under M's parameters."""
    return replace(M, pairs=[(X, Y) for X, Y in M.pairs if keep(X, Y)])


@dataclass
class CommonSettingBundle:
    """Everything the case analysis derives from (g, sd, p, M_A, M_B).

    Each name in DERIVED is computed on first read by its formula in
    _FORMULAS, from the graph the bundle was made with, and then kept.  A
    later replacement of g changes no derived set; exp_support follows it.
    """

    g: LayeredGraph
    sd: SparseDecomposition
    p: Params
    MA: RegularizedMatching
    MB: RegularizedMatching

    def __post_init__(self):
        self._derived_from = self.g

    def __getattr__(self, name):
        formula = _FORMULAS.get(name)
        if formula is None:
            raise AttributeError("%s has no attribute %r" % (type(self).__name__, name))
        value = self.__dict__[name] = formula(self, self._derived_from, self.p)
        return value

    @property
    def H(self) -> frozenset:
        return self.sd.H

    @property
    def E(self) -> frozenset:
        return self.sd.bd.E

    @property
    def exp_support(self) -> frozenset:
        """V(G_exp); recomputed on each access, so it follows a replaced g."""
        return _support(self.g, self.sd.bd.exp_layer)

    @property
    def cluster_size_or_k(self):
        """The common cluster size, or k when there are no clusters."""
        return self.sd.bd.cluster_size() if self.sd.bd.clusters else self.p.k

    def MAB(self) -> RegularizedMatching:
        return self.MA.union(self.MB)

    def named_sets(self) -> dict:
        return {
            "L": self.L, "S": self.S, "S0": self.S0, "XA": self.XA,
            "XB": self.XB, "XC": self.XC, "V_plus": self.V_plus,
            "L_sharp": self.L_sharp, "V_good": self.V_good, "YA": self.YA,
            "YB": self.YB, "V_not_to_H": self.V_not_to_H,
            "V_to_E": self.V_to_E, "J_E": self.J_E, "J1": self.J1,
            "J": self.J, "J2": self.J2, "J3": self.J3, "R": self.R,
            "H": self.H, "E": self.E,
        }

    def dump(self) -> str:
        from .graphcore import fmt_vertex_set

        lines = []
        for name, val in sorted(self.named_sets().items()):
            lines.append("%s = %s" % (name, fmt_vertex_set(val)))
        return "\n".join(lines) + "\n"


def compute_XABC(g: LayeredGraph, L, S, exp_support, E, MA: RegularizedMatching,
                 MB: RegularizedMatching, k, eta):
    """The XA/XB/XC split of L, plus the materialized deg-hat map."""
    k, eta = frac(k), frac(eta)
    vmab = MA.vertices() | MB.vertices()
    excluded = exp_support | E | vmab
    hat_target = S - excluded
    deg_hat = dict(enumerate(g._degrees("G", hat_target).tolist()))
    vmb = MB.vertices()
    XA = L - vmb
    half = (1 + eta) * k / 2
    XB = frozenset(v for v in (vmb & L) if deg_hat[v] < half)
    XC = L - (XA | XB)
    return XA, XB, XC, deg_hat


def derive_common_sets(g: LayeredGraph, sd: SparseDecomposition, p: Params,
                       MA: RegularizedMatching, MB: RegularizedMatching
                       ) -> CommonSettingBundle:
    """Install the G_nabla and G_D layers; the sets follow on first read."""
    if not g.has_layer("G_nabla"):
        g = captured_subgraph(sd, g, "G_nabla")
    if not g.has_layer("G_D"):
        g = g._with_codes("G_D", _cover_codes(sd.bd.spots, g.n))
    return CommonSettingBundle(g, sd, p, MA, MB)


def check_common_setting(b: CommonSettingBundle) -> Report:
    """The ten structural properties of the common setting, with margins."""
    g, p = b.g, b.p
    k, gamma, rho = p.k, p.gamma, p.rho
    n = g.n
    rep = Report("common setting")
    rep.add("0. avoiding threshold is rho k/(100 Omega*)",
            p.b == rho * k / (100 * p.omega_star), measured=p.b,
            needed=rho * k / (100 * p.omega_star))
    rep.add("1. V(M_A) disjoint from V(M_B)",
            not (b.MA.vertices() & b.MB.vertices()))
    rep.add("2. first members of M_B inside S0",
            all(X <= b.S0 for X in b.MB.firsts()))

    ok3 = True
    note3 = ""
    for i, (X, Y) in enumerate(b.MAB().pairs):
        in_spot = any((X <= s.U and Y <= s.W) or (X <= s.W and Y <= s.U)
                      for s in b.sd.bd.spots)
        homog = (X <= b.S or X <= b.L) and (Y <= b.S or Y <= b.L)
        if not (in_spot and homog):
            ok3, note3 = False, "pair %d" % i
            break
    rep.add("3. pairs inside spots, sides degree-homogeneous", ok3, note=note3)

    ok4 = True
    note4 = ""
    LE = b.L & b.E
    for i, (X, Y) in enumerate(b.MAB().pairs):
        first_ok = any(X <= C for C in b.sd.bd.clusters)
        second_ok = any(Y <= C for C in b.sd.bd.clusters) or Y <= LE
        if not (first_ok and second_ok):
            ok4, note4 = False, "pair %d" % i
            break
    rep.add("4. members inside clusters (seconds may sit in L cap E)", ok4, note=note4)

    from .decomposition import cluster_graph

    cg = cluster_graph(b.sd.bd, g, gamma)
    idx = {C: i for i, C in enumerate(b.sd.bd.clusters)}
    ok5 = True
    for X, Y in b.M_good.pairs:
        ci = next((idx[C] for C in b.sd.bd.clusters if X <= C), None)
        cj = next((idx[C] for C in b.sd.bd.clusters if Y <= C), None)
        if ci is None or cj is None or ci == cj or not cg.has_edge(ci, cj):
            ok5 = False
            break
    rep.add("5. M_good pairs correspond to cluster-graph edges", ok5)

    vma = b.MA.vertices()
    rep.check_le("6. e_nabla(XA, S0 - V(M_A)) <= gamma k n",
                 g.e_ordered("G_nabla", b.XA, b.S0 - vma), gamma * k * n)
    vmab = b.MAB().vertices()
    rep.check_le("7. e_reg(V - V(M)) <= gamma^2 k n",
                 g.e_induced("G_reg", g.vertices() - vmab), gamma * gamma * k * n)
    rep.check_le("8. e_reg(V - V(M), V(N_E)) <= gamma^2 k n",
                 g.e_ordered("G_reg", g.vertices() - vmab, b.N_E.vertices()),
                 gamma * gamma * k * n)
    uncaptured = g._codes("G-G_nabla").size
    rep.check_le("9. |E(G) - E(G_nabla)| <= 2 rho k n", uncaptured, 2 * rho * k * n)
    cap_e = _union_codes(g._codes("G_reg"), g._codes_between(
        "G", b.E, b.E | b.sd.bd.cluster_union()))
    dangling = int((~_isin_sorted(g._codes("G_D"), cap_e)).sum())
    rep.check_le("10. |E(G_D) - (E(G_reg) + E[E, E+clusters])| <= 5/4 gamma k n",
                 dangling, Fraction(5, 4) * gamma * k * n)
    return rep


def check_derived_bounds(b: CommonSettingBundle, beta, beta_tilde,
                         split=None) -> Report:
    """Size bounds on the derived sets, with their hypotheses flagged.

    The L_sharp / XA-YA / YB bounds hold when all but beta k n edges are
    captured; the V_not_to_H bound when e(H, XA+XB) <= beta_tilde k n.
    When a proportional split is supplied, the per-class mindeg/maxdeg
    clauses and the cover property are evaluated too.
    """
    beta, beta_tilde = frac(beta), frac(beta_tilde)
    g, p = b.g, b.p
    k, eta, n = p.k, p.eta, g.n
    rep = Report("derived-set bounds")

    uncaptured = g._codes("G-G_nabla").size
    hyp1 = uncaptured <= beta * k * n
    rep.add("hypothesis: uncaptured edges <= beta k n", hyp1,
            measured=uncaptured, needed=beta * k * n)

    def bound_item(name, measured, needed, hyp):
        # asserted only under the hypothesis; always measured
        suffix = "" if hyp else " [hyp failed]"
        rep.add(name + suffix, (measured <= needed) if hyp else None,
                measured=measured, needed=needed)

    bound_item("|L_sharp| <= (20 beta/eta) n", len(b.L_sharp),
               20 * beta / eta * n, hyp1)
    bound_item("|XA - YA| <= (600 beta/eta^2) n", len(b.XA - b.YA),
               600 * beta / eta**2 * n, hyp1)
    bound_item("|(XA+XB) - YB| <= (600 beta/eta^2) n",
               len((b.XA | b.XB) - b.YB), 600 * beta / eta**2 * n, hyp1)

    ehx = g.e_ordered("G", b.H, b.XA | b.XB)
    hyp2 = ehx <= beta_tilde * k * n
    rep.add("hypothesis: e(H, XA+XB) <= beta_tilde k n", hyp2,
            measured=ehx, needed=beta_tilde * k * n)
    bound_item("|V_not_to_H| <= (100 beta_tilde/eta) n", len(b.V_not_to_H),
               100 * beta_tilde / eta * n, hyp2)

    rep.check_le("maxdeg_nabla(XA - (J2+J3), union F) <= (3 eta^3/2000) k",
                 g.maxdeg("G_nabla", b.XA - (b.J2 | b.J3),
                          frozenset().union(*b.F_cover) if b.F_cover else frozenset()),
                 3 * eta**3 / 2000 * k)
    cover_rep = check_m_cover(b.F_cover, b.MAB())
    rep.add("F is an (M_A+M_B)-cover", cover_rep.ok)

    if split is not None:
        for i in (1, 2):
            Ai = split.classes[i]
            tgt = b.V_good & Ai
            mdA = g.mindeg("G_nabla", b.XA - (b.J | split.exceptional_vertices), tgt)
            needA = split.fractions[i] * (1 + eta / 20) * k
            rep.add("mindeg_nabla(XA - (J+Vbar), V_good|%d) >= p_%d (1+eta/20) k" % (i, i),
                    True if mdA is None else mdA >= needA,
                    measured=mdA, needed=needA,
                    note="vacuous" if mdA is None else "")
            mdB = g.mindeg("G_nabla", b.XB - (b.J | split.exceptional_vertices), tgt)
            rep.add("mindeg_nabla(XB - (J+Vbar), V_good|%d) >= p_%d (1+eta/20) k/2" % (i, i),
                    True if mdB is None else mdB >= needA / 2,
                    measured=mdB, needed=needA / 2,
                    note="vacuous" if mdB is None else "")
    return rep
