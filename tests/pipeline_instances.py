"""End-to-end instances for the configuration hunt.

Each builder returns (bundle, split).  The degree arithmetic is chosen so
the hunt's intended branch actually fires at desk scale: tiny rho keeps the
edge-mass thresholds reachable, full capture (nabla = G) keeps the bad sets
empty, and the block wiring gives every cleaned set its required degrees.
"""

from __future__ import annotations

from fractions import Fraction

from structhunt.decomposition import (BoundedDecomposition, Params,
                                      SparseDecomposition)
from structhunt.graphcore import LayeredGraph, norm_edge
from structhunt.lks import derive_common_sets
from structhunt.regularity import RegularizedMatching
from structhunt.splitting import Split
from structhunt.spots import DenseCover, DenseSpot

F2 = Fraction(1, 2)


def bip(A, B):
    return [(u, v) for u in A for v in B]


def assemble(n, G, layers, H=frozenset(), E=frozenset(), clusters=(),
             spots=(), MA=None, MB=None, **pkw):
    all_layers = {"G": G}
    all_layers.update(layers)
    g = LayeredGraph(n, all_layers)
    bd = BoundedDecomposition(list(clusters), DenseCover(list(spots)),
                              "G_reg", "G_exp", frozenset(E), [g.vertices()])
    sd = SparseDecomposition(frozenset(H), bd)
    p = Params(**pkw)
    empty = RegularizedMatching([], F2, Fraction(0), 0)
    return derive_common_sets(g, sd, p, MA or empty, MB or empty)


def manual_split(bundle, P0, P1, P2, fractions=(Fraction(1, 3),) * 3):
    target = bundle.g.vertices() - bundle.H
    rest = target - (frozenset(P0) | frozenset(P1) | frozenset(P2))
    classes = (frozenset(P0) | rest, frozenset(P1), frozenset(P2)) + \
        (frozenset(),) * 7
    q = tuple(fractions) + (Fraction(0),) * 7
    return Split(target, classes, q, seed=0)


def d1_instance():
    """Huge-degree Case A: H complete to a larger block, everything in L."""
    H = list(range(6))
    rest = list(range(6, 26))
    G = bip(H, rest)
    b = assemble(26, G, {"G_exp": [], "G_reg": []}, H=frozenset(H),
                 k=3, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    split = manual_split(b, rest, [], [])
    return b, split


def exp_instance():
    """K1 + expander mass: the YA cut routes to the chain cleaning."""
    A = list(range(6))
    B = list(range(6, 12))
    C = list(range(12, 16))
    D = list(range(16, 20))
    W = list(range(20, 24))
    exp = bip(A, B) + bip(C, D)
    nabla_only = bip(B, C) + bip(A, D) + bip(A + B, W)
    G = exp + nabla_only
    b = assemble(24, G, {"G_exp": exp, "G_reg": [], "G_nabla": G},
                 k=3, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    split = manual_split(b, A + B, C + D, W,
                         fractions=(F2, Fraction(1, 3), Fraction(1, 6)))
    return b, split


def wa_t1_instance():
    """K1 without expander mass between the cut sides: majority type t1,
    spot matching, clean-Match toward the regular-pair configuration."""
    A = list(range(6))       # one cluster
    B = list(range(6, 12))   # the avoiding set
    C = list(range(12, 16))
    D = list(range(16, 20))
    W = list(range(20, 24))
    exp = bip(C, D)
    ab = bip(A, B)
    other = bip(A, C) + bip(B, D) + bip(A, D) + bip(A + B, W)
    G = exp + ab + other
    spot = DenseSpot(frozenset(A), frozenset(B), ab, 1, Fraction(1, 100))
    b = assemble(24, G, {"G_exp": exp, "G_reg": [], "G_nabla": G,
                         "G_D": ab},
                 E=frozenset(B), clusters=[frozenset(A)], spots=[spot],
                 k=3, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 pi=Fraction(1, 4), alpha_hat=Fraction(1, 4),
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    split = manual_split(b, A + B, C + D, W,
                         fractions=(F2, Fraction(1, 3), Fraction(1, 6)))
    return b, split


def k2_instance():
    """K1 fails, K2 holds: matching restriction, type t1 over the pairs,
    clean-Match via (M1)."""
    firsts = [0, 1, 4, 5]
    seconds = [2, 3, 6, 7]
    pairs = [(frozenset({0, 1}), frozenset({2, 3})),
             (frozenset({4, 5}), frozenset({6, 7}))]
    pair_edges = bip([0, 1], [2, 3]) + bip([4, 5], [6, 7])
    s_p1 = list(range(8, 16))
    s_p2 = list(range(16, 40))
    # firsts: 2 edges into S|P1, 5 into S|P2; seconds: 7 into S|P2
    first_p1 = [(f, s_p1[2 * i]) for i, f in enumerate(firsts)] + \
               [(f, s_p1[2 * i + 1]) for i, f in enumerate(firsts)]
    l_p2 = []
    at = 0
    for f in firsts:
        for _ in range(5):
            l_p2.append((f, s_p2[at % len(s_p2)]))
            at += 1
    for s in seconds:
        for _ in range(7):
            l_p2.append((s, s_p2[at % len(s_p2)]))
            at += 1
    l_p2 = sorted(set(norm_edge(*e) for e in l_p2))
    exp_match = [(s_p1[i], s_p1[i + 1]) for i in range(0, 8, 2)]
    exp = first_p1 + exp_match
    G = sorted(set(norm_edge(*e) for e in pair_edges + exp + l_p2))
    spots = [DenseSpot(a, bb, bip(sorted(a), sorted(bb)), 1, Fraction(1, 100))
             for a, bb in pairs]
    MA = RegularizedMatching(pairs, Fraction(1, 10), Fraction(1), 2, "G_D")
    b = assemble(40, G, {"G_exp": exp, "G_reg": pair_edges, "G_nabla": G,
                         "G_D": pair_edges},
                 E=frozenset(range(8, 40)), spots=spots, MA=MA,
                 k=6, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 eps_prime=Fraction(1, 10**6), pi=Fraction(1, 4),
                 omega_star=Fraction(2), omega_sstar=Fraction(2))
    split = manual_split(b, list(range(0, 8)), s_p1, s_p2,
                         fractions=(Fraction(1, 5), Fraction(1, 5),
                                    Fraction(1, 3)))
    return b, split


def unmet_instance():
    """Neither entry hypothesis holds."""
    b = assemble(8, [(0, 1)], {"G_exp": [], "G_reg": []}, k=3, eta=F2)
    split = manual_split(b, list(range(8)), [], [])
    return b, split


def random_instance(seed):
    """Random layered instance; hunts on these are usually not 'found' but
    must be deterministic and honest."""
    import random

    rng = random.Random(seed)
    n = rng.randint(12, 28)
    G = [(u, v) for u in range(n) for v in range(u + 1, n)
         if rng.random() < 0.35]
    exp = [e for e in G if rng.random() < 0.3]
    reg = [e for e in G if rng.random() < 0.3]
    H = frozenset(v for v in range(n) if rng.random() < 0.08)
    E = frozenset(v for v in range(n) if v not in H and rng.random() < 0.2)
    b = assemble(n, G, {"G_exp": exp, "G_reg": reg},
                 H=H, E=E, k=rng.randint(2, 4), eta=F2,
                 rho=Fraction(1, rng.choice([100, 1000])), gamma=F2,
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    verts = sorted(b.g.vertices() - H)
    rng.shuffle(verts)
    third = len(verts) // 3
    split = manual_split(b, verts[:third], verts[third:2 * third],
                         verts[2 * third:])
    return b, split


def t5_instance():
    """K1, wA, no expander or avoiding mass anywhere: majority type t5 and
    the regularized-graph endgame."""
    A = list(range(6))
    B = list(range(6, 12))
    ab = bip(A, B)
    MA = RegularizedMatching([(frozenset(A), frozenset(B))], Fraction(1, 4),
                             Fraction(1), 6, "G_D")
    spot = DenseSpot(frozenset(A), frozenset(B), ab, 1, Fraction(1, 100))
    b = assemble(12, ab, {"G_exp": [], "G_reg": ab, "G_nabla": ab,
                          "G_D": ab},
                 clusters=[frozenset(A), frozenset(B)], spots=[spot], MA=MA,
                 k=4, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 eps=F2, eps_prime=Fraction(1, 4), pi=Fraction(1, 4),
                 nu=Fraction(1, 4), d=Fraction(1, 4),
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    split = manual_split(b, A + B, [], [])
    return b, split


def huge_b_instance():
    """Huge-degree Case B toward the exp-flavoured club configuration:
    N_up empty (single H-edges), one heavy H vertex, exp block above."""
    H = [0, 1]
    T = [2, 3, 4, 5]
    V2 = [6, 7, 8]
    h_edges = [(0, t) for t in T]          # all T-edges go to vertex 0
    exp = bip(T, V2)
    G = h_edges + exp
    b = assemble(9, G, {"G_exp": exp, "G_reg": [], "G_nabla": G},
                 H=frozenset(H), k=2, eta=F2, rho=Fraction(1, 1000),
                 gamma=F2, omega_star=Fraction(3), omega_sstar=Fraction(4))
    split = manual_split(b, T + V2, [], [])
    return b, split


def cb_t5_instance():
    """K1 via XA-XB mass only (wB), no expander/avoiding sets anywhere:
    majority type t5 under cB, restricted-matching interface, toward the
    heart1-plus-matching configuration."""
    A = list(range(6))            # XA side
    Fa = [6, 7, 8]                # MB pair 1, first member (cover set)
    Fb = [9, 10, 11]              # MB pair 1, second member (the XB mass)
    W1 = [16, 17, 18, 19]         # MB pair 2, first member (cover set)
    W2 = [20, 21, 22, 23]         # MB pair 2, second member
    spot_edges = bip(A, Fb)
    G = (spot_edges + bip(A, [20, 21]) + bip(A, [22, 23]) + bip(Fa, Fb) +
         bip(Fa, [22, 23]) + bip(Fb, [20, 21]) + bip(W1, W2))
    gd = spot_edges + bip(A, [22, 23]) + bip(Fa, Fb) + bip(W1, W2)
    spot = DenseSpot(frozenset(A), frozenset(Fb), spot_edges, 1,
                     Fraction(1, 100))
    MB = RegularizedMatching([(frozenset(Fa), frozenset(Fb)),
                              (frozenset(W1), frozenset(W2))],
                             Fraction(1, 1000), Fraction(1, 2), 3, "G_D")
    b = assemble(24, G, {"G_exp": [], "G_reg": spot_edges, "G_nabla": G,
                         "G_D": gd},
                 spots=[spot], MB=MB,
                 k=4, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 eps=Fraction(1, 1000), d=Fraction(1, 4), pi=Fraction(1, 4),
                 alpha_hat=Fraction(1, 4), omega_star=Fraction(10),
                 omega_sstar=Fraction(2))
    split = manual_split(b, list(range(0, 16)), [18, 19, 22, 23],
                         [16, 17, 20, 21],
                         fractions=(Fraction(3, 5), Fraction(1, 5),
                                    Fraction(1, 5)))
    return b, split


def huge_i2_instance():
    """Huge-degree Case B, avoiding-set majority (i=2): V1 inside E."""
    H = [0, 1]
    T = [2, 3, 4, 5]
    V2b = [6, 7, 8]
    h_edges = [(0, t) for t in T]
    tv = bip(T, V2b)
    G = h_edges + tv
    b = assemble(9, G, {"G_exp": [], "G_reg": [], "G_nabla": G, "G_D": tv},
                 H=frozenset(H), E=frozenset(T),
                 k=2, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 omega_star=Fraction(3), omega_sstar=Fraction(4))
    split = manual_split(b, T + V2b, [], [])
    return b, split


def huge_i3_instance():
    """Huge-degree Case B, shadow-of-E majority (i=3): the four-set chain."""
    H = [0, 1]
    T = [2, 3, 4, 5]
    Eb = [6, 7, 8]
    h_edges = [(0, t) for t in T]
    te = bip(T, Eb)
    G = h_edges + te
    b = assemble(9, G, {"G_exp": [], "G_reg": [], "G_nabla": G, "G_D": te},
                 H=frozenset(H), E=frozenset(Eb),
                 k=2, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 omega_star=Fraction(3), omega_sstar=Fraction(4))
    split = manual_split(b, T + Eb, [], [])
    return b, split


def huge_i4_instance():
    """Huge-degree Case B, cluster majority (i=4): regular-layer degrees."""
    H = [0, 1]
    T = [2, 3, 4, 5]
    V2b = [6, 7, 8]
    h_edges = [(0, t) for t in T]
    tv = bip(T, V2b)
    G = h_edges + tv
    b = assemble(9, G, {"G_exp": [], "G_reg": tv, "G_nabla": G},
                 H=frozenset(H), clusters=[frozenset(T)],
                 k=2, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 omega_star=Fraction(3), omega_sstar=Fraction(4))
    split = manual_split(b, T + V2b, [], [])
    return b, split


def wa_t2_instance():
    """wA with the avoiding-set majority (t2): chain through E into P1."""
    A = list(range(6))
    B = list(range(6, 12))     # = E cap P0, the spot partner
    C = list(range(12, 16))    # = E cap P1
    D = list(range(16, 20))
    W = list(range(20, 24))
    ab = bip(A, B)
    cd = bip(C, D)
    G = ab + bip(A, C) + cd + bip(A + B, W)
    spot = DenseSpot(frozenset(A), frozenset(B), ab, 1, Fraction(1, 100))
    b = assemble(24, G, {"G_exp": [], "G_reg": [], "G_nabla": G,
                         "G_D": ab + cd},
                 E=frozenset(B + C), clusters=[frozenset(A)], spots=[spot],
                 k=3, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 pi=Fraction(1, 4), alpha_hat=Fraction(1, 4),
                 omega_star=Fraction(10), omega_sstar=Fraction(2))
    split = manual_split(b, A + B, C + D, W,
                         fractions=(F2, Fraction(1, 3), Fraction(1, 6)))
    return b, split


def wa_t3_instance():
    """wA with the R-shadow majority (t3): the five-level clean-Match chain
    plus an absorbed matching for the degree-sum clause."""
    A = list(range(6))
    B = list(range(6, 12))
    M2 = [12, 13]              # (L cap V_to_E) interface in P0
    Eb = [14, 15]              # the avoiding set, inside P1
    D4 = [16, 17]
    Wa = [18, 19]
    Wb = [20, 21]
    W = [22, 23]
    ab = bip(A, B)
    G = (ab + bip(A, M2) + bip(M2, Eb) + bip(Eb, D4) + bip(Wa, Wb) +
         bip(A + B, W))
    gd = ab + bip(M2, Eb) + bip(Eb, D4) + bip(Wa, Wb)
    spot = DenseSpot(frozenset(A), frozenset(B), ab, 1, Fraction(1, 100))
    MA = RegularizedMatching([(frozenset(A), frozenset(B))],
                             Fraction(1, 1000), Fraction(1), 6, "G_D")
    MB = RegularizedMatching([(frozenset(Wa), frozenset(Wb))],
                             Fraction(1, 1000), Fraction(1, 2), 2, "G_D")
    b = assemble(24, G, {"G_exp": [], "G_reg": ab, "G_nabla": G, "G_D": gd},
                 E=frozenset(Eb), spots=[spot], MA=MA, MB=MB,
                 k=3, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 eps=Fraction(1, 1000), d=Fraction(1, 4), pi=Fraction(1, 4),
                 alpha_hat=Fraction(1, 4), omega_star=Fraction(10),
                 omega_sstar=Fraction(2))
    split = manual_split(b, A + B + M2, Eb + D4 + Wa + Wb, W,
                         fractions=(F2, Fraction(1, 4), Fraction(1, 4)))
    return b, split


def k2_t5_instance():
    """K1 fails, K2 holds, and every M_good side has type t5: the K2 route
    (M1) into the regularized-graph endgame.  Each M_A vertex gets its
    large degree from low-degree M_B vertices, which lie in S, so they
    count for YA but add nothing to 2e(XA) + e(XA, XB)."""
    pairs = [(frozenset({0, 1}), frozenset({2, 3})),
             (frozenset({4, 5}), frozenset({6, 7}))]
    ma_edges = bip([0, 1], [2, 3]) + bip([4, 5], [6, 7])
    mb_pairs = [(frozenset({8 + 4 * i, 9 + 4 * i}),
                 frozenset({10 + 4 * i, 11 + 4 * i})) for i in range(8)]
    mb_edges = [e for X, Y in mb_pairs for e in bip(sorted(X), sorted(Y))]
    # M_A member i is complete to the four M_B members 4i..4i+3, so every
    # cross pair of members is complete or empty
    ma_members = [X for pair in pairs for X in pair]
    mb_members = [X for pair in mb_pairs for X in pair]
    to_mb = [e for i, X in enumerate(ma_members)
             for Y in mb_members[4 * i:4 * i + 4] for e in bip(sorted(X), sorted(Y))]
    G = sorted(set(norm_edge(*e) for e in ma_edges + mb_edges + to_mb))
    spots = [DenseSpot(a, bb, bip(sorted(a), sorted(bb)), 1, Fraction(1, 100))
             for a, bb in pairs + mb_pairs]
    MA = RegularizedMatching(pairs, Fraction(1, 10), Fraction(1), 2, "G_D")
    MB = RegularizedMatching(mb_pairs, Fraction(1, 10), Fraction(1), 2, "G_D")
    b = assemble(40, G, {"G_exp": [], "G_reg": G, "G_nabla": G,
                         "G_D": ma_edges + mb_edges},
                 spots=spots, MA=MA, MB=MB,
                 k=6, eta=F2, rho=Fraction(1, 1000), gamma=F2,
                 eps_prime=Fraction(1, 10**6), pi=Fraction(1, 4),
                 omega_star=Fraction(2), omega_sstar=Fraction(2))
    split = manual_split(b, list(range(0, 8)), list(range(8, 24)),
                         list(range(24, 40)),
                         fractions=(Fraction(1, 5), Fraction(2, 5),
                                    Fraction(2, 5)))
    return b, split
