"""Regular-pair oracles for cross-checking check_regular_pair.

``oracle_regular_pair`` is an independent brute force: fully vectorized over
all W'-masks per U'-mask, with int64 arithmetic (no denominators are
compared until both sides are cleared), organized completely differently
from the production path (no sorted-prefix extremal pruning).  It visits
every (U'-mask, W'-mask) pair, so it stays at desk scale (sides <= 10).

``loop_regular_pair`` is the loop form of the production kernel: one U-mask
at a time, each with its own sort and prefix scan, then one W-mask at a time
for the witness.  It visits the U-masks and then the W-masks, not their
product, so it reaches sides past the kernel's 2**10-mask blocks; it is the
reference the chunked kernel must match verdict for verdict and witness for
witness.

``sampled_regular_pair`` is sampled mode as a draw loop on every pair, the
reference for the closed form that check_regular_pair takes on a pair of
density 0 or 1.

``frozenset_adj_matrix`` is the pair's 0/1 matrix filled one frozenset
lookup at a time, the reference for the masked fill of ``_adj_matrix``
(which ``loop_regular_pair`` itself calls).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from structhunt.regularity import RegPairCertificate, _adj_matrix, _min_size
from structhunt.rng import make_rng


def oracle_regular_pair(g, layer, U, W, eps: Fraction):
    """Return ("regular", None) or ("irregular", (U', W', d')) -- lex-first witness."""
    U, W = sorted(U), sorted(W)
    nu, nw = len(U), len(W)
    if nu == 0 or nw == 0:
        return "regular", None
    adj = g.adj(layer)
    M = np.zeros((nu, nw), dtype=np.int64)
    for i, u in enumerate(U):
        for j, w in enumerate(W):
            M[i, j] = 1 if w in adj[u] else 0
    e = int(M.sum())
    ab = nu * nw
    p, q = eps.numerator, eps.denominator

    wmasks = np.arange(1 << nw, dtype=np.int64)
    m_of = np.zeros(1 << nw, dtype=np.int64)
    for j in range(nw):
        m_of += (wmasks >> j) & 1
    min_m = _ceil_min(eps, nw)
    w_ok = m_of >= max(min_m, 1)

    min_a = _ceil_min(eps, nu)
    # membership matrix: bit j of each wmask
    bits = ((wmasks[None, :] >> np.arange(nw)[:, None]) & 1).astype(np.int64)
    for umask in range(1, 1 << nu):
        a = bin(umask).count("1")
        if a < max(min_a, 1):
            continue
        deg = np.zeros(nw, dtype=np.int64)
        for i in range(nu):
            if umask >> i & 1:
                deg += M[i]
        esub = deg @ bits  # e(U', W') for every wmask
        lhs = np.abs(esub * ab - e * a * m_of) * q
        rhs = p * a * m_of * ab
        viol = w_ok & (lhs >= rhs)
        if viol.any():
            wmask = int(np.argmax(viol))  # first True = lex-first mask
            Up = frozenset(U[i] for i in range(nu) if umask >> i & 1)
            Wp = frozenset(W[j] for j in range(nw) if wmask >> j & 1)
            m = int(m_of[wmask])
            return "irregular", (Up, Wp, Fraction(int(esub[wmask]), a * m))
    return "regular", None


def _ceil_min(eps: Fraction, size: int) -> int:
    bound = eps * size
    a = int(bound)
    if a < bound:
        a += 1
    return a


def loop_regular_pair(g, layer, U, W, eps: Fraction):
    """Return ("regular", None) or ("irregular", (U', W', d')) -- lex-first witness."""
    u_list, w_list, M = _adj_matrix(g, layer, frozenset(U), frozenset(W))
    nu, nw = len(u_list), len(w_list)
    if nu == 0 or nw == 0:
        return "regular", None
    e = int(M.sum())
    ab = nu * nw
    a_min = max(_min_size(eps, nu), 1)
    m_min = max(_min_size(eps, nw), 1)
    # degs[mask][j] = deg of w_list[j] into the U-subset encoded by mask
    degs = np.zeros((1 << nu, nw), dtype=np.int32)
    for mask in range(1, 1 << nu):
        low = mask & -mask
        degs[mask] = degs[mask ^ low] + M[low.bit_length() - 1]
    for mask in range(1, 1 << nu):
        a = mask.bit_count()
        if a < a_min:
            continue
        row = sorted(degs[mask].tolist(), reverse=True)
        pref_hi = pref_lo = 0
        for m in range(1, nw + 1):
            pref_hi += row[m - 1]       # m largest degrees
            pref_lo += row[nw - m]      # m smallest degrees
            if m < m_min:
                continue
            # extremal e(U', W') for this (a, m): any violation implies one here
            if _violates(pref_hi, a, m, e, ab, eps) or _violates(pref_lo, a, m, e, ab, eps):
                return "irregular", _first_witness_for_mask(
                    degs[mask], mask, u_list, w_list, e, ab, eps, a, m_min)
    return "regular", None


def _violates(e_sub: int, a: int, m: int, e: int, ab: int, eps: Fraction) -> bool:
    """|e_sub/(a m) - e/ab| >= eps, exactly, in integers."""
    p, q = eps.numerator, eps.denominator
    lhs = abs(e_sub * ab - e * a * m) * q
    return lhs >= p * a * m * ab


def _first_witness_for_mask(deg_vec, umask, u_list, w_list, e, ab, eps, a, m_min):
    """Lex-first violating W' for a fixed violating U'-mask."""
    nw = len(w_list)
    deg_vec = deg_vec.tolist()
    esub = [0] * (1 << nw)
    for wmask in range(1, 1 << nw):
        low = wmask & -wmask
        esub[wmask] = esub[wmask ^ low] + deg_vec[low.bit_length() - 1]
        m = wmask.bit_count()
        if m >= m_min and _violates(esub[wmask], a, m, e, ab, eps):
            Up = frozenset(u_list[i] for i in range(len(u_list)) if umask >> i & 1)
            Wp = frozenset(w_list[i] for i in range(nw) if wmask >> i & 1)
            return (Up, Wp, Fraction(esub[wmask], a * m))
    raise AssertionError("violating U' mask had no violating W'")


def sampled_regular_pair(g, layer, U, W, eps: Fraction, mode) -> RegPairCertificate:
    """Sampled mode on non-empty disjoint sides: mode.trials random subset
    pairs, the first one deviating by eps or more is the witness."""
    u_list, w_list, M = _adj_matrix(g, layer, U, W)
    nu, nw = len(u_list), len(w_list)
    e = int(M.sum())
    d = Fraction(e, nu * nw)
    a_min = max(_min_size(eps, nu), 1)
    m_min = max(_min_size(eps, nw), 1)
    rng = make_rng(mode.seed)
    worst = Fraction(0)
    for _ in range(mode.trials):
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


def frozenset_adj_matrix(g, layer, U, W):
    """(sorted U, sorted W, M) from the frozenset adjacency, entry by entry."""
    u_list, w_list = sorted(U), sorted(W)
    adj = g.adj(layer)
    M = np.zeros((len(u_list), len(w_list)), dtype=np.int64)
    w_index = {w: j for j, w in enumerate(w_list)}
    for i, u in enumerate(u_list):
        for w in adj[u]:
            j = w_index.get(w)
            if j is not None:
                M[i, j] = 1
    return u_list, w_list, M
