import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_regularity import (frozenset_adj_matrix, loop_regular_pair,
                               oracle_regular_pair, sampled_regular_pair)
from structhunt import regularity
from structhunt.regularity import (RegularizedGraph, RegularizedMatching, Sampled,
                                   _adj_matrix, _first_hit,
                                   check_m_cover, check_regular_pair,
                                   check_super_regular, degree_typicality,
                                   restrict_pair_params,
                                   validate_regularized_graph,
                                   validate_regularized_matching)
from util import (complete_bipartite, cycle_graph, graph_from_edges,
                  random_bipartite_edges, random_graph)


def bip(a, b, p, seed):
    A = list(range(a))
    B = list(range(a, a + b))
    g = graph_from_edges(a + b, random_bipartite_edges(A, B, p, seed))
    return g, frozenset(A), frozenset(B)


class TestCheckRegularPair:
    def test_complete_bipartite_regular(self):
        g = complete_bipartite(range(4), range(4, 8))
        cert = check_regular_pair(g, "G", frozenset(range(4)), frozenset(range(4, 8)),
                                  Fraction(1, 10))
        assert cert.verdict == "exact-regular"
        assert cert.density == 1

    def test_perfect_matching_irregular(self):
        g = graph_from_edges(8, [(i, i + 4) for i in range(4)])
        cert = check_regular_pair(g, "G", frozenset(range(4)), frozenset(range(4, 8)),
                                  Fraction(1, 4))
        assert cert.verdict == "exact-irregular"
        Up, Wp, dsub = cert.witness
        # witness re-verifies by direct density computation
        assert g.density("G", Up, Wp) == dsub
        assert abs(dsub - cert.density) >= Fraction(1, 4)
        # matched singleton pair has sub-density 1 against density 1/4
        assert (len(Up), len(Wp)) == (1, 1)

    def test_empty_pair_regular(self):
        g = graph_from_edges(4, [])
        cert = check_regular_pair(g, "G", frozenset(), frozenset({1}), Fraction(1, 2))
        assert cert.verdict == "exact-regular"
        assert cert.density == 0

    def test_above_cap_indeterminate(self):
        g = complete_bipartite(range(5), range(5, 10))
        cert = check_regular_pair(g, "G", frozenset(range(5)), frozenset(range(5, 10)),
                                  Fraction(1, 4), cap=4)
        assert cert.verdict == "indeterminate"

    def test_sampled_finds_exact_witness(self):
        g = graph_from_edges(8, [(i, i + 4) for i in range(4)])
        cert = check_regular_pair(g, "G", frozenset(range(4)), frozenset(range(4, 8)),
                                  Fraction(1, 4), mode=Sampled(trials=500, seed=1))
        if cert.verdict == "exact-irregular":
            Up, Wp, dsub = cert.witness
            assert g.density("G", Up, Wp) == dsub

    def test_sampled_regular_labelled(self):
        g = complete_bipartite(range(4), range(4, 8))
        cert = check_regular_pair(g, "G", frozenset(range(4)), frozenset(range(4, 8)),
                                  Fraction(1, 10), mode=Sampled(trials=50, seed=0))
        assert cert.verdict == "sampled-regular"
        assert "non-exhaustive" in cert.note

    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("a, b", [(1, 1), (3, 5), (24, 30)])
    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1),
                                     Fraction(3, 2)])
    @pytest.mark.parametrize("trials", [0, 40])
    def test_sampled_constant_pair_matches_loop(self, complete, a, b, eps, trials):
        # density 0 or 1 is decided without drawing; the certificate, or
        # the error for eps > 1, is the draw loop's
        A, B = frozenset(range(a)), frozenset(range(a, a + b))
        g = complete_bipartite(A, B) if complete else graph_from_edges(a + b, [])
        mode = Sampled(trials=trials, seed=5)
        assert _outcome(lambda: check_regular_pair(g, "G", A, B, eps, mode)) == \
            _outcome(lambda: sampled_regular_pair(g, "G", A, B, eps, mode))

    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([0.0, 0.5, 0.9, 1.0]),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    @settings(max_examples=60, deadline=None)
    def test_sampled_matches_loop(self, seed, a, b, p, eps):
        g, A, B = bip(a, b, p, seed)
        mode = Sampled(trials=30, seed=seed)
        assert check_regular_pair(g, "G", A, B, eps, mode) == \
            sampled_regular_pair(g, "G", A, B, eps, mode)

    def test_overlap_rejected(self):
        g = random_graph(6, 0.5, 0)
        with pytest.raises(ValueError):
            check_regular_pair(g, "G", frozenset({0, 1}), frozenset({1, 2}), Fraction(1, 2))

    @given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 7),
           st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence(self, seed, a, b, eps):
        g, A, B = bip(a, b, 0.5, seed)
        cert = check_regular_pair(g, "G", A, B, eps)
        verdict, witness = oracle_regular_pair(g, "G", A, B, eps)
        assert (cert.verdict == "exact-regular") == (verdict == "regular")
        if witness is not None:
            # canonical witness: identical lex-first subset pair
            assert cert.witness[0] == witness[0]
            assert cert.witness[1] == witness[1]
            assert cert.witness[2] == witness[2]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


HUGE_EPS = [Fraction(10**18 + 3, 4 * 10**18 + 7), Fraction(3 * 10**18 - 1, 10 * 10**18 + 9),
            Fraction(10**18 - 1, 10**18)]


def planted(a, b, ka, kb, noise, seed):
    """A complete ka x kb block on the highest indices of both sides of an
    a x b pair, plus each other cross pair with probability noise."""
    rng = random.Random(seed)
    A, B = list(range(a)), list(range(a, a + b))
    block = {(u, w) for u in A[a - ka:] for w in B[b - kb:]}
    edges = sorted(block) + [(u, w) for u in A for w in B
                             if (u, w) not in block and rng.random() < noise]
    return graph_from_edges(a + b, edges), frozenset(A), frozenset(B)


def agrees_with_loop(g, A, B, eps):
    """Verdict and witness (U', W', d') equal the loop-form reference's."""
    cert = check_regular_pair(g, "G", A, B, eps)
    verdict, witness = loop_regular_pair(g, "G", A, B, eps)
    assert (cert.verdict, cert.witness) == (
        "exact-%s" % verdict, witness), (len(A), len(B), eps)
    return cert


class TestAdjMatrix:
    @given(st.integers(0, 10**6), st.integers(1, 30), st.sampled_from([0.0, 0.2, 0.6, 1.0]),
           st.sampled_from(["G", "G_D", "G+G_D", "G-G_D"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_frozenset_fill(self, seed, n, p, spec):
        """The masked fill equals the entry-by-entry fill on any two vertex
        sets, overlapping or not, empty or not."""
        rng = random.Random(seed)
        g = random_graph(n, p, seed)
        g = g.with_layer("G_D", [e for e in sorted(g.edges("G")) if rng.random() < 0.5]
                         + [(0, v) for v in range(1, n) if rng.random() < 0.2])
        U = frozenset(v for v in range(n) if rng.random() < 0.4)
        W = frozenset(v for v in range(n) if rng.random() < 0.4)
        new, old = _adj_matrix(g, spec, U, W), frozenset_adj_matrix(g, spec, U, W)
        assert new[:2] == old[:2]
        assert new[2].dtype == old[2].dtype and np.array_equal(new[2], old[2])

    def test_ids_outside_the_graph_have_no_edges(self):
        g = complete_bipartite(range(3), range(3, 6))
        u_list, w_list, M = _adj_matrix(g, "G", {-2, 0, 1, 9}, {3, 4, 6})
        assert (u_list, w_list) == ([-2, 0, 1, 9], [3, 4, 6])
        assert M.tolist() == [[0, 0, 0], [1, 1, 0], [1, 1, 0], [0, 0, 0]]


class TestExactKernelBlocks:
    """The chunked kernel against the loop form, with sides past one
    2**10-mask block, so both scans cross block boundaries."""

    def test_first_hit_order(self):
        rng = random.Random(5)
        for k in (0, 1, 9, 10, 11, 13):
            rows = [[rng.randint(0, 3), rng.randint(-2, 2)] for _ in range(k)]
            target = rng.randint(0, 3 * k)

            def sum_of(mask):
                return [sum(r[c] for i, r in enumerate(rows) if mask >> i & 1)
                        for c in range(2)]

            want = next((mask for mask in range(1 << k)
                         if sum_of(mask)[0] >= target and sum_of(mask)[1] < 0), None)
            got = _first_hit(np.array(rows, dtype=np.int64).reshape(k, 2),
                             lambda s: (s[:, 0] >= target) & (s[:, 1] < 0))
            if want is None:
                assert got is None
            else:
                assert got[0] == want and list(got[1]) == sum_of(want)

    @pytest.mark.parametrize("a,b", [(14, 14), (11, 14), (14, 11), (12, 3), (3, 12)])
    def test_complete_and_empty(self, a, b):
        for edges in ([], [(u, w) for u in range(a) for w in range(a, a + b)]):
            g = graph_from_edges(a + b, edges)
            cert = agrees_with_loop(g, frozenset(range(a)),
                                    frozenset(range(a, a + b)), Fraction(1, 4))
            assert cert.verdict == "exact-regular"

    def test_random_pairs(self):
        rng = random.Random(14)
        for trial in range(24):
            a, b = rng.randint(9, 14), rng.randint(1, 14)
            if trial % 2:
                a, b = b, a
            eps = Fraction(rng.randint(1, 3), rng.choice([4, 5, 7, 8]))
            agrees_with_loop(*bip(a, b, rng.choice([0.2, 0.5, 0.8]), trial), eps)

    @pytest.mark.parametrize("a,b,ka,kb", [
        (14, 14, 4, 4), (13, 14, 3, 4), (14, 13, 4, 3), (12, 14, 2, 4), (14, 11, 4, 1)])
    def test_planted_on_highest_indices(self, a, b, ka, kb):
        # Without noise a U' or W' that misses the block has sub-density 0,
        # within eps of the pair density, so every violation uses the block.
        g, A, B = planted(a, b, ka, kb, 0.0, seed=0)
        cert = agrees_with_loop(g, A, B, Fraction(1, 4))
        assert cert.verdict == "exact-irregular"
        Up, Wp, dsub = cert.witness
        assert g.density("G", Up, Wp) == dsub
        # the first violation lies past the first 2**10 masks of both scans
        assert max(Up) >= 10 and max(Wp) - a >= 10

    def test_deviation_equal_to_eps_violates(self):
        # With eps = d, an edgeless corner of two sides deviates by exactly
        # eps: the boundary case of the >= test.
        for a, b, ka, kb in ((14, 14, 4, 4), (11, 13, 3, 5), (6, 12, 2, 3)):
            g, A, B = planted(a, b, ka, kb, 0.0, seed=0)
            d = g.density("G", A, B)
            cert = agrees_with_loop(g, A, B, d)
            assert cert.witness[2] == 0
        for seed in range(6):
            g, A, B = bip(12, 11, 0.3, seed)
            agrees_with_loop(g, A, B, g.density("G", A, B))

    def test_planted_with_noise(self):
        rng = random.Random(41)
        for trial in range(8):
            a, b = rng.randint(11, 14), rng.randint(11, 14)
            g, A, B = planted(a, b, rng.randint(2, 5), rng.randint(2, 5),
                              rng.choice([0.05, 0.1, 0.3]), seed=trial)
            agrees_with_loop(g, A, B, Fraction(1, 4))

    @pytest.mark.parametrize("eps", HUGE_EPS)
    def test_huge_eps_terms(self, eps):
        # max(p, q) * ab^2 exceeds 2**62 even for the 4x4 pair, so the
        # cleared test's terms do not fit int64; the kernel's bounds must
        # still come out exact
        assert max(eps.numerator, eps.denominator) * 16**2 > 2**62
        cases = [bip(a, b, 0.5, seed) for seed, (a, b) in enumerate(
            [(4, 4), (7, 9), (12, 11), (11, 12)])]
        cases += [planted(12, 12, 4, 4, 0.0, seed=1), planted(6, 6, 2, 2, 0.3, seed=2)]
        cases.append((complete_bipartite(range(12), range(12, 24)),
                      frozenset(range(12)), frozenset(range(12, 24))))
        verdicts = {agrees_with_loop(g, A, B, eps).verdict for g, A, B in cases}
        if eps < Fraction(1, 2):
            assert verdicts == {"exact-regular", "exact-irregular"}


def scanned(monkeypatch, g, A, B, eps):
    """(certificate, whether the subset scan ran): a pair the degree bound
    proves regular is returned before ``_first_hit`` is called."""
    calls = []
    monkeypatch.setattr(regularity, "_first_hit",
                        lambda *args: calls.append(1) or _first_hit(*args))
    return check_regular_pair(g, "G", A, B, eps), bool(calls)


def flipped(a, b, complete, flips, seed):
    """A complete or empty a x b pair with ``flips`` random cross pairs
    toggled (a pair drawn twice toggles back)."""
    rng = random.Random(seed)
    A, B = list(range(a)), list(range(a, a + b))
    edges = {(u, w) for u in A for w in B} if complete else set()
    for _ in range(flips):
        edges ^= {(rng.choice(A), rng.choice(B))}
    return graph_from_edges(a + b, sorted(edges)), frozenset(A), frozenset(B)


class TestDegreeBound:
    """Exact mode returns exact-regular without a subset scan when the degree
    bounds of every (|U'|, |W'|) fit inside the eps interval."""

    @staticmethod
    def cases(rng, lo, hi, count):
        for trial in range(count):
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            kind = trial % 3
            if kind == 2:
                g, A, B = bip(a, b, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), trial)
            else:
                g, A, B = flipped(a, b, kind == 0, rng.randint(0, 3), trial)
            eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                              Fraction(1, 5), Fraction(1, 8), g.density("G", A, B)]
                             + HUGE_EPS)
            if eps > 0:
                yield g, A, B, eps

    def test_against_oracle_to_side_10(self, monkeypatch):
        rng, proved = random.Random(18), 0
        for g, A, B, eps in self.cases(rng, 1, 10, 240):
            cert, scan = scanned(monkeypatch, g, A, B, eps)
            # the brute force clears denominators in int64, which the huge
            # eps terms overflow; the loop form works in Python integers
            oracle = loop_regular_pair if eps in HUGE_EPS else oracle_regular_pair
            verdict, witness = oracle(g, "G", A, B, eps)
            assert (cert.verdict, cert.witness) == ("exact-" + verdict, witness)
            assert scan or verdict == "regular"
            proved += not scan
        assert proved >= 100

    def test_against_loop_at_sides_11_to_14(self, monkeypatch):
        rng, proved = random.Random(19), 0
        for g, A, B, eps in self.cases(rng, 11, 14, 24):
            cert, scan = scanned(monkeypatch, g, A, B, eps)
            verdict, witness = loop_regular_pair(g, "G", A, B, eps)
            assert (cert.verdict, cert.witness) == ("exact-" + verdict, witness)
            assert scan or verdict == "regular"
            proved += not scan
        assert proved >= 12

    @pytest.mark.parametrize("a,b,seed", [(12, 11, 1), (11, 14, 6), (14, 13, 27),
                                          (14, 14, 75)])
    def test_regular_pairs_the_bound_leaves_to_the_scan(self, monkeypatch, a, b, seed):
        g, A, B = bip(a, b, 0.5, seed)
        cert, scan = scanned(monkeypatch, g, A, B, Fraction(1, 2))
        assert scan and cert.verdict == "exact-regular"
        assert loop_regular_pair(g, "G", A, B, Fraction(1, 2)) == ("regular", None)

    @pytest.mark.parametrize("a,b", [(8, 3), (3, 8)])
    def test_either_side_may_decide(self, monkeypatch, a, b):
        # a 3-edge matching between the sides: summing over the side of 3
        # (every degree 1) proves the pair, summing over the side of 8 does
        # not, so the pair and its transpose rest on different sides' bounds
        edges = [(i, a + i) for i in range(3)]
        g = graph_from_edges(a + b, edges)
        cert, scan = scanned(monkeypatch, g, frozenset(range(a)),
                             frozenset(range(a, a + b)), Fraction(1, 3))
        assert not scan and cert.verdict == "exact-regular"

    @pytest.mark.parametrize("edges", ["complete", "empty", "complete less one"])
    def test_side_20_enumerates_no_mask(self, monkeypatch, edges):
        A, B = frozenset(range(20)), frozenset(range(20, 40))
        pairs = [(u, w) for u in A for w in B] if edges != "empty" else []
        g = graph_from_edges(40, pairs[1:] if edges == "complete less one" else pairs)

        def no_scan(*args):
            raise AssertionError("subset masks enumerated")

        monkeypatch.setattr(regularity, "_first_hit", no_scan)
        cert = check_regular_pair(g, "G", A, B, Fraction(1, 4))
        assert cert.verdict == "exact-regular" and cert.witness is None
        assert cert.density == Fraction(len(g.edges("G")), 400)


class TestSuperRegular:
    def test_k22(self):
        g = complete_bipartite([0, 1], [2, 3])
        rep = check_super_regular(g, "G", {0, 1}, {2, 3}, Fraction(1, 2), 1)
        assert rep.ok

    def test_isolated_vertex_fails_mindeg(self):
        g = graph_from_edges(4, [(0, 2), (0, 3)])
        rep = check_super_regular(g, "G", {0, 1}, {2, 3}, Fraction(1, 2), Fraction(1, 2))
        assert not rep.ok
        assert not rep["mindeg(A,B)"].passed

    def test_c8_alternating(self):
        g = cycle_graph(8)
        A = frozenset({0, 2, 4, 6})
        B = frozenset({1, 3, 5, 7})
        rep = check_super_regular(g, "G", A, B, Fraction(1, 2), Fraction(1, 4))
        # degree clause: mindeg 2 >= (1/4) * 4 = 1
        assert rep["mindeg(A,B)"].passed
        # regularity decided by the exact brute force, cross-checked with oracle
        verdict, _ = oracle_regular_pair(g, "G", A, B, Fraction(1, 2))
        assert rep.cert.is_regular == (verdict == "regular")


class TestRestrictPairParams:
    def test_paper_values(self):
        assert restrict_pair_params(Fraction(1, 100), Fraction(1, 2), Fraction(1, 10)) \
            == (Fraction(1, 5), Fraction(49, 100))

    def test_whole_set(self):
        eps, d = Fraction(1, 8), Fraction(1, 2)
        assert restrict_pair_params(eps, d, 1) == (2 * eps, d - eps)

    def test_alpha_below_eps_rejected(self):
        with pytest.raises(ValueError):
            restrict_pair_params(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8))

    def test_restriction_agreement_random(self):
        # restricting a certified-regular pair passes at the propagated params
        rng = random.Random(42)
        done = 0
        for seed in range(60):
            g, A, B = bip(8, 8, 0.5, seed)
            eps = Fraction(1, 2)
            cert = check_regular_pair(g, "G", A, B, eps)
            if cert.verdict != "exact-regular" or cert.density < eps:
                continue
            alpha = Fraction(3, 4)
            asub = frozenset(rng.sample(sorted(A), 6))
            bsub = frozenset(rng.sample(sorted(B), 6))
            eps2, d2 = restrict_pair_params(eps, cert.density, alpha)
            sub = check_regular_pair(g, "G", asub, bsub, min(eps2, Fraction(99, 100)))
            if eps2 < 1:
                assert sub.is_regular
                assert g.density("G", asub, bsub) >= d2
            done += 1
        assert done >= 3


class TestDegreeTypicality:
    def test_complete_pair_no_violators(self):
        g = complete_bipartite(range(3), range(3, 6))
        rep = degree_typicality(g, "G", frozenset(range(3)), [frozenset(range(3, 6))],
                                Fraction(1, 10))
        assert rep.low_violators == frozenset()
        assert rep.high_violators == frozenset()

    def test_isolated_vertex_violates_lower(self):
        g = graph_from_edges(5, [(0, 3), (0, 4), (1, 3), (1, 4)])
        rep = degree_typicality(g, "G", frozenset({0, 1, 2}), [frozenset({3, 4})],
                                Fraction(1, 10))
        assert 2 in rep.low_violators

    def test_empty_qs(self):
        g = random_graph(5, 0.5, 1)
        rep = degree_typicality(g, "G", frozenset({0, 1}), [], Fraction(1, 4))
        assert rep.low_violators == frozenset() and rep.high_violators == frozenset()

    def test_regular_family_bound(self):
        # for certified eps-regular (R, Q_i), violator sets have size <= eps|R|
        eps = Fraction(1, 2)
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            R = list(range(6))
            Q1 = list(range(6, 12))
            Q2 = list(range(12, 18))
            edges = (random_bipartite_edges(R, Q1, 0.5, seed) +
                     random_bipartite_edges(R, Q2, 0.5, seed + 1))
            g = graph_from_edges(18, edges)
            ok = all(check_regular_pair(g, "G", frozenset(R), frozenset(Q),
                                        eps).is_regular for Q in (Q1, Q2))
            if not ok:
                continue
            rep = degree_typicality(g, "G", frozenset(R),
                                    [frozenset(Q1), frozenset(Q2)], eps)
            assert len(rep.low_violators) <= eps * len(R)
            assert len(rep.high_violators) <= eps * len(R)
            checked += 1
        assert checked >= 5


class TestRegularizedMatching:
    def test_empty_matching_passes(self):
        g = random_graph(4, 0.5, 0)
        m = RegularizedMatching([], Fraction(1, 2), Fraction(1, 2), 1)
        assert validate_regularized_matching(m, g).ok

    def test_shared_vertex_fails_disjointness(self):
        g = complete_bipartite(range(3), range(3, 6))
        m = RegularizedMatching([(frozenset({0}), frozenset({3})),
                                 (frozenset({0}), frozenset({4}))],
                                Fraction(1, 2), Fraction(1, 2), 1)
        rep = validate_regularized_matching(m, g)
        assert not rep["(iii) members pairwise disjoint"].passed

    def test_k33_pair_passes(self):
        g = complete_bipartite(range(3), range(3, 6))
        m = RegularizedMatching([(frozenset(range(3)), frozenset(range(3, 6)))],
                                Fraction(1, 2), Fraction(1, 2), 3)
        assert validate_regularized_matching(m, g).ok

    def test_size_mismatch_fails(self):
        g = complete_bipartite(range(3), range(3, 7))
        m = RegularizedMatching([(frozenset(range(3)), frozenset(range(3, 7)))],
                                Fraction(1, 2), Fraction(1, 2), 3)
        rep = validate_regularized_matching(m, g)
        assert not rep["(i) |A|=|B|>=ell"].passed


class TestRegularizedGraph:
    def _blobs(self):
        # disjoint union of complete bipartite blobs, ensemble = their sides
        edges = ([(u, v) for u in range(3) for v in range(3, 6)] +
                 [(u, v) for u in range(6, 9) for v in range(9, 12)])
        ens = [frozenset(range(3)), frozenset(range(3, 6)),
               frozenset(range(6, 9)), frozenset(range(9, 12))]
        return edges, ens

    def test_blobs_pass(self):
        edges, ens = self._blobs()
        rg = RegularizedGraph(edges, ens, Fraction(1, 2), Fraction(1, 2), 3, 3)
        assert validate_regularized_graph(rg).ok

    def test_edge_inside_member_fails(self):
        edges, ens = self._blobs()
        rg = RegularizedGraph(edges + [(0, 1)], ens, Fraction(1, 2), Fraction(1, 2), 3, 4)
        rep = validate_regularized_graph(rg)
        assert not rep["no edges inside a member"].passed

    def test_ell2_zero_with_edges_fails(self):
        edges, ens = self._blobs()
        rg = RegularizedGraph(edges, ens, Fraction(1, 2), Fraction(1, 2), 3, 0)
        rep = validate_regularized_graph(rg)
        assert not rep["|N(X)| <= ell2"].passed

    @pytest.mark.parametrize("extra, first, stray", [
        ([(0, 20)], 0, "(0, 20)"),  # the larger end outside the universe
        ([], 1, "(0, 3)")])  # the smaller end outside: the first member left out
    def test_edge_leaving_universe_rejected(self, extra, first, stray):
        edges, ens = self._blobs()
        rg = RegularizedGraph(edges + extra, ens[first:], Fraction(1, 2), Fraction(1, 2), 3, 3)
        with pytest.raises(ValueError, match=re.escape("edge %s leaves the ensemble" % stray)):
            validate_regularized_graph(rg)

    def test_overlapping_ensemble_rejected(self):
        rg = RegularizedGraph([], [frozenset({0, 1}), frozenset({1, 2})],
                              Fraction(1, 2), Fraction(1, 2), 1, 1)
        with pytest.raises(ValueError):
            validate_regularized_graph(rg)

    def test_matching_consistency(self):
        edges, ens = self._blobs()
        rg = RegularizedGraph(edges, ens, Fraction(1, 2), Fraction(1, 2), 3, 3)
        m = RegularizedMatching([(ens[0], ens[1])], Fraction(1, 2), Fraction(1, 2), 3)
        assert validate_regularized_graph(rg, matching=m).ok
        m_bad = RegularizedMatching([(frozenset({0}), frozenset({3}))],
                                    Fraction(1, 2), Fraction(1, 2), 1)
        rep = validate_regularized_graph(rg, matching=m_bad)
        assert not rep.ok


class TestMCover:
    def _matching(self):
        return RegularizedMatching(
            [(frozenset({0, 1}), frozenset({2, 3})),
             (frozenset({4, 5}), frozenset({6, 7}))],
            Fraction(1, 2), Fraction(1, 2), 2)

    def test_all_firsts(self):
        m = self._matching()
        assert check_m_cover(m.firsts(), m).ok

    def test_empty_cover_fails(self):
        m = self._matching()
        assert not check_m_cover([], m).ok

    def test_missing_one_pair_reported(self):
        m = self._matching()
        rep = check_m_cover([frozenset({0, 1})], m)
        assert not rep.ok
        assert "pair 1" in rep.items[0].note
