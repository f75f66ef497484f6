import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_tuple_sets import (tuple_absorbed_by, tuple_clean_spots,
                               tuple_edge_union, tuple_greedy_dense_cover,
                               tuple_is_dense_spot)
from structhunt.graphcore import LayeredGraph, norm_edge
from structhunt.spots import (DenseCover, DenseSpot, _cover_codes, check_avoiding,
                              certify_nowhere_dense, clean_spots,
                              extract_dense_spot, greedy_dense_cover,
                              is_dense_spot)
from util import (complete_bipartite, cycle_graph, graph_from_edges, path_graph,
                  random_decomposition, random_graph)


def oracle_has_spot(g, m, gamma):
    """Exhaustive oracle over ALL disjoint (U, W) pairs, full induced edges.

    Monotonicity in F makes full-induced pairs sufficient; tiny n only.
    """
    verts = list(range(g.n))
    n = g.n
    adj = g.adj("G")
    for assign in itertools.product((0, 1, 2), repeat=n):
        U = frozenset(verts[i] for i in range(n) if assign[i] == 1)
        W = frozenset(verts[i] for i in range(n) if assign[i] == 2)
        if not U or not W:
            continue
        F = [norm_edge(u, w) for u in U for w in adj if False]
        F = [norm_edge(u, w) for u in U for w in (adj[u] & W)]
        if not F:
            continue
        degs = {}
        for a, b in F:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        if all(degs.get(v, 0) > m for v in U | W) and \
                Fraction(len(F), len(U) * len(W)) > gamma:
            return True
    return False


def k_bipartite_spot(a, b, m, gamma):
    g = complete_bipartite(range(a), range(a, a + b))
    return DenseSpot(frozenset(range(a)), frozenset(range(a, a + b)),
                     g.edges("G"), m, gamma)


class TestIsDenseSpot:
    def test_k33(self):
        assert is_dense_spot(k_bipartite_spot(3, 3, 2, Fraction(1, 2))).ok

    def test_degree_matches_edge_scan(self):
        # degree(v) is a lookup; the reference counts the edges of F at v
        for seed in range(20):
            rng = random.Random(seed)
            U, W = frozenset(range(6)), frozenset(range(6, 13))
            F = [(w, u) if rng.random() < 0.5 else (u, w)
                 for u in U for w in W if rng.random() < 0.4]
            s = DenseSpot(U, W, F, 1, Fraction(1, 10))
            for v in range(15):
                assert s.degree(v) == sum(1 for e in s.F if v in e)

    def test_single_edge_strict_mindeg(self):
        s = DenseSpot({0}, {1}, [(0, 1)], 1, Fraction(1, 2))
        rep = is_dense_spot(s)
        assert not rep["mindeg > m"].passed

    def test_k33_minus_matching(self):
        edges = [(u, v) for u in range(3) for v in range(3, 6)
                 if v - u != 3]
        s = DenseSpot(frozenset(range(3)), frozenset(range(3, 6)), edges, 1,
                      Fraction(1, 2))
        rep = is_dense_spot(s)
        # oracle: 6 of 9 edges, mindeg 2 > 1, density 2/3 > 1/2
        assert rep.ok

    def test_non_bipartite_edge_rejected(self):
        with pytest.raises(ValueError):
            is_dense_spot(DenseSpot({0, 1}, {2}, [(0, 1)], 0, Fraction(1, 2)))

    def test_unordered_equality(self):
        s1 = k_bipartite_spot(2, 3, 1, Fraction(1, 2))
        s2 = DenseSpot(s1.W, s1.U, s1.F, 1, Fraction(1, 2))
        assert s1 == s2 and hash(s1) == hash(s2)


class TestExtractDenseSpot:
    def test_k66_whole_graph(self):
        g = complete_bipartite(range(6), range(6, 12))
        spot = extract_dense_spot(g, "G", 3, Fraction(1, 2))
        assert spot is not None
        assert is_dense_spot(spot).ok
        assert spot.sides() == {frozenset(range(6)), frozenset(range(6, 12))}

    def test_empty_graph(self):
        g = graph_from_edges(5, [])
        assert extract_dense_spot(g, "G", 1, Fraction(1, 2)) is None

    def test_long_path_no_spot(self):
        g = path_graph(10)
        assert extract_dense_spot(g, "G", 2, Fraction(1, 2)) is None
        # oracle at tiny n: max degree 2 caps spot mindeg
        g8 = path_graph(8)
        assert not oracle_has_spot(g8, 2, Fraction(1, 2))

    def test_found_spots_always_qualify(self):
        for seed in range(25):
            g = random_graph(20, 0.4, seed)
            spot = extract_dense_spot(g, "G", 2, Fraction(1, 3))
            if spot is not None:
                assert is_dense_spot(spot).ok


class TestCertifyNowhereDense:
    def test_empty_graph(self):
        g = graph_from_edges(4, [])
        assert certify_nowhere_dense(g, "G", 1, Fraction(1, 2)).ok

    def test_k44_not_nowhere_dense(self):
        g = complete_bipartite(range(4), range(4, 8))
        rep = certify_nowhere_dense(g, "G", 3, Fraction(1, 2))
        assert not rep.ok
        assert is_dense_spot(rep.spot).ok

    def test_c8_nowhere_dense(self):
        g = cycle_graph(8)
        assert certify_nowhere_dense(g, "G", 2, Fraction(3, 4)).ok

    def test_exact_cap_enforced(self):
        g = random_graph(20, 0.2, 0)
        with pytest.raises(ValueError):
            certify_nowhere_dense(g, "G", 1, Fraction(1, 2))

    def test_heuristic_mode_labelled(self):
        g = random_graph(30, 0.1, 1)
        rep = certify_nowhere_dense(g, "G", 2, Fraction(1, 2), mode="heuristic")
        assert "certificate" in rep.items[0].note or not rep.ok

    def test_exact_agrees_with_bruteforce_oracle(self):
        for seed in range(40):
            n = 7
            g = random_graph(n, 0.45, seed)
            for m, gamma in ((1, Fraction(1, 2)), (2, Fraction(1, 3))):
                got = certify_nowhere_dense(g, "G", m, gamma).ok
                expected = not oracle_has_spot(g, m, gamma)
                assert got == expected, (seed, m, gamma)


class TestGreedyDenseCover:
    def test_two_disjoint_k44(self):
        edges = ([(u, v) for u in range(4) for v in range(4, 8)] +
                 [(u, v) for u in range(8, 12) for v in range(12, 16)])
        g = graph_from_edges(16, edges)
        cover, residual = greedy_dense_cover(g, "G", 3, Fraction(1, 2))
        assert len(cover) == 2
        assert residual == frozenset()
        for s in cover:
            assert is_dense_spot(s).ok

    def test_nowhere_dense_input(self):
        g = path_graph(9)
        cover, residual = greedy_dense_cover(g, "G", 2, Fraction(1, 2))
        assert len(cover) == 0
        assert residual == g.edges("G")

    def test_k44_plus_isolated_edge(self):
        edges = [(u, v) for u in range(4) for v in range(4, 8)] + [(8, 9)]
        g = graph_from_edges(10, edges)
        cover, residual = greedy_dense_cover(g, "G", 3, Fraction(1, 2))
        assert len(cover) == 1
        assert residual == frozenset({(8, 9)})

    def test_edge_disjointness_reverified(self):
        for seed in range(15):
            g = random_graph(24, 0.35, seed)
            cover, residual = greedy_dense_cover(g, "G", 2, Fraction(1, 3))
            seen = set()
            for s in cover:
                assert not (s.F & seen)
                seen |= s.F
                assert is_dense_spot(s).ok
            assert seen | residual == g.edges("G")


class TestCheckAvoiding:
    def test_empty_E_vacuous(self):
        g = complete_bipartite(range(3), range(3, 6))
        spot = k_bipartite_spot(3, 3, 2, Fraction(1, 2))
        rep = check_avoiding(g, [spot], frozenset(), 1, Fraction(1, 2), Fraction(1, 2), 2)
        assert rep.ok

    def test_tiny_budget_always_passes(self):
        # |U| <= Lambda k < gamma^2 k forces |U cap V(D)| small enough
        g = complete_bipartite(range(3), range(3, 6))
        spot = k_bipartite_spot(3, 3, 2, Fraction(1, 2))
        rep = check_avoiding(g, [spot], frozenset({0}), Fraction(1, 4), Fraction(1, 8),
                             Fraction(1, 2), 4, adversary="exhaustive")
        # budget Lambda*k = 1 <= gamma^2 k = 1: every unit U passes
        assert rep.ok

    def test_adversarial_side_fails(self):
        g = complete_bipartite(range(2), range(2, 4))
        spot = DenseSpot({0, 1}, {2, 3}, g.edges("G"), 1, Fraction(1, 2))
        # U = one full side: |U cap V(D)| = 2 > gamma^2 k = 1/2; eps k < 1
        rep = check_avoiding(g, [spot], frozenset({0}), 1, Fraction(1, 8),
                             Fraction(1, 2), 2, adversary="exhaustive")
        assert not rep.ok
        assert 0 in rep.worst[1]

    def test_uncovered_E_is_structural_failure(self):
        g = complete_bipartite(range(2), range(2, 4))
        spot = DenseSpot({0, 1}, {2, 3}, g.edges("G"), 1, Fraction(1, 2))
        rep = check_avoiding(g, [spot], frozenset({0, 1, 2, 3, 4}) & g.vertices() | frozenset(),
                             1, Fraction(1, 2), Fraction(1, 2), 2)
        assert rep.items[0].passed  # all inside


class TestCleanSpots:
    def _setting(self, captured_fraction=1.0, seed=0):
        """Two K_{6,6} spots; a fraction of edges are in G_reg (captured)."""
        rng = random.Random(seed)
        edges1 = [(u, v) for u in range(6) for v in range(6, 12)]
        edges2 = [(u, v) for u in range(12, 18) for v in range(18, 24)]
        reg = [e for e in edges1 + edges2 if rng.random() < captured_fraction]
        g = graph_from_edges(24, edges1 + edges2, G_reg=reg)
        spots = [DenseSpot(range(6), range(6, 12), edges1, Fraction(3, 2), Fraction(1, 2)),
                 DenseSpot(range(12, 18), range(18, 24), edges2, Fraction(3, 2), Fraction(1, 2))]
        return g, spots

    def test_fully_captured_trivial_peel(self):
        g, spots = self._setting(1.0)
        cover, rep = clean_spots(g, spots, frozenset(), [], Fraction(1, 2), 3, Fraction(1, 4))
        assert rep.ok
        assert len(cover) == 2
        assert {s.F for s in cover} == {s.F for s in spots}

    def test_uncaptured_spot_discarded(self):
        g, spots = self._setting(1.0)
        g2 = g.with_layer("G_reg", [e for e in g.edges("G_reg")
                                    if e[0] >= 12])  # spot 1 fully uncaptured
        cover, rep = clean_spots(g2, spots, frozenset(), [], Fraction(1, 2), 3,
                                 Fraction(1, 4))
        assert len(cover) == 1
        assert rep["property 2: output edges captured"].passed

    def test_concentrated_uncaptured_vertex_peeled(self):
        # one U-vertex loses most incident edges; peel removes it, rest kept
        edges = [(u, v) for u in range(6) for v in range(6, 12)]
        reg = [e for e in edges if e[0] != 0 or e[1] == 6]  # vertex 0 keeps 1 edge
        g = graph_from_edges(12, edges, G_reg=reg)
        spot = DenseSpot(range(6), range(6, 12), edges, Fraction(3, 2), Fraction(1, 2))
        gamma = Fraction(1, 2)
        cover, rep = clean_spots(g, [spot], frozenset(), [], gamma, 3, 1)
        assert len(cover) == 1
        out = cover.spots[0]
        # threshold gamma^2 b / 4 = 6/16 < 1, so vertex 0 with 1 edge survives;
        # recompute with a bigger gamma to force the peel
        gamma = Fraction(9, 10)
        cover2, rep2 = clean_spots(g, [spot], frozenset(), [], gamma, 3, 1)
        if cover2.spots:
            assert 0 not in cover2.spots[0].vertices()

    def test_e_capture_layer(self):
        # edges into E from clusters count as captured
        edges = [(u, v) for u in range(4) for v in range(4, 8)]
        g = graph_from_edges(8, edges, G_reg=[])
        spot = DenseSpot(range(4), range(4, 8), edges, 1, Fraction(1, 2))
        cover, rep = clean_spots(g, [spot], frozenset(range(4)), [frozenset(range(4, 8))],
                                 Fraction(1, 2), 2, 1)
        assert rep["property 2: output edges captured"].passed
        assert len(cover) == 1

    def test_peel_confluence_random_orders(self):
        # the queue in clean_spots is order-insensitive: compare against a
        # randomized reimplementation of the peel
        edges = [(u, v) for u in range(6) for v in range(6, 12)]
        rng = random.Random(7)
        reg = [e for e in edges if rng.random() < 0.8]
        g = graph_from_edges(12, edges, G_reg=reg)
        spot = DenseSpot(range(6), range(6, 12), edges, Fraction(3, 2), Fraction(1, 2))
        gamma = Fraction(3, 4)
        cover, _ = clean_spots(g, [spot], frozenset(), [], gamma, 3, 1)
        expected = cover.spots[0].F if cover.spots else frozenset()

        for seed in range(10):
            rng2 = random.Random(seed)
            F = set(e for e in edges if e in set(map(tuple, reg)))
            thr_u = gamma * gamma * 6 / 4
            thr_w = gamma * gamma * 6 / 4
            U, W = set(range(6)), set(range(6, 12))
            while True:
                degs = {}
                for e in F:
                    for v in e:
                        degs[v] = degs.get(v, 0) + 1
                bad = ([v for v in U if degs.get(v, 0) < thr_u] +
                       [v for v in W if degs.get(v, 0) < thr_w])
                if not bad:
                    break
                v = rng2.choice(bad)
                (U if v in U else W).discard(v)
                F = {e for e in F if v not in e}
            assert frozenset(F) == expected


class TestSpotFacts:
    def test_size_bound_fact(self):
        # (gamma k, gamma)-spot in maxdeg <= Omega k: max side <= (Omega/gamma) k
        for seed in range(20):
            g = random_graph(30, 0.3, seed)
            k = 3
            maxdeg = max((g.deg("G", v) for v in range(g.n)), default=0)
            omega = Fraction(max(maxdeg, 1), k)
            gamma = Fraction(1, 2)
            cover, _ = greedy_dense_cover(g, "G", gamma * k, gamma)
            for s in cover:
                assert max(len(s.U), len(s.W)) <= (omega / gamma) * k

    def test_multiplicity_fact(self):
        # every vertex lies in < Omega/gamma of the edge-disjoint spots
        for seed in range(20):
            g = random_graph(30, 0.3, seed)
            k = 3
            maxdeg = max((g.deg("G", v) for v in range(g.n)), default=0)
            omega = Fraction(max(maxdeg, 1), k)
            gamma = Fraction(1, 2)
            cover, _ = greedy_dense_cover(g, "G", gamma * k, gamma)
            counts = {}
            for s in cover:
                for v in s.vertices():
                    counts[v] = counts.get(v, 0) + 1
            for v, c in counts.items():
                assert c < omega / gamma


class TestCleanSpotsAgainstTupleSets:
    @given(st.integers(0, 10**6), st.sampled_from([Fraction(1, 2), Fraction(3, 4),
                                                   Fraction(9, 10), Fraction(1, 5)]),
           st.sampled_from([0.3, 0.7, 0.9, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_matches_tuple_set_form(self, seed, gamma, captured_share):
        """Same cover, spot for spot, same report and absorption: spots with
        captured shares from none to all, captured through G_reg and through
        E and the clusters, sides of any sizes, and some spots given as
        parsed arrays."""
        from structhunt.fileio import dump_spot_line, parse_spot_line

        rng = random.Random(seed)
        n = rng.randint(8, 30)
        verts = list(range(n))
        spots, G = [], set()
        for _ in range(rng.randint(1, 4)):
            rng.shuffle(verts)
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            U, W = verts[:a], verts[a:a + b]
            F = [(u, w) for u in U for w in W if rng.random() < 0.8] or [(U[0], W[0])]
            G.update(norm_edge(*e) for e in F)
            spot = DenseSpot(U, W, F, Fraction(1), gamma)
            spots.append(parse_spot_line(dump_spot_line(spot), spot.m, spot.gamma)
                         if rng.random() < 0.5 else spot)
        G = sorted(G)
        reg = [e for e in G if rng.random() < captured_share]
        g = graph_from_edges(n, G, G_reg=reg)
        E = frozenset(v for v in range(n) if rng.random() < 0.2)
        clusters = [frozenset(v for v in range(n) if rng.random() < 0.2)]
        k, rho = rng.randint(1, 6), Fraction(1, rng.randint(1, 50))
        cover, rep = clean_spots(g, spots, E, clusters, gamma, k, rho)
        want, want_rep = tuple_clean_spots(g, spots, E, clusters, gamma, k, rho)
        assert rep.render() == want_rep.render()
        key = lambda s: (s.U, s.W, s.F, s.m, s.gamma,
                         sorted((v, s.degree(v)) for v in s.vertices()))
        assert [key(s) for s in cover] == [key(s) for s in want]
        assert [(i, s and key(s)) for i, s in rep.absorption] == \
            [(i, s and key(s)) for i, s in want_rep.absorption]

    def test_edges_outside_the_graph_are_uncaptured(self):
        """A spot edge with an end beyond n is never captured, even where its
        code u*n + v would name a captured edge of the graph."""
        g = graph_from_edges(4, [(1, 2), (0, 3)], G_reg=[(1, 2), (0, 3)])
        spot = DenseSpot([0], [3, 6], [(0, 3), (0, 6)], Fraction(1, 2), Fraction(1, 2))
        args = (g, [spot], frozenset(), [], Fraction(1, 2), 3, 1)
        cover, rep = clean_spots(*args)
        want, want_rep = tuple_clean_spots(*args)
        assert rep.render() == want_rep.render()
        assert [s.F for s in cover] == [s.F for s in want] == [frozenset({(0, 3)})]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


class TestSpotChecksAgainstTupleSets:
    """The array forms of the spot checks against the tuple-set forms, on the
    spots of random decompositions: shared edges, G_exp edges, edges leaving
    U x W or outside G, and ids -3, n, 2^40 and 2^70."""

    def _spots(self):
        for seed in range(300):
            g, bd, _, _ = random_decomposition(seed)
            yield g, list(bd.spots)

    def test_is_dense_spot(self):
        kinds = set()
        for _, spots in self._spots():
            for s in spots:
                found = _outcome(is_dense_spot, s)
                want = _outcome(tuple_is_dense_spot, s)
                render = lambda out: out if out[0] != "ok" else out[1].render()
                assert render(found) == render(want)
                kinds.add(found[0] if found[0] != "ok" else found[1].ok)
        assert kinds == {"ValueError", True, False}

    def test_absorbed_by(self):
        answers = set()
        for _, spots in self._spots():
            subs = [DenseSpot(s.U, s.W, sorted(s.F)[:len(s.F) // 2 + 1], s.m, s.gamma)
                    for s in spots]
            for a in spots + subs:
                for b in spots + subs:
                    got = a.absorbed_by(b)
                    assert got == tuple_absorbed_by(a, b)
                    answers.add(got)
        assert answers == {True, False}

    def test_edge_union(self):
        """The code union installs the tuple union's layer, and raises where
        the tuple union's layer could not be built."""
        for g, spots in self._spots():
            found = _outcome(_cover_codes, spots, g.n)
            want = _outcome(lambda: LayeredGraph(g.n, {"G": tuple_edge_union(spots)}))
            assert found[0] == want[0]
            if found[0] == "ok":
                assert found[1].tolist() == want[1]._codes().tolist()

    def test_equality_and_degree(self):
        for _, spots in self._spots():
            for s in spots:
                twin = DenseSpot(s.W, s.U, sorted(s.F, reverse=True) * 2, s.m, s.gamma)
                assert twin == s and hash(twin) == hash(s) and twin.F == s.F
                for v in s.vertices() | {-3, 2**70}:
                    assert s.degree(v) == sum(1 for e in s.F if v in e)

    def test_greedy_dense_cover(self):
        for seed in range(30):
            g = random_graph(16, 0.45, seed)
            for m, gamma in ((1, Fraction(1, 2)), (2, Fraction(1, 3))):
                cover, residual = greedy_dense_cover(g, "G", m, gamma)
                want, want_residual = tuple_greedy_dense_cover(g, "G", m, gamma)
                assert cover.spots == want.spots and residual == want_residual
