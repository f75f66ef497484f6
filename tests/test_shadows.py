import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from structhunt.exactmath import RootVal, frac
from structhunt.shadows import (ShadowQuery, maximal_cut, min_degree_subgraph,
                                peel_bipartite, shadow, shadow_iter)
import oracle_shadows
from util import (complete_bipartite, complete_graph, graph_from_edges,
                  path_graph, random_graph)


def brute_shadow(g, U, ell):
    """Independent one-step shadow: direct adjacency enumeration."""
    out = set()
    for v in range(g.n):
        if g.deg("G", v, frozenset(U)) > ell:
            out.add(v)
    return frozenset(out)


def fraction_shadow(g, layer, U, ell, exclude=frozenset()):
    """The shadow step comparing each degree with ell as a Fraction or a
    RootVal, the reference for the integer threshold."""
    if not isinstance(ell, RootVal):
        ell = frac(ell)
    adj = g.adj(layer)
    U = frozenset(U) - exclude
    out = set()
    for v in range(g.n):
        if v in exclude:
            continue
        if len((adj[v] & U) - exclude) > ell:
            out.add(v)
    return frozenset(out)


# rational and root thresholds, several integer-valued: 6 = sqrt(36),
# 2 = 16**(1/4), 1 = (1/2) * 16**(1/4)
THRESHOLDS = [0, 2, Fraction(5, 2), Fraction(1, 3), Fraction(7, 7),
              RootVal(3, 4, 2), RootVal(1, 36, 2), RootVal(1, 16, 4),
              RootVal(Fraction(1, 2), 16, 4), RootVal(Fraction(3, 2), 2, 2),
              RootVal(1, 5, 4), RootVal(Fraction(5, 2)), RootVal(0, 3, 2)]


class TestShadow:
    @given(st.integers(0, 10**6), st.integers(2, 18), st.sampled_from(THRESHOLDS),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_fraction_comparison(self, seed, n, ell, excluding):
        g = random_graph(n, 0.5, seed)
        rng = random.Random(seed)
        U = frozenset(v for v in range(n) if rng.random() < 0.6)
        exclude = frozenset(v for v in range(n) if excluding and rng.random() < 0.2)
        assert shadow(g, "G", U, ell, exclude) == fraction_shadow(g, "G", U, ell, exclude)

    def test_star_leaves(self):
        g = complete_bipartite([0], [1, 2, 3])
        got = shadow_iter(g, ShadowQuery("G", frozenset({1, 2, 3}), Fraction(2), 1))
        # oracle: deg(0, U) = 3 > 2; leaves have degree 0 into U
        assert got == frozenset({0})

    def test_depth_zero_identity(self):
        g = complete_graph(5)
        U = frozenset({0, 3})
        assert shadow_iter(g, ShadowQuery("G", U, 1, 0)) == U

    def test_empty_set(self):
        g = complete_graph(5)
        assert shadow_iter(g, ShadowQuery("G", frozenset(), 0, 3)) == frozenset()

    def test_strict_threshold(self):
        g = complete_bipartite([0], [1, 2])
        U = frozenset({1, 2})
        # deg(0, U) = 2: not > 2, but > 1
        assert shadow(g, "G", U, 2) == frozenset()
        assert shadow(g, "G", U, 1) == frozenset({0})

    def test_shadow_may_intersect_input(self):
        g = complete_graph(4)
        U = frozenset({0, 1, 2})
        assert shadow(g, "G", U, 1) & U

    def test_exclude_vertices(self):
        g = complete_bipartite([0], [1, 2, 3])
        got = shadow(g, "G", frozenset({1, 2, 3}), 1, exclude=frozenset({0}))
        assert got == frozenset()

    @given(st.integers(0, 10**6), st.integers(2, 18), st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, seed, n, ell):
        g = random_graph(n, 0.4, seed)
        rng = random.Random(seed)
        U = frozenset(v for v in range(n) if rng.random() < 0.5)
        assert shadow(g, "G", U, ell) == brute_shadow(g, U, ell)

    def test_shadow_size_bound(self):
        # |shadow^(i)(U, alpha k)| <= (Omega/alpha)^i |U| when maxdeg <= Omega k
        for seed in range(30):
            g = random_graph(40, 0.2, seed)
            k = 4
            maxdeg = max(g.deg("G", v) for v in range(g.n))
            omega = Fraction(maxdeg, k) if maxdeg else Fraction(1)
            alpha = Fraction(1, 2)
            rng = random.Random(seed + 5)
            U = frozenset(v for v in range(g.n) if rng.random() < 0.3)
            cur = U
            for i in range(1, 4):
                cur = shadow(g, "G", cur, alpha * k)
                assert len(cur) <= (omega / alpha) ** i * len(U)


class TestMaximalCut:
    def _check_local_property(self, g, A, B):
        for v in A:
            assert g.deg("G", v, B) >= g.deg("G", v, A)
        for v in B:
            assert g.deg("G", v, A) >= g.deg("G", v, B)

    def test_triangle(self):
        g = complete_graph(3)
        A, B = maximal_cut(g, "G", frozenset({0, 1, 2}))
        assert A | B == frozenset({0, 1, 2}) and not (A & B)
        self._check_local_property(g, A, B)
        # oracle: exhaustive check that some 1-2 split is the only local optimum shape
        assert {len(A), len(B)} == {1, 2}

    def test_independent_set(self):
        g = graph_from_edges(4, [])
        A, B = maximal_cut(g, "G", frozenset({0, 1, 2, 3}))
        assert A | B == frozenset({0, 1, 2, 3})
        self._check_local_property(g, A, B)

    def test_k22_natural_sides(self):
        g = complete_bipartite([0, 1], [2, 3])
        A, B = maximal_cut(g, "G", g.vertices())
        assert {A, B} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_empty_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            maximal_cut(g, "G", frozenset())

    def test_deterministic(self):
        g = random_graph(20, 0.4, seed=3)
        S = frozenset(range(15))
        assert maximal_cut(g, "G", S) == maximal_cut(g, "G", S)

    @given(st.integers(0, 10**6), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_local_property_random(self, seed, n):
        g = random_graph(n, 0.5, seed)
        A, B = maximal_cut(g, "G", g.vertices())
        self._check_local_property(g, A, B)


class TestMinDegreeSubgraph:
    def test_k4(self):
        g = complete_graph(4)
        assert min_degree_subgraph(g, "G", g.vertices(), 3) == g.vertices()

    def test_path_peels_to_empty(self):
        g = path_graph(4)
        # oracle: repeatedly peeling endpoints of the path leaves nothing
        assert min_degree_subgraph(g, "G", g.vertices(), 2) == frozenset()

    def test_k4_plus_pendant(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        g = graph_from_edges(5, edges)
        assert min_degree_subgraph(g, "G", g.vertices(), 3) == frozenset({0, 1, 2, 3})

    def test_peeling_order_confluence(self):
        # random-order peeling oracle agrees with the queue implementation
        for seed in range(20):
            g = random_graph(18, 0.3, seed)
            d = 3
            expected = min_degree_subgraph(g, "G", g.vertices(), d)
            rng = random.Random(seed + 99)
            T = set(range(g.n))
            while True:
                bad = [v for v in T if len(g.adj("G")[v] & T) < d]
                if not bad:
                    break
                T.remove(rng.choice(bad))
            assert frozenset(T) == expected

    def test_fractional_threshold(self):
        g = complete_graph(4)
        assert min_degree_subgraph(g, "G", g.vertices(), Fraction(7, 2)) == frozenset()


class TestPeelBipartite:
    def test_keeps_complete_pair(self):
        g = complete_bipartite([0, 1, 2], [3, 4, 5])
        A, B = peel_bipartite(g, "G", {0, 1, 2}, {3, 4, 5}, 3)
        assert (A, B) == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    def test_peels_low_degree_cascade(self):
        # 1 and 3 have cross-degree 1; removing them drops 0 and 2 below 2
        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2)])
        A, B = peel_bipartite(g, "G", {0, 1}, {2, 3}, 2)
        assert A == frozenset() and B == frozenset()

    def test_peels_pendant_only(self):
        g = graph_from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])
        A, B = peel_bipartite(g, "G", {0, 1}, {2, 3, 4}, 2)
        assert A == frozenset({0, 1}) and B == frozenset({2, 3})


# thresholds of the peels: integers, Fractions between them, and d <= 0
PEEL_THRESHOLDS = [0, 1, 2, 3, Fraction(3, 2), Fraction(1, 3), Fraction(7, 2),
                   -1, Fraction(-1, 2)]


def _seeded_case(seed, n):
    """A random graph on n vertices whose last few are isolated, with a
    random vertex set S (empty on some seeds) split into disjoint A and B."""
    rng = random.Random(seed)
    g = random_graph(n, rng.choice([0.15, 0.4, 0.7]), seed)
    isolated = rng.randint(0, 3)
    g = g.with_layer("G", [e for e in g.edges("G") if e[1] < n - isolated])
    S = frozenset() if seed % 7 == 0 else \
        frozenset(v for v in range(n) if rng.random() < 0.7)
    A = frozenset(v for v in S if rng.random() < 0.5)
    return g, S, A, S - A


class TestAgainstFrozensetOracle:
    """The array peels and cut give the outputs of the frozenset forms
    (tests/oracle_shadows.py) on the same graphs and sets."""

    @given(st.integers(0, 10**6), st.integers(1, 24), st.sampled_from(PEEL_THRESHOLDS))
    @settings(max_examples=150, deadline=None)
    def test_min_degree_subgraph(self, seed, n, d):
        g, S, _, _ = _seeded_case(seed, n)
        assert min_degree_subgraph(g, "G", S, d) == \
            oracle_shadows.min_degree_subgraph(g, "G", S, d)

    @given(st.integers(0, 10**6), st.integers(1, 24), st.sampled_from(PEEL_THRESHOLDS))
    @settings(max_examples=150, deadline=None)
    def test_peel_bipartite(self, seed, n, d):
        g, _, A, B = _seeded_case(seed, n)
        assert peel_bipartite(g, "G", A, B, d) == \
            oracle_shadows.peel_bipartite(g, "G", A, B, d)

    @given(st.integers(0, 10**6), st.integers(1, 24))
    @settings(max_examples=150, deadline=None)
    def test_maximal_cut(self, seed, n):
        g, S, _, _ = _seeded_case(seed, n)
        if not S:
            for cut in (maximal_cut, oracle_shadows.maximal_cut):
                with pytest.raises(ValueError):
                    cut(g, "G", S)
            return
        assert maximal_cut(g, "G", S) == oracle_shadows.maximal_cut(g, "G", S)

    def test_composite_layer_spec(self):
        g = random_graph(16, 0.5, 5)
        g = g.with_layer("E", [e for e in g.edges("G") if sum(e) % 3])
        S = frozenset(range(2, 15))
        A, B = frozenset(range(2, 9)), frozenset(range(9, 15))
        assert maximal_cut(g, "G-E", S) == oracle_shadows.maximal_cut(g, "G-E", S)
        assert min_degree_subgraph(g, "G-E", S, 2) == \
            oracle_shadows.min_degree_subgraph(g, "G-E", S, 2)
        assert peel_bipartite(g, "G-E", A, B, 1) == \
            oracle_shadows.peel_bipartite(g, "G-E", A, B, 1)

    def test_long_path_is_linear(self):
        """A 2,000-vertex path peels one vertex from each end per round:
        1,000 rounds.  A peel that recounts every degree each round is
        quadratic here; the counter-based one finishes well under a
        second for all three calls."""
        g = path_graph(2000)
        V = g.vertices()
        evens = frozenset(range(0, 2000, 2))
        start = time.perf_counter()
        core = min_degree_subgraph(g, "G", V, 2)
        peeled = peel_bipartite(g, "G", evens, V - evens, 2)
        cut = maximal_cut(g, "G", V)
        assert time.perf_counter() - start < 0.5
        assert core == oracle_shadows.min_degree_subgraph(g, "G", V, 2) == frozenset()
        assert peeled == oracle_shadows.peel_bipartite(g, "G", evens, V - evens, 2) == \
            (frozenset(), frozenset())
        assert cut == oracle_shadows.maximal_cut(g, "G", V)
