import re
from fractions import Fraction

import pytest

from oracle_tuple_sets import tuple_bounded_clauses, tuple_sparse_clauses
from structhunt.decomposition import (BoundedDecomposition, Params,
                                      SparseDecomposition, captured_subgraph,
                                      cluster_graph, validate_bounded,
                                      validate_sparse)
from structhunt.regularity import EXACT_CAP
from structhunt.spots import DenseCover, DenseSpot
from util import (SPOT_CASES, complete_bipartite, graph_from_edges,
                  random_decomposition)


def empty_bd(E=frozenset(), clusters=(), prepartition=None):
    return BoundedDecomposition(list(clusters), DenseCover([]), "G_reg", "G_exp",
                                frozenset(E), list(prepartition or []))


def small_params(**kw):
    base = dict(k=4, Lambda=Fraction(1, 2), gamma=Fraction(1, 2), eps=Fraction(1),
                eps_prime=Fraction(1, 2), nu=Fraction(1, 2), rho=Fraction(1, 4),
                eta=Fraction(1, 2), pi=Fraction(1, 4), alpha_hat=Fraction(1, 4),
                tau=Fraction(1, 8), d=Fraction(1, 4), omega_star=Fraction(4),
                omega_sstar=Fraction(2), b=Fraction(1))
    base.update(kw)
    return Params(**base)


def two_cluster_instance():
    """Two K_{4,4}-joined clusters inside one dense spot; the canonical pass case."""
    C1, C2 = frozenset(range(4)), frozenset(range(4, 8))
    cross = [(u, v) for u in C1 for v in C2]
    g = graph_from_edges(8, cross, G_reg=cross, G_exp=[])
    spot = DenseSpot(C1, C2, cross, Fraction(2), Fraction(1, 2))
    bd = BoundedDecomposition([C1, C2], DenseCover([spot]), "G_reg", "G_exp",
                              frozenset(), [g.vertices()])
    return g, bd


class TestParams:
    def test_positive_enforced(self):
        with pytest.raises(ValueError):
            small_params(gamma=Fraction(0))

    def test_k_positive(self):
        with pytest.raises(ValueError):
            small_params(k=0)


class TestValidateBounded:
    def test_empty_decomposition_passes(self):
        g = graph_from_edges(5, [], G_reg=[], G_exp=[])
        rep = validate_bounded(empty_bd(), g, small_params())
        assert rep.ok

    def test_unequal_cluster_sizes_fail(self):
        g, bd = two_cluster_instance()
        bd.clusters = [frozenset({0, 1, 2}), frozenset({3, 4, 5, 6})]
        bd.spots = DenseCover([])
        g2 = g.with_layer("G_reg", [])
        rep = validate_bounded(bd, g2, small_params())
        assert not rep["4. nu k <= |C| = |C'| <= eps k"].passed

    def test_indeterminate_pair_is_info(self):
        """A complete pair above the exact cap is neither passed nor failed:
        clause 3 reads info and names the pair."""
        side = EXACT_CAP + 1
        C1, C2 = frozenset(range(side)), frozenset(range(side, 2 * side))
        cross = [(u, v) for u in C1 for v in C2]
        g = graph_from_edges(2 * side, cross, G_reg=cross, G_exp=[])
        spot = DenseSpot(C1, C2, cross, Fraction(2), Fraction(1, 2))
        bd = BoundedDecomposition([C1, C2], DenseCover([spot]), "G_reg", "G_exp",
                                  frozenset(), [g.vertices()])
        rep = validate_bounded(bd, g, small_params(k=2 * side))
        item = rep["3. G_reg respects clusters, pairs eps-regular of density >= gamma^2"]
        assert item.passed is None
        assert "pair (C0,C1) indeterminate" in item.note
        assert "above exact cap %d" % EXACT_CAP in item.note
        assert rep["6. G_reg-adjacent cluster pairs sit inside one spot"].passed

    def test_two_cluster_instance_passes(self):
        g, bd = two_cluster_instance()
        rep = validate_bounded(bd, g, small_params())
        assert rep.ok, rep.render()

    def test_overlapping_clusters_raise(self):
        g, bd = two_cluster_instance()
        bd.clusters = [frozenset({0, 1}), frozenset({1, 2})]
        with pytest.raises(ValueError):
            validate_bounded(bd, g, small_params())

    def test_reg_edge_outside_spot_fails_item6(self):
        g, bd = two_cluster_instance()
        bd.spots = DenseCover([])
        rep = validate_bounded(bd, g, small_params())
        assert not rep["6. G_reg-adjacent cluster pairs sit inside one spot"].passed

    def test_exp_mindeg_clause(self):
        g = graph_from_edges(5, [(0, 1)], G_reg=[], G_exp=[(0, 1)])
        rep = validate_bounded(empty_bd(), g, small_params(rho=Fraction(1)))
        assert not rep["1. mindeg(G_exp) > rho k"].passed

    def test_avoiding_threshold_clause(self):
        # cluster sees E with mixed degrees straddling b
        C = frozenset({0, 1})
        E = frozenset({2, 3})
        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (2, 3)],
                             G_reg=[], G_exp=[])
        spot = DenseSpot({2}, {3}, [(2, 3)], 0, Fraction(1, 2))
        bd = BoundedDecomposition([C], DenseCover([spot]), "G_reg", "G_exp", E,
                                  [g.vertices()])
        p = small_params(k=1, nu=Fraction(2), eps=Fraction(2), b=Fraction(1),
                         Lambda=Fraction(1, 4))
        rep = validate_bounded(bd, g, p)
        # deg(0, E) = 2 > b = 1 but deg(1, E) = 1 <= b: threshold not respected
        assert not rep["avoiding threshold b respected"].passed


class TestValidateSparse:
    def test_empty_H_reduces_to_bounded(self):
        g, bd = two_cluster_instance()
        sd = SparseDecomposition(frozenset(), bd)
        rep = validate_sparse(sd, g, small_params())
        assert rep.ok, rep.render()

    def test_low_degree_H_fails(self):
        g = graph_from_edges(4, [(0, 1)], G_reg=[], G_exp=[])
        sd = SparseDecomposition(frozenset({0}), empty_bd())
        rep = validate_sparse(sd, g, small_params(omega_sstar=Fraction(2)))
        assert not rep["1. mindeg_G(H) >= Omega** k"].passed

    def test_star_center_H_passes_item1(self):
        n = 10
        g = graph_from_edges(n, [(0, i) for i in range(1, n)], G_reg=[], G_exp=[])
        sd = SparseDecomposition(frozenset({0}), empty_bd())
        p = small_params(k=2, omega_sstar=Fraction(4), omega_star=Fraction(1))
        rep = validate_sparse(sd, g, p)
        assert rep["1. mindeg_G(H) >= Omega** k"].passed
        # K consists of H-incident edges only: leaves have K-degree 1 <= Omega* k
        assert rep["1. maxdeg_K(V \\ H) <= Omega* k"].passed


class TestCapturedSubgraph:
    def test_all_empty(self):
        g = graph_from_edges(4, [(0, 1)], G_reg=[], G_exp=[])
        sd = SparseDecomposition(frozenset(), empty_bd())
        g2 = captured_subgraph(sd, g)
        assert g2.edges("G_nabla") == frozenset()

    def test_H_vertex_captures_incident(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], G_reg=[], G_exp=[])
        sd = SparseDecomposition(frozenset({1}), empty_bd())
        g2 = captured_subgraph(sd, g)
        assert g2.edges("G_nabla") == frozenset({(0, 1), (1, 2)})

    def test_exp_and_E_cluster_edges(self):
        # one G_exp edge and one E-to-cluster edge captured, nothing else
        g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)], G_reg=[],
                             G_exp=[(0, 1)])
        bd = empty_bd(E=frozenset({2}), clusters=[frozenset({3})])
        sd = SparseDecomposition(frozenset(), bd)
        g2 = captured_subgraph(sd, g)
        assert g2.edges("G_nabla") == frozenset({(0, 1), (2, 3)})

    def test_monotone_in_E(self):
        g = graph_from_edges(6, [(0, 1), (2, 3), (3, 4)], G_reg=[], G_exp=[])
        bd1 = empty_bd(E=frozenset({2}), clusters=[frozenset({3})])
        bd2 = empty_bd(E=frozenset({2, 4}), clusters=[frozenset({3})])
        sd1 = SparseDecomposition(frozenset(), bd1)
        sd2 = SparseDecomposition(frozenset(), bd2)
        e1 = captured_subgraph(sd1, g).edges("G_nabla")
        e2 = captured_subgraph(sd2, g).edges("G_nabla")
        assert e1 <= e2


class TestClusterGraph:
    def test_empty_reg_layer(self):
        g, bd = two_cluster_instance()
        g2 = g.with_layer("G_reg", [])
        cg = cluster_graph(bd, g2, Fraction(1, 2))
        assert cg.edges == frozenset()

    def test_complete_pair(self):
        g, bd = two_cluster_instance()
        cg = cluster_graph(bd, g, Fraction(1, 2))
        assert cg.has_edge(0, 1)

    def test_density_exactly_threshold_included(self):
        # gamma^2 = 1/4; build a pair with G_reg density exactly 1/4
        C1, C2 = frozenset({0, 1}), frozenset({2, 3})
        reg = [(0, 2)]
        g = graph_from_edges(4, reg, G_reg=reg, G_exp=[])
        bd = BoundedDecomposition([C1, C2], DenseCover([]), "G_reg", "G_exp",
                                  frozenset(), [g.vertices()])
        cg = cluster_graph(bd, g, Fraction(1, 2))
        assert cg.densities[(0, 1)] == Fraction(1, 4)
        assert cg.has_edge(0, 1)  # >= is inclusive

    def test_edge_implies_spot_on_validated_instance(self):
        g, bd = two_cluster_instance()
        cg = cluster_graph(bd, g, Fraction(1, 2))
        for (i, j) in cg.edges:
            Ci, Cj = bd.clusters[i], bd.clusters[j]
            assert any((Ci <= s.U and Cj <= s.W) or (Ci <= s.W and Cj <= s.U)
                       for s in bd.spots)


def _outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _renders(rep, keep):
    return [ci.render() for ci in rep.items if keep(ci.item)]


class TestAgainstTupleSets:
    SEEDS = range(400)

    def test_spot_edge_outside_G_fails_clause_5(self):
        """Graph 0-1 on 4 vertices, spot U=0 W=2 F=0-2: the spot is dense,
        but its edge is not an edge of G."""
        g = graph_from_edges(4, [(0, 1)], G_reg=[], G_exp=[])
        spot = DenseSpot({0}, {2}, [(0, 2)], Fraction(0), Fraction(1, 2))
        bd = BoundedDecomposition([], DenseCover([spot]), "G_reg", "G_exp",
                                  frozenset(), [g.vertices()])
        p = small_params(k=1, nu=Fraction(1), eps=Fraction(1))
        item = validate_bounded(bd, g, p)[
            "5. spots edge-disjoint (gamma k, gamma)-dense in G - G_exp, sides covered"]
        assert not item.passed and item.note == "spot 0 has edges outside G"
        old = tuple_bounded_clauses(bd, g, p, in_graph=False)
        assert old.items[-1].passed

    def test_bounded_clauses_1_3_5_match(self):
        """Clauses 1, 3 and 5 read as on tuple sets, report for report, on
        decompositions whose spots share edges, use G_exp edges, leave U x W,
        have edges outside G and hold ids -3, n, 2^40 and 2^70."""
        cases, notes = set(), set()
        for seed in self.SEEDS:
            g, bd, p, drawn = random_decomposition(seed)
            cases |= drawn
            found = _outcome(validate_bounded, bd, g, p)
            want = _outcome(tuple_bounded_clauses, bd, g, p)
            if found[0] != "ok":
                assert found == want, seed
                notes.add("raised")
                continue
            got = _renders(found[1], lambda item: item[:2] in ("1.", "3.", "5."))
            assert got == _renders(want[1], lambda item: True), seed
            notes.add(re.sub(r".*\(spot \d+:? |\)$", "", got[-1]))
            if all(s.F <= g.edges("G") for s in bd.spots):  # as the old form
                old = tuple_bounded_clauses(bd, g, p, in_graph=False)
                assert got == _renders(old, lambda item: True), seed
        assert cases == set(SPOT_CASES)
        assert {"raised", "shares edges", "uses G_exp edges",
                "has edges outside G"} <= notes

    def test_sparse_clauses_1_2_match(self):
        for seed in self.SEEDS:
            g, bd, p, _ = random_decomposition(seed)
            H = frozenset(v for v in range(g.n) if (seed >> v) % 5 == 0)
            sd = SparseDecomposition(H, bd)
            found = _outcome(validate_sparse, sd, g, p)
            want = _outcome(tuple_sparse_clauses, sd, g, p)
            if want[0] != "ok":  # K holds an edge with an end outside 0..n-1
                assert found[0] == want[0], seed
            elif found[0] != "ok":  # raised by the bounded validation on G - H
                assert found == _outcome(validate_bounded, bd, g, p,
                                         universe=g.vertices() - H), seed
            else:
                assert _renders(found[1], lambda item: True)[:3] == \
                    _renders(want[1], lambda item: True), seed
