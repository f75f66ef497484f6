from fractions import Fraction

import pytest

from structhunt.decomposition import (BoundedDecomposition, Params,
                                      SparseDecomposition, captured_subgraph,
                                      cluster_graph, validate_bounded,
                                      validate_sparse)
from structhunt.regularity import EXACT_CAP
from structhunt.spots import DenseCover, DenseSpot
from util import complete_bipartite, graph_from_edges


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
