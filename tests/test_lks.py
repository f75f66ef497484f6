import random
from fractions import Fraction

import pytest

import fixtures
import pipeline_instances
from oracle_lks import oracle_bundle_sets
from structhunt import lks
from structhunt.configurations import (PRECONFIG_TAGS, verify_configuration,
                                       verify_preconfiguration)
from structhunt.decomposition import (BoundedDecomposition, Params,
                                      SparseDecomposition, captured_subgraph)
from structhunt.graphcore import LayeredGraph, norm_edge
from structhunt.lks import (DERIVED, CommonSettingBundle, classify_vertices,
                            check_common_setting, check_derived_bounds,
                            compute_XABC, derive_common_sets)
from structhunt.regularity import RegularizedMatching
from structhunt.spots import DenseCover, DenseSpot
from util import complete_graph, graph_from_edges, random_graph


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def random_instance(seed, n=20):
    """Random layered instance with matchings; formulas apply regardless of
    whether it is a valid decomposition."""
    rng = random.Random(seed)
    base = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    exp = [e for e in base if rng.random() < 0.25]
    reg = [e for e in base if rng.random() < 0.3]
    H = frozenset(v for v in range(n) if rng.random() < 0.1)
    E = frozenset(v for v in range(n) if v not in H and rng.random() < 0.15)
    spot_edges = [e for e in base if rng.random() < 0.3]
    support = sorted({v for e in spot_edges for v in e})
    spots = []
    if spot_edges:
        half = set(support[::2])
        F = [e for e in spot_edges if (e[0] in half) != (e[1] in half)]
        if F:
            U = frozenset({v for e in F for v in e} & half)
            W = frozenset({v for e in F for v in e} - half)
            spots = [DenseSpot(U, W, F, 0, Fraction(1, 10**6))]
    g = graph_from_edges(n, base, G_exp=exp, G_reg=reg)

    def rand_pairs(count, size, offset):
        pairs = []
        avail = [v for v in range(n) if v not in H]
        rng2 = random.Random(seed + offset)
        rng2.shuffle(avail)
        it = iter(avail)
        for _ in range(count):
            try:
                a = frozenset(next(it) for _ in range(size))
                b = frozenset(next(it) for _ in range(size))
            except StopIteration:
                break
            pairs.append((a, b))
        return pairs

    MA = RegularizedMatching(rand_pairs(2, 2, 1), Fraction(1, 2), Fraction(0), 1)
    MB = RegularizedMatching(rand_pairs(1, 2, 50), Fraction(1, 2), Fraction(0), 1)
    # keep MB disjoint from MA
    used = MA.vertices()
    MB = RegularizedMatching([(a - used, b - used) for a, b in MB.pairs
                              if (a - used) and (b - used)],
                             Fraction(1, 2), Fraction(0), 1)
    bd = BoundedDecomposition([], DenseCover(spots), "G_reg", "G_exp", E, [])
    sd = SparseDecomposition(H, bd)
    p = Params(k=4, gamma=Fraction(1, 2), eps=Fraction(1, 2), nu=Fraction(1, 4),
               rho=Fraction(1, 4), eta=Fraction(1, 2), omega_star=Fraction(4),
               omega_sstar=Fraction(8), b=Fraction(1))
    return g, sd, p, MA, MB


class TestClassifyVertices:
    def test_complete_graph_all_large(self):
        g = complete_graph(8)  # degrees 7
        cls = classify_vertices(g, 4, Fraction(1, 2))  # threshold 6
        assert cls.L == g.vertices()
        assert cls.is_lks

    def test_empty_graph(self):
        g = graph_from_edges(5, [])
        cls = classify_vertices(g, 1, Fraction(1, 2))
        assert cls.L == frozenset()
        assert not cls.is_lks

    def test_petersen_lks(self):
        # n=10, k=2, eta=1/2: need >= 10 vertices of degree >= 3; 3-regular works
        cls = classify_vertices(petersen(), 2, Fraction(1, 2))
        assert cls.L == frozenset(range(10))
        assert cls.is_lks

    def test_strict_small_threshold(self):
        g = graph_from_edges(3, [(0, 1)])
        cls = classify_vertices(g, 1, Fraction(0))  # threshold (1+0)*1 = 1
        assert cls.S == frozenset({2})  # degree 0 < 1; degrees 1 are in L

    def test_small_clause_edge_budget(self):
        g = complete_graph(6)
        cls = classify_vertices(g, 1, Fraction(1, 10))
        assert not cls.small_clauses["3. e(G) <= k n"].passed

    @pytest.mark.parametrize("leaves, ok", [(2, True), (3, False)])
    @pytest.mark.parametrize("centre_first", [True, False])
    def test_clause_2_reads_both_ends_of_each_edge(self, leaves, ok, centre_first):
        """A star's leaves are S-vertices at (1 + eta) k = 2, and clause 2
        holds iff the centre has degree 2, whether the centre is the smaller
        or the larger end of each edge."""
        centre = 0 if centre_first else leaves
        g = graph_from_edges(leaves + 1, [(centre, v) for v in range(leaves + 1) if v != centre])
        cls = classify_vertices(g, 1, Fraction(1))
        assert cls.S == g.vertices() - {centre}
        clause = "2. neighbours of S-vertices have degree exactly ceil((1+eta)k)"
        assert cls.small_clauses[clause].passed == ok


class TestComputeXABC:
    def test_empty_MB_gives_XA_only(self):
        g, sd, p, MA, _ = random_instance(0)
        MB = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        cls = classify_vertices(g, p.k, p.eta)
        exp_support = frozenset(v for e in g.edges("G_exp") for v in e)
        XA, XB, XC, _ = compute_XABC(g, cls.L, cls.S, exp_support, sd.bd.E,
                                     MA, MB, p.k, p.eta)
        assert XA == cls.L and XB == frozenset() and XC == frozenset()

    def test_partition_of_L(self):
        for seed in range(15):
            g, sd, p, MA, MB = random_instance(seed)
            cls = classify_vertices(g, p.k, p.eta)
            exp_support = frozenset(v for e in g.edges("G_exp") for v in e)
            XA, XB, XC, _ = compute_XABC(g, cls.L, cls.S, exp_support, sd.bd.E,
                                         MA, MB, p.k, p.eta)
            assert XA | XB | XC == cls.L
            assert not (XA & XB) and not (XA & XC) and not (XB & XC)

    def test_large_deghat_lands_in_XC(self):
        # one L-vertex inside V(M_B) with big deg-hat must land in XC
        n = 12
        hub = 0
        edges = [(hub, v) for v in range(1, 10)]  # deg 9
        edges += [(10, 11)]
        g = graph_from_edges(n, edges, G_exp=[], G_reg=[])
        MB = RegularizedMatching([(frozenset({hub}), frozenset({10}))],
                                 Fraction(1, 2), Fraction(0), 1)
        MA = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        k, eta = 4, Fraction(1, 2)
        cls = classify_vertices(g, k, eta)
        assert hub in cls.L
        XA, XB, XC, deg_hat = compute_XABC(g, cls.L, cls.S, frozenset(),
                                           frozenset(), MA, MB, k, eta)
        # deg_hat(hub) counts S-neighbours outside the matching: 1..9 minus 10
        assert deg_hat[hub] == 9
        assert hub in XC


class TestDeriveCommonSets:
    def test_everything_empty(self):
        g = graph_from_edges(6, [], G_exp=[], G_reg=[])
        bd = BoundedDecomposition([], DenseCover([]), "G_reg", "G_exp",
                                  frozenset(), [])
        sd = SparseDecomposition(frozenset(), bd)
        p = Params(k=2)
        MA = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        MB = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        b = derive_common_sets(g, sd, p, MA, MB)
        for name, val in b.named_sets().items():
            if name in ("S", "S0", "V_plus", "V_good", "YA", "YB"):
                continue
            assert val == frozenset(), name
        assert b.S == g.vertices()
        assert b.F_cover == ()

    def test_empty_H_empty_shadow(self):
        g, sd, p, MA, MB = random_instance(3)
        sd = SparseDecomposition(frozenset(), sd.bd)
        b = derive_common_sets(g, sd, p, MA, MB)
        assert b.V_not_to_H == frozenset()

    def test_oracle_equivalence(self):
        for seed in range(25):
            g, sd, p, MA, MB = random_instance(seed)
            b = derive_common_sets(g, sd, p, MA, MB)
            expected = oracle_bundle_sets(b.g, sd, p, MA, MB)
            got = b.named_sets()
            for name, val in expected.items():
                assert got[name] == val, "%s differs at seed %d" % (name, seed)

    def test_idempotent_deterministic(self):
        g, sd, p, MA, MB = random_instance(7)
        b1 = derive_common_sets(g, sd, p, MA, MB)
        b2 = derive_common_sets(g, sd, p, MA, MB)
        assert b1.dump() == b2.dump()

    def test_YA_subset_YB(self):
        for seed in range(20):
            g, sd, p, MA, MB = random_instance(seed)
            b = derive_common_sets(g, sd, p, MA, MB)
            assert b.YA <= b.YB


class TestCheckCommonSetting:
    def test_empty_graph_passes(self):
        g = graph_from_edges(4, [], G_exp=[], G_reg=[])
        bd = BoundedDecomposition([], DenseCover([]), "G_reg", "G_exp",
                                  frozenset(), [])
        sd = SparseDecomposition(frozenset(), bd)
        p = Params(k=2, b=Fraction(2 * 1, 4 * 100))
        MA = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        MB = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        b = derive_common_sets(g, sd, p, MA, MB)
        rep = check_common_setting(b)
        assert all(ci.passed is not False for ci in rep.items if not ci.item.startswith("0.")), \
            rep.render()

    def test_overlapping_matchings_fail_item1(self):
        g, sd, p, MA, MB = random_instance(5)
        shared = sorted(MA.vertices())[:2]
        MB2 = RegularizedMatching([(frozenset(shared[:1]), frozenset(shared[1:]))],
                                  Fraction(1, 2), Fraction(0), 1)
        b = derive_common_sets(g, sd, p, MA, MB2)
        rep = check_common_setting(b)
        assert not rep["1. V(M_A) disjoint from V(M_B)"].passed

    def test_reg_excess_fails_item7(self):
        # G_reg rich outside the matchings with tiny gamma budget
        n = 10
        reg = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = graph_from_edges(n, reg, G_exp=[], G_reg=reg)
        bd = BoundedDecomposition([], DenseCover([]), "G_reg", "G_exp",
                                  frozenset(), [])
        sd = SparseDecomposition(frozenset(), bd)
        p = Params(k=1, gamma=Fraction(1, 10))
        MA = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        MB = RegularizedMatching([], Fraction(1, 2), Fraction(0), 1)
        b = derive_common_sets(g, sd, p, MA, MB)
        rep = check_common_setting(b)
        assert not rep["7. e_reg(V - V(M)) <= gamma^2 k n"].passed


class TestCheckDerivedBounds:
    def test_fully_captured(self):
        g, sd, p, MA, MB = random_instance(2)
        g = g.with_layer("G_nabla", g.edges("G"))  # everything captured
        b = derive_common_sets(g, sd, p, MA, MB)
        rep = check_derived_bounds(b, beta=Fraction(1, 1000), beta_tilde=Fraction(1))
        assert b.L_sharp == frozenset() or rep.items
        assert rep["hypothesis: uncaptured edges <= beta k n"].passed
        assert rep["|L_sharp| <= (20 beta/eta) n"].passed

    def test_H_without_XA_edges(self):
        g, sd, p, MA, MB = random_instance(4)
        sd = SparseDecomposition(frozenset(), sd.bd)
        b = derive_common_sets(g, sd, p, MA, MB)
        rep = check_derived_bounds(b, beta=Fraction(1), beta_tilde=Fraction(1, 10**6))
        assert rep[
            "|V_not_to_H| <= (100 beta_tilde/eta) n"].passed

    def test_cover_clause_reported(self):
        g, sd, p, MA, MB = random_instance(6)
        b = derive_common_sets(g, sd, p, MA, MB)
        rep = check_derived_bounds(b, beta=Fraction(1), beta_tilde=Fraction(1))
        item = rep["F is an (M_A+M_B)-cover"]
        # random instances cannot silently skip the clause
        assert item.passed in (True, False)


class TestDerivedBoundsWithSplit:
    def test_split_clauses_evaluated(self):
        import sys
        sys.path.insert(0, "tests")
        from pipeline_instances import exp_instance

        b, split = exp_instance()
        rep = check_derived_bounds(b, beta=Fraction(1), beta_tilde=Fraction(1),
                                   split=split)
        names = {ci.item for ci in rep.items}
        assert any("V_good|1" in nm for nm in names)
        assert any("V_good|2" in nm for nm in names)
        assert any("cover" in nm for nm in names)


PIPELINE_BUILDERS = sorted(name for name in dir(pipeline_instances)
                           if name.endswith("_instance") and name != "random_instance")


class TestBundleProperties:
    @pytest.mark.parametrize("name", PIPELINE_BUILDERS)
    def test_exp_support_is_the_edge_support(self, name):
        b, _ = getattr(pipeline_instances, name)()
        assert b.exp_support == frozenset(v for e in b.g.edges("G_exp") for v in e)

    def test_exp_support_follows_a_replaced_graph(self):
        from pipeline_instances import exp_instance

        b, _ = exp_instance()
        assert 20 not in b.exp_support
        b.g = b.g.with_layer("G_exp", sorted(b.g.edges("G_exp") | {(20, 21)}))
        assert {20, 21} <= b.exp_support

    def test_cluster_size_or_k(self):
        from pipeline_instances import d1_instance, t5_instance

        b, _ = d1_instance()
        assert not b.sd.bd.clusters
        assert b.cluster_size_or_k == b.p.k
        b, _ = t5_instance()
        assert b.cluster_size_or_k == b.sd.bd.cluster_size() != b.p.k


class TestLazyBundle:
    @pytest.mark.parametrize("name", PIPELINE_BUILDERS)
    def test_sets_come_from_the_graph_derived_from(self, name):
        b0, _ = getattr(pipeline_instances, name)()
        args = (b0.g, b0.sd, b0.p, b0.MA, b0.MB)
        expected = derive_common_sets(*args)
        b = derive_common_sets(*args)
        b.g = LayeredGraph(b0.g.n, {layer: [] for layer in b0.g.layers})
        for set_name in DERIVED:  # first read after the swap
            assert getattr(b, set_name) == getattr(expected, set_name), set_name
        from_swapped = derive_common_sets(b.g, b.sd, b.p, b.MA, b.MB)
        assert any(getattr(from_swapped, s) != getattr(expected, s) for s in DERIVED)
        assert b.exp_support == frozenset()

    @pytest.mark.parametrize("tag", sorted(fixtures.BUILDERS))
    @pytest.mark.parametrize("spoil", [False, True])
    def test_a_witness_check_computes_only_what_it_reads(self, tag, spoil,
                                                          monkeypatch):
        computed = []

        def counted(name, formula):
            def run(b, g, p):
                computed.append(name)
                return formula(b, g, p)
            return run

        monkeypatch.setattr(lks, "_FORMULAS", {
            name: counted(name, formula) for name, formula in lks._FORMULAS.items()})
        b, split, w, cp = fixtures.build(tag, spoil)
        check = verify_preconfiguration if tag in PRECONFIG_TAGS else verify_configuration
        check(w, b, split, cp)
        sets = [name for name in computed if name in DERIVED]
        assert len(sets) == len(set(sets)) < len(DERIVED), sets

    def test_no_derived_set_has_a_class_default(self):
        assert len(DERIVED) == 24
        assert not [name for name in lks._FORMULAS if hasattr(CommonSettingBundle, name)]
        b, _ = pipeline_instances.d1_instance()
        with pytest.raises(AttributeError):
            b.not_a_set
