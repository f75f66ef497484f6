import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_split import (loop_cells, loop_leftover_degree, loop_random_split,
                          oracle_verify_split)
from structhunt import splitting
from structhunt.graphcore import LayeredGraph
from structhunt.regularity import RegularizedMatching
from structhunt.splitting import (_cells, _count_pairs, _leftover_degree,
                                  random_split, restrict_matching, verify_split)
from structhunt.spots import DenseSpot
from util import complete_bipartite, graph_from_edges, random_graph


class TestRandomSplit:
    def test_single_class_gets_everything(self):
        g = random_graph(10, 0.3, 0)
        s = random_split(g, g.vertices(), [Fraction(1)], seed=7)
        assert s.classes[0] == g.vertices()

    def test_zero_fraction_class_empty(self):
        g = random_graph(30, 0.3, 0)
        s = random_split(g, g.vertices(), [Fraction(1, 2), Fraction(0), Fraction(1, 2)], 3)
        assert s.classes[1] == frozenset()

    def test_deterministic(self):
        g = random_graph(50, 0.3, 0)
        q = [Fraction(1, 3)] * 3
        s1 = random_split(g, g.vertices(), q, seed=11)
        s2 = random_split(g, g.vertices(), q, seed=11)
        assert s1.classes == s2.classes
        assert s1.dump() == s2.dump()

    def test_partition(self):
        g = random_graph(40, 0.3, 1)
        s = random_split(g, g.vertices(), [Fraction(1, 4), Fraction(3, 4)], 5)
        assert s.classes[0] | s.classes[1] == g.vertices()
        assert not (s.classes[0] & s.classes[1])

    def test_oversum_rejected(self):
        g = random_graph(5, 0.3, 0)
        with pytest.raises(ValueError):
            random_split(g, g.vertices(), [Fraction(2, 3), Fraction(2, 3)], 0)

    def test_deficit_renormalized(self):
        g = random_graph(40, 0.3, 2)
        s = random_split(g, g.vertices(), [Fraction(1, 4), Fraction(1, 4)], 9)
        assert s.classes[0] | s.classes[1] == g.vertices()

    def test_marginal_concentration(self):
        # |A_0 cap B| / |B| concentrates at q_0 over many seeds
        g = random_graph(400, 0.0, 0)
        B = frozenset(range(200))
        q0 = Fraction(1, 4)
        hits = []
        for seed in range(60):
            s = random_split(g, g.vertices(), [q0, 1 - q0], seed)
            hits.append(len(s.classes[0] & B))
        mean = sum(hits) / len(hits)
        assert abs(mean - 50) < 8  # 3+ sigma band for Bin(200, 1/4) averages


@st.composite
def split_inputs(draw):
    """(target, q, seed): 1-10 classes, zero fractions and deficits, and
    targets empty, contiguous, sparse, or with ids beyond the graph, above
    2^53 and above 2^63."""
    p = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(0, 4), min_size=p, max_size=p))
    total = sum(weights) + draw(st.sampled_from([0, 0, 1, 10 ** 20 + 7]))
    q = [Fraction(w, total or 1) for w in weights]
    target = draw(st.one_of(
        st.just(frozenset()),
        st.integers(1, 60).map(range),
        st.frozensets(st.integers(0, 60)),
        st.frozensets(st.one_of(st.integers(-5, 80),
                                st.integers(2 ** 53 - 3, 2 ** 53 + 3),
                                st.integers(2 ** 63 - 2, 2 ** 70)))))
    return target, q, draw(st.integers(-2 ** 70, 2 ** 70))


class TestRandomSplitAgainstLoop:
    G = random_graph(40, 0.2, 0)

    @given(split_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop(self, case):
        target, q, seed = case
        outs = []
        for draw in (random_split, loop_random_split):
            try:
                s = draw(self.G, target, q, seed)
                outs.append((s.classes, s.target, s.fractions))
            except ValueError as exc:
                outs.append(str(exc))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("seed", range(12))
    def test_draw_on_a_threshold_joins_the_next_class(self, seed):
        # the first class's threshold is exactly the draw of vertex seed % 5,
        # and "exceeds r" is strict, so that vertex joins the next nonzero class
        rng = random.Random(seed)
        r = [rng.getrandbits(53) for _ in range(5)][seed % 5]
        share = Fraction(r, 2 ** 53)
        q = [share, 1 - share] if seed % 2 else [share, Fraction(0), 1 - share]
        s = random_split(self.G, range(5), q, seed)
        assert seed % 5 in s.classes[-1]
        assert s.classes == loop_random_split(self.G, range(5), q, seed).classes


class TestVerifySplit:
    def test_empty_graph_all_pass(self):
        g = graph_from_edges(0, [])
        s = random_split(g, frozenset(), [Fraction(1)], 0)
        rep = verify_split(s, g, k=4)
        assert rep.ok

    def test_single_class_full_degree(self):
        g = random_graph(30, 0.4, 3)
        s = random_split(g, g.vertices(), [Fraction(1)], 0)
        rep = verify_split(s, g, layers=["G"], Bs=[g.vertices()], k=4)
        assert rep.ok, rep.render()

    def test_items_patch_exceptional_sets(self):
        g = random_graph(60, 0.3, 4)
        s = random_split(g, g.vertices(), [Fraction(1, 2), Fraction(1, 2)], 1)
        m = RegularizedMatching([(frozenset(range(5)), frozenset(range(5, 10)))],
                                Fraction(1, 2), Fraction(1, 100), 1)
        spot = DenseSpot(range(5), range(5, 10),
                         [(u, v) for u in range(5) for v in range(5, 10)],
                         1, Fraction(1, 2))
        rep = verify_split(s, g, layers=["G"], spots=[spot], matching=m,
                           clusters=[frozenset(range(10, 20))],
                           Bs=[frozenset(range(30))], k=100, gamma=Fraction(1, 10))
        # at k=100 the k^0.9 slack is ~63, so everything passes comfortably
        assert rep.ok, rep.render()
        assert s.exceptional_vertices == frozenset()

    def test_small_k_flags_violators(self):
        # with k tiny the slack vanishes and lopsided splits get flagged
        g = complete_bipartite(range(6), range(6, 12))
        forced = Split_like = random_split(g, g.vertices(), [Fraction(1, 2), Fraction(1, 2)], 2)
        # construct an adversarial "split": everything in class 0
        from structhunt.splitting import Split
        s = Split(g.vertices(), (g.vertices(), frozenset()),
                  (Fraction(1, 2), Fraction(1, 2)), 0)
        rep = verify_split(s, g, layers=["G"], Bs=[g.vertices()], k=1)
        assert not rep.ok

    def test_q_one_every_item_passes(self):
        g = random_graph(25, 0.5, 8)
        s = random_split(g, g.vertices(), [Fraction(1)], 4)
        m = RegularizedMatching([(frozenset(range(4)), frozenset(range(4, 8)))],
                                Fraction(1, 2), Fraction(1, 100), 1)
        rep = verify_split(s, g, layers=["G"], matching=m,
                           clusters=[frozenset(range(8, 16))],
                           Bs=[frozenset(range(12))], k=2)
        assert rep.ok, rep.render()


def _both_ways(split, g, **kw):
    """(rendered items, Vbar) from verify_split and from the loop oracle."""
    out = []
    for verify in (verify_split, oracle_verify_split):
        s = dataclasses.replace(split)
        rep = verify(s, g, **kw)
        out.append(([it.render() for it in rep.items], s.exceptional_vertices))
    return out


def _random_subset(rng, pool, share):
    return frozenset(v for v in pool if rng.random() < share)


def _random_case(rng):
    """A small random verify_split input; see test_matches_loop_oracle."""
    n = rng.randrange(0, 40)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dens = rng.choice([0.05, 0.2, 0.5])
    G = [e for e in pairs if rng.random() < dens]
    X = [e for e in G if rng.random() < 0.5]
    E = [e for e in pairs if rng.random() < 0.1]
    g = LayeredGraph(n, {"G": G, "X": X, "E": E, "Z": []})
    layers = rng.sample(["G", "X+E", "G-X", "Z", "E"], rng.randrange(1, 4))

    p = rng.choice([1, 2, 3, 10])
    weights = [rng.choice([0, 0, 1, 2, 3]) for _ in range(p)]
    if not any(weights):
        weights[rng.randrange(p)] = 1
    total = sum(weights) + rng.choice([0, 0, 1])    # sometimes a deficit
    q = [Fraction(w, total) for w in weights]
    target = g.vertices() if rng.random() < 0.6 else \
        _random_subset(rng, range(n), 0.7)
    split = random_split(g, target, q, rng.randrange(1000))

    nb = rng.choice([0, 1, 3, 10])
    Bs = [_random_subset(rng, range(n), rng.choice([0.2, 0.5, 0.9]))
          for _ in range(nb)]
    spots = []
    for _ in range(rng.randrange(3)):
        U = _random_subset(rng, range(n), 0.3)
        W = _random_subset(rng, range(n), 0.3) - U
        F = [(u, w) for u in U for w in W if rng.random() < 0.7]
        spots.append(DenseSpot(U, W, F, 1, Fraction(1, 2)))
    half = n // 4
    matching = RegularizedMatching([(range(half), range(half, 2 * half))],
                                   Fraction(1, 4), Fraction(1, 2), 1) \
        if half else None
    clusters = [frozenset(range(2 * half, n))] if n > 2 * half else []
    k = rng.choice([1, 2, 5, 100])
    # clause (4) can only fail once q_i gamma k > k^0.9, so gamma = 8 with
    # the small k makes spot degrees matter
    gamma = rng.choice([Fraction(1, 2), Fraction(1, 10), Fraction(8)])
    return split, g, dict(layers=layers, spots=spots, matching=matching,
                          clusters=clusters, Bs=Bs, k=k, gamma=gamma)


STRAY = (-3, -1, 2 ** 40, 2 ** 70)   # with n, n + 2: ids outside 0..n-1


def _stray_case(rng):
    """_random_case with ids outside 0..n-1 in the split's target (so in its
    classes), in the Bs and in the spots, whose edges also leave U x W."""
    split, g, kw = _random_case(rng)
    n = g.n
    stray = list(STRAY) + [n, n + 2]
    extra = frozenset(rng.sample(stray, rng.randrange(len(stray) + 1)))
    split = random_split(g, split.target | extra, split.fractions, split.seed)
    kw["Bs"] = [B | frozenset(rng.sample(stray, 2)) for B in kw["Bs"]]
    pool = list(range(n)) + stray
    spots = []
    for _ in range(rng.randrange(1, 4)):
        U = frozenset(rng.sample(pool, rng.randrange(len(pool) // 2 + 1)))
        W = frozenset(rng.sample(pool, rng.randrange(len(pool) // 2 + 1))) - U
        F = {(u, w) for u in U for w in W if rng.random() < 0.6}
        F |= {tuple(rng.sample(pool, 2)) for _ in range(rng.randrange(8))}
        spots.append(DenseSpot(U, W, F, 1, Fraction(1, 2)))
    kw["spots"] = spots
    return split, g, kw


class TestVerifySplitOracle:
    def test_stray_ids_match_loop_oracle(self):
        rng = random.Random(20261019)
        stray_flagged = 0
        for case in range(200):
            split, g, kw = _stray_case(rng)
            fast, slow = _both_ways(split, g, **kw)
            assert fast == slow, "case %d" % case
            stray_flagged += any(not 0 <= v < g.n for v in fast[1])
        assert stray_flagged >= 20

    def test_unpackable_keys_match_loop_oracle(self, monkeypatch):
        # with the int64 bound at 1 every count takes its fallback: rows
        # sorted by _count_pairs, and clause (5) in Python integers
        monkeypatch.setattr(splitting, "INT64_SAFE", 1)
        rng = random.Random(20261020)
        for case in range(100):
            split, g, kw = (_stray_case if case % 2 else _random_case)(rng)
            fast, slow = _both_ways(split, g, **kw)
            assert fast == slow, "case %d" % case

    def test_cells_match_loop(self):
        # 61 and 130 Bs take more than one 62 - bits(n) chunk of membership bits
        rng = random.Random(20261021)
        for case in range(150):
            n = rng.choice([0, 1, 7, 40, 300])
            share = rng.choice([0.1, 0.5, 0.9])
            Bs = [frozenset(v for v in range(-2, n + 2) if rng.random() < share)
                  for _ in range(rng.choice([0, 1, 3, 10, 61, 130]))]
            cell, member = _cells(Bs, n)
            loop_cell, bits = loop_cells(Bs, n)
            assert cell.tolist() == loop_cell.tolist(), "case %d" % case
            assert [np.flatnonzero(row).tolist() for row in member] == bits

    def test_matches_loop_oracle(self):
        rng = random.Random(20261018)
        verdicts = set()
        nonempty_vbar = 0
        for case in range(300):
            split, g, kw = _random_case(rng)
            fast, slow = _both_ways(split, g, **kw)
            assert fast == slow, "case %d" % case
            verdicts.add(all("FAIL" not in line for line in fast[0]))
            nonempty_vbar += bool(fast[1])
        assert verdicts == {True, False}
        assert nonempty_vbar >= 50

    def test_huge_denominators_match_oracle(self):
        # den * deg is far above 2^63: int64 would wrap, Python ints do not
        d = 10 ** 19 + 51
        q = (Fraction(d // 3, d), Fraction(d // 2, d))
        q += (1 - sum(q),)
        assert min(x.denominator for x in q) > 2 ** 63
        g = random_graph(60, 0.3, 5).with_layer("X", [])
        Bs = [frozenset(range(0, 60, 2)), frozenset(range(30))]
        flagged = 0
        for seed in range(4):
            for k in (1, 5, 100):
                split = random_split(g, g.vertices(), q, seed)
                fast, slow = _both_ways(split, g, layers=["G", "G-X"], Bs=Bs,
                                        k=k)
                assert fast == slow
                flagged += bool(fast[1])
        assert flagged

    def test_count_pairs_unpackable_keys(self):
        # keys a * size_b would pass 2^62, so pairs are sorted as rows
        big = 2 ** 40
        a = np.array([big, 5, big], dtype=np.int64)
        b = np.array([3, 1, 3], dtype=np.int64)
        pa, pb, which, count = _count_pairs(a, b, big)
        assert pa.tolist() == [5, big] and pb.tolist() == [1, 3]
        assert which.tolist() == [1, 0, 1] and count.tolist() == [1, 2]
        pa, pb, which, count = _count_pairs(a % 7, b, 4)    # packed: a = 2, 5, 2
        assert pa.tolist() == [2, 5] and pb.tolist() == [3, 1]
        assert which.tolist() == [0, 1, 0] and count.tolist() == [2, 1]


class TestRestrictMatching:
    def _params(self):
        from structhunt.decomposition import Params
        return Params(k=4, eta=Fraction(1, 2), eps=Fraction(1, 8), d=Fraction(1, 2),
                      pi=Fraction(1, 4))

    def test_empty_matching(self):
        g = random_graph(10, 0.3, 0)
        s = random_split(g, g.vertices(), [Fraction(1)], 0)
        m = RegularizedMatching([], Fraction(1, 8), Fraction(1, 2), 1)
        out, rep = restrict_matching(m, s, 0, g.with_layer("G_D", []), self._params())
        assert len(out) == 0

    def test_single_class_identity_up_to_trim(self):
        g = complete_bipartite(range(6), range(6, 12)).with_layer("G_D", [])
        s = random_split(g, g.vertices(), [Fraction(1)], 0)
        m = RegularizedMatching([(frozenset(range(6)), frozenset(range(6, 12)))],
                                Fraction(1, 8), Fraction(1, 2), 6)
        out, rep = restrict_matching(m, s, 0, g, self._params())
        assert out.pairs == m.pairs

    def test_trimmed_pair_recertified(self):
        g = complete_bipartite(range(8), range(8, 16)).with_layer("G_D", [])
        s = random_split(g, g.vertices(), [Fraction(1, 3)] * 3, seed=5)
        m = RegularizedMatching([(frozenset(range(8)), frozenset(range(8, 16)))],
                                Fraction(1, 8), Fraction(1, 2), 8)
        out, rep = restrict_matching(m, s, 1, g, self._params())
        for a, b in out.pairs:
            assert len(a) == len(b) > 0
            assert a <= s.classes[1] and b <= s.classes[1]
        assert rep["pairs (400eps/eta)-regular of density >= d/2"].passed

    def test_lowest_ids_selected(self):
        g = complete_bipartite(range(4), range(4, 8)).with_layer("G_D", [])
        from structhunt.splitting import Split
        s = Split(g.vertices(),
                  (frozenset({0, 1, 2, 4, 5}), frozenset({3, 6, 7})),
                  (Fraction(1, 2), Fraction(1, 2)), 0)
        m = RegularizedMatching([(frozenset(range(4)), frozenset(range(4, 8)))],
                                Fraction(1, 8), Fraction(1, 2), 4)
        out, _ = restrict_matching(m, s, 0, g, self._params())
        # X cap A_0 = {0,1,2}, Y cap A_0 = {4,5}: trim to lowest 2 ids each
        assert out.pairs == ((frozenset({0, 1}), frozenset({4, 5})),)

    def test_exceptional_members_skipped(self):
        g = complete_bipartite(range(4), range(4, 8)).with_layer("G_D", [])
        s = random_split(g, g.vertices(), [Fraction(1)], 0)
        s.exceptional_members = (frozenset(range(4)),)
        m = RegularizedMatching([(frozenset(range(4)), frozenset(range(4, 8)))],
                                Fraction(1, 8), Fraction(1, 2), 4)
        out, _ = restrict_matching(m, s, 0, g, self._params())
        assert len(out) == 0

    def test_leftover_degree_matches_loop(self):
        rng = random.Random(20261022)
        for case in range(200):
            n = rng.randrange(0, 30)
            g = random_graph(n, 0.3, case)
            if rng.random() < 0.7:
                g = g.with_layer("G_D", [e for e in g.edges() if rng.random() < 0.6])
            F = (frozenset(range(n)) if rng.random() < 0.2 else
                 _random_subset(rng, range(n), 0.3)) | {-1, n}
            leftover = _random_subset(rng, range(-2, n + 2), 0.5)
            thr = rng.choice([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3)])
            assert _leftover_degree(g, F, leftover, thr) == \
                loop_leftover_degree(g, F, leftover, thr), "case %d" % case


class TestProportionalSplit:
    def test_H_everything_empty_classes(self):
        import sys
        sys.path.insert(0, "tests")
        from pipeline_instances import assemble, bip
        from structhunt.splitting import proportional_split

        A = list(range(4))
        B = list(range(4, 8))
        b = assemble(8, bip(A, B), {"G_exp": [], "G_reg": []},
                     H=frozenset(range(8)), k=2, eta=Fraction(1, 2))
        split, rep = proportional_split(b, Fraction(1, 3), Fraction(1, 3),
                                        Fraction(1, 3), seed=0)
        assert all(not c for c in split.classes)

    def test_no_exceptional_empty_F(self):
        from pipeline_instances import exp_instance
        from structhunt.splitting import proportional_split

        b, _ = exp_instance()
        split, rep = proportional_split(b, Fraction(1, 3), Fraction(1, 3),
                                        Fraction(1, 3), seed=1)
        if not split.exceptional_members and not split.exceptional_clusters:
            assert split.F_shadow == frozenset()
        assert rep["|F| <= eps n"].passed is not None

    def test_low_proportion_rejected(self):
        from pipeline_instances import exp_instance
        from structhunt.splitting import proportional_split

        b, _ = exp_instance()
        with pytest.raises(ValueError):
            proportional_split(b, Fraction(1, 10**6), Fraction(1, 3),
                               Fraction(1, 3), seed=0)

    def test_exceptional_cluster_feeds_F(self):
        # k = 1 kills the k^0.9 slack; hunt a seed where a cluster misses a
        # class entirely, then F must be its full G_D-neighbourhood
        from pipeline_instances import assemble, bip
        from structhunt.splitting import proportional_split
        from structhunt.shadows import shadow

        C = list(range(10))
        nbrs = list(range(10, 20))
        gd = bip(C, nbrs)
        b = assemble(20, gd, {"G_exp": [], "G_reg": [], "G_D": gd,
                              "G_nabla": gd},
                     clusters=[frozenset(C)], k=1, eta=Fraction(1, 2))
        hit = False
        for seed in range(200):
            split, rep = proportional_split(b, Fraction(1, 3), Fraction(1, 3),
                                            Fraction(1, 3), seed=seed)
            if split.exceptional_clusters:
                hit = True
                expected = shadow(b.g, "G_D",
                                  frozenset().union(*split.exceptional_clusters),
                                  Fraction(1, 2) ** 2 * 1 / 10**10)
                assert split.F_shadow == expected
                break
        assert hit, "no seed produced an exceptional cluster"
