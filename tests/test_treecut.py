import pytest

from structhunt import treecut
from structhunt.treecut import (FinePartition, Shrub, Tree, dump_tree,
                                fine_partition, load_tree, random_tree,
                                validate_fine_partition)


def path_tree(k):
    return Tree([-1] + list(range(k - 1)))


def star_tree(k):
    return Tree([-1] + [0] * (k - 1))


class TestTreeBasics:
    def test_load_dump_roundtrip(self):
        t = random_tree(12, 3)
        assert load_tree(dump_tree(t)).parent == t.parent

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Tree([-1, 0, -1])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            Tree([-1, -1, 0])


class TestFinePartition:
    def test_path_single_cut(self):
        k = 9
        fp = fine_partition(path_tree(k), 1)
        assert len(fp.W) == 1
        rep = validate_fine_partition(fp)
        assert rep.ok, rep.render()
        # centroid cut: two end shrubs of order <= ceil(k/2)
        assert len(fp.shrubs) == 2
        assert all(len(s.vertices) <= -(-k // 2) for s in fp.shrubs)

    def test_star_center_cut(self):
        k = 8
        fp = fine_partition(star_tree(k), 1)
        assert fp.W == frozenset({0})
        assert len(fp.shrubs) == k - 1
        assert all(s.is_end and len(s.vertices) == 1 for s in fp.shrubs)
        assert validate_fine_partition(fp).ok

    def test_single_edge(self):
        fp = fine_partition(Tree([-1, 0]), 1)
        assert len(fp.W) == 1
        assert len(fp.shrubs) == 1
        assert fp.shrubs[0].is_end
        assert validate_fine_partition(fp).ok

    def test_budget_above_k_rejected(self):
        with pytest.raises(ValueError):
            fine_partition(path_tree(4), 9)

    def test_partition_reassembles_tree(self):
        for seed in range(20):
            t = random_tree(40, seed)
            fp = fine_partition(t, 4)
            pieces = set(fp.W)
            for s in fp.shrubs:
                assert not (s.vertices & pieces)
                pieces |= s.vertices
            assert pieces == set(range(t.k))

    def test_random_trees_validate(self):
        for k in (10, 50, 200):
            for budget in (1, 4, 16):
                if budget > k:
                    continue
                for seed in range(15):
                    t = random_tree(k, seed * 31 + k)
                    fp = fine_partition(t, budget)
                    rep = validate_fine_partition(fp)
                    assert rep.ok, (k, budget, seed, rep.render())

    def test_t_counts(self):
        for seed in range(10):
            t = random_tree(30, seed)
            fp = fine_partition(t, 4)
            assert fp.t_int + fp.t_end + len(fp.W) == t.k


def _best_cut_vertex_loop(adj, comp, candidates):
    """Reference: flood every piece of comp - {c} for each candidate c."""
    best = None
    best_size = None
    for c in sorted(candidates):
        worst = 0
        seen = {c}
        for start in adj[c]:
            if start not in comp or start in seen:
                continue
            size = 0
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                size += 1
                for u in adj[v]:
                    if u in comp and u not in seen and u != c:
                        seen.add(u)
                        stack.append(u)
            worst = max(worst, size)
        if best is None or worst < best_size:
            best, best_size = c, worst
    return best


class TestCutVertexReference:
    def test_partitions_match_loop_reference(self, monkeypatch):
        cases = [(k, budget, seed) for k in (2, 3, 10, 50, 200)
                 for budget in (1, 2, 4, 16) if budget <= k
                 for seed in range(12)]
        fast = [fine_partition(random_tree(k, seed), budget)
                for k, budget, seed in cases]
        monkeypatch.setattr(treecut, "_best_cut_vertex", _best_cut_vertex_loop)
        for fp, (k, budget, seed) in zip(fast, cases):
            ref = fine_partition(random_tree(k, seed), budget)
            assert (fp.W_A, fp.W_B) == (ref.W_A, ref.W_B), (k, budget, seed)
            assert fp.shrubs == ref.shrubs and fp.knags == ref.knags


class TestValidatorCatchesBadInputs:
    def test_even_parity_fails(self):
        # P5 with W = {1, 3}: distance 2 (even) between the cut vertices
        t = path_tree(5)
        adj = t.adjacency()
        from structhunt.treecut import _components_with_anchors, _knag_components

        comps = _components_with_anchors(adj, {1, 3})
        fp = FinePartition(t, frozenset({1}), frozenset({3}),
                           [Shrub(c, a) for c, a in comps],
                           _knag_components(adj, {1, 3}), 2, 2)
        rep = validate_fine_partition(fp)
        assert not rep["all W_A-W_B distances odd"].passed

    def test_internal_anchor_in_WB_fails(self):
        # P5 with W = {0, 2}: middle shrub {1} anchors into both; put 2 in W_B
        t = path_tree(5)
        adj = t.adjacency()
        from structhunt.treecut import _components_with_anchors, _knag_components

        comps = _components_with_anchors(adj, {0, 2})
        fp = FinePartition(t, frozenset({0}), frozenset({2}),
                           [Shrub(c, a) for c, a in comps],
                           _knag_components(adj, {0, 2}), 2, 4)
        rep = validate_fine_partition(fp)
        assert not rep["internal shrubs anchor only in W_A"].passed

    def test_wrong_shrub_list_fails(self):
        t = path_tree(6)
        fp = fine_partition(t, 1)
        fp2 = FinePartition(t, fp.W_A, fp.W_B, fp.shrubs[:-1], fp.knags,
                            fp.budget, fp.c)
        rep = validate_fine_partition(fp2)
        assert not rep["shrubs are exactly the components of T - W"].passed

    def test_three_anchor_shrub_fails(self):
        # star with three leaves in W: the component {center, other leaves}
        # touches three cut vertices
        t = star_tree(6)
        adj = t.adjacency()
        from structhunt.treecut import _components_with_anchors, _knag_components

        W = {1, 2, 3}
        comps = _components_with_anchors(adj, W)
        fp = FinePartition(t, frozenset(W), frozenset(),
                           [Shrub(c, a) for c, a in comps],
                           _knag_components(adj, W), 3, 4)
        rep = validate_fine_partition(fp)
        assert not rep["each shrub has 1 or 2 anchors"].passed
