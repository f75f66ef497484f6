import dataclasses
import random
import re

import pytest

import oracle_treecut
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

    @pytest.mark.parametrize("parent, error", [
        ([-1, 5], "parent[1] = 5 is outside -1..1"),
        ([-1, 0, -3], "parent[2] = -3 is outside -1..2"),
        ([1, 2], "parent[1] = 2 is outside -1..1")])
    def test_parent_out_of_range_rejected(self, parent, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            Tree(parent)

    @pytest.mark.parametrize("text, error", [
        ("", "line 1: expected 'n <k>' header"),
        ("# only a comment\n", "line 1: expected 'n <k>' header"),
        ("0 -1\n", "line 1: expected 'n <k>' header"),
        ("n x\n0 -1\n", "line 1: bad integer 'x'"),
        ("# c\nn 0\n", "line 2: tree order 0 is not positive"),
        ("n 3\n0 -1\n1 0\n5 1\n", "line 4: vertex 5 is outside 0..2"),
        ("n 3\n0 -1\n-1 0\n2 1\n", "line 3: vertex -1 is outside 0..2"),
        ("n 3\n0 -1\n1 0\n2 7\n", "line 4: parent 7 is outside -1..2"),
        ("n 3\n0 -1\n1 0\n2 -2\n", "line 4: parent -2 is outside -1..2"),
        ("n 3\n0 -1\n1 0\n2 x\n", "line 4: bad integer 'x'"),
        ("# c\nn 3\n\n0 -1\n1 0 2\n", "line 5: want 'v parent', got '1 0 2'"),
        ("n 3\n0 -1\n1 0\n1 0\n", "line 4: vertex 1 given twice"),
        ("n 3\n0 -1\n2 0\n", "no parent line for vertex 1"),
        ("n 3\n0 -1\n1 2\n2 1\n", "parent array is not a connected tree")])
    def test_malformed_tree_text_named(self, text, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            load_tree(text)


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
        """The library against the reference cutter with its cut vertex
        chosen by flooding every piece of every candidate."""
        cases = [(k, budget, seed) for k in (2, 3, 10, 50, 200)
                 for budget in (1, 2, 4, 16) if budget <= k
                 for seed in range(12)]
        fast = [fine_partition(random_tree(k, seed), budget)
                for k, budget, seed in cases]
        monkeypatch.setattr(oracle_treecut, "_best_cut_vertex", _best_cut_vertex_loop)
        for fp, (k, budget, seed) in zip(fast, cases):
            ref = oracle_treecut.fine_partition(random_tree(k, seed), budget)
            assert (fp.W_A, fp.W_B) == (ref.W_A, ref.W_B), (k, budget, seed)
            assert fp.shrubs == ref.shrubs and fp.knags == ref.knags


def relabel(t, perm):
    """t with vertex v renamed perm[v]."""
    parent = [None] * t.k
    for v, p in enumerate(t.parent):
        parent[perm[v]] = -1 if p == -1 else perm[p]
    return Tree(parent)


def caterpillar_tree(spine, legs):
    """A path of spine vertices with legs leaves hanging off each."""
    return Tree([-1] + list(range(spine - 1))
                + [v for v in range(spine) for _ in range(legs)])


def criterion_10_cases():
    """The 3000 (tree, budget) pairs of acceptance criterion 10."""
    combos = [(k, budget) for k in (10, 50, 200) for budget in (1, 4, 16)
              if budget <= k]
    per_combo = 3000 // len(combos) + 1
    cases = [(k, budget, seed) for k, budget in combos for seed in range(per_combo)]
    return [(random_tree(k, seed * 131 + k + budget), budget)
            for k, budget, seed in cases[:3000]]


def failed(rep):
    return [item.item for item in rep.items if item.passed is False]


class TestAgainstOracle:
    """fine_partition and validate_fine_partition against the reference
    cutter and validator in oracle_treecut: W_A, W_B, shrubs in order,
    knags in order and the validator's rendered report."""

    @staticmethod
    def assert_same(t, budget):
        new = fine_partition(t, budget)
        old = oracle_treecut.fine_partition(t, budget)
        case = (t.k, budget, t.parent[:12])
        assert (new.W_A, new.W_B) == (old.W_A, old.W_B), case
        assert new.shrubs == old.shrubs and new.knags == old.knags, case
        assert (validate_fine_partition(new).render()
                == oracle_treecut.validate_fine_partition(old).render()), case

    def test_criterion_10_trees(self):
        for t, budget in criterion_10_cases():
            self.assert_same(t, budget)

    def test_relabelled_trees(self):
        """Seeded permutations with the root away from 0, and the reversal
        that puts every parent id above its children's."""
        for k in (2, 3, 5, 17, 60, 200):
            for seed in range(8):
                t = random_tree(k, 1000 + seed)
                perm = list(range(k))
                rng = random.Random(seed)
                while perm[0] == 0:
                    rng.shuffle(perm)
                for u in (relabel(t, perm), relabel(t, list(range(k - 1, -1, -1)))):
                    assert u.parent[0] != -1
                    for budget in (1, 3, 8):
                        if budget <= k:
                            self.assert_same(u, budget)

    def test_paths_stars_caterpillars(self):
        for k in (2, 3, 4, 7, 8, 9, 16, 31):
            mid = k // 2
            trees = [path_tree(k), star_tree(k),
                     relabel(path_tree(k), [(v + mid) % k for v in range(k)]),
                     relabel(star_tree(k), [(v + mid) % k for v in range(k)])]
            for t in trees:
                for budget in range(1, k + 1):
                    self.assert_same(t, budget)
        for spine, legs in ((1, 3), (2, 1), (5, 2), (6, 3), (12, 4)):
            t = caterpillar_tree(spine, legs)
            for budget in range(1, t.k + 1):
                self.assert_same(t, budget)

    def test_order_1000(self):
        for seed in range(3):
            t = random_tree(1000, 77 + seed)
            for budget in (1, 4, 16, 64):
                self.assert_same(t, budget)

    def test_mutated_partitions_fail_the_same_clauses(self):
        """Move a W_A vertex to W_B, drop a shrub, add an anchor, merge two
        knags: the validator fails exactly the clauses the reference does."""
        caught = dict.fromkeys(("move", "drop", "anchor", "merge"), 0)
        rng = random.Random(5)
        for k in (2, 3, 6, 20, 80):
            for budget in (1, 2, 5, 12):
                if budget > k:
                    continue
                for seed in range(15):
                    t = random_tree(k, seed * 17 + k)
                    if seed % 2:
                        t = relabel(t, list(range(k - 1, -1, -1)))
                    for kind, fp in self.mutants(fine_partition(t, budget), rng):
                        new = validate_fine_partition(fp)
                        old = oracle_treecut.validate_fine_partition(fp)
                        assert failed(new) == failed(old), (kind, k, budget, seed)
                        assert new.render() == old.render()
                        caught[kind] += bool(failed(old))
        assert all(caught.values()), caught

    @staticmethod
    def mutants(fp, rng):
        out = []
        if fp.W_A:
            v = rng.choice(sorted(fp.W_A))
            out.append(("move", dataclasses.replace(fp, W_A=fp.W_A - {v},
                                                    W_B=fp.W_B | {v})))
        i = rng.randrange(len(fp.shrubs))
        out.append(("drop", dataclasses.replace(fp, shrubs=fp.shrubs[:i] + fp.shrubs[i + 1:])))
        extra = sorted(set(range(fp.tree.k)) - fp.shrubs[i].anchors)
        shrubs = list(fp.shrubs)
        shrubs[i] = Shrub(shrubs[i].vertices, shrubs[i].anchors | {rng.choice(extra)})
        out.append(("anchor", dataclasses.replace(fp, shrubs=shrubs)))
        if len(fp.knags) >= 2:
            a, b = rng.sample(range(len(fp.knags)), 2)
            knags = [q for j, q in enumerate(fp.knags) if j not in (a, b)]
            out.append(("merge", dataclasses.replace(
                fp, knags=knags + [fp.knags[a] | fp.knags[b]])))
        return out


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

    def test_knags_in_another_order_pass(self):
        fp = fine_partition(path_tree(9), 3)
        assert len(fp.knags) >= 2 and validate_fine_partition(fp).ok
        reordered = dataclasses.replace(fp, knags=fp.knags[::-1])
        assert reordered.knags != fp.knags
        assert validate_fine_partition(reordered).ok

    def test_an_empty_knag_fails(self):
        fp = fine_partition(path_tree(9), 3)
        with_empty = dataclasses.replace(fp, knags=fp.knags + [frozenset()])
        rep = validate_fine_partition(with_empty)
        assert not rep["knags are the components of T[W]"].passed
