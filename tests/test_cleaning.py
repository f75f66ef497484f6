import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle_cleaning
from generators import (c_plus_black_instance, c_plus_yellow_instance,
                        envelope_instance, match_instance, yellow_instance)
from structhunt import cleaning
from structhunt.cleaning import (clean_c_plus_black, clean_c_plus_yellow,
                                 clean_match, clean_yellow, envelope)
from structhunt.exactmath import RootVal, sqrt_val
from structhunt.graphcore import LayeredGraph, norm_edge
from util import complete_bipartite, graph_from_edges, random_bipartite_edges


def replay(inputs, trace):
    """Apply a removal trace to named input sets; returns final sets."""
    sets = {name: set(s) for name, s in inputs.items()}
    for v, name, _cond in trace:
        sets[name].discard(v)
    return {name: frozenset(s) for name, s in sets.items()}


class TestEnvelope:
    def test_complete_bipartite_no_removals(self):
        g = complete_bipartite(range(4), range(4, 10))
        P, Q = frozenset(range(4)), frozenset(range(4, 10))
        Pp, Qp, Qpp, rep = envelope(g, "G", P, Q, frozenset(),
                                    psi=Fraction(1, 10), Gamma=2, Omega=1, k=3)
        assert (Pp, Qp, Qpp) == (P, Q, Q)
        assert not rep.trace
        assert rep.conclusions.ok

    def test_Q_equals_Y_cascades_empty(self):
        g = complete_bipartite(range(3), range(3, 6))
        P, Q = frozenset(range(3)), frozenset(range(3, 6))
        Pp, Qp, Qpp, rep = envelope(g, "G", P, Q, Q, psi=Fraction(1, 10),
                                    Gamma=2, Omega=1, k=3)
        assert Qp == frozenset() and Qpp == frozenset()
        assert Pp == frozenset()  # (a) empties P'
        assert any(name == "P'" for _, name, _ in rep.trace)

    def test_in_regime_conclusions(self):
        for seed in range(30):
            g, P, Q, Y, psi, Gamma, Omega, k = envelope_instance(seed)
            Pp, Qp, Qpp, rep = envelope(g, "G", P, Q, Y, psi, Gamma, Omega, k)
            assert rep.hypotheses.ok, (seed, rep.hypotheses.render())
            assert rep.conclusions.ok, (seed, rep.conclusions.render())

    def test_overlap_rejected(self):
        g = complete_bipartite(range(2), range(2, 4))
        with pytest.raises(ValueError):
            envelope(g, "G", frozenset({0, 1}), frozenset({1, 2}), frozenset(),
                     Fraction(1, 2), 1, 1, 1)

    def test_trace_replays(self):
        g, P, Q, Y, psi, Gamma, Omega, k = envelope_instance(5)
        Pp, Qp, Qpp, rep = envelope(g, "G", P, Q, Y, psi, Gamma, Omega, k)
        final = replay({"P'": P, "Q'": Q - Y, "Q''": Q - Y}, rep.trace)
        assert final["P'"] == Pp and final["Q'"] == Qp and final["Q''"] == Qpp

    def test_fixed_point(self):
        g, P, Q, Y, psi, Gamma, Omega, k = envelope_instance(7)
        Pp, Qp, Qpp, _ = envelope(g, "G", P, Q, Y, psi, Gamma, Omega, k)
        if not Pp or not Qpp:
            return
        P2, _, Q2pp, rep2 = envelope(g, "G", Pp, Qpp, frozenset(), psi, Gamma,
                                     Omega, k)
        assert (P2, Q2pp) == (Pp, Qpp)
        assert not rep2.trace


class TestCleanCPlusYellow:
    def test_in_regime_no_failures(self):
        for seed in range(20):
            g, sets, Y, r, os_, oss, delta, gamma, eta, k = \
                c_plus_yellow_instance(seed)
            Xp, rep = clean_c_plus_yellow(g, "G", sets, Y, r, os_, oss,
                                          delta, gamma, eta, k)
            assert rep.hypotheses.ok, (seed, rep.hypotheses.render())
            assert rep.conclusions.ok, (seed, rep.conclusions.render())
            assert Xp[0] and Xp[1]

    def test_X1_inside_Y_cascades(self):
        g, sets, _, r, os_, oss, delta, gamma, eta, k = c_plus_yellow_instance(1)
        Xp, rep = clean_c_plus_yellow(g, "G", sets, sets[1], r, os_, oss,
                                      delta, gamma, eta, k)
        assert Xp[1] == frozenset()
        assert Xp[0] == frozenset()  # (d) empties X0'
        assert not rep.hypotheses.ok  # |Y| bound fails
        assert "[hyp failed]" in rep.conclusions.items[-1].item

    def test_side_condition_violation_still_runs(self):
        g, sets, Y, r, os_, oss, _, gamma, eta, k = c_plus_yellow_instance(2)
        Xp, rep = clean_c_plus_yellow(g, "G", sets, Y, r, os_, oss,
                                      delta=Fraction(10), gamma=gamma,
                                      eta=eta, k=k)
        assert not rep.hypotheses.items[0].passed  # side condition
        assert isinstance(Xp, tuple)  # algorithm total

    def test_r_zero_rejected(self):
        g, sets, Y, r, os_, oss, delta, gamma, eta, k = c_plus_yellow_instance(0)
        with pytest.raises(ValueError):
            clean_c_plus_yellow(g, "G", sets[:1], Y, 0, os_, oss, delta,
                                gamma, eta, k)

    def test_construction_conclusions_on_arbitrary_inputs(self):
        rng = random.Random(0)
        for seed in range(25):
            n = 18
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            g = graph_from_edges(n, edges)
            sets = [frozenset(rng.sample(range(n), rng.randint(1, 6)))
                    for _ in range(3)]
            Y = frozenset(rng.sample(range(n), 3))
            Xp, rep = clean_c_plus_yellow(g, "G", sets, Y, r=2, omega_star=3,
                                          omega_sstar=RootVal(1100),
                                          delta=Fraction(1, 3),
                                          gamma=Fraction(1, 2),
                                          eta=Fraction(1, 4), k=2)
            for item in rep.conclusions.items[:4]:  # (a)-(d) by construction
                assert item.passed, (seed, item.render())

    def test_fixed_point(self):
        g, sets, Y, r, os_, oss, delta, gamma, eta, k = c_plus_yellow_instance(3)
        Xp, _ = clean_c_plus_yellow(g, "G", sets, Y, r, os_, oss, delta, gamma,
                                    eta, k)
        Xp2, rep2 = clean_c_plus_yellow(g, "G", list(Xp), frozenset(), r, os_,
                                        oss, delta, gamma, eta, k)
        assert tuple(Xp2) == tuple(Xp)
        assert not rep2.trace


class TestCleanCPlusBlack:
    def test_in_regime_no_failures(self):
        for seed in range(20):
            g, X0, X1, Y, clusters, delta, eta, os_, oss, h, k = \
                c_plus_black_instance(seed)
            X0p, X1p, rep = clean_c_plus_black(g, "G", X0, X1, Y, clusters,
                                               delta, eta, os_, oss, h, k)
            assert rep.hypotheses.ok, (seed, rep.hypotheses.render())
            assert rep.conclusions.ok, (seed, rep.conclusions.render())

    def test_small_cluster_flushed(self):
        g, X0, X1, _, _, delta, eta, os_, oss, h, k = c_plus_black_instance(0)
        C = frozenset(sorted(X1)[:h - 1])  # fewer than h survivors possible
        X0p, X1p, rep = clean_c_plus_black(g, "G", X0, X1, frozenset(), [C],
                                           delta, eta, os_, oss, h, k)
        assert not (X1p & C)
        assert rep.conclusions[
            "(c) every cluster meets X1' in 0 or >= h vertices"].passed

    def test_Y_equals_X1_flagged(self):
        g, X0, X1, _, _, delta, eta, os_, oss, h, k = c_plus_black_instance(1)
        X0p, X1p, rep = clean_c_plus_black(g, "G", X0, X1, X1, [], delta, eta,
                                           os_, oss, h, k)
        assert X1p == frozenset() and X0p == frozenset()
        assert not rep.hypotheses.ok

    def test_trace_replays(self):
        g, X0, X1, Y, clusters, delta, eta, os_, oss, h, k = \
            c_plus_black_instance(2)
        C = frozenset(sorted(X1)[: max(h - 1, 1)])
        X0p, X1p, rep = clean_c_plus_black(g, "G", X0, X1, Y, [C], delta, eta,
                                           os_, oss, h, k)
        final = replay({"X0'": X0, "X1'": X1 - Y}, rep.trace)
        assert final["X0'"] == X0p and final["X1'"] == X1p


class TestCleanYellow:
    def test_in_regime_no_failures(self):
        for seed in range(20):
            g, names, sets, Y, r, omega, gamma, delta, eta, k = \
                yellow_instance(seed)
            Xp, rep = clean_yellow(g, names, sets, Y, r, omega, gamma, delta,
                                   eta, k)
            assert rep.hypotheses.ok, (seed, rep.hypotheses.render())
            assert rep.conclusions.ok, (seed, rep.conclusions.render())

    def test_empty_E1_flagged(self):
        g, names, sets, Y, r, omega, gamma, delta, eta, k = yellow_instance(1)
        g = g.with_layer(names[0], [])
        Xp, rep = clean_yellow(g, names, sets, Y, r, omega, gamma, delta, eta, k)
        assert Xp[0] == frozenset()
        assert not rep.hypotheses["2. e_1(X0,X1) >= eta k n"].passed

    def test_Y_everything(self):
        g, names, sets, _, r, omega, gamma, delta, eta, k = yellow_instance(2)
        Xp, rep = clean_yellow(g, names, sets, g.vertices(), r, omega, gamma,
                               delta, eta, k)
        assert all(X == frozenset() for X in Xp)

    def test_r_one_rejected(self):
        g, names, sets, Y, r, omega, gamma, delta, eta, k = yellow_instance(0)
        with pytest.raises(ValueError):
            clean_yellow(g, names[:1], sets[:2], Y, 1, omega, gamma, delta,
                         eta, k)

    def test_fixed_point(self):
        g, names, sets, Y, r, omega, gamma, delta, eta, k = yellow_instance(3)
        Xp, _ = clean_yellow(g, names, sets, Y, r, omega, gamma, delta, eta, k)
        Xp2, rep2 = clean_yellow(g, names, list(Xp), frozenset(), r, omega,
                                 gamma, delta, eta, k)
        assert tuple(Xp2) == tuple(Xp)
        assert not rep2.trace


class TestCleanMatch:
    def test_complete_pairs_survive(self):
        g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(0, pair_count=1, side=6)
        qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                      gamma, eta, delta, eps, mu, d, k)
        assert len(qpairs) == 1
        assert qpairs[0] == (parts[0][0], parts[0][1])
        assert rep.hypotheses.ok, rep.hypotheses.render()
        assert rep.conclusions.ok, rep.conclusions.render()

    def test_in_regime_random_pairs(self):
        for seed in range(12):
            g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
                match_instance(seed, pair_count=2, side=12, density=0.5)
            qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                          gamma, eta, delta, eps, mu, d, k)
            if not rep.hypotheses.ok:
                continue  # a random pair may fail its regularity certificate
            assert rep.conclusions.ok, (seed, rep.conclusions.render())
            assert Xp[1]

    def test_pair_with_quarter_in_Y_flushed(self):
        g, names, sets, _, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(1, pair_count=2, side=8)
        Y = frozenset(sorted(parts[0][0])[:3])  # 3 > 8/4 = 2
        qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                      gamma, eta, delta, eps, mu, d, k)
        assert rep.flushed_pairs == [0]
        assert len(qpairs) == 1
        assert not (Xp[0] & parts[0][0])

    def test_partition_mismatch_rejected(self):
        g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(2, pair_count=1, side=4)
        bad_sets = [sets[0] | frozenset({g.n - 1}), sets[1], sets[2]]
        with pytest.raises(ValueError):
            clean_match(g, names, bad_sets, Y, parts, r, omega, gamma, eta,
                        delta, eps, mu, d, k)

    def test_eviction_sets_tracked(self):
        g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(9, pair_count=1, side=8, density=0.55)
        qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                      gamma, eta, delta, eps, mu, d, k)
        assert hasattr(rep, "evictions")
        x0a, x1a = rep.evictions
        assert x0a <= sets[0] and x1a <= sets[1]

    def test_fixed_point(self):
        g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(4, pair_count=2, side=6)
        qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                      gamma, eta, delta, eps, mu, d, k)
        parts2 = [q for q in qpairs]
        if not parts2 or not all(q0 and q1 for q0, q1 in parts2):
            return
        sets2 = [frozenset().union(*[q[0] for q in parts2]),
                 frozenset().union(*[q[1] for q in parts2])] + list(Xp[2:])
        qpairs2, Xp2, rep2 = clean_match(g, names, sets2, frozenset(), parts2,
                                         r, omega, gamma, eta, delta, eps, mu,
                                         d, k)
        assert qpairs2 == qpairs
        assert not rep2.trace


class TestTraceReplayAllOps:
    def test_cyellow_replay(self):
        g, sets, Y, r, os_, oss, delta, gamma, eta, k = c_plus_yellow_instance(4)
        Xp, rep = clean_c_plus_yellow(g, "G", sets, sets[1] & Y | Y, r, os_,
                                      oss, delta, gamma, eta, k)
        inputs = {"X%d'" % i: (sets[i] - Y if i == 1 else sets[i])
                  for i in range(len(sets))}
        final = replay(inputs, rep.trace)
        for i, X in enumerate(Xp):
            assert final["X%d'" % i] == X

    def test_yellow_replay(self):
        g, names, sets, Y, r, omega, gamma, delta, eta, k = yellow_instance(5)
        Xp, rep = clean_yellow(g, names, sets, Y, r, omega, gamma, delta, eta, k)
        inputs = {"X%d'" % i: sets[i] - Y for i in range(len(sets))}
        final = replay(inputs, rep.trace)
        for i, X in enumerate(Xp):
            assert final["X%d'" % i] == X

    def test_match_replay(self):
        g, names, sets, _, parts, r, omega, gamma, eta, delta, eps, mu, d, k = \
            match_instance(3, pair_count=2, side=8)
        Y = frozenset(sorted(parts[0][0])[:3])
        qpairs, Xp, rep = clean_match(g, names, sets, Y, parts, r, omega,
                                      gamma, eta, delta, eps, mu, d, k)
        inputs = {"X%d'" % i: sets[i] - Y for i in range(len(sets))}
        final = replay(inputs, rep.trace)
        for i, X in enumerate(Xp):
            assert final["X%d'" % i] == X


# -- against the per-vertex loops ------------------------------------------

SPECS = ("G", "G_nabla", "G_nabla+G_D-G_exp", "G_D+G_exp")
# bounds that land on integers (k times a whole number, perfect squares and
# fourth roots), between them and below zero
RATIOS = [Fraction(-1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
          Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
POSITIVE = RATIOS[2:]
ROOTS = [RootVal(1), RootVal(2), RootVal(4), RootVal(9, 1, 1), Fraction(9, 4),
         RootVal(1, 16, 2), RootVal(1, 5, 2), RootVal(4, 3, 2), RootVal(1, 81, 2)]


@st.composite
def clean_inputs(draw, sets: int, stray: bool = False):
    """A graph with four layers on 1..12 vertices and vertex sets over it;
    with stray, the first or second set gains an id outside 0..n-1."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_sets = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    g = LayeredGraph(n, {name: draw(edge_sets)
                         for name in ("G", "G_nabla", "G_D", "G_exp")})
    ids = st.frozensets(st.integers(0, n - 1))
    Xs = [draw(ids) for _ in range(sets)]
    if stray:
        i = draw(st.integers(0, 1))
        Xs[i] |= {draw(st.sampled_from([-1, n, n + 5, 2 ** 70]))}
    return g, Xs, draw(ids)


def outcome(fn, *args):
    """fn's result with each CleaningReport replaced by everything it shows,
    or the name of the exception fn raised."""
    try:
        result = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__
    rep = result[-1]
    shown = (rep.render(), rep.trace, rep.iterations,
             getattr(rep, "flushed_pairs", None), getattr(rep, "evictions", None))
    return tuple(result[:-1]) + shown


def same(op, *args):
    new = outcome(getattr(cleaning, op), *args)
    old = outcome(getattr(oracle_cleaning, op), *args)
    assert new == old
    return new


class TestAgainstLoopForms:
    """Each op matches its per-vertex loop form in oracle_cleaning: outputs,
    rendered reports, traces, iteration counts, flushed pairs and evictions."""

    @given(clean_inputs(2), st.sampled_from(SPECS), st.sampled_from(RATIOS),
           st.sampled_from(POSITIVE), st.sampled_from(RATIOS), st.integers(1, 4),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_envelope(self, inputs, spec, psi, Gamma, Omega, k, disjoint):
        g, (P, Q), Y = inputs
        if disjoint:
            Q -= P
        same("envelope", g, spec, P, Q, Y, psi, Gamma, Omega, k)

    @given(clean_inputs(4), st.sampled_from(SPECS), st.integers(1, 3),
           st.sampled_from(POSITIVE), st.sampled_from(ROOTS),
           st.sampled_from(RATIOS), st.sampled_from(POSITIVE),
           st.sampled_from(POSITIVE), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_c_plus_yellow(self, inputs, spec, r, os_, oss, delta, gamma, eta, k):
        g, Xs, Y = inputs
        same("clean_c_plus_yellow", g, spec, Xs[:r + 1], Y, r, os_, oss, delta,
             gamma, eta, k)

    @given(clean_inputs(2), st.sampled_from(SPECS), st.lists(
        st.frozensets(st.integers(-1, 13)), max_size=4),
        st.sampled_from(RATIOS), st.sampled_from(POSITIVE), st.sampled_from(POSITIVE),
        st.sampled_from(ROOTS), st.sampled_from([1, 2, 3, RootVal(1, 2, 2), RootVal(4)]),
        st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_c_plus_black(self, inputs, spec, clusters, delta, eta, os_, oss, h, k):
        """Clusters may overlap and hold ids outside the graph."""
        g, (X0, X1), Y = inputs
        same("clean_c_plus_black", g, spec, X0, X1, Y, clusters, delta, eta, os_,
             oss, h, k)

    @given(clean_inputs(4), st.lists(st.sampled_from(SPECS), min_size=3, max_size=3),
           st.integers(2, 3), st.sampled_from(POSITIVE), st.sampled_from(RATIOS),
           st.sampled_from(RATIOS), st.sampled_from(POSITIVE), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_yellow(self, inputs, specs, r, omega, gamma, delta, eta, k):
        """A negative gamma puts the max rule's bound below zero."""
        g, Xs, Y = inputs
        same("clean_yellow", g, specs[:r], Xs[:r + 1], Y, r, omega, gamma, delta,
             eta, k)

    @given(clean_inputs(4), st.lists(st.sampled_from(SPECS), min_size=3, max_size=3),
           st.integers(2, 3), st.data(), st.sampled_from(POSITIVE),
           st.sampled_from(POSITIVE), st.sampled_from(RATIOS),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
           st.sampled_from([Fraction(1, 2), Fraction(1)]), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_match(self, inputs, specs, r, data, omega, gamma, delta, d, mu, k):
        """X_0 and X_1 are cut into pairs of at most 4 vertices a side, so the
        hypothesis and super-regularity checks stay exact."""
        g, Xs, Y = inputs
        sides = [sorted(Xs[0]), sorted(Xs[1])]
        count = max(1, (max(map(len, sides)) + 3) // 4)
        parts = [(frozenset(sides[0][j::count]), frozenset(sides[1][j::count]))
                 for j in range(count)]
        if data.draw(st.booleans()) and parts[0][0]:
            parts[0] = (parts[0][0] - {min(parts[0][0])}, parts[0][1])  # no partition
        same("clean_match", g, specs[:r], Xs[:r + 1], Y, parts, r, omega, gamma,
             Fraction(1, 2), delta, Fraction(1, 100), mu, d, k)

    @given(clean_inputs(3, stray=True), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_ids_outside_graph_raise(self, inputs, which):
        g, Xs, Y = inputs
        X0, X1, _ = Xs
        half, third = Fraction(1, 2), Fraction(1, 3)
        op, *args = [
            ("envelope", g, "G", X0, X1, Y, half, half, third, 2),
            ("clean_c_plus_yellow", g, "G", Xs, Y, 2, 2, RootVal(4), third, half,
             half, 1),
            ("clean_c_plus_black", g, "G", X0, X1, Y, [], third, half, 2,
             sqrt_val(2), 2, 1),
            ("clean_yellow", g, ["G", "G_D"], Xs, Y, 2, 2, half, third, half, 1),
        ][which]
        assert same(op, *args) == "ValueError"
