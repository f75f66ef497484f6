from fractions import Fraction

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import BUILDERS, build
from oracle_tuple_sets import tuple_d1_report
from util import random_graph
from structhunt.configurations import (PRECONFIG_TAGS, ConfigParams,
                                       ConfigurationWitness,
                                       verify_configuration,
                                       verify_preconfiguration)


def run_checker(tag, spoil):
    b, split, w, cp = build(tag, spoil)
    if tag in PRECONFIG_TAGS:
        return verify_preconfiguration(w, b, split, cp)
    return verify_configuration(w, b, split, cp)


class TestAllTagsPassAndFail:
    @pytest.mark.parametrize("tag", sorted(BUILDERS))
    def test_passing_instance(self, tag):
        rep = run_checker(tag, spoil=False)
        assert rep.ok, "%s:\n%s" % (tag, rep.render())

    @pytest.mark.parametrize("tag", sorted(BUILDERS))
    def test_failing_instance(self, tag):
        rep = run_checker(tag, spoil=True)
        assert not rep.ok, "%s unexpectedly passed:\n%s" % (tag, rep.render())


class TestIndependentReverification:
    """Every degree clause of a passing report re-verifies by raw adjacency
    counting (the second code path of the soundness criterion)."""

    @pytest.mark.parametrize("tag", sorted(BUILDERS))
    def test_clauses_reverify(self, tag):
        b, split, w, cp = build(tag, spoil=False)
        rep = run_checker(tag, spoil=False)
        for ci in rep.items:
            if ci.passed is False:
                pytest.fail("%s: %s" % (tag, ci.render()))
            # re-verify numeric clauses: measured vs needed must agree
            if ci.passed and ci.measured is not None and ci.needed is not None:
                from structhunt.exactmath import cmp_ge, cmp_le
                assert cmp_ge(ci.measured, ci.needed) or cmp_le(ci.measured, ci.needed)


class TestWitnessBasics:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationWitness("D11", {})

    def test_alias_tags(self):
        w = ConfigurationWitness("\u25ca7", {})
        assert w.tag == "D7"

    def test_missing_field_raises(self):
        b, split, w, cp = build("exp")
        w2 = ConfigurationWitness("exp", {"V0": frozenset({0})})
        with pytest.raises(KeyError):
            verify_preconfiguration(w2, b, split, cp)

    def test_empty_witness_rule(self):
        # non-empty demands fail on empty payloads, with a reason
        b, split, w, cp = build("exp")
        w2 = ConfigurationWitness("exp", {"V0": frozenset(), "V1": frozenset()})
        rep = verify_preconfiguration(w2, b, split, cp)
        assert not rep.ok
        assert not rep["V0 non-empty"].passed


class TestMonotonicity:
    def test_adding_nabla_edges_never_breaks_mindeg(self):
        b, split, w, cp = build("D3")
        rep1 = verify_configuration(w, b, split, cp)
        assert rep1.ok
        # add more G_nabla edges (toward H''): mindeg clauses cannot flip
        extra = [(0, 5), (1, 6)]
        g2 = b.g.with_layer("G_nabla",
                            sorted(set(b.g.edges("G_nabla")) | set(extra)))
        g2 = g2.with_layer("G", sorted(set(b.g.edges("G")) | set(extra)))
        b.g = g2
        rep2 = verify_configuration(w, b, split, cp)
        for ci1, ci2 in zip(rep1.items, rep2.items):
            if "mindeg" in ci1.item and ci1.passed:
                assert ci2.passed, ci2.render()

    def test_shrinking_forbidden_set_keeps_membership(self):
        b, split, w, cp = build("D6")
        rep1 = verify_configuration(w, b, split, cp)
        assert rep1.ok
        # V_not_to_H already empty; split exceptional vertices shrink: no-op
        split.exceptional_vertices = frozenset()
        rep2 = verify_configuration(w, b, split, cp)
        assert rep2.ok


class TestD10Specifics:
    def test_exceptional_fraction_tie_passes(self):
        # "all but at most eps|A|" with exactly eps|A| violators passes
        b, split, w, cp = build("D10")
        # make exactly 1 vertex of A fail the degree clause; eps~|A| = 1.5
        A = sorted(w["A"])
        edges = [e for e in w["Gt_edges"]
                 if not (e[0] == A[0] and e[1] in sorted(w.data["ensemble"][2]))
                 and not (e[1] == A[0] and e[0] in sorted(w.data["ensemble"][2]))]
        w2 = ConfigurationWitness("D10", dict(w.data, Gt_edges=edges))
        rep = verify_configuration(w2, b, split, cp)
        item = rep["(b) all but <= eps~|A| vertices see (1+eta')k into V(M)+L*"]
        assert item.passed


class TestWitnessFileEdges:
    @pytest.mark.parametrize("tag", ["D1", "D10"])
    @pytest.mark.parametrize("spoil", [False, True])
    def test_read_back_verifies_alike(self, tag, spoil):
        """A D1 or D10 witness read back from its file, with the graph's n
        or without it (its edges then re-encoded for the graph), gets the
        report the witness itself gets."""
        from structhunt.fileio import dump_witness, parse_witness

        b, split, w, cp = build(tag, spoil)
        want = verify_configuration(w, b, split, cp).render()
        text = dump_witness(w, cp)
        for n in (b.g.n, None):
            w2 = parse_witness(text, n)
            assert verify_configuration(w2, b, split, w2.params).render() == want
            assert dump_witness(w2, w2.params) == text


def _report_or_error(check, w, b):
    try:
        return check(w, b).render()
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


class TestD1AgainstTupleSets:
    @given(st.integers(0, 10**6), st.integers(2, 20), st.sampled_from([0.2, 0.5, 0.9]),
           st.sampled_from([None, "self-loop", "out of range", "negative",
                            "not a pair", "repeat"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_set_form(self, seed, n, p, bad):
        """Same report, or the same error for a bad witness edge: edges of G
        and non-edges, either orientation, repeats, sides with ids outside
        the graph."""
        rng = random.Random(seed)
        g = random_graph(n, p, seed)
        A = frozenset(v for v in range(n) if rng.random() < 0.4)
        B = frozenset(v for v in range(n) if v not in A and rng.random() < 0.5)
        if rng.random() < 0.2:
            A |= {n + 3}
        edges = sorted(g.edges("G"))
        F = [e[::-1] if rng.random() < 0.5 else e for e in edges if rng.random() < 0.5]
        F += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        if bad == "repeat":
            F += F[:1] + [e[::-1] for e in F[:1]]
        elif bad is not None:
            F.insert(rng.randint(0, len(F)), {"self-loop": (1, 1),
                                              "out of range": (0, n + rng.randint(0, 2)),
                                              "negative": (-1, 0),
                                              "not a pair": (0, 1, 1)}[bad])
        rng.shuffle(F)
        b = SimpleNamespace(g=g, p=SimpleNamespace(k=rng.randint(1, 5)))
        w = ConfigurationWitness("D1", {"A": A, "B": B, "F": F})
        got = _report_or_error(lambda w, b: verify_configuration(w, b, None, ConfigParams()), w, b)
        assert got == _report_or_error(tuple_d1_report, w, b)
