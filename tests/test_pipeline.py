from fractions import Fraction

import pytest

from pipeline_instances import (d1_instance, exp_instance, k2_instance,
                                random_instance, unmet_instance,
                                wa_t1_instance)
from structhunt.configurations import verify_configuration
from structhunt.pipeline import (HuntOutcome, build_spot_matching,
                                 hunt_configuration, majority_dispatch,
                                 obtain_config_huge)
from structhunt.spots import DenseCover


class TestHuntDispatch:
    def test_unmet_hypotheses(self):
        b, split = unmet_instance()
        out = hunt_configuration(b, split)
        assert out.status == "hypotheses-unmet"
        assert out.exit_code == 2

    def test_d1_found(self):
        b, split = d1_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D1"
        # witness honesty: independent re-verification
        rep = verify_configuration(out.witness, b, None,
                                   __import__("structhunt.configurations",
                                              fromlist=["ConfigParams"]).ConfigParams())
        assert rep.ok

    def test_exp_found_D6(self):
        b, split = exp_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D6"
        assert out.witness.data["precfg"] == "exp"

    def test_wa_t1_found(self):
        b, split = wa_t1_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D6"
        assert out.witness.data["precfg"] == "reg"

    def test_k2_found(self):
        b, split = k2_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D6"

    def test_determinism(self):
        for builder in (d1_instance, exp_instance, wa_t1_instance, k2_instance):
            b, split = builder()
            out1 = hunt_configuration(b, split, seed=5)
            out2 = hunt_configuration(b, split, seed=5)
            assert out1.dump() == out2.dump()

    def test_random_instances_deterministic_and_honest(self):
        for seed in range(12):
            b, split = random_instance(seed)
            out1 = hunt_configuration(b, split, seed=seed)
            out2 = hunt_configuration(b, split, seed=seed)
            assert out1.dump() == out2.dump()
            if out1.status == "found":
                assert out1.verification is not None and out1.verification.ok

    def test_trace_records_entry_margins(self):
        b, split = unmet_instance()
        out = hunt_configuration(b, split)
        items = {ci.item for ci in out.trace.items}
        assert any("(K1)" in it for it in items)
        assert any("(K2)" in it for it in items)


class TestHugeCase:
    def test_case_a_emits_D1(self):
        b, split = d1_instance()
        out = obtain_config_huge(b)
        assert out.status == "found"
        assert out.witness.tag == "D1"
        assert "N_up" in out.sets

    def test_hypothesis_flag_on_small_Nup(self):
        # shrink the instance so |H| > |N_up| while Case A still fires
        from pipeline_instances import assemble, manual_split, bip

        H = list(range(6))
        rest = [6, 7]
        b = assemble(9, bip(H, rest), {"G_exp": [], "G_reg": []},
                     H=frozenset(H), k=1, eta=F2 if False else Fraction(1, 2),
                     rho=Fraction(1, 1000))
        out = obtain_config_huge(b)
        flag = [ci for ci in out.trace.items if ci.item == "|H| <= |N_up|"]
        assert flag and flag[0].passed is False


class TestMajorityDispatch:
    def test_t1_selected_on_exp_shadow_mass(self):
        b, split = wa_t1_instance()
        from structhunt.spots import clean_spots

        D_nabla, _ = clean_spots(b.g, list(b.sd.bd.spots), b.E,
                                 b.sd.bd.clusters, b.p.gamma, b.p.k, b.p.rho)
        A = frozenset(range(6))
        B = frozenset(range(6, 12))
        t, Z1, Z2, rep = majority_dispatch(b, D_nabla, A, B, "wA")
        assert t == 1
        assert Z1 and Z2

    def test_empty_masses_tie_break_to_t1(self):
        b, split = unmet_instance()
        t, Z1, Z2, rep = majority_dispatch(b, DenseCover([]), frozenset({0}),
                                           frozenset({1}), "wB")
        assert t == 1

    def test_wa_reports_t4_exclusion(self):
        b, split = wa_t1_instance()
        t, Z1, Z2, rep = majority_dispatch(b, DenseCover([]), frozenset({0}),
                                           frozenset({1}), "wA")
        assert any("t4" in ci.item for ci in rep.items)


class TestBuildSpotMatching:
    def test_single_spot_pair(self):
        b, split = wa_t1_instance()
        from structhunt.spots import clean_spots

        D_nabla, _ = clean_spots(b.g, list(b.sd.bd.spots), b.E,
                                 b.sd.bd.clusters, b.p.gamma, b.p.k, b.p.rho)
        N, rep = build_spot_matching(b, D_nabla, frozenset(range(6)),
                                     frozenset(range(6, 12)))
        assert len(N) == 1
        assert rep["|V(N)| >= rho n / Omega*"].passed

    def test_no_cross_edges_empty_contract_fails(self):
        b, split = wa_t1_instance()
        N, rep = build_spot_matching(b, DenseCover([]), frozenset({0}),
                                     frozenset({1}))
        assert len(N) == 0
        assert not rep["|V(N)| >= rho n / Omega*"].passed


F2 = Fraction(1, 2)


class TestT5Endgame:
    def test_t5_reaches_D10(self):
        from pipeline_instances import t5_instance

        b, split = t5_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D10"

    def test_t5_deterministic(self):
        from pipeline_instances import t5_instance

        b, split = t5_instance()
        assert hunt_configuration(b, split).dump() == \
            hunt_configuration(b, split).dump()

    def test_k2_route_reaches_D10(self):
        # the M1 branch of _t5_case: A and B come from the M_good pair
        from pipeline_instances import k2_t5_instance

        b, split = k2_t5_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert any(ci.item == "matching case" and ci.measured == "M1 cA t5"
                   for ci in out.trace.items)
        assert (out.witness.data["A"], out.witness.data["B"]) == b.M_good.pairs[0]

    def test_all_pairs_shadowed_out_of_regime(self):
        # when every matching pair is quarter-covered by the small-cluster
        # shadow, the pair search fails and the hunt reports, no witness
        from pipeline_instances import t5_instance
        from structhunt.pipeline import _t5_case
        from structhunt.regularity import RegularizedMatching
        from structhunt.spots import DenseCover

        b, split = t5_instance()
        # make both clusters sub-threshold by emptying their stripped parts:
        # with the matching vertices removed they already strip to nothing,
        # so force M_S = M by a fabricated matching inside the shadow source
        M = RegularizedMatching([], Fraction(1, 4), Fraction(1), 1, "G_D")
        out = HuntOutcome("out-of-regime")
        res = _t5_case(b, split, M, "M2", DenseCover(list(b.sd.bd.spots)), out)
        assert res.status == "out-of-regime"
        assert any(ci.item == "M - M_S non-empty" and ci.passed is False
                   for ci in res.trace.items)


class TestHugeCaseB:
    def test_envelope_route_reaches_D2(self):
        from pipeline_instances import huge_b_instance

        b, split = huge_b_instance()
        out = hunt_configuration(b, split)
        assert out.status == "found", out.dump()
        assert out.witness.tag == "D2"
        assert out.config_params is not None

    def test_witness_file_roundtrip_with_root_params(self, tmp_path):
        from pipeline_instances import huge_b_instance
        from structhunt.fileio import dump_witness, parse_witness
        from structhunt.exactmath import RootVal

        b, split = huge_b_instance()
        out = hunt_configuration(b, split)
        text = dump_witness(out.witness, out.config_params)
        w2 = parse_witness(text)
        assert w2.tag == "D2"
        assert w2.params.omega_tilde == out.config_params.omega_tilde
        rep = verify_configuration(w2, b, None, w2.params)
        assert rep.ok, rep.render()


class TestMatchingSubcaseHonesty:
    def test_cb_t35_with_empty_F_complement(self):
        # every restricted-matching vertex inside union F': X2 empty, the D9
        # membership/degree clauses fail, reported, no witness
        from pipeline_instances import k2_instance
        from structhunt.pipeline import obtain_config_matching
        from structhunt.spots import DenseCover

        b, split = k2_instance()
        M = b.M_good
        # F' = F_cover + E-contained members; force it to swallow everything
        b.F_cover = tuple(b.MAB().members())
        out = obtain_config_matching(b, split, M, "cB", 4, "M1",
                                     DenseCover(list(b.sd.bd.spots)))
        assert out.status == "out-of-regime"
        assert out.witness is not None and out.witness.tag == "D9"
        assert out.verification is not None and not out.verification.ok

    def test_exp_fragment_reports_hypothesis_miss(self):
        from pipeline_instances import exp_instance
        from structhunt.pipeline import obtain_config_exp

        b, split = exp_instance()
        # two sets with no expander mass between them
        out = obtain_config_exp(b, split, frozenset({20, 21}), frozenset({22, 23}))
        item = out.trace["e_exp(YA1,YA2) >= 2 rho k n"]
        assert item.passed is False


class TestBuildSpotMatchingDisjoint:
    def test_two_disjoint_spots_two_pairs(self):
        from pipeline_instances import assemble, bip
        from structhunt.pipeline import build_spot_matching
        from structhunt.spots import DenseCover, DenseSpot

        e1 = bip([0, 1, 2], [3, 4, 5])
        e2 = bip([6, 7, 8], [9, 10, 11])
        spots = [DenseSpot(range(0, 3), range(3, 6), e1, 1, Fraction(1, 4)),
                 DenseSpot(range(6, 9), range(9, 12), e2, 1, Fraction(1, 4))]
        b, _ = __import__("pipeline_instances").wa_t1_instance()
        b2 = assemble(12, e1 + e2, {"G_exp": [], "G_reg": [], "G_D": e1 + e2},
                      spots=spots, k=2, rho=Fraction(1, 100),
                      alpha_hat=Fraction(1, 100), omega_star=Fraction(10))
        N, rep = build_spot_matching(b2, DenseCover(spots),
                                     frozenset({0, 1, 2, 6, 7, 8}),
                                     frozenset({3, 4, 5, 9, 10, 11}))
        assert len(N) == 2
        seen = set()
        for a, bb in N.pairs:
            assert not ((a | bb) & seen)
            seen |= a | bb


class TestIntermediateSetOracles:
    """Spec invariant: intermediate sets equal independently coded formula
    evaluations (second implementations with raw loops)."""

    def test_nup_ndown_oracle(self):
        from pipeline_instances import d1_instance, huge_b_instance

        for builder in (d1_instance, huge_b_instance):
            b, split = builder()
            out = hunt_configuration(b, split)
            g = b.g
            adj = g.adj("G_nabla")
            nup = frozenset(v for v in range(g.n)
                            if len(adj[v] & b.H) >= b.p.k)
            ndown = frozenset(u for h in b.H for u in adj[h]) - nup
            assert out.sets["N_up"] == nup
            assert out.sets["N_down"] == ndown

    def test_ytype_sets_oracle(self):
        from pipeline_instances import wa_t1_instance
        from structhunt.spots import clean_spots

        b, split = wa_t1_instance()
        D_nabla, _ = clean_spots(b.g, list(b.sd.bd.spots), b.E,
                                 b.sd.bd.clusters, b.p.gamma, b.p.k, b.p.rho)
        YA1, YA2 = frozenset(range(6)), frozenset(range(6, 12))
        _, _, _, rep = majority_dispatch(b, D_nabla, YA1, YA2, "wA")
        g = b.g
        adj = g.adj("G")
        exp_support = frozenset(v for e in g.edges("G_exp") for v in e)
        for i, YA in ((1, YA1), (2, YA2)):
            y1 = frozenset(v for v in YA
                           if len(adj[v] & exp_support) > b.p.rho * b.p.k)
            y2 = (b.V_to_E & YA) - y1
            y3 = (b.R & YA) - (y1 | y2)
            y4 = (b.E & YA) - (y1 | y2 | y3)
            y5 = YA - (y1 | y2 | y3 | y4)
            assert rep.ytype_sets[i] == {1: y1, 2: y2, 3: y3, 4: y4, 5: y5}

    def test_cminus_and_lcirc_oracle(self):
        from pipeline_instances import t5_instance
        from structhunt.exactmath import sqrt_val

        b, split = t5_instance()
        out = hunt_configuration(b, split)
        vmab = b.MAB().vertices()
        stripped = [C - (b.L_sharp | vmab | b.V_not_to_H | b.J1)
                    for C in b.sd.bd.clusters]
        c_size = b.sd.bd.cluster_size()
        cm = frozenset().union(*[S for S in stripped
                                 if sqrt_val(b.p.eps_prime) * c_size > len(S)]) \
            if stripped else frozenset()
        assert out.sets["C_minus_union"] == cm
        # L_circ draws from ensemble members outside the matching; in this
        # instance both clusters strip to nothing, so it must be empty
        non_member_sets = [S for S in stripped
                           if S and not (sqrt_val(b.p.eps_prime) * c_size > len(S))]
        assert non_member_sets == []
        assert out.sets["L_circ_union"] == frozenset()


class TestCBRoute:
    def test_cb_t5_reaches_D9(self):
        from pipeline_instances import cb_t5_instance

        b, split = cb_t5_instance()
        out = hunt_configuration(b, split)
        assert out.witness is not None and out.witness.tag == "D9", out.dump()
        assert out.status == "found", out.dump()

    def test_cb_deterministic(self):
        from pipeline_instances import cb_t5_instance

        b, split = cb_t5_instance()
        assert hunt_configuration(b, split).dump() == \
            hunt_configuration(b, split).dump()


class TestFullConfigurationCoverage:
    """Every configuration reachable end-to-end with a verified witness."""

    @pytest.mark.parametrize("builder,tag", [
        ("huge_i2_instance", "D3"),
        ("huge_i3_instance", "D4"),
        ("huge_i4_instance", "D5"),
        ("wa_t2_instance", "D7"),
        ("wa_t3_instance", "D8"),
    ])
    def test_route(self, builder, tag):
        import pipeline_instances

        b, split = getattr(pipeline_instances, builder)()
        out = hunt_configuration(b, split)
        assert out.witness is not None and out.witness.tag == tag, out.dump()
        assert out.status == "found", out.dump()


class TestOneEdgeForm:
    def test_hunt_path_builds_no_tuple_sets_or_adjacency(self, monkeypatch):
        """Over every builder's hunt, outcome dump, witness dump, witness
        parse and verification of the parsed witness, no code turns edge
        codes into (u, v) tuple sets, builds a layer's neighbour frozensets
        or builds a spot's tuple set F; the witness edges of D1 and D10
        stay codes from the layer to the file and back."""
        import sys

        from make_golden import _hunts
        from structhunt import graphcore
        from structhunt.fileio import dump_witness, parse_witness
        from structhunt.spots import DenseSpot

        built = []
        real_tuples = graphcore._edge_tuples
        real_adj = graphcore._Layer.adj
        real_F = DenseSpot.F.fget

        def counting_tuples(codes, n):
            built.append("tuples")
            return real_tuples(codes, n)

        def counting_adj(layer):
            built.append("adj")
            return real_adj(layer)

        def counting_F(spot):
            if spot._F is None:
                built.append("F")
            return real_F(spot)

        for name, mod in list(sys.modules.items()):
            if name.startswith("structhunt") and \
                    getattr(mod, "_edge_tuples", None) is real_tuples:
                monkeypatch.setattr(mod, "_edge_tuples", counting_tuples)
        monkeypatch.setattr(graphcore._Layer, "adj", counting_adj)
        monkeypatch.setattr(DenseSpot, "F", property(counting_F))
        tags = []
        for name, b, split, seed in _hunts():
            out = hunt_configuration(b, split, seed=seed)
            out.dump()
            if out.witness is not None:
                w = parse_witness(dump_witness(out.witness, out.config_params), b.g.n)
                rep = verify_configuration(w, b, split, w.params)
                assert rep.render() == out.verification.render(), name
                tags.append(out.witness.tag)
            assert built == [], name
        assert {"D1", "D10"} <= set(tags)

    def test_hunt_path_builds_no_sorted_arc_form(self, monkeypatch):
        """Over every builder's hunt, outcome dump, witness dump, witness
        parse and verification of the parsed witness, no layer builds its
        arcs sorted by (source, target): every reader on that path takes
        the edges in both orientations from the layer's ends."""
        from make_golden import _hunts
        from structhunt import graphcore
        from structhunt.fileio import dump_witness, parse_witness

        built = []
        real = graphcore._sorted_arcs
        monkeypatch.setattr(graphcore, "_sorted_arcs", lambda d: built.append(d) or real(d))
        for name, b, split, seed in _hunts():
            out = hunt_configuration(b, split, seed=seed)
            out.dump()
            if out.witness is not None:
                w = parse_witness(dump_witness(out.witness, out.config_params), b.g.n)
                verify_configuration(w, b, split, w.params)
            assert built == [], name
