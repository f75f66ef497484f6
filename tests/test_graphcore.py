import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_graphcore import (LoopGraph, digit_records_fromstring, edge_built_adj,
                              load_graph_lines, scalar_added_layer, scalar_layer,
                              scan_edges_between)
from structhunt import graphcore
from structhunt.graphcore import (GraphFormatError, LayeredGraph, _digit_records,
                                  _edge_block, _load_bulk, _load_lines, dump_graph,
                                  load_graph, parse_vertex_set)
from structhunt.shadows import shadow
from util import (brute_force_density, brute_force_e_ordered, complete_bipartite,
                  complete_graph, cycle_graph, graph_from_edges, path_graph,
                  random_graph)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    return random_graph(n, p, seed)


LAYER_NAMES = ["G", "G_D", "G_nabla", "G_exp", "x+y", "#h"]
MUTATIONS = [None, "self-loop", "duplicate", "reversed duplicate",
             "out of range", "non-integer", "no n line", "layer twice",
             "edge before layer", "extra fields", "negative id", "bad count",
             "long id", "split edge line"]
STYLES = [None, "comments", "blank lines", "tabs", "crlf", "plus sign",
          "leading zeros", "no final newline", "padding"]


@st.composite
def layered_texts(draw):
    """(text, canonical): a layered edge list, maybe restyled or broken;
    canonical when it is valid and written the way dump_graph writes."""
    n = draw(st.integers(0, 9))
    names = draw(st.lists(st.sampled_from(LAYER_NAMES), unique=True, max_size=4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines = [["n", str(n)]]
    for name in names:
        lines.append(["layer", name])
        if pairs:
            for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)):
                lines.append([str(u), str(v)] if draw(st.booleans()) else [str(v), str(u)])
    edge_lines = [ln for ln in lines[1:] if ln[0] != "layer"]
    at = draw(st.integers(min(2, len(lines)), len(lines)))  # after a header
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "self-loop":
        lines.insert(at, ["1", "1"])
    elif mutation in ("duplicate", "reversed duplicate") and edge_lines:
        dup = draw(st.sampled_from(edge_lines))
        lines.append(dup[::-1] if mutation == "reversed duplicate" else list(dup))
    elif mutation == "out of range":
        lines.insert(at, ["0", str(n + draw(st.integers(0, 2)))])
    elif mutation == "non-integer":
        lines.insert(at, [draw(st.sampled_from(["x", "1.5", "1e2", "0x1"])), "0"])
    elif mutation == "no n line":
        lines.pop(0)
    elif mutation == "layer twice":
        lines.insert(at, ["layer", draw(st.sampled_from(names or ["G"]))])
    elif mutation == "edge before layer":
        lines.insert(1, ["0", "1"])
    elif mutation == "extra fields":
        lines.insert(at, draw(st.sampled_from([["0", "1", "2"], ["0", "1", "0", "2"]])))
    elif mutation == "negative id":
        lines.insert(at, ["-1", "0"])
    elif mutation == "bad count":
        lines[0] = draw(st.sampled_from([["n", "-3"], ["n", "x"], ["n"], ["m", "3"]]))
    elif mutation == "long id":
        lines.insert(at, [draw(st.sampled_from(["0" * 19 + "1", str(2**64 + 1),
                                                 str(2**63 + 1)])), "0"])
    elif mutation == "split edge line":
        lines[at:at] = draw(st.sampled_from([[["0 "], [" 1"]], [["0"], ["1"]]]))
    else:
        mutation = None
    style = draw(st.sampled_from(STYLES)) if draw(st.booleans()) else None
    sep, end, final = " ", "\n", "\n"
    if style in ("comments", "blank lines"):
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))),
                         ["# note"] if style == "comments" else [])
    elif style == "tabs":
        sep = "\t"
    elif style == "crlf":
        end = final = "\r\n"
    elif style in ("plus sign", "leading zeros"):
        prefix = "+" if style == "plus sign" else "0"
        lines = [[prefix + t if t.isdigit() else t for t in ln] for ln in lines]
    elif style == "no final newline":
        final = ""
    elif style == "padding":
        sep = "  "
        lines = [[" "] + ln for ln in lines]
    text = end.join(sep.join(ln) for ln in lines) + final
    canonical = mutation is None and style in (None, "leading zeros")
    return text, canonical


def _load_outcome(loader, text):
    try:
        g = loader(text)
    except GraphFormatError as exc:
        return "error", str(exc), exc.lineno
    return "graph", g.n, g.layers


class TestLoadGraph:
    def test_triangle_minus_edge(self):
        g = load_graph("n 3\nlayer G\n0 1\n1 2\n")
        assert g.n == 3
        assert len(g.edges("G")) == 2

    def test_empty_edge_section(self):
        g = load_graph("n 5\nlayer G\n")
        assert g.n == 5
        assert g.edges("G") == frozenset()

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph("n 3\nlayer G\n0 0\n")
        assert ei.value.lineno == 3

    def test_duplicate_edge_rejected_both_orientations(self):
        with pytest.raises(GraphFormatError):
            load_graph("n 3\nlayer G\n0 1\n1 0\n")

    def test_out_of_range_id(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph("n 3\nlayer G\n0 7\n")
        assert "range" in str(ei.value)

    def test_comments_and_blanks_ignored(self):
        g = load_graph("# hi\nn 4\n\nlayer G\n# edge next\n0 1\n")
        assert len(g.edges("G")) == 1

    def test_multiple_layers_independent(self):
        g = load_graph("n 4\nlayer G\n0 1\nlayer G_D\n2 3\n")
        # no containment enforced between layers
        assert g.edges("G_D") == frozenset({(2, 3)})

    def test_roundtrip(self):
        g = random_graph(12, 0.4, seed=5).with_layer("G_exp", [(0, 1), (2, 3)])
        g2 = load_graph(dump_graph(g))
        assert g2.layers == g.layers

    @given(layered_texts())
    @settings(max_examples=300, deadline=None)
    def test_bulk_matches_line_scan(self, case):
        text, canonical = case
        assert _load_outcome(load_graph, text) == _load_outcome(load_graph_lines, text)
        if canonical:
            assert _load_bulk(text) is not None

    @pytest.mark.parametrize("body", [
        "0 1 0 2\n", "0\n1\n", "0 \n 1\n", "0 1\n\n", " 0 1\n", "0 1", "0  1\n",
        "0 99999999999999999999\n", "0\t1\n", "0 1\r\n", "0 1\nlayer G\n",
        "1 0\n0 1\n", "2 2\n", "0 3\n", "+0 1\n"])
    def test_bulk_leaves_odd_blocks_to_line_scan(self, body):
        text = "n 3\nlayer G\n" + body
        assert _load_bulk(text) is None
        assert _load_outcome(load_graph, text) == _load_outcome(load_graph_lines, text)

    @pytest.mark.parametrize("text", [
        "n 4\nlayer G\n3 0\n2 1\n1 3\n",
        "n 4\nlayer G\n0 1\nlayer G_D\n3 2\n1 0\n",
        "n 4\nlayer G\n0 1\n2 2\n", "n 4\nlayer G\n3 3\n0 1\n",
        "n 4\nlayer G\n0 4\n", "n 4\nlayer G\n4 0\n", "n 4\nlayer G\n4 4\n",
        "n 4\nlayer G\n3 0\n0 3\n", "n 4\nlayer G\n0 3\n3 0\n",
        "n 4\nlayer G\n1 2\n1 2\n", "n 4\nlayer G\n2 1\n2 1\n",
        "n 4\nlayer G\n1 0\nlayer G_D\n0 1\n",
        "n 4\nlayer G\n", "n 0\n", "n 0\nlayer G\n", "n 0\nlayer G\n0 0\n",
        "n 4\nlayer G\nlayer G_D\n0 1\n", "n 4\nlayer G\n1 2\nlayer G_D\n",
        "n 4\nlayer G\nlayer G_D\nlayer G_exp\n",
        "n 60\nlayer G\n" + "".join("%d %d\n" % ((u, v) if (u + v) % 2 else (v, u))
                                       for u in range(60) for v in range(u + 1, 60, 7)),
    ])
    def test_bulk_codes_match_line_scan(self, text):
        bulk = _load_bulk(text)
        try:
            n, layers = _load_lines(text)
        except GraphFormatError as exc:
            assert bulk is None
            with pytest.raises(GraphFormatError) as ei:
                load_graph(text)
            assert (str(ei.value), ei.value.lineno) == (str(exc), exc.lineno)
            return
        assert bulk is not None and bulk[0] == n and bulk[1].keys() == layers.keys()
        for name, codes in layers.items():
            assert np.array_equal(bulk[1][name], codes), name

    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_dumped_graphs_load_in_bulk(self, g, seed):
        rng = random.Random(seed)
        es = sorted(g.edges("G"))
        g = g.with_layer("G_D", [e for e in es if rng.random() < 0.5])
        text = dump_graph(g)
        assert _load_bulk(text) is not None
        assert load_graph(text).layers == load_graph_lines(text).layers == g.layers


class TestLayerSpec:
    def test_parse_union_minus(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)], G_D=[(1, 2), (2, 3)])
        assert g.edges("G+G_D") == frozenset({(0, 1), (1, 2), (2, 3)})
        assert g.edges("G-G_D") == frozenset({(0, 1)})

    def test_left_to_right_spaces_ignored(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)], G_D=[(1, 2), (2, 3)])
        assert g.edges(" G + G_D - G_D ") == frozenset({(0, 1)})
        assert g.edges("G - G_D + G_D") == frozenset({(0, 1), (1, 2), (2, 3)})
        assert g.deg("G - G_D + G_D", 2) == 2

    def test_unknown_layer(self):
        g = complete_graph(3)
        with pytest.raises(KeyError):
            g.edges("G_reg")

    @pytest.mark.parametrize("spec, exc", [
        ("", ValueError), ("G+", KeyError), ("+G", KeyError),
        ("G++G_D", KeyError), ("G_nope", KeyError), (None, TypeError),
        (3, TypeError), (["G"], TypeError)])
    def test_malformed_spec_named_error(self, spec, exc):
        g = graph_from_edges(3, [(0, 1)], G_D=[(1, 2)])
        for query in (lambda: g.edges(spec), lambda: g.adj(spec),
                      lambda: g.deg(spec, 0), lambda: g.e_ordered(spec, {0}, {1})):
            with pytest.raises(Exception) as ei:
                query()
            assert type(ei.value) is exc, (spec, ei.value)

    def test_composite_spec_cached(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)], G_D=[(1, 2), (2, 3)])
        assert g.edges("G") is g.layers["G"]
        assert g.edges("G+G_D") is g.edges("G+G_D")
        assert g.adj("G-G_D") is g.adj("G-G_D")
        assert g.adj("G-G_D")[1] == frozenset({0})


class TestAdjacency:
    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_composite_adj_matches_edge_built(self, g, seed):
        rng = random.Random(seed)
        es = sorted(g.edges("G"))
        extra = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        for name in ("G_nabla", "G_D", "G_exp"):
            g = g.with_layer(name, [e for e in es + extra if rng.random() < 0.3])
        for spec in ("G-G_nabla", "G_D+G_nabla", "G_nabla+G_D-G_exp", "G + G_D"):
            assert g.adj(spec) == edge_built_adj(g.n, g.edges(spec))

    def test_with_layer_shares_adjacency(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)], G_D=[(2, 3)], G_exp=[(0, 3)])
        adj_G, adj_D, both = g.adj("G"), g.adj("G_D"), g.adj("G+G_D")
        g2 = g.with_layer("G_D", [(0, 2)])
        assert g2.adj("G") is adj_G
        assert g2.adj("G_D") is not adj_D
        assert g2.adj("G_D") == edge_built_adj(4, [(0, 2)])
        assert g2.adj("G+G_D") is not both
        assert g2.adj("G+G_D") == edge_built_adj(4, [(0, 1), (1, 2), (0, 2)])
        g3 = g2.with_layer("G_nabla", [(1, 3)])
        assert g3.adj("G") is adj_G and g3.adj("G_D") is g2.adj("G_D")
        assert g3.adj("G_exp") == edge_built_adj(4, [(0, 3)])
        assert g.adj("G_D") is adj_D  # the parent keeps its own


class TestConstruction:
    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 2), (2, -1), (1, 1)])
    def test_bad_edge_rejected(self, edge):
        with pytest.raises(ValueError):
            LayeredGraph(3, {"G": [(0, 1), edge]})
        with pytest.raises(ValueError):
            LayeredGraph(3, {"G": [(0, 1)], "G_D": [edge]})
        with pytest.raises(ValueError):
            complete_graph(3).with_layer("G_D", [(0, 1), edge])

    def test_with_layer_shares_parent_layers(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)], G_D=[(2, 3)])
        g2 = g.with_layer("G_exp", [(1, 0), (0, 1), (2, 3)])
        assert g2.edges("G_exp") == frozenset({(0, 1), (2, 3)})
        assert g2.layers["G"] is g.layers["G"]
        assert g2.layers["G_D"] is g.layers["G_D"]
        assert not g.has_layer("G_exp")
        g3 = g2.with_layer("G", [(2, 3)])
        assert g3.edges("G") == frozenset({(2, 3)})
        assert g3.layers["G_exp"] is g2.layers["G_exp"]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            LayeredGraph(3, {"G": [(0, 1), (1, 0)]})

    def test_loaded_graph_matches_constructed(self):
        g = load_graph("n 4\nlayer G_D\n2 3\nlayer G\n1 0\n2 1\n")
        assert g.layers == graph_from_edges(4, [(0, 1), (1, 2)],
                                            G_D=[(2, 3)]).layers
        assert g.adj("G+G_D")[2] == frozenset({1, 3})


class TestDeg:
    def test_star_center(self):
        g = complete_bipartite([0], [1, 2, 3])
        assert g.deg("G", 0, frozenset({1, 2, 3})) == 3

    def test_empty_target(self):
        g = complete_graph(4)
        assert g.deg("G", 1, frozenset()) == 0

    def test_c4_restricted(self):
        g = cycle_graph(4)  # 0-1-2-3-0
        # oracle: neighbours of 0 are {1, 3}; inside {1, 2} that is just 1
        assert g.deg("G", 0, frozenset({1, 2})) == 1

    def test_out_of_range_vertex(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.deg("G", 5, frozenset())


class TestPairCounts:
    def test_k4_double_counting(self):
        g = complete_graph(4)
        V = g.vertices()
        e_ind, e_ord = g.pair_counts("G", V, V)
        assert (e_ind, e_ord) == (6, 12)

    def test_k22_sides(self):
        g = complete_bipartite([0, 1], [2, 3])
        e_ind, e_ord = g.pair_counts("G", frozenset({0, 1}), frozenset({2, 3}))
        assert (e_ind, e_ord) == (0, 4)

    def test_p3_overlapping_sides(self):
        g = path_graph(3)  # 0-1-2
        X, Y = frozenset({0, 1}), frozenset({1, 2})
        # frozen from the brute-force ordered-pair oracle
        assert brute_force_e_ordered(g.edges("G"), X, Y) == 2
        assert g.pair_counts("G", X, Y) == (1, 2)


class TestDensity:
    def test_complete_bipartite(self):
        g = complete_bipartite([0, 1, 2], [3, 4, 5])
        assert g.density("G", frozenset({0, 1, 2}), frozenset({3, 4, 5})) == 1

    def test_empty_pair_density_zero(self):
        g = graph_from_edges(6, [])
        assert g.density("G", frozenset({0, 1}), frozenset({2, 3})) == 0

    def test_c6_alternate_sides(self):
        g = cycle_graph(6)
        U, W = frozenset({0, 2, 4}), frozenset({1, 3, 5})
        # oracle: all 6 cycle edges cross the split
        assert brute_force_density(g.edges("G"), U, W) == Fraction(2, 3)
        assert g.density("G", U, W) == Fraction(2, 3)

    def test_empty_side_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            g.density("G", frozenset(), frozenset({1}))

    def test_overlap_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            g.density("G", frozenset({0, 1}), frozenset({1, 2}))


def scan_e_ordered(edges, X, Y):
    """Reference: e(X, Y) by one pass over every edge of the layer."""
    return sum((u in X and v in Y) + (v in X and u in Y) for u, v in edges)


class TestInvariants:
    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_pair_counts_match_edge_scan(self, g, seed):
        rng = random.Random(seed)
        g = g.with_layer("G_exp", [e for e in sorted(g.edges("G"))
                                   if rng.random() < 0.5])
        X = frozenset(v for v in range(g.n) if rng.random() < rng.random())
        Y = frozenset(v for v in range(g.n) if rng.random() < rng.random())
        for spec in ("G", "G-G_exp", "G_exp+G", "G - G_exp + G_exp"):
            edges = g.edges(spec)
            for A, B in ((X, Y), (Y, X), (X, X), (X, X & Y), (X, frozenset()),
                         (frozenset(), Y)):
                assert g.e_ordered(spec, A, B) == scan_e_ordered(edges, A, B)
                assert g.e_induced(spec, A) == scan_e_ordered(edges, A, A) // 2
                assert g.edges_between(spec, A, B) == scan_edges_between(edges, A, B)
            assert g.e_ordered(spec, list(X), iter(Y)) == scan_e_ordered(edges, X, Y)

    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_double_counting(self, g, seed):
        rng = random.Random(seed)
        X = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        e_ind, e_ord = g.pair_counts("G", X, X)
        assert e_ord == 2 * e_ind

    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_deg_bounds(self, g, seed):
        rng = random.Random(seed)
        U = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        v = rng.randrange(g.n)
        assert g.deg("G", v, U) <= min(g.deg("G", v), len(U))

    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_density_symmetric(self, g, seed):
        rng = random.Random(seed)
        verts = list(range(g.n))
        rng.shuffle(verts)
        cut = rng.randint(1, max(1, g.n - 1)) if g.n >= 2 else 0
        U, W = frozenset(verts[:cut]), frozenset(verts[cut:])
        if not U or not W:
            return
        assert g.density("G", U, W) == g.density("G", W, U)

    def test_double_counting_random_suite_n200(self):
        for seed in range(10):
            g = random_graph(200, 0.05, seed)
            rng = random.Random(seed + 777)
            X = frozenset(v for v in range(g.n) if rng.random() < 0.4)
            e_ind, e_ord = g.pair_counts("G", X, X)
            assert e_ord == 2 * e_ind

    @given(small_graphs(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_edges_between(self, g, seed):
        rng = random.Random(seed)
        X = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        Y = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        # disjoint sides: one edge per ordered pair
        assert len(g.edges_between("G", X, Y - X)) == g.e_ordered("G", X, Y - X)
        # overlapping sides: edges inside X & Y are ordered pairs both ways
        between = g.edges_between("G", X, Y)
        assert g.e_ordered("G", X, Y) == len(between) + g.e_induced("G", X & Y)
        assert between == g.edges_between("G", Y, X)
        assert all((u in X and v in Y) or (v in X and u in Y) for u, v in between)
        # a layer expression
        g2 = g.with_layer("G_exp", [e for e in sorted(g.edges("G"))
                                    if rng.random() < 0.5])
        assert g2.edges_between("G-G_exp", X, Y) == between - g2.edges("G_exp")
        # an empty side
        assert g.edges_between("G", frozenset(), Y) == frozenset()
        assert g.edges_between("G", X, frozenset()) == frozenset()


SPECS = ["G", "G_D", "G_x", "G+G_D", "G-G_D", "G_D-G", "G+G", "G-G",
         "G_D+G_D", "G_D+G-G_D", " G_x + G_D - G "]


@st.composite
def loop_cases(draw):
    """(graph, LoopGraph, spec, X, Y, ell): the same layers built both ways,
    a spec over them and query arguments with ids in and out of range."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    names = ["G"] + draw(st.lists(st.sampled_from(["G_D", "G_x"]), unique=True))
    layers = {}
    for name in names:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        layers[name] = [e[::-1] if draw(st.booleans()) else e for e in chosen]
    build = draw(st.sampled_from(["constructor", "with_layer", "loaded"]))
    if build == "constructor":
        g = LayeredGraph(n, layers)
    else:
        g = LayeredGraph(n, {"G": layers["G"]})
        for name in names[1:]:
            g = g.with_layer(name, layers[name])
        if build == "loaded":
            g = load_graph(dump_graph(g))
    spec = draw(st.sampled_from([s for s in SPECS
                                 if set(re.findall(r"G\w*", s)) <= set(names)]))
    ids = st.integers(-3, n + 2)
    X, Y = draw(st.frozensets(ids, max_size=8)), draw(st.frozensets(ids, max_size=8))
    ell = Fraction(draw(st.integers(0, 3 * n + 1)), draw(st.integers(1, 3)))
    return g, LoopGraph(n, layers), spec, X, Y, ell


def _outcome(query, *args):
    try:
        return "value", query(*args)
    except Exception as exc:  # the class and message must match too
        return type(exc), str(exc)


class TestAgainstLoopForms:
    @given(loop_cases())
    @settings(max_examples=300, deadline=None)
    def test_queries_match_loop_forms(self, case):
        g, ref, spec, X, Y, ell = case
        assert g.edges(spec) == ref.edges(spec)
        assert g.adj(spec) == ref.adj(spec)
        for v in sorted(X | {0, g.n}):
            for U in (None, Y):
                assert _outcome(g.deg, spec, v, U) == _outcome(ref.deg, spec, v, U)
        for A in (X, Y, X & Y, X | Y, frozenset()):
            for B in (None, X, Y, frozenset()):
                assert _outcome(g.mindeg, spec, A, B) == _outcome(ref.mindeg, spec, A, B)
                assert _outcome(g.maxdeg, spec, A, B) == _outcome(ref.maxdeg, spec, A, B)
        for A, B in ((X, Y), (Y, X), (X, X), (X, X & Y), (X, frozenset())):
            assert g.e_ordered(spec, A, B) == ref.e_ordered(spec, A, B)
            assert g.edges_between(spec, A, B) == ref.edges_between(spec, A, B)
        assert g.e_induced(spec, X) == ref.e_induced(spec, X)
        assert g.pair_counts(spec, X, Y) == (ref.e_induced(spec, X),
                                             ref.e_ordered(spec, X, Y))
        U, W = X - Y, Y - X
        if U and W:
            assert g.density(spec, U, W) == ref.density(spec, U, W)
        assert g.neighbourhood(spec, X) == ref.neighbourhood(spec, X)
        for exclude in (frozenset(), Y, X & Y):
            assert shadow(g, spec, X, ell, exclude) == ref.shadow(spec, X, ell, exclude)
        assert dump_graph(g) == ref.dump()

    LAYER_INPUTS = [
        [], [(2, 0)], ((0, 1), (1, 2)), {(1, 0), (0, 2)}, [[0, 1]], [(True, 2)],
        [(0, 1), (0, 3)], [(0, 1), (3, 0)], [(1, 0), (0, 1)], [(0, 1), (2, 2)],
        [(0, 1), (-1, 2)], [(0, 1), (1, 2), (2, 1), (0, 9)], [(0, 1, 2)], [(0,)],
        [(0, 1), "01"], [(0, 2**64)], [(0, 1), 5], [(2, 1), (1, 2), (1, 1)],
        [(1.0, 1)], [(0, 1), (3, 3), (0, 1)]]

    @pytest.mark.parametrize("edges", LAYER_INPUTS)
    def test_layer_checks_match_scalar_loops(self, edges):
        """The constructor and with_layer accept what the scalar loops
        accept, and raise their class and message otherwise, whether the
        layer comes as a collection or as a one-shot iterator."""
        for given_as in (list, iter):
            got = _outcome(lambda: LayeredGraph(
                3, {"G": [(0, 1)], "G_D": given_as(edges)}).edges("G_D"))
            assert got == _outcome(scalar_layer, 3, "G_D", edges)
            got = _outcome(lambda: complete_graph(3).with_layer(
                "G_D", given_as(edges)).edges("G_D"))
            assert got == _outcome(scalar_added_layer, 3, "G_D", edges)

    def test_non_integer_id_rejected(self):
        for build in (lambda es: LayeredGraph(3, {"G": es}),
                      lambda es: complete_graph(3).with_layer("G_D", es)):
            with pytest.raises(TypeError):
                build([(0, 1), (0.5, 2)])

    def test_codes_beyond_int64(self):
        """n * n above 2^63 keeps codes as Python integers; edges, specs,
        with_layer and dump_graph stay exact.  (Queries that build the
        directed form would allocate n counters, so none runs here.)"""
        n = 10**10
        text = "n %d\nlayer G\n0 %d\n%d %d\nlayer G_D\n5 7\n" % (n, n - 1, n - 2, n - 1)
        g = load_graph(text)
        assert g.edges("G") == {(0, n - 1), (n - 2, n - 1)}
        assert dump_graph(g) == text
        g2 = g.with_layer("G_x", [(n - 1, n - 2), (3, n - 5)])
        assert g2.edges("G+G_x-G_D") == {(0, n - 1), (n - 2, n - 1), (3, n - 5)}
        assert g2.edges("G-G_x") == {(0, n - 1)}
        assert LayeredGraph(n, {"G": [(n - 1, 0)]}).edges("G") == {(0, n - 1)}


class TestDirectedForm:
    @pytest.mark.parametrize("object_codes", [False, True])
    def test_matches_edge_built_adjacency(self, monkeypatch, object_codes):
        """The directed form's arrays on seeded graphs (n = 0 and 1 among
        them, some vertices isolated): the ends u < v in code order, both
        orientations sorted by (source, target) and the degrees, as the
        edge-built adjacency of oracle_graphcore gives them.  With the
        int64 bound lowered, the same graphs take object codes."""
        if object_codes:
            monkeypatch.setattr(graphcore, "_INT64_CODES", 1)
        for seed in range(60):
            rng = random.Random(seed)
            n = (0, 1, 2, 5, 17, 40)[seed % 6]
            spread = n - rng.randint(0, min(n, 4))  # the last vertices isolated
            edges = [(u, v) for u in range(spread) for v in range(u + 1, spread)
                     if rng.random() < 0.4]
            codes = LayeredGraph(n, {"G": edges})._codes()
            assert (codes.dtype == object) == (object_codes and n > 1)
            d = graphcore._Directed(codes, n)
            adj = edge_built_adj(n, edges)
            assert list(zip(d.u.tolist(), d.v.tolist())) == sorted(edges)
            assert d.rows.tolist() == [v for v in range(n) for _ in adj[v]]
            assert d.cols.tolist() == [u for v in range(n) for u in sorted(adj[v])]
            assert d.degrees.tolist() == d.degree_list == [len(a) for a in adj]
            assert d.rows.dtype == d.cols.dtype == d.degrees.dtype == np.int64


def _record_text(rng, seps, final):
    """A seeded record text: runs of 1, 9, 10 or 18 digits (leading zeros
    among them) or of random length, separated by seps, sometimes with one
    corruption that one of the readers may reject."""
    lengths = rng.choice([(1,), (9,), (10,), (18,), (1, 9), (1, 10, 18), (1, 2, 3)])
    runs = ["".join(rng.choice("0123456789") for _ in range(rng.choice(lengths)))
            for _ in range(len(seps) * rng.randint(0, 5))]
    text = "".join(r + seps[i % len(seps)] for i, r in enumerate(runs))
    if not final and text:
        text = text[:-1]
    if rng.random() < 0.4 and text:
        at = rng.randrange(len(text) + 1)
        bad = rng.choice(["", "+", "-", "_", " ", "\n", ",", "\u0661", "0" * 19, "7"])
        text = text[:at] + bad + text[at + (bad == ""):]
    return text


class TestDigitRecords:
    """_digit_records against the one-parse reader of oracle_graphcore."""

    @staticmethod
    def _agree(text, seps, final=True):
        got = _digit_records(text, seps, final)
        want = digit_records_fromstring(text, seps, final)
        if want is None:
            assert got is None, (text, seps, final)
        else:
            assert got is not None, (text, seps, final)
            assert got.dtype == np.int64 and np.array_equal(got, want), (text, seps)
        return got

    @pytest.mark.parametrize("seps", [" \n", "-,", ",", "\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_seeded_texts(self, seps, final):
        read = 0
        for seed in range(300):
            read += self._agree(_record_text(random.Random(seed), seps, final),
                                seps, final) is not None
        assert 100 < read < 300  # both readings and rejections are covered

    @pytest.mark.parametrize("text, seps, final, ids", [
        ("", " \n", True, []),
        ("", "-,", False, []),
        ("7\n", "\n", True, [7]),
        ("000000009 123456789\n", " \n", True, [9, 123456789]),
        ("1234567890-000000000000000001", "-,", False, [1234567890, 1]),
        ("999999999999999999,0,", ",", True, [999999999999999999, 0]),
        ("0 1\n10 100\n", " \n", True, [0, 1, 10, 100])])
    def test_runs_and_widths(self, text, seps, final, ids):
        assert self._agree(text, seps, final).ravel().tolist() == ids

    @pytest.mark.parametrize("text, seps, final", [
        ("0 1", " \n", True), ("0 1\n", " \n", False), ("0\n1\n", " \n", True),
        ("0  1\n", " \n", True), ("+0 1\n", " \n", True), ("1_0 2\n", " \n", True),
        ("0 \u0661\n", " \n", True), ("0 1\r\n", " \n", True), ("-1-2", "-,", False),
        ("1-2,", "-,", False), (",", ",", True), ("1" * 19 + "\n", "\n", True),
        ("1-" + "0" * 19, "-,", False), ("1 2\n3", " \n", True), ("\n", "\n", True)])
    def test_rejected_by_both(self, text, seps, final):
        assert self._agree(text, seps, final) is None


class TestEdgeBlock:
    def test_in_order_block_is_not_sorted_again(self, monkeypatch):
        monkeypatch.setattr(graphcore, "_has_repeats", None)  # a call would raise
        assert _edge_block("0 1\n0 2\n1 2\n", 3).tolist() == [1, 2, 5]

    def test_out_of_order_block_comes_back_sorted(self):
        assert _edge_block("1 2\n2 0\n0 1\n", 3).tolist() == [1, 2, 5]

    def test_out_of_order_repeat_is_named_by_the_line_scan(self):
        body = "1 2\n0 1\n2 1\n"
        assert _edge_block(body, 3) is None
        with pytest.raises(GraphFormatError) as ei:
            load_graph("n 3\nlayer G\n" + body)
        assert str(ei.value) == "line 5: duplicate edge 2 1 in layer G"


class TestParseVertexSet:
    def test_ascii_ids(self):
        assert parse_vertex_set(" 3, 0 1,2 ", 4) == frozenset({0, 1, 2, 3})
        assert parse_vertex_set("007", 8) == frozenset({7})

    @pytest.mark.parametrize("text, token", [
        ("1_0,+2, \u0661", "1_0"), ("+2", "+2"), ("\u0661", "\u0661"), ("0,1_0", "1_0"),
        ("--1", "--1"), ("1-", "1-"), ("x", "x")])
    def test_typos_are_bad_integers(self, text, token):
        with pytest.raises(ValueError) as ei:
            parse_vertex_set(text, 20)
        assert str(ei.value) == "bad integer %r" % token

    def test_negative_id_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"^vertex id -1 out of range$"):
            parse_vertex_set("0,-1", 4)
