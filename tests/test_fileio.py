"""Bulk parsing of instance and witness files against the line scans.

Each file kind is read in bulk when its text is in the canonical form the
dumpers write, and by a scan one line or entry at a time otherwise.  The
tests here feed both the same texts, canonical, restyled and broken, and
require the same result or the same error (class, text and line).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from structhunt.decomposition import Params
from structhunt.fileio import (InstanceFormatError, _bulk_decomposition,
                               _bulk_spot, _bulk_split, _canonical_edges,
                               _parse_edges, _scan_decomposition, _scan_edges,
                               _scan_spot, _scan_split, parse_decomposition,
                               parse_spot_line, parse_split)
from structhunt.graphcore import LayeredGraph, norm_edge

N = 12  # vertices of the graph the decomposition texts refer to
P = Params(k=4, gamma=Fraction(1, 3))
M, GAMMA = P.gamma * P.k, P.gamma

# odd spellings of an id: each is read by int(), or rejected by it, but
# none is canonical
ODD_IDS = ["+5", "1_0", "٣", "７", "0" * 19 + "1", "9" * 19, "9" * 25,
           " 5", "5 ", "-1", "x", "1.5", ""]


@st.composite
def ids(draw, bound=N + 3):
    """An id as text: mostly canonical (some beyond N, some with leading
    zeros), sometimes an odd spelling."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_IDS))
    v = draw(st.integers(0, bound))
    return ("0" if draw(st.integers(0, 19)) == 0 else "") + str(v)


@st.composite
def edge_lists(draw):
    """An "a-b,c-d" text: canonical entries, maybe with self-loops, repeats
    (either orientation), empty entries and malformed entries."""
    small = st.integers(0, 5)
    entries = ["%s-%s" % (draw(ids()), draw(ids()))
               for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["loop", "repeat", "reversed", "empty",
                                     "bad", "triple", "lone"]))
        at = draw(st.integers(0, len(entries)))
        if kind == "loop":
            entries.insert(at, "%d-%d" % ((draw(small),) * 2))
        elif kind in ("repeat", "reversed") and entries:
            e = draw(st.sampled_from(entries))
            entries.insert(at, "-".join(e.split("-")[::-1]) if kind == "reversed" else e)
        elif kind == "empty":
            entries.insert(at, "")
        elif kind == "bad":
            entries.insert(at, "%d-%s" % (draw(small), draw(st.sampled_from(ODD_IDS))))
        elif kind == "triple":
            entries.insert(at, "0-1-2")
        elif kind == "lone":
            entries.insert(at, str(draw(small)))
    return ",".join(entries)


@st.composite
def spot_lines(draw):
    def side():
        return ",".join(draw(ids()) for _ in range(draw(st.integers(0, 4))))
    fields = ["U=" + side(), "W=" + side(), "F=" + draw(edge_lists())]
    style = draw(st.sampled_from([None, None, "shuffled", "extra", "twice",
                                  "no W", "bare", "spaces"]))
    if style == "shuffled":
        fields = draw(st.permutations(fields))
    elif style == "extra":
        fields.append("X=1")
    elif style == "twice":
        fields.append("U=" + side())
    elif style == "no W":
        del fields[1]
    elif style == "bare":
        fields.append("F")
    sep = "  " if style == "spaces" else " "
    return "spot:" + sep + sep.join(fields)


def _outcome(parse, *args):
    """What parse(*args) returns, or the class, text and line of its error."""
    try:
        return "ok", parse(*args)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)


def _spot_key(s):
    return (s.sides(), s.F, s.m, s.gamma,
            sorted((v, s.degree(v)) for v in s.vertices()))


def _spot_outcome(parse, line):
    found = _outcome(parse, line, M, GAMMA)
    return ("ok", _spot_key(found[1])) if found[0] == "ok" else found


class TestSpotLines:
    @given(spot_lines())
    @settings(max_examples=300, deadline=None)
    def test_bulk_matches_line_scan(self, line):
        assert _spot_outcome(parse_spot_line, line) == _spot_outcome(_scan_spot, line)

    @pytest.mark.parametrize("line", [
        "spot: U=0,1 W=2,3 F=0-2,1-3",
        "spot: U= W= F=",
        "spot: U=0 W=1 F=0-1",
        "spot: W=1 U=0 F=0-1 U=0"])  # the last of a repeated field counts
    def test_canonical_lines_read_in_bulk(self, line):
        assert _bulk_spot(line, M, GAMMA) is not None

    @pytest.mark.parametrize("line", [
        "spot: U=+0 W=1 F=0-1", "spot: U=0 W=1 F=1_0-1", "spot: U=0 W=1 F=0-١",
        "spot: U=0 W=1 F=0-" + "1" * 19, "spot: U=0 W=1 F=0-1,,1-2",
        "spot: U=0 W=1 F=0-0", "spot: U=0 W=1 F=0-1,1-0", "spot: U=0 W=1 F=0-1,0-1",
        "spot: U=0 W=1 F=0-1 X=2", "spot: U=0,,1 W=2 F="])
    def test_odd_lines_left_to_line_scan(self, line):
        assert _bulk_spot(line, M, GAMMA) is None
        assert _spot_outcome(parse_spot_line, line) == _spot_outcome(_scan_spot, line)

    def test_ids_checked_against_n_in_bulk(self):
        assert _bulk_spot("spot: U=0 W=11 F=0-11", M, GAMMA, N) is not None
        for line in ("spot: U=12 W=1 F=0-1", "spot: U=0 W=1 F=0-12"):
            assert _bulk_spot(line, M, GAMMA, N) is None


@st.composite
def decomposition_texts(draw):
    """(text, canonical): sections and spot lines, maybe restyled or broken;
    canonical when written the way dump_decomposition writes."""
    lines = []
    for name in draw(st.lists(st.sampled_from(["H", "E", "cluster"]), max_size=5)):
        lines.append("section " + name)
        lines += [str(draw(st.integers(0, N - 1)))
                  for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     "spot: U=0,1 W=2,3 F=0-2,0-3,1-%d" % draw(st.integers(2, 3)))
    # the dumper writes each id under its section header, never after a spot
    canonical = all(not ln[0].isdigit() or prev.startswith("section")
                    or prev[:1].isdigit() for prev, ln in zip([""] + lines, lines))
    mutation = draw(st.sampled_from([None, None, "comment", "blank", "two ids",
                                     "odd id", "out of range", "section foo",
                                     "id first", "bad spot", "repeated spot edge",
                                     "spot out of range", "padding", "crlf",
                                     "no final newline", "tab"]))
    at = draw(st.integers(0, len(lines)))
    if mutation == "comment":
        lines.insert(at, "# note")
    elif mutation == "blank":
        lines.insert(at, "")
    elif mutation == "two ids":
        lines.insert(at, "1 2")
    elif mutation == "odd id":
        lines.insert(at, draw(st.sampled_from(ODD_IDS)))
    elif mutation == "out of range":
        lines.insert(at, str(N + draw(st.integers(0, 3))))
    elif mutation == "section foo":
        lines.insert(at, "section foo")
    elif mutation == "id first":
        lines.insert(0, "3")
    elif mutation == "bad spot":
        lines.insert(at, "spot: U=0 W=1 F=0-1,2-2")
    elif mutation == "repeated spot edge":
        lines.insert(at, "spot: U=0 W=1 F=0-1,1-0")
    elif mutation == "spot out of range":
        lines.insert(at, "spot: U=0 W=%d F=0-1" % N)
    elif mutation == "padding" and lines:
        lines[at % len(lines)] = " " + lines[at % len(lines)] + " "
    elif mutation == "tab" and lines:
        lines[at % len(lines)] += "\t"
    else:
        mutation = mutation if mutation in ("crlf", "no final newline") else None
    end = "\r\n" if mutation == "crlf" else "\n"
    text = end.join(lines) + ("" if mutation == "no final newline" or not lines else end)
    return text, canonical and mutation is None


def _decomposition_outcome(text, use_parser):
    """The sets and spots the text describes, or its error."""
    g = LayeredGraph(N, {"G": []})
    if use_parser:
        found = _outcome(parse_decomposition, text, g, P)
        if found[0] != "ok":
            return found
        sd = found[1]
        H, E, clusters, spots = sd.H, sd.bd.E, sd.bd.clusters, sd.bd.spots.spots
    else:
        found = _outcome(_scan_decomposition, text, N, M, GAMMA)
        if found[0] != "ok":
            return found
        H, E, clusters, spots = found[1]
    return (frozenset(H), frozenset(E), [frozenset(c) for c in clusters],
            [_spot_key(s) for s in spots])


class TestDecompositionTexts:
    @given(decomposition_texts())
    @settings(max_examples=300, deadline=None)
    def test_bulk_matches_line_scan(self, case):
        text, canonical = case
        assert (_decomposition_outcome(text, True)
                == _decomposition_outcome(text, False))
        if canonical:
            assert _bulk_decomposition(text, N, M, GAMMA) is not None

    @pytest.mark.parametrize("text", [
        "section H\n1\n2", "section H\n1\n\n2\n", "section H\n+1\n", "section H\n1 2\n",
        "section H\n" + "0" * 19 + "\n", "section H\n١\n", "section H\n12\n",
        "section  H\n1\n", "section foo\n", "1\nsection H\n", "# c\nsection H\n",
        "section H\r\n1\r\n", "spot: U=0 W=1 F=0-1\x0c\n"])
    def test_odd_texts_left_to_line_scan(self, text):
        assert _bulk_decomposition(text, N, M, GAMMA) is None
        assert (_decomposition_outcome(text, True)
                == _decomposition_outcome(text, False))


@st.composite
def split_texts(draw):
    """(text, canonical): a split file, maybe restyled or broken."""
    p = draw(st.integers(1, 4))
    head = "fractions " + " ".join(draw(st.sampled_from(["1/3", "0", "1/2", "2/7"]))
                                   for _ in range(p))
    vs = draw(st.lists(st.integers(0, 30), unique=True, max_size=8))
    lines = [head] + ["%d %d" % (v, draw(st.integers(0, p - 1))) for v in vs]
    mutation = draw(st.sampled_from([None, None, "repeat", "class", "odd id",
                                     "three fields", "comment", "header late",
                                     "no header", "bad fraction", "long id",
                                     "double space", "no final newline"]))
    at = draw(st.integers(1, len(lines)))
    if mutation == "repeat" and vs:
        lines.insert(at, "%d %d" % (draw(st.sampled_from(vs)), draw(st.integers(0, p - 1))))
    elif mutation == "class":
        lines.insert(at, "3 %d" % (p + draw(st.integers(0, 2))))
    elif mutation == "odd id":
        lines.insert(at, "%s 0" % draw(st.sampled_from(ODD_IDS)))
    elif mutation == "three fields":
        lines.insert(at, "1 0 0")
    elif mutation == "comment":
        lines.insert(at, "# note")
    elif mutation == "header late":
        lines.append(lines.pop(0))
    elif mutation == "no header":
        lines.pop(0)
    elif mutation == "bad fraction":
        lines[0] += " 1/0"
    elif mutation == "long id":
        lines.insert(at, "%s 0" % draw(st.sampled_from(["9" * 19, "0" * 19 + "4"])))
    elif mutation == "double space":
        lines[0] = lines[0].replace(" ", "  ", 1)
    text = "\n".join(lines) + ("" if mutation == "no final newline" else "\n")
    return text, mutation is None


class TestSplitTexts:
    @given(split_texts())
    @settings(max_examples=300, deadline=None)
    def test_bulk_matches_line_scan(self, case):
        text, canonical = case
        assert _outcome(lambda t: parse_split(t, range(40)).classes, text) == \
            _outcome(lambda t: _scan_split(t)[1], text)
        assert _outcome(lambda t: parse_split(t, ()).fractions, text) == \
            _outcome(lambda t: _scan_split(t)[0], text)
        if canonical:
            assert _bulk_split(text) is not None

    @pytest.mark.parametrize("text", [
        "fractions \x1c1/3\n0 0\n", "fractions 1/3\r\n0 0\r\n", "fractions  1/3\n",
        "fractions\n", "fractions 1/3\n0 0\n0 0\n", "fractions 1/3\n0 1\n",
        "fractions 1/3\n0 0", "fractions 1/3\n+0 0\n", "fractions 1/3\n0 0\n\n"])
    def test_odd_texts_left_to_line_scan(self, text):
        assert _bulk_split(text) is None
        assert _outcome(lambda t: parse_split(t, ()).classes, text) == \
            _outcome(lambda t: _scan_split(t)[1], text)

    def test_vertex_ids_beyond_int64(self):
        text = "fractions 1/2\n%s 0\n" % ("9" * 19)
        assert _bulk_split(text) is None
        assert parse_split(text, ()).classes == (frozenset({int("9" * 19)}),)


def _scanned_edge_set(text, n):
    """The edges the line scan reads, normalised, merged and sorted: the
    set _parse_edges must hold.  Without n, ids must be below 2^63."""
    return sorted({norm_edge(*e) for e in _scan_edges(text, "witness",
                                                       2**63 if n is None else n)})


class TestWitnessEdges:
    @given(edge_lists(), st.sampled_from([None, 6, N]))
    @settings(max_examples=300, deadline=None)
    def test_bulk_matches_line_scan(self, text, n):
        assert _outcome(lambda *a: list(_parse_edges(*a)), text, n) == \
            _outcome(_scanned_edge_set, text, n)

    def test_canonical_lists_read_in_bulk(self):
        assert _canonical_edges("3-1,0-2", 4) is not None
        edges = _parse_edges("3-1,0-2", 4)
        assert (edges.n, list(edges)) == (4, [(0, 2), (1, 3)])

    @pytest.mark.parametrize("text, error", [
        ("1-x", "bad witness edge '1-x', want a-b"),
        ("0-1,2-2", "witness edge '2-2' is a self-loop"),
        ("0-2,1-99999", "vertex id 99999 out of range"),
        ("0-1-2", "bad witness edge '0-1-2', want a-b")])
    def test_bad_edges_named(self, text, error):
        with pytest.raises(ValueError, match=error):
            _parse_edges(text, N)

    def test_errors_name_the_line(self):
        from structhunt.fileio import parse_witness

        with pytest.raises(InstanceFormatError) as info:
            parse_witness("config D1\nA = 0\nF = 0-1,3-3\n", N)
        assert (info.value.lineno, info.value.message) == \
            (3, "witness edge '3-3' is a self-loop")
