"""Structured-text file formats for instances, splits, and witnesses.

An instance directory holds:
  graph.txt          layered edge list (see graphcore)
  params.txt         one "name value" pair per line, exact rationals
  decomposition.txt  sections H / E / cluster / spot, one entry per line;
                     spots use the single-line form
                     "spot: U=<ids> W=<ids> F=<u-v pairs>"
  matching_a.txt,    optional regularized matchings:
  matching_b.txt       header lines "eps/d/ell/layer <value>" then one
                       "ids | ids" line per pair
  split.txt          optional: "fractions <q0> <q1> ..." then "v class" lines

Witness files: "config <tag>" then "field = value" lines; vertex sets as
comma ids, families separated by ";", matchings as "pair|pair;..." with an
inline parameter suffix, edges as "u-v" pairs.

A malformed params, decomposition, matching, split or witness file raises
InstanceFormatError naming the line (line 0 for the file as a whole);
load_instance_dir adds the file's path.  Ids are checked against the graph:
H, E, clusters, spot sides and edges and matching members must be vertices
0..n-1, and so must witness edges when parse_witness is given n; an edge
"a-b" needs a != b.  load_instance_dir also requires every spot edge to be
an edge of G, and names the line of the first spot with another.

Bulk reading.  Each of these is read in bulk when it is in the canonical
form its dumper writes, with numpy checks over its bytes that are linear in
its length (graphcore._digit_records: runs of 1-18 ASCII digits, each
followed by the separator the form expects):
  - a spot line's U=, W= and F= fields, the edges of F loop-free and
    distinct, and within a decomposition every id below n;
  - decomposition.txt, when every line ends in a newline, each H, E or
    cluster section holds one id per line, all below n, and every spot line
    is printable ASCII that reads in bulk;
  - split.txt, when a "fractions" line is followed by "v c" lines naming
    each vertex once, with every class below the number of fractions;
  - witness edge lists (D1's F, F_edges, Gt_edges), loop-free and distinct,
    with ids below n when n is given, read straight into a layer of codes,
    which fmt_edges writes.  Read by the scan, repeats merge, each edge is
    kept as u < v, and without n every id must be below 2^63.
Any other text (comments, blank lines, other whitespace, signs, underscores,
non-ASCII digits, ids of 19 or more digits, empty entries, self-loops,
repeats, ids out of range) is read by a scan one line or entry at a time,
which accepts the same texts with the same result and raises each error
with its class, text and line.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from .configurations import ConfigParams, ConfigurationWitness, _is_edge_field
from .decomposition import BoundedDecomposition, Params, SparseDecomposition
from .graphcore import (LayeredGraph, _ascending, _digit_records, _edge_layer, _encode,
                        _has_repeats, _isin_sorted, _Layer, fmt_edges, fmt_vertex_set, load_graph)
from .regularity import RegularizedMatching
from .splitting import Split
from .spots import DenseCover, DenseSpot, _spot_codes

PARAM_NAMES = ("k", "Lambda", "gamma", "eps", "eps_prime", "nu", "rho", "eta",
               "pi", "alpha_hat", "tau", "d", "omega_star", "omega_sstar", "b")


class InstanceFormatError(ValueError):
    """A malformed instance file: the line (0 for the whole file), and the
    file's path once load_instance_dir knows it."""

    def __init__(self, lineno: int, message: str, path=None):
        super().__init__(lineno, message, path)
        self.lineno, self.message, self.path = lineno, message, path

    def __str__(self):
        where = "" if self.path is None else "%s: " % self.path
        return "%sline %d: %s" % (where, self.lineno, self.message)


def _content_lines(text: str):
    """(line number, stripped line) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if ln and not ln.startswith("#"):
            yield lineno, ln


@contextmanager
def _at_line(lineno: int):
    """Turn a ValueError raised for one line into an InstanceFormatError."""
    try:
        yield
    except ValueError as exc:
        raise InstanceFormatError(lineno, str(exc)) from None


def _number(text: str, integer=False):
    """An int or an exact rational; ValueError names the text."""
    try:
        return int(text) if integer else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad %s %r" % ("integer" if integer else "number", text)) from None


def _ids(tokens, n=None) -> list:
    """The vertex ids of the non-empty tokens; given n, each in 0..n-1."""
    ids = [_number(t, integer=True) for t in tokens if t]
    if n is not None:
        _in_range(ids, n)
    return ids


def _in_range(ids, n: int) -> None:
    """ValueError naming the first id outside 0..n-1."""
    for v in ids:
        if not 0 <= v < n:
            raise ValueError("vertex id %d out of range" % v)


def _canonical_ids(text: str, seps: str, n=None, final=False):
    """The ids of text in the canonical form of graphcore._digit_records,
    as a (k, len(seps)) array, when each is below n (any id when n is
    None); else None."""
    ids = _digit_records(text, seps, final)
    if ids is None or (n is not None and ids.size and ids.max() >= n):
        return None
    return ids


def _canonical_edges(text: str, n=None):
    """(u, v, edges) of a canonical edge list "a-b,c-d" whose edges are
    loop-free and distinct and whose ids are below n: the id arrays of its
    ends in list order, and its edges as a layer on n vertices (one more
    than the largest id when n is None); else None."""
    uv = _canonical_ids(text, "-,", n)
    if uv is None:
        return None
    u, v = uv[:, 0], uv[:, 1]
    bound = n if n is not None else int(uv.max(initial=0)) + 1
    codes = _ascending(_encode(np.minimum(u, v), np.maximum(u, v), bound))
    if (u == v).any() or codes is None:
        return None
    return u, v, _Layer(bound, codes)


def parse_params(text: str) -> Params:
    kw = {}
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            name, *value = ln.split(None, 1)
            if name not in PARAM_NAMES:
                raise ValueError("unknown parameter %r" % name)
            if not value:
                raise ValueError("parameter %s without a value" % name)
            kw[name] = _number(value[0], integer=name == "k")
    if "k" not in kw:
        raise InstanceFormatError(0, "missing parameter k")
    with _at_line(0):
        return Params(**kw)


def dump_params(p: Params) -> str:
    lines = []
    for name in PARAM_NAMES:
        lines.append("%s %s" % (name, getattr(p, name)))
    return "\n".join(lines) + "\n"


def parse_spot_line(line: str, m=0, gamma=Fraction(1, 10**6)) -> DenseSpot:
    """A spot from "spot: U=<ids> W=<ids> F=<a-b,...>"; ValueError on a
    malformed field, id or edge."""
    spot = _bulk_spot(line, m, gamma)
    return spot if spot is not None else _scan_spot(line, m, gamma)


def _bulk_spot(line: str, m, gamma, n=None):
    """The spot of a canonical spot line: the fields U=, W= and F= and no
    other (the last of a repeated one counts, as in the scan), ids and edges
    as _canonical_ids and _canonical_edges read them, every id below n (any
    id when n is None); None for any other line."""
    fields = {}
    for part in line.partition(":")[2].split():
        key, eq, val = part.partition("=")
        if not eq:
            return None
        fields[key] = val
    if fields.keys() != {"U", "W", "F"}:
        return None
    U, W = (_canonical_ids(fields[key], ",", n) for key in "UW")
    F = _canonical_edges(fields["F"], n)
    if U is None or W is None or F is None:
        return None
    return DenseSpot._from_arrays(U.ravel().tolist(), W.ravel().tolist(), *F[:2],
                                  m, gamma)


def _scan_spot(line: str, m, gamma) -> DenseSpot:
    """parse_spot_line one field and one entry at a time."""
    fields = {}
    for part in line.split(":", 1)[1].split():
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError("bad spot field %r, want key=value" % part)
        fields[key] = val
    for key in ("U", "W", "F"):
        if key not in fields:
            raise ValueError("spot line without %s=" % key)
    F = _scan_edges(fields["F"], "spot")
    return DenseSpot(_ids(fields["U"].split(",")), _ids(fields["W"].split(",")),
                     F, m, gamma)


def _scan_edges(text: str, what: str, n=None) -> list:
    """The (u, v) pairs of an "a-b,c-d" list in order, empty entries
    skipped; ValueError names the first entry that is not two integers, a
    self-loop or, given n, has an id outside 0..n-1."""
    edges = []
    for e in text.split(","):
        if e:
            a, _, b = e.partition("-")
            try:
                u, v = int(a), int(b)
            except ValueError:
                raise ValueError("bad %s edge %r, want a-b" % (what, e)) from None
            if u == v:
                raise ValueError("%s edge %r is a self-loop" % (what, e))
            if n is not None:
                _in_range((u, v), n)
            edges.append((u, v))
    return edges


def dump_spot_line(s: DenseSpot) -> str:
    return "spot: U=%s W=%s F=%s" % (  # F's arrays are in sorted order
        ",".join(str(v) for v in sorted(s.U)),
        ",".join(str(v) for v in sorted(s.W)),
        ",".join(map("%d-%d".__mod__, zip(*(e.tolist() for e in s._ends)))))


def parse_decomposition(text: str, g: LayeredGraph, p: Params,
                        reg_layer="G_reg", exp_layer="G_exp"
                        ) -> SparseDecomposition:
    m, gamma = p.gamma * p.k, p.gamma
    parts = _bulk_decomposition(text, g.n, m, gamma)
    H, E, clusters, spots = (parts if parts is not None
                             else _scan_decomposition(text, g.n, m, gamma))
    bd = BoundedDecomposition([frozenset(c) for c in clusters],
                              DenseCover(spots), reg_layer, exp_layer,
                              frozenset(E), [g.vertices()])
    return SparseDecomposition(frozenset(H), bd)


def _bulk_decomposition(text: str, n: int, m, gamma):
    """(H, E, clusters, spots) of a canonical decomposition text, else None.

    Canonical: every line ends in a newline; a "section H", "section E" or
    "section cluster" line is followed by one id per line (below n), and a
    spot line is printable ASCII that _bulk_spot reads.
    """
    H, E, clusters, spots = set(), set(), [], []
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        if end < 0:
            return None
        line = text[pos:end]
        if line.startswith("spot:"):
            spot = _bulk_spot(line, m, gamma, n) if line.isprintable() else None
            if spot is None:
                return None
            spots.append(spot)
            pos = end + 1
        elif line in ("section H", "section E", "section cluster"):
            pos = text.find("\ns", end) + 1 or len(text)  # the next header
            ids = _canonical_ids(text[end + 1:pos], "\n", n, final=True)
            if ids is None:
                return None
            if line == "section cluster":
                clusters.append(set())
            (H if line == "section H" else E if line == "section E"
             else clusters[-1]).update(ids.ravel().tolist())
        else:
            return None
    return H, E, clusters, spots


def _scan_decomposition(text: str, n: int, m, gamma):
    """_bulk_decomposition one line at a time; raises InstanceFormatError
    at the first bad line."""
    H, E = set(), set()
    clusters = []
    spots = []
    section = None
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            if ln.startswith("spot:"):
                s = _scan_spot(ln, m, gamma)
                _in_range(s.vertices().union(*(e.tolist() for e in s._ends)), n)
                spots.append(s)
            elif ln.startswith("section "):
                section = ln.split()[1]
                if section == "cluster":
                    clusters.append(set())
            elif section in ("H", "E"):
                (H if section == "H" else E).update(_ids(ln.split(), n))
            elif section == "cluster":
                clusters[-1].update(_ids(ln.split(), n))
            else:
                raise ValueError("outside any section: %r" % ln)
    return H, E, clusters, spots


def dump_decomposition(sd: SparseDecomposition) -> str:
    lines = ["section H"]
    lines += [str(v) for v in sorted(sd.H)]
    lines.append("section E")
    lines += [str(v) for v in sorted(sd.bd.E)]
    for C in sd.bd.clusters:
        lines.append("section cluster")
        lines += [str(v) for v in sorted(C)]
    for s in sd.bd.spots:
        lines.append(dump_spot_line(s))
    return "\n".join(lines) + "\n"


def parse_matching(text: str, n=None) -> RegularizedMatching:
    """A regularized matching; given n, every id must be a vertex 0..n-1."""
    header = {"eps": Fraction(1, 2), "d": Fraction(1, 2), "ell": 1, "layer": "G"}
    pairs = []
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            head, *value = ln.split(None, 1)
            if head in header:
                if not value:
                    raise ValueError("%s without a value" % head)
                header[head] = value[0] if head == "layer" else _number(value[0])
                continue
            sides = ln.split("|")
            if len(sides) != 2:
                raise ValueError("want a header or a pair line 'ids | ids', got %r" % ln)
            pairs.append(tuple(frozenset(_ids(side.replace(",", " ").split(), n))
                               for side in sides))
    return RegularizedMatching(pairs, header["eps"], header["d"], header["ell"],
                               header["layer"])


def dump_matching(m: RegularizedMatching) -> str:
    lines = ["eps %s" % m.eps, "d %s" % m.d, "ell %s" % m.ell,
             "layer %s" % m.layer]
    for a, b in m.pairs:
        lines.append("%s | %s" % (fmt_vertex_set(a), fmt_vertex_set(b)))
    return "\n".join(lines) + "\n"


def parse_split(text: str, target) -> Split:
    parts = _bulk_split(text)
    fractions, classes = parts if parts is not None else _scan_split(text)
    return Split(frozenset(target), classes, fractions, seed=0)


def _bulk_split(text: str):
    """(fractions, classes) of a canonical split text, else None: a
    "fractions <q0> <q1> ..." line, then "v c" lines (ids as _canonical_ids
    reads them) naming each vertex once, with c below the number of
    fractions."""
    head, _, body = text.partition("\n")
    words = head.split(" ")
    if words[0] != "fractions" or len(words) < 2 or not head.isprintable():
        return None
    try:
        fractions = tuple(Fraction(q) for q in words[1:])
    except (ValueError, ZeroDivisionError):
        return None
    vc = _canonical_ids(body, " \n", final=True)
    if vc is None:
        return None
    v, c = vc[:, 0], vc[:, 1]
    if (c >= len(fractions)).any() or _has_repeats(np.sort(v)):
        return None
    return fractions, tuple(frozenset(v[c == i].tolist())
                            for i in range(len(fractions)))


def _scan_split(text: str):
    """_bulk_split one line at a time; raises InstanceFormatError at the
    first bad line."""
    fractions = None
    assign = {}
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            parts = ln.split()
            if parts[0] == "fractions":
                fractions = tuple(_number(x) for x in parts[1:])
                continue
            if len(parts) != 2:
                raise ValueError("want 'v class', got %r" % ln)
            v, c = _ids(parts)
            assign[v] = (c, lineno)
    if fractions is None:
        raise InstanceFormatError(0, "split file missing 'fractions' header")
    p = len(fractions)
    classes = [set() for _ in range(p)]
    for v, (c, lineno) in assign.items():
        if not 0 <= c < p:
            raise InstanceFormatError(lineno, "class %d of vertex %d, but %d fractions"
                                      % (c, v, p))
        classes[c].add(v)
    return fractions, tuple(frozenset(c) for c in classes)


def dump_split(split: Split) -> str:
    head = "fractions " + " ".join(str(q) for q in split.fractions)
    return head + "\n" + split.dump()


# -- witness files ------------------------------------------------------


def _parse_edges(text: str, n=None) -> _Layer:
    """The edges of a witness edge list "a-b,c-d", as a layer on n vertices
    (one more than the largest id, which must be below 2^63, when n is
    None); repeats merge."""
    found = _canonical_edges(text, n)
    if found is None:
        return _edge_layer(_scan_edges(text, "witness", 2**63 if n is None else n), n)
    return found[2]


def _fmt_family(fam) -> str:
    return ";".join(",".join(str(v) for v in sorted(x)) for x in fam)


def _int(text: str) -> int:
    return _number(text, integer=True)


def _parse_family(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(frozenset(_int(v) for v in part.split(",")))
    return tuple(out)


def _fmt_pairs(pairs) -> str:
    return ";".join("%s|%s" % (",".join(str(v) for v in sorted(a)),
                               ",".join(str(v) for v in sorted(b)))
                    for a, b in pairs)


def _parse_pairs(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        sides = part.split("|")
        if len(sides) != 2:
            raise ValueError("bad pair %r, want ids|ids" % part)
        out.append(tuple(frozenset(_ids(side.split(","))) for side in sides))
    return tuple(out)


SET_FIELDS = {"V0", "V1", "V2", "V3", "V4", "A", "B", "H1", "H2", "L1", "L2",
              "E1"}
FAMILY_FIELDS = {"F", "Lstar", "ensemble"}
PAIR_FIELDS = {"pairs"}
MATCHING_FIELDS = {"N", "M"}
STR_FIELDS = {"precfg"}
INT_FIELDS = {"heart"}


def parse_witness(text: str, n=None) -> ConfigurationWitness:
    """The witness in a witness file's text; given n, every edge's ids must
    be vertices 0..n-1.  A malformed line raises InstanceFormatError naming
    it (line 0 when the "config <tag>" line is missing)."""
    tag, tag_line = None, 0
    data = {}
    params = {}
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            if ln.startswith("config "):
                tag, tag_line = ln.split(None, 1)[1].strip(), lineno
            elif ln.startswith("param "):
                name, val = _field(ln[6:])
                if name not in ConfigParams.__dataclass_fields__:
                    raise ValueError("unknown parameter %r" % name)
                params[name] = _parse_param_value(val)
            else:
                name, val = _field(ln)
                data[name] = _witness_value(name, val, tag, n)
    if tag is None:
        raise InstanceFormatError(0, "witness file missing 'config <tag>' line")
    with _at_line(tag_line):
        w = ConfigurationWitness(tag, data)
    w.params = ConfigParams(**params) if params else None
    return w


def _field(line: str) -> tuple:
    """(name, value) of a "name = value" line."""
    name, eq, val = line.partition("=")
    if not eq:
        raise ValueError("want 'field = value', got %r" % line)
    return name.strip(), val.strip()


def _witness_value(name: str, val: str, tag, n):
    """The value of witness field name (tag: the config so far)."""
    if name in SET_FIELDS:
        return frozenset(_ids(val.replace(",", " ").split()))
    if _is_edge_field(tag, name):
        return _parse_edges(val, n)
    if name in FAMILY_FIELDS:
        return _parse_family(val)
    if name in PAIR_FIELDS:
        return _parse_pairs(val)
    if name in MATCHING_FIELDS:
        body, _, suffix = val.partition("@")
        kw = {"eps": Fraction(1, 2), "d": Fraction(0), "ell": 0, "layer": "G"}
        for token in suffix.split():
            key, eq, kval = token.partition("=")
            if not eq or key not in kw:
                raise ValueError("bad matching parameter %r, want "
                                 "eps=, d=, ell= or layer=" % token)
            kw[key] = kval if key == "layer" else _number(kval)
        return RegularizedMatching(_parse_pairs(body), kw["eps"], kw["d"],
                                   kw["ell"], kw["layer"])
    if name in STR_FIELDS:
        return val
    if name in INT_FIELDS:
        return _int(val)
    raise ValueError("unknown witness field %r" % name)


def _parse_param_value(text: str):
    """Rational, or "c * x^(1/n)" for an exact root value."""
    from .exactmath import RootVal

    try:
        if "^(1/" in text:
            coef_part, root_part = (x.strip() for x in text.split("*", 1))
            base, deg = root_part.split("^(1/")
            return RootVal(Fraction(coef_part), Fraction(base),
                           int(deg.rstrip(")")))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad parameter value %r" % text) from None


def _fmt_param_value(v) -> str:
    from .exactmath import RootVal

    if isinstance(v, RootVal):
        if v.degree == 1:
            return str(v.coef)
        return "%s * %s^(1/%d)" % (v.coef, v.radicand, v.degree)
    return str(v)


def dump_witness(w: ConfigurationWitness, cp=None) -> str:
    lines = ["config %s" % w.tag]
    for name in sorted(w.data):
        val = w.data[name]
        if _is_edge_field(w.tag, name):
            lines.append("%s = %s" % (name, fmt_edges(_edge_layer(val), "%d-%d")))
        elif name in SET_FIELDS:
            lines.append("%s = %s" % (name, fmt_vertex_set(val)))
        elif name in FAMILY_FIELDS:
            lines.append("%s = %s" % (name, _fmt_family(val)))
        elif name in PAIR_FIELDS:
            lines.append("%s = %s" % (name, _fmt_pairs(val)))
        elif name in MATCHING_FIELDS:
            m = val
            lines.append("%s = %s @ eps=%s d=%s ell=%s layer=%s" % (
                name, _fmt_pairs(m.pairs), m.eps, m.d, m.ell, m.layer))
        else:
            lines.append("%s = %s" % (name, val))
    if cp is not None:
        for f in cp.__dataclass_fields__:
            v = getattr(cp, f)
            if v is not None:
                lines.append("param %s = %s" % (f, _fmt_param_value(v)))
    return "\n".join(lines) + "\n"


def _decomposition_in(text: str, g: LayeredGraph, p: Params) -> SparseDecomposition:
    """parse_decomposition; InstanceFormatError at a spot with an edge not in G."""
    sd = parse_decomposition(text, g, p)
    spot_lines = (lineno for lineno, ln in _content_lines(text) if ln.startswith("spot:"))
    for s, lineno in zip(sd.bd.spots, spot_lines):
        codes = _spot_codes(s, g.n)  # all of them: the parsers checked the ids
        outside = ~_isin_sorted(codes, g._codes())
        if outside.any():
            raise InstanceFormatError(lineno, "spot edge %d-%d is not an edge of G"
                                      % divmod(int(codes[outside.argmax()]), g.n))
    return sd


def _parsed(file: Path, parse, *args):
    """parse(text of file, *args); an InstanceFormatError names the file."""
    try:
        return parse(file.read_text(), *args)
    except InstanceFormatError as exc:
        raise InstanceFormatError(exc.lineno, exc.message, file) from None


def load_instance_dir(path) -> tuple:
    """Read (graph, params, sd, MA, MB, split-or-None) from a directory."""
    path = Path(path)
    g = load_graph((path / "graph.txt").read_text())
    p = _parsed(path / "params.txt", parse_params)
    dec_file = path / "decomposition.txt"
    sd = _parsed(dec_file, _decomposition_in, g, p) if dec_file.exists() \
        else SparseDecomposition(frozenset(), BoundedDecomposition(
            [], DenseCover([]), "G_reg", "G_exp", frozenset(), [g.vertices()]))
    for name in ("G_reg", "G_exp"):
        if not g.has_layer(name):
            g = g.with_layer(name, [])
    MA, MB = (_parsed(f, parse_matching, g.n) if f.exists() else
              RegularizedMatching([], Fraction(1, 2), Fraction(0), 0)
              for f in (path / "matching_a.txt", path / "matching_b.txt"))
    split_file = path / "split.txt"
    split = _parsed(split_file, parse_split, g.vertices() - sd.H) \
        if split_file.exists() else None
    return g, p, sd, MA, MB, split
