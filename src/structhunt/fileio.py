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

A malformed params, decomposition, matching or split file raises
InstanceFormatError naming the line (line 0 for the file as a whole);
load_instance_dir adds the file's path.  Decomposition ids are checked
against the graph: H, E, clusters and spot sides and edges must be vertices
0..n-1, and a spot edge "a-b" needs a != b.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .configurations import ConfigParams, ConfigurationWitness
from .decomposition import BoundedDecomposition, Params, SparseDecomposition
from .graphcore import LayeredGraph, fmt_vertex_set, load_graph
from .regularity import RegularizedMatching
from .splitting import Split
from .spots import DenseCover, DenseSpot

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
    fields = {}
    for part in line.split(":", 1)[1].split():
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError("bad spot field %r, want key=value" % part)
        fields[key] = val
    for key in ("U", "W", "F"):
        if key not in fields:
            raise ValueError("spot line without %s=" % key)
    F = []
    for e in fields["F"].split(","):
        if e:
            a, _, b = e.partition("-")
            try:
                u, v = int(a), int(b)
            except ValueError:
                raise ValueError("bad spot edge %r, want a-b" % e) from None
            if u == v:
                raise ValueError("spot edge %r is a self-loop" % e)
            F.append((u, v))
    return DenseSpot(_ids(fields["U"].split(",")), _ids(fields["W"].split(",")),
                     F, m, gamma)


def dump_spot_line(s: DenseSpot) -> str:
    return "spot: U=%s W=%s F=%s" % (
        ",".join(str(v) for v in sorted(s.U)),
        ",".join(str(v) for v in sorted(s.W)),
        ",".join("%d-%d" % e for e in sorted(s.F)))


def parse_decomposition(text: str, g: LayeredGraph, p: Params,
                        reg_layer="G_reg", exp_layer="G_exp"
                        ) -> SparseDecomposition:
    H, E = set(), set()
    clusters = []
    spots = []
    section = None
    for lineno, ln in _content_lines(text):
        with _at_line(lineno):
            if ln.startswith("spot:"):
                s = parse_spot_line(ln, p.gamma * p.k, p.gamma)
                _in_range(s.vertices().union(*s.F), g.n)
                spots.append(s)
            elif ln.startswith("section "):
                section = ln.split()[1]
                if section == "cluster":
                    clusters.append(set())
            elif section in ("H", "E"):
                (H if section == "H" else E).update(_ids(ln.split(), g.n))
            elif section == "cluster":
                clusters[-1].update(_ids(ln.split(), g.n))
            else:
                raise ValueError("outside any section: %r" % ln)
    bd = BoundedDecomposition([frozenset(c) for c in clusters],
                              DenseCover(spots), reg_layer, exp_layer,
                              frozenset(E), [g.vertices()])
    return SparseDecomposition(frozenset(H), bd)


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


def parse_matching(text: str) -> RegularizedMatching:
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
            pairs.append(tuple(frozenset(_ids(side.replace(",", " ").split()))
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
    return Split(frozenset(target), tuple(frozenset(c) for c in classes),
                 fractions, seed=0)


def dump_split(split: Split) -> str:
    head = "fractions " + " ".join(str(q) for q in split.fractions)
    return head + "\n" + split.dump()


# -- witness files ------------------------------------------------------


def _fmt_edges(edges) -> str:
    return ",".join("%d-%d" % e for e in sorted(edges))


def _parse_edges(text: str):
    return [tuple(int(v) for v in e.split("-")) for e in text.split(",") if e]


def _fmt_family(fam) -> str:
    return ";".join(",".join(str(v) for v in sorted(x)) for x in fam)


def _parse_family(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(frozenset(int(v) for v in part.split(",")))
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
        left, right = part.split("|")
        out.append((frozenset(int(v) for v in left.split(",") if v),
                    frozenset(int(v) for v in right.split(",") if v)))
    return tuple(out)


SET_FIELDS = {"V0", "V1", "V2", "V3", "V4", "A", "B", "H1", "H2", "L1", "L2",
              "E1"}
FAMILY_FIELDS = {"F", "Lstar", "ensemble"}
PAIR_FIELDS = {"pairs"}
EDGE_FIELDS = {"F_edges", "Gt_edges"}
MATCHING_FIELDS = {"N", "M"}
STR_FIELDS = {"precfg"}
INT_FIELDS = {"heart"}


def parse_witness(text: str) -> ConfigurationWitness:
    tag = None
    data = {}
    params = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("config "):
            tag = ln.split(None, 1)[1].strip()
            continue
        if ln.startswith("param "):
            name, val = ln[6:].split("=", 1)
            params[name.strip()] = _parse_param_value(val.strip())
            continue
        name, val = (x.strip() for x in ln.split("=", 1))
        if name in SET_FIELDS:
            data[name] = frozenset(int(v) for v in val.replace(",", " ").split())
        elif name == "F" and tag == "D1":
            data[name] = _parse_edges(val)
        elif name in EDGE_FIELDS:
            data["Gt_edges" if name == "Gt_edges" else name] = _parse_edges(val)
        elif name in FAMILY_FIELDS:
            data[name] = _parse_family(val)
        elif name in PAIR_FIELDS:
            data[name] = _parse_pairs(val)
        elif name in MATCHING_FIELDS:
            body, _, suffix = val.partition("@")
            pairs = _parse_pairs(body)
            kw = {"eps": Fraction(1, 2), "d": Fraction(0), "ell": 0,
                  "layer": "G"}
            for tokenpair in suffix.split():
                kname, kval = tokenpair.split("=")
                kw[kname] = kval if kname == "layer" else Fraction(kval)
            data[name] = RegularizedMatching(pairs, kw["eps"], kw["d"],
                                             kw["ell"], kw["layer"])
        elif name in STR_FIELDS:
            data[name] = val
        elif name in INT_FIELDS:
            data[name] = int(val)
        else:
            raise ValueError("unknown witness field %r" % name)
    if tag is None:
        raise ValueError("witness file missing 'config <tag>' line")
    w = ConfigurationWitness(tag, data)
    w.params = ConfigParams(**params) if params else None
    return w


def _parse_param_value(text: str):
    """Rational, or "c * x^(1/n)" for an exact root value."""
    from .exactmath import RootVal

    if "^(1/" in text:
        coef_part, root_part = (x.strip() for x in text.split("*", 1))
        base, deg = root_part.split("^(1/")
        return RootVal(Fraction(coef_part), Fraction(base),
                       int(deg.rstrip(")")))
    return Fraction(text)


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
        if name == "F" and w.tag == "D1":
            lines.append("F = %s" % _fmt_edges(val))
        elif name in SET_FIELDS:
            lines.append("%s = %s" % (name, fmt_vertex_set(val)))
        elif name in EDGE_FIELDS:
            lines.append("%s = %s" % (name, _fmt_edges(val)))
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
    sd = _parsed(dec_file, parse_decomposition, g, p) if dec_file.exists() \
        else SparseDecomposition(frozenset(), BoundedDecomposition(
            [], DenseCover([]), "G_reg", "G_exp", frozenset(), [g.vertices()]))
    for name in ("G_reg", "G_exp"):
        if not g.has_layer(name):
            g = g.with_layer(name, [])
    MA, MB = (_parsed(f, parse_matching) if f.exists() else
              RegularizedMatching([], Fraction(1, 2), Fraction(0), 0)
              for f in (path / "matching_a.txt", path / "matching_b.txt"))
    split_file = path / "split.txt"
    split = _parsed(split_file, parse_split, g.vertices() - sd.H) \
        if split_file.exists() else None
    return g, p, sd, MA, MB, split
