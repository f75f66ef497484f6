"""Command-line interface.

Exit codes for hunt-config / verify-witness: 0 = verified witness,
2 = hypotheses unmet, 3 = out-of-regime (trace emitted).  All outputs are
structured text; hunt-config writes into a run directory.  A malformed
graph file or a layer spec naming no layer of the graph ends any command
with one line on stderr and exit code 1, and so does a malformed params,
decomposition, matching or split file of an instance directory or a
malformed witness file (the message names the file and the line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .cleaning import (clean_c_plus_black, clean_c_plus_yellow, clean_match,
                       clean_yellow, envelope)
from .configurations import (ConfigParams, MissingField, verify_configuration,
                             verify_preconfiguration, PRECONFIG_TAGS)
from .exactmath import MissingParameter, RootVal
from .fileio import (InstanceFormatError, dump_split, dump_spot_line,
                     load_instance_dir, parse_witness)
from .graphcore import (GraphFormatError, LayeredGraph, fmt_vertex_set,
                        load_graph, parse_vertex_set)
from .lks import derive_common_sets
from .pipeline import hunt_configuration
from .regularity import Sampled, check_regular_pair
from .shadows import ShadowQuery, shadow_iter
from .splitting import proportional_split, random_split
from .spots import greedy_dense_cover


class InputError(Exception):
    """Bad input, described in one line; main prints it and returns 1."""


def _read_graph(path, *specs) -> LayeredGraph:
    """The graph in the file at path, with each layer spec checked against it."""
    try:
        g = load_graph(Path(path).read_text())
    except GraphFormatError as exc:
        raise InputError("%s: %s" % (path, exc)) from None
    for spec in specs:
        try:
            g._codes(spec)
        except (KeyError, ValueError) as exc:
            raise InputError("layer spec %r: %s" % (spec, exc.args[0])) from None
    return g


def _vs(arg: str, n: int, option: str) -> frozenset:
    """The vertex set given to option, each id checked against n."""
    try:
        return parse_vertex_set(arg or "", n)
    except ValueError as exc:
        raise InputError("%s: %s" % (option, exc)) from None


def _fraction(text: str, option: str) -> Fraction:
    """The fraction given to option."""
    try:
        return Fraction(text)
    except ValueError:
        raise InputError("%s: bad fraction %r" % (option, text)) from None
    except ZeroDivisionError:
        raise InputError("%s: zero denominator in %r" % (option, text)) from None


def cmd_shadow(args) -> int:
    g = _read_graph(args.graph, args.layer)
    U = _vs(args.set, g.n, "--set")
    q = ShadowQuery(args.layer, U, _fraction(args.ell, "--ell"), args.depth)
    result = shadow_iter(g, q)
    print(fmt_vertex_set(result))
    return 0


def cmd_split(args) -> int:
    g = _read_graph(args.graph)
    q = [_fraction(x, "--q") for x in args.q.split(",")]
    try:
        split = random_split(g, g.vertices(), q, args.seed)
    except ValueError as exc:  # a negative fraction, or a sum above 1 or of 0
        raise InputError("--q: %s" % exc) from None
    text = dump_split(split)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_regular(args) -> int:
    g = _read_graph(args.graph, args.layer)
    U = _vs(args.U, g.n, "-U")
    W = _vs(args.W, g.n, "-W")
    mode = "exact" if args.mode == "exact" else Sampled(args.trials, args.seed)
    cert = check_regular_pair(g, args.layer, U, W, _fraction(args.eps, "--eps"), mode)
    print("verdict: %s" % cert.verdict)
    print("density: %s" % cert.density)
    if cert.witness:
        Up, Wp, dsub = cert.witness
        print("witness: U'=%s W'=%s d'=%s" % (fmt_vertex_set(Up),
                                              fmt_vertex_set(Wp), dsub))
    if cert.note:
        print("note: %s" % cert.note)
    return 0 if cert.is_regular else 3


def cmd_find_spots(args) -> int:
    g = _read_graph(args.graph, args.layer)
    cover, residual = greedy_dense_cover(g, args.layer, _fraction(args.m, "-m"),
                                         _fraction(args.gamma, "--gamma"))
    for s in cover:
        print(dump_spot_line(s))
    print("residual edges: %d" % len(residual))
    return 0


def _pair(text: str, n: int) -> tuple:
    """One "A|B" entry of --partitions."""
    sides = text.split("|")
    if len(sides) != 2:
        raise InputError("--partitions: bad pair %r, want A|B" % text)
    return tuple(_vs(side, n, "--partitions") for side in sides)


def cmd_clean(args) -> int:
    layers = args.layers.split(",")
    g = _read_graph(args.graph, *(layers if args.op in ("yellow", "match")
                                  else [args.layer]))
    n = g.n
    sets = [_vs(x, n, "--sets") for x in args.sets.split("/")]
    Y = _vs(args.Y, n, "--Y")
    if args.op in ("yellow", "match") and len(layers) < 2:
        raise InputError("--layers: %s takes 2 or more layers" % args.op)
    if args.op == "cyellow" and len(sets) < 2:
        raise InputError("--sets: cyellow takes 2 or more sets, got %d" % len(sets))
    want = {"envelope": 2, "cblack": 2, "cyellow": len(sets)}.get(args.op, len(layers) + 1)
    if len(sets) != want:
        raise InputError("--sets: %s takes %d sets, got %d" % (args.op, want, len(sets)))
    try:  # the op rejects overlapping sets, partitions that cut X_0/X_1 wrongly
        rep = _clean(args, g, layers, sets, Y)
    except ValueError as exc:
        raise InputError("clean %s: %s" % (args.op, exc)) from None
    print(rep.render())
    return 0


def _clean(args, g, layers, sets, Y):
    """Run one cleaning op, print its sets and return its report."""

    divisors = {"envelope": ("psi", "Gamma"), "cyellow": ("Omega", "gamma"),
                "cblack": ("Omega",), "yellow": ("gamma",),
                "match": ("gamma",)}[args.op]  # the options the op divides by

    def num(name):
        x = _fraction(getattr(args, name), "--" + name)
        if x == 0 and name in divisors:
            raise InputError("--%s: must not be 0, clean %s divides by it"
                             % (name, args.op))
        return x

    k = num("k")
    if args.op == "envelope":
        Pp, Qp, Qpp, rep = envelope(g, args.layer, sets[0], sets[1], Y, num("psi"),
                                    num("Gamma"), num("Omega"), k)
        print("P' = %s" % fmt_vertex_set(Pp))
        print("Q' = %s" % fmt_vertex_set(Qp))
        print("Q'' = %s" % fmt_vertex_set(Qpp))
    elif args.op == "cyellow":
        Xp, rep = clean_c_plus_yellow(g, args.layer, sets, Y, len(sets) - 1,
                                      num("Omega"), RootVal(num("Omega2")),
                                      num("delta"), num("gamma"), num("eta"), k)
        for i, X in enumerate(Xp):
            print("X%d' = %s" % (i, fmt_vertex_set(X)))
    elif args.op == "cblack":
        clusters = [_vs(c, g.n, "--clusters")
                    for c in (args.clusters.split("/") if args.clusters else [])]
        X0p, X1p, rep = clean_c_plus_black(g, args.layer, sets[0], sets[1], Y,
                                           clusters, num("delta"), num("eta"),
                                           num("Omega"), RootVal(num("Omega2")),
                                           num("h"), k)
        print("X0' = %s" % fmt_vertex_set(X0p))
        print("X1' = %s" % fmt_vertex_set(X1p))
    elif args.op == "yellow":
        Xp, rep = clean_yellow(g, layers, sets, Y, len(layers), num("Omega"),
                               num("gamma"), num("delta"), num("eta"), k)
        for i, X in enumerate(Xp):
            print("X%d' = %s" % (i, fmt_vertex_set(X)))
    else:  # match
        partitions = [_pair(part, g.n) for part in args.partitions.split(";")]
        qpairs, Xp, rep = clean_match(g, layers, sets, Y, partitions, len(layers),
                                      num("Omega"), num("gamma"), num("eta"),
                                      num("delta"), num("eps"), num("mu"), num("d"),
                                      k)
        for j, (q0, q1) in enumerate(qpairs):
            print("Q%d = %s | %s" % (j, fmt_vertex_set(q0), fmt_vertex_set(q1)))
        for i, X in enumerate(Xp):
            print("X%d' = %s" % (i, fmt_vertex_set(X)))
    return rep


def _build_bundle(instance_dir, seed):
    try:
        g, p, sd, MA, MB, split = load_instance_dir(instance_dir)
    except GraphFormatError as exc:
        raise InputError("%s: %s" % (Path(instance_dir) / "graph.txt", exc)) from None
    except InstanceFormatError as exc:
        raise InputError(str(exc)) from None
    b = derive_common_sets(g, sd, p, MA, MB)
    if split is None:
        third = Fraction(1, 3)
        split, _rep = proportional_split(b, third, third, third, seed)
    return b, split


def cmd_hunt(args) -> int:
    b, split = _build_bundle(args.instance_dir, args.seed)
    overrides = {}
    if args.force_case:
        overrides["force_%s" % args.force_case] = True
    out = hunt_configuration(b, split, args.seed, overrides)
    run_dir = Path(args.out or (Path(args.instance_dir) / "run"))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "outcome.txt").write_text(out.dump())
    if out.witness is not None:
        from .fileio import dump_witness

        (run_dir / "witness.txt").write_text(
            dump_witness(out.witness, out.config_params))
    print("status: %s" % out.status)
    print("outcome written to %s" % (run_dir / "outcome.txt"))
    return out.exit_code


def _read_witness(path, n: int):
    """The witness in the file at path, its edges checked against n."""
    try:
        return parse_witness(Path(path).read_text(), n)
    except InstanceFormatError as exc:
        raise InputError("%s: %s" % (path, exc)) from None


def cmd_verify_witness(args) -> int:
    b, split = _build_bundle(args.instance_dir, args.seed)
    w = _read_witness(args.witness, b.g.n)
    cp = getattr(w, "params", None) or ConfigParams()
    try:
        if w.tag in PRECONFIG_TAGS:
            rep = verify_preconfiguration(w, b, split, cp)
        else:
            rep = verify_configuration(w, b, split, cp)
    except MissingParameter:
        print("witness file lacks required numeric parameters "
              "(add 'param <name> = <value>' lines)")
        return 3
    except MissingField as exc:
        raise InputError("%s: %s" % (args.witness, exc.args[0])) from None
    print(rep.render())
    return 0 if rep.ok else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each subcommand
    names its cmd_* function, which main looks up when it runs."""
    ap = argparse.ArgumentParser(prog="structhunt",
                                 description="layered-graph structure toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("shadow", help="iterated shadow of a vertex set")
    s.add_argument("--graph", required=True)
    s.add_argument("--layer", default="G")
    s.add_argument("--set", required=True)
    s.add_argument("--ell", required=True)
    s.add_argument("--depth", type=int, default=1)
    s.set_defaults(func="cmd_shadow")

    s = sub.add_parser("split", help="seeded categorical vertex split")
    s.add_argument("--graph", required=True)
    s.add_argument("--q", required=True, help="comma-separated fractions")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func="cmd_split")

    s = sub.add_parser("check-regular", help="regular-pair certificate")
    s.add_argument("--graph", required=True)
    s.add_argument("--layer", default="G")
    s.add_argument("-U", required=True)
    s.add_argument("-W", required=True)
    s.add_argument("--eps", required=True)
    s.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    s.add_argument("--trials", type=int, default=2000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func="cmd_check_regular")

    s = sub.add_parser("find-spots", help="greedy dense cover")
    s.add_argument("--graph", required=True)
    s.add_argument("--layer", default="G")
    s.add_argument("-m", required=True)
    s.add_argument("--gamma", required=True)
    s.set_defaults(func="cmd_find_spots")

    s = sub.add_parser("clean", help="run a cleaning algorithm")
    s.add_argument("op", choices=["envelope", "cyellow", "cblack", "yellow",
                                  "match"])
    s.add_argument("--graph", required=True)
    s.add_argument("--layer", default="G")
    s.add_argument("--layers", default="G", help="per-level layers (yellow/match)")
    s.add_argument("--sets", required=True, help="slash-separated id lists")
    s.add_argument("--Y", default="")
    s.add_argument("--clusters", default="")
    s.add_argument("--partitions", default="")
    s.add_argument("--k", required=True)
    s.add_argument("--psi", default="1/10")
    s.add_argument("--Gamma", default="2")
    s.add_argument("--Omega", default="2")
    s.add_argument("--Omega2", default="1100")
    s.add_argument("--delta", default="1/100")
    s.add_argument("--gamma", default="1/2")
    s.add_argument("--eta", default="1/2")
    s.add_argument("--eps", default="1/100")
    s.add_argument("--mu", default="1")
    s.add_argument("--d", default="1/2")
    s.add_argument("--h", default="2")
    s.set_defaults(func="cmd_clean")

    s = sub.add_parser("hunt-config", help="run the configuration hunt")
    s.add_argument("instance_dir")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--force-case", choices=["huge", "k1", "k2", "matching",
                                            "wa"])
    s.add_argument("--out")
    s.set_defaults(func="cmd_hunt")

    s = sub.add_parser("verify-witness", help="check a witness file")
    s.add_argument("instance_dir")
    s.add_argument("witness")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func="cmd_verify_witness")

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except InputError as exc:
        print("structhunt: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
