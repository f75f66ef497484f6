"""Blow-ups of the engineered pipeline wirings, written as instance dirs.

The t-fold blow-up replaces every vertex v by the t copies v*t .. v*t+t-1
and every edge by the complete bipartite graph K_{t,t} between the copies
of its ends, in every layer and in every spot's edge set.  Vertex sets (H,
E, clusters, spot sides, matching members, split classes) become the union
of their copies.  Degrees scale by t, so the parameter k, every spot's m
and every matching's ell are multiplied by t; the rational parameters stay.

The wirings are read from ``tests/pipeline_instances.py`` by recording the
arguments each builder passes to ``assemble``; the builders are not edited.
Instance directories are written with the ``dump_*`` functions of the
package, so the files are exactly what ``hunt-config`` parses.

Run ``python3 perfbench/blowup.py --check 1 16`` to hunt every wiring in
memory and through its written directory, require byte-identical
``outcome.txt``, and list each wiring whose verdict differs from t = 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import env  # noqa: E402

env.require_program()

import pipeline_instances  # noqa: E402
from structhunt import cli  # noqa: E402
from structhunt.decomposition import (BoundedDecomposition, Params,  # noqa: E402
                                      SparseDecomposition)
from structhunt.fileio import (dump_decomposition, dump_matching,  # noqa: E402
                               dump_params, dump_split)
from structhunt.graphcore import LayeredGraph, dump_graph  # noqa: E402
from structhunt.lks import derive_common_sets  # noqa: E402
from structhunt.pipeline import hunt_configuration  # noqa: E402
from structhunt.regularity import RegularizedMatching  # noqa: E402
from structhunt.splitting import Split  # noqa: E402
from structhunt.spots import DenseCover, DenseSpot  # noqa: E402

# The 13 engineered wirings (random_instance is seeded, not engineered).
WIRINGS = ("d1", "exp", "wa_t1", "k2", "unmet", "t5", "huge_b", "cb_t5",
           "huge_i2", "huge_i3", "huge_i4", "wa_t2", "wa_t3")


@dataclass
class Wiring:
    """The raw arguments of ``assemble`` plus the split classes."""

    n: int
    layers: dict                      # name -> edge list, "G" included
    H: frozenset = frozenset()
    E: frozenset = frozenset()
    clusters: tuple = ()
    spots: tuple = ()
    MA: RegularizedMatching = None
    MB: RegularizedMatching = None
    params: dict = field(default_factory=dict)
    split_classes: tuple = ()
    fractions: tuple = ()

    def graph(self) -> LayeredGraph:
        return LayeredGraph(self.n, self.layers)

    def decomposition(self, g: LayeredGraph) -> SparseDecomposition:
        bd = BoundedDecomposition(list(self.clusters), DenseCover(list(self.spots)),
                                  "G_reg", "G_exp", self.E, [g.vertices()])
        return SparseDecomposition(self.H, bd)

    def split(self) -> Split:
        target = frozenset(range(self.n)) - self.H
        return Split(target, self.split_classes, self.fractions, seed=0)


def _empty_matching() -> RegularizedMatching:
    return RegularizedMatching([], Fraction(1, 2), Fraction(0), 0)


def record_wiring(name: str) -> Wiring:
    """Call the builder ``<name>_instance`` and capture what it assembles."""
    captured = {}
    real = pipeline_instances.assemble

    def recording(n, G, layers, H=frozenset(), E=frozenset(), clusters=(),
                  spots=(), MA=None, MB=None, **pkw):
        captured.update(n=n, G=list(G), layers={k: list(v) for k, v in layers.items()},
                        H=frozenset(H), E=frozenset(E), clusters=tuple(clusters),
                        spots=tuple(spots), MA=MA, MB=MB, params=dict(pkw))
        return real(n, G, layers, H=H, E=E, clusters=clusters, spots=spots,
                    MA=MA, MB=MB, **pkw)

    pipeline_instances.assemble = recording
    try:
        _bundle, split = getattr(pipeline_instances, name + "_instance")()
    finally:
        pipeline_instances.assemble = real
    layers = {"G": captured["G"]}
    layers.update(captured["layers"])
    return Wiring(captured["n"], layers, captured["H"], captured["E"],
                  captured["clusters"], captured["spots"],
                  captured["MA"] or _empty_matching(),
                  captured["MB"] or _empty_matching(), captured["params"],
                  tuple(split.classes), tuple(split.fractions))


def blow_up(w: Wiring, t: int) -> Wiring:
    """The t-fold blow-up of a wiring (t = 1 returns an equal copy)."""
    if t < 1:
        raise ValueError("blow-up factor must be positive")

    def vs(X):
        return frozenset(v * t + i for v in X for i in range(t))

    def es(edges):
        return [(u * t + i, v * t + j) for u, v in edges
                for i in range(t) for j in range(t)]

    def matching(m: RegularizedMatching) -> RegularizedMatching:
        return RegularizedMatching([(vs(a), vs(b)) for a, b in m.pairs],
                                   m.eps, m.d, m.ell * t, m.layer)

    params = dict(w.params)
    params["k"] = params["k"] * t
    spots = tuple(DenseSpot(vs(s.U), vs(s.W), es(s.F), s.m * t, s.gamma)
                  for s in w.spots)
    return Wiring(w.n * t, {name: es(e) for name, e in w.layers.items()},
                  vs(w.H), vs(w.E), tuple(vs(C) for C in w.clusters), spots,
                  matching(w.MA), matching(w.MB), params,
                  tuple(vs(C) for C in w.split_classes), w.fractions)


def write_instance(w: Wiring, path: Path) -> Path:
    """Write graph, params, decomposition, matchings and split files."""
    path.mkdir(parents=True, exist_ok=True)
    g = w.graph()
    (path / "graph.txt").write_text(dump_graph(g))
    (path / "params.txt").write_text(dump_params(Params(**w.params)))
    (path / "decomposition.txt").write_text(dump_decomposition(w.decomposition(g)))
    for fname, m in (("matching_a.txt", w.MA), ("matching_b.txt", w.MB)):
        if m.pairs:
            (path / fname).write_text(dump_matching(m))
    (path / "split.txt").write_text(dump_split(w.split()))
    return path


def hunt_in_memory(w: Wiring, seed: int):
    """The hunt on the in-memory wiring, as ``assemble`` would set it up."""
    g = w.graph()
    b = derive_common_sets(g, w.decomposition(g), Params(**w.params), w.MA, w.MB)
    return hunt_configuration(b, w.split(), seed)


def check(factors, seed: int = 0) -> int:
    """Hunt each wiring at each factor in memory and via its directory.

    Prints one line per (wiring, t) and returns the number of byte
    mismatches between the in-memory outcome and the written outcome.txt.
    Verdict changes against the first factor are listed, not tuned.
    """
    mismatches = 0
    changed = []
    work = env.ROOT / ".perfbench" / ("blowup-check-%d" % os.getpid())
    try:
        for name in WIRINGS:
            base = record_wiring(name)
            first = None
            for t in factors:
                w = blow_up(base, t)
                mem = hunt_in_memory(w, seed)
                inst = write_instance(w, work / ("%s_t%d" % (name, t)))
                run = inst / "run"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["hunt-config", str(inst), "--seed", str(seed),
                                     "--out", str(run)])
                disk = (run / "outcome.txt").read_text()
                same = disk == mem.dump()
                mismatches += not same
                tag = mem.witness.tag if mem.witness is not None else "-"
                verdict = (mem.status, tag)
                first = first or verdict
                print("%-8s t=%-3d n=%-5d status=%-16s tag=%-5s exit=%d bytes=%s"
                      % (name, t, w.n, mem.status, tag, code,
                         "same" if same else "DIFFER"))
                if verdict != first:
                    changed.append("%s at t=%d: %s/%s -> %s/%s"
                                   % (name, t, first[0], first[1], *verdict))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("verdict changes under blow-up: %s"
          % ("; ".join(changed) if changed else "none"))
    print("outcome.txt mismatches: %d" % mismatches)
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", type=int, nargs="+", metavar="T", required=True,
                    help="blow-up factors to hunt and compare (first is the reference)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    return 1 if check(args.check, args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
