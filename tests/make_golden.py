"""Golden output bytes for the hunt and the configuration checkers.

The golden set pins, byte for byte, what the program prints for fixed
inputs:

- for each pipeline builder of pipeline_instances (and random_instance for
  seeds 0-11, hunted with seed=seed): the hunt's outcome.txt and, when a
  witness exists, its witness.txt;
- for each configuration fixture of fixtures.BUILDERS, plain and spoiled:
  the rendered checker report and the witness file;
- for each of the five cleaning operations, on the in-regime generators of
  generators.py and on random out-of-regime inputs (seeds 0-29): the
  rendered CleaningReport, the full removal trace and the sizes of the
  returned sets.

test_golden.py compares these bytes with the files under tests/golden/.
Running this module directly rewrites those files; golden bytes change
only in a change that says why in CHANGES.md.
"""

from __future__ import annotations

import random
import shutil
from fractions import Fraction
from pathlib import Path

import fixtures
import generators
import pipeline_instances
from structhunt import cleaning
from structhunt.configurations import (PRECONFIG_TAGS, verify_configuration,
                                       verify_preconfiguration)
from structhunt.exactmath import RootVal
from structhunt.fileio import dump_witness
from structhunt.pipeline import hunt_configuration
from util import random_graph

GOLDEN_DIR = Path(__file__).parent / "golden"
RANDOM_SEEDS = range(12)
CLEANING_SEEDS = range(30)


def _hunts():
    """(name, bundle, split, seed) for every pipeline instance."""
    for name in sorted(dir(pipeline_instances)):
        if name.endswith("_instance") and name != "random_instance":
            b, split = getattr(pipeline_instances, name)()
            yield name[:-len("_instance")], b, split, 0
    for seed in RANDOM_SEEDS:
        b, split = pipeline_instances.random_instance(seed)
        yield "random_%02d" % seed, b, split, seed


def golden_files() -> dict:
    """Relative path -> text of every golden file."""
    files = {}
    for name, b, split, seed in _hunts():
        out = hunt_configuration(b, split, seed=seed)
        files["hunt_%s/outcome.txt" % name] = out.dump()
        if out.witness is not None:
            files["hunt_%s/witness.txt" % name] = dump_witness(
                out.witness, out.config_params)
    for tag in sorted(fixtures.BUILDERS):
        for spoil in (False, True):
            b, split, w, cp = fixtures.build(tag, spoil)
            check = verify_preconfiguration if tag in PRECONFIG_TAGS \
                else verify_configuration
            name = "config_%s%s" % (tag, "_spoil" if spoil else "")
            files["%s/report.txt" % name] = check(w, b, split, cp).render() + "\n"
            files["%s/witness.txt" % name] = dump_witness(w, cp)
    files.update(cleaning_files())
    return files


def _in_regime(seed):
    """op name -> call of that op on its in-regime generator for seed."""
    g, P, Q, Y, psi, Gamma, Omega, k = generators.envelope_instance(seed)
    yield "envelope", lambda: cleaning.envelope(g, "G", P, Q, Y, psi, Gamma,
                                                Omega, k)
    cy = generators.c_plus_yellow_instance(seed)
    yield "c_plus_yellow", lambda: cleaning.clean_c_plus_yellow(cy[0], "G", *cy[1:])
    cb = generators.c_plus_black_instance(seed)
    yield "c_plus_black", lambda: cleaning.clean_c_plus_black(cb[0], "G", *cb[1:])
    ye = generators.yellow_instance(seed)
    yield "yellow", lambda: cleaning.clean_yellow(*ye)
    ma = generators.match_instance(seed, pair_count=2, side=8, density=1.0)
    yield "match", lambda: cleaning.clean_match(*ma)


def _out_of_regime(seed):
    """op name -> call of that op on a random graph with random sets and
    parameters, chosen so that every discard condition fires on some seed."""
    rng = random.Random(7919 + seed)
    n = 30
    g = random_graph(n, rng.choice([0.2, 0.35, 0.5]), seed)
    es = sorted(g.edges("G"))
    g = g.with_layer("E1", [e for e in es if rng.random() < 0.6]) \
         .with_layer("E2", [e for e in es if rng.random() < 0.6])
    order = list(range(n))
    rng.shuffle(order)
    A, B, C = frozenset(order[:7]), frozenset(order[7:21]), frozenset(order[21:])
    Y = frozenset(rng.sample(sorted(B), rng.randint(0, 3)))
    k = rng.randint(1, 3)
    yield "envelope", lambda: cleaning.envelope(
        g, "G", A, B, Y if seed % 2 else frozenset(), Fraction(rng.randint(1, 6), 10),
        rng.randint(1, 3), rng.randint(1, 40), k)
    root = rng.randint(2, 4)
    oss = RootVal(root * root) if rng.random() < 0.5 else Fraction(root * root + 1)
    yield "c_plus_yellow", lambda: cleaning.clean_c_plus_yellow(
        g, "G-E2", [A, B, C], Y, 2, rng.randint(1, 4), oss,
        Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 6)), Fraction(1, 2), k)
    xs = sorted(B)
    clusters = [frozenset(xs[0:5]), frozenset(xs[5:8]), frozenset(xs[8:14])]
    yield "c_plus_black", lambda: cleaning.clean_c_plus_black(
        g, "G", A, B, Y, clusters, Fraction(rng.randint(1, 4)), Fraction(1, 2),
        rng.randint(1, 4), oss, rng.choice([2, 3, 4, RootVal(10)]), k)
    yield "yellow", lambda: cleaning.clean_yellow(
        g, ["E1", "E1+E2"], [A, B, C], Y, 2, 3, Fraction(rng.randint(1, 6)),
        Fraction(rng.randint(1, 4)), Fraction(1, 2), k)
    pairs = [(frozenset(order[0:4]), frozenset(order[7:11])),
             (frozenset(order[4:7]), frozenset(order[11:14]))]
    X1 = frozenset(order[7:14])
    yield "match", lambda: cleaning.clean_match(
        g, ["E1", "E2"], [A, X1, C], Y | frozenset(rng.sample(sorted(A), 2)),
        pairs, 2, 3, Fraction(rng.randint(1, 6)), Fraction(1, 2),
        Fraction(rng.randint(1, 3)), Fraction(1, 24), Fraction(1, 2),
        Fraction(1, 4), k)


def _fmt_result(x) -> str:
    """Sets by size only: the trace already names every vertex removed."""
    if isinstance(x, (frozenset, set)):
        return "#%d" % len(x)
    if isinstance(x, (tuple, list)):
        return "(%s)" % " ".join(_fmt_result(y) for y in x)
    return str(x)


def cleaning_files() -> dict:
    """Relative path -> text of one golden file per cleaning operation."""
    blocks = {}
    for seed in CLEANING_SEEDS:
        for regime, cases in (("in", _in_regime(seed)), ("out", _out_of_regime(seed))):
            for op, call in cases:
                *sets, rep = call()
                lines = ["### seed %d %s-regime" % (seed, regime), rep.render()]
                lines += ["%s %s %s" % step for step in rep.trace]
                lines.append("result %s" % _fmt_result(sets))
                if op == "match":
                    lines.append("flushed %s" % rep.flushed_pairs)
                    lines.append("evictions %s" % _fmt_result(rep.evictions))
                blocks.setdefault(op, []).append("\n".join(lines))
    return {"cleaning/%s.txt" % op: "\n\n".join(b) + "\n"
            for op, b in blocks.items()}


if __name__ == "__main__":
    files = golden_files()
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    for rel, text in sorted(files.items()):
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print("wrote %d golden files under %s" % (len(files), GOLDEN_DIR))
