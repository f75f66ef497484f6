"""The four benchmark workloads and the output check of every op.

Each workload is built from the benchmark seed into a working directory
(set-up) and then yields an endless, deterministic sequence of passes, each
a fixed list of ops.  The benchmark times whole passes only, so the mix of
ops it measures does not depend on where the time runs out.  An op is one
call into the program's public API or CLI; its check runs after it, outside
the timed region, and returns a failure text or None.

- ``hunt``: ``hunt-config`` on instance directories, then ``verify-witness``
  on every witness written.  Inputs are the 13 engineered wirings blown up
  by t (``blowup.py``) plus seeded random instances shaped like
  ``random_instance``.  ``split.txt`` is always given, so splitting is
  bypassed; every pair side is above the pipeline's exact cap, so exact
  regularity is bypassed too.
- ``split``: ``random_split`` + ``verify_split`` for successive split
  seeds on one seeded instance shaped like acceptance criterion 7, built
  once: query-heavy graphcore, the opposite use of the layer from ``hunt``.
- ``certify``: the exponential exact kernels, ``check_regular_pair`` in
  exact mode and ``certify_nowhere_dense``, on inputs whose answer is
  known by construction.
- ``clean-cut``: the five cleaning ops on the in-regime generators and
  ``fine_partition`` + ``validate_fine_partition`` on random trees, the two
  layers no other workload reaches at scale.

``SIZES["smoke"]`` shrinks every workload so the benchmark's own tests
check every metric and output check in seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

import answers
import blowup
import generators
from structhunt import cleaning, cli, regularity, splitting, spots, treecut
from structhunt.graphcore import LayeredGraph, norm_edge
from structhunt.regularity import RegularizedMatching
from structhunt.spots import DenseSpot

WORKLOADS = ("hunt", "split", "certify", "clean-cut")

SIZES = {
    "full": {
        "hunt_factors": (8, 16), "hunt_random": 6, "hunt_random_n": (200, 400),
        # criterion 7: n = 20000, k = 100, ~50k edges, 5 planted 60x60 spots,
        # 20 clusters of 200, 10 matching pairs of 150 + 150, 3 B-sets
        "split_n": 20000, "split_k": 100, "split_edges": 50000,
        "split_spots": 5, "split_spot_side": 60, "split_clusters": 20,
        "split_cluster_size": 200, "split_pairs": 10, "split_pair_side": 150,
        # exact pairs (|U|, |W|): the enumerated side U has 2^|U| masks;
        # the extra regular pair at the cap keeps four ops per pass in the
        # slowest class, so the tail percentile stays inside it
        "pair_sides": ((12, 14), (13, 15), (14, 16), (15, 17), (16, 18)),
        "regular_sides": ((16, 16),),
        "nd_n": 14, "nd_graphs": 3,
        "clean_rounds": 4, "tree_orders": (200, 1000), "tree_budgets": (1, 4, 16),
    },
    "smoke": {
        "hunt_factors": (1,), "hunt_random": 2, "hunt_random_n": (12, 28),
        # k and the spot side stay at criterion 7's values: the slack terms
        # of the splitting lemma grow with k, so a smaller k fails them
        "split_n": 3000, "split_k": 100, "split_edges": 8000,
        "split_spots": 2, "split_spot_side": 60, "split_clusters": 4,
        "split_cluster_size": 200, "split_pairs": 2, "split_pair_side": 150,
        "pair_sides": ((6, 8), (8, 12)),
        "regular_sides": ((8, 8),),
        "nd_n": 10, "nd_graphs": 2,
        "clean_rounds": 1, "tree_orders": (20, 50), "tree_budgets": (1, 4),
    },
}

SPLIT_Q = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
SPLIT_LAYERS = ("G", "G_exp", "G_D")
SPLIT_PASS_THRESHOLD = Fraction(95, 100)   # tests/test_acceptance.py, criterion 7
SPLIT_ALPHA = 0.001


@dataclass
class Op:
    """One timed call; ``check`` judges its result afterwards."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    prepare: Optional[Callable[[], None]] = None   # untimed, before ``call``


class Workload:
    """A built workload: deterministic passes of ops plus run-level checks.

    ``passes()`` starts the sequence afresh, so two calls yield the same
    ops; each pass it yields is an iterator of ops."""

    def __init__(self, name: str, passes: Callable[[], Iterator[Iterator[Op]]],
                 final_check: Callable[[], Optional[str]] = lambda: None):
        self.name = name
        self.passes = passes
        self.final_check = final_check


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate (and write) the inputs of a workload."""
    cfg = SIZES[size]
    rng = random.Random("%s/%d" % (name, seed))
    if name == "hunt":
        return _build_hunt(rng, seed, cfg, workdir)
    if name == "split":
        return _build_split(rng, cfg)
    if name == "certify":
        return _build_certify(rng, cfg)
    if name == "clean-cut":
        return _build_clean_cut(rng, cfg)
    raise ValueError("unknown workload %r" % name)


def _cycle(ops) -> Callable[[], Iterator[Iterator[Op]]]:
    def passes():
        while True:
            yield iter(ops)
    return passes


# -- hunt ---------------------------------------------------------------


def _cli(argv):
    """Run the CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _status_exit(text: str) -> Optional[int]:
    for line in text.splitlines():
        if line.startswith("status: "):
            return answers.EXIT_OF_STATUS.get(line[8:].strip())
    return None


def _witness_tag(path: Path) -> Optional[str]:
    if not path.is_file():
        return None
    first = path.read_text().splitlines()[0]
    return first.split(None, 1)[1] if first.startswith("config ") else "?"


def random_wiring(rng: random.Random, n: int) -> blowup.Wiring:
    """A wiring shaped like ``random_instance`` with n vertices."""
    G = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    exp = [e for e in G if rng.random() < 0.3]
    reg = [e for e in G if rng.random() < 0.3]
    H = frozenset(v for v in range(n) if rng.random() < 0.08)
    E = frozenset(v for v in range(n) if v not in H and rng.random() < 0.2)
    params = {"k": rng.randint(2, 4), "eta": Fraction(1, 2),
              "rho": Fraction(1, rng.choice([100, 1000])), "gamma": Fraction(1, 2),
              "omega_star": Fraction(10), "omega_sstar": Fraction(2)}
    verts = sorted(frozenset(range(n)) - H)
    rng.shuffle(verts)
    third = len(verts) // 3
    classes = (frozenset(verts[:third]), frozenset(verts[third:2 * third]),
               frozenset(verts[2 * third:])) + (frozenset(),) * 7
    empty = RegularizedMatching([], Fraction(1, 2), Fraction(0), 0)
    return blowup.Wiring(n, {"G": G, "G_exp": exp, "G_reg": reg}, H, E, (), (),
                         empty, empty, params, classes,
                         (Fraction(1, 3),) * 3 + (Fraction(0),) * 7)


def _build_hunt(rng, seed, cfg, workdir: Path) -> Workload:
    instances = []        # (label, directory, expected (exit, tag) or None)
    randoms = []
    low, high = cfg["hunt_random_n"]
    count = cfg["hunt_random"]
    for i in range(count):
        # one n per equal slice of [low, high], so every seed does about
        # the same amount of work
        n = low + (i * (high - low) + rng.randrange(high - low + 1)) // count
        path = blowup.write_instance(random_wiring(rng, n), workdir / ("random%d" % i))
        randoms.append(("random%d(n=%d)" % (i, n), path, None))
    spread = max(1, len(blowup.WIRINGS) // max(1, len(randoms)))
    for i, name in enumerate(blowup.WIRINGS):
        base = blowup.record_wiring(name)
        for t in cfg["hunt_factors"]:
            path = blowup.write_instance(blowup.blow_up(base, t),
                                         workdir / ("%s_t%d" % (name, t)))
            instances.append(("%s@t%d" % (name, t), path, answers.expected_hunt(name, t)))
        if i % spread == spread - 1 and randoms:
            instances.append(randoms.pop(0))
    instances.extend(randoms)
    s = str(seed)

    def hunt_op(label, path, expected, last):
        run = path / "run"

        def check(result):
            code, text = result
            if _status_exit(text) != code:
                return "exit %s disagrees with %r" % (code, text.splitlines()[:1])
            tag = _witness_tag(run / "witness.txt")
            if expected is not None and (code, tag) != expected:
                return "got exit %s tag %s, expected %s" % (code, tag, expected)
            last["code"] = code
            return None

        return Op("hunt-config " + label,
                  lambda: _cli(["hunt-config", str(path), "--seed", s, "--out", str(run)]),
                  check, prepare=lambda: shutil.rmtree(run, ignore_errors=True))

    def verify_op(label, path, last):
        witness = path / "run" / "witness.txt"

        def check(result):
            code, _text = result
            want = answers.expected_verify(last["code"])
            return None if code == want else "verify exit %s, expected %s" % (code, want)

        return Op("verify-witness " + label,
                  lambda: _cli(["verify-witness", str(path), str(witness), "--seed", s]),
                  check)

    def one_pass():
        for label, path, expected in instances:
            last = {"code": None}
            yield hunt_op(label, path, expected, last)
            if (path / "run" / "witness.txt").is_file():
                yield verify_op(label, path, last)

    def passes():
        while True:
            yield one_pass()

    return Workload("hunt", passes)


# -- split --------------------------------------------------------------


def split_instance(rng: random.Random, cfg):
    """Seeded instance shaped like ``calibrate_split.build_calibration_instance``."""
    n, k, side = cfg["split_n"], cfg["split_k"], cfg["split_spot_side"]
    edges = set()
    spot_list = []
    base = 0
    for _ in range(cfg["split_spots"]):
        U = list(range(base, base + side))
        W = list(range(base + side, base + 2 * side))
        base += 2 * side
        F = [(u, v) for u in U for v in W if rng.random() < 0.6]
        spot_list.append(DenseSpot(U, W, F, Fraction(1, 2) * k, Fraction(1, 2)))
        edges.update(F)
    while len(edges) < cfg["split_edges"]:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(norm_edge(u, v))
    exp = {e for e in edges if rng.random() < 0.2}
    gd = {e for e in edges if rng.random() < 0.3}
    g = LayeredGraph(n, {"G": edges, "G_exp": exp, "G_D": gd})
    size = cfg["split_cluster_size"]
    first = base + size
    clusters = [frozenset(range(first + i * size, first + (i + 1) * size))
                for i in range(cfg["split_clusters"])]
    half = cfg["split_pair_side"]
    start = first + cfg["split_clusters"] * size + size
    matching = RegularizedMatching(
        [(frozenset(range(start + i * 2 * half, start + i * 2 * half + half)),
          frozenset(range(start + i * 2 * half + half, start + (i + 1) * 2 * half)))
         for i in range(cfg["split_pairs"])], Fraction(1, 4), Fraction(1, 2), k)
    Bs = [frozenset(v for v in range(n) if rng.random() < 0.3) for _ in range(3)]
    return g, clusters, matching, spot_list, Bs, k


def binomial_cdf(x: int, n: int, p: float) -> float:
    """P(X <= x) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(x + 1))


def _build_split(rng, cfg) -> Workload:
    g, clusters, matching, spot_list, Bs, k = split_instance(rng, cfg)
    target = g.vertices()
    first_seed = rng.randrange(10 ** 6)
    tally = {"attempts": 0, "passes": 0}

    def op(split_seed):
        def call():
            split = splitting.random_split(g, target, SPLIT_Q, split_seed)
            rep = splitting.verify_split(split, g, layers=list(SPLIT_LAYERS),
                                         spots=spot_list, matching=matching,
                                         clusters=clusters, Bs=Bs, k=k,
                                         gamma=Fraction(1, 2))
            return split, rep

        def check(result):
            split, rep = result
            tally["attempts"] += 1
            tally["passes"] += bool(rep.ok)
            if split.fractions != SPLIT_Q or len(split.classes) != len(SPLIT_Q):
                return "split has fractions %s" % (split.fractions,)
            if sum(len(c) for c in split.classes) != len(target) or \
                    frozenset().union(*split.classes) != target:
                return "classes do not partition the target"
            return None

        return Op("split seed %d" % split_seed, call, check)

    def passes():
        # a pass is one split seed; successive passes take successive seeds
        i = 0
        while True:
            yield iter([op(first_seed + i)])
            i += 1

    def final_check():
        """Pass share against the committed 95/100, as a one-sided binomial
        test: a run sees a few dozen split seeds, not the calibration's 100."""
        n, x = tally["attempts"], tally["passes"]
        if n and binomial_cdf(x, n, float(SPLIT_PASS_THRESHOLD)) < SPLIT_ALPHA:
            return "split pass share %d/%d is below %s (p < %s)" % (
                x, n, SPLIT_PASS_THRESHOLD, SPLIT_ALPHA)
        return None

    return Workload("split", passes, final_check)


# -- certify ------------------------------------------------------------


def _pair_graph(u_side, w_side, edges):
    U = frozenset(range(u_side))
    W = frozenset(range(u_side, u_side + w_side))
    return LayeredGraph(u_side + w_side, {"G": edges}), U, W


def _min_side(eps: Fraction, size: int) -> int:
    return math.ceil(eps * size)


def check_irregular_witness(g, U, W, eps, cert) -> Optional[str]:
    """Recheck an irregularity witness with g.density and exact integers."""
    if cert.witness is None:
        return "irregular verdict without a witness"
    Up, Wp, d_sub = cert.witness
    if not (Up <= U and Wp <= W):
        return "witness leaves the pair"
    # |U'| >= eps |U| and |W'| >= eps |W|, cleared of denominators
    p, q = eps.numerator, eps.denominator
    if len(Up) * q < p * len(U) or len(Wp) * q < p * len(W):
        return "witness sides below eps"
    if g.density("G", Up, Wp) != d_sub:
        return "witness density %s, graph says %s" % (d_sub, g.density("G", Up, Wp))
    if abs(d_sub - g.density("G", U, W)) < eps:
        return "witness deviation below eps"
    return None


def check_spot(g, m, gamma, spot) -> Optional[str]:
    """Recheck a found spot: its edges, minimum degree and density."""
    if not spot.F <= g.edges("G"):
        return "spot edges outside the graph"
    if any(not ((u in spot.U and v in spot.W) or (u in spot.W and v in spot.U))
           for u, v in spot.F):
        return "spot edge not between its sides"
    if min(spot.degree(v) for v in spot.vertices()) <= m:
        return "spot minimum degree <= m"
    if Fraction(len(spot.F), len(spot.U) * len(spot.W)) <= gamma:
        return "spot density <= gamma"
    return None


def _pair_op(kind, g, U, W, eps):
    """check_regular_pair in exact mode; answers known by construction."""
    want = "exact-irregular" if kind == "planted" else "exact-regular"

    def check(cert):
        if cert.verdict != want:
            return "verdict %s, expected %s" % (cert.verdict, want)
        return check_irregular_witness(g, U, W, eps, cert) if kind == "planted" else None

    return Op("pair %s %dx%d" % (kind, len(U), len(W)),
              lambda: regularity.check_regular_pair(g, "G", U, W, eps, mode="exact"),
              check)


def _forest_edges(rng, vertices):
    """A random forest: each vertex after the first joins an earlier one or
    starts a new tree."""
    edges = []
    for i, v in enumerate(vertices[1:], start=1):
        if rng.random() < 0.8:
            edges.append(norm_edge(v, vertices[rng.randrange(i)]))
    return edges


def _nd_op(kind, g, m, gamma):
    def check(rep):
        if kind == "forest":
            return None if rep.ok and rep.spot is None else "spot reported in a forest"
        if rep.ok or rep.spot is None:
            return "planted K_{m+1,m+1} not found"
        return check_spot(g, m, gamma, rep.spot)

    return Op("nowhere-dense %s n=%d m=%d" % (kind, g.n, m),
              lambda: spots.certify_nowhere_dense(g, "G", m, gamma, mode="exact"),
              check)


def _regular_ops(u_side, w_side, eps):
    """A complete and an empty pair: every sub-density equals the density."""
    complete = [(u, w) for u in range(u_side) for w in range(u_side, u_side + w_side)]
    return [_pair_op("complete", *_pair_graph(u_side, w_side, complete), eps),
            _pair_op("empty", *_pair_graph(u_side, w_side, []), eps)]


def _build_certify(rng, cfg) -> Workload:
    ops = []
    eps = Fraction(1, 4)
    for u_side, w_side in cfg["pair_sides"]:
        ops.extend(_regular_ops(u_side, w_side, eps))
        # One planted pair per size: a complete block of ceil(eps|U|) x
        # ceil(eps|W|) has density 1, and with a tenth of the other pairs as
        # noise the pair density stays below 1 - eps, so the block is a
        # violation.  The block sits on the first vertices of each side, so
        # the early exit costs the same for every seed; the seed draws the
        # noise.
        us = range(_min_side(eps, u_side))
        ws = range(u_side, u_side + _min_side(eps, w_side))
        block = {(u, w) for u in us for w in ws}
        rest = [(u, w) for u in range(u_side) for w in range(u_side, u_side + w_side)
                if (u, w) not in block]
        noise = rng.sample(rest, len(rest) // 10)
        ops.append(_pair_op("planted", *_pair_graph(u_side, w_side, sorted(block) + noise),
                            eps))
    for u_side, w_side in cfg["regular_sides"]:
        ops.extend(_regular_ops(u_side, w_side, eps))
    n = cfg["nd_n"]
    for _ in range(cfg["nd_graphs"]):
        m = rng.randint(1, 3)
        gamma = Fraction(1, 2)
        verts = list(range(n))
        rng.shuffle(verts)
        ops.append(_nd_op("forest", LayeredGraph(n, {"G": _forest_edges(rng, verts)}),
                          m, gamma))
        side = m + 1
        A, B, rest = verts[:side], verts[side:2 * side], verts[2 * side:]
        edges = [norm_edge(a, b) for a in A for b in B] + _forest_edges(rng, rest)
        ops.append(_nd_op("planted", LayeredGraph(n, {"G": edges}), m, gamma))
    return Workload("certify", _cycle(ops))


# -- clean-cut ----------------------------------------------------------


def _cleaning_ops(seed):
    """The five cleaning ops on the in-regime generators for one seed.

    Each check requires the hypothesis and conclusion reports to pass and a
    second pass over the output to remove nothing."""
    ops = []

    g, P, Q, Y, psi, Gamma, Omega, k = generators.envelope_instance(seed)

    def env_check(res):
        Pp, _Qp, Qpp, rep = res
        again = cleaning.envelope(g, "G", Pp, Qpp, frozenset(), psi, Gamma, Omega,
                                  k)[-1] if Pp and Qpp else None
        return _report_failure(rep, again)

    ops.append(Op("envelope seed %d" % seed,
                  lambda: cleaning.envelope(g, "G", P, Q, Y, psi, Gamma, Omega, k),
                  env_check))

    cy = generators.c_plus_yellow_instance(seed)

    def cy_call(cy=cy):
        g, sets, Y, r, os_, oss, delta, gamma, eta, k = cy
        return cleaning.clean_c_plus_yellow(g, "G", sets, Y, r, os_, oss, delta,
                                            gamma, eta, k)

    def cy_check(res, cy=cy):
        g, _sets, _Y, r, os_, oss, delta, gamma, eta, k = cy
        Xp, rep = res
        again = cleaning.clean_c_plus_yellow(g, "G", list(Xp), frozenset(), r, os_,
                                             oss, delta, gamma, eta, k)
        return _report_failure(rep, again[-1])

    ops.append(Op("cyellow seed %d" % seed, cy_call, cy_check))

    cb = generators.c_plus_black_instance(seed)

    def cb_call(cb=cb):
        g, X0, X1, Y, clusters, delta, eta, os_, oss, h, k = cb
        return cleaning.clean_c_plus_black(g, "G", X0, X1, Y, clusters, delta, eta,
                                           os_, oss, h, k)

    def cb_check(res, cb=cb):
        g, _X0, _X1, _Y, clusters, delta, eta, os_, oss, h, k = cb
        X0p, X1p, rep = res
        again = cleaning.clean_c_plus_black(g, "G", X0p, X1p, frozenset(), clusters,
                                            delta, eta, os_, oss, h, k)
        return _report_failure(rep, again[-1])

    ops.append(Op("cblack seed %d" % seed, cb_call, cb_check))

    ye = generators.yellow_instance(seed)

    def ye_call(ye=ye):
        g, names, sets, Y, r, omega, gamma, delta, eta, k = ye
        return cleaning.clean_yellow(g, names, sets, Y, r, omega, gamma, delta, eta, k)

    def ye_check(res, ye=ye):
        g, names, _sets, _Y, r, omega, gamma, delta, eta, k = ye
        Xp, rep = res
        again = cleaning.clean_yellow(g, names, list(Xp), frozenset(), r, omega,
                                      gamma, delta, eta, k)
        return _report_failure(rep, again[-1])

    ops.append(Op("yellow seed %d" % seed, ye_call, ye_check))

    ma = generators.match_instance(seed, pair_count=2, side=8, density=1.0)

    def ma_call(ma=ma):
        g, names, sets, Y, parts, r, omega, gamma, eta, delta, eps, mu, d, k = ma
        return cleaning.clean_match(g, names, sets, Y, parts, r, omega, gamma, eta,
                                    delta, eps, mu, d, k)

    def ma_check(res, ma=ma):
        g, names, _sets, _Y, _parts, r, omega, gamma, eta, delta, eps, mu, d, k = ma
        qpairs, Xp, rep = res
        again = cleaning.clean_match(g, names, list(Xp), frozenset(), qpairs, r,
                                     omega, gamma, eta, delta, eps, mu, d, k)
        return _report_failure(rep, again[-1])

    ops.append(Op("match seed %d" % seed, ma_call, ma_check))
    return ops


def _report_failure(rep, second) -> Optional[str]:
    if not rep.hypotheses.ok:
        return "hypotheses failed: %s" % rep.hypotheses.failures()[0].item
    if not rep.conclusions.ok:
        return "conclusion failed: %s" % rep.conclusions.failures()[0].item
    if second is not None and second.trace:
        return "second pass removed %d" % len(second.trace)
    return None


def _tree_op(tree, budget):
    def call():
        fp = treecut.fine_partition(tree, budget)
        return fp, treecut.validate_fine_partition(fp)

    def check(res):
        fp, rep = res
        if not rep.ok:
            return "fine partition invalid: %s" % rep.failures()[0].item
        if fp.t_int + fp.t_end + len(fp.W) != tree.k:
            return "t_int + t_end + |W| != k"
        return None

    return Op("fine_partition k=%d budget=%d" % (tree.k, budget), call, check)


def _build_clean_cut(rng, cfg) -> Workload:
    ops = []
    for _ in range(cfg["clean_rounds"]):
        ops.extend(_cleaning_ops(rng.randrange(10 ** 6)))
    for k in cfg["tree_orders"]:
        for budget in cfg["tree_budgets"]:
            ops.append(_tree_op(treecut.random_tree(k, rng.randrange(10 ** 6)), budget))
    return Workload("clean-cut", _cycle(ops))
