"""External span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of each
layer module and the methods of ``LayeredGraph``.  Because ``pipeline``,
``cli``, ``configurations``, ``lks`` and ``decomposition`` import names with
``from .x import y``, it also rebinds every ``structhunt.*`` module attribute
that points at a wrapped function.  ``uninstall`` restores all of them.

Each call made while the tracer is recording is one span: name, start, end,
parent span and op id.  Every span is kept in memory and written as JSON at
the end.
Self time of a span is its duration minus the time of the wrapped spans
nested directly inside it, so a layer's self time excludes the other
layers it calls into.  ``exactmath``, ``report`` and ``rng`` are never
wrapped: their time counts toward their callers.

The program has no queues or threads, so no layer ever waits; the report
says so instead of omitting wait time silently.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("graphcore", "fileio", "lks", "decomposition", "shadows",
          "regularity", "spots", "splitting", "cleaning", "configurations",
          "pipeline", "treecut", "cli")

# Per-element helpers called once per edge or vertex: wrapping them would
# measure the tracer, not the program.  Their time counts toward callers.
UNWRAPPED = {("graphcore", "norm_edge"), ("graphcore", "fmt_vertex_set"),
             ("graphcore", "parse_vertex_set")}

GRAPH_BUILD = ("__init__", "with_layer")
GRAPH_QUERY = ("has_layer", "edges", "adj", "vertices", "deg", "mindeg",
               "maxdeg", "e_induced", "e_ordered", "pair_counts", "density",
               "neighbourhood")

# (layer, function) -> span group; other public functions of a layer fall
# into "<layer>.busy".
GROUPS = {
    ("graphcore", "load_graph"): "graphcore.build",
    ("lks", "derive_common_sets"): "lks.derive",
    ("spots", "clean_spots"): "spots.clean",
    ("spots", "is_dense_spot"): "spots.check",
    ("spots", "check_avoiding"): "spots.check",
    ("splitting", "random_split"): "splitting.draw",
    ("splitting", "proportional_split"): "splitting.draw",
    ("splitting", "verify_split"): "splitting.verify",
    ("splitting", "restrict_matching"): "splitting.restrict",
    ("cleaning", "envelope"): "cleaning.envelope",
    ("cleaning", "clean_c_plus_yellow"): "cleaning.cyellow",
    ("cleaning", "clean_c_plus_black"): "cleaning.cblack",
    ("cleaning", "clean_yellow"): "cleaning.yellow",
    ("cleaning", "clean_match"): "cleaning.match",
    ("configurations", "verify_configuration"): "configurations.verify",
    ("configurations", "verify_preconfiguration"): "configurations.verify",
    ("treecut", "fine_partition"): "treecut.partition",
    ("treecut", "validate_fine_partition"): "treecut.validate",
}

# Parsers whose first argument is file text (for fileio.bytes_parsed).
PARSERS = {("fileio", name) for name in ("parse_params", "parse_spot_line",
                                         "parse_decomposition", "parse_matching",
                                         "parse_split", "parse_witness")}
PARSERS.add(("graphcore", "load_graph"))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Wraps the package, records spans while ``recording`` is true."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self.op_id = None
        self._stack = []            # [span id, child time] per open span
        self._next_id = 0
        self.calls = defaultdict(int)        # per function label
        self.group_calls = defaultdict(int)  # per span group
        self.self_s = defaultdict(float)     # per span group
        self.counts = defaultdict(int)
        self._adj_seen = weakref.WeakKeyDictionary()
        self._restore = []          # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from structhunt.graphcore import LayeredGraph

        self._edges = LayeredGraph.edges    # unwrapped, for edges_scanned
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module("structhunt." + layer)
            for name, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name.startswith("_") or (layer, name) in UNWRAPPED):
                    continue
                originals[fn] = self._wrap(fn, layer, name)
        for name in GRAPH_BUILD + GRAPH_QUERY:
            fn = getattr(LayeredGraph, name)
            self._restore.append((LayeredGraph, name, fn))
            setattr(LayeredGraph, name, self._wrap(fn, "graphcore", name))
        for modname, mod in list(sys.modules.items()):
            if modname != "structhunt" and not modname.startswith("structhunt."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, originals[val])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _group(self, layer, name, args, kwargs, result) -> str:
        """Span group of a finished call (``result`` is None if it raised)."""
        if layer == "graphcore" and name in GRAPH_QUERY:
            return "graphcore.query"
        if layer == "regularity" and name == "check_regular_pair":
            # an exact-mode call above the side cap enumerates nothing
            if result is not None and result.verdict == "indeterminate":
                return "regularity.indeterminate"
            mode = _arg(args, kwargs, 5, "mode", "exact")
            return "regularity.exact" if mode == "exact" else "regularity.sampled"
        if layer == "spots" and name == "certify_nowhere_dense":
            mode = _arg(args, kwargs, 4, "mode", "exact")
            return "spots.exact" if mode == "exact" else "spots.busy"
        if layer == "graphcore" and name in GRAPH_BUILD:
            return "graphcore.build"
        return GROUPS.get((layer, name), layer + ".busy")

    def _wrap(self, fn, layer, name):
        tracer = self
        label = "%s.%s" % (layer, name)
        count = self._counter(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                group = tracer._group(layer, name, args, kwargs, result)
                tracer.calls[label] += 1
                tracer.group_calls[group] += 1
                tracer.self_s[group] += duration - frame[1]
                tracer.spans.append((span_id, label, start, end, parent,
                                     tracer.op_id))
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, layer, name):
        """Work counter run after a successful call, or None."""
        counts = self.counts
        if (layer, name) in PARSERS:
            def parsed(args, kwargs, result):
                counts["fileio.bytes_parsed"] += len(args[0])
            return parsed
        if (layer, name) == ("graphcore", "__init__"):
            def built(args, kwargs, result):
                g = args[0]
                counts["graphcore.edges_built"] += sum(len(e) for e in g.layers.values())
            return built
        if (layer, name) == ("graphcore", "adj"):
            seen_by_graph = self._adj_seen

            def adj(args, kwargs, result):
                g = args[0]
                spec = _arg(args, kwargs, 1, "layer", "G")
                key = spec if isinstance(spec, str) else spec.key()
                seen = seen_by_graph.setdefault(g, set())
                if key in seen:
                    counts["graphcore.adj_repeat"] += 1
                else:
                    seen.add(key)
            return adj
        if (layer, name) == ("regularity", "check_regular_pair"):
            def pair(args, kwargs, result):
                mode = _arg(args, kwargs, 5, "mode", "exact")
                if mode == "exact" and result.verdict != "indeterminate":
                    U = _arg(args, kwargs, 2, "U")
                    counts["regularity.exact_masks"] += 1 << len(frozenset(U))
            return pair
        if (layer, name) == ("splitting", "verify_split"):
            def verify(args, kwargs, result):
                g = _arg(args, kwargs, 1, "g")
                layers = _arg(args, kwargs, 2, "layers", ("G",))
                counts["splitting.verify_pass"] += bool(result.ok)
                counts["splitting.edges_scanned"] += sum(
                    len(self._edges(g, lay)) for lay in layers)
            return verify
        if layer == "cleaning":
            def cleaned(args, kwargs, result):
                rep = result[-1]
                counts["cleaning.removed"] += len(rep.trace)
                counts["cleaning.hyp_ok"] += bool(rep.hypotheses.ok)
            return cleaned
        if layer == "configurations":
            def clauses(args, kwargs, result):
                counts["configurations.clauses"] += len(result.items)
            return clauses
        if (layer, name) == ("pipeline", "hunt_configuration"):
            def hunted(args, kwargs, result):
                counts["pipeline.found"] += result.status == "found"
            return hunted
        if (layer, name) == ("treecut", "fine_partition"):
            def partitioned(args, kwargs, result):
                counts["treecut.tree_vertices"] += _arg(args, kwargs, 0, "t").k
            return partitioned
        return None

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, by name."""
        c, s, k = self.calls, self.self_s, self.counts

        def calls(*labels):
            return sum(c[label] for label in labels)

        def ratio(num, den):
            return num / den if den else 0.0

        adj_calls = c["graphcore.adj"]
        hunts = c["pipeline.hunt_configuration"]
        verifies = c["splitting.verify_split"]
        cleanings = calls(*("cleaning." + n for n in (
            "envelope", "clean_c_plus_yellow", "clean_c_plus_black",
            "clean_yellow", "clean_match")))
        return {
            "graphcore.build_calls": calls("graphcore.__init__"),
            "graphcore.build_s": s["graphcore.build"],
            "graphcore.edges_built": k["graphcore.edges_built"],
            "graphcore.query_calls": calls(*("graphcore." + n for n in GRAPH_QUERY)),
            "graphcore.query_s": s["graphcore.query"],
            "graphcore.adj_repeat_ratio": ratio(k["graphcore.adj_repeat"], adj_calls),
            "fileio.calls": sum(n for label, n in c.items()
                                if label.startswith("fileio.")),
            "fileio.busy_s": s["fileio.busy"],
            "fileio.bytes_parsed": k["fileio.bytes_parsed"],
            "lks.derive_calls": c["lks.derive_common_sets"],
            "lks.derive_s": s["lks.derive"] + s["lks.busy"],
            "decomposition.calls": sum(n for label, n in c.items()
                                       if label.startswith("decomposition.")),
            "decomposition.busy_s": s["decomposition.busy"],
            "shadows.calls": sum(n for label, n in c.items()
                                 if label.startswith("shadows.")),
            "shadows.busy_s": s["shadows.busy"],
            "regularity.exact_calls": self.group_calls["regularity.exact"],
            "regularity.exact_s": s["regularity.exact"],
            "regularity.exact_masks": k["regularity.exact_masks"],
            "regularity.sampled_calls": self.group_calls["regularity.sampled"],
            "regularity.sampled_s": s["regularity.sampled"],
            "regularity.indeterminate_calls": self.group_calls["regularity.indeterminate"],
            "spots.exact_calls": self.group_calls["spots.exact"],
            "spots.exact_s": s["spots.exact"],
            "spots.clean_s": s["spots.clean"],
            "spots.check_s": s["spots.check"],
            "splitting.draw_s": s["splitting.draw"],
            "splitting.verify_calls": verifies,
            "splitting.verify_s": s["splitting.verify"],
            "splitting.pass_ratio": ratio(k["splitting.verify_pass"], verifies),
            "splitting.edges_scanned": k["splitting.edges_scanned"],
            "splitting.restrict_s": s["splitting.restrict"],
            "cleaning.calls": cleanings,
            "cleaning.envelope_s": s["cleaning.envelope"],
            "cleaning.cyellow_s": s["cleaning.cyellow"],
            "cleaning.cblack_s": s["cleaning.cblack"],
            "cleaning.yellow_s": s["cleaning.yellow"],
            "cleaning.match_s": s["cleaning.match"],
            "cleaning.removed": k["cleaning.removed"],
            "cleaning.hyp_ok_ratio": ratio(k["cleaning.hyp_ok"], cleanings),
            "configurations.verify_calls": calls("configurations.verify_configuration",
                                                 "configurations.verify_preconfiguration"),
            "configurations.verify_s": s["configurations.verify"],
            "configurations.clauses": k["configurations.clauses"],
            "pipeline.hunt_calls": hunts,
            "pipeline.self_s": s["pipeline.busy"],
            "pipeline.found_ratio": ratio(k["pipeline.found"], hunts),
            "treecut.partition_calls": c["treecut.fine_partition"],
            "treecut.partition_s": s["treecut.partition"],
            "treecut.validate_s": s["treecut.validate"],
            "treecut.tree_vertices": k["treecut.tree_vertices"],
            "cli.calls": c["cli.main"],
            "cli.self_s": s["cli.busy"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def zero_reasons(values) -> dict:
    """Why each per-layer metric that reads 0 does so."""
    reasons = {}
    for metric, value in values.items():
        if value:
            continue
        if metric.endswith("_ratio"):
            reasons[metric] = "ratio undefined: nothing attempted on this workload"
        else:
            reasons[metric] = "no such work in this workload's ops"
    return reasons
