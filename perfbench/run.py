"""structhunt benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 20 --trace 0

The client issues one op at a time, each after the last completes, and
checks every op's output (``workloads``).  It times whole passes of the
workload's ops until ``--seconds`` of wall time have passed, so the last
pass may run past ``--seconds`` and every run measures the same op mix.
With ``--trace 0`` it reports the end-to-end metrics:

  setup_s      process start to the first timed op: importing structhunt,
               generating and writing the inputs and one untimed warm-up
               op.  The run sets up once itself and SETUP_REPEATS - 1 more
               times, each in a fresh process of its own (``--setup-only``),
               and reports the median of these times.
  ops_per_s    completed ops per second of op time
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with at least ten samples
               beyond it (named on stdout and in the results file)
  peak_rss_mb  peak resident set size of this process (ru_maxrss)

``error_rate`` (failed / attempted ops) is carried by the ``attempted`` and
``failed`` fields of the result line and printed by name.

With ``--trace 1`` the run first times whole passes untraced for half of
``--seconds``, then replays the same passes under the span tracer
(``tracer.py``), reports the per-layer metrics and the tracer's overhead
(traced / untraced op time), and writes the spans as JSON.  A per-layer
metric predicted to read 0 at full size (PREDICTED_ZERO) that does not is
a failure of the run.

Every run writes a results file with a run stamp (CPU model, nproc, Python,
numpy, git commit, seed) under ``.perfbench/results/`` of the checkout.  The
last line of stdout is the JSON result.  Without the program's ``src/`` and
``tests/`` next to it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Per-layer metrics predicted to read 0 at full size, because the workload
# bypasses the layer: split.txt is given and every pair side is above the
# exact cap on hunt, and only clean-cut cuts trees.  (At smoke size, hunt's
# t = 1 pairs are small enough for exact regularity.)
PREDICTED_ZERO = {
    "hunt": ("regularity.exact_calls", "splitting.verify_calls",
             "treecut.partition_calls"),
    "split": ("treecut.partition_calls",),
    "certify": ("treecut.partition_calls",),
}

NO_WAIT_NOTE = ("no layer has wait time: one single-threaded closed-loop "
                "client, no queues or threads in the program")


class Runner:
    """Executes ops, checks them and keeps latencies and failures."""

    def __init__(self):
        self.attempted = 0      # judged ops, warm-ups included
        self.latencies = []     # timed ops only
        self.names = []
        self.failures = []
        self.tracer = None      # records spans around op calls when set

    def run_op(self, op, record=True) -> float:
        if op.prepare is not None:
            op.prepare()
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)   # index into "ops"
            self.tracer.recording = True
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, "raised %r" % (exc,)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.recording = False
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a check that cannot judge fails the op
                error = "check raised %r" % (exc,)
        self.attempted += 1
        if record:
            self.latencies.append(elapsed)
            self.names.append(op.name)
        if error is not None:
            self.failures.append({"op": op.name, "error": error})
        return elapsed

    def run_for(self, passes, seconds: float) -> tuple:
        """Whole passes until ``seconds`` of wall time have passed; returns
        their latencies and the number of passes."""
        first = len(self.latencies)
        begin = time.perf_counter()
        count = 0
        while not count or time.perf_counter() - begin < seconds:
            self.run_passes(passes, 1)
            count += 1
        return self.latencies[first:], count

    def run_passes(self, passes, count: int) -> list:
        """The next ``count`` passes; their latencies."""
        first = len(self.latencies)
        for _ in range(count):
            for op in next(passes):
                self.run_op(op)
        return self.latencies[first:]


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def set_up(runner, name, seed, size, work: Path):
    """Build the workload and run its first op untimed, as a warm-up.

    Returns the workload and the time from process start to the end of
    the warm-up."""
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(name, seed, size, work)
    runner.run_op(next(next(wl.passes())), record=False)
    return wl, time.perf_counter() - PROCESS_START


def set_up_elsewhere(runner, name, seed, size) -> list:
    """Set up SETUP_REPEATS - 1 more times, one fresh process each, one
    after the other; returns their set-up times.  A process that fails or
    whose warm-up op fails is a failure of this run."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        runner.attempted += 1
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", "1", "--size", size, "--setup-only"],
            capture_output=True, text=True, timeout=170)
        try:
            child = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            child = None
        if proc.returncode != 0 or child is None:
            runner.failures.append({"op": "set-up process", "error": "exit %d: %s" % (
                proc.returncode, proc.stderr.strip()[-300:])})
            continue
        times.append(child["setup_s"])
        runner.failures.extend(child["failures"])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="structhunt benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("hunt", "split", "certify", "clean-cut"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print {setup_s, failures} and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        env.require_program()
    except env.MissingProgram as exc:
        print("perfbench: cannot run: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed, args.size)))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


def setup_only(name, seed, size) -> dict:
    """One set-up in this process, for ``set_up_elsewhere``."""
    work = env.ROOT / ".perfbench" / ("work-%d" % os.getpid())
    runner = Runner()
    try:
        _wl, setup_s = set_up(runner, name, seed, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s, "failures": runner.failures}


def run(name, seed, seconds, trace, size="full", out_dir=None) -> dict:
    """One benchmark run; returns the result object (metrics, counts)."""
    out_dir = Path(out_dir or env.ROOT / ".perfbench")
    work = out_dir / ("work-%d" % os.getpid())
    runner = Runner()
    try:
        wl, setup_s = set_up(runner, name, seed, size, work)
        details = {"wait": NO_WAIT_NOTE}
        if trace:
            metrics = _traced(runner, wl, seconds, details, out_dir, name, seed, size)
        else:
            setup_times = [setup_s] + set_up_elsewhere(runner, name, seed, size)
            details["setup_times_s"] = setup_times
            failed_before = len(runner.failures)
            details["passes"] = runner.run_for(wl.passes(), seconds)[1]
            completed = len(runner.latencies) - (len(runner.failures) - failed_before)
            metrics = _end_to_end(runner.latencies, completed,
                                  statistics.median(setup_times), details)
        # the run-level check (split pass share) counts as one more judgement
        runner.attempted += 1
        final = wl.final_check()
        if final is not None:
            runner.failures.append({"op": "run", "error": final})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    details["error_rate"] = failed / runner.attempted
    details["failures"] = runner.failures[:20]
    details["ops"] = [[n, t] for n, t in zip(runner.names, runner.latencies)]
    result = {"correct": not failed, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    _report(result, details, name, seed, trace, size, out_dir)
    return result


def _end_to_end(latencies, completed, setup_s, details) -> dict:
    tail_s, pct, beyond = tail(latencies)
    details["tail"] = {"percentile": pct, "samples_beyond": beyond,
                       "samples": len(latencies)}
    values = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _select(values, "end_to_end")


def _select(values, kind) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _traced(runner, wl, seconds, details, out_dir, name, seed, size) -> dict:
    """Untraced passes for half the time, then the same passes traced."""
    import tracer as tracing

    plain, count = runner.run_for(wl.passes(), seconds / 2)
    spans = tracing.Tracer()
    spans.install()
    runner.tracer = spans
    try:
        traced = runner.run_passes(wl.passes(), count)
    finally:
        runner.tracer = None
        spans.uninstall()
    values = spans.layer_metrics()
    values["tracer.overhead"] = sum(traced) / sum(plain)
    details["passes"] = count
    details["traced_ops"] = len(traced)
    details["absent"] = tracing.zero_reasons(values)
    details["predicted_zero"] = check_bypasses(runner, name, size, values)
    out_dir.joinpath("results").mkdir(parents=True, exist_ok=True)
    spans.write_spans(out_dir / "results" / ("spans-%s-s%d.json" % (name, seed)))
    return _select(values, "per_layer")


def check_bypasses(runner, name, size, values) -> dict:
    """Judge each metric predicted to read 0; returns them with their values."""
    predicted = PREDICTED_ZERO.get(name, ()) if size == "full" else ()
    for metric in predicted:
        runner.attempted += 1
        if values[metric] != 0:
            runner.failures.append({"op": "run", "error": "predicted bypass %s = 0 on %s "
                                    "does not hold: %s" % (metric, name, values[metric])})
    return {m: values[m] for m in predicted}


def _report(result, details, name, seed, trace, size, out_dir) -> None:
    """Print every metric by name and write the results file."""
    for key, m in result["metrics"].items():
        print("%-34s %14.6g %s" % (key, m["value"], m["unit"]))
    if "tail" in details:
        t = details["tail"]
        print("op_tail_ms is p%.2f: %d samples beyond it, of %d"
              % (t["percentile"], t["samples_beyond"], t["samples"]))
    print("error_rate %.6g (%d failed / %d attempted)"
          % (details["error_rate"], result["failed"], result["attempted"]))
    for f in details["failures"]:
        print("FAILED %s: %s" % (f["op"], f["error"]))
    if trace:
        print(details["wait"])
        for metric, why in details["absent"].items():
            print("%s reads 0: %s" % (metric, why))
        for metric, value in details["predicted_zero"].items():
            print("predicted bypass %s = 0 on %s: %s" % (
                metric, name, "confirmed" if value == 0 else "NOT confirmed (%s)" % value))
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-s%d-trace%d-%s.json" % (name, seed, int(trace), size))
    path.write_text(json.dumps({"stamp": env.run_stamp(seed), "workload": name,
                                "size": size, "trace": bool(trace),
                                "result": result, "details": details}, indent=1))
    print("results written to %s" % path)


if __name__ == "__main__":
    sys.exit(main())
