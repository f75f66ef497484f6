"""The benchmark's own tests, on the smoke size of every workload.

    python3 -m pytest -q perfbench

They check every metric name and unit against BENCHMARK.json, that every
output check passes on the program and rejects a wrong output, the blow-up
writer's byte-identity, and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import env

env.require_program()

import answers  # noqa: E402
import blowup  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from structhunt.graphcore import LayeredGraph  # noqa: E402
from structhunt.regularity import RegPairCertificate  # noqa: E402
from structhunt.report import Report  # noqa: E402
from structhunt.spots import DenseSpot  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics(name, tmp_path):
    result = run.run(name, seed=5, seconds=0.5, trace=False, size="smoke",
                     out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    written = json.loads(next((tmp_path / "results").glob("%s-*.json" % name)).read_text())
    assert len(written["details"]["setup_times_s"]) == run.SETUP_REPEATS
    stamp = written["stamp"]
    assert set(stamp) == {"cpu_model", "nproc", "python", "numpy", "git_commit", "seed"}
    assert stamp["seed"] == 5


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_per_layer_metrics(name, tmp_path):
    result = run.run(name, seed=6, seconds=0.5, trace=True, size="smoke",
                     out_dir=tmp_path)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    assert metrics["tracer.overhead"]["value"] > 0
    if name != "clean-cut":
        assert metrics["treecut.partition_calls"]["value"] == 0
    spans = json.loads((tmp_path / "results" / ("spans-%s-s6.json" % name)).read_text())
    assert spans["spans"] and len(spans["fields"]) == 6


def test_tracer_restores_the_package():
    import tracer
    from structhunt import cli, graphcore, lks

    before = (cli.derive_common_sets, lks.derive_common_sets,
              graphcore.LayeredGraph.adj)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.derive_common_sets is lks.derive_common_sets
        assert cli.derive_common_sets is not before[0]
    finally:
        t.uninstall()
    assert (cli.derive_common_sets, lks.derive_common_sets,
            graphcore.LayeredGraph.adj) == before


def test_tail_names_the_eleventh_largest():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_a_broken_bypass_fails_the_run():
    values = {"regularity.exact_calls": 3, "splitting.verify_calls": 0,
              "treecut.partition_calls": 0}
    runner = run.Runner()
    assert run.check_bypasses(runner, "hunt", "full", values) == values
    assert runner.attempted == 3 and len(runner.failures) == 1
    assert "regularity.exact_calls" in runner.failures[0]["error"]
    runner = run.Runner()
    assert run.check_bypasses(runner, "hunt", "smoke", values) == {}
    assert runner.failures == []


def test_runs_time_whole_passes():
    class Op:
        name, prepare, check = "op", None, staticmethod(lambda result: None)

        def __init__(self, cost):
            self.call = lambda: time.sleep(cost)

    def passes():
        while True:
            yield iter([Op(0.001), Op(0.002), Op(0.003)])

    latencies, count = run.Runner().run_for(passes(), 0.01)
    assert count >= 1 and len(latencies) == 3 * count


def test_hunt_check_rejects_wrong_exit(tmp_path):
    wl = workloads.build("hunt", 1, "smoke", tmp_path)
    op = next(next(wl.passes()))
    result = op.call()
    assert op.check(result) is None
    code, text = result
    assert op.check((3, text)) is not None          # disagrees with status line
    assert op.check((3, text.replace("found", "out-of-regime"))) is not None


def test_known_answers_under_blow_up():
    assert answers.expected_hunt("t5", 2) == (0, "D10")
    assert answers.expected_hunt("t5", 3) == (3, "D10")
    assert answers.expected_hunt("unmet", 16) == (2, None)
    assert answers.expected_verify(0) == 0 and answers.expected_verify(3) == 3


def test_blowup_outcomes_match_and_changes_are_listed(capsys):
    assert blowup.check([1, 3]) == 0
    out = capsys.readouterr().out
    assert "t5 at t=3: found/D10 -> out-of-regime/D10" in out
    assert "DIFFER" not in out


def test_irregular_witness_recheck():
    g = LayeredGraph(8, {"G": [(0, 4), (0, 5), (1, 4), (1, 5)]})
    U, W, eps = frozenset(range(4)), frozenset(range(4, 8)), Fraction(1, 4)
    good = RegPairCertificate("exact-irregular", eps, Fraction(1, 4),
                              witness=(frozenset({0, 1}), frozenset({4, 5}), Fraction(1)))
    assert workloads.check_irregular_witness(g, U, W, eps, good) is None
    wrong = RegPairCertificate("exact-irregular", eps, Fraction(1, 4),
                               witness=(frozenset({0, 1}), frozenset({4, 6}), Fraction(1)))
    assert workloads.check_irregular_witness(g, U, W, eps, wrong) is not None


def test_spot_recheck():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    g = LayeredGraph(4, {"G": edges})
    spot = DenseSpot({0, 1}, {2, 3}, edges, 1, Fraction(1, 2))
    assert workloads.check_spot(g, 1, Fraction(1, 2), spot) is None
    assert workloads.check_spot(g, 2, Fraction(1, 2), spot) is not None


def test_cleaning_check_rejects_failed_reports():
    class Rep:
        def __init__(self, hyp, conc, trace):
            self.hypotheses, self.conclusions, self.trace = hyp, conc, trace

    ok, bad = Report(), Report()
    bad.add("x", False)
    assert workloads._report_failure(Rep(ok, ok, []), Rep(ok, ok, [])) is None
    assert workloads._report_failure(Rep(bad, ok, []), None) is not None
    assert workloads._report_failure(Rep(ok, bad, []), None) is not None
    assert workloads._report_failure(Rep(ok, ok, []), Rep(ok, ok, [(1, "X", "a")])) is not None


def test_split_pass_share_test():
    assert workloads.binomial_cdf(25, 25, 0.95) == pytest.approx(1.0)
    assert workloads.binomial_cdf(15, 25, 0.95) < workloads.SPLIT_ALPHA
    assert workloads.binomial_cdf(22, 25, 0.95) > workloads.SPLIT_ALPHA


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hunt",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
    assert not (Path(tmp_path) / ".perfbench").exists()
