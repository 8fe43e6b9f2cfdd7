"""Tests of the benchmark itself: a tiny-scale smoke run of every workload
in both modes, the span dump's compatibility with ``repro profile``, and
sabotage runs whose broken references must surface as failures.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, run, serve  # noqa: E402
from perfbench.workloads import DetectCold, Env  # noqa: E402

TINY_SCALE = "0.02"


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", TINY_SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogues():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        harness.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        harness.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_has_a_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, (unit, _) in catalogue.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        return
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # Layer self times tile the traced operation, so they sum to within the
    # tracing overhead of the untraced operation time.
    self_sum = sum(metrics[f"self.{layer}_s"] for layer in harness.LAYERS)
    base = metrics["obs.untraced_op_s"]
    assert base > 0
    assert abs(self_sum - base) <= (abs(metrics["obs.trace_overhead"]) + 1e-3) * base


def test_trace_dump_reads_in_repro_profile():
    from repro.obs.profile import profile_trace
    from perfbench.tracing import OP_SPAN, analyse

    _result(_run("detect-cold", 1))
    path = os.path.join(ROOT, ".perfbench", "out", "trace-detect-cold.json")
    report = profile_trace(path)
    assert report.names[OP_SPAN].count >= 1
    assert {"data.open_bundle", "core.pipeline_run", "core.to_json"} <= set(report.names)
    statuses = {span.status for span in report.spans}
    assert statuses == {"ok"}
    summary = analyse(path)
    ops = summary.op_ids()
    assert len(ops) == report.names[OP_SPAN].count
    for op in ops:
        totals = summary.ops[op]
        layer_sum = sum(value for key, value in totals.items() if key.startswith("self."))
        assert layer_sum == pytest.approx(totals[OP_SPAN + "_s"], rel=1e-9, abs=1e-9)


def test_missing_program_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("detect-cold", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _env(tmp_path) -> Env:
    return Env(ROOT, str(tmp_path), 7, float(TINY_SCALE))


class _TamperedDetect(DetectCold):
    def reference(self) -> None:
        super().reference()
        self.expected_digests = ["0" * 64 for _ in self.expected_digests]


def test_tampered_findings_digest_counts_as_failure(tmp_path):
    workload = _TamperedDetect(_env(tmp_path))
    outcome = harness.Run(workload.name)
    try:
        harness.measure_untraced(outcome, workload, 0.5)
    finally:
        workload.close()
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert outcome.error_rate > 0
    assert "digest" in outcome.problems[0]


class _TamperedServe(serve.ServeHttp):
    def reference(self, tracer=None) -> None:
        super().reference(tracer)
        path, query, nominal = next(r for r in self.mix if r[2] == 200)
        _, body = self.expected[(path, query)]
        self.expected[(path, query)] = (404, body)


def test_expected_status_mismatch_counts_as_failure(tmp_path):
    workload = _TamperedServe(_env(tmp_path))
    outcome = harness.Run(workload.name)
    try:
        serve.measure_untraced(outcome, workload, 0.5)
    finally:
        workload.close()
    assert workload.process is None
    assert outcome.failed > 0
    assert 0 < outcome.error_rate < 1
    assert "status 200, expected 404" in outcome.problems[0]
