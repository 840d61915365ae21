"""Tests of the benchmark itself: smoke runs, output checks and tracing."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gauge_mps
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_flipped_verdict_counts_as_failed(tmp_path, monkeypatch):
    expected = workloads._expected_certify_code
    monkeypatch.setattr(workloads, "_expected_certify_code",
                        lambda bundle, setting, n, perturbed:
                        1 - expected(bundle, setting, n, perturbed))
    loop = run.Loop(workloads.WORKLOADS["certify"], 0, str(tmp_path))
    loop.cycles([("d10", "bab", 2), ("d10", "matter-global", 2)], 0, count=1)
    assert loop.failed == 2
    work = {"latencies": loop.latencies, "failed": loop.failed,
            "timed_s": loop.timed_s, "peak_rss_mb": 1.0}
    metrics = run.end_to_end([{"setup_s": 1.0, "import_s": 1.0}], [1.0], work)
    assert metrics["success_ratio"][0] == 0.0


def traced(templates, workload="canonicalize"):
    tracer = tracing.Tracer().install(gauge_mps)
    try:
        loop = run.Loop(workloads.WORKLOADS[workload], 5, None, tracer)
        loop.cycles(templates, 0, count=1)
    finally:
        tracer.uninstall()
    assert loop.failed == 0
    return tracer


def test_generic_normal_request_is_eig_bound():
    tracer = traced([("canonical_form", "normal", 2, 16)])
    (summary,) = tracer.request_summaries().values()
    assert summary["eig_calls"] == 10
    assert summary["eig_self_s"] >= 2 / 3 * summary["duration_s"]


def test_counts_repeat_across_traced_runs():
    templates = workloads.WORKLOADS["canonicalize"].warmup
    counts = [{m: v for m, (v, unit) in traced(templates).per_layer().items()
               if unit != "s"} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig.calls"] > 0


def test_uninstall_restores_every_binding():
    before = gauge_mps.canonical.is_normal
    tracer = tracing.Tracer().install(gauge_mps)
    assert gauge_mps.canonical.is_normal is not before
    assert gauge_mps.canonical.is_normal is gauge_mps.tensors.is_normal
    tracer.uninstall()
    assert gauge_mps.canonical.is_normal is before


def test_missing_public_name_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "PER_LAYER", tracing.PER_LAYER + [
        ("tensors.renamed.calls", "count", "calls", ("tensors.renamed",))])
    tracer = traced(workloads.WORKLOADS["canonicalize"].warmup[:1])
    assert tracer.absent == ["tensors.renamed"]
    assert tracer.per_layer()["tensors.renamed.calls"] == (0, "count")
