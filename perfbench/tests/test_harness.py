"""Smoke test of the benchmark harness; it makes no assertion about timing.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _only_k4(monkeypatch):
    def k4_only(workload, inputs):
        return [op for op in workloads.operations(workload, inputs) if op["name"] == "K4"]

    monkeypatch.setattr(run, "operations", k4_only)


def test_polys_k4_result_schema_and_reference(monkeypatch):
    _only_k4(monkeypatch)
    record = run.run_workload("polys", seed=3, seconds=0, trace=False)
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] == run.MIN_REPS
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        metric = line["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float) and metric["value"] > 0
        assert record["samples"][name]["n"] == len(record["samples"][name]["samples"])
    assert record["seed"] == 3 and record["python"] and record["nproc"]
    json.dumps(line)


def test_polys_k4_traced_run_reports_every_layer_metric(monkeypatch):
    _only_k4(monkeypatch)
    record = run.run_workload("polys", seed=3, seconds=0, trace=True)
    assert record["failed"] == 0
    metrics = run.result_line(record)["metrics"]
    assert list(metrics) == [name for name, _, _ in tracer.PER_LAYER]
    assert metrics["counting.count.calls"]["value"] > 0
    assert metrics["counting.kernel.vectors"]["value"] > 0


def test_a_wrong_output_is_a_failed_operation():
    reference = workloads.load_reference("classes")
    op = {"name": "cut"}
    good = dict(reference["cut"])
    payload = {"class_count": good["class_count"],
               "classes": [{"size": s} for s in good["sizes"]]}
    ok = {"exit": 0, "error": None, "stdout": json.dumps(payload)}
    assert workloads.check_command("classes", op, ok, reference) == (1, 0)
    payload["classes"][0]["size"] += 1
    wrong = dict(ok, stdout=json.dumps(payload))
    assert workloads.check_command("classes", op, wrong, reference) == (1, 1)
    crashed = dict(ok, exit=1)
    assert workloads.check_command("classes", op, crashed, reference) == (1, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER
    )
