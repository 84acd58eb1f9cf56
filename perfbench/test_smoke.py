"""Smoke test of the benchmark at tiny sizes: metric names, result schema,
agreement with BENCHMARK.json, span nesting, and refusal to run without
the package. Run from the repository root:

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def tiny_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    proc, lines = _bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                         "--trace", str(request.param), "--tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return request.param, json.loads(lines[-1]), json.loads(out.read_text())


def test_result_schema_and_metric_names(tiny_run):
    trace, result, _ = tiny_run
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    expected = {f"{w}.{name}" for w in run.WORKLOADS for name in units}
    assert set(result["metrics"]) == expected
    for key, block in result["metrics"].items():
        assert set(block) == {"value", "unit"}
        assert block["unit"] == units[key.split(".", 1)[1]]
        assert isinstance(block["value"], (int, float))


def test_records_carry_context_and_checks(tiny_run):
    _, _, records = tiny_run
    for rec in records:
        assert rec["failed_frac"] == 0.0
        ctx = rec["context"]
        for key in ("python", "numpy", "scipy", "blas", "thread_env", "nproc", "seed", "config"):
            assert key in ctx
        assert ctx["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert ctx["thread_env"]["FAIRCLUST_THREADS"] == "1"
        assert rec["repetitions"]["plain"] >= 1


def test_layers_run_where_expected(tiny_run):
    trace, result, _ = tiny_run
    if not trace:
        pytest.skip("per-layer figures come from the traced run")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for w in ("quickstart", "paper_arch"):
        assert m[f"{w}.nn.backward.calls"] > 0 and m[f"{w}.nn.sgd_step.calls"] > 0
        assert m[f"{w}.autoencoder.sgd_step_ratio"] >= 1.0
        assert m[f"{w}.model.refresh.s"] > 0 and m[f"{w}.model.epochs_run"] > 0
    assert m["paper_arch.model.batch_centroids.calls"] > 0
    assert m["quickstart.model.batch_centroids.calls"] == 0
    assert m["eval_cli.nn.backward.calls"] == 0 and m["eval_cli.cli.eval.self_s"] > 0
    assert m["eval_cli.data.load_csv.mb"] > 0 and m["eval_cli.data.save_csv.s"] > 0


def test_span_nesting(tiny_run):
    if not tiny_run[0]:
        pytest.skip("spans are written by the traced run")
    for workload in run.WORKLOADS:
        spans = json.loads((ROOT / ".perfbench_work" / workload / "spans.json").read_text())
        by_id = {s["id"]: s for s in spans}
        child_total = {}
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                child_total[parent["id"]] = (child_total.get(parent["id"], 0.0)
                                             + s["end"] - s["start"])
        for s in spans:
            assert (s["end"] - s["start"]) - child_total.get(s["id"], 0.0) >= -1e-9


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, lines = _bench("--workload", "quickstart", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
