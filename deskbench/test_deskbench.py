"""Tests of the desk benchmark harness itself (about a minute).

    python3 -m pytest deskbench/test_deskbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from audiocap import data, fluency, frontend, model  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("deskbench") / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_file_matches_harness():
    import run as harness
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        spans.metric_names()


def test_tracer_wraps_where_callers_bind_and_restores():
    originals = (frontend.wave_to_patches, data.wave_to_patches,
                 model.wave_to_patches, fluency.correction_pipeline.__defaults__)
    with spans.Tracer().installed():
        for module in (frontend, data, model):
            assert module.wave_to_patches.__wrapped__ is originals[0]
        detector = fluency.correction_pipeline.__wrapped__.__defaults__[-1]
        assert detector.__wrapped__ is fluency.detect_errors.__wrapped__
    assert (frontend.wave_to_patches, data.wave_to_patches,
            model.wave_to_patches,
            fluency.correction_pipeline.__defaults__) == originals


def test_end_to_end_metrics_reported():
    result = result_of(run("--workload", "train_desk", "--seconds", "1",
                           "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_every_per_layer_metric_is_measured_on_a_minimal_run():
    seen = set()
    for workload in BENCHMARK["workloads"]:
        result = result_of(run("--workload", workload["name"], "--seconds", "1",
                               "--trace", "1"))
        assert result["correct"], workload["name"]
        assert set(result["metrics"]) == set(spans.metric_names())
        seen |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    # no workload decodes through adapters on desk defaults
    assert set(spans.metric_names()) - seen == {"lora.LoraLinear.calls"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "deskbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "train_desk", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__]))
