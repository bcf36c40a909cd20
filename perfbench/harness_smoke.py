"""Smoke test of the benchmark harness itself, at toy size.

    PYTHONPATH=src python -m pytest perfbench/harness_smoke.py

Every workload runs with two short talks, traced and untraced. The test
checks that each metric BENCHMARK.json names is reported, finite and in its
unit, and that the per-layer spans plus cli.self_s add up to the traced
pipeline span. The file name keeps it out of the repository's default test
run, because it starts a few dozen interpreter processes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(name):
    return dataclasses.replace(run.WORKLOADS[name], talks=2, sentences=16)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_declared_metric_is_reported(name, trace):
    result, ctx = run.measure(name, toy(name), seed=3, seconds=0, trace=trace,
                              started=time.perf_counter())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert math.isfinite(entry["value"]), m["name"]
        assert entry["unit"] == m["unit"], m["name"]
    assert ctx["talks"] == 2 and ctx["error_rate"] == 0.0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(metrics[f"{span}_s"] for span in run.PIPELINE_LAYER_SPANS)
        assert layers + metrics["cli.self_s"] == pytest.approx(
            metrics["cli.pipeline_span_s"], rel=1e-9)
        assert metrics["corpus.load_calls"] > 0 and metrics["align.dp_cells"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "long_talk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
