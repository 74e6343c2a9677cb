import json
import re
import shutil
import subprocess
import sys

import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    e2e = [m[0] for m in run.END_TO_END]
    per_layer = [m[0] for m in layers.METRICS]
    assert len(e2e) <= 16 and len(per_layer) <= 128
    for name in e2e + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
