"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".samples", "alpha_evals_per_lmo",
                  "iters_per_solve", "membership_probes_per_sample")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sphere-solve", "hyperbolic-solve",
                                      "certify-sphere", "certify-spd"])
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", "1")
    first, second = result(*args), result(*args)
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert first["attempted"] == second["attempted"] > 0
    assert sum(counts.values()) > 0


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_metrics_match_spec(trace, key):
    res = result("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                          "--workload", SPEC["workloads"][0]["name"],
                          "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
