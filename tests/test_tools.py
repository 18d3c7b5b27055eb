"""The scripts in tools/: their command lines, and bench_pairs' summary."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags, workloads", [
    (["--workload", "a"], ["a"]),
    (["--workload", "a", "b"], ["a", "b"]),
    (["--workload", "a", "--workload", "b"], ["a", "b"]),
    (["--workload", "a", "b", "--workload", "c"], ["a", "b", "c"]),
], ids=["one", "one-flag", "two-flags", "mixed"])
def test_bench_pairs_runs_every_workload_named(flags, workloads):
    # a repeated --workload adds its names to the earlier ones
    args = _load("bench_pairs").parse_args(
        ["parent", "change", *flags, "--out", "bench.json"])
    assert args.workload == workloads


def _runs(values):
    """Synthetic bench_pairs runs: values maps a side to one metrics
    dict per pair, {metric name: value}."""
    return [{"pair": i, "side": side, "result": {"metrics": {
        name: {"value": v} for name, v in metrics.items()}}}
        for side, per_pair in values.items()
        for i, metrics in enumerate(per_pair)]


def test_bench_pairs_summary_counts_wins_by_direction():
    spec = {"end_to_end": [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}]}
    parent = [{"t": 2.0, "rate": 10.0}, {"t": 4.0, "rate": 20.0},
              {"t": 6.0, "rate": 30.0}, {"t": 8.0, "rate": 40.0}]
    # pair 0 wins both, pair 1 ties both, pairs 2 and 3 lose both
    change = [{"t": 1.0, "rate": 11.0}, {"t": 4.0, "rate": 20.0},
              {"t": 7.0, "rate": 29.0}, {"t": 9.0, "rate": 39.0}]
    out = _load("bench_pairs").summary(
        _runs({"parent": parent, "change": change}), spec)
    assert set(out) == {"t", "rate"}
    assert out["t"]["wins"] == out["rate"]["wins"] == 1
    assert out["t"]["pairs"] == 4
    assert out["t"]["ratio"] == 5.5 / 5.0  # change median / parent median
    assert out["rate"]["ratio"] == 24.5 / 25.0
    assert out["t"]["parent"] == {"median": 5.0, "q1": 3.5, "q3": 6.5,
                                  "iqr": 3.0}
    assert (out["t"]["better"], out["rate"]["unit"]) == ("lower", "1/s")


def test_bench_pairs_summarizes_any_workload_by_the_registered_metrics():
    # sphere-solve is not a workload of BENCHMARK.json: its runs are
    # summarized by the file's end-to-end metrics all the same, and a
    # metric a run reports beyond them is left out
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert "sphere-solve" not in {w["name"] for w in spec["workloads"]}
    per_pair = [{**{n: 1.0 + i for n in names}, "extra": 0.0}
                for i in range(3)]
    out = _load("bench_pairs").summary(
        _runs({"parent": per_pair, "change": per_pair}), spec)
    assert list(out) == names
    assert all(m["wins"] == 0 and m["ratio"] == 1.0 for m in out.values())
