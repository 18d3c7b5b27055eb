"""The scripts in tools/: their command lines, bench_pairs' summary,
the verdict sweep and the in-process A/B timing."""

import importlib.util
import json
import shutil
import subprocess
import sys
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


def test_bench_pairs_counts_failed_operations_per_side():
    runs = [{"pair": pair, "side": side,
             "result": {"failed": failed, "attempted": 100}}
            for pair, side, failed in ((0, "parent", 0), (0, "change", 1),
                                       (1, "change", 0), (1, "parent", 2),
                                       (2, "parent", 1), (2, "change", 1),
                                       (3, "parent", 0), (3, "change", 3))]
    out = _load("bench_pairs").operations(runs)
    assert out == {"parent": {"failed": 3, "attempted": 400},
                   "change": {"failed": 5, "attempted": 400},
                   "worse_pairs": [0, 3]}


def test_verdict_sweep_parses_seed_lists():
    parse = _load("verdict_sweep").parse_seeds
    assert parse("0-9,86") == list(range(10)) + [86]
    assert parse("5") == [5]
    assert parse("2-2,7-8") == [2, 7, 8]


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "9-0", "--ops", "5"], "empty seed range '9-0'"),
    (["--seeds", "0-9,5-4", "--ops", "5"], "empty seed range '5-4'"),
    (["--seeds", "0", "--ops", "0"], "must be at least 1, got 0"),
    (["--seeds", "0", "--ops", "-3"], "must be at least 1, got -3"),
], ids=["empty-range", "empty-second-range", "zero-ops", "negative-ops"])
def test_verdict_sweep_rejects_a_sweep_of_no_operations(flags, message,
                                                         capsys):
    # these used to print "0 wrong of 0 ops" and exit 0
    with pytest.raises(SystemExit) as exit_:
        _load("verdict_sweep").parse_args(
            ["tree", "--workload", "certify-spd", *flags])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


class _Flaky:
    """A workload whose operation i returns i, checked wrong when i is a
    multiple of 3, and that raises at i = 4."""

    def build(self, rfw, seed, out_dir):
        return seed

    def run(self, rfw, inputs, i):
        if i == 4:
            raise ValueError("bad op")
        return 1, i

    def check(self, rfw, inputs, i, result):
        return "multiple of 3" if result % 3 == 0 else None


def test_verdict_sweep_lists_every_wrong_operation(tmp_path):
    sweep = _load("verdict_sweep")
    wrong = list(sweep.wrong_verdicts(None, _Flaky(), 0, 8, tmp_path))
    assert wrong == [(0, "multiple of 3"), (3, "multiple of 3"),
                     (4, "raised ValueError: bad op"), (6, "multiple of 3")]


def test_verdict_sweep_runs_a_tree_and_exits_1_on_a_wrong_verdict(tmp_path):
    # a tree whose certify workload expects the pass case to fail: every
    # pass-case op is a wrong verdict, and the tree is left unwritten
    root = TOOLS.parent
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "src").symlink_to(root / "src")
    text = (root / "perfbench" / "workloads.py").read_text()
    flipped = text.replace("((0.05, True), (2.0, False))",
                           "((0.05, False), (2.0, False))")
    assert flipped != text
    (tree / "perfbench" / "workloads.py").write_text(flipped)
    out = subprocess.run(
        [sys.executable, str(TOOLS / "verdict_sweep.py"), str(tree),
         "--workload", "certify-spd", "--seeds", "3", "--ops", "6"],
        capture_output=True, text=True, check=False)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "certify-spd seed 3 op 0: geodesic at alpha=0.05 should fail",
        "certify-spd seed 3 op 2: riemannian at alpha=0.05 should fail",
        "certify-spd seed 3 op 4: double_geodesic at alpha=0.05 should fail",
        "certify-spd: 3 wrong of 6 ops (seeds 1, ops 0-5 each)"]
    assert sorted(p.name for p in (tree / "perfbench").iterdir()) == [
        "workloads.py"]


def test_bench_ab_times_a_copy_of_a_tree_inside_its_null_band(tmp_path):
    # the same code under two package names: every case's median ratio
    # lies inside the spread of its own rounds in the parent-against-
    # itself pass.  A median of 5 rounds falls outside the range of 5
    # others with odds 1 in 6 per case, of 15 with odds ~1 in 450
    root = TOOLS.parent
    copy = tmp_path / "copy"
    shutil.copytree(root / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "ab.json"
    subprocess.run(
        [sys.executable, str(TOOLS / "bench_ab.py"), str(root), str(copy),
         "--rounds", "15", "--batch-seconds", "0.002", "--out", str(path)],
        capture_output=True, text=True, check=True)
    report = json.loads(path.read_text())
    lo, hi = report["null_band"]
    assert lo <= 1.0 <= hi
    names = set(report["cases"])
    assert {"random_unit_tangent/spd(3)", "sample/sphere(3)/r0.3",
            "random_boundary_best/sphere(10)/n1000",
            "certify-spd/riemannian/a2",
            "wrapped/sphere(3)/r0.3/riemannian/a4",
            "lmo/sphere(3)/r0.3/single", "lmo/sphere(3)/r0.3/rows400",
            "lmo/hyperboloid(4)/r1/single",
            "lmo/hyperboloid(4)/r1/rows400"} <= names
    for name, case in report["cases"].items():
        low, high = case["null_band"]
        assert lo <= low <= case["null_ratio"] <= high <= hi
        assert case["inside_null_band"], (name, case["ratio"], low, high)
        # beside the raw ratio, the ratio with the case's side bias taken
        # out: inside the band, so inside the band over its null median
        assert case["ratio_over_null"] == case["ratio"] / case["null_ratio"]
        assert (low / case["null_ratio"] <= case["ratio_over_null"]
                <= high / case["null_ratio"])
