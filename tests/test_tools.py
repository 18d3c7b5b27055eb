"""The command lines of the scripts in tools/."""

import importlib.util
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
