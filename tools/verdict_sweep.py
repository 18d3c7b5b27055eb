"""Every wrong verdict of a benchmark workload over a range of seeds and ops.

    python3 tools/verdict_sweep.py TREE --workload certify-spd \\
        --seeds 0-9,86 --ops 6000

runs operations 0 .. N-1 of the workload for each seed, by index and
untimed, through the `build`, `run` and `check` of
TREE/perfbench/workloads.py, with rfw imported from TREE/src: the same
inputs and verdicts as `perfbench/run.py --seed S` in TREE, without
its timing.  It prints one line per operation whose check fails (or
that raises), then a total, and exits 1 if any did.  It only reads
TREE; a solve workload writes its traces to a temporary directory.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import sys
import tempfile
from pathlib import Path


def parse_seeds(text):
    """Seeds from a comma list of integers and inclusive ranges A-B with
    A <= B; an empty range would make a sweep that checks nothing."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    return seeds


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def load(tree):
    """(rfw, workloads module) imported from the tree's src/ and
    perfbench/."""
    tree = tree.absolute()
    sys.dont_write_bytecode = True  # leave the tree as it is
    for name in [m for m in sys.modules
                 if m in ("rfw", "workloads") or m.startswith("rfw.")]:
        del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    rfw = importlib.import_module("rfw")
    workloads = importlib.import_module("workloads")
    for module in (rfw, workloads):
        if tree not in Path(module.__file__).parents:
            raise ImportError(f"{module.__name__} imported from "
                              f"{module.__file__}, not from {tree}")
    return rfw, workloads


def wrong_verdicts(rfw, workload, seed, ops, out_dir):
    """(op, reason) of each of ops 0 .. ops-1 whose check fails."""
    inputs = workload.build(rfw, seed, out_dir)
    for i in range(ops):
        try:
            _, result = workload.run(rfw, inputs, i)
        except Exception as exc:
            yield i, f"raised {type(exc).__name__}: {exc}"
            continue
        why = workload.check(rfw, inputs, i, result)
        if why is not None:
            yield i, why


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--ops", type=positive_int, required=True)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    rfw, workloads = load(args.tree)
    workload = workloads.WORKLOADS[args.workload]
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for i, why in wrong_verdicts(rfw, workload, seed, args.ops,
                                         Path(tmp)):
                wrong += 1
                print(f"{args.workload} seed {seed} op {i}: {why}",
                      flush=True)
    print(f"{args.workload}: {wrong} wrong of {len(args.seeds) * args.ops} "
          f"ops (seeds {len(args.seeds)}, ops 0-{args.ops - 1} each)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
