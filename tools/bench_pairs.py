"""Alternating benchmark pairs of two source trees, summarized in one file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload certify-sphere --pairs 10 --seconds 10 --out BENCH_18.json

runs `perfbench/run.py --workload W --seconds S --seed SEED` in each tree
(each its own checkout, with its own perfbench/ and src/), N pairs per
workload, the parent first on even pairs and the change first on odd
ones.  --workload takes one or more names and may be given more than
once; every name given is run.  The output file holds, per workload,
every run's env line and last-line JSON, and per end-to-end metric of
BENCHMARK.json each side's median and quartiles (statistics.quantiles,
inclusive method), the ratio of the medians (change / parent) and the
number of pairs the change won, by the metric's `better` direction
(ties count for neither).  Next to them it holds each side's failed and
attempted operations, summed over its runs, and the pairs whose change
run failed more operations than its parent run; those pairs are also
named on stderr.  A run that exits non-zero or prints no JSON stops
the tool.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seconds, seed):
    """(env, result) of one benchmark run in tree."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"benchmark run in {tree} failed "
                           f"(exit {out.returncode}): {out.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(runs, spec):
    """Per end-to-end metric: both sides' spread, the median ratio and
    the pairs the change won."""
    by_side = {side: [r["result"]["metrics"] for r in runs
                      if r["side"] == side] for side in ("parent", "change")}
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [m[name]["value"] for m in by_side["parent"]]
        change = [m[name]["value"] for m in by_side["change"]]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": spread(parent), "change": spread(change),
                     "ratio": (statistics.median(change)
                               / statistics.median(parent)),
                     "wins": wins, "pairs": len(parent)}
    return out


def operations(runs):
    """Per side, failed and attempted operations summed over its runs,
    and worse_pairs: the pairs whose change run failed more operations
    than its parent run."""
    out = {side: {"failed": 0, "attempted": 0}
           for side in ("parent", "change")}
    failed = {}
    for r in runs:
        for key in ("failed", "attempted"):
            out[r["side"]][key] += r["result"][key]
        failed.setdefault(r["pair"], {})[r["side"]] = r["result"]["failed"]
    out["worse_pairs"] = sorted(
        pair for pair, f in failed.items() if f["change"] > f["parent"])
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", action="extend", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    report = {"command": (f"python3 perfbench/run.py --workload W "
                          f"--seconds {args.seconds:g} --seed {args.seed}"),
              "pairs": args.pairs, "workloads": {}}
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                env, result = run_once(trees[side], workload, args.seconds,
                                       args.seed)
                runs.append({"pair": pair, "side": side, "env": env,
                             "result": result})
                print(f"{workload} pair {pair} {side}: correct="
                      f"{result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr)
        ops = operations(runs)
        if ops["worse_pairs"]:
            print(f"{workload}: the change failed more operations than its "
                  f"parent in pairs {ops['worse_pairs']}", file=sys.stderr)
        report["workloads"][workload] = {"metrics": summary(runs, spec),
                                         "operations": ops, "runs": runs}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
