"""Per-case timing ratios of two source trees, alternated in one process.

    python3 tools/bench_ab.py PARENT_TREE CHANGE_TREE --out BENCH_ab.json \\
        [--rounds 15] [--batch-seconds 0.02]

imports rfw from PARENT_TREE/src and from CHANGE_TREE/src under two
package names in this process and times a fixed list of cases on both:

* a single random_unit_tangent call at the base point, per kernel;
* a single GeodesicBall.sample, per kernel;
* random_boundary_best with 1000 points on a Sphere(10) ball;
* one certificate of each case of the benchmark's certify workloads
  (perfbench/workloads.py of the repository this tool lives in), as
  operation i of the workload at seed 0;
* one certificate of each membership notion, at both alphas of the
  certify-sphere workload, with 200 samples, on its Sphere(3) cap of
  radius 0.3 behind lambdas (membership answered row by row, the
  sampler called once per point): a set that is not a ball;
* one GeodesicBall.lmo call on a pair and one on 400 stacked pairs (x
  sampled in the ball, w a random unit tangent at x), on the
  certify-sphere workload's Sphere(3) cap of radius 0.3 and on a
  Hyperboloid(4) ball of radius 1.

Each side draws its own copy of every input and generator, so both make
the same calls on the same numbers.  A round times each case once per
side, a batch of calls sized at the start to take --batch-seconds, the
two sides in turn and the side that goes first alternating by round;
a case's ratio is the median over the rounds of change / parent time
per call.  A null pass runs first: the parent against itself, with
fresh inputs on the second side.  A case's null band is the lowest and
the highest of its own per-round ratios in that pass, the spread that
timing noise alone gives the case in this process; a change ratio
outside it is more than noise.  The output names the two tree
directories and holds each case's median ratio, its null-pass median
and band, both sides' median seconds per call and whether the ratio
lies inside the band, and, for reference, the overall band: the lowest
and the highest per-round ratio of any case in the null pass.  BLAS is
pinned to one thread, as in the benchmark.  This is evidence, not a
gate: BENCHMARK.json and tools/bench_pairs.py are the gate.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
KERNELS = (("euclidean", 3, 1.0), ("sphere", 3, 0.3), ("hyperboloid", 4, 1.0),
           ("spd", 3, 1.0))  # kernel, size, radius of the sampled ball
SEED = 0
MEMBERSHIP = ("geodesic", "riemannian", "double_geodesic")
# the certify-sphere workload's cap and a hyperbolic ball: one oracle call
# on a pair and one on ORACLE_ROWS stacked pairs, x sampled in the ball
ORACLE_BALLS = (("sphere", 3, 0.3), ("hyperboloid", 4, 1.0))
ORACLE_ROWS = 400


def import_tree(tree, name):
    """TREE/src/rfw imported as the package name."""
    init = Path(tree).resolve() / "src" / "rfw" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def certify_workloads():
    """The benchmark's certify workloads, from this repository."""
    spec = importlib.util.spec_from_file_location(
        "bench_ab_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [w for w in module.WORKLOADS.values() if hasattr(w, "cases")]


def cases(rfw, workloads):
    """{case name: a call taking no argument} on the package rfw."""
    out = {}
    for kernel, n, radius in KERNELS:
        k = rfw.make_manifold(kernel, n)
        x, rng = k.base_point(), np.random.default_rng(SEED)
        out[f"random_unit_tangent/{k.name}"] = (
            lambda k=k, x=x, rng=rng: k.random_unit_tangent(x, rng))
        ball, rng = rfw.GeodesicBall(k, x, radius), np.random.default_rng(SEED)
        out[f"sample/{k.name}/r{radius}"] = (
            lambda ball=ball, rng=rng: ball.sample(rng))
    k = rfw.make_manifold("sphere", 10)
    rng = np.random.default_rng(SEED)
    ball = rfw.GeodesicBall(k, k.random_point(rng), 0.5)
    x = ball.sample(rng)
    w = k.random_unit_tangent(x, rng)
    out[f"random_boundary_best/{k.name}/n1000"] = (
        lambda: rfw.random_boundary_best(ball, w, x, 1000, rng))
    for workload in workloads:
        inputs = workload.build(rfw, SEED, None)
        for i, (notion, alpha, _) in enumerate(workload.cases):
            out[f"{workload.name}/{notion}/a{alpha:g}"] = (
                lambda workload=workload, inputs=inputs, i=i:
                workload.run(rfw, inputs, i))
    # new names: the lambdas above read k and ball when called
    s3 = rfw.make_manifold("sphere", 3)
    cap = rfw.GeodesicBall(s3, s3.random_point(np.random.default_rng(SEED)),
                           0.3)
    wrapped = rfw.ConvexSet(s3, lambda z: cap.membership(z),
                            lambda rng: cap.sample(rng),
                            diameter=cap.diameter)
    for i, (notion, alpha) in enumerate(
            (notion, alpha) for notion in MEMBERSHIP for alpha in (1.5, 4.0)):
        out[f"wrapped/{s3.name}/r0.3/{notion}/a{alpha:g}"] = (
            lambda notion=notion, alpha=alpha, i=i: rfw.run_checker(
                notion, wrapped, alpha, 200, np.random.default_rng([SEED, i])))
    return out | oracle_cases(rfw)


def oracle_cases(rfw):
    """{case name: a call taking no argument} of the oracle cases."""
    out = {}
    for kernel, n, radius in ORACLE_BALLS:
        k = rfw.make_manifold(kernel, n)
        rng = np.random.default_rng(SEED)
        ball = rfw.GeodesicBall(k, k.random_point(rng), radius)
        x = np.array([ball.sample(rng) for _ in range(ORACLE_ROWS)])
        w = np.array([k.random_unit_tangent(row, rng) for row in x])
        out[f"lmo/{k.name}/r{radius:g}/single"] = (
            lambda ball=ball, w=w[0], x=x[0]: ball.lmo(w, x))
        out[f"lmo/{k.name}/r{radius:g}/rows{ORACLE_ROWS}"] = (
            lambda ball=ball, w=w, x=x: ball.lmo(w, x))
    return out


def per_call(fn, reps):
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def compare(parent, change, rounds, batch_seconds):
    """{case: (per-round change / parent ratios, parent and change
    seconds per call)} of the two case dicts."""
    reps = {name: max(1, round(batch_seconds / per_call(fn, 1)))
            for name, fn in parent.items()}
    for fn in change.values():
        fn()  # the change side's first call, as calibration made parent's
    times = {name: ([], []) for name in parent}
    for r in range(rounds):
        for name, (a, b) in times.items():
            if r % 2 == 0:
                a.append(per_call(parent[name], reps[name]))
                b.append(per_call(change[name], reps[name]))
            else:
                b.append(per_call(change[name], reps[name]))
                a.append(per_call(parent[name], reps[name]))
    return {name: ([tb / ta for ta, tb in zip(a, b)], a, b)
            for name, (a, b) in times.items()}


def report(parent_tree, change_tree, rounds, batch_seconds):
    workloads = certify_workloads()
    parent = import_tree(parent_tree, "rfw_ab_parent")
    change = import_tree(change_tree, "rfw_ab_change")
    null = compare(cases(parent, workloads), cases(parent, workloads),
                   rounds, batch_seconds)
    bands = {name: (min(r), max(r)) for name, (r, _, _) in null.items()}
    ab = compare(cases(parent, workloads), cases(change, workloads),
                 rounds, batch_seconds)
    out = {}
    for name, (ratios, a, b) in ab.items():
        ratio, band = statistics.median(ratios), bands[name]
        out[name] = {"ratio": ratio,
                     "null_ratio": statistics.median(null[name][0]),
                     "null_band": list(band),
                     "parent_s": statistics.median(a),
                     "change_s": statistics.median(b),
                     "inside_null_band": band[0] <= ratio <= band[1]}
    return {"parent": Path(parent_tree).resolve().name,
            "change": Path(change_tree).resolve().name,
            "rounds": rounds, "batch_seconds": batch_seconds,
            "null_band": [min(lo for lo, _ in bands.values()),
                          max(hi for _, hi in bands.values())],
            "cases": out}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--batch-seconds", type=float, default=0.02)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 1 or not args.batch_seconds > 0.0:
        ap.error("--rounds must be >= 1 and --batch-seconds positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    out = report(args.parent, args.change, args.rounds, args.batch_seconds)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    lo, hi = out["null_band"]
    print(f"null band {lo:.3f}x .. {hi:.3f}x")
    for name, case in out["cases"].items():
        band = "{:.3f}-{:.3f}x".format(*case["null_band"])
        print(f"{case['ratio']:7.3f}x  (null {case['null_ratio']:.3f}x in "
              f"{band}, parent {case['parent_s'] * 1e6:9.1f} us)  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
