"""Byte-identity gate: one SHA-256 per output of a fixed grid of rfw calls.

    PYTHONPATH=<tree>/src python3 tools/byte_gate.py OUT

writes OUT/hashes.json, {output name: SHA-256 of its bytes}, one output
per line.  Run it once on each of two source trees, each with its own
src/ on PYTHONPATH, and diff the two files: a change that claims
byte-identical outputs must leave no line different.  The grid:

* certificates (to_json plus the generator's next draw) of every notion
  on Euclidean(3) r 1, Sphere(3) r 0.3 and 1.2, Hyperboloid(3) r 1 and
  2 and Spd(3) r 1, at a passing and a failing alpha, around the base
  point and around random_point(default_rng(s)), with the certificate's
  generator default_rng([s, 0]) for s in 0, 1, 5 (the streams of the
  benchmark's certify workloads, whose first tangent at such a center
  is redrawn);
* the same double_geodesic certificates under the distance d = 2 dist,
  at a quarter of each alpha (the same required clearances), through
  whichever API the tree has: run_checker(..., distance=fn) or the
  older dist_eq=DistanceEquivalence(2, 2, fn);
* the `rfw certify --out` file, exit code and printed line of every
  notion on the sphere cap of radius 0.3 and the SPD ball of radius 1,
  at a passing and a failing alpha;
* both function-class checks and min_gradient_norm;
* estimate_alpha of every notion on a disk and on a cap;
* 40 oracle results per oracle ball, a quarter of them at boundary
  points;
* the paper-desk trace CSV and summary for seeds 0 and 42.

An output that raises an rfw error is hashed as its type and message.
BLAS is pinned to one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import rfw
from rfw import (GeodesicBall, QuadraticOnEmbedded, SquaredDistanceObjective,
                 ball_set, check_gconvexity_of_function,
                 check_smoothness_gradient_bound, estimate_alpha,
                 make_manifold, min_gradient_norm, run_checker)
from rfw.cli import PRESETS, build_parser, run_single_experiment
from rfw.convexity import NOTIONS

SEEDS = (0, 1, 5)
BALLS = (("euclidean", 3, 1.0), ("sphere", 3, 0.3), ("sphere", 3, 1.2),
         ("hyperboloid", 3, 1.0), ("hyperboloid", 3, 2.0), ("spd", 3, 1.0))
ALPHAS = (("pass", 0.1), ("fail", 5.0))  # times 1/radius
SAMPLES = 30
ORACLE_CALLS = 40


def encode(value):
    """Bytes that pin a value down bit for bit: arrays by dtype, shape
    and contents, floats by their hex form."""
    if isinstance(value, np.ndarray):
        return (f"{value.dtype.str}{value.shape}".encode()
                + np.ascontiguousarray(value).tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(encode(v) for v in value) + b")"
    return repr(value).encode()


def digest(fn):
    """SHA-256 of fn()'s encoded value, or of the rfw error it raises."""
    try:
        value = fn()
    except rfw.RfwError as exc:
        value = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(encode(value)).hexdigest()


def balls(seed):
    """(name, ball) for each ball of the grid, around the base point and
    around a random point drawn from default_rng(seed)."""
    for kernel, dim, radius in BALLS:
        k = make_manifold(kernel, dim)
        seeded = k.random_point(np.random.default_rng(seed))
        centers = (("base", k.base_point()), (f"rand{seed}", seeded))
        for tag, center in centers:
            yield (f"{k.name}/r{radius}/{tag}",
                   GeodesicBall(k, center, radius))


def certificate(cset, notion, alpha, seed, **kwargs):
    """Digest of a certificate's JSON and of its generator's next draw."""
    def cert():
        rng = np.random.default_rng([seed, 0])
        c = run_checker(notion, cset, alpha, SAMPLES, rng, **kwargs)
        return c.to_json(sort_keys=True), rng.random()
    return digest(cert)


def twice_dist(k, x, y):
    return 2.0 * k.dist(x, y)


def doubled_distance():
    """run_checker keywords for d = 2 dist in this tree's API."""
    if hasattr(rfw.convexity, "DistanceEquivalence"):
        return {"dist_eq": rfw.convexity.DistanceEquivalence(2.0, 2.0,
                                                             twice_dist)}
    return {"distance": twice_dist}


def certificates(out):
    doubled = doubled_distance()
    for seed in SEEDS:
        for name, ball in balls(seed):
            cset = ball_set(ball)
            for verdict, scale in ALPHAS:
                alpha = scale / ball.radius
                for notion in NOTIONS:
                    out[f"cert/{name}/{notion}/{verdict}/s{seed}"] = (
                        certificate(cset, notion, alpha, seed))
                out[f"cert2d/{name}/double_geodesic/{verdict}/s{seed}"] = (
                    certificate(cset, "double_geodesic", 0.25 * alpha, seed,
                                **doubled))


def cli_certificates(out):
    """rfw certify's exit code, printed line and --out file."""
    with tempfile.TemporaryDirectory() as tmp:
        for manifold, radius in (("sphere", 0.3), ("spd", 1.0)):
            for notion in NOTIONS:
                for verdict, scale in ALPHAS:
                    path = Path(tmp) / f"{manifold}-{notion}-{verdict}.json"
                    args = build_parser().parse_args([
                        "certify", "--manifold", manifold, "--dim", "3",
                        "--radius", str(radius), "--notion", notion,
                        "--alpha", str(scale / radius),
                        "--samples", str(SAMPLES), "--out", str(path)])

                    def run():
                        printed = io.StringIO()
                        with contextlib.redirect_stdout(printed):
                            rc = args.func(args)
                        return rc, printed.getvalue(), path.read_bytes()
                    out[f"certify/{manifold}/r{radius}/{notion}/{verdict}"] = (
                        digest(run))


def function_checks(out):
    checks = (("smoothness", check_smoothness_gradient_bound),
              ("gconvexity", check_gconvexity_of_function))
    for name, ball in balls(0):
        k = ball.kernel
        fn = SquaredDistanceObjective(k, ball.center).as_smooth_fn(ball.radius)
        cset = ball_set(ball)
        for seed in SEEDS:
            for tag, check in checks:
                def cert():
                    rng = np.random.default_rng(seed)
                    c = check(fn, cset, SAMPLES, rng)
                    return c.to_json(sort_keys=True), rng.random()
                out[f"fncheck/{name}/sqdist/{tag}/s{seed}"] = digest(cert)
            if k.name.startswith(("sphere", "euclidean")):
                q = QuadraticOnEmbedded.random(k, 2,
                                               np.random.default_rng(seed))
                out[f"mingrad/{name}/quadratic/s{seed}"] = digest(
                    lambda: min_gradient_norm(q, cset, SAMPLES,
                                              np.random.default_rng(seed)))
    k = make_manifold("euclidean", 3)
    cset = ball_set(GeodesicBall(k, k.base_point(), 1.0))
    for seed in SEEDS:
        q = QuadraticOnEmbedded.random(k, 3, np.random.default_rng(seed))
        fn = q.as_smooth_fn(fstar=0.0)
        for tag, check in checks:
            out[f"fncheck/{k.name}/quadratic/{tag}/s{seed}"] = digest(
                lambda: check(fn, cset, SAMPLES, np.random.default_rng(seed)
                              ).to_json(sort_keys=True))


def alpha_estimates(out):
    for kernel, dim, radius in (("euclidean", 2, 1.0), ("sphere", 3, 0.5)):
        k = make_manifold(kernel, dim)
        cset = ball_set(GeodesicBall(k, k.base_point(), radius))
        for notion in NOTIONS:
            out[f"estimate_alpha/{k.name}/r{radius}/{notion}"] = digest(
                lambda: estimate_alpha(cset, notion, SAMPLES,
                                       np.random.default_rng(3)))


def lmo_fields(res):
    return res.vertex, res.objective, res.log, res.phi


def oracle_results(out):
    for name, ball in balls(0):
        if ball.kernel.name.startswith("spd"):
            continue
        k, rng = ball.kernel, np.random.default_rng(11)
        for i in range(ORACLE_CALLS):
            if i % 4 == 0:
                u = k.random_unit_tangent(ball.center, rng)
                x = k.exp(ball.center, ball.radius * u)
            else:
                x = ball.sample(rng)
            w = k.random_unit_tangent(x, rng)
            out[f"lmo/{name}/{i:02d}"] = digest(
                lambda: lmo_fields(ball.lmo(w, x)))


def experiments(out):
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (0, 42):
            path = Path(tmp) / f"desk{seed}.csv"
            config = replace(PRESETS["paper-desk"], seed=seed)
            run_single_experiment(config, str(path))
            for tag, p in (("csv", path), ("summary",
                                           path.with_suffix(".summary.json"))):
                out[f"paper-desk/s{seed}/{tag}"] = hashlib.sha256(
                    p.read_bytes()).hexdigest()


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = {}
    for part in (certificates, cli_certificates, function_checks,
                 alpha_estimates, oracle_results, experiments):
        part(out)
    os.makedirs(argv[1], exist_ok=True)
    path = os.path.join(argv[1], "hashes.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"byte_gate: {len(out)} outputs of rfw from "
          f"{os.path.dirname(rfw.__file__)} -> {path} "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
