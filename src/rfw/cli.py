"""Command-line harness.

    rfw run-experiment --preset paper-desk --seed 42 --out trace.csv
    rfw certify --manifold sphere --dim 3 --radius 0.3 --notion scaling --alpha 1.5
    rfw lmo-test --manifold sphere --dim 3 --radius 1.0 --instances 20

run-experiment minimizes f(x) = 0.5 (x - x*)' A (x - x*), A a Gram
matrix of gram_rows Gaussian rows, over a geodesic ball on the sphere:
the ball is centered at x_c with radius ratio*dist(x_c, x*), where the
target x* is drawn within distance pi/2 of the center, so x* itself lies
outside the ball.  With gram_rows < ambient_dim, A is rank-deficient and
f can vanish inside the ball; the presets end in the interior
(dist(x_c, x)/radius about 0.74-0.81) with f near 0, not on the
boundary.  Output is a CSV trace plus a JSON summary with the fitted
tail contraction rate.

The RFW_LOG environment variable sets logging verbosity (DEBUG, INFO,
WARNING, ERROR).
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .balls import (ORACLE_KERNELS, GeodesicBall, lmo_brute_force,
                    random_boundary_best)
from .convexity import NOTIONS, _finite_or_none, ball_set, run_checker
from .errors import ConfigError, RfwError
from .manifolds import MANIFOLDS, Sphere, make_manifold
from .objectives import QuadraticOnEmbedded, gram_matrix
from .solver import RfwProblem, StepRule, rfw_run

log = logging.getLogger("rfw")


@dataclass
class ExperimentConfig:
    manifold: str = "sphere"
    ambient_dim: int = 50
    gram_rows: int = 25
    radius_ratio: float = 0.9
    seed: int = 0
    max_iter: int = 500
    gap_tol: float = 1e-10
    step_rule: str = "short-step"
    center: str = "ones"  # "ones" or "random"

    def validate(self):
        """Raise ConfigError unless every field has its type (an int
        will do for a float, a bool for no field) and a value in range;
        json.load reads NaN and Infinity, so gap_tol must be finite."""
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(
                    f"config field {f.name} must be {f.type.__name__}")
        if self.manifold != "sphere":
            raise ConfigError("run-experiment is defined on the sphere")
        if self.ambient_dim < 2 or self.gram_rows < 1:
            raise ConfigError("bad dimensions in config")
        if not 0.0 < self.radius_ratio < 1.0:
            raise ConfigError("radius_ratio must be in (0, 1)")
        if self.center not in ("ones", "random"):
            raise ConfigError("center must be 'ones' or 'random'")
        if self.max_iter < 1 or not 0.0 <= self.gap_tol < np.inf:
            raise ConfigError("bad solver limits in config")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        rules = [rule.value for rule in StepRule]
        if self.step_rule not in rules:
            raise ConfigError(f"step_rule must be one of {rules}")

    def to_json(self, **kw):
        return json.dumps(asdict(self), **kw)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


PRESETS = {
    "paper-desk": ExperimentConfig(),
    "paper-figure": ExperimentConfig(ambient_dim=500, gram_rows=250),
}


def build_experiment(config):
    """Deterministic in the seed: draw order is center (if random),
    then the target by rejection, then the Gram matrix."""
    config.validate()
    k = Sphere(config.ambient_dim)
    rng = np.random.default_rng(config.seed)
    if config.center == "ones":
        xc = np.ones(config.ambient_dim) / np.sqrt(config.ambient_dim)
    else:
        xc = k.random_point(rng)
    while True:
        xs = k.random_point(rng)
        d0 = k.dist(xc, xs)
        if 1e-3 <= d0 <= 0.5 * np.pi:
            break
    objective = QuadraticOnEmbedded(
        k, gram_matrix(rng, config.gram_rows, config.ambient_dim), xs)
    ball = GeodesicBall(k, xc, config.radius_ratio * d0)
    problem = RfwProblem(k, objective, ball_set(ball), L=objective.L, x0=xc)
    return problem, ball, {"dist_center_target": d0, "radius": ball.radius}


def tail_fit(iters, gaps):
    """Least-squares line through log(gap) on the last half of the
    iterations whose gap still clears 100 machine epsilons."""
    gaps = np.asarray(gaps, dtype=float)
    iters = np.asarray(iters, dtype=float)
    eligible = np.where(gaps > 100.0 * np.finfo(float).eps)[0]
    tail = eligible[len(eligible) // 2:]
    if len(tail) < 4:
        return {"n_tail": int(len(tail)), "slope": None, "rate": None,
                "r_squared": None}
    x, y = iters[tail], np.log(gaps[tail])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"n_tail": int(len(tail)), "slope": float(slope),
            "rate": float(np.exp(slope)), "r_squared": float(r2)}


def run_single_experiment(config, out_path):
    problem, ball, info = build_experiment(config)
    trace, x_final = rfw_run(problem, rule=config.step_rule,
                             max_iter=config.max_iter, gap_tol=config.gap_tol)
    trace.to_csv(out_path)
    summary = {
        "config": asdict(config),
        "status": trace.status,
        "iterations": len(trace),
        "final_f": trace.f[-1],
        "final_dual_gap": trace.dual_gap[-1],
        "radius": info["radius"],
        "dist_center_target": info["dist_center_target"],
        "tail_fit": tail_fit(trace.iters, trace.dual_gap),
    }
    summary_path = os.path.splitext(out_path)[0] + ".summary.json"
    with open(summary_path, "w") as fh:
        # strict JSON: an error run's NaN final_f is written as null
        json.dump(_finite_or_none(summary), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    log.info("trace written to %s, summary to %s", out_path, summary_path)
    return summary


def _parse_seeds(spec):
    try:
        a, b = spec.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ConfigError(f"--seeds wants 'a..b', got {spec!r}") from None
    if hi < lo:
        raise ConfigError("--seeds range is empty")
    return list(range(lo, hi + 1))


def _seed_out_path(base, seed):
    root, ext = os.path.splitext(base)
    return f"{root}_seed{seed}{ext or '.csv'}"


def cmd_run_experiment(args):
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r} "
                              f"(have {sorted(PRESETS)})")
        config = replace(PRESETS[args.preset])
    else:
        config = ExperimentConfig()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        config = ExperimentConfig.from_dict({**asdict(config), **file_cfg})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = args.out or "rfw_trace.csv"

    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
        summaries = [run_single_experiment(replace(config, seed=s),
                                           _seed_out_path(out, s))
                     for s in seeds]
        for s, summary in zip(seeds, summaries):
            print(f"seed {s}: status={summary['status']} "
                  f"final_gap={summary['final_dual_gap']:.3e}")
        return 0 if all(s["status"] != "error" for s in summaries) else 1

    summary = run_single_experiment(config, out)
    fit = summary["tail_fit"]
    rate = "n/a" if fit["rate"] is None else f"{fit['rate']:.6f}"
    r2 = "n/a" if fit["r_squared"] is None else f"{fit['r_squared']:.4f}"
    print(f"run-experiment: status={summary['status']} "
          f"iters={summary['iterations']} "
          f"final_gap={summary['final_dual_gap']:.3e} "
          f"tail_rate={rate} r2={r2} -> {out}")
    return 0 if summary["status"] != "error" else 1


def cmd_certify(args):
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    kernel = make_manifold(args.manifold, args.dim)
    ball = GeodesicBall(kernel, kernel.base_point(), args.radius)
    cset = ball_set(ball)
    rng = np.random.default_rng(args.seed)
    cert = run_checker(args.notion, cset, args.alpha, args.samples, rng)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert.to_json(indent=2, sort_keys=True))
            fh.write("\n")
    verdict = "PASS" if cert.passed else "FAIL"
    print(f"certify: manifold={args.manifold}({args.dim}) r={args.radius} "
          f"notion={args.notion} alpha={args.alpha} "
          f"worst_margin={cert.worst_margin:.3e} {verdict}")
    return 0 if cert.passed else 1


def cmd_lmo_test(args):
    if min(args.instances, args.grid, args.random_points) < 1:
        raise ConfigError(
            "--instances, --grid and --random-points must be >= 1")
    kernel = make_manifold(args.manifold, args.dim)
    if kernel.dim < 2:
        raise ConfigError(f"lmo-test: {kernel.name} has dimension "
                          f"{kernel.dim}, the oracle needs >= 2")
    ball = GeodesicBall(kernel, kernel.base_point(), args.radius)
    rng = np.random.default_rng(args.seed)
    worst_gap = 0.0
    for _ in range(args.instances):
        x = ball.sample(rng)
        w = kernel.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        _, brute = lmo_brute_force(ball, w, x, args.grid)
        brute = max(brute, random_boundary_best(ball, w, x,
                                                args.random_points, rng))
        scale = max(1.0, abs(brute))
        worst_gap = max(worst_gap, (brute - res.objective) / scale)
    ok = worst_gap <= args.tol
    print(f"lmo-test: manifold={args.manifold}({args.dim}) r={args.radius} "
          f"instances={args.instances} max_rel_gap={worst_gap:.3e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rfw",
        description="Frank-Wolfe on manifolds: experiment harness, "
                    "convexity certification, oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-experiment", help="sphere quadratic experiment")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--seeds", help="seed sweep 'a..b', one trace per seed")
    p.add_argument("--out", help="trace CSV path (default rfw_trace.csv)")
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("certify", help="certify a ball convexity constant")
    p.add_argument("--manifold", default="sphere", choices=list(MANIFOLDS))
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--notion", default="scaling", choices=list(NOTIONS))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="certificate JSON path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "lmo-test", help="check the ball oracle against boundary grids")
    p.add_argument("--manifold", default="sphere",
                   choices=[name for name, cls in MANIFOLDS.items()
                            if issubclass(cls, ORACLE_KERNELS)])
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--grid", type=int, default=20000)
    p.add_argument("--random-points", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_lmo_test)
    return parser


def main(argv=None):
    level = os.environ.get("RFW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RfwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
