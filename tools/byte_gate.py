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
  benchmark's certify workloads: on the sphere the first normal of the
  first block is such a center's own, and is drawn again).  The next
  draw pins how much of the stream a certificate took: one block per
  slot of its sample's layout, then a normal per unit tangent drawn
  again;
* the same double_geodesic certificates under the distance d = 2 dist,
  at a quarter of each alpha (the same required clearances);
* certificates at the edge of a kernel's domain, around the base point
  with the generator default_rng([s, 0]) for s in 0, 1, 5: the three
  membership notions on Spd(3) r 2 at alpha 10 and 20 (far probes
  that are not positive definite) and on Sphere(3) r 1.2 at alpha 10
  (rays longer than pi), and approx_scaling on Sphere(3) r 1 at
  alpha 4 (residuals that leave the exp domain);
* certificates of the three membership notions on two sets that are
  not balls, made from each ball of the grid around the base point, at
  the grid's passing and failing alpha, with the generator
  default_rng([s, 0]) for s in 0, 1, 5: the ball with its membership
  and sampler wrapped in lambdas (membership answered row by row, the
  sampler called once per point) and the ball cut by the half-space
  {z : last coordinate of z <= that of the center + radius / 4} (its
  sampler rejects points of the ball until one lies in the cut);
* zero-sample certificates of every notion and both function-class
  checks, with the generator's next draw, on each ball of the grid
  around the base point;
* the `rfw certify --out` file, exit code and printed line of every
  notion on the sphere cap of radius 0.3 and the SPD ball of radius 1,
  at a passing and a failing alpha, and of the riemannian notion on
  the SPD ball of radius 2 at alpha 10 with 200 samples;
* both function-class checks and min_gradient_norm;
* estimate_alpha of every notion on a disk and on a cap;
* per oracle ball, 40 oracle results (a quarter of them at boundary
  points), three on a degenerate search plane (x at the center, and w
  along +-log_x(center)) and one just inside the boundary (x 1e-12
  inside it, w its outward normal tilted by 1e-6: F' at the wedge edge
  decides the bracket's side), each from a single call, and all 44
  (w, x) pairs again as the rows of one stacked call;
* the oracle's bracket corners (lmo-ties/ and lmo-ties-rows/, named
  for the ties of an earlier phi grid, kept so that trees compare):
  per oracle ball, three times x at the center, w along log_x(center)
  at a sampled x (the plane is a line, phi = 0) and a boundary point
  with w its outward normal, exact and tilted by 1e-12, 1e-6 and 1e-2
  (F is 0 over the outward rays, and the bracket is the inward
  wedge), from default_rng(13), each from a single call and all 18
  again as the rows of one stacked call;
* the paper-desk trace CSV and summary for seeds 0 and 42;
* draws (draws/): GeodesicBall.sample on each ball of the grid, around
  the base point and around random_point(default_rng(s)), from
  default_rng(s), with the generator's next draw, for s in 0, 1, 5 (on
  the sphere the random center's first normal is its own, and is drawn
  again); per oracle ball around the base point and around
  random_point(default_rng(0)), random_boundary_best (200 points,
  default_rng(23), with its next draw) and lmo_brute_force (2000
  points) at seven of the oracle's pairs (four drawn, x at the center,
  and w along +-log_x(center)); and the contraction_check report
  (factor, threshold, checked rows, violations, largest ratio) on four
  fixed traces: one that passes, one with a violation, one with a NaN
  ratio and one with a burn-in;
* clearances (clearances/): the private _clearances of rfw.convexity
  on each ball of the grid, around the base point and around
  random_point(default_rng(s)), from default_rng([s, 1]) for s in 0, 1,
  5, on CLEARANCE_ROWS rays, with and without an offset.  Without one,
  a ray starts at its base, a point exp_c(rho u) at a uniform rho of
  up to 1.5 radius from the center c (a third of them outside); with
  one, its base is a sample of the ball and its offset log_x of
  another such point.  Directions are unit tangents at the bases;
  required clearances are uniform up to twice the radius, but for
  0, NaN and one far one whose probes go past the exp domain (past
  dist's on SPD).  A last row runs along a diameter, from a boundary
  point through c (offset 0), a member at hi_cap.  Each row alone (so
  that no row leaves a race), and the first lowest row of the stack
  without the NaN row, with its margin; on the ball and on both sets
  that are not balls made from it (as above, clearances/wrapped/ and
  clearances/cut/), on the same rays;
* per kernel at n = 3 (kernel/): name, n, dim, point_shape, curvature
  and base_point(); random_point from default_rng(s), and
  random_unit_tangent at the base point and at that random point (on
  the sphere its first normal is the point's own, and is drawn again)
  from default_rng(s), each with the generator's next draw, for s in
  0, 1, 5; exp, log, dist, transport, project_tangent and geodesic on
  six rows (tangent lengths 0, 1e-13, 0.7, 1.9, one outside exp's
  domain and a NaN row; targets exp_x of an in-domain tangent but a
  negated and a NaN one), at a random point per row and at the base
  point broadcast, each row as a single call and all six as one stacked
  call; the check_point and check_tangent verdicts on points and
  vectors of the wrong shape, off the embedding constraint, or fine;
  and the ConfigError of n = 1.

An output that raises an rfw error is hashed as its type and message.
BLAS is pinned to one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import functools
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
from rfw import (ConvexSet, GeodesicBall, QuadraticOnEmbedded,
                 SquaredDistanceObjective, ball_set,
                 check_gconvexity_of_function,
                 check_smoothness_gradient_bound, contraction_check,
                 estimate_alpha, lmo_brute_force, make_manifold,
                 min_gradient_norm, random_boundary_best, run_checker)
from rfw.cli import PRESETS, build_parser, run_single_experiment
from rfw.convexity import NOTIONS, _clearances
from rfw.solver import RfwTrace

SEEDS = (0, 1, 5)
BALLS = (("euclidean", 3, 1.0), ("sphere", 3, 0.3), ("sphere", 3, 1.2),
         ("hyperboloid", 3, 1.0), ("hyperboloid", 3, 2.0), ("spd", 3, 1.0))
ALPHAS = (("pass", 0.1), ("fail", 5.0))  # times 1/radius
SAMPLES = 30
CLEARANCE_ROWS = 24
ORACLE_CALLS = 40
TIE_TILTS = (0.0, 1e-12, 1e-6, 1e-2)
MEMBERSHIP = ("geodesic", "riemannian", "double_geodesic")
EDGES = (  # kernel, dim, radius, alpha, notions
    ("spd", 3, 2.0, 10.0, MEMBERSHIP), ("spd", 3, 2.0, 20.0, MEMBERSHIP),
    ("sphere", 3, 1.2, 10.0, MEMBERSHIP),
    ("sphere", 3, 1.0, 4.0, ("approx_scaling",)))
CHECKS = (("smoothness", check_smoothness_gradient_bound),
          ("gconvexity", check_gconvexity_of_function))
KERNELS = ("euclidean", "sphere", "hyperboloid", "spd")
# a tangent length outside each kernel's exp domain (Euclidean has none;
# SPD's row is 400 X, whose middle factor X^{-1/2} V X^{-1/2} has every
# eigenvalue 400)
OUT_OF_EXP = {"euclidean": 10.0, "sphere": 3.5, "hyperboloid": 301.0}


def encode(value):
    """Bytes that pin a value down bit for bit: arrays by dtype, shape
    and contents, floats by their hex form.  Every NaN is written as
    numpy's: the sign a NaN takes through numpy's vector loops depends
    on the alignment of its operands, so it differs from run to run."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            value = np.where(np.isnan(value), np.nan, value)
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


def certificates(out):
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
                                distance=twice_dist))


def edge_certificates(out):
    for kernel, dim, radius, alpha, notions in EDGES:
        k = make_manifold(kernel, dim)
        cset = ball_set(GeodesicBall(k, k.base_point(), radius))
        for notion in notions:
            for seed in SEEDS:
                out[f"edge/{k.name}/r{radius}/a{alpha}/{notion}/s{seed}"] = (
                    certificate(cset, notion, alpha, seed))


def other_sets(ball):
    """(tag, set) of the two sets that are not balls made from ball: the
    ball behind lambdas, and the ball cut by a half-space."""
    k = ball.kernel
    yield "wrapped", ConvexSet(k, lambda z: ball.membership(z),
                               lambda rng: ball.sample(rng),
                               diameter=ball.diameter)
    cut = ball.center.ravel()[-1] + 0.25 * ball.radius

    def sample(rng):
        while True:
            z = ball.sample(rng)
            if z.ravel()[-1] <= cut:
                return z
    yield "cut", ConvexSet(
        k, lambda z: bool(ball.membership(z)) and z.ravel()[-1] <= cut,
        sample, diameter=ball.diameter)


def set_certificates(out):
    for kernel, dim, radius in BALLS:
        k = make_manifold(kernel, dim)
        ball = GeodesicBall(k, k.base_point(), radius)
        for tag, cset in other_sets(ball):
            for verdict, scale in ALPHAS:
                for notion in MEMBERSHIP:
                    for seed in SEEDS:
                        out[f"{tag}/{k.name}/r{radius}/{notion}/{verdict}"
                            f"/s{seed}"] = certificate(
                                cset, notion, scale / radius, seed)


def zero_samples(out):
    for kernel, dim, radius in BALLS:
        k = make_manifold(kernel, dim)
        ball = GeodesicBall(k, k.base_point(), radius)
        cset = ball_set(ball)
        fn = SquaredDistanceObjective(k, ball.center).as_smooth_fn(radius)
        runs = [(notion, functools.partial(run_checker, notion, cset, 1.0))
                for notion in NOTIONS]
        runs += [(tag, functools.partial(check, fn, cset))
                 for tag, check in CHECKS]
        for tag, run in runs:
            def cert():
                rng = np.random.default_rng(0)
                return run(0, rng).to_json(sort_keys=True), rng.random()
            out[f"zero/{k.name}/r{radius}/{tag}"] = digest(cert)


def certify(tmp, manifold, radius, notion, alpha, samples):
    """Digest of rfw certify's exit code, printed line and --out file."""
    path = Path(tmp) / f"{manifold}-r{radius}-{notion}-a{alpha}.json"
    args = build_parser().parse_args([
        "certify", "--manifold", manifold, "--dim", "3",
        "--radius", str(radius), "--notion", notion, "--alpha", str(alpha),
        "--samples", str(samples), "--out", str(path)])

    def run():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = args.func(args)
        return rc, printed.getvalue(), path.read_bytes()
    return digest(run)


def cli_certificates(out):
    with tempfile.TemporaryDirectory() as tmp:
        for manifold, radius in (("sphere", 0.3), ("spd", 1.0)):
            for notion in NOTIONS:
                for verdict, scale in ALPHAS:
                    out[f"certify/{manifold}/r{radius}/{notion}/{verdict}"] = (
                        certify(tmp, manifold, radius, notion, scale / radius,
                                SAMPLES))
        out["certify/spd/r2.0/riemannian/a10/n200"] = certify(
            tmp, "spd", 2.0, "riemannian", 10.0, 200)


def function_checks(out):
    for name, ball in balls(0):
        k = ball.kernel
        fn = SquaredDistanceObjective(k, ball.center).as_smooth_fn(ball.radius)
        cset = ball_set(ball)
        for seed in SEEDS:
            for tag, check in CHECKS:
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
        for tag, check in CHECKS:
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


def lmo_fields(res, i=None):
    """The oracle's outputs, of row i of a stacked result if given."""
    fields = res.vertex, res.objective, res.log, res.phi
    if i is None:
        return fields
    return tuple(None if f is None else f[i] for f in fields)


def oracle_pairs(ball, rng):
    """(tag, w, x) of the oracle inputs of one ball: ORACLE_CALLS pairs,
    then the degenerate planes and the edge of the refinement."""
    k, x0, r = ball.kernel, ball.center, ball.radius
    for i in range(ORACLE_CALLS):
        if i % 4 == 0:
            u = k.random_unit_tangent(x0, rng)
            x = k.exp(x0, r * u)
        else:
            x = ball.sample(rng)
        yield f"{i:02d}", k.random_unit_tangent(x, rng), x
    yield "center", k.random_unit_tangent(x0, rng), x0
    x = ball.sample(rng)
    g = k.log(x, x0)
    yield "inward", g / k.norm(x, g), x
    yield "outward", -g / k.norm(x, g), x
    x = k.exp(x0, (r - 1e-12) * k.random_unit_tangent(x0, rng))
    yield "nosign", tilted_normals(ball, x, rng, (1e-6,))[0], x


def tilted_normals(ball, x, rng, tilts):
    """x's outward normal (away from the center) plus each tilt times
    one unit tangent orthogonal to it, drawn from rng."""
    k = ball.kernel
    g = k.log(x, ball.center)
    normal = -g / k.norm(x, g)
    t = k.random_tangent(x, rng)
    t = t - k.inner(x, normal, t) * normal
    return [normal + tilt * t / k.norm(x, t) for tilt in tilts]


def oracle_digests(out, family, name, ball, pairs):
    """Each pair's oracle result as a single call (family/name/tag), and
    all of them as the rows of one stacked call (family-rows/name/tag)."""
    for tag, w, x in pairs:
        out[f"{family}/{name}/{tag}"] = digest(
            lambda: lmo_fields(ball.lmo(w, x)))
    w = np.array([w for _, w, _ in pairs])
    x = np.array([x for _, _, x in pairs])
    stacked = functools.cache(lambda: ball.lmo(w, x))
    for i, (tag, _, _) in enumerate(pairs):
        out[f"{family}-rows/{name}/{tag}"] = digest(
            lambda: lmo_fields(stacked(), i))


def oracle_results(out):
    for name, ball in balls(0):
        if ball.kernel.name.startswith("spd"):
            continue
        oracle_digests(out, "lmo", name, ball,
                       list(oracle_pairs(ball, np.random.default_rng(11))))
        oracle_digests(out, "lmo-ties", name, ball,
                       list(tie_pairs(ball, np.random.default_rng(13))))


def tie_pairs(ball, rng):
    """(tag, w, x) of the oracle's bracket corners on one ball: three
    times x at the center, w along log_x(center) from a sampled x (the
    plane is a line) and a boundary point with w its outward normal
    tilted by each of TIE_TILTS (F is 0 over the outward rays, and the
    bracket is the inward wedge)."""
    k, x0, r = ball.kernel, ball.center, ball.radius
    for i in range(3):
        yield f"center{i}", k.random_unit_tangent(x0, rng), x0
        x = ball.sample(rng)
        g = k.log(x, x0)
        yield f"inward{i}", g / k.norm(x, g), x
        x = k.exp(x0, r * k.random_unit_tangent(x0, rng))
        for tilt, w in zip(TIE_TILTS, tilted_normals(ball, x, rng, TIE_TILTS)):
            yield f"boundary{i}/tilt{tilt:g}", w, x


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


BOUNDARY_PAIRS = ("00", "01", "02", "03", "center", "inward", "outward")
TRACES = (  # tag, f, dist_xv, contraction_check's alpha, c, L, keywords
    ("pass", [8.0, 4.0, 1.5, 0.5, 0.125], [1.0, 0.8, 0.5, 0.2, 0.0],
     0.5, 1.0, 1.0, {}),
    ("violation", [1.0, 0.6, 0.59, 0.2, 0.1], [0.5] * 5, 1.0, 1.0, 1.0, {}),
    ("nan", [1.0, 0.5, np.nan, 0.1], [0.1] * 4, 0.25, 1.0, 1.0, {}),
    ("burn-in", [8.0, 4.0, 2.0, 1.0, 1e-20, 5e-21],
     [2.0, 1.5, 0.9, 0.5, 0.1, 0.0], 1.0, 1.0, 1.0,
     {"diameter": 1.0, "c_tilde": 0.5}))


def draws(out):
    for seed in SEEDS:
        for name, ball in balls(seed):
            def sample():
                rng = np.random.default_rng(seed)
                return ball.sample(rng), rng.random()
            out[f"draws/sample/{name}/s{seed}"] = digest(sample)
    for name, ball in balls(0):
        if ball.kernel.name.startswith("spd"):
            continue
        pairs = oracle_pairs(ball, np.random.default_rng(11))
        for tag, w, x in pairs:
            if tag not in BOUNDARY_PAIRS:
                continue

            def best():
                rng = np.random.default_rng(23)
                return random_boundary_best(ball, w, x, 200, rng), rng.random()
            out[f"draws/boundary_best/{name}/{tag}"] = digest(best)
            out[f"draws/brute_force/{name}/{tag}"] = digest(
                lambda: lmo_brute_force(ball, w, x, 2000))
    for tag, f, dist, alpha, c, L, keywords in TRACES:
        trace = RfwTrace()
        for t, row in enumerate(zip(f, dist)):
            trace.append(t, row[0], 1.0, 0.5, row[1])

        def report():
            r = contraction_check(trace, alpha, c, L, 0.0, **keywords)
            return (r.factor, r.threshold_dist2, r.checked, r.violations,
                    r.max_ratio)
        out[f"draws/contraction/{tag}"] = digest(report)


def clearance_rays(ball, rng, with_offset):
    """(base, direction, required, offset or None) of CLEARANCE_ROWS
    rays on ball, as the clearances/ family describes them."""
    k, c, r = ball.kernel, ball.center, ball.radius
    n = CLEARANCE_ROWS - 1
    offset = None
    if with_offset:
        base = np.array([ball.sample(rng) for _ in range(n)])
        offset = np.array([k.log(x, ball.sample(rng)) for x in base])
    else:
        u = np.array([k.random_unit_tangent(c, rng) for _ in range(n)])
        rho = 1.5 * r * rng.random(n)
        base = k.exp(c, rho.reshape((n,) + (1,) * c.ndim) * u)
    direction = np.array([k.random_unit_tangent(x, rng) for x in base])
    required = 2.0 * r * rng.random(n)
    required[:3] = 0.0, np.nan, OUT_OF_EXP.get(type(k).__name__.lower(),
                                               160.0)
    p = k.exp(c, r * k.random_unit_tangent(c, rng))
    g = k.log(p, c)
    rays = (np.append(base, [p], 0),
            np.append(direction, [g / k.norm(p, g)], 0),
            np.append(required, 0.5 * r))
    if offset is None:
        return rays + (None,)
    return rays + (np.append(offset, [np.zeros_like(c)], 0),)


def clearances(out):
    def take(rays, rows):
        return tuple(None if a is None else a[rows] for a in rays)

    for seed in SEEDS:
        for name, ball in balls(seed):
            sets = [("", ball_set(ball))]
            sets += [(f"{set_tag}/", cset) for set_tag, cset in
                     other_sets(ball)]
            for tag in ("ray", "offset"):
                rays = clearance_rays(ball, np.random.default_rng([seed, 1]),
                                      tag == "offset")
                for set_tag, cset in sets:
                    def rows():
                        return [_clearances(cset, *take(rays, [i]))
                                for i in range(CLEARANCE_ROWS)]

                    def stack():
                        margins = _clearances(
                            cset, *take(rays, ~np.isnan(rays[2])))
                        low = np.where(np.isnan(margins), -np.inf, margins)
                        i = int(np.argmin(low))
                        return i, margins[i]
                    at = f"clearances/{set_tag}{name}/{tag}/s{seed}"
                    out[f"{at}/rows"] = digest(rows)
                    out[f"{at}/stack"] = digest(stack)


def map_rows(kernel, k, x, rng):
    """{map: (function, rows of its arguments)} of the kernel maps at
    the points x, a stack of six rows or one point broadcast: tangents
    of lengths 0, 1e-13, 0.7, 1.9, one outside exp's domain and NaN,
    targets exp_x of the first four, then -x and NaN, unit tangents,
    ambient normals and times."""
    bases = x if x.ndim > len(k.point_shape) else np.array([x] * 6)
    u = np.array([k.random_unit_tangent(p, rng) for p in bases])
    sizes = np.array([0.0, 1e-13, 0.7, 1.9, OUT_OF_EXP.get(kernel, 0.0),
                      np.nan])
    v = sizes.reshape((6,) + (1,) * len(k.point_shape)) * u
    if kernel == "spd":
        v[4] = 400.0 * bases[4]
    y = np.array([k.exp(p, s * w) for p, w, s in zip(bases, u, sizes[:4])]
                 + [-bases[4], np.full(k.point_shape, np.nan)])
    t = rng.random(6)
    a = rng.standard_normal(u.shape)
    return {"exp": (k.exp, (v,)), "log": (k.log, (y,)),
            "dist": (k.dist, (y,)), "transport": (k.transport, (y, u)),
            "project_tangent": (k.project_tangent, (a,)),
            "geodesic": (k.geodesic, (y, t))}


def kernels(out):
    for kernel in KERNELS:
        k = make_manifold(kernel, 3)
        tag = f"kernel/{kernel}"
        c = k.curvature
        for attr, value in (
                ("name", k.name), ("n", k.n), ("dim", k.dim),
                ("point_shape", k.point_shape),
                ("curvature", (c.kappa_min, c.kappa_max,
                               c.grad_curvature_bound, c.K)),
                ("base_point", k.base_point())):
            out[f"{tag}/{attr}"] = digest(lambda: value)
        out[f"{tag}/n1"] = digest(lambda: make_manifold(kernel, 1))
        for seed in SEEDS:
            def drawn(draw):
                rng = np.random.default_rng(seed)
                return draw(rng), rng.random()
            point = k.random_point(np.random.default_rng(seed))
            out[f"{tag}/random_point/s{seed}"] = digest(
                lambda: drawn(k.random_point))
            for at, p in (("base", k.base_point()), ("point", point)):
                out[f"{tag}/random_unit_tangent/{at}/s{seed}"] = digest(
                    lambda: drawn(lambda rng: k.random_unit_tangent(p, rng)))
        rng = np.random.default_rng(7)
        for at, x in (("rows", np.array([k.random_point(rng)
                                         for _ in range(6)])),
                      ("base", k.base_point())):
            stacked = x.ndim > len(k.point_shape)
            for name, (fn, args) in map_rows(kernel, k, x, rng).items():
                for i in range(6):
                    out[f"{tag}/{at}/{name}/{i}"] = digest(lambda: fn(
                        x[i] if stacked else x, *(a[i] for a in args)))
                out[f"{tag}/{at}/{name}/stacked"] = digest(
                    lambda: fn(x, *args))
        b = k.base_point()
        off = b + 1e-3 * np.arange(b.size).reshape(b.shape)
        wrong = np.zeros(b.shape[:-1] + (b.shape[-1] + 1,))
        unit = k.random_unit_tangent(b, np.random.default_rng(0))
        for what, p in (("fine", b.tolist()), ("scalar", 1.0),
                        ("shape", wrong), ("scaled", 2.0 * b),
                        ("negated", -b), ("off", off)):
            out[f"{tag}/check_point/{what}"] = digest(
                lambda: k.check_point(p))
        for what, w in (("fine", unit), ("scalar", 0.0), ("shape", wrong),
                        ("off", off), ("stacked", np.array([unit, off]))):
            out[f"{tag}/check_tangent/{what}"] = digest(
                lambda: k.check_tangent(b, w))


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = {}
    for part in (certificates, edge_certificates, set_certificates,
                 zero_samples, cli_certificates, function_checks,
                 alpha_estimates, oracle_results, experiments, draws,
                 clearances, kernels):
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
