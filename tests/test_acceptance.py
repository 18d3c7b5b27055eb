"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`)
and enforces both the numeric target and a wall-clock cap.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from rfw import (Euclidean, GeodesicBall, Hyperboloid, QuadraticOnEmbedded,
                 RfwProblem, Spd, Sphere, SquaredDistanceObjective, ball_set,
                 contraction_check, estimate_alpha, min_gradient_norm,
                 residual, rfw_run, run_checker, strong_convexity_radius)
from rfw.balls import (_alpha_phi_bisect, _section_frame, alpha_phi_sphere,
                       lmo_brute_force, random_boundary_best)
from rfw.cli import PRESETS, run_single_experiment
from rfw.convexity import (SmoothStronglyConvexFn, ball_strong_convexity_alpha,
                           check_gconvexity_of_function,
                           check_smoothness_gradient_bound)
from helpers import (ball_quadratic_fstar, geometry_invariant_worst,
                     hadamard_slacks)


def _verdict(num, name, ok, elapsed, cap, detail):
    status = "PASS" if ok and (cap is None or elapsed < cap) else "FAIL"
    cap_s = "" if cap is None else f", cap {cap:g}s"
    print(f"[criterion {num:02d}] {name}: {status} ({detail}; "
          f"{elapsed:.2f}s{cap_s})")
    assert ok, f"criterion {num}: {detail}"
    if cap is not None:
        assert elapsed < cap, f"criterion {num}: {elapsed:.2f}s over cap"


def test_criterion_01_geometry_kernels():
    t0 = time.perf_counter()
    kernels = [Euclidean(6), Sphere(6), Hyperboloid(4), Spd(3)]
    worst = 0.0
    for i, k in enumerate(kernels):
        worst = max(worst, geometry_invariant_worst(
            k, 1000, np.random.default_rng(100 + i)))
    elapsed = time.perf_counter() - t0
    _verdict(1, "geometry kernel invariants", worst <= 1e-8, elapsed, 10.0,
             f"4 kernels x 1000 samples, worst error {worst:.3e}")


def test_criterion_02_lmo_against_brute_force():
    t0 = time.perf_counter()
    worst_gap, worst_alpha, count = -np.inf, 0.0, 0
    rng = np.random.default_rng(200)
    for n in (3, 10):
        k = Sphere(n)
        for r in (0.3, 1.0):
            ball = GeodesicBall(k, k.base_point(), r)
            c = np.cos(r)
            for _ in range(25):
                x = ball.sample(rng)
                w = k.random_unit_tangent(x, rng)
                res = ball.lmo(w, x)
                _, brute = lmo_brute_force(ball, w, x, 100_000)
                brute = max(brute, random_boundary_best(ball, w, x, 1000,
                                                        rng))
                scale = max(1.0, abs(brute))
                worst_gap = max(worst_gap, (brute - res.objective) / scale)
                count += 1
                u1, u2, _, _ = _section_frame(k, x, w, k.norm(x, w),
                                              k.log(x, ball.center))
                a = max(float(np.dot(ball.center, x)), c)
                b = (np.cos(res.phi) * float(np.dot(ball.center, u1))
                     + np.sin(res.phi) * float(np.dot(ball.center, u2)))
                worst_alpha = max(worst_alpha, abs(
                    alpha_phi_sphere(a, b, c) - _alpha_phi_bisect(a, b, c)))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-5 and worst_alpha <= 1e-8 and count == 100
    _verdict(2, "ball oracle vs boundary grid", ok, elapsed, 30.0,
             f"{count} instances, rel gap {worst_gap:.3e}, "
             f"alpha(phi) dev {worst_alpha:.3e}")


def test_criterion_03_alpha_estimation_scaling():
    t0 = time.perf_counter()
    worst_rel = 0.0
    details = []
    for radius in (0.5, 1.0, 2.0):
        ball = GeodesicBall(Euclidean(3), np.zeros(3), radius)
        est = estimate_alpha(ball_set(ball), "scaling", 10_000,
                             np.random.default_rng(5))
        rel = abs(est - 0.5 / radius) / (0.5 / radius)
        worst_rel = max(worst_rel, rel)
        details.append(f"R={radius:g}: {est:.4f}")
    elapsed = time.perf_counter() - t0
    _verdict(3, "scaling constant recovery on flat balls", worst_rel <= 0.05,
             elapsed, 60.0,
             f"{'; '.join(details)}; worst rel err {worst_rel:.4f}")


def test_criterion_04_desk_scale_experiment(tmp_path):
    t0 = time.perf_counter()
    config = replace(PRESETS["paper-desk"], seed=42)
    summary = run_single_experiment(config, str(tmp_path / "desk.csv"))
    from rfw.solver import load_trace_csv
    trace = load_trace_csv(str(tmp_path / "desk.csv"))
    monotone = float(np.max(np.diff(trace.f)))
    hit = [t for t, g in zip(trace.iters, trace.dual_gap) if g < 1e-6]
    fit = summary["tail_fit"]
    elapsed = time.perf_counter() - t0
    ok = (monotone <= 1e-12 and len(hit) > 0 and hit[0] <= 500
          and fit["n_tail"] >= 50 and fit["r_squared"] >= 0.98)
    _verdict(4, "desk-scale sphere experiment", ok, elapsed, 10.0,
             f"monotone slack {monotone:.1e}, gap<1e-6 at iter {hit[0]}, "
             f"tail n={fit['n_tail']} R2={fit['r_squared']:.4f} "
             f"rate={fit['rate']:.4f}")


def test_criterion_05_contraction_certificate():
    t0 = time.perf_counter()
    k = Euclidean(3)
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((6, 3))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    tdir = rng.standard_normal(3)
    tdir /= np.linalg.norm(tdir)
    ball = GeodesicBall(k, np.zeros(3), 1.0)
    obj = QuadraticOnEmbedded(k, a, 2.0 * tdir)
    cset = ball_set(ball)
    fstar, _ = ball_quadratic_fstar(a, 2.0 * tdir, ball.center, ball.radius)
    alpha_hat = estimate_alpha(cset, "scaling", 10_000,
                               np.random.default_rng(5))
    c_hat = min_gradient_norm(obj, cset, 10_000, np.random.default_rng(6))
    problem = RfwProblem(k, obj, cset, obj.L, ball.sample(
        np.random.default_rng(7)))
    trace, _ = rfw_run(problem, max_iter=300, gap_tol=1e-13)
    report = contraction_check(trace, alpha_hat, c_hat, problem.L, fstar)
    elapsed = time.perf_counter() - t0
    ok = report.passed and len(report.checked) >= 10
    _verdict(5, "linear contraction certificate", ok, elapsed, 30.0,
             f"alpha={alpha_hat:.4f} c={c_hat:.4f} "
             f"factor={report.factor:.4f} max ratio={report.max_ratio:.4f} "
             f"({len(report.checked)} steps, {len(report.violations)} "
             f"violations)")


def test_criterion_06_implication_chain_on_caps():
    t0 = time.perf_counter()
    k = Sphere(3)
    rstar = strong_convexity_radius(k.curvature)
    astar = ball_strong_convexity_alpha(k.curvature, rstar)
    cset = ball_set(GeodesicBall(k, k.base_point(), rstar))
    rng = np.random.default_rng(6)
    margins = {}
    for notion in ("riemannian", "scaling", "geodesic"):
        cert = run_checker(notion, cset, astar, 1000, rng)
        margins[notion] = cert.worst_margin
    elapsed = time.perf_counter() - t0
    ok = all(m >= -1e-8 for m in margins.values())
    detail = ", ".join(f"{n} {m:+.2e}" for n, m in margins.items())
    _verdict(6, "implication chain at the critical cap radius", ok, elapsed,
             60.0, f"r*={rstar:.6f} alpha={astar:.6f}; margins {detail}")


def test_criterion_07_residual_cubic_scaling():
    t0 = time.perf_counter()
    ts = np.array([0.2, 0.1, 0.05, 0.025])
    slopes = {}
    for k in (Sphere(3), Hyperboloid(3)):
        rng = np.random.default_rng(7)
        x = k.random_point(rng)
        u = k.random_unit_tangent(x, rng)
        v = k.random_unit_tangent(x, rng)
        norms = [np.linalg.norm(residual(k, x, t * u, t * v)) for t in ts]
        slopes[k.name] = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    ke = Euclidean(3)
    rng = np.random.default_rng(7)
    flat = max(np.linalg.norm(residual(
        ke, ke.random_point(rng), 0.2 * ke.random_unit_tangent(None, rng),
        0.2 * ke.random_unit_tangent(None, rng))) for _ in range(5))
    elapsed = time.perf_counter() - t0
    ok = (all(abs(s - 3.0) <= 0.1 for s in slopes.values())
          and flat <= 1e-12)
    detail = ", ".join(f"{n} slope {s:.3f}" for n, s in slopes.items())
    _verdict(7, "curvature residual scaling", ok, elapsed, 10.0,
             f"{detail}; flat residual {flat:.1e}")


def test_criterion_08_hadamard_inequalities():
    t0 = time.perf_counter()
    worst = np.inf
    details = []
    for i, k in enumerate((Spd(3), Hyperboloid(3))):
        cos_min, npc_min = hadamard_slacks(k, 1000,
                                           np.random.default_rng(31 + i),
                                           spread=2.0)
        worst = min(worst, cos_min, npc_min)
        details.append(f"{k.name} cos {cos_min:+.1e} npc {npc_min:+.1e}")
    elapsed = time.perf_counter() - t0
    _verdict(8, "nonpositive-curvature comparison inequalities",
             worst >= -1e-9, elapsed, 30.0, "; ".join(details))


def test_criterion_09_function_class_inequalities():
    t0 = time.perf_counter()
    worst = np.inf
    k = Euclidean(4)
    rng = np.random.default_rng(41)
    g = rng.standard_normal((8, 4))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    target = rng.standard_normal(4)
    target *= 1.5 / np.linalg.norm(target)
    quad = QuadraticOnEmbedded(k, a, target)
    fn = SmoothStronglyConvexFn(k, quad.value_grad, mu=quad.mu,
                                L=quad.L, fstar=0.0, xstar=target)
    cset = ball_set(GeodesicBall(k, np.zeros(4), 1.0))
    r1 = check_gconvexity_of_function(fn, cset, 1000,
                                      np.random.default_rng(42))
    r2 = check_smoothness_gradient_bound(fn, cset, 1000,
                                         np.random.default_rng(43))
    worst = min(worst, r1.worst_margin, r2.worst_margin)
    for i, (kern, r) in enumerate([(Sphere(4), 0.8), (Spd(3), 1.0),
                                   (Hyperboloid(3), 1.0)]):
        obj = SquaredDistanceObjective(kern, kern.base_point())
        sfn = obj.as_smooth_fn(r)
        cs = ball_set(GeodesicBall(kern, kern.base_point(), r))
        srng = np.random.default_rng(44 + i)
        g1 = check_gconvexity_of_function(sfn, cs, 1000, srng)
        g2 = check_smoothness_gradient_bound(sfn, cs, 1000, srng)
        worst = min(worst, g1.worst_margin, g2.worst_margin)
    elapsed = time.perf_counter() - t0
    _verdict(9, "smooth strongly convex function inequalities",
             worst >= -1e-8, elapsed, 30.0,
             f"2 objectives on 4 domains, worst margin {worst:+.2e}")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    exe = shutil.which("rfw")
    base = [exe] if exe else [sys.executable, "-m", "rfw.cli"]
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.csv")
        proc = subprocess.run(
            base + ["run-experiment", "--preset", "paper-desk",
                    "--seed", "42", "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(out, "rb") as fh:
            blobs.append(fh.read())
    elapsed = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _verdict(10, "byte-identical reruns", ok, elapsed, None,
             f"two `rfw run-experiment --preset paper-desk --seed 42` "
             f"traces, {len(blobs[0])} bytes each")
