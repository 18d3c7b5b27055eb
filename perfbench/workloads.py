"""Workloads: inputs drawn from the benchmark seed, one operation at a
time, and an independent correctness check for each operation.

An operation is one Frank-Wolfe solve (solve workloads) or one sampled
certificate (certify workloads).  Operation i of a certify workload runs
case i mod len(cases) with its own generator seeded by (seed, i), so a
run of whole rounds is the same work for a given seed.  Every function
takes the imported rfw package as an argument, because the benchmark
re-imports it to time set-up.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# a solve claiming convergence fails when an exhaustive search of the
# section boundary finds a vertex with dual gap above this, 100x the
# solver's gap_tol; the grid search gives a lower bound on the true gap
BRUTE_GAP_TOL = 1e-8
BRUTE_GRID = 16384
# hyperbolic-solve: allowed distance of the final iterate from the
# closed-form optimum, well above the ~sqrt(gap_tol) a 1e-10 gap allows
XSTAR_TOL = 1e-4
GAP_TOL = 1e-10


@dataclass
class Inputs:
    seed: int
    out_dir: Path
    items: list


class Solve:
    """Short-step Frank-Wolfe from a pool of problems drawn at set-up;
    operation i solves pool[i mod pool size] and writes its CSV trace."""

    round_size = 1
    op_label = "solve wall time incl. RfwTrace.to_csv"
    work_label = "FW iterations per second"

    def __init__(self, name, why, draw, pool, max_iter, trace_rounds_per_s):
        self.name, self.why, self.draw = name, why, draw
        self.pool, self.max_iter = pool, max_iter
        self.trace_rounds_per_s = trace_rounds_per_s

    def build(self, rfw, seed, out_dir):
        rng = np.random.default_rng(seed)
        return Inputs(seed, out_dir,
                      [self.draw(rfw, rng) for _ in range(self.pool)])

    def run(self, rfw, inputs, i):
        problem, _, _ = inputs.items[i % self.pool]
        trace, x = rfw.solver.rfw_run(problem, max_iter=self.max_iter,
                                      gap_tol=GAP_TOL)
        trace.to_csv(inputs.out_dir / f"{self.name}.csv")
        return len(trace), (trace.status, x)

    def check(self, rfw, inputs, i, result):
        """None if the solve is right, else why it is wrong."""
        problem, ball, xstar = inputs.items[i % self.pool]
        status, x = result
        if status == "error":
            return "status error"
        k = problem.kernel
        wrong = []
        if status == "converged":
            _, grad = problem.objective.value_grad(x)
            if k.norm(x, grad) > 1e-15:
                _, gap = rfw.balls.lmo_brute_force(ball, -grad, x, BRUTE_GRID)
                if gap > BRUTE_GAP_TOL:
                    wrong.append(
                        f"converged with brute-force gap > {BRUTE_GAP_TOL:g}")
        if xstar is not None and k.dist(x, xstar) > XSTAR_TOL:
            wrong.append(f"ends > {XSTAR_TOL:g} from the closed-form optimum")
        return "; ".join(wrong) or None


def draw_sphere(rfw, rng, n=50, gram_rows=100, radius_ratio=0.9):
    """Full-rank Gram quadratic on Sphere(n); the ball around 1/sqrt(n)
    has radius radius_ratio * dist(center, target), with the target at
    distance [1e-3, pi/2] from the center, and x0 is the center."""
    k = rfw.Sphere(n)
    xc = np.ones(n) / np.sqrt(n)
    while True:
        xs = k.random_point(rng)
        d0 = k.dist(xc, xs)
        if 1e-3 <= d0 <= 0.5 * np.pi:
            break
    g = rng.standard_normal((gram_rows, n))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    objective = rfw.QuadraticOnEmbedded(k, a, xs)
    ball = rfw.GeodesicBall(k, xc, radius_ratio * d0)
    problem = rfw.RfwProblem(k, objective, rfw.ball_set(ball), L=objective.L,
                             x0=xc)
    return problem, ball, None


def draw_hyperbolic(rfw, rng, n=10, radius=1.0, target_dist=2.0):
    """0.5 dist(., t)^2 on Hyperboloid(n) over the unit ball at the base
    point, t at distance 2 from the center, x0 drawn by ball.sample.
    The optimum is exp_c(r log_c(t) / norm(log_c(t)))."""
    k = rfw.Hyperboloid(n)
    c = k.base_point()
    t = k.exp(c, target_dist * k.random_unit_tangent(c, rng))
    ball = rfw.GeodesicBall(k, c, radius)
    objective = rfw.SquaredDistanceObjective(k, t)
    x0 = ball.sample(rng)
    # every point of the ball is within radius + target_dist of t
    L = objective.L_on(radius + target_dist)
    problem = rfw.RfwProblem(k, objective, rfw.ball_set(ball), L=L, x0=x0)
    lt = k.log(c, t)
    return problem, ball, k.exp(c, (radius / k.norm(c, lt)) * lt)


class Certify:
    """run_checker over a fixed list of (notion, alpha, expected verdict)
    cases on one geodesic ball drawn at set-up."""

    op_label = "certificate wall time"
    work_label = "certifier samples per second"

    def __init__(self, name, why, kernel, dim, radius, notions, alphas,
                 n_samples, trace_rounds_per_s):
        self.name, self.why = name, why
        self.kernel, self.dim, self.radius = kernel, dim, radius
        self.cases = [(notion, alpha, passes) for notion in notions
                      for alpha, passes in alphas]
        self.round_size = len(self.cases)
        self.n_samples = n_samples
        self.trace_rounds_per_s = trace_rounds_per_s

    def build(self, rfw, seed, out_dir):
        rng = np.random.default_rng(seed)
        k = rfw.make_manifold(self.kernel, self.dim)
        ball = rfw.GeodesicBall(k, k.random_point(rng), self.radius)
        return Inputs(seed, out_dir, [rfw.ball_set(ball)])

    def run(self, rfw, inputs, i):
        notion, alpha, _ = self.cases[i % self.round_size]
        rng = np.random.default_rng([inputs.seed, i])
        cert = rfw.convexity.run_checker(notion, inputs.items[0], alpha,
                                         self.n_samples, rng)
        return self.n_samples, cert.passed

    def check(self, rfw, inputs, i, result):
        notion, alpha, passes = self.cases[i % self.round_size]
        if result != passes:
            verdict = "pass" if passes else "fail"
            return f"{notion} at alpha={alpha:g} should {verdict}"
        return None


MEMBERSHIP_NOTIONS = ("geodesic", "riemannian", "double_geodesic")
ALL_NOTIONS = MEMBERSHIP_NOTIONS + ("scaling", "approx_scaling")

WORKLOADS = {w.name: w for w in (
    Solve("sphere-solve",
          "the paper's regime: optimum on the boundary of a Sphere(50) ball "
          "with c > 0; the closed-form sphere LMO is the hot path",
          draw_sphere, pool=32, max_iter=1000, trace_rounds_per_s=1.0),
    Solve("hyperbolic-solve",
          "closed-form optimum on a Hyperboloid(10) ball; the bisection "
          "oracle nested in golden sections is ~99% of the time",
          draw_hyperbolic, pool=8, max_iter=60, trace_rounds_per_s=0.3),
    Certify("certify-sphere",
            "all five notions on a Sphere(3) cap; the scaling notions call "
            "the LMO from interior points, the others probe membership",
            "sphere", 3, 0.3, ALL_NOTIONS, ((1.5, True), (4.0, False)),
            n_samples=400, trace_rounds_per_s=0.05),
    Certify("certify-spd",
            "membership notions on an Spd(3) ball: the only SPD kernel use, "
            "and no LMO call, the no-change side of oracle work",
            "spd", 3, 1.0, MEMBERSHIP_NOTIONS, ((0.05, True), (2.0, False)),
            n_samples=30, trace_rounds_per_s=0.3),
)}
