"""Frank-Wolfe on a geodesic ball of the sphere: linear convergence when
the unconstrained optimum lies outside the ball, plus the a-posteriori
contraction check with sampled constants.

    python3 demos/convergence.py
"""

import numpy as np

from rfw import (Euclidean, GeodesicBall, QuadraticOnEmbedded, RfwProblem,
                 ball_set, contraction_check, estimate_alpha,
                 min_gradient_norm, rfw_run)
from rfw.cli import PRESETS, build_experiment, tail_fit
from dataclasses import replace

config = replace(PRESETS["paper-desk"], seed=42)
problem, ball, info = build_experiment(config)
trace, x = rfw_run(problem, max_iter=config.max_iter, gap_tol=config.gap_tol)

print(f"sphere experiment: d={config.ambient_dim}, ball radius "
      f"{info['radius']:.4f} = 0.9 * dist(center, target)")
print(f"   status {trace.status} after {len(trace)} iterations, "
      f"final dual gap {trace.dual_gap[-1]:.2e}")
fit = tail_fit(trace.iters, trace.dual_gap)
print(f"   tail fit: rate {fit['rate']:.4f} per iteration over "
      f"{fit['n_tail']} iters (R^2 = {fit['r_squared']:.4f})")
print()
print("   iter        f          dual gap")
for t in (0, 50, 100, 200, 300, 400, len(trace) - 1):
    if t < len(trace):
        print(f"   {trace.iters[t]:4d}   {trace.f[t]:.3e}   "
              f"{trace.dual_gap[t]:.3e}")

# small flat instance where every ingredient of the check is estimable
print()
print("contraction check on a flat ball (optimum outside):")
k = Euclidean(3)
rng = np.random.default_rng(2024)
g = rng.standard_normal((6, 3))
a = g.T @ g
a /= np.linalg.norm(a, 2)
tdir = rng.standard_normal(3)
target = 2.0 * tdir / np.linalg.norm(tdir)
ball = GeodesicBall(k, np.zeros(3), 1.0)
obj = QuadraticOnEmbedded(k, a, target)
cset = ball_set(ball)
problem = RfwProblem(k, obj, cset, obj.L, ball.sample(np.random.default_rng(7)))
trace, xf = rfw_run(problem, max_iter=300, gap_tol=1e-13)

alpha_hat = estimate_alpha(cset, "scaling", 4000, np.random.default_rng(5))
c_hat = min_gradient_norm(obj, cset, 4000, np.random.default_rng(6))
report = contraction_check(trace, alpha_hat, c_hat, problem.L,
                           fstar=obj.value_grad(xf)[0])
# both constants are sampled, so both bound the true ones from above:
# the factor they give is no guarantee, and a pass proves nothing
verdict = ("not refuted with sampled constants (upper bounds)"
           if report.passed else "violated")
print(f"   alpha_hat = {alpha_hat:.4f}, min grad norm = {c_hat:.4f} "
      f"(sampled: upper bounds)")
print(f"   factor {report.factor:.4f}, observed worst ratio "
      f"{report.max_ratio:.4f} over {len(report.checked)} steps "
      f"-> {verdict}")
