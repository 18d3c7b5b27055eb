"""Linear minimization oracles over geodesic balls, checked against a
dense grid on the boundary section (and, on the sphere, random boundary
points off it).

    python3 demos/oracle_accuracy.py
"""

import numpy as np

from rfw import GeodesicBall, Hyperboloid, Sphere
from rfw.balls import lmo_brute_force, random_boundary_best

rng = np.random.default_rng(1)

print("sphere caps: closed-form oracle vs 100k-point boundary grid")
for n, r in ((3, 0.3), (3, 1.0), (10, 0.3), (10, 1.0)):
    k = Sphere(n)
    ball = GeodesicBall(k, k.base_point(), r)
    worst_gap = 0.0
    for _ in range(10):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        _, brute = lmo_brute_force(ball, w, x, 100_000)
        brute = max(brute, random_boundary_best(ball, w, x, 1000, rng))
        worst_gap = max(worst_gap, brute - res.objective)
    print(f"   S^{n - 1}, r={r:<4} grid gap {worst_gap:+.2e}")

print()
print("hyperboloid balls: closed-form oracle vs 100k-point boundary grid")
k = Hyperboloid(3)
for r in (0.5, 1.5):
    ball = GeodesicBall(k, k.base_point(), r)
    worst_gap = 0.0
    for _ in range(10):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        _, brute = lmo_brute_force(ball, w, x, 100_000)
        worst_gap = max(worst_gap, brute - res.objective)
    print(f"   r={r:<4} grid gap {worst_gap:+.2e}")
