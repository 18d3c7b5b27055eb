"""The benchmark's tracer (perfbench/tracing.py) wraps rfw entry points by
name; these checks fail when an API change leaves a hook without its
target or the tracer without its counts."""

import importlib.util
from pathlib import Path

import numpy as np

import rfw

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    m = rfw.manifolds
    return (m.Sphere, m.Hyperboloid, m.Spd, rfw.balls.GeodesicBall,
            rfw.balls, rfw.scalars, rfw.solver, rfw.solver.RfwTrace,
            rfw.objectives.QuadraticOnEmbedded,
            rfw.objectives.SquaredDistanceObjective, rfw.convexity)


def test_tracer_hooks_count_and_restore():
    before = [dict(vars(owner)) for owner in _owners()]
    tracer = _tracing_module().Tracer()
    tracer.install(rfw)
    try:
        k = rfw.Sphere(3)
        ball = rfw.GeodesicBall(k, k.base_point(), 0.3)
        rfw.convexity.run_checker("scaling", rfw.ball_set(ball), 1.5, 3,
                                  np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = ball.sample(rng)
        ball.lmo(k.random_unit_tangent(x, rng), x)
    finally:
        tracer.uninstall()
    assert tracer.stat("convexity.sphere.scaling")[0] == 1
    assert tracer.counts["convexity.sphere.scaling.samples"] == 3
    assert tracer.stat("balls.lmo")[0] == 4
    assert tracer.stat("balls.sample")[0] == 4
    assert tracer.counts["balls.alpha_phi_sphere"] > 0
    assert tracer.stat("manifolds.sphere.check_tangent")[0] > 0
    for owner, attrs in zip(_owners(), before):
        after = vars(owner)
        assert set(after) == set(attrs), owner
        assert all(after[name] is value for name, value in attrs.items()), owner
