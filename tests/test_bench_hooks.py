"""The benchmark's tracer (perfbench/tracing.py) wraps rfw entry points by
name; these checks fail when an API change leaves a hook without its
target or the tracer without its counts."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
    # one stacked oracle call for the certificate's rows, one direct
    assert tracer.stat("balls.lmo")[0] == 2
    # the certificate places its sample points in one batch, so only the
    # direct call goes through ball.sample
    assert tracer.stat("balls.sample")[0] == 1
    assert tracer.counts["balls.alpha_phi_sphere"] > 0
    assert tracer.stat("manifolds.sphere.check_tangent")[0] > 0
    for owner, attrs in zip(_owners(), before):
        after = vars(owner)
        assert set(after) == set(attrs), owner
        assert all(after[name] is value for name, value in attrs.items()), owner


def _traced(run):
    tracer = _tracing_module().Tracer()
    tracer.install(rfw)
    try:
        out = run()
    finally:
        tracer.uninstall()
    return tracer, out


@pytest.mark.parametrize("kernel,radius", [(rfw.Sphere(3), 0.3),
                                           (rfw.Hyperboloid(3), 1.0)],
                         ids=["sphere", "hyperboloid"])
@pytest.mark.parametrize("notion,logs,checks", [("scaling", 2, 1),
                                                ("approx_scaling", 4, 2)])
def test_scaling_certifier_call_budget(kernel, radius, notion, logs, checks):
    """The scaling certifiers take the gap and log_x(v) from the oracle's
    answer, and the oracle checks only w at its entry; approx_scaling
    hands w to the residual untransported, whose transport checks it
    once.  logs and checks are the calls of the whole certificate: one
    oracle call on the stacked rows makes 2 logs and 1 check, and the
    residual is built for all rows at once, in one call of each of its
    maps.  Exact counts, so a recomputation, a re-check or a row sent
    to the single call shows up as a failure."""
    n, tag = 10, type(kernel).__name__.lower()

    def run():
        ball = rfw.GeodesicBall(kernel, kernel.base_point(), radius)
        return rfw.convexity.run_checker(notion, rfw.ball_set(ball), 0.5, n,
                                         np.random.default_rng(0))

    tracer, _ = _traced(run)
    assert tracer.counts[f"convexity.{tag}.{notion}.samples"] == n
    assert tracer.stat("balls.lmo")[0] == 1
    assert tracer.stat(f"manifolds.{tag}.log")[0] == logs
    assert tracer.stat(f"manifolds.{tag}.check_tangent")[0] == checks
    assert tracer.stat("balls.sample")[0] == 0


@pytest.mark.parametrize("kernel,radius", [(rfw.Sphere(3), 0.3),
                                           (rfw.Hyperboloid(3), 1.0),
                                           (rfw.Spd(3), 1.0)],
                         ids=["sphere", "hyperboloid", "spd"])
@pytest.mark.parametrize("notion", ["geodesic", "riemannian",
                                    "double_geodesic"])
def test_membership_certifiers_check_no_tangent(kernel, radius, notion):
    """The membership certifiers only build their vectors (the sampler's
    and the probe direction's unit tangents, the riemannian chord) and
    never check them."""
    n, tag = 10, type(kernel).__name__.lower()

    def run():
        ball = rfw.GeodesicBall(kernel, kernel.base_point(), radius)
        return rfw.convexity.run_checker(notion, rfw.ball_set(ball), 0.5, n,
                                         np.random.default_rng(0))

    tracer, _ = _traced(run)
    assert tracer.counts[f"convexity.{tag}.{notion}.samples"] == n
    assert tracer.stat(f"manifolds.{tag}.check_tangent")[0] == 0


def test_solver_call_budget():
    """Per iteration the solver calls log twice, both in the oracle (to
    the center and to the vertex); the gap and the step reuse the
    oracle's log_x(v)."""
    k = rfw.Sphere(5)
    center = np.ones(5) / np.sqrt(5.0)

    def run():
        obj = rfw.QuadraticOnEmbedded.random(k, 10, np.random.default_rng(0))
        ball = rfw.GeodesicBall(k, center, 0.5)
        problem = rfw.RfwProblem(k, obj, rfw.ball_set(ball), obj.L, center)
        return rfw.rfw_run(problem, max_iter=50)[0]

    tracer, trace = _traced(run)
    assert len(trace) > 1
    assert tracer.stat("manifolds.sphere.log")[0] == 2 * len(trace)
