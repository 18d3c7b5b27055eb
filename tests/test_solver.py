import json

import numpy as np
import pytest

from rfw import (ConfigError, ContractError, ConvexSet, DomainError,
                 Euclidean, GeodesicBall, LmoResult, QuadraticOnEmbedded,
                 RfwProblem, RfwTrace, Sphere, StepRule, ball_set,
                 contraction_check, estimate_alpha, fw_vertex,
                 lmo_brute_force, load_trace_csv, min_gradient_norm, rfw_run,
                 short_step)
from helpers import ball_quadratic_fstar

# Exterior-optimum quadratic over the unit ball in R^3; the dual
# bisection value of the constrained minimum is frozen below.
FSTAR_R3 = 0.16210692050544187


def _r3_problem():
    k = Euclidean(3)
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((6, 3))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    tdir = rng.standard_normal(3)
    tdir /= np.linalg.norm(tdir)
    target = 2.0 * tdir
    ball = GeodesicBall(k, np.zeros(3), 1.0)
    obj = QuadraticOnEmbedded(k, a, target)
    return RfwProblem(k, obj, ball_set(ball), obj.L, ball.sample(
        np.random.default_rng(7))), ball, a, target


def test_short_step_formula_and_clipping():
    assert short_step(0.3, 1.0, 1.0) == pytest.approx(0.3)
    assert short_step(5.0, 1.0, 1.0) == 1.0
    assert short_step(1.0, 2.0, 0.0) == 0.0
    assert short_step(-0.2, 1.0, 1.0) == 0.0


def test_fw_vertex_default_grad_matches_explicit():
    problem, ball, _, _ = _r3_problem()
    x = problem.x0
    _, grad = problem.objective.value_grad(x)
    v1, gap1, lx1 = fw_vertex(problem, x, grad)
    v2, gap2, lx2 = fw_vertex(problem, x)
    np.testing.assert_array_equal(v1, v2)
    assert gap1 == gap2
    np.testing.assert_array_equal(lx1, lx2)
    assert np.linalg.norm(v1) == pytest.approx(ball.radius)
    assert gap1 > 0.0


def test_fw_vertex_zero_gradient_short_circuits():
    k = Euclidean(3)
    ball = GeodesicBall(k, np.zeros(3), 1.0)
    obj = QuadraticOnEmbedded(k, np.eye(3), np.zeros(3))
    problem = RfwProblem(k, obj, ball_set(ball), 1.0, np.zeros(3))
    v, gap, lx = fw_vertex(problem, np.zeros(3))
    np.testing.assert_array_equal(v, np.zeros(3))
    assert gap == 0.0
    np.testing.assert_array_equal(lx, np.zeros(3))


def test_problem_validation():
    k = Euclidean(3)
    ball = GeodesicBall(k, np.zeros(3), 1.0)
    obj = QuadraticOnEmbedded(k, np.eye(3), np.zeros(3))
    with pytest.raises(ContractError):
        RfwProblem(k, obj, ball_set(ball), 1.0, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ConfigError):
        RfwProblem(k, obj, ball_set(ball), 0.0, np.zeros(3))
    no_lmo = ConvexSet(kernel=k, membership=ball.membership,
                       sampler=ball.sample, lmo=None, diameter=ball.diameter)
    with pytest.raises(ConfigError):
        RfwProblem(k, obj, no_lmo, 1.0, np.zeros(3))


def test_exterior_optimum_converges_linearly():
    problem, _, _, _ = _r3_problem()
    trace, x = rfw_run(problem, max_iter=300, gap_tol=1e-13)
    assert trace.status == "converged"
    assert len(trace) == 24
    assert trace.dual_gap[-1] <= 1e-13
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert problem.objective.value_grad(x)[0] == pytest.approx(FSTAR_R3,
                                                               abs=1e-12)
    diffs = np.diff(trace.f)
    assert diffs.max() <= 1e-15


def test_frozen_fstar_matches_dual_bisection():
    _, ball, a, target = _r3_problem()
    fstar, xs = ball_quadratic_fstar(a, target, ball.center, ball.radius)
    assert fstar == pytest.approx(FSTAR_R3, abs=1e-12)
    assert np.linalg.norm(xs) == pytest.approx(1.0, abs=1e-10)


def test_contraction_certificate_on_exterior_run():
    problem, ball, a, target = _r3_problem()
    cset = problem.cset
    alpha_hat = estimate_alpha(cset, "scaling", 10 ** 4,
                               np.random.default_rng(5))
    assert alpha_hat == pytest.approx(0.498046875, abs=1e-12)
    c_hat = min_gradient_norm(problem.objective, cset, 10 ** 4,
                              np.random.default_rng(6))
    assert c_hat == pytest.approx(0.3258046112396092, abs=1e-12)
    trace, _ = rfw_run(problem, max_iter=300, gap_tol=1e-13)
    report = contraction_check(trace, alpha_hat, c_hat, problem.L, FSTAR_R3)
    assert report.passed
    assert report.factor == pytest.approx(0.9188670157557614, abs=1e-9)
    assert report.max_ratio == pytest.approx(0.7128788313496517, abs=1e-9)
    assert len(report.checked) == 23
    assert report.max_ratio <= report.factor + 1e-6


def test_contraction_check_burn_in_and_floor():
    from rfw.solver import RfwTrace
    trace = RfwTrace()
    h = [8.0, 4.0, 2.0, 1.0, 1e-20, 5e-21]
    d = [2.0, 1.5, 0.9, 0.5, 0.1, 0.0]
    for t, (fv, dv) in enumerate(zip(h, d)):
        trace.append(t, fv, 1.0, 0.5, dv)
    report = contraction_check(trace, 1.0, 1.0, 1.0, 0.0, diameter=1.0,
                               c_tilde=0.5)
    # threshold on dist^2 is 1.0: rows 0 and 1 are burn-in, row 4 is at
    # the roundoff floor
    assert report.threshold_dist2 == pytest.approx(1.0)
    assert report.checked == [2, 3]
    assert report.passed
    with pytest.raises(ConfigError):
        contraction_check(trace, 1.0, 1.0, 1.0, 0.0, c_tilde=0.5)


def test_contraction_check_flags_violations():
    from rfw.solver import RfwTrace
    trace = RfwTrace()
    for t, fv in enumerate([1.0, 0.9, 0.89]):
        trace.append(t, fv, 1.0, 0.5, 0.1)
    report = contraction_check(trace, 1.0, 1.0, 1.0, 0.0)
    assert report.factor == 0.5
    assert report.violations == [0, 1]
    assert not report.passed


def test_trace_csv_roundtrip(tmp_path):
    problem, _, _, _ = _r3_problem()
    trace, _ = rfw_run(problem, max_iter=50)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = load_trace_csv(path)
    assert back.iters == trace.iters
    assert back.f == trace.f
    assert back.dual_gap == trace.dual_gap
    assert back.step == trace.step
    assert back.dist_xv == trace.dist_xv
    payload = json.loads(trace.to_json())
    assert payload["status"] == trace.status
    assert payload["f"] == trace.f


def test_trace_json_is_strict():
    # an error run records f = NaN; finite numbers keep json's bytes
    trace = RfwTrace()
    trace.append(0, 1.5, 0.25, 0.5, 0.125)
    trace.append(1, np.nan, np.inf, 0.0, -np.inf)
    trace.status = "error"

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = json.loads(trace.to_json(), parse_constant=reject)
    assert payload["f"] == [1.5, None]
    assert payload["dual_gap"] == [0.25, None]
    assert payload["dist_xv"] == [0.125, None]
    finite = RfwTrace(iters=[0], f=[1.5], dual_gap=[0.1], step=[1.0],
                      dist_xv=[0.3], status="converged")
    assert finite.to_json() == json.dumps({
        "status": "converged", "iters": [0], "f": [1.5], "dual_gap": [0.1],
        "step": [1.0], "dist_xv": [0.3]})


def test_trace_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,f,gap\n0,1.0,0.5\n")
    with pytest.raises(ConfigError):
        load_trace_csv(path)


def test_other_step_rules_converge():
    problem, _, _, _ = _r3_problem()
    h0 = problem.objective.value_grad(problem.x0)[0] - FSTAR_R3
    trace_ls, _ = rfw_run(problem, rule=StepRule.LINE_SEARCH, max_iter=200)
    assert trace_ls.f[-1] - FSTAR_R3 <= 1e-8
    trace_fs, _ = rfw_run(problem, rule="fixed-schedule", max_iter=500)
    assert trace_fs.status in ("converged", "max_iter")
    assert trace_fs.f[-1] - FSTAR_R3 <= 1e-2 * h0


def test_sphere_problem_runs():
    k = Sphere(4)
    rng = np.random.default_rng(9)
    center = k.random_point(rng)
    ball = GeodesicBall(k, center, 0.5)
    target = k.exp(center, 0.9 * k.random_unit_tangent(center, rng))
    g = rng.standard_normal((6, 4))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    obj = QuadraticOnEmbedded(k, a, target)
    problem = RfwProblem(k, obj, ball_set(ball), obj.L, center)
    trace, x = rfw_run(problem, max_iter=400, gap_tol=1e-12)
    assert trace.status == "converged"
    assert ball.membership(x)
    assert np.diff(trace.f).max() <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boundary_regime_convergence_is_real(seed):
    # full-rank Gram quadratic with its optimum outside the ball, so the
    # iterates reach the boundary; a reported convergence there must
    # survive an exhaustive search of the section boundary
    k = Sphere(5)
    rng = np.random.default_rng(seed)
    center = np.ones(5) / np.sqrt(5.0)
    while True:
        target = k.random_point(rng)
        d0 = k.dist(center, target)
        if 1e-3 <= d0 <= 0.5 * np.pi:
            break
    g = rng.standard_normal((10, 5))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    obj = QuadraticOnEmbedded(k, a, target)
    ball = GeodesicBall(k, center, 0.9 * d0)
    problem = RfwProblem(k, obj, ball_set(ball), obj.L, center)
    trace, x = rfw_run(problem, max_iter=1000, gap_tol=1e-10)
    assert trace.status == "converged"
    _, grad = obj.value_grad(x)
    _, gap = lmo_brute_force(ball, -grad, x, 20000)
    assert gap <= 1e-8


def test_adversarial_oracle_sets_error_status():
    k = Euclidean(3)
    ball = GeodesicBall(k, np.zeros(3), 1.0)
    obj = QuadraticOnEmbedded(k, np.eye(3), np.array([3.0, 0.0, 0.0]))
    cs = ball_set(ball)

    def adversarial(w, x):
        v = -w / np.linalg.norm(w)
        return LmoResult(v, float(np.dot(w, v - x)), v - x)

    bad = ConvexSet(kernel=k, membership=cs.membership, sampler=cs.sampler,
                    lmo=adversarial, diameter=cs.diameter)
    problem = RfwProblem(k, obj, bad, 1.0, np.zeros(3))
    trace, _ = rfw_run(problem, max_iter=10)
    assert trace.status == "error"


@pytest.mark.parametrize("k", [Sphere(5), Euclidean(5)],
                         ids=lambda k: type(k).__name__)
def test_wrong_shape_gradient_sets_error_status(k):
    center = np.ones(5) / np.sqrt(5.0)

    class WrongShape:
        def value_grad(self, x):
            return 0.0, np.ones(6)

    cset = ball_set(GeodesicBall(k, center, 0.5))
    problem = RfwProblem(k, WrongShape(), cset, 1.0, center)
    trace, _ = rfw_run(problem, max_iter=5)
    assert trace.status == "error"


@pytest.mark.parametrize("poison", ["value", "grad"])
def test_non_finite_value_or_gap_is_an_error(poison):
    # a NaN gradient makes the oracle vertex and the gap NaN; a NaN value
    # with a finite gradient would otherwise run to convergence
    k = Sphere(5)
    center = np.ones(5) / np.sqrt(5.0)
    ball = GeodesicBall(k, center, 0.5)
    obj = QuadraticOnEmbedded.random(k, 10, np.random.default_rng(0))

    class Poisoned:
        def value_grad(self, x):
            fval, grad = obj.value_grad(x)
            if poison == "value":
                return np.nan, grad
            return fval, np.full_like(grad, np.nan)

    problem = RfwProblem(k, Poisoned(), ball_set(ball), obj.L, center)
    trace, _ = rfw_run(problem, max_iter=20)
    assert trace.status == "error"
    assert len(trace) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_gradient_records_its_row(bad):
    # the oracle rejects a NaN or infinite direction; fw_vertex answers
    # such a gradient with a NaN gap, so the run still records the row
    k = Sphere(5)
    center = np.ones(5) / np.sqrt(5.0)
    obj = QuadraticOnEmbedded.random(k, 10, np.random.default_rng(0))

    class Poisoned:
        def value_grad(self, x):
            fval, grad = obj.value_grad(x)
            return fval, np.full_like(grad, bad)

    problem = RfwProblem(k, Poisoned(), ball_set(
        GeodesicBall(k, center, 0.5)), obj.L, center)
    trace, _ = rfw_run(problem, max_iter=20)
    assert trace.status == "error"
    assert trace.iters == [0] and trace.step == [0.0]
    assert trace.f == [obj.value_grad(center)[0]]
    assert np.isnan(trace.dual_gap[0]) and np.isnan(trace.dist_xv[0])


@pytest.mark.parametrize("rule,rows", [("short-step", 3), ("line-search", 1)])
def test_objective_error_sets_error_status(rule, rows):
    # an RfwError from the objective ends the run like an oracle error;
    # under the line search the fourth call falls in the first step
    k = Sphere(5)
    center = np.ones(5) / np.sqrt(5.0)
    obj = QuadraticOnEmbedded.random(k, 10, np.random.default_rng(0))
    calls = []

    class FailsOnFourthCall:
        def value_grad(self, x):
            calls.append(x)
            if len(calls) == 4:
                raise DomainError("objective: left its domain")
            return obj.value_grad(x)

    problem = RfwProblem(k, FailsOnFourthCall(), ball_set(
        GeodesicBall(k, center, 0.5)), obj.L, center)
    trace, _ = rfw_run(problem, rule=rule, max_iter=20)
    assert trace.status == "error"
    assert len(trace) == rows
