"""Error branches and boundary cases that the rest of the suite does not
reach: one parametrized test per path."""

import numpy as np
import pytest

from rfw import (ConfigError, ContractError, ConvexSet, DomainError,
                 Euclidean, GeodesicBall, Hyperboloid, QuadraticOnEmbedded,
                 RfwProblem, Spd, Sphere, StepRule, bisect_root,
                 estimate_alpha, lmo_brute_force, minimize_1d, rfw_run)
from rfw.balls import MEMBERSHIP_TOL, ORACLE_KERNELS
from rfw.convexity import NOTIONS, _clearances


@pytest.mark.parametrize("tilt", [0.0, 1e-12], ids=["normal", "tilted"])
@pytest.mark.parametrize("overshoot", [0.0, 0.5 * MEMBERSHIP_TOL],
                         ids=["on", "snapped"])
@pytest.mark.parametrize("kernel, radius", [
    (Sphere(3), 0.3), (Sphere(3), 1.2), (Hyperboloid(3), 1.0),
    (Hyperboloid(3), 2.0),
], ids=["sphere-0.3", "sphere-1.2", "hyp-1", "hyp-2"])
def test_oracle_at_a_boundary_optimum(kernel, radius, overshoot, tilt):
    # x on the boundary (or just outside it, within the membership
    # tolerance) and w the outward normal: every direction but the
    # normal's exits at once, and the optimum is x itself
    k, rng = kernel, np.random.default_rng(4)
    ball = GeodesicBall(k, k.random_point(rng), radius)
    u = k.random_unit_tangent(ball.center, rng)
    x = k.exp(ball.center, (radius + overshoot) * u)
    assert ball.membership(x)
    normal = -k.log(x, ball.center)
    w = normal / k.norm(x, normal) + tilt * k.random_unit_tangent(x, rng)
    res = ball.lmo(w, x)
    _, brute = lmo_brute_force(ball, w, x, 20_000)
    assert res.objective >= brute - 1e-9 * max(1.0, abs(brute))
    assert abs(res.objective) <= 1e-9
    assert ball.membership(res.vertex)


def _with_last_entry(x, value):
    x.flat[-1] = value
    return x


@pytest.mark.parametrize("kernel, point, match", [
    (Euclidean(3), np.zeros(4), "shape"),
    (Sphere(3), np.zeros(4), "shape"),
    (Sphere(3), np.array([1.0, 1.0, 0.0]), "unit norm"),
    (Hyperboloid(3), np.zeros(3), "shape"),
    (Hyperboloid(3), np.array([2.0, 0.0, 0.0, 0.0]),
     "not on the hyperboloid"),
    (Hyperboloid(3), np.array([-1.0, 0.0, 0.0, 0.0]),
     "not on the hyperboloid"),
    (Spd(3), np.eye(4), "shape"),
    (Spd(3), np.eye(3) + np.triu(np.ones((3, 3)), 1), "not symmetric"),
    (Spd(3), -np.eye(3), "not positive definite"),
] + [(k, _with_last_entry(k.base_point(), bad), "NaN or infinite")
     for k in (Euclidean(3), Sphere(3), Hyperboloid(3), Spd(3))
     for bad in (np.nan, np.inf)],
    ids=["euclidean-shape", "sphere-shape", "sphere-norm", "hyp-shape",
         "hyp-off-sheet", "hyp-lower-sheet", "spd-shape", "spd-symmetry",
         "spd-definite"] + [f"{k}-{bad}" for k in ("euclidean", "sphere",
                                                    "hyp", "spd")
                            for bad in ("nan", "inf")])
def test_check_point_rejects(kernel, point, match):
    # a NaN or infinite entry is rejected before the embedding test,
    # which lets a NaN through (and on SPD fails inside numpy)
    with pytest.raises(ContractError, match=match):
        kernel.check_point(point)


@pytest.mark.parametrize("v", [
    np.triu(np.ones((3, 3))),
    np.stack([np.eye(3), np.triu(np.ones((3, 3)))]),
], ids=["single", "stacked"])
def test_spd_check_tangent_rejects_an_asymmetric_matrix(v):
    with pytest.raises(ContractError, match="not symmetric"):
        Spd(3).check_tangent(np.eye(3), v)


@pytest.mark.parametrize("y", [-np.eye(3), np.diag([1.0, 0.0, 2.0])],
                         ids=["negative", "singular"])
def test_spd_dist_rejects_a_target_that_is_not_positive_definite(y):
    with pytest.raises(DomainError, match="not positive definite"):
        Spd(3).dist(2.0 * np.eye(3), y)


@pytest.mark.parametrize("z", [[0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
                         ids=["spacelike", "null"])
def test_hyperboloid_renormalize_rejects_vectors_outside_the_cone(z):
    with pytest.raises(DomainError, match="timelike cone"):
        Hyperboloid(3)._renormalize(np.array(z))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("cls", [Euclidean, Hyperboloid, Spd],
                         ids=lambda c: c.__name__)
def test_kernels_reject_dimension_below_two(cls, n):
    with pytest.raises(ConfigError, match=">= 2"):
        cls(n)


def _one_bad_direction(cls, bad, stacked):
    """A ball, a point x in it and a direction w at x whose entries are
    all `bad`; stacked, w and x are a second row after a valid pair."""
    k, rng = cls(3), np.random.default_rng(0)
    ball = GeodesicBall(k, k.base_point(), 0.5)
    x = ball.sample(rng)
    w = np.full_like(x, bad)
    if stacked:
        w, x = np.stack([k.random_unit_tangent(x, rng), w]), np.stack([x, x])
    return ball, w, x


@pytest.mark.parametrize("stacked", [False, True], ids=["lmo", "rows"])
@pytest.mark.parametrize("cls", ORACLE_KERNELS, ids=lambda c: c.__name__)
def test_oracles_reject_a_zero_direction(cls, stacked):
    ball, w, x = _one_bad_direction(cls, 0.0, stacked)
    with pytest.raises(ContractError, match="zero direction"):
        ball.lmo(w, x)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("stacked", [False, True], ids=["lmo", "rows"])
@pytest.mark.parametrize("cls", ORACLE_KERNELS, ids=lambda c: c.__name__)
def test_oracles_reject_a_non_finite_direction(cls, stacked, bad):
    # a NaN or infinite w has a NaN or infinite norm, which a plain
    # `norm < tol` test lets through to a NaN vertex and objective
    ball, w, x = _one_bad_direction(cls, bad, stacked)
    with pytest.raises(ContractError, match="NaN or infinite"):
        ball.lmo(w, x)


@pytest.mark.parametrize("member, start, direction", [
    (lambda z: False, [0.0, 0.0], [1.0, 0.0]),
    (lambda z: z[0] > 0.5, [0.0, 0.0], [1.0, 0.0]),
    # from (2, 0) toward the unit disk, which answers the stacked
    # points in one call: members for s in [1, 3] only
    (GeodesicBall(Euclidean(2), np.zeros(2), 1.0).membership, [2.0, 0.0],
     [-1.0, 0.0]),
], ids=["never", "only-far", "ray-into-disk"])
def test_sup_member_is_zero_from_a_start_outside_the_set(member, start,
                                                          direction):
    # the stacked clearance of a ray that starts outside the set is 0,
    # a margin of -required, whatever lies farther along it
    cset = ConvexSet(Euclidean(2), member, lambda rng: np.zeros(2),
                     diameter=4.0)
    required = np.array([0.0, 0.3, 1.7, 4.5])
    margins = _clearances(cset, np.tile(start, (4, 1)),
                          np.tile(direction, (4, 1)), required)
    assert margins.tolist() == [0.0 - r for r in required.tolist()]


@pytest.mark.parametrize("rule", list(StepRule), ids=lambda r: r.value)
def test_rfw_run_ends_in_error_when_a_step_leaves_the_set(rule):
    # the oracle answers for the unit disk, the set is the disk of
    # radius 0.5: the first step, toward a far target, leaves it
    k = Euclidean(2)
    wide = GeodesicBall(k, np.zeros(2), 1.0)
    narrow = GeodesicBall(k, np.zeros(2), 0.5)
    cset = ConvexSet(k, narrow.membership, narrow.sample, wide.lmo,
                     narrow.diameter)
    obj = QuadraticOnEmbedded(k, np.eye(2), np.array([5.0, 0.0]))
    problem = RfwProblem(k, obj, cset, L=obj.L, x0=np.zeros(2))
    trace, x = rfw_run(problem, rule=rule)
    assert trace.status == "error"
    assert len(trace) == 1
    assert not cset.membership(x)


@pytest.mark.parametrize("notion", NOTIONS)
def test_estimate_alpha_needs_a_diameter(notion):
    k = Euclidean(2)
    ball = GeodesicBall(k, np.zeros(2), 1.0)
    cset = ConvexSet(k, ball.membership, ball.sample, ball.lmo)
    with pytest.raises(ConfigError, match="diameter"):
        estimate_alpha(cset, notion, 10, np.random.default_rng(0))


@pytest.mark.parametrize("lo, hi", [(0.3, 0.3), (0.3, 0.3 + 5e-13),
                                    (0.0, 1e-12)],
                         ids=["empty", "half-tol", "tol"])
def test_minimize_1d_on_a_bracket_already_within_tol(lo, hi):
    calls = []

    def fun(t):
        calls.append(t)
        return (t - 1.0) ** 2

    x, fx = minimize_1d(fun, lo, hi, tol=1e-12)
    assert x == 0.5 * (lo + hi)
    assert fx == fun(x)
    assert calls == [x, x]


@pytest.mark.parametrize("fun, lo, hi", [
    (lambda t: 1.0 - t, 0.0, 1.0),
    (lambda t: t * t - 4.0, -1.0, 2.0),
    (lambda t: np.exp(t) - 1.0, -3.0, 0.0),
], ids=["linear", "quadratic", "exp"])
def test_bisect_root_with_the_root_at_hi(fun, lo, hi):
    calls = []

    def counted(t):
        calls.append(t)
        return fun(t)

    assert bisect_root(counted, lo, hi) == hi
    assert calls == [lo, hi]
