import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import (BracketError, ConfigError, ContractError, Euclidean,
                 GeodesicBall,
                 Hyperboloid, NoIntersectionError, NumericsError, Spd,
                 Sphere, alpha_phi_sphere,
                 boundary_section_grid, lmo_brute_force,
                 random_boundary_best)
import rfw.balls
from rfw.balls import (LMO_TOL, ORACLE_KERNELS, _section_frame,
                       grid_objectives)
from rfw.scalars import bisect_root

from helpers import alpha_phi_bisect, cold_bracket_phi


def sphere_ball(n=3, r=0.8, seed=0):
    k = Sphere(n)
    c = k.random_point(np.random.default_rng(seed))
    return k, GeodesicBall(k, c, r)


def test_membership_and_diameter():
    k, ball = sphere_ball()
    assert ball.membership(ball.center)
    assert ball.diameter == pytest.approx(1.6)
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = ball.sample(rng)
        assert ball.membership(p)
        assert k.dist(ball.center, p) <= ball.radius + 1e-9
    far = k.exp(ball.center, 1.01 * ball.radius
                * k.random_unit_tangent(ball.center, rng))
    assert not ball.membership(far)


@pytest.mark.parametrize("x", [-np.eye(3), np.diag([1.0, 0.0, 2.0])],
                         ids=["negative", "singular"])
def test_spd_membership_is_false_off_the_manifold(x):
    # Spd.dist raises on a matrix that is not positive definite; such a
    # point is not in the ball
    k = Spd(3)
    ball = GeodesicBall(k, k.base_point(), 2.0)
    assert not ball.membership(x)
    assert ball.membership(k.base_point())


def test_spd_stacked_membership_answers_row_by_row():
    # one row that is not positive definite leaves the other rows the
    # single calls' answers, and is itself not a member
    k = Spd(3)
    ball = GeodesicBall(k, k.base_point(), 1.0)
    rng = np.random.default_rng(3)
    far = k.exp(ball.center, 1.5 * k.random_unit_tangent(ball.center, rng))
    rows = np.array([ball.sample(rng), -np.eye(3), far, ball.center,
                     np.diag([1.0, 0.0, 2.0]), ball.sample(rng)])
    for stack in (rows, rows[[0, 2, 3, 5]]):
        got = ball.membership(stack)
        assert got.dtype == bool
        assert got.tolist() == [bool(ball.membership(x)) for x in stack]
    assert ball.membership(rows).tolist() == [True, False, False, True,
                                              False, True]


@pytest.mark.parametrize("dim", [2, 3, 7, 50])
def test_stacked_place_radii_are_the_single_calls_float_power(dim):
    # on a Euclidean ball at the origin exp adds the tangent, so the
    # first coordinate along e_1 is the radius r s^(1/dim) itself: a
    # stacked call's radii are the single call's float power, bit for bit
    k = Euclidean(dim)
    ball = GeodesicBall(k, np.zeros(dim), 0.7)
    s = np.random.default_rng(dim).random(400).tolist() + [0.0, 0.5]
    u = np.zeros((len(s), dim))
    u[:, 0] = 1.0
    rows = ball._place(u, s)[:, 0]
    assert rows.tolist() == [0.7 * t ** (1.0 / dim) for t in s]
    assert rows.tolist() == [ball._place(u[0], t)[0] for t in s]


def test_sphere_ball_radius_cap():
    k = Sphere(3)
    with pytest.raises(ConfigError):
        GeodesicBall(k, k.base_point(), 0.5 * np.pi)
    with pytest.raises(ConfigError):
        GeodesicBall(k, k.base_point(), -0.1)


@pytest.mark.parametrize("k", [Euclidean(3), Hyperboloid(3), Spd(3)],
                         ids=lambda k: k.name)
@pytest.mark.parametrize("radius", [np.inf, np.nan, -np.inf])
def test_ball_radius_must_be_finite(k, radius):
    with pytest.raises(ConfigError, match="positive and finite"):
        GeodesicBall(k, k.base_point(), radius)


def test_euclidean_lmo_closed_form():
    k = Euclidean(3)
    ball = GeodesicBall(k, np.array([1.0, 0.0, 0.0]), 2.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        expect = ball.center + ball.radius * w / np.linalg.norm(w)
        np.testing.assert_allclose(res.vertex, expect, atol=1e-12)
        np.testing.assert_array_equal(res.log, k.log(x, res.vertex))
        assert res.objective == pytest.approx(float(w @ (expect - x)))


def test_sphere_lmo_on_boundary_and_dominant():
    k, ball = sphere_ball(n=3, r=0.6, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(15):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        assert k.dist(ball.center, res.vertex) == pytest.approx(
            ball.radius, abs=1e-8)
        _, brute = lmo_brute_force(ball, w, x, 20000)
        brute = max(brute, random_boundary_best(ball, w, x, 500, rng))
        assert res.objective >= brute - 1e-7 * max(1.0, abs(brute))


def test_sphere_lmo_consistent_objective():
    k, ball = sphere_ball(n=4, r=0.5, seed=5)
    rng = np.random.default_rng(6)
    x = ball.sample(rng)
    w = k.random_unit_tangent(x, rng)
    res = ball.lmo(w, x)
    np.testing.assert_array_equal(res.log, k.log(x, res.vertex))
    assert res.objective == k.inner(x, w, res.log)


def test_sphere_lmo_from_center():
    k, ball = sphere_ball(n=3, r=0.7, seed=7)
    w = k.random_unit_tangent(ball.center, np.random.default_rng(8))
    res = ball.lmo(w, ball.center)
    expect = k.exp(ball.center, ball.radius * w)
    np.testing.assert_allclose(res.vertex, expect, atol=1e-9)


def test_sphere_lmo_degenerate_section():
    # w parallel to log_x(center): the search plane collapses to a line
    k, ball = sphere_ball(n=3, r=0.4, seed=9)
    rng = np.random.default_rng(10)
    x = k.exp(ball.center, 0.3 * k.random_unit_tangent(ball.center, rng))
    g = k.log(x, ball.center)
    for w in (g / k.norm(x, g), -g / k.norm(x, g)):
        res = ball.lmo(w, x)
        _, brute = lmo_brute_force(ball, w, x, 20000)
        assert res.objective >= brute - 1e-7
        assert k.dist(ball.center, res.vertex) <= ball.radius + 1e-8


def test_generic_lmo_matches_sphere_closed_form():
    # the closed form against a 100,000-point boundary grid built from
    # the center, which shares no code with the oracle, on both kernels
    hk = Hyperboloid(3)
    for k, ball in (sphere_ball(n=3, r=1.0, seed=11),
                    (hk, GeodesicBall(hk, hk.base_point(), 1.0))):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = ball.sample(rng)
            w = k.random_unit_tangent(x, rng)
            closed = ball.lmo(w, x)
            _, brute = lmo_brute_force(ball, w, x, 100_000)
            assert abs(closed.objective - brute) <= 1e-6


def test_hyperboloid_lmo():
    k = Hyperboloid(3)
    ball = GeodesicBall(k, k.base_point(), 1.0)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        assert k.dist(ball.center, res.vertex) == pytest.approx(
            ball.radius, abs=1e-7)
        best = random_boundary_best(ball, w, x, 2000, rng)
        assert res.objective >= best - 1e-6


def _boundary_point_and_tilted_normal(k, ball, rng, tilt):
    """x on the boundary and w = outward normal + tilt * unit tangent
    orthogonal to it."""
    x = k.exp(ball.center, ball.radius * k.random_unit_tangent(ball.center,
                                                               rng))
    g = k.log(x, ball.center)
    normal = -g / k.norm(x, g)
    t = k.random_tangent(x, rng)
    t = t - k.inner(x, normal, t) * normal
    return x, normal + tilt * t / k.norm(x, t)


@pytest.mark.parametrize("k,radius,seed,tilt", [
    (Sphere(3), 0.5, 22, 1e-2), (Sphere(10), 1.0, 22, 1e-2),
    (Hyperboloid(3), 1.0, 22, 1e-2), (Hyperboloid(3), 3.0, 9, 1e-6)],
    ids=["sphere3", "sphere10", "hyperboloid3", "hyperboloid3-far"])
def test_lmo_finds_boundary_wedge(k, radius, seed, tilt):
    # x on the boundary and w just off the outward normal: only a narrow
    # wedge of directions is feasible, and the vertex lies inside it.
    # Far from the base point with tilt 1e-6, the plane's second axis is
    # the short remainder of log_x(center) after its w part; its
    # roundoff once failed the oracle's own tangency check
    rng = np.random.default_rng(seed)
    ball = GeodesicBall(k, k.random_point(rng), radius)
    for _ in range(20):
        x, w = _boundary_point_and_tilted_normal(k, ball, rng, tilt)
        _, brute = lmo_brute_force(ball, w, x, 20000)
        assert ball.lmo(w, x).objective >= brute - 1e-9


@pytest.mark.parametrize("k,radius", [
    (Sphere(3), 0.3), (Sphere(3), 1.2), (Hyperboloid(3), 1.0),
    (Hyperboloid(3), 2.0)], ids=["sphere-0.3", "sphere-1.2",
                                 "hyperboloid-1", "hyperboloid-2"])
def test_lmo_exit_evaluations_per_call(monkeypatch, k, radius):
    # every exit evaluation of a call is counted, a row-wise one once per
    # row: F' at the wedge edge and at the bracket's other end (the sign
    # test), at the warm start's two probes (the bracket's cuts, whose
    # values the root finder starts from), one per step of the root
    # finder and one for the vertex.  The root finder is superlinear:
    # bisecting [-pi/2, pi/2] down to LMO_TOL alone would take ~42 steps.
    # A stacked call steps all its rows until the last is done
    evals, steps = [0], [0]
    for name in ("alpha_phi_sphere", "_alpha_phi_hyperboloid"):
        exit_at = getattr(rfw.balls, name)

        def counted(a, b, c, slope=False, exit_at=exit_at):
            evals[0] += np.size(b)
            return exit_at(a, b, c, slope=slope)
        monkeypatch.setattr(rfw.balls, name, counted)
    bisect = rfw.balls.bisect_root

    def traced(fun, lo, hi, tol, ends=None):
        def stepped(t):
            steps[0] += 1
            return fun(t)
        return bisect(stepped, lo, hi, tol=tol, ends=ends)
    monkeypatch.setattr(rfw.balls, "bisect_root", traced)
    rng = np.random.default_rng(23)
    ball = GeodesicBall(k, k.random_point(rng), radius)
    worst = 0
    for i in range(60):
        if i % 2:
            x, w = _boundary_point_and_tilted_normal(
                k, ball, rng, 10.0 ** rng.uniform(-6.0, 1.0))
        else:
            x = ball.sample(rng)
            w = k.random_unit_tangent(x, rng)
        evals[0] = steps[0] = 0
        ball.lmo(w, x)
        assert evals[0] == 5 + steps[0]
        worst = max(worst, evals[0])
    assert 0 < worst <= 17
    for seed in range(4):
        w, x = _oracle_rows(k, ball, np.random.default_rng(seed), 100)
        evals[0] = steps[0] = 0
        ball.lmo(w, x)
        assert steps[0] > 0 and evals[0] == len(x) * (5 + steps[0])
        assert 5 + steps[0] <= 17
    if radius == 0.3:
        # the certify-sphere workload's cap: on 400 rows (x sampled in it,
        # w a random unit tangent at x) the warm start's cut brackets keep
        # every row to at most 12 exit evaluations
        x = np.array([ball.sample(rng) for _ in range(400)])
        w = np.array([k.random_unit_tangent(row, rng) for row in x])
        evals[0] = steps[0] = 0
        ball.lmo(w, x)
        assert evals[0] == len(x) * (5 + steps[0]) <= 12 * len(x)


@pytest.mark.parametrize("cls", ORACLE_KERNELS, ids=lambda c: c.__name__)
def test_lmo_checks_direction_at_entry(cls):
    k = cls(3)
    ball = GeodesicBall(k, k.base_point(), 0.5)
    rng = np.random.default_rng(3)
    x = ball.sample(rng)
    with pytest.raises(ContractError):
        ball.lmo(np.ones(x.size + 1), x)
    if cls is not Euclidean:  # in R^n every vector is tangent everywhere
        other = k.exp(x, 0.3 * k.random_unit_tangent(x, rng))
        with pytest.raises(ContractError):
            ball.lmo(k.random_unit_tangent(other, rng), x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(ORACLE_KERNELS),
       radius_frac=st.floats(0.0, 1.0),
       tilt_exp=st.floats(-6.0, 1.0),
       seed=st.integers(0, 2**16))
def test_lmo_vertex_on_boundary_and_optimal(kernel, radius_frac, tilt_exp,
                                           seed):
    # radii from 1e-4 to pi/2 - 1e-3 on the sphere (2 elsewhere), log-
    # uniform; x on the boundary, w the outward normal tilted by
    # 10^tilt_exp along a tangent: the narrow-wedge regime.  The random
    # boundary points lie off the search plane, so they also check the
    # reduction to it
    k = kernel(3)
    top = 0.5 * np.pi - 1e-3 if kernel is Sphere else 2.0
    radius = 1e-4 * (top / 1e-4) ** radius_frac
    rng = np.random.default_rng(seed)
    ball = GeodesicBall(k, k.random_point(rng), radius)
    x, w = _boundary_point_and_tilted_normal(k, ball, rng, 10.0 ** tilt_exp)
    res = ball.lmo(w, x)
    assert abs(k.dist(ball.center, res.vertex) - radius) <= 1e-8
    _, brute = lmo_brute_force(ball, w, x, 20000)
    assert res.objective >= brute - 1e-9 * max(1.0, abs(brute))
    best = random_boundary_best(ball, w, x, 500, rng)
    assert res.objective >= best - 1e-9 * max(1.0, abs(best))


PROPERTY_KERNELS = (Sphere(3), Sphere(50), Hyperboloid(3), Hyperboloid(10))


def _property_pairs(k, ball, rng, depth_exp, tilt_exp):
    """(w, x, depth) rows: x interior, on the boundary, 10^depth_exp of
    the radius inside it and up to 0.9 MEMBERSHIP_TOL outside it (depth
    is dist(center, x) - radius there, else 0), each with w random, the
    outward normal and the outward normal tilted by 10^tilt_exp."""
    x0, r = ball.center, ball.radius
    scales = (rng.uniform(), 1.0, 1.0 - 10.0 ** depth_exp,
              1.0 + 0.9 * rng.uniform() * rfw.balls.MEMBERSHIP_TOL / r)
    for scale in scales:
        x = k.exp(x0, scale * r * k.random_unit_tangent(x0, rng))
        depth = max(k.dist(x0, x) - r, 0.0) if scale > 1.0 else 0.0
        g = k.log(x, x0)
        normal = -g / k.norm(x, g)
        t = k.random_tangent(x, rng)
        t = t - k.inner(x, normal, t) * normal
        for w in (k.random_unit_tangent(x, rng), normal,
                  normal + 10.0 ** tilt_exp * t / k.norm(x, t)):
            yield w, x, depth


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.sampled_from(PROPERTY_KERNELS), radius_frac=st.floats(0.0, 1.0),
       depth_exp=st.floats(-16.0, -9.0), tilt_exp=st.floats(-14.0, 0.0),
       seed=st.integers(0, 2**16))
def test_lmo_beats_the_section_grid_at_and_near_the_boundary(
        k, radius_frac, depth_exp, tilt_exp, seed):
    # the oracle's three-point bracket holds where F has one peak, which
    # is not proven: every pair of _property_pairs, as a single call and
    # as a row of one stacked call, is bracketed (no BracketError, a
    # NumericsError) and at least the dense section grid's maximum,
    # less 1e-9 max(1, |grid|), plus, from x outside the ball, 2 |w|
    # depth / cos(r) on the sphere and 2 |w| depth on the hyperboloid:
    # the oracle snaps such an x onto the boundary.  Radii log-uniform
    # from 1e-4 to pi/2 - 1e-3 on the sphere and to 2 on the hyperboloid,
    # whose balls sit at its base point (far from it its exp loses digits
    # of its own)
    top = 0.5 * np.pi - 1e-3 if isinstance(k, Sphere) else 2.0
    radius = 1e-4 * (top / 1e-4) ** radius_frac
    rng = np.random.default_rng(seed)
    center = k.random_point(rng) if isinstance(k, Sphere) else k.base_point()
    ball = GeodesicBall(k, center, radius)
    w, x, depth = map(np.array, zip(*_property_pairs(
        k, ball, rng, depth_exp, tilt_exp)))
    try:
        rows = ball.lmo(w, x)
        singles = [ball.lmo(w[i], x[i]).objective for i in range(len(x))]
    except NumericsError as err:
        pytest.fail(f"the oracle's bracket failed: {err}")
    snap = 2.0 / (math.cos(radius) if isinstance(k, Sphere) else 1.0)
    for i in range(len(x)):
        _, grid = lmo_brute_force(ball, w[i], x[i], 20000)
        bound = (1e-9 * max(1.0, abs(grid))
                 + snap * k.norm(x[i], w[i]) * depth[i])
        assert min(singles[i], rows.objective[i]) >= grid - bound, (i, grid)


@pytest.mark.parametrize("cls", ORACLE_KERNELS, ids=lambda c: c.__name__)
def test_lmo_rejects_point_outside_ball(cls):
    k = cls(3)
    ball = GeodesicBall(k, k.base_point(), 0.5)
    rng = np.random.default_rng(0)
    x = k.exp(ball.center, 1.0 * k.random_unit_tangent(ball.center, rng))
    with pytest.raises(ContractError, match="outside the ball"):
        ball.lmo(k.random_unit_tangent(x, rng), x)


def test_spd_ball_has_no_oracle():
    k = Spd(3)
    ball = GeodesicBall(k, np.eye(3), 0.5)
    with pytest.raises(ConfigError):
        ball.lmo(k.random_tangent(np.eye(3), np.random.default_rng(0)),
                 np.eye(3))


def test_alpha_phi_closed_form_against_bisection():
    k, ball = sphere_ball(n=3, r=0.9, seed=14)
    rng = np.random.default_rng(15)
    worst = 0.0
    checked = 0
    for _ in range(30):
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        res = ball.lmo(w, x)
        u1, u2, _, _ = _section_frame(k, x, w, 1.0, k.log(x, ball.center))
        p = np.cos(res.phi) * u1 + np.sin(res.phi) * u2
        a = max(float(ball.center @ x), np.cos(ball.radius))
        b = float(ball.center @ p)
        c = np.cos(ball.radius)
        worst = max(worst, abs(alpha_phi_sphere(a, b, c)
                               - alpha_phi_bisect(a, b, c)))
        checked += 1
    assert checked > 10
    assert worst <= 1e-8


def test_alpha_phi_no_intersection():
    # a*cos + b*sin can never reach c: the ray misses the cap boundary
    with pytest.raises(NoIntersectionError):
        alpha_phi_sphere(0.1, 0.1, 0.99)
    # disc >= 0, but x lies outside the cap (a < c): outside the regime
    with pytest.raises(NoIntersectionError):
        alpha_phi_sphere(0.5, 0.8, 0.9)


def _exit_reference(g, hi):
    """The exit root of g(s) = 0 from a point with g(0) >= 0: 0 where
    g < 0 right after 0 (an outward ray from the boundary), else the
    first sign change on (0, hi], by a scan and bisect_root."""
    grid = np.linspace(0.0, hi, 4001)[1:]
    vals = g(grid)
    if vals[0] < 0.0:
        return 0.0
    i = np.flatnonzero(vals < 0.0)[0]
    return bisect_root(g, grid[i - 1], grid[i], tol=1e-14)


def _exit_cases(kernel, radius, rng, n=40):
    """(a, b, c, g) of the exit equation g(s) = 0 on a ball of the
    radius, c = cos(r) or cosh(r): random points and directions, then a
    boundary point (a = c) with an inward and an outward ray."""
    if kernel == "sphere":
        c = math.cos(radius)
        a = rng.uniform(c, 1.0, n)
        top = np.sqrt(1.0 - a * a)  # |<center, p>| for unit p at x
    else:
        c = math.cosh(radius)
        a = rng.uniform(1.0, c, n)
        top = np.sqrt(a * a - 1.0)
    b = rng.uniform(-1.0, 1.0, n) * top
    a = np.append(a, [c, c])
    b = np.append(b, np.array([0.5, -0.5]) * np.sqrt(abs(1.0 - c * c)))
    for ai, bi in zip(a.tolist(), b.tolist()):
        if kernel == "sphere":
            g = lambda s, a=ai, b=bi: a * np.cos(s) + b * np.sin(s) - c
        else:
            g = lambda s, a=ai, b=bi: c - a * np.cosh(s) + b * np.sinh(s)
        yield ai, bi, c, g


@pytest.mark.parametrize("kernel,radius,exit_at", [
    ("sphere", 0.3, alpha_phi_sphere), ("sphere", 1.2, alpha_phi_sphere),
    ("hyperboloid", 1.0, rfw.balls._alpha_phi_hyperboloid),
    ("hyperboloid", 2.0, rfw.balls._alpha_phi_hyperboloid)],
    ids=["sphere-0.3", "sphere-1.2", "hyperboloid-1", "hyperboloid-2"])
def test_exit_formulas_against_bracketing_solve(kernel, radius, exit_at):
    # one formula serves float a and b (math, a Python float back) and
    # arrays on either side (numpy); both solve the exit equation, and an
    # outward ray from the boundary exits at 0
    cases = list(_exit_cases(kernel, radius, np.random.default_rng(8)))
    a = np.array([case[0] for case in cases])
    b = np.array([case[1] for case in cases])
    rows = exit_at(a, b, cases[0][2])
    for i, (ai, bi, c, g) in enumerate(cases):
        one = exit_at(ai, bi, c)
        assert type(one) is float
        ref = _exit_reference(g, 2.0 * radius + 1.0)
        assert abs(one - ref) <= 1e-9 and abs(rows[i] - ref) <= 1e-9, i
        assert exit_at(a, bi, c)[i] == rows[i] == exit_at(ai, b, c)[i], i
    assert rows[-1] == 0.0 < rows[-2]


@pytest.mark.parametrize("exit_at,c", [
    (alpha_phi_sphere, math.cos(0.8)),
    (rfw.balls._alpha_phi_hyperboloid, math.cosh(1.5))],
    ids=["sphere", "hyperboloid"])
def test_exit_slope_at_a_zero_exit_is_its_limit_from_inside(exit_at, c):
    # from a boundary point (a = c) a ray exits at 0 for b <= 0 and at
    # ~(2/c) b for a small b > 0: where the exit is 0 its b-slope is
    # that one-sided limit, the slope the oracle's F' at the wedge edge
    # reads.  A small exit and its slope keep their relative digits (the
    # log of a ratio near 1 would keep only ~1 ulp of 1 of the exit).  A
    # pair and rows alike
    b = np.array([0.0, -1e-12, -0.3])
    s, ds = exit_at(np.full(3, c), b, c, slope=True)
    assert s.tolist() == [0.0] * 3 and ds.tolist() == [2.0 / c] * 3
    for bi in b.tolist():
        assert exit_at(c, bi, c, slope=True) == (0.0, 2.0 / c)
    for h in (1e-5, 1e-7):
        assert abs(exit_at(c, h, c) / h - 2.0 / c) <= 1e-6
    small = np.array([1e-12, 1e-9])
    rows = zip(*exit_at(np.full(2, c), small, c, slope=True))
    for h, row in zip(small.tolist(), rows):
        for s, ds in (row, exit_at(c, h, c, slope=True)):
            assert abs(s / h - 2.0 / c) <= 1e-9 * 2.0 / c
            assert abs(ds - 2.0 / c) <= 1e-9 * 2.0 / c


def test_alpha_phi_positive_wrap():
    a, b, c = 0.95, -0.2, np.cos(0.4)
    al = alpha_phi_sphere(a, b, c)
    assert al > 0.0
    assert a * np.cos(al) + b * np.sin(al) == pytest.approx(c, abs=1e-12)


def test_boundary_section_grid_lies_on_boundary():
    for k, ball in [sphere_ball(n=3, r=0.5, seed=16),
                    (Hyperboloid(3), GeodesicBall(Hyperboloid(3),
                                                  Hyperboloid(3).base_point(),
                                                  0.8)),
                    (Euclidean(3), GeodesicBall(Euclidean(3),
                                                np.zeros(3), 1.5))]:
        rng = np.random.default_rng(17)
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        z = boundary_section_grid(ball, x, w, 64)
        for p in z:
            assert k.dist(ball.center, p) == pytest.approx(
                ball.radius, abs=1e-9)


@pytest.mark.parametrize("k, radius", [(Sphere(3), 0.5), (Hyperboloid(3), 0.8),
                                       (Euclidean(3), 1.5)],
                         ids=["sphere", "hyperboloid", "euclidean"])
def test_random_boundary_best_is_a_loop_of_single_draws(k, radius):
    # the block of n normals made unit tangents and exponentiated in one
    # stacked call is the loop of n single draws, bit for bit, and it
    # takes the same stream
    ball = GeodesicBall(k, k.random_point(np.random.default_rng(21)), radius)
    rng = np.random.default_rng(22)
    x = ball.sample(rng)
    w = k.random_unit_tangent(x, rng)
    block, loop = (np.random.default_rng(23) for _ in range(2))
    z = np.array([k.exp(ball.center, radius * k.random_unit_tangent(
        ball.center, loop)) for _ in range(300)])
    best = random_boundary_best(ball, w, x, 300, block)
    assert best == float(np.max(grid_objectives(k, x, w, z)))
    assert block.random() == loop.random()


def test_grid_objectives_matches_pointwise():
    for k, ball in [sphere_ball(n=3, r=0.5, seed=18),
                    (Hyperboloid(3), GeodesicBall(Hyperboloid(3),
                                                  Hyperboloid(3).base_point(),
                                                  0.8)),
                    (Euclidean(3), GeodesicBall(Euclidean(3),
                                                np.zeros(3), 1.5))]:
        rng = np.random.default_rng(19)
        x = ball.sample(rng)
        w = k.random_unit_tangent(x, rng)
        z = boundary_section_grid(ball, x, w, 32)
        vals = grid_objectives(k, x, w, z)
        for p, got in zip(z, vals):
            assert got == pytest.approx(k.inner(x, w, k.log(x, p)),
                                        abs=1e-10)


def test_lmo_result_records_phi_for_planar_search():
    k, ball = sphere_ball(n=3, r=0.6, seed=20)
    rng = np.random.default_rng(21)
    x = ball.sample(rng)
    w = k.random_unit_tangent(x, rng)
    res = ball.lmo(w, x)
    assert res.phi is None or -np.pi <= res.phi <= np.pi


# ---------------------------------------------------------------------------
# stacked rows against single calls
# ---------------------------------------------------------------------------

ROW_BALLS = [(Euclidean(3), 1.0), (Sphere(3), 1e-3), (Sphere(3), 0.3),
             (Sphere(3), 1.0), (Sphere(3), 1.5), (Hyperboloid(3), 0.1),
             (Hyperboloid(3), 1.0), (Hyperboloid(3), 2.0)]


def _row_tolerance(k, radius):
    """1e-13, times cosh(r)^4 on the hyperboloid: its exp takes the
    tangent norm from a difference of squares of O(cosh r) coordinates,
    so a last-bit difference in phi moves the vertex by up to ~cosh(r)^4
    ulps."""
    return 1e-13 * (np.cosh(radius) ** 4 if isinstance(k, Hyperboloid)
                    else 1.0)


def _oracle_rows(k, ball, rng, n=40):
    """(w, x) rows: interior points with random directions alternating
    with boundary points whose outward normals are tilted by
    10^U(-6, 1) (the narrow wedge), then x at the center and w along
    +-log_x(center) (the plane degenerates to a line)."""
    ws, xs = [], []
    for i in range(n):
        if i % 2:
            x, w = _boundary_point_and_tilted_normal(
                k, ball, rng, 10.0 ** rng.uniform(-6.0, 1.0))
        else:
            x = ball.sample(rng)
            w = k.random_unit_tangent(x, rng)
        xs.append(x)
        ws.append(w)
    xs.append(ball.center)
    ws.append(k.random_unit_tangent(ball.center, rng))
    x = ball.sample(rng)
    g = k.log(x, ball.center)
    xs += [x, x]
    ws += [g / k.norm(x, g), -g / k.norm(x, g)]
    return np.array(ws), np.array(xs)


def _assert_rows_equal_single_calls(ball, w, x, tol):
    rows = ball.lmo(w, x)
    assert rows.vertex.shape == rows.log.shape == x.shape
    assert np.shape(rows.objective) == (len(x),)
    for i in range(len(x)):
        one = ball.lmo(w[i], x[i])
        if one.phi is None:
            assert rows.phi is None
        else:
            assert abs(rows.phi[i] - one.phi) <= tol
        assert abs(rows.objective[i] - one.objective) <= tol
        assert np.max(np.abs(rows.vertex[i] - one.vertex)) <= tol
        assert np.max(np.abs(rows.log[i] - one.log)) <= tol


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k,radius", ROW_BALLS,
                         ids=[f"{k.name}-{r:g}" for k, r in ROW_BALLS])
def test_stacked_lmo_rows_equal_single_calls(k, radius, seed):
    # the single call stays the reference: each stacked row is its answer
    # up to the last bits of numpy's transcendental functions
    ball = GeodesicBall(k, k.base_point(), radius)
    w, x = _oracle_rows(k, ball, np.random.default_rng(seed))
    tol = _row_tolerance(k, radius)
    _assert_rows_equal_single_calls(ball, w, x, tol)
    _assert_rows_equal_single_calls(ball, w[:1], x[:1], tol)
    empty = ball.lmo(w[:0], x[:0])
    assert empty.vertex.shape == x[:0].shape and len(empty.objective) == 0


def test_stacked_lmo_brackets_the_near_boundary_corner():
    # x 1e-12 inside the boundary and w its outward normal tilted by
    # 1e-6: F' at the wedge edge puts the peak on the inward side, and
    # the row's answer, stacked among others or from a single call,
    # beats the dense section grid
    k = Sphere(3)
    ball = GeodesicBall(k, k.base_point(), 0.3)
    x = k.exp(ball.center, (0.3 - 1e-12) * np.array([0.0, 1.0, 0.0]))
    g = k.log(x, ball.center)
    w = -g / k.norm(x, g) + 1e-6 * np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(2)
    ws, xs = _oracle_rows(k, ball, rng, 6)
    ws, xs = np.vstack([ws, w]), np.vstack([xs, x])
    rows = ball.lmo(ws, xs)
    one = ball.lmo(w, x)
    _, brute = lmo_brute_force(ball, w, x, 100_000)
    assert one.objective >= brute - 1e-12 and one.objective > 0.0
    assert abs(rows.objective[-1] - one.objective) <= 1e-15
    _assert_rows_equal_single_calls(ball, ws, xs, _row_tolerance(k, 0.3))


BRACKET_BALLS = [(Sphere(3), 0.3), (Sphere(3), 1.2), (Sphere(3), 1.5),
                 (Hyperboloid(3), 1.0), (Hyperboloid(3), 2.0)]


def _bracket_rows(k, ball, rng):
    """(w, x) rows on the bracket's corners: x at the center (row 0), and
    w along +-log_x(center) (rows 1 + 7j and 2 + 7j): the plane
    degenerates to a line; x on the boundary with w its outward normal, exact (the exit
    at the wedge edge is 0) and tilted by 1e-12 to 1; and random
    interior rows."""
    ws, xs = [k.random_unit_tangent(ball.center, rng)], [ball.center]
    for _ in range(4):
        x = ball.sample(rng)
        g = k.log(x, ball.center)
        ws += [g / k.norm(x, g), -g / k.norm(x, g)]
        xs += [x, x]
        for tilt in (0.0, 1e-12, 1e-6, 1e-2, 1.0):
            x, w = _boundary_point_and_tilted_normal(k, ball, rng, tilt)
            ws.append(w)
            xs.append(x)
    for _ in range(12):
        xs.append(ball.sample(rng))
        ws.append(k.random_unit_tangent(xs[-1], rng))
    return np.array(ws), np.array(xs)


@pytest.mark.parametrize("k,radius", BRACKET_BALLS,
                         ids=[f"{k.name}-{r:g}" for k, r in BRACKET_BALLS])
def test_lmo_on_the_bracket_corners(k, radius):
    # each corner of the three-point bracket: a line row takes phi = 0
    # exactly, and every row, as a single call and as a row of one
    # stacked call, beats the dense section grid
    ball = GeodesicBall(k, k.random_point(np.random.default_rng(5))
                        if isinstance(k, Sphere) else k.base_point(), radius)
    w, x = _bracket_rows(k, ball, np.random.default_rng(6))
    rows = ball.lmo(w, x)
    line = [0] + [1 + 7 * j + i for j in range(4) for i in (0, 1)]
    for i in range(len(x)):
        one = ball.lmo(w[i], x[i])
        if i in line:
            assert one.phi == 0.0 and rows.phi[i] == 0.0, i
        _, grid = lmo_brute_force(ball, w[i], x[i], 20000)
        bound = 1e-9 * max(1.0, abs(grid))
        assert min(one.objective, rows.objective[i]) >= grid - bound, i
    _assert_rows_equal_single_calls(ball, w, x, _row_tolerance(k, radius))


@pytest.mark.parametrize("k,radius", BRACKET_BALLS,
                         ids=[f"{k.name}-{r:g}" for k, r in BRACKET_BALLS])
def test_warm_bracket_finds_the_cold_brackets_root(k, radius):
    # the warm start only narrows the bracket: on the corner rows and on
    # random interior rows, a single call and each row of a stacked call
    # find the root that bisect_root finds over the whole half bracket
    ball = GeodesicBall(k, k.random_point(np.random.default_rng(5))
                        if isinstance(k, Sphere) else k.base_point(), radius)
    w, x = _bracket_rows(k, ball, np.random.default_rng(6))
    more_w, more_x = _oracle_rows(k, ball, np.random.default_rng(7), 40)
    w, x = np.concatenate([w, more_w]), np.concatenate([x, more_x])
    rows = ball.lmo(w, x).phi
    for i in range(len(x)):
        cold = cold_bracket_phi(ball, w[i], x[i])
        assert abs(ball.lmo(w[i], x[i]).phi - cold) <= 2 * LMO_TOL, i
        assert abs(rows[i] - cold) <= 2 * LMO_TOL, i


@pytest.mark.parametrize("stacked", [False, True], ids=["pair", "rows"])
@pytest.mark.parametrize("k,name", [
    (Sphere(3), "alpha_phi_sphere"),
    (Hyperboloid(3), "_alpha_phi_hyperboloid")],
    ids=["sphere", "hyperboloid"])
def test_lmo_raises_where_its_bracket_has_no_sign_change(monkeypatch, k,
                                                         name, stacked):
    # the bracket rests on F having one peak, which is not proven, so
    # the oracle never guesses past it: under a made-up exit alpha = -1,
    # F' = sin(phi) has one sign over [-pi/2, e] (e < 0) and over [e,
    # pi/2] (e > 0), and every row off a line raises BracketError.  A
    # line row has no sign test: phi = 0 is its root
    def made_up(a, b, c, slope=False):
        s = 0.0 * b - 1.0
        return (s, 0.0 * b) if slope else s
    monkeypatch.setattr(rfw.balls, name, made_up)
    ball = GeodesicBall(k, k.base_point(), 1.0)
    rng = np.random.default_rng(8)
    line = (k.random_unit_tangent(ball.center, rng), ball.center)
    w, x = _oracle_rows(k, ball, rng, 6)
    if stacked:
        assert ball.lmo(*map(np.array, zip(line, line))).phi.tolist() == [
            0.0, 0.0]
        with pytest.raises(BracketError, match=f"of {len(x)} rows"):
            ball.lmo(w, x)
    else:
        assert ball.lmo(*line).phi == 0.0
        for i in range(6):
            with pytest.raises(BracketError, match="no sign change"):
                ball.lmo(w[i], x[i])


@pytest.mark.parametrize("cls", ORACLE_KERNELS, ids=lambda c: c.__name__)
def test_stacked_lmo_checks_every_row_at_entry(cls):
    k = cls(3)
    ball = GeodesicBall(k, k.base_point(), 0.5)
    w, x = _oracle_rows(k, ball, np.random.default_rng(4), 6)
    zero = w.copy()
    zero[3] = 0.0
    with pytest.raises(ContractError, match="zero direction"):
        ball.lmo(zero, x)
    far = x.copy()
    far[2] = k.exp(ball.center, 1.0 * k.random_unit_tangent(
        ball.center, np.random.default_rng(5)))
    with pytest.raises(ContractError, match="outside the ball"):
        ball.lmo(k.project_tangent(far, w), far)
    with pytest.raises(ContractError, match="shape"):
        ball.lmo(w[0], x)
