import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import (ConfigError, ContractError, Euclidean, GeodesicBall,
                 Hyperboloid,
                 NoIntersectionError, Spd, Sphere, alpha_phi_sphere,
                 boundary_section_grid, lmo_brute_force,
                 random_boundary_best)
import rfw.balls
from rfw.balls import (ORACLE_KERNELS, _alpha_phi_bisect, _section_frame,
                       grid_objectives)


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


def test_sphere_ball_radius_cap():
    k = Sphere(3)
    with pytest.raises(ConfigError):
        GeodesicBall(k, k.base_point(), 0.5 * np.pi)
    with pytest.raises(ConfigError):
        GeodesicBall(k, k.base_point(), -0.1)


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
    # the refinement's root finder is superlinear: bisecting a grid
    # bracket down to LMO_TOL alone would take ~40 exit evaluations;
    # F' at the bracket ends is taken once, by the sign test
    calls = [0]
    for name in ("_exit_sphere", "_exit_hyperboloid"):
        exit_at = getattr(rfw.balls, name)

        def counted(a, b, c, exit_at=exit_at):
            calls[0] += 1
            return exit_at(a, b, c)
        monkeypatch.setattr(rfw.balls, name, counted)
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
        calls[0] = 0
        ball.lmo(w, x)
        worst = max(worst, calls[0])
    assert 0 < worst <= 14


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
        if res.phi is None:
            continue
        u1, u2, _ = _section_frame(k, x, w, 1.0, k.log(x, ball.center))
        if u2 is None:
            continue
        p = np.cos(res.phi) * u1 + np.sin(res.phi) * u2
        a = max(float(ball.center @ x), np.cos(ball.radius))
        b = float(ball.center @ p)
        c = np.cos(ball.radius)
        worst = max(worst, abs(alpha_phi_sphere(a, b, c)
                               - _alpha_phi_bisect(a, b, c)))
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
    10^U(-6, 1) (the wedge grid), then x at the center and w along
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


def test_stacked_lmo_sends_unbracketed_rows_to_the_single_call(monkeypatch):
    # x 1e-12 inside the boundary and w its outward normal tilted by
    # 1e-6: F' keeps its sign across the grid bracket, and the row takes
    # the single call's golden-section search, once
    k = Sphere(3)
    ball = GeodesicBall(k, k.base_point(), 0.3)
    x = k.exp(ball.center, (0.3 - 1e-12) * np.array([0.0, 1.0, 0.0]))
    g = k.log(x, ball.center)
    w = -g / k.norm(x, g) + 1e-6 * np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(2)
    ws, xs = _oracle_rows(k, ball, rng, 6)
    ws, xs = np.vstack([ws, w]), np.vstack([xs, x])
    calls = []
    golden = rfw.balls.minimize_1d

    def counted(*args, **kwargs):
        calls.append(1)
        return golden(*args, **kwargs)
    monkeypatch.setattr(rfw.balls, "minimize_1d", counted)
    rows = ball.lmo(ws, xs)
    assert len(calls) == 1
    one = ball.lmo(w, x)
    assert rows.phi[-1] == one.phi and rows.objective[-1] == one.objective
    np.testing.assert_array_equal(rows.vertex[-1], one.vertex)
    _assert_rows_equal_single_calls(ball, ws, xs, _row_tolerance(k, 0.3))


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
