import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import (ConfigError, ContractError, DomainError, Euclidean,
                 GeodesicBall, Hyperboloid, Manifold, RfwProblem, Spd, Sphere,
                 ball_set, double_exp, make_manifold, rfw_run)
from rfw.manifolds import CurvatureInfo
from helpers import geometry_invariant_worst

KERNELS = [Euclidean(5), Sphere(4), Hyperboloid(3), Spd(3)]


def kid(k):
    return type(k).__name__


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_core_invariants(kernel):
    worst = geometry_invariant_worst(kernel, 150, np.random.default_rng(0))
    assert worst <= 1e-8


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_stacked_rows_are_the_single_calls(kernel):
    # every map takes rows (a single base point broadcast against them),
    # and each row is bit for bit the single call on that row
    rng = np.random.default_rng(3)
    n = 25
    x = np.array([kernel.random_point(rng) for _ in range(n)])
    v = np.array([rng.uniform(0.0, 0.8) * kernel.random_unit_tangent(p, rng)
                  for p in x])
    v[0] = 0.0
    y = np.array([kernel.exp(p, u) for p, u in zip(x, v)])
    w = np.array([kernel.random_unit_tangent(p, rng) for p in x])
    t = rng.uniform(size=n)
    ops = {
        "exp": lambda x, v, y, w, t: kernel.exp(x, v),
        "log": lambda x, v, y, w, t: kernel.log(x, y),
        "dist": lambda x, v, y, w, t: kernel.dist(x, y),
        "geodesic": lambda x, v, y, w, t: kernel.geodesic(x, y, t),
        "transport": lambda x, v, y, w, t: kernel.transport(x, y, w),
        "inner": lambda x, v, y, w, t: kernel.inner(x, w, v),
        "norm": lambda x, v, y, w, t: kernel.norm(x, v),
        "project": lambda x, v, y, w, t: kernel.project_tangent(x, v + y),
        "unit": lambda x, v, y, w, t: kernel._unit_tangent(x, v + w)[0],
    }
    c = x[0]
    at_c = np.array([kernel.random_unit_tangent(c, rng) for _ in range(n)])
    cases = [(name, op(x, v, y, w, t),
              [op(*args) for args in zip(x, v, y, w, t)])
             for name, op in ops.items()]
    cases.append(("exp at one point", kernel.exp(c, at_c),
                  [kernel.exp(c, u) for u in at_c]))
    for name, rows, single in cases:
        assert len(rows) == n, name
        for r, one in zip(rows, single):
            assert np.asarray(r).tobytes() == np.asarray(one).tobytes(), name


# the edges of the tangent lengths the property test below draws, per
# kernel: to build a second point y (sphere log refuses its cut locus)
# and as an argument of exp (sphere exp refuses a norm of pi, hyperboloid
# exp one above 300 and SPD exp an eigenvalue above 300, at most the
# tangent's norm)
_EDGES = {Euclidean: (1e3, 1e3), Sphere: (np.pi - 1e-6, np.pi),
          Hyperboloid: (300.0, 300.0), Spd: (300.0, 300.0)}


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1,
                     max_size=8))
def test_stacked_rows_are_the_single_calls_at_every_length(kernel, seed,
                                                           rows):
    # tangent lengths log-uniform from 1e-14 (inside the flat limit's
    # series switch) up to each map's domain edge: every row of a
    # stacked call is bit for bit the single call on that row, the sign
    # of a zero included, NaN where the single call is NaN (which sign
    # a NaN takes is the platform's) and all NaN where it raises
    # DomainError (far from the apex, hyperboloid exp leaves the
    # timelike cone in roundoff well before its edge)
    to_y, to_exp = _EDGES[type(kernel)]
    rng = np.random.default_rng(seed)
    fy, fv, t = np.array(rows).T

    def tangents(x, frac, edge):
        return np.array([1e-14 * (edge / 1e-14) ** f
                         * kernel.random_unit_tangent(p, rng)
                         for f, p in zip(frac, x)])
    x = np.array([kernel.random_point(rng) for _ in rows])
    u, v = tangents(x, fy, to_y), tangents(x, fv, to_exp)
    y = kernel.exp(x, u)
    ops = {
        "exp to y": lambda x, u, v, y, t: kernel.exp(x, u),
        "exp": lambda x, u, v, y, t: kernel.exp(x, v),
        "log": lambda x, u, v, y, t: kernel.log(x, y),
        "dist": lambda x, u, v, y, t: kernel.dist(x, y),
        "transport": lambda x, u, v, y, t: kernel.transport(x, y, v),
        "project": lambda x, u, v, y, t: kernel.project_tangent(x, v + y),
        "geodesic": lambda x, u, v, y, t: kernel.geodesic(x, y, t),
        "inner": lambda x, u, v, y, t: kernel.inner(x, v, u),
        "norm": lambda x, u, v, y, t: kernel.norm(x, v),
    }
    for name, op in ops.items():
        stacked = op(x, u, v, y, t)
        for i, args in enumerate(zip(x, u, v, y, t)):
            try:
                one = np.asarray(op(*args))
            except DomainError:
                assert np.isnan(stacked[i]).all(), (name, i)
            else:
                row, nan = np.asarray(stacked[i]), np.isnan(one)
                assert (np.isnan(row) == nan).all(), (name, i)
                assert row[~nan].tobytes() == one[~nan].tobytes(), (name, i)


def _tangent_rows(kernel, lengths, seed):
    """Random points x and tangents at them of the given lengths."""
    rng = np.random.default_rng(seed)
    x = np.array([kernel.random_point(rng) for _ in lengths])
    v = np.array([t * kernel.random_unit_tangent(p, rng)
                  for t, p in zip(lengths, x)])
    return x, v


def _domain_edge_stacks():
    """(map, arguments) of stacks that mix rows inside and outside each
    map's domain.  The last argument is stacked; one with fewer axes is
    a single point, broadcast."""
    s, h, p = Sphere(3), Hyperboloid(3), Spd(3)
    sx, sv = _tangent_rows(s, [0.5, np.pi, 3.0, 4.0, 0.0], 1)
    lx, lv = _tangent_rows(s, [1.0, np.pi - 1e-7, 3.0, 2.0], 2)
    ly = np.array([s.exp(a, b) for a, b in zip(lx, lv)])
    ly[3] = -lx[3]  # antipodal
    hx, hv = _tangent_rows(h, [1.0, 301.0, 800.0, 0.0, 5.0], 3)
    cone = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 0.0, 0.0], [2.0, 0.5, 0.0, 0.0]])
    targets = np.array([np.eye(3), -np.eye(3), np.diag([1.0, 0.0, 2.0]),
                        p.random_point(np.random.default_rng(4)),
                        np.diag([1.0, -1.0, 2.0])])
    px, pv = _tangent_rows(p, [1.0, 2.0, 0.5, 3.0], 5)
    pv[1] = 400.0 * px[1]  # X^{-1/2} V X^{-1/2} = 400 I
    far = p.exp(px, pv)  # a NaN row, as a far probe hands the next map
    tv = _tangent_rows(p, [1.0] * 5, 6)[1]  # symmetric, so tangent anywhere
    return [pytest.param(s.exp, (sx, sv), id="sphere-exp"),
            pytest.param(s.log, (lx, ly), id="sphere-log"),
            pytest.param(h.exp, (hx, hv), id="hyperboloid-exp"),
            pytest.param(h._renormalize, (cone,),
                         id="hyperboloid-renormalize"),
            pytest.param(p.log, (2.0 * np.eye(3), targets), id="spd-log"),
            pytest.param(p.dist, (2.0 * np.eye(3), targets), id="spd-dist"),
            pytest.param(p.transport, (2.0 * np.eye(3), targets, tv),
                         id="spd-transport"),
            pytest.param(p.exp, (px, pv), id="spd-exp"),
            pytest.param(p.log, (px, far), id="spd-log-nan"),
            pytest.param(p.dist, (px, far), id="spd-dist-nan"),
            pytest.param(p.transport, (px, far, pv), id="spd-transport-nan"),
            pytest.param(p.log, (far, px), id="spd-log-nan-base")]


@pytest.mark.parametrize("fn, args", _domain_edge_stacks())
def test_stacked_rows_outside_the_domain_are_nan(fn, args):
    # a stacked call is NaN on exactly the rows whose single call raises,
    # every other row is the single call bit for bit, and no row raises
    # a numpy warning
    n = len(args[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = fn(*args)
        bad = []
        for i in range(n):
            single = [a[i] if a.ndim == args[-1].ndim else a for a in args]
            try:
                one = fn(*single)
            except DomainError:
                bad.append(i)
                assert np.isnan(rows[i]).all(), i
            else:
                assert np.asarray(rows[i]).tobytes() == (
                    np.asarray(one).tobytes()), i
    assert 0 < len(bad) < n


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_random_draws_are_valid_and_seeded(kernel):
    rng = np.random.default_rng(7)
    x = kernel.random_point(rng)
    kernel.check_point(x)
    u = kernel.random_tangent(x, rng)
    kernel.check_tangent(x, u)
    un = kernel.random_unit_tangent(x, rng)
    assert abs(kernel.norm(x, un) - 1.0) <= 1e-10
    again = kernel.random_point(np.random.default_rng(7))
    np.testing.assert_array_equal(x, again)


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_geodesic_endpoints_and_zero_cases(kernel):
    rng = np.random.default_rng(1)
    x = kernel.random_point(rng)
    y = kernel.exp(x, 0.7 * kernel.random_unit_tangent(x, rng))
    np.testing.assert_allclose(kernel.geodesic(x, y, 0.0), x, atol=1e-12)
    np.testing.assert_allclose(kernel.geodesic(x, y, 1.0), y, atol=1e-9)
    assert kernel.dist(x, x) == pytest.approx(0.0, abs=1e-12)
    assert kernel.norm(x, kernel.log(x, x)) <= 1e-9
    np.testing.assert_allclose(kernel.exp(x, np.zeros_like(x) * 0.0
                                          if not isinstance(kernel, Spd)
                                          else np.zeros_like(x)),
                               x, atol=1e-12)


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_transport_identity_and_projection_idempotent(kernel):
    rng = np.random.default_rng(2)
    x = kernel.random_point(rng)
    u = kernel.random_tangent(x, rng)
    np.testing.assert_allclose(kernel.transport(x, x, u), u, atol=1e-10)
    # transport to y and back along the same geodesic is the identity
    y = kernel.exp(x, 0.9 * kernel.random_unit_tangent(x, rng))
    back = kernel.transport(y, x, kernel.transport(x, y, u))
    np.testing.assert_allclose(
        back, u, atol=1e-10 * max(1.0, np.linalg.norm(u)), rtol=0.0)
    a = rng.standard_normal(x.shape)
    p1 = kernel.project_tangent(x, a)
    p2 = kernel.project_tangent(x, p1)
    np.testing.assert_allclose(p1, p2, atol=1e-9)
    kernel.check_tangent(x, p1)


def test_sphere_quarter_circle():
    k = Sphere(3)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    np.testing.assert_allclose(k.exp(e1, 0.5 * np.pi * e2), e2, atol=1e-12)
    np.testing.assert_allclose(k.log(e1, e2), 0.5 * np.pi * e2, atol=1e-12)
    assert k.dist(e1, e2) == pytest.approx(0.5 * np.pi, abs=1e-14)
    mid = k.geodesic(e1, e2, 0.5)
    np.testing.assert_allclose(mid, (e1 + e2) / np.sqrt(2), atol=1e-12)
    assert k.inner(e1, e2, e2) == pytest.approx(1.0)


def test_sphere_transport_moves_velocity():
    k = Sphere(3)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    v = 0.5 * np.pi * e2  # velocity of the e1 -> e2 geodesic at e1
    moved = k.transport(e1, e2, v)
    np.testing.assert_allclose(moved, -0.5 * np.pi * e1, atol=1e-12)
    assert k.norm(e2, moved) == pytest.approx(k.norm(e1, v))


def test_sphere_domain_errors():
    k = Sphere(3)
    e1 = np.eye(3)[0]
    with pytest.raises(DomainError):
        k.exp(e1, np.pi * np.eye(3)[1] * 1.0001)
    with pytest.raises(DomainError):
        k.log(e1, -e1)


def test_sphere_near_cut_locus_roundtrip():
    k = Sphere(3)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    y = k.exp(e1, (np.pi - 1e-4) * e2)
    assert k.dist(e1, y) == pytest.approx(np.pi - 1e-4, abs=1e-10)
    np.testing.assert_allclose(k.exp(e1, k.log(e1, y)), y, atol=1e-9)


def test_sphere_small_angle_distance_accuracy():
    # chord form: no arccos cancellation for nearby points
    k = Sphere(3)
    e1 = np.eye(3)[0]
    for theta in (1e-8, 1e-7, 1e-6):
        y = k.exp(e1, theta * np.eye(3)[1])
        assert k.dist(e1, y) == pytest.approx(theta, rel=1e-9)


def test_euclidean_is_flat():
    k = Euclidean(4)
    rng = np.random.default_rng(3)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_array_equal(k.exp(x, v), x + v)
    np.testing.assert_allclose(k.log(x, x + v), v, atol=1e-15)
    y = rng.standard_normal(4)
    assert k.dist(x, y) == pytest.approx(np.linalg.norm(x - y))
    np.testing.assert_array_equal(k.transport(x, y, v), v)


def test_spd_commuting_closed_forms():
    k = Spd(3)
    d = np.diag([0.5, 1.0, 2.0])
    np.testing.assert_allclose(k.log(np.eye(3), d),
                               np.diag(np.log([0.5, 1.0, 2.0])), atol=1e-12)
    c = 3.0
    assert k.dist(np.eye(3), c * np.eye(3)) == pytest.approx(
        np.sqrt(3) * np.log(c), abs=1e-12)
    e = np.zeros((3, 3)); e[0, 1] = e[1, 0] = np.sqrt(0.5)
    assert k.inner(np.eye(3), e, e) == pytest.approx(1.0)


def test_spd_rejects_non_pd_points():
    k = Spd(3)
    with pytest.raises(DomainError):
        k.log(np.eye(3), np.diag([1.0, 1.0, -0.5]))
    with pytest.raises(ContractError):
        k.check_point(np.diag([1.0, 0.0, 1.0]))


def test_spd_affine_invariance_of_distance():
    k = Spd(3)
    rng = np.random.default_rng(4)
    x, y = k.random_point(rng), k.random_point(rng)
    g = rng.standard_normal((3, 3))
    m = g @ g.T + 3.0 * np.eye(3)  # congruence by an invertible matrix
    assert k.dist(m @ x @ m.T, m @ y @ m.T) == pytest.approx(
        k.dist(x, y), rel=1e-9)


def _spd_ops(k, x, y, u):
    return [k.exp(x, u), k.log(x, y), k.dist(x, y), k.transport(x, y, u),
            k.geodesic(x, y, 0.3), k.exp(y, u), k.dist(y, x)]


def _assert_same_ops(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_spd_square_root_memo_is_transparent():
    rng = np.random.default_rng(6)
    warm = Spd(3)
    pts = [warm.random_point(rng) for _ in range(4)]
    u = warm.random_tangent(pts[0], rng)
    for x in pts:  # warm the memo with other base points first
        warm.exp(x, u)
        warm.dist(x, pts[0])
    for x, y in zip(pts, pts[1:] + pts[:1]):
        for _ in range(2):  # the second pass hits the memo
            _assert_same_ops(_spd_ops(warm, x, y, u),
                             _spd_ops(Spd(3), x.copy(), y.copy(), u))

    x, y = pts[0], pts[1]
    before = warm.exp(x, u)
    x[0, 0] += 0.5  # in place: still symmetric positive definite
    after = warm.exp(x, u)
    assert not np.array_equal(after, before)
    _assert_same_ops(_spd_ops(warm, x, y, u),
                     _spd_ops(Spd(3), x.copy(), y.copy(), u))

    for a in warm._sqrt_pair(x):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    bad = np.diag([1.0, -0.5, 2.0])
    for _ in range(2):
        with pytest.raises(DomainError):
            warm.exp(bad, u)
        with pytest.raises(DomainError):
            warm.dist(bad, y)


def test_spd_stack_of_base_points_is_factored_once(monkeypatch):
    # a stacked bisection steps from the same stack of base points: its
    # square roots are kept as a single point's are, bit for bit
    k, rng = Spd(3), np.random.default_rng(5)
    x = np.array([k.random_point(rng) for _ in range(4)])
    u = np.array([k.random_tangent(p, rng) for p in x])
    want = [Spd(3).exp(x, s * u) for s in (0.5, 1.0, 2.0)]
    calls = [0]

    def counted(a, _eigh=np.linalg.eigh):
        calls[0] += 1
        return _eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = [k.exp(x, s * u) for s in (0.5, 1.0, 2.0)]
    _assert_same_ops(got, want)
    assert calls[0] == 1 + 3  # the stack's square roots, one eigh per exp


def test_spd_membership_probe_factors_only_the_new_point(monkeypatch):
    k = Spd(3)
    ball = GeodesicBall(k, k.random_point(np.random.default_rng(0)), 1.0)
    m = ball.sample(np.random.default_rng(1))
    u = k.random_unit_tangent(m, np.random.default_rng(2))
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    for s in np.linspace(0.0, 2.0, 40):
        ball.membership(k.exp(m, s * u))
    # one eigh per exp, plus m's square roots once; the center's were
    # kept when sample() stepped away from it
    assert calls == {"eigh": 41, "eigvalsh": 40}


def test_hyperboloid_apex_geometry():
    k = Hyperboloid(3)  # ambient R^4, time coordinate first
    apex = k.base_point()
    assert apex[0] == pytest.approx(1.0)
    u = np.array([0.0, 0.7, 0.0, 0.0])
    y = k.exp(apex, u)
    assert k.minkowski(y, y) == pytest.approx(-1.0, abs=1e-12)
    assert k.dist(apex, y) == pytest.approx(0.7, abs=1e-12)
    np.testing.assert_allclose(k.log(apex, y), u, atol=1e-12)


def test_hyperboloid_small_distance_accuracy():
    k = Hyperboloid(3)
    apex = k.base_point()
    for theta in (1e-8, 1e-6):
        y = k.exp(apex, theta * np.array([0.0, 1.0, 0.0, 0.0]))
        assert k.dist(apex, y) == pytest.approx(theta, rel=1e-6, abs=1e-14)


def test_hyperboloid_exp_overflow_guard():
    k = Hyperboloid(3)
    apex = k.base_point()
    with pytest.raises(DomainError):
        k.exp(apex, 400.0 * np.array([0.0, 1.0, 0.0, 0.0]))


def test_inner_rejects_non_tangent_arguments():
    k = Sphere(3)
    e1 = np.eye(3)[0]
    with pytest.raises(ContractError):
        k.inner(e1, e1, np.eye(3)[1])


@pytest.mark.parametrize("kernel", KERNELS, ids=kid)
def test_wrong_shape_tangent_is_a_contract_error(kernel):
    x = kernel.base_point()
    for v in (np.zeros(x.size + 1), np.ones(x.shape + (1,))):
        with pytest.raises(ContractError):
            kernel.check_tangent(x, v)
        with pytest.raises(ContractError):
            kernel.inner(x, v, v)
        with pytest.raises(ContractError):
            kernel.norm(x, v)
        with pytest.raises(ContractError):
            kernel.transport(x, x, v)


# on Euclidean and Spd every admissible vector is tangent at every point
@pytest.mark.parametrize("k", [Sphere(4), Hyperboloid(3)], ids=kid)
def test_vector_tangent_elsewhere_is_a_contract_error(k):
    ball = GeodesicBall(k, k.base_point(), 0.5)
    rng = np.random.default_rng(5)
    x = ball.center
    u = k.random_unit_tangent(x, rng)
    other = k.exp(x, 0.9 * u)
    v = k.log(other, x)  # tangent at other, not at x
    for entry in (lambda: k.inner(x, v, v), lambda: k.inner(x, u, v),
                  lambda: k.norm(x, v), lambda: k.transport(x, other, v),
                  lambda: ball.lmo(v, x),
                  lambda: double_exp(k, x, 0.1 * u, v)):
        with pytest.raises(ContractError):
            entry()

    class ElsewhereGradient:
        def value_grad(self, z):
            return 0.0, v

    problem = RfwProblem(k, ElsewhereGradient(), ball_set(ball), 1.0, x)
    trace, _ = rfw_run(problem, max_iter=5)
    assert trace.status == "error"


def test_curvature_info():
    assert Sphere(3).curvature.kappa_min == 1.0
    assert Sphere(3).curvature.K == 1.0
    assert Euclidean(3).curvature.K == 0.0
    assert Hyperboloid(3).curvature.kappa_max == -1.0
    spd = Spd(3).curvature
    assert spd.kappa_min == -0.5 and spd.kappa_max == 0.0
    assert spd.K == 0.5
    assert spd.grad_curvature_bound == 0.0


@pytest.mark.parametrize("cls, size, dim, shape, curvature", [
    (Euclidean, "dimension", 3, (3,), (0.0, 0.0)),
    (Sphere, "ambient dimension", 2, (3,), (1.0, 1.0)),
    (Hyperboloid, "intrinsic dimension", 3, (4,), (-1.0, -1.0)),
    (Spd, "matrix size", 6, (3, 3), (-0.5, 0.0)),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_kernel_attributes(cls, size, dim, shape, curvature):
    kernel = cls(3)
    assert kernel.name == f"{cls.__name__.lower()}(3)"
    assert (kernel.n, kernel.dim, kernel.point_shape) == (3, dim, shape)
    assert kernel.curvature == CurvatureInfo(*curvature)
    assert kernel.base_point().shape == shape
    for n in (1, 0):
        with pytest.raises(ConfigError) as info:
            cls(n)
        assert str(info.value) == f"{cls.__name__}: {size} must be >= 2"


def test_make_manifold_registry():
    assert isinstance(make_manifold("sphere", 3), Sphere)
    assert isinstance(make_manifold("euclidean", 3), Euclidean)
    assert isinstance(make_manifold("hyperboloid", 3), Hyperboloid)
    assert isinstance(make_manifold("spd", 3), Spd)
    with pytest.raises(ConfigError):
        make_manifold("torus", 3)
    with pytest.raises(ConfigError):
        Sphere(1)


def test_base_points_are_on_manifold():
    for k in KERNELS:
        k.check_point(k.base_point())
        assert isinstance(k, Manifold)
