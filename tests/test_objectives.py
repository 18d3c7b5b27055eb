import numpy as np
import pytest

from rfw import (ConfigError, DomainError, Euclidean, GeodesicBall,
                 Hyperboloid, NumericsError, QuadraticOnEmbedded, Spd, Sphere,
                 SquaredDistanceObjective, ball_set, delta,
                 min_gradient_norm, zeta)
from helpers import fd_directional


def test_quadratic_at_target_vanishes():
    k = Euclidean(3)
    a = np.diag([1.0, 0.5, 0.2])
    target = np.array([0.3, -0.1, 0.7])
    q = QuadraticOnEmbedded(k, a, target)
    v, g = q.value_grad(target)
    assert v == 0.0
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_quadratic_identity_matrix_on_sphere():
    k = Sphere(3)
    rng = np.random.default_rng(0)
    target = k.random_point(rng)
    q = QuadraticOnEmbedded(k, np.eye(3), target)
    x = k.random_point(rng)
    v, g = q.value_grad(x)
    assert v == pytest.approx(0.5 * np.linalg.norm(x - target) ** 2)
    np.testing.assert_allclose(g, k.project_tangent(x, x - target),
                               atol=1e-14)


def test_quadratic_constants_and_scale():
    k = Euclidean(3)
    a = np.diag([1.0, 0.5, 0.2])
    q = QuadraticOnEmbedded(k, a, np.zeros(3))
    assert q.L == pytest.approx(1.0)
    assert q.mu == pytest.approx(0.2)


def test_quadratic_random_is_normalized():
    k = Sphere(6)
    q = QuadraticOnEmbedded.random(k, 4, np.random.default_rng(1))
    assert np.linalg.norm(q.matrix, 2) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(q.matrix, q.matrix.T, atol=1e-12)
    assert q.mu == 0.0  # rank 4 < 6 Gram matrix
    assert q.L == pytest.approx(1.0)


def test_quadratic_validation():
    k = Euclidean(3)
    with pytest.raises(ConfigError):
        QuadraticOnEmbedded(k, -np.eye(3), np.zeros(3))
    with pytest.raises(ConfigError):
        QuadraticOnEmbedded(k, np.eye(4), np.zeros(3))
    with pytest.raises(ConfigError):
        QuadraticOnEmbedded(Spd(3), np.eye(3), np.zeros(3))


def test_sqdist_values_on_quarter_circle():
    k = Sphere(3)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    obj = SquaredDistanceObjective(k, e1)
    v, g = obj.value_grad(e2)
    assert v == pytest.approx(np.pi ** 2 / 8.0)
    np.testing.assert_allclose(g, -k.log(e2, e1), atol=1e-14)
    v0, g0 = obj.value_grad(e1)
    assert v0 == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(g0, 0.0, atol=1e-12)


def test_sqdist_constants_match_zeta_delta():
    k = Hyperboloid(3)
    obj = SquaredDistanceObjective(k, k.base_point())
    assert obj.mu_on(1.0) == pytest.approx(delta(1.0, -1.0))
    assert obj.L_on(1.0) == pytest.approx(zeta(1.0, -1.0))
    fn = obj.as_smooth_fn(1.0)
    assert fn.fstar == 0.0
    np.testing.assert_array_equal(fn.xstar, k.base_point())


def test_sqdist_cut_locus_error():
    k = Sphere(3)
    obj = SquaredDistanceObjective(k, np.eye(3)[0])
    with pytest.raises(DomainError):
        obj.value_grad(-np.eye(3)[0])


@pytest.mark.parametrize("kernel", [Sphere(5), Euclidean(5)],
                         ids=lambda k: type(k).__name__)
def test_quadratic_gradient_matches_finite_differences(kernel):
    rng = np.random.default_rng(51)
    g = rng.standard_normal((7, 5))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    quad = QuadraticOnEmbedded(kernel, a, kernel.random_point(rng))
    worst = 0.0
    for _ in range(5):
        x = kernel.random_point(rng)
        _, gr = quad.value_grad(x)
        for _ in range(5):
            u = kernel.random_unit_tangent(x, rng)
            fd = fd_directional(kernel, lambda z: quad.value_grad(z)[0], x, u)
            worst = max(worst, abs(fd - kernel.inner(x, gr, u)))
    assert worst <= 1e-5


@pytest.mark.parametrize("kernel",
                         [Sphere(5), Euclidean(5), Spd(3), Hyperboloid(3)],
                         ids=lambda k: type(k).__name__)
def test_sqdist_gradient_matches_finite_differences(kernel):
    rng = np.random.default_rng(52)
    c = kernel.random_point(rng)
    obj = SquaredDistanceObjective(kernel, c)
    worst = 0.0
    for _ in range(5):
        x = kernel.exp(c, rng.uniform(0.1, 1.2)
                       * kernel.random_unit_tangent(c, rng))
        _, gr = obj.value_grad(x)
        for _ in range(5):
            u = kernel.random_unit_tangent(x, rng)
            fd = fd_directional(kernel, lambda z: obj.value_grad(z)[0], x, u)
            worst = max(worst, abs(fd - kernel.inner(x, gr, u)))
    assert worst <= 1e-5


def test_min_gradient_norm_positive_for_exterior_target():
    k = Euclidean(3)
    rng = np.random.default_rng(2)
    a = np.eye(3)
    target = np.array([3.0, 0.0, 0.0])
    q = QuadraticOnEmbedded(k, a, target)
    cs = ball_set(GeodesicBall(k, np.zeros(3), 1.0))
    c_hat = min_gradient_norm(q, cs, 2000, rng)
    # gradient norm is the distance to the target: at least 2 on the ball
    assert c_hat >= 2.0 - 1e-9
    assert c_hat <= 4.0 + 1e-9


def test_min_gradient_norm_rejects_a_nan_gradient():
    # a NaN norm must not be skipped: the minimum would then overstate
    # the bound it feeds to the contraction check
    k = Euclidean(3)
    cs = ball_set(GeodesicBall(k, np.zeros(3), 1.0))

    class HalfNan:
        def value_grad(self, x):
            return 0.0, np.full(3, np.nan) if x[0] > 0.0 else x - 3.0

    with pytest.raises(NumericsError, match="NaN"):
        min_gradient_norm(HalfNan(), cs, 50, np.random.default_rng(0))
    assert min_gradient_norm(HalfNan(), cs, 0,
                             np.random.default_rng(0)) == np.inf
