"""Manifold kernels: Euclidean space, the unit sphere, the hyperboloid
model of hyperbolic space, and SPD matrices with the affine-invariant
metric.

Points and tangent vectors are plain numpy arrays living in the
embedding space (unit vectors in R^n for the sphere, Minkowski-unit
vectors for the hyperboloid, symmetric matrices for SPD).  Each kernel
provides the metric, exp/log, distance, parallel transport along
minimizing geodesics, and tangent projection.  Geodesics are
parametrized so that geodesic(x, y, t) = exp_x(t * log_x(y)).

Operations that have a restricted domain raise DomainError instead of
silently extrapolating: sphere exp is limited to ``norm(v) < pi`` and
sphere log rejects near-antipodal pairs, where the minimizing geodesic
stops being unique.

The SPD kernel memoizes (X^{1/2}, X^{-1/2}) of its last two base
points, keyed by their bytes, so outputs are bit for bit those of
recomputing the pair; every other kernel is stateless.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import ConfigError, ContractError, DomainError

# series switch: below this tangent norm, exp/log use their flat limits
SERIES_EPS = 1e-12
# tolerances of the point check and of the base-point / tangency checks
# (loose on purpose, roundoff in transported vectors sits far below it)
POINT_TOL = 1e-10
TANGENT_TOL = 1e-6


def _norm(a):
    """Euclidean (Frobenius) norm of a flattened array, as a float: the
    arithmetic of np.linalg.norm(a) without its dispatch on ord and
    axis, so the result is bitwise the same."""
    a = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(a.dot(a))


@dataclass(frozen=True)
class CurvatureInfo:
    """Sectional curvature range plus a bound on the covariant
    derivative of the curvature tensor (zero for all the locally
    symmetric spaces implemented here)."""

    kappa_min: float
    kappa_max: float
    grad_curvature_bound: float = 0.0

    @property
    def K(self):
        """max{|kappa_min|, kappa_max}, the curvature scale used by the
        geometric constants zeta/delta and the admissible-radius bound."""
        return max(abs(self.kappa_min), self.kappa_max, 0.0)


class Manifold:
    """Base class; concrete kernels fill in the metric and the maps."""

    name = "manifold"
    dim = 0
    curvature = CurvatureInfo(0.0, 0.0)

    # --- metric -----------------------------------------------------

    def inner(self, x, u, v):
        """<u, v> at x, after checking that u and v are tangent at x (a
        vector passed twice is checked once)."""
        self.check_tangent(x, u)
        if v is not u:
            self.check_tangent(x, v)
        return self._inner(x, u, v)

    def _inner(self, x, u, v):
        """inner without the tangency checks, for vectors the caller has
        built at x itself."""
        raise NotImplementedError

    def norm(self, x, u):
        return np.sqrt(max(self.inner(x, u, u), 0.0))

    # --- maps -------------------------------------------------------

    def exp(self, x, v):
        raise NotImplementedError

    def log(self, x, y):
        raise NotImplementedError

    def dist(self, x, y):
        raise NotImplementedError

    def transport(self, x, y, u):
        raise NotImplementedError

    def geodesic(self, x, y, t):
        return self.exp(x, t * self.log(x, y))

    def project_tangent(self, x, a):
        raise NotImplementedError

    # --- validation ---------------------------------------------------

    def check_point(self, x):
        """Raise ContractError unless x satisfies the embedding
        constraint within POINT_TOL."""
        raise NotImplementedError

    def check_tangent(self, x, v):
        """Raise ContractError unless v is tangent at x within TANGENT_TOL
        (relative to norm(v)); catches mismatched base points and
        shapes."""
        if np.shape(v) != np.shape(x):
            raise ContractError(f"{self.name}: tangent has wrong shape")
        w = self.project_tangent(x, v)
        scale = max(_norm(v), 1.0)
        if _norm(w - v) > TANGENT_TOL * scale:
            raise ContractError(
                f"{self.name}: vector is not tangent at the given base point")

    # --- sampling -----------------------------------------------------

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, x, rng):
        raise NotImplementedError

    def random_unit_tangent(self, x, rng):
        """random_tangent at x scaled to unit norm; the norm goes
        unchecked, as the vector was just built at x."""
        for _ in range(64):
            v = self.random_tangent(x, rng)
            n = np.sqrt(max(self._inner(x, v, v), 0.0))
            if n > 1e-12:
                return v / n
        raise ContractError(f"{self.name}: could not draw a unit tangent")

    def base_point(self):
        """A canonical point, used as a deterministic default."""
        raise NotImplementedError


class Euclidean(Manifold):
    """Flat R^n with the standard inner product."""

    def __init__(self, n):
        if n < 2:
            raise ConfigError("Euclidean: dimension must be >= 2")
        self.n = n
        self.dim = n
        self.name = f"euclidean({n})"
        self.curvature = CurvatureInfo(0.0, 0.0)

    def _inner(self, x, u, v):
        return float(np.dot(u, v))

    def exp(self, x, v):
        return x + v

    def log(self, x, y):
        return y - x

    def dist(self, x, y):
        return _norm(y - x)

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        return np.array(u, copy=True)

    def project_tangent(self, x, a):
        return np.asarray(a, dtype=float)

    def check_point(self, x):
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ContractError(f"{self.name}: point has shape {x.shape}")

    def check_tangent(self, x, v):
        # every vector of R^n is tangent at every point
        if np.shape(v) != (self.n,):
            raise ContractError(f"{self.name}: tangent has wrong shape")

    def random_point(self, rng):
        return rng.standard_normal(self.n)

    def random_tangent(self, x, rng):
        return rng.standard_normal(self.n)

    def base_point(self):
        return np.zeros(self.n)


class Sphere(Manifold):
    """Unit sphere S^{n-1} in R^n, curvature +1, injectivity radius pi.

    dist uses the chord form 2*asin(|y-x|/2) when the points are on the
    same hemisphere (well conditioned near 0) and the clamped arccos
    otherwise.
    """

    def __init__(self, n):
        if n < 2:
            raise ConfigError("Sphere: ambient dimension must be >= 2")
        self.n = n
        self.dim = n - 1
        self.name = f"sphere({n})"
        self.curvature = CurvatureInfo(1.0, 1.0)

    def _inner(self, x, u, v):
        return float(np.dot(u, v))

    def project_tangent(self, x, a):
        a = np.asarray(a, dtype=float)
        return a - np.dot(x, a) * x

    def _angle(self, x, y):
        c = float(np.dot(x, y))
        if c >= 0.0:
            return 2.0 * np.arcsin(min(_norm(y - x) / 2.0, 1.0))
        return float(np.arccos(max(c, -1.0)))

    def exp(self, x, v):
        theta = _norm(v)
        if theta >= np.pi:
            raise DomainError(
                f"sphere exp: norm(v)={theta:.6g} >= pi (injectivity radius)")
        if theta < SERIES_EPS:
            z = x + v
        else:
            z = np.cos(theta) * x + (np.sin(theta) / theta) * v
        return z / _norm(z)

    def log(self, x, y):
        theta = self._angle(x, y)
        if theta > np.pi - 1e-6:
            raise DomainError(
                f"sphere log: dist={theta:.6g} too close to pi (cut locus)")
        u = y - float(np.dot(x, y)) * x
        nu = _norm(u)
        if theta < SERIES_EPS or nu < SERIES_EPS:
            return np.zeros_like(x)
        return (theta / nu) * u

    def dist(self, x, y):
        return self._angle(x, y)

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        v = self.log(x, y)
        theta = _norm(v)
        if theta < SERIES_EPS:
            return np.array(u, copy=True)
        e = v / theta
        a = float(np.dot(e, u))
        return u + a * ((np.cos(theta) - 1.0) * e - np.sin(theta) * x)

    def check_point(self, x):
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ContractError(f"{self.name}: point has shape {x.shape}")
        if abs(_norm(x) - 1.0) > POINT_TOL:
            raise ContractError(f"{self.name}: point is not unit norm")

    def random_point(self, rng):
        while True:
            g = rng.standard_normal(self.n)
            n = _norm(g)
            if n > 1e-8:
                return g / n

    def random_tangent(self, x, rng):
        return self.project_tangent(x, rng.standard_normal(self.n))

    def base_point(self):
        e = np.zeros(self.n)
        e[0] = 1.0
        return e


class Hyperboloid(Manifold):
    """Hyperboloid model of n-dimensional hyperbolic space (curvature -1):
    {x in R^{n+1} : <x,x>_M = -1, x_0 > 0} with the Minkowski form
    <u,v>_M = -u_0 v_0 + sum_i u_i v_i, which is positive definite on
    tangent spaces.
    """

    def __init__(self, n):
        if n < 2:
            raise ConfigError("Hyperboloid: intrinsic dimension must be >= 2")
        self.n = n
        self.dim = n
        self.name = f"hyperboloid({n})"
        self.curvature = CurvatureInfo(-1.0, -1.0)

    @staticmethod
    def minkowski(u, v):
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    def _inner(self, x, u, v):
        return self.minkowski(u, v)

    def project_tangent(self, x, a):
        a = np.asarray(a, dtype=float)
        return a + self.minkowski(x, a) * x

    def _renormalize(self, z):
        # pull a near-hyperboloid vector back onto <z,z>_M = -1
        s = -self.minkowski(z, z)
        if s <= 0.0:
            raise DomainError("hyperboloid: vector left the timelike cone")
        return z / np.sqrt(s)

    def _theta_sinh(self, x, y):
        # Minkowski chord: <y-x, y-x>_M = 2(cosh(theta) - 1), accurate
        # near theta = 0 where -<x,y>_M loses digits to cancellation
        d = y - x
        m = max(self.minkowski(d, d), 0.0)
        s = np.sqrt(m * (1.0 + 0.25 * m))  # sinh(theta)
        return float(np.arcsinh(s)), float(s)

    def exp(self, x, v):
        theta = np.sqrt(max(self.minkowski(v, v), 0.0))
        if theta > 300.0:
            # cosh overflows doubles long before this is a sane request
            raise DomainError("hyperboloid: tangent norm too large for exp")
        if theta < SERIES_EPS:
            return self._renormalize(x + v)
        z = np.cosh(theta) * x + (np.sinh(theta) / theta) * v
        return self._renormalize(z)

    def log(self, x, y):
        theta, s = self._theta_sinh(x, y)
        u = self.project_tangent(x, y)
        if s < SERIES_EPS:
            return np.zeros_like(x)
        return (theta / s) * u

    def dist(self, x, y):
        return self._theta_sinh(x, y)[0]

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        v = self.log(x, y)
        theta = np.sqrt(max(self.minkowski(v, v), 0.0))
        if theta < SERIES_EPS:
            return np.array(u, copy=True)
        e = v / theta
        a = self.minkowski(e, u)
        return u + a * ((np.cosh(theta) - 1.0) * e + np.sinh(theta) * x)

    def check_point(self, x):
        x = np.asarray(x)
        if x.shape != (self.n + 1,):
            raise ContractError(f"{self.name}: point has shape {x.shape}")
        if abs(self.minkowski(x, x) + 1.0) > POINT_TOL or x[0] <= 0.0:
            raise ContractError(f"{self.name}: point is not on the hyperboloid")

    def random_point(self, rng):
        v = np.zeros(self.n + 1)
        v[1:] = rng.standard_normal(self.n)
        return self.exp(self.base_point(), v)

    def random_tangent(self, x, rng):
        return self.project_tangent(x, rng.standard_normal(self.n + 1))

    def base_point(self):
        e = np.zeros(self.n + 1)
        e[0] = 1.0
        return e


def _sym(a):
    return 0.5 * (a + a.T)


def _eigh_apply(s, fun):
    """fun applied to the eigenvalues of a symmetric matrix."""
    w, v = np.linalg.eigh(_sym(s))
    return (v * fun(w)) @ v.T


class Spd(Manifold):
    """Symmetric positive definite n x n matrices with the
    affine-invariant metric <u,v>_X = tr(X^-1 u X^-1 v).

    A Cartan-Hadamard manifold; sectional curvature lies in [-1/2, 0]
    and dist(X, Y) = sqrt(sum_i log^2 lambda_i(X^-1 Y)).
    """

    def __init__(self, n):
        if n < 2:
            raise ConfigError("Spd: matrix size must be >= 2")
        self.n = n
        self.dim = n * (n + 1) // 2
        self.name = f"spd({n})"
        self.curvature = CurvatureInfo(-0.5, 0.0)
        # [(key, (X^{1/2}, X^{-1/2}))] of the last two base points, most
        # recent first; replaced, never changed in place, so a kernel
        # shared by threads can at worst lose an entry
        self._sqrt_memo = []

    def _sqrt_pair(self, x):
        """(X^{1/2}, X^{-1/2}) by eigh, read-only.  A membership probe
        factors the ball's center and the ray's base point over and
        over, so the pairs of the last two matrices are kept, keyed by
        their bytes: a hit returns the arrays that eigh would give, and
        a matrix changed in place is factored afresh.  A matrix that is
        not positive definite is never kept, and raises every time."""
        key = (x.dtype.str, x.shape, x.tobytes())
        recent = self._sqrt_memo
        for k, pair in recent:
            if k == key:
                break
        else:
            w, v = np.linalg.eigh(_sym(x))
            if w[0] <= 0.0:
                raise DomainError("spd: matrix is not positive definite")
            r = np.sqrt(w)
            pair = (v * r) @ v.T, (v / r) @ v.T
            for a in pair:
                a.flags.writeable = False
        older = [e for e in recent if e[0] != key]
        self._sqrt_memo = [(key, pair)] + older[:1]
        return pair

    def _inner(self, x, u, v):
        xu = np.linalg.solve(x, u)
        xv = xu if v is u else np.linalg.solve(x, v)
        return float(np.sum(xu * xv.T))

    def project_tangent(self, x, a):
        return _sym(np.asarray(a, dtype=float))

    def exp(self, x, v):
        s, si = self._sqrt_pair(x)
        m = _eigh_apply(si @ v @ si, np.exp)
        return _sym(s @ m @ s)

    def log(self, x, y):
        s, si = self._sqrt_pair(x)
        inner_ = _sym(si @ y @ si)
        w, q = np.linalg.eigh(inner_)
        if w[0] <= 0.0:
            raise DomainError("spd log: target is not positive definite")
        m = (q * np.log(w)) @ q.T
        return _sym(s @ m @ s)

    def dist(self, x, y):
        s, si = self._sqrt_pair(x)
        w = np.linalg.eigvalsh(_sym(si @ y @ si))
        if w[0] <= 0.0:
            raise DomainError("spd dist: target is not positive definite")
        return _norm(np.log(w))

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        s, si = self._sqrt_pair(x)
        half = _eigh_apply(si @ y @ si, np.sqrt)
        m = s @ half @ si  # = (y x^-1)^{1/2}
        return _sym(m @ u @ m.T)

    def check_point(self, x):
        x = np.asarray(x)
        if x.shape != (self.n, self.n):
            raise ContractError(f"{self.name}: point has shape {x.shape}")
        if _norm(x - x.T) > POINT_TOL * max(_norm(x), 1.0):
            raise ContractError(f"{self.name}: point is not symmetric")
        if np.linalg.eigvalsh(_sym(x))[0] <= 0.0:
            raise ContractError(f"{self.name}: point is not positive definite")

    def check_tangent(self, x, v):
        v = np.asarray(v)
        if v.shape != (self.n, self.n):
            raise ContractError(f"{self.name}: tangent has wrong shape")
        scale = max(_norm(v), 1.0)
        if _norm(v - v.T) > TANGENT_TOL * scale:
            raise ContractError(f"{self.name}: tangent is not symmetric")

    def random_point(self, rng):
        g = rng.standard_normal((self.n, self.n))
        return _eigh_apply(0.5 * _sym(g), np.exp)

    def random_tangent(self, x, rng):
        return _sym(rng.standard_normal((self.n, self.n)))

    def base_point(self):
        return np.eye(self.n)


MANIFOLDS = {
    "euclidean": Euclidean,
    "sphere": Sphere,
    "hyperboloid": Hyperboloid,
    "spd": Spd,
}


def make_manifold(name, n):
    """Build a kernel by name; n is the ambient dimension for the
    sphere and Euclidean space, the intrinsic dimension for the
    hyperboloid, and the matrix size for spd."""
    try:
        factory = MANIFOLDS[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown manifold '{name}'") from None
    return factory(n)
