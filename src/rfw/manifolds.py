"""Manifold kernels: Euclidean space, the unit sphere, the hyperboloid
model of hyperbolic space, and SPD matrices with the affine-invariant
metric.

Points and tangent vectors are plain numpy arrays living in the
embedding space (unit vectors in R^n for the sphere, Minkowski-unit
vectors for the hyperboloid, symmetric matrices for SPD).  Each kernel
provides the metric, exp/log, distance, parallel transport along
minimizing geodesics, and tangent projection.  Geodesics are
parametrized so that geodesic(x, y, t) = exp_x(t * log_x(y)).

Every map also takes stacked rows: points and vectors with a leading
axis, a single base point broadcast against them, and t an array of
one time per row.  A single point is the one-row case of the same
formula, and each row of a stacked call is bit for bit the single call
on that row: dot products are stacked matmuls, which take np.dot's
arithmetic, clamps are selections that keep Python's max/min on signed
zeros, and stacked LAPACK calls factor each matrix as a single call
does.  A NaN is the exception: a stacked row is NaN where the single
call's answer is, but the NaN may carry another sign bit or payload.

Operations that have a restricted domain do not silently extrapolate:
sphere exp is limited to ``norm(v) < pi``, sphere log rejects
near-antipodal pairs, where the minimizing geodesic stops being unique,
hyperboloid exp rejects tangent norms above 300, SPD exp rejects
tangents V at X whose X^{-1/2} V X^{-1/2} has an eigenvalue above 300,
SPD log, dist and transport reject targets that are not positive
definite, and the SPD maps reject a matrix with a NaN or infinite
entry.  A single call outside the domain raises DomainError.  A stacked
call returns NaN on each row outside the domain, the stacked form of
that error, and every other row keeps the single call's bits; a bad row
raises no numpy warning.

The SPD kernel memoizes (X^{1/2}, X^{-1/2}) of its last two base points
or stacks of them, keyed by their bytes, so outputs are bit for bit
those of recomputing the pair; every other kernel is stateless.
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
# sphere log refuses pairs farther apart than this
_CUT_LOCUS = np.pi - 1e-6


def _dot(a, b):
    """<a, b> over the last axis: a float for two vectors, an array over
    the broadcast rows otherwise.  The stacked matmul takes np.dot's
    arithmetic, so each row is bitwise its vectors' np.dot."""
    if a.ndim == 1 and b.ndim == 1:
        return float(a.dot(b))
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norms(a, ndim):
    """Euclidean (Frobenius) norm over the last ndim axes: a float for
    one point or vector, an array for stacked rows."""
    if type(a) is not np.ndarray:
        a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return math.sqrt(a.dot(a))
    flat = _flatten(a, ndim)
    return np.sqrt(_dot(flat, flat))


def _flatten(a, ndim):
    """a with its last ndim axes flattened into one."""
    lead = a.ndim - ndim
    return a.reshape(a.shape[:lead] + (math.prod(a.shape[lead:]),))


def _col(c, ndim=1):
    """Per-row scalars shaped to broadcast against rows of points with
    ndim axes each; a scalar is returned as a float, which scales an
    array faster than a numpy scalar does."""
    if type(c) is np.ndarray:
        return c[(...,) + (None,) * ndim]
    return float(c)


def _any(c):
    """Whether c, or any entry of an array c, holds: count_nonzero
    takes a third of ndarray.any's time on the small arrays of a
    stacked call."""
    return np.count_nonzero(c) > 0 if type(c) is np.ndarray else c


def _all(c):
    return c.all() if type(c) is np.ndarray else c


def _where(cond, a, b):
    """a where cond holds, else b: elementwise over rows, a plain branch
    for a scalar condition."""
    if type(cond) is np.ndarray:
        return np.where(cond, a, b)
    return a if cond else b


def _atleast(a, lo):
    """max(a, lo), elementwise, with Python's choice among equal values
    (np.maximum returns the other zero on max(-0.0, 0.0))."""
    return _where(lo > a, lo, a)


def _fill(a, cond, value):
    """a with value on the rows where cond holds (all of a for a scalar
    condition that holds), and a itself when none does."""
    if _any(cond):
        return np.where(_col(cond, np.ndim(a) - np.ndim(cond)), value, a)
    return a


def _outside(a, bad, message):
    """a with NaN on the rows where bad holds, the stacked form of a
    domain error: what a map computes from such a row is NaN, quietly.
    A single call (bad a scalar) that holds raises
    DomainError(message())."""
    if type(bad) is not np.ndarray and bad:
        raise DomainError(message())
    return _fill(a, bad, np.nan)


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
    """Base class; concrete kernels fill in the metric and the maps, and
    what their size n >= 2 means: size names it, _shape maps it."""

    size = "dimension"
    curvature = CurvatureInfo(0.0, 0.0)

    def __init__(self, n):
        kind = type(self).__name__
        if n < 2:
            raise ConfigError(f"{kind}: {self.size} must be >= 2")
        self.n, self.name = n, f"{kind.lower()}({n})"
        # point_shape: of one point; stacked rows add leading axes
        self.dim, self.point_shape = self._shape(n)

    def _shape(self, n):
        """(dim, point_shape) of the kernel of size n."""
        raise NotImplementedError

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
        return np.sqrt(_atleast(self.inner(x, u, u), 0.0))

    def _norm(self, x, u):
        """norm without the tangency check, the partner of _inner."""
        return np.sqrt(_atleast(self._inner(x, u, u), 0.0))

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
        return self.exp(x, _col(t, len(self.point_shape)) * self.log(x, y))

    def project_tangent(self, x, a):
        raise NotImplementedError

    # --- validation ---------------------------------------------------

    def check_point(self, x):
        """Raise ContractError unless x has the point shape, finite
        entries and satisfies the embedding constraint within
        POINT_TOL."""
        x = np.asarray(x)
        if x.shape != self.point_shape:
            raise ContractError(f"{self.name}: point has shape {x.shape}")
        if not np.isfinite(x).all():
            raise ContractError(f"{self.name}: point has a NaN or infinite "
                                "entry")
        self._check_embedding(x)

    def _check_embedding(self, x):
        """check_point's constraint on an array x of the point shape;
        none on flat space."""

    def check_tangent(self, x, v):
        """Raise ContractError unless v is tangent at x within TANGENT_TOL
        (relative to norm(v)), row by row for stacked vectors; catches
        mismatched base points and shapes."""
        nd, shape = len(self.point_shape), np.shape(v)
        if len(shape) < nd or shape[-nd:] != np.shape(x)[-nd:]:
            raise ContractError(f"{self.name}: tangent has wrong shape")
        w = self.project_tangent(x, v)
        scale = _atleast(_norms(v, nd), 1.0)
        if _any(_norms(w - v, nd) > TANGENT_TOL * scale):
            raise ContractError(
                f"{self.name}: vector is not tangent at the given base point")

    # --- sampling -----------------------------------------------------

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, x, rng):
        """A standard normal in the embedding, projected to the tangent
        space at x."""
        return self.project_tangent(x, rng.standard_normal(self.point_shape))

    def _unit_tangent(self, x, g):
        """(u, ok): g projected to the tangent space at x and scaled to
        unit norm, and whether the projection was longer than 1e-12 (a
        shorter one has no direction, and its u is not unit); row by row
        for stacked x or g."""
        v = self.project_tangent(x, g)
        n = self._norm(x, v)
        ok = n > 1e-12
        return v / _col(_where(ok, n, 1.0), len(self.point_shape)), ok

    def _unit_tangents(self, base, g, rng):
        """Unit tangents at the rows of base (or at the one point base)
        from the normals g, stacked or one, which keeps those used.  The
        rows whose projection vanished draw again from rng, in row
        order, pass after pass; 64 vanished normals are a ContractError."""
        u, ok = self._unit_tangent(base, g)
        if type(ok) is not np.ndarray:  # one normal, on floats
            return u if ok else self._unit_tangents(base, g[None], rng)[0]
        one = np.ndim(base) == len(self.point_shape)
        tries = 1
        while not ok.all():
            if tries == 64:
                raise ContractError(
                    f"{self.name}: could not draw a unit tangent")
            bad = np.flatnonzero(~ok)
            g[bad] = rng.standard_normal((len(bad),) + self.point_shape)
            u[bad], ok[bad] = self._unit_tangent(base if one else base[bad],
                                                 g[bad])
            tries += 1
        return u

    def random_unit_tangent(self, x, rng):
        """random_tangent at x scaled to unit norm: _unit_tangents on
        one normal."""
        return self._unit_tangents(x, rng.standard_normal(self.point_shape),
                                   rng)

    def base_point(self):
        """A canonical point, used as a deterministic default."""
        raise NotImplementedError


class Euclidean(Manifold):
    """Flat R^n with the standard inner product."""

    def _shape(self, n):
        return n, (n,)

    def _inner(self, x, u, v):
        return _dot(u, v)

    def exp(self, x, v):
        return x + v

    def log(self, x, y):
        return y - x

    def dist(self, x, y):
        return _norms(y - x, 1)

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        return np.array(u, copy=True)

    def project_tangent(self, x, a):
        return np.asarray(a, dtype=float)

    def random_point(self, rng):
        return rng.standard_normal(self.n)

    def base_point(self):
        return np.zeros(self.n)


class Sphere(Manifold):
    """Unit sphere S^{n-1} in R^n, curvature +1, injectivity radius pi.

    dist uses the chord form 2*asin(|y-x|/2) when the points are on the
    same hemisphere (well conditioned near 0) and the clamped arccos
    otherwise.
    """

    size = "ambient dimension"
    curvature = CurvatureInfo(1.0, 1.0)

    def _shape(self, n):
        return n - 1, (n,)

    def _inner(self, x, u, v):
        return _dot(u, v)

    def project_tangent(self, x, a):
        a = np.asarray(a, dtype=float)
        return a - _col(_dot(x, a)) * x

    def _angle(self, x, y, c):
        """dist(x, y) given c = <x, y>: the chord form, and the arc form
        on the rows with c < 0 (if any)."""
        half = _norms(y - x, 1) / 2.0
        theta = 2.0 * np.arcsin(_where(1.0 < half, 1.0, half))
        far = c < 0.0
        if _any(far):
            # -|c| is c on those rows, and keeps arccos defined on the
            # others
            theta = _where(far, np.arccos(_atleast(-abs(c), -1.0)), theta)
        return theta

    def exp(self, x, v):
        theta = _norms(v, 1)
        theta = _outside(theta, theta >= np.pi, lambda: (
            f"sphere exp: norm(v)={theta:.6g} >= pi (injectivity radius)"))
        # below SERIES_EPS the coefficients are 1: z = x + v
        flat = theta < SERIES_EPS
        safe = _where(flat, 1.0, theta)
        z = (_col(_where(flat, 1.0, np.cos(theta))) * x
             + _col(_where(flat, 1.0, np.sin(safe) / safe)) * v)
        return z / _col(_norms(z, 1))

    def log(self, x, y):
        c = _dot(x, y)
        theta = self._angle(x, y, c)
        u = y - _col(c) * x
        nu = _norms(u, 1)
        flat = (theta < SERIES_EPS) | (nu < SERIES_EPS)
        u = _fill(_col(theta / _where(flat, 1.0, nu)) * u, flat, 0.0)
        # on the output: an antipodal row has u = 0 and would stay flat
        return _outside(u, theta > _CUT_LOCUS, lambda: (
            f"sphere log: dist={theta:.6g} too close to pi (cut locus)"))

    def dist(self, x, y):
        return self._angle(x, y, _dot(x, y))

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        v = self.log(x, y)
        theta = _norms(v, 1)
        flat = theta < SERIES_EPS
        e = v / _col(_where(flat, 1.0, theta))
        a = _dot(e, u)
        moved = u + _col(a) * (_col(np.cos(theta) - 1.0) * e
                               - _col(np.sin(theta)) * x)
        return _where(_col(flat), np.array(u, copy=True), moved)

    def _check_embedding(self, x):
        if abs(np.linalg.norm(x) - 1.0) > POINT_TOL:
            raise ContractError(f"{self.name}: point is not unit norm")

    def random_point(self, rng):
        while True:
            g = rng.standard_normal(self.n)
            n = np.linalg.norm(g)
            if n > 1e-8:
                return g / n

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

    size = "intrinsic dimension"
    curvature = CurvatureInfo(-1.0, -1.0)

    def _shape(self, n):
        return n, (n + 1,)

    @staticmethod
    def minkowski(u, v):
        if u.ndim == 1 and v.ndim == 1:  # floats, as _dot gives
            u0, us, v0, vs = u.item(0), u[1:], v.item(0), v[1:]
        else:
            u0, us, v0, vs = u[..., 0], u[..., 1:], v[..., 0], v[..., 1:]
        return -u0 * v0 + _dot(us, vs)

    def _inner(self, x, u, v):
        return self.minkowski(u, v)

    def project_tangent(self, x, a):
        a = np.asarray(a, dtype=float)
        return a + _col(self.minkowski(x, a)) * x

    def _renormalize(self, z):
        # pull a near-hyperboloid vector back onto <z,z>_M = -1
        s = -self.minkowski(z, z)
        s = _outside(s, s <= 0.0, lambda: (
            "hyperboloid: vector left the timelike cone"))
        return z / _col(np.sqrt(s))

    def _theta_sinh(self, x, y):
        # Minkowski chord: <y-x, y-x>_M = 2(cosh(theta) - 1), accurate
        # near theta = 0 where -<x,y>_M loses digits to cancellation
        d = y - x
        m = _atleast(self.minkowski(d, d), 0.0)
        s = np.sqrt(m * (1.0 + 0.25 * m))  # sinh(theta)
        return np.arcsinh(s), s

    def exp(self, x, v):
        theta = self._norm(x, v)
        # cosh overflows doubles long before this is a sane request
        theta = _outside(theta, theta > 300.0, lambda: (
            "hyperboloid: tangent norm too large for exp"))
        # below SERIES_EPS the coefficients are 1: z = x + v
        flat = theta < SERIES_EPS
        safe = _where(flat, 1.0, theta)
        z = (_col(_where(flat, 1.0, np.cosh(theta))) * x
             + _col(_where(flat, 1.0, np.sinh(safe) / safe)) * v)
        return self._renormalize(z)

    def log(self, x, y):
        theta, s = self._theta_sinh(x, y)
        u = self.project_tangent(x, y)
        flat = s < SERIES_EPS
        return _fill(_col(theta / _where(flat, 1.0, s)) * u, flat, 0.0)

    def dist(self, x, y):
        return self._theta_sinh(x, y)[0]

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        v = self.log(x, y)
        theta = self._norm(x, v)
        flat = theta < SERIES_EPS
        e = v / _col(_where(flat, 1.0, theta))
        a = self.minkowski(e, u)
        moved = u + _col(a) * (_col(np.cosh(theta) - 1.0) * e
                               + _col(np.sinh(theta)) * x)
        return _where(_col(flat), np.array(u, copy=True), moved)

    def _check_embedding(self, x):
        if abs(self.minkowski(x, x) + 1.0) > POINT_TOL or x[0] <= 0.0:
            raise ContractError(f"{self.name}: point is not on the hyperboloid")

    def random_point(self, rng):
        v = np.zeros(self.n + 1)
        v[1:] = rng.standard_normal(self.n)
        return self.exp(self.base_point(), v)

    def base_point(self):
        e = np.zeros(self.n + 1)
        e[0] = 1.0
        return e


def _swap(a):
    """Transpose of a matrix, or of each matrix in a stack."""
    return a.T if a.ndim == 2 else a.swapaxes(-1, -2)


def _rowvec(w):
    """Eigenvalues shaped to scale the columns of their eigenvectors."""
    return w if w.ndim == 1 else w[..., None, :]


def _sym(a):
    return 0.5 * (a + _swap(a))


def _eig_rows(eig, s):
    """eig(s), numpy's eigh or eigvalsh, of a symmetric matrix or stack.
    LAPACK refuses a whole stack for one matrix with a non-finite entry,
    the image of a row outside some map's domain: such a matrix is
    outside this map's domain too, NaN in a stack (every other row
    keeps its bits) and a DomainError on a single call.  Without one,
    this costs no extra array pass."""
    try:
        return eig(s)
    except np.linalg.LinAlgError:
        bad = ~np.isfinite(s).all(axis=(-2, -1))
        if not _any(bad):
            raise
        if s.ndim == 2:
            raise DomainError("spd: matrix has a NaN or infinite entry")
        out = eig(np.where(bad[..., None, None], np.eye(s.shape[-1]), s))
        if isinstance(out, tuple):
            return tuple(_fill(a, bad, np.nan) for a in out)
        return _fill(out, bad, np.nan)


class Spd(Manifold):
    """Symmetric positive definite n x n matrices with the
    affine-invariant metric <u,v>_X = tr(X^-1 u X^-1 v).

    A Cartan-Hadamard manifold; sectional curvature lies in [-1/2, 0]
    and dist(X, Y) = sqrt(sum_i log^2 lambda_i(X^-1 Y)).
    """

    size = "matrix size"
    curvature = CurvatureInfo(-0.5, 0.0)
    # [(key, (X^{1/2}, X^{-1/2}))] of the last two base points, most
    # recent first; replaced, never changed in place (so this empty
    # class default serves every kernel until its first entry, and a
    # kernel shared by threads can at worst lose an entry)
    _sqrt_memo = ()

    def _shape(self, n):
        return n * (n + 1) // 2, (n, n)

    def _sqrt_pair(self, x):
        """(X^{1/2}, X^{-1/2}) by eigh, read-only, for a matrix or a
        stack.  A membership bisection factors the ball's center and
        the stack of its rays' base points step after step, so the
        pairs of the last two are kept, keyed by their bytes: a hit
        returns the arrays that eigh would give, and a matrix or stack
        changed in place is factored afresh.  One that is not positive
        definite is never kept, and raises every time."""
        key = (x.dtype.str, x.shape, x.tobytes())
        recent = self._sqrt_memo
        for k, pair in recent:
            if k == key:
                break
        else:
            w, v = _eig_rows(np.linalg.eigh, _sym(x))
            if _any(w[..., 0] <= 0.0):
                raise DomainError("spd: matrix is not positive definite")
            r = _rowvec(np.sqrt(w))
            pair = (v * r) @ _swap(v), (v / r) @ _swap(v)
            for a in pair:
                a.flags.writeable = False
        older = [e for e in recent if e[0] != key]
        self._sqrt_memo = [(key, pair)] + older[:1]
        return pair

    def _inner(self, x, u, v):
        xu = np.linalg.solve(x, u)
        xv = xu if v is u else np.linalg.solve(x, v)
        p = xu * _swap(xv)
        # np.sum's order over one matrix's entries, row by row
        return _flatten(p, 2).sum(-1)

    def project_tangent(self, x, a):
        return _sym(np.asarray(a, dtype=float))

    def _spectral(self, x, a, fun, bad, message):
        """X^{1/2} fun(X^{-1/2} A X^{-1/2}) X^{1/2}, outside the domain
        (_outside) on the rows where bad(w) holds for the eigenvalues w,
        ascending, of the middle factor."""
        s, si = self._sqrt_pair(x)
        w, q = _eig_rows(np.linalg.eigh, _sym(si @ a @ si))
        w = _outside(w, bad(w), lambda: message)
        return _sym(s @ ((q * _rowvec(fun(w))) @ _swap(q)) @ s)

    def exp(self, x, v):
        # as on the hyperboloid: exp overflows doubles long before this
        # is a sane request
        return self._spectral(x, v, np.exp, lambda w: w[..., -1] > 300.0,
                              "spd exp: tangent too large for exp")

    def log(self, x, y):
        return self._spectral(x, y, np.log, lambda w: w[..., 0] <= 0.0,
                              "spd log: target is not positive definite")

    def dist(self, x, y):
        s, si = self._sqrt_pair(x)
        w = _eig_rows(np.linalg.eigvalsh, _sym(si @ y @ si))
        w = _outside(w, w[..., 0] <= 0.0, lambda: (
            "spd dist: target is not positive definite"))
        return _norms(np.log(w), 1)

    def transport(self, x, y, u):
        self.check_tangent(x, u)
        s, si = self._sqrt_pair(x)
        w, q = _eig_rows(np.linalg.eigh, _sym(si @ y @ si))
        w = _outside(w, w[..., 0] <= 0.0, lambda: (
            "spd transport: target is not positive definite"))
        m = s @ ((q * _rowvec(np.sqrt(w))) @ _swap(q)) @ si  # (y x^-1)^{1/2}
        return _sym(m @ u @ _swap(m))

    def _check_embedding(self, x):
        if np.linalg.norm(x - x.T) > POINT_TOL * max(np.linalg.norm(x), 1.0):
            raise ContractError(f"{self.name}: point is not symmetric")
        if np.linalg.eigvalsh(_sym(x))[0] <= 0.0:
            raise ContractError(f"{self.name}: point is not positive definite")

    def check_tangent(self, x, v):
        v = np.asarray(v)
        if v.ndim < 2 or v.shape[-2:] != (self.n, self.n):
            raise ContractError(f"{self.name}: tangent has wrong shape")
        scale = _atleast(_norms(v, 2), 1.0)
        if _any(_norms(v - _swap(v), 2) > TANGENT_TOL * scale):
            raise ContractError(f"{self.name}: tangent is not symmetric")

    def random_point(self, rng):
        g = rng.standard_normal((self.n, self.n))
        w, v = np.linalg.eigh(_sym(0.5 * _sym(g)))
        return (v * np.exp(w)) @ v.T

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
