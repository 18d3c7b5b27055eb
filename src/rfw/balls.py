"""Geodesic balls and their linear minimization oracles.

The oracle solves  max_{z in ball} <w, log_x(z)>  for a nonzero tangent
direction w at a feasible point x.  On constant-curvature manifolds the
maximizer lies on the ball boundary inside the totally geodesic surface
spanned by log_x(center) and w, which reduces the problem to one angle
phi: the vertex is exp_x(alpha(phi) p(phi)) with p(phi) a unit vector in
that plane and alpha(phi) the travel distance to the boundary.

`GeodesicBall.lmo` is the oracle on the ORACLE_KERNELS.  On the sphere
and the hyperboloid alpha has a closed form in b(phi), the (Minkowski)
product of the center with p(phi).  Two 33-point phi grids locate the
maximizer of alpha(phi) cos(phi), the second one confined to the
feasible wedge at a boundary point.  The root of its phi-derivative,
found by `bisect_root` in the grid bracket, pins it down, with alpha's
b-derivative from implicit differentiation of the exit equation.  The
oracle checks its entry once (w a nonzero finite tangent at x, x in
the ball), not what it builds.  The references below the oracle
(`lmo_brute_force`, `random_boundary_best`) share none of its plane
reduction: they evaluate the objective on boundary points built from
the center.

`GeodesicBall.lmo` also takes stacked rows of (w, x) and answers them in
one call: the frames, grids and brackets are arrays, and `bisect_root`
refines every row's angle at once.  The single call stays the reference;
a stacked row is its answer up to the last bits of numpy's functions.
"""

import math

import numpy as np
from dataclasses import dataclass
from typing import Optional

from .errors import (ConfigError, ContractError, DomainError,
                     NoIntersectionError, NumericsError)
from .manifolds import (Euclidean, Hyperboloid, Manifold, Sphere,
                        _all, _atleast, _col, _dot, _where, _zero_where)
from .scalars import bisect_root, minimize_1d

MEMBERSHIP_TOL = 1e-9
LMO_TOL = 1e-12  # phi resolution of the oracle's refinement
PHI_GRID = 33  # points per grid of the oracle's phi search
_UNIT_GRID = np.linspace(0.0, 1.0, PHI_GRID)
ORACLE_KERNELS = (Euclidean, Sphere, Hyperboloid)


@dataclass
class LmoResult:
    vertex: np.ndarray
    objective: float
    log: np.ndarray
    phi: Optional[float] = None


@dataclass
class GeodesicBall:
    """Closed metric ball {z : dist(center, z) <= radius}.

    On positively curved manifolds the radius must stay strictly below
    pi / (2 sqrt(K)) so the ball is uniquely geodesic and the oracle's
    boundary reduction applies.
    """

    kernel: Manifold
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.kernel.check_point(self.center)
        if not self.radius > 0.0:
            raise ConfigError("GeodesicBall: radius must be positive")
        K = self.kernel.curvature.K
        if self.kernel.curvature.kappa_max > 0.0 and K > 0.0:
            rmax = np.pi / (2.0 * np.sqrt(K))
            if not self.radius < rmax:
                raise ConfigError(
                    f"GeodesicBall: radius {self.radius:.6g} must be "
                    f"< pi/(2 sqrt(K)) = {rmax:.6g}")

    @property
    def diameter(self):
        return 2.0 * self.radius

    def membership(self, x):
        try:
            d = self.kernel.dist(self.center, x)
        except DomainError:  # x is off the manifold (not SPD, say)
            return False
        return d <= self.radius + MEMBERSHIP_TOL

    def sample(self, rng):
        """Interior point, uniform-ish: random direction at the center,
        radius scaled so the push-forward is uniform in the flat limit."""
        u = self.kernel.random_unit_tangent(self.center, rng)
        return self._place(u[None], [rng.uniform()])[0]

    def _place(self, u, s):
        """The sample points for rows u of unit tangents at the center
        and uniforms s on [0, 1): exp_center(radius s^(1/dim) u).  The
        power is taken on Python floats; numpy's array power differs
        from it in the last bit on a few percent of inputs."""
        p = 1.0 / self.kernel.dim
        rho = np.array([self.radius * t ** p for t in s])
        return self.kernel.exp(self.center,
                               _col(rho, len(self.kernel.point_shape)) * u)

    def lmo(self, w, x):
        """The ray from x along p leaves the ball where a cos(s) +
        b sin(s) = cos r, resp. a cosh(s) - b sinh(s) = cosh r, with a
        and b the (Minkowski) inner products of the center with x and p.
        a is snapped so that a point within the membership tolerance
        outside the ball counts as on its boundary: outward rays exit at
        0.  Along the search plane b(phi) = cos(phi) b1 + sin(phi) b2 is
        a scalar, so the grid takes one vectorized exit-distance call
        and the refinement plain floats.  Euclidean balls have the
        vertex in closed form.

        w and x may also be stacked rows of one shape, with a leading
        axis as the kernel maps take them.  Every row is checked at
        entry, and the result holds one row per pair, in arrays (phi
        too): the single call's answer to within roundoff, found for
        all rows at once (_lmo_rows)."""
        k, x0, r = self.kernel, self.center, self.radius
        norm_w = _entry_norm(w, x, self)
        if isinstance(k, Euclidean):
            v = x0 + r * (w / _col(norm_w))
            lx = v - x
            return LmoResult(v, _dot(w, lx), lx)
        if isinstance(k, Sphere):
            c = math.cos(r)
            a = _atleast(_dot(x0, x), c)
            product, exit_grid, exit_at = _dot, alpha_phi_sphere, _exit_sphere
        else:
            c = math.cosh(r)
            a = -k.minkowski(x0, x)
            a = _where(c < a, c, a)
            product, exit_grid, exit_at = (k.minkowski, _alpha_phi_hyperboloid,
                                           _exit_hyperboloid)
        if np.ndim(x) > 1:
            return self._lmo_rows(w, x, norm_w, a, c, product, exit_grid)
        # maximize F(phi) = alpha(phi) cos(phi), alpha the travel distance
        # to the boundary along p = cos(phi) u1 + sin(phi) u2, over a grid
        # on [-pi/2, pi/2] and one on its inward half-plane (from a
        # boundary point only that wedge is feasible, and it can be
        # narrower than the first grid's spacing)
        g = k.log(x, x0)
        u1, u2, g1 = _section_frame(k, x, w, norm_w, g)
        if u2.any():
            grid = _phi_grid(math.atan2(k._inner(x, g, u2), g1))
        else:  # x at the center, or w along log_x(center): p = u1
            grid = np.zeros(1)
        b1, b2 = float(product(x0, u1)), float(product(x0, u2))
        alpha = exit_grid(a, np.cos(grid) * b1 + np.sin(grid) * b2, c)
        phi, alpha = _stationary_phi(grid, alpha, b1, b2,
                                     lambda b: exit_at(a, b, c))
        v = k.exp(x, alpha * (math.cos(phi) * u1 + math.sin(phi) * u2))
        lx = k.log(x, v)
        return LmoResult(v, k._inner(x, w, lx), lx, phi=phi)

    def _lmo_rows(self, w, x, norm_w, a, c, product, exit_grid):
        """The oracle on stacked rows: the single call's section frames,
        phi grids and grid brackets for all rows at once, and
        bisect_root on the rows' F' together.  A row whose plane
        degenerates to a line, or whose F' does not change sign across
        its bracket, takes the single call.  numpy's arctan, arctan2,
        log and sinh round differently from math's on some inputs, so
        a row may differ from the single call in the last bits."""
        k, x0 = self.kernel, self.center
        g = k.log(x, x0)
        u1, u2, g1 = _section_frame(k, x, w, norm_w, g)
        grid = _phi_grid(np.arctan2(k._inner(x, g, u2), g1))
        b1, b2 = product(x0, u1), product(x0, u2)
        alpha = exit_grid(_col(a), np.cos(grid) * _col(b1)
                          + np.sin(grid) * _col(b2), c)
        best = np.argmax(alpha * np.cos(grid), axis=-1)
        rows = np.arange(len(x))
        lo = grid[rows, np.maximum(best - 1, 0)]
        hi = grid[rows, np.minimum(best + 1, grid.shape[-1] - 1)]

        def slope(a, b1, b2):
            return _phi_slope(np.cos, np.sin,
                              lambda b: exit_grid(a, b, c, slope=True), b1, b2)
        ends = slope(a, b1, b2)
        ok = u2.any(axis=-1) & (ends(lo) > 0.0) & (0.0 > ends(hi))
        a, b1, b2 = a[ok], b1[ok], b2[ok]
        phi = bisect_root(slope(a, b1, b2), lo[ok], hi[ok], tol=LMO_TOL)
        cp, sp = np.cos(phi), np.sin(phi)
        travel = exit_grid(a, cp * b1 + sp * b2, c)
        xo, v, lx = x[ok], np.empty_like(x), np.empty_like(x)
        v[ok] = k.exp(xo, _col(travel) * (_col(cp) * u1[ok]
                                          + _col(sp) * u2[ok]))
        lx[ok] = k.log(xo, v[ok])
        obj, phis = np.empty(len(x)), np.empty(len(x))
        obj[ok], phis[ok] = k._inner(xo, w[ok], lx[ok]), phi
        for i in np.flatnonzero(~ok):
            one = self.lmo(w[i], x[i])
            v[i], lx[i], obj[i], phis[i] = (one.vertex, one.log, one.objective,
                                            one.phi)
        return LmoResult(v, obj, lx, phis)


def alpha_phi_sphere(a, b, c, slope=False):
    """Smallest nonnegative root of a*cos(alpha) + b*sin(alpha) = c,
    elementwise over arrays a and b, in the oracle's regime a >= c > 0;
    with slope, the pair (alpha, dalpha/db) of _exit_slopes.

    This is the travel distance from a point x in a spherical cap of
    radius r < pi/2 to the cap boundary along a unit direction p, with
    a = <center, x>, b = <center, p> and c = cos(r).  Solved by the
    tangent half-angle substitution.  Raises NoIntersectionError for
    x outside the cap (a < c), where a ray can miss the boundary.
    """
    if not (c > 0.0 and _all(a >= c)):
        raise NoIntersectionError(
            "alpha_phi_sphere: need a >= c > 0, got "
            f"a={np.min(a):.6g}, c={c:.6g}")
    b = np.asarray(b, dtype=float)
    # factored so that a = c (x on the boundary) leaves disc = b^2 exactly;
    # inside the cap sqrt(disc) >= |b|, so a negative numerator is
    # boundary roundoff and the exit root is 0
    root = np.sqrt((a - c) * (a + c) + b * b)
    alpha = 2.0 * np.arctan(np.maximum(b + root, 0.0) / (a + c))
    if slope:
        return _exit_slopes(alpha, np.sin(alpha), root)
    return float(alpha) if alpha.ndim == 0 else alpha


def _alpha_phi_hyperboloid(a, b, c, slope=False):
    """Nonnegative root of a*cosh(s) - b*sinh(s) = c, a <= c, over
    arrays a and b: t = e^s solves (a - b) t^2 - 2c t + (a + b) = 0
    with a - b > 0; t < 1 is roundoff on an outward ray from the
    boundary.  With slope, the pair (s, ds/db) of _exit_slopes."""
    root = np.sqrt((c - a) * (c + a) + b * b)
    s = np.log(np.maximum((c + root) / (a - b), 1.0))
    return _exit_slopes(s, np.sinh(s), root) if slope else s


def _alpha_phi_bisect(a, b, c):
    """alpha_phi_sphere by a scan of [0, 2pi] and `bisect_root`,
    outside the oracle's regime too: the tests' independent reference."""
    f = lambda t: a * np.cos(t) + b * np.sin(t) - c
    grid = np.linspace(0.0, 2.0 * np.pi, 721)
    vals = f(grid)
    for i in range(720):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] <= 0.0:
            return float(bisect_root(f, grid[i], grid[i + 1], tol=1e-14))
    raise NumericsError("alpha_phi_sphere: no root located on (0, 2pi]")


def _exit_sphere(a, b, c):
    """alpha_phi_sphere for one b in the oracle's regime (a >= c > 0),
    in float arithmetic, with its b-derivative."""
    root = math.sqrt((a - c) * (a + c) + b * b)
    s = 2.0 * math.atan(max(b + root, 0.0) / (a + c))
    return _exit_slopes(s, math.sin(s), root)


def _exit_hyperboloid(a, b, c):
    """_alpha_phi_hyperboloid for one b, with its b-derivative."""
    root = math.sqrt((c - a) * (c + a) + b * b)
    s = math.log(max((c + root) / (a - b), 1.0))
    return _exit_slopes(s, math.sinh(s), root)


def _exit_slopes(s, sn, root):
    """(s, ds/db) for the exit root s of a cos(s) + b sin(s) = c (sn =
    sin s) or of a cosh(s) - b sinh(s) = c (sn = sinh s).
    Differentiating the equation in b gives ds/db = sn / D with D =
    a sn - b cos(s) (resp. a sinh(s) - b cosh(s)).  At the exit D equals
    root, the square root of the discriminant: (a cos(s) + b sn)^2 + D^2
    = a^2 + b^2 (on the hyperboloid (a cosh(s) - b sn)^2 - D^2 = a^2 -
    b^2), so D carries no cancellation.  An outward ray from the
    boundary exits at s = 0 for every nearby b.  Elementwise over
    arrays."""
    if type(sn) is np.ndarray:
        return s, np.divide(sn, root, out=np.zeros_like(sn), where=sn != 0.0)
    if sn == 0.0:
        return s, 0.0
    return s, sn / root


def _entry_norm(w, x, ball):
    """norm(w), after the oracle's contract, checked once at its entry:
    the kernel is one of the ORACLE_KERNELS, w is a nonzero finite
    tangent at x (checked through its norm, which NaN or inf entries
    make NaN or inf) and x lies in the ball; on every row of stacked w
    and x, which have one shape."""
    k = ball.kernel
    if not isinstance(k, ORACLE_KERNELS):
        raise ConfigError(f"lmo: no oracle for kernel {k.name}")
    if np.shape(w) != np.shape(x):
        raise ContractError("lmo: w and x differ in shape")
    norm_w = k.norm(x, w)
    if not _all((norm_w >= 1e-15) & (norm_w < math.inf)):
        raise ContractError("lmo: zero direction, or a NaN or infinite one")
    if not _all(ball.membership(x)):
        raise ContractError("lmo: x is outside the ball")
    return norm_w


def _section_frame(kernel, x, w, norm_w, g):
    """Orthonormal pair (u1, u2) at x spanning the oracle's search
    plane, u1 along w and u2 the component of g = log_x(center)
    orthogonal to it, and <g, u1>.  u2 is zero (a zero row over stacked
    rows) where the plane degenerates to a line.  w and g are tangent
    at x by the caller's word (unchecked)."""
    u1 = w / _col(norm_w)
    g1 = kernel._inner(x, u1, g)
    g_perp = g - _col(g1) * u1
    # when g is nearly along w the remainder is short, and its roundoff
    # along u1 and off the tangent space would grow by 1/n_perp: a
    # second Gram-Schmidt pass and a projection remove it
    g_perp = kernel.project_tangent(
        x, g_perp - _col(kernel._inner(x, u1, g_perp)) * u1)
    n_perp = kernel._norm(x, g_perp)
    flat = n_perp <= 1e-10 * _atleast(kernel._norm(x, g), 1.0)
    u2 = _zero_where(flat, g_perp / _col(_where(flat, 1.0, n_perp)))
    return u1, u2, g1


def _phi_grid(psi):
    """Both phi grids, merged in order: [-pi/2, pi/2], and the inward
    half-plane from max(-pi/2, psi - pi/2) to pi/2, psi the angle of
    log_x(center) in the plane.  One row per psi for an array psi."""
    half = 0.5 * np.pi
    edge = _col(_where(psi - half > -half, psi - half, -half))
    wedge = (half - edge) * _UNIT_GRID + edge
    full = np.pi * _UNIT_GRID - half
    if wedge.ndim > 1:
        full = np.broadcast_to(full, wedge.shape)
    return np.sort(np.concatenate((full, wedge), axis=-1), axis=-1)


def _stationary_phi(grid, alpha, b1, b2, exit_at):
    """Refine the grid maximizer of F(phi) = alpha(b(phi)) cos(phi),
    b = cos(phi) b1 + sin(phi) b2, to the root of F'(phi) = alpha'
    cos(phi) - alpha sin(phi) between its grid neighbours, by
    `bisect_root` on F' with alpha' from exit_at(b) = (alpha,
    dalpha/db).  Where F' does not change sign across the bracket (a
    flat run of outward rays, or a kink at the wedge edge), a
    golden-section value search takes over.  Returns (phi, alpha)."""
    i = int(np.argmax(alpha * np.cos(grid)))
    lo, phi, hi = (float(grid[max(i - 1, 0)]), float(grid[i]),
                   float(grid[min(i + 1, len(grid) - 1)]))
    slope = _phi_slope(math.cos, math.sin, exit_at, b1, b2)

    def travel(phi):
        return exit_at(math.cos(phi) * b1 + math.sin(phi) * b2)[0]

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo > 0.0 > s_hi:
        # bisect_root starts from F' at the bracket ends, known already
        ends = {lo: s_lo, hi: s_hi}
        phi = bisect_root(lambda t: ends[t] if t in ends else slope(t),
                          lo, hi, tol=LMO_TOL)
    elif hi > lo:
        phi, _ = minimize_1d(lambda t: -travel(t) * math.cos(t), lo, hi,
                             tol=LMO_TOL)
    return phi, travel(phi)


def _phi_slope(cos, sin, exit_at, b1, b2):
    """F'(phi) = alpha' cos(phi) - alpha sin(phi) along the search
    plane, with (alpha, dalpha/db) = exit_at(b) at b(phi) = cos(phi) b1
    + sin(phi) b2, in the scalar (math) or the row (numpy) arithmetic
    that cos and sin choose."""
    def slope(phi):
        cp, sp = cos(phi), sin(phi)
        s, ds = exit_at(cp * b1 + sp * b2)
        return ds * (cp * b2 - sp * b1) * cp - s * sp
    return slope


# ---------------------------------------------------------------------------
# brute-force references
# ---------------------------------------------------------------------------

def _center_frame(ball, x, w):
    """Orthonormal tangent pair at the center spanning the plane through
    the center, x and (transported) w; completes the frame with a
    deterministic direction when the span degenerates."""
    k, x0 = ball.kernel, ball.center
    cands = []
    if k.dist(x0, x) > 1e-12:
        cands.append(k.log(x0, x))
        cands.append(k.transport(x, x0, w))
    else:
        cands.append(np.array(w, copy=True))
    # deterministic completions in case of rank deficiency
    rng = np.random.default_rng(0)
    for _ in range(4):
        cands.append(k.random_tangent(x0, rng))

    frame = []
    for cand in cands:
        v = cand
        for q in frame:
            v = v - k.inner(x0, q, v) * q
        # a nearly parallel candidate leaves a short remainder whose
        # roundoff off the tangent space the normalization would blow up
        v = k.project_tangent(x0, v)
        nv = k.norm(x0, v)
        if nv > 1e-10:
            frame.append(v / nv)
        if len(frame) == 2:
            return frame[0], frame[1]
    raise NumericsError("could not build a section frame at the center")


def boundary_section_grid(ball, x, w, n_grid):
    """n_grid boundary points on the geodesic section through the
    center, x and w.  For a ball on S^2 the section circle is the whole
    boundary, so this doubles as a dense boundary grid there."""
    k, x0, r = ball.kernel, ball.center, ball.radius
    q1, q2 = _center_frame(ball, x, w)
    th = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    u = np.cos(th)[:, None] * q1[None, :] + np.sin(th)[:, None] * q2[None, :]
    if isinstance(k, Sphere):
        z = np.cos(r) * x0[None, :] + np.sin(r) * u
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if isinstance(k, Hyperboloid):
        return np.cosh(r) * x0[None, :] + np.sinh(r) * u
    if isinstance(k, Euclidean):
        return x0[None, :] + r * u
    raise ConfigError("boundary_section_grid: unsupported kernel")


def grid_objectives(kernel, x, w, z):
    """<w, log_x(z_i)> for a batch of points z (rows), vectorized."""
    if isinstance(kernel, Sphere):
        cz = np.clip(z @ x, -1.0, 1.0)
        theta = np.arccos(cz)
        fac = np.where(theta > 1e-9, theta / np.maximum(np.sin(theta), 1e-300), 1.0)
        return fac * (z @ w)
    if isinstance(kernel, Hyperboloid):
        eta = np.ones(len(x))
        eta[0] = -1.0
        cz = -(z @ (eta * x))
        s = np.sqrt(np.maximum(cz * cz - 1.0, 0.0))
        theta = np.arccosh(np.maximum(cz, 1.0))
        fac = np.where(s > 1e-9, theta / np.maximum(s, 1e-300), 1.0)
        return fac * (z @ (eta * w))
    if isinstance(kernel, Euclidean):
        return (z - x[None, :]) @ w
    raise ConfigError("grid_objectives: unsupported kernel")


def lmo_brute_force(ball, w, x, n_grid=100_000):
    """Best boundary point over the section grid; independent reference
    for the oracle (uses only exp at the center and the log formulas)."""
    z = boundary_section_grid(ball, x, w, n_grid)
    obj = grid_objectives(ball.kernel, x, w, z)
    i = int(np.argmax(obj))
    return z[i], float(obj[i])


def random_boundary_best(ball, w, x, n, rng):
    """Best objective over n random boundary points (full boundary
    sphere, not just the section); a domination check for the oracle."""
    k, x0, r = ball.kernel, ball.center, ball.radius
    z = np.asarray([k.exp(x0, r * k.random_unit_tangent(x0, rng))
                    for _ in range(n)])
    return float(np.max(grid_objectives(k, x, w, z)))
