"""Geodesic balls and their linear minimization oracles.

The oracle solves  max_{z in ball} <w, log_x(z)>  for a nonzero tangent
direction w at a feasible point x.  On constant-curvature manifolds the
maximizer lies on the ball boundary inside the totally geodesic surface
spanned by log_x(center) and w, which reduces the problem to one angle
phi: the vertex is exp_x(alpha(phi) p(phi)) with p(phi) a unit vector in
that plane and alpha(phi) the travel distance to the boundary.

`GeodesicBall.lmo` is the oracle on the ORACLE_KERNELS.  On the sphere
and the hyperboloid alpha has a closed form in b(phi), the (Minkowski)
product of the center with p(phi).  F(phi) = alpha(phi) cos(phi) has
one peak on [-pi/2, pi/2], and the oracle brackets it with three angles
every plane defines: -pi/2, the wedge edge e = max(psi - pi/2, -pi/2)
(psi the angle of log_x(center) in the plane; from a boundary point
only the wedge (e, pi/2] is feasible) and pi/2.  The sign of F' at e
says which side holds the peak.  A warm start then cuts that half: F'
at the angle of the flat vertex center + r w/|w| seen from x, and at a
step r^2/4 from it towards the peak, narrows the bracket to where F'
changes sign.  `bisect_root` finds the root of F' there, starting from
F' at the bracket's ends, with alpha's b-derivative from implicit
differentiation of the exit equation.  Every root is bracketed by a
measured sign change: the guess only narrows the bracket.  That F has
one peak is not proven here: a hypothesis property test against
`lmo_brute_force` is the evidence.  The oracle checks its entry once (w
a nonzero finite tangent at x, x in the ball), not what it builds.  The
references below the oracle (`lmo_brute_force`,
`random_boundary_best`) share none of its plane reduction: they
evaluate the objective on boundary points built from the center.

`GeodesicBall.lmo` answers a pair (w, x) or stacked rows of pairs with
one algorithm.  The arithmetic is chosen at the leaves: a pair's
scalars are Python floats and `math`, rows are numpy arrays, and a row
is the single call's answer up to the last bits of numpy's functions.
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (ConfigError, ContractError, DomainError,
                     NoIntersectionError, NumericsError)
from .manifolds import (Euclidean, Hyperboloid, Manifold, Sphere,
                        _all, _atleast, _col, _dot, _fill, _where)
from .scalars import bisect_root

MEMBERSHIP_TOL = 1e-9
LMO_TOL = 1e-12  # phi resolution of the oracle's refinement
ORACLE_KERNELS = (Euclidean, Sphere, Hyperboloid)


@dataclass
class LmoResult:
    """The oracle's answer: floats for a pair, one row per pair for
    stacked rows; phi is None on a Euclidean ball."""
    vertex: np.ndarray
    objective: Union[float, np.ndarray]
    log: np.ndarray
    phi: Optional[Union[float, np.ndarray]] = None


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
        if not 0.0 < self.radius < np.inf:
            raise ConfigError(
                "GeodesicBall: radius must be positive and finite")
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
        """Whether x, or each row of stacked x, is in the ball; a point
        whose distance the kernel rejects (raises, or NaN in a stack) is
        not."""
        try:
            slack = self._slack(x)
        except DomainError:
            return False
        return slack >= 0.0  # the verdict of d <= radius + MEMBERSHIP_TOL

    def _slack(self, x):
        """radius + MEMBERSHIP_TOL - dist(center, x), for x or each row
        of stacked x: x is a member exactly where it is >= 0.  NaN on a
        stacked row whose distance the kernel rejects; a single such x
        raises DomainError."""
        return self.radius + MEMBERSHIP_TOL - self.kernel.dist(self.center, x)

    def sample(self, rng):
        """Interior point, uniform-ish: random direction at the center,
        radius scaled so the push-forward is uniform in the flat limit."""
        u = self.kernel.random_unit_tangent(self.center, rng)
        return self._place(u, rng.uniform())

    def _place(self, u, s):
        """exp_center(radius s^(1/dim) u) for a unit tangent u at the
        center and a uniform s on [0, 1), or for rows u and a list s.
        The power is libm's pow, as Python's float power takes it;
        numpy's array power differs from it in the last bit on a few
        percent of inputs."""
        p = 1.0 / self.kernel.dim
        rho = self.radius * (s ** p if type(s) is float else np.fromiter(
            map(math.pow, s, itertools.repeat(p)), float, len(s)))
        return self.kernel.exp(self.center,
                               _col(rho, len(self.kernel.point_shape)) * u)

    def lmo(self, w, x):
        """The ray from x along p leaves the ball where a cos(s) +
        b sin(s) = cos r, resp. a cosh(s) - b sinh(s) = cosh r, with a
        and b the (Minkowski) inner products of the center with x and p.
        a is snapped so that a point within the membership tolerance
        outside the ball counts as on its boundary: outward rays exit at
        0.  Along the search plane b(phi) = cos(phi) b1 + sin(phi) b2 is
        a scalar.  Euclidean balls have the vertex in closed form.

        F(phi) = alpha(phi) cos(phi) is bracketed by three angles: -pi/2,
        the wedge edge e and pi/2.  A point on the (snapped) boundary,
        or one where F'(e) > 0, has its peak in [e, pi/2]; any other in
        [-pi/2, e].  F' at e is shared by both; a bracket whose ends show
        no sign change raises `BracketError`.  A warm start cuts the
        bracket where phi0 = atan2(g2, g1 + r), the angle of the flat
        vertex center + r u1 seen from x (g1, g2 the coordinates of
        log_x(center)), lies strictly inside it and F' is >= 0 at its
        start and <= 0 at its end: F'(phi0) says which side of phi0
        holds the peak, and F' at phi0 + r^2/4 or phi0 - r^2/4 (clamped
        into the bracket), on that side, cuts it again.  `bisect_root`
        starts from F' at the cut bracket's ends.  Where the plane
        degenerates to a line (x at the center, or w along
        log_x(center)) p = u1, phi = 0.

        w and x may also be stacked rows of one shape, with a leading
        axis as the kernel maps take them.  Every row is checked at
        entry, and the result holds one row per pair, in arrays (phi
        too).  A pair and rows take the same steps, a pair's scalars in
        floats and `math`, rows in numpy."""
        k, x0, r = self.kernel, self.center, self.radius
        norm_w = _entry_norm(w, x, self)
        if isinstance(k, Euclidean):
            v = x0 + r * (w / _col(norm_w))
            lx = v - x
            return LmoResult(v, _dot(w, lx), lx)
        if isinstance(k, Sphere):
            c = math.cos(r)
            a = _atleast(_dot(x0, x), c)
            product, exit_at = _dot, alpha_phi_sphere
        else:
            c = math.cosh(r)
            a = -_atleast(k.minkowski(x0, x), -c)
            product, exit_at = k.minkowski, _alpha_phi_hyperboloid
        # maximize F(phi) = alpha(phi) cos(phi), alpha the travel distance
        # to the boundary along p = cos(phi) u1 + sin(phi) u2
        m = _arith(norm_w)
        g = k.log(x, x0)
        u1, u2, g1, line = _section_frame(k, x, w, norm_w, g)
        b1, b2 = product(x0, u1), product(x0, u2)
        slope = _phi_slope(exit_at, a, b1, b2, c)
        half = 0.5 * math.pi
        g2 = k._inner(x, g, u2)
        edge = _atleast(m.atan2(g2, g1) - half, -half)
        at_edge = slope(edge)
        inward = (a == c) | (at_edge > 0.0)
        far = _where(inward, half, -half)
        at_far = slope(far)
        # a line's bracket starts at its root, phi = 0
        lo = _where(line, 0.0, _where(inward, edge, far))
        hi = _where(inward, far, edge)
        at_lo = _where(line, 0.0, _where(inward, at_edge, at_far))
        at_hi = _where(inward, at_far, at_edge)
        # the warm start; a line row's g2 is a zero, so its phi0, 0 or
        # +-pi, never lies strictly inside its bracket
        phi0 = m.atan2(g2, g1 + r)
        warm = (lo < phi0) & (phi0 < hi) & (at_lo >= 0.0) & (at_hi <= 0.0)
        probe = _where(warm, phi0, lo)
        at_probe = slope(probe)
        lo, hi, at_lo, at_hi = _cut(warm, probe, at_probe, lo, hi, at_lo,
                                    at_hi)
        # phi0 misses the root by at most ~r^2/4 (0.08-0.26 r^2 measured on
        # spheres r 0.05-1.5, hyperboloids r 0.3-2), so a step r^2/4 passes
        # it on most rows and leaves a bracket r^2/4 wide
        step = 0.25 * r * r
        probe = probe + _where(at_probe > 0.0, step, -step)
        probe = _where(probe > hi, hi, _atleast(probe, lo))
        lo, hi, at_lo, at_hi = _cut(warm, probe, slope(probe), lo, hi, at_lo,
                                    at_hi)
        phi = bisect_root(slope, lo, hi, tol=LMO_TOL, ends=(at_lo, at_hi))
        cp, sp = m.cos(phi), m.sin(phi)
        travel = exit_at(a, cp * b1 + sp * b2, c)
        v = k.exp(x, _col(travel) * (_col(cp) * u1 + _col(sp) * u2))
        lx = k.log(x, v)
        return LmoResult(v, k._inner(x, w, lx), lx, phi)


class _Floats:
    """A pair's arithmetic: `math` on Python floats."""
    sqrt, log1p, atan, atan2 = math.sqrt, math.log1p, math.atan, math.atan2
    cos, sin, sinh, maximum = math.cos, math.sin, math.sinh, max


class _Arrays:
    """Stacked rows' arithmetic: numpy, elementwise."""
    sqrt, log1p, atan, atan2 = np.sqrt, np.log1p, np.arctan, np.arctan2
    cos, sin, sinh, maximum = np.cos, np.sin, np.sinh, np.maximum


def _arith(a, b=None):
    """_Arrays when a or b is an ndarray, else _Floats (numbers)."""
    return (_Arrays if type(a) is np.ndarray or type(b) is np.ndarray
            else _Floats)


def alpha_phi_sphere(a, b, c, slope=False):
    """Smallest nonnegative root of a*cos(alpha) + b*sin(alpha) = c,
    for numbers, or elementwise if a or b is an array, in the oracle's
    regime a >= c > 0; with slope, (alpha, dalpha/db) of _exit_slopes.

    This is the travel distance from a point x in a spherical cap of
    radius r < pi/2 to the cap boundary along a unit direction p, with
    a = <center, x>, b = <center, p> and c = cos(r).  Solved by the
    tangent half-angle substitution.  Raises NoIntersectionError for
    x outside the cap (a < c), where a ray can miss the boundary.
    """
    m = _arith(a, b)
    if not (c > 0.0 and _all(a >= c)):
        raise NoIntersectionError(
            "alpha_phi_sphere: need a >= c > 0, got "
            f"a={np.min(a):.6g}, c={c:.6g}")
    # factored so that a = c (x on the boundary) leaves disc = b^2 exactly;
    # inside the cap sqrt(disc) >= |b|, so a negative numerator is
    # boundary roundoff and the exit root is 0
    root = m.sqrt((a - c) * (a + c) + b * b)
    alpha = 2.0 * m.atan(m.maximum(b + root, 0.0) / (a + c))
    return _exit_slopes(alpha, m.sin(alpha), root, c) if slope else alpha


def _alpha_phi_hyperboloid(a, b, c, slope=False):
    """Nonnegative root of a*cosh(s) - b*sinh(s) = c, a <= c, for numbers
    a and b or over arrays: t = e^s solves (a - b) t^2 - 2c t + (a +
    b) = 0 with a - b > 0, and s = log1p(t - 1) with t - 1 = (c - a +
    root + b) / (a - b) keeps a small exit's relative precision, which
    log(t) of a t near 1 loses; t < 1 is roundoff on an outward ray from
    the boundary.  With slope, the pair (s, ds/db) of _exit_slopes."""
    m = _arith(a, b)
    root = m.sqrt((c - a) * (c + a) + b * b)
    s = m.log1p(m.maximum((c - a + root + b) / (a - b), 0.0))
    return _exit_slopes(s, m.sinh(s), root, c) if slope else s


def _exit_slopes(s, sn, root, c):
    """(s, ds/db) for the exit root s of a cos(s) + b sin(s) = c (sn =
    sin s) or of a cosh(s) - b sinh(s) = c (sn = sinh s).
    Differentiating the equation in b gives ds/db = sn / D with D =
    a sn - b cos(s) (resp. a sinh(s) - b cosh(s)).  At the exit D equals
    root, the square root of the discriminant: (a cos(s) + b sn)^2 + D^2
    = a^2 + b^2 (on the hyperboloid (a cosh(s) - b sn)^2 - D^2 = a^2 -
    b^2), so D carries no cancellation.  Where s = 0 (x on the boundary,
    and p at the wedge edge or outward) ds/db is its limit from inside
    the wedge, 2/c: at a = c and b > 0 the exit is 2 atan(b/c), resp.
    log((c + b)/(c - b)).  Elementwise over arrays."""
    if type(sn) is np.ndarray:
        return s, np.divide(sn, root, out=np.full_like(sn, 2.0 / c),
                            where=sn != 0.0)
    return s, sn / root if sn != 0.0 else 2.0 / c


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
    orthogonal to it, <g, u1>, and where the plane degenerates to a
    line (u2 is zero there, a zero row over stacked rows).  w and g are
    tangent at x by the caller's word (unchecked)."""
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
    u2 = _fill(g_perp / _col(_where(flat, 1.0, n_perp)), flat, 0.0)
    return u1, u2, g1, flat


def _cut(warm, p, at_p, lo, hi, at_lo, at_hi):
    """The brackets [lo, hi] of F' (with F' at their ends) cut at p
    inside them on the warm rows: [p, hi] where F'(p) > 0, else [lo, p],
    which keeps F' >= 0 at lo and <= 0 at hi; a NaN F'(p) and the other
    rows keep their bracket."""
    up, down = warm & (at_p > 0.0), warm & (at_p <= 0.0)
    return (_where(up, p, lo), _where(down, p, hi),
            _where(up, at_p, at_lo), _where(down, at_p, at_hi))


def _phi_slope(exit_at, a, b1, b2, c):
    """F'(phi) = alpha' cos(phi) - alpha sin(phi) along the search
    plane, with (alpha, dalpha/db) = exit_at(a, b, c, slope=True) at
    b(phi) = cos(phi) b1 + sin(phi) b2, in the arithmetic of b1: floats
    for a pair, arrays over stacked rows."""
    m = _arith(b1)

    def slope(phi):
        cp, sp = m.cos(phi), m.sin(phi)
        s, ds = exit_at(a, cp * b1 + sp * b2, c, slope=True)
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
    if k.dist(x0, x) > 1e-12:
        cands = [k.log(x0, x), k.transport(x, x0, w)]
    else:
        cands = [np.array(w, copy=True)]
    # deterministic completions in case of rank deficiency
    g = np.random.default_rng(0).standard_normal((4,) + k.point_shape)
    cands.extend(k.project_tangent(x0, g))

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
    g = rng.standard_normal((n,) + k.point_shape)
    z = k.exp(x0, r * k._unit_tangents(x0, g, rng))
    return float(np.max(grid_objectives(k, x, w, z)))
