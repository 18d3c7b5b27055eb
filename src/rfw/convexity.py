"""Numerical certifiers for strong convexity of sets.

Five notions are checked by sampling, each returning a certificate with
the worst margin seen:

* geodesic: the metric ball of radius alpha*t*(1-t)*d(x,y)^2 around
  gamma(t) stays inside the set;
* riemannian: the pullback log_x(C) is strongly convex in the tangent
  space, uniformly over base points x in C;
* double geodesic: every tangent perturbation z at gamma(t) with
  norm(z) <= alpha*t*(1-t)*d(x,y)^2 exponentiates into the set, with d
  any distance equivalent to the Riemannian one;
* scaling inequality: at the oracle vertex v for direction w,
  <w, log_x(v)> >= alpha * norm(w) * dist(x,v)^2;
* approximate scaling inequality: the same with a curvature residual
  term built from the double exponential map subtracted.

Margins for the membership-based notions are measured as the gap
between the admissible travel distance along the sampled direction and
the required one (bisection on membership); the scaling notions have
analytic margins.  A certificate keeps only the lowest margin and its
witness, so a sample is refined by bisection only when one membership
probe shows that it can lower the worst margin seen so far; the others
are dropped, and the certificate is the one that refining every sample
would give.  run_checker is the entry point; the function-class
checks return the same ConvexityCertificate with alpha_tested None.
"""

import json
import numpy as np
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigError, ContractError, DomainError, NumericsError
from .manifolds import CurvatureInfo, Manifold
from .balls import ORACLE_KERNELS, GeodesicBall

DEFAULT_CERT_TOL = 1e-8


@dataclass
class ConvexSet:
    """A set presented through predicates: membership test, interior
    sampler, and (when available) a linear minimization oracle
    (w, x) -> LmoResult with the vertex v maximizing <w, log_x(.)>, the
    objective <w, log_x(v)>, log_x(v) and the search angle phi.  The
    solver and the scaling certifiers take the gap and log_x(v) from
    the result."""

    kernel: Manifold
    membership: Callable
    sampler: Callable
    lmo: Optional[Callable] = None
    diameter: Optional[float] = None

    def __post_init__(self):
        if not callable(self.membership) or not callable(self.sampler):
            raise ConfigError("ConvexSet needs a membership test and a sampler")


def ball_set(ball: GeodesicBall) -> ConvexSet:
    lmo = ball.lmo if isinstance(ball.kernel, ORACLE_KERNELS) else None
    return ConvexSet(kernel=ball.kernel, membership=ball.membership,
                     sampler=ball.sample, lmo=lmo, diameter=ball.diameter)


@dataclass(frozen=True)
class DistanceEquivalence:
    """Distance d equivalent to the Riemannian one:
    ell * d_M <= d <= big_l * d_M.  A homothety d = c * d_M is built in;
    anything else must supply distance_fn(kernel, x, y)."""

    ell: float = 1.0
    big_l: float = 1.0
    distance_fn: Optional[Callable] = None

    def __post_init__(self):
        if not (0.0 < self.ell <= self.big_l):
            raise ConfigError("DistanceEquivalence: need 0 < ell <= big_l")

    def distance(self, kernel, x, y):
        if self.distance_fn is not None:
            return self.distance_fn(kernel, x, y)
        if self.ell != self.big_l:
            raise ConfigError(
                "DistanceEquivalence: ell < big_l needs an explicit distance_fn")
        return self.ell * kernel.dist(x, y)


def _finite_or_none(margin):
    return margin if np.isfinite(margin) else None


@dataclass
class ConvexityCertificate:
    notion: str
    alpha_tested: Optional[float]  # None for the function-class checks
    samples: int
    worst_margin: float
    witness: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_CERT_TOL

    @property
    def passed(self):
        return self.worst_margin >= -self.tolerance

    def to_dict(self):
        """Plain types for strict JSON: a non-finite margin (a domain
        error, or no sample to certify) is written as None."""
        witness = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in self.witness.items()}
        if "margin" in witness:
            witness["margin"] = _finite_or_none(witness["margin"])
        return {
            "notion": self.notion,
            "alpha_tested": self.alpha_tested,
            "samples": self.samples,
            "worst_margin": _finite_or_none(self.worst_margin),
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "witness": witness,
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def certificate_from_dict(d):
    """Inverse of ConvexityCertificate.to_dict; a None margin is -inf
    on a failed certificate and +inf on a passed one."""
    witness = {k: (np.asarray(v) if isinstance(v, list) else v)
               for k, v in d.get("witness", {}).items()}
    worst = d["worst_margin"]
    if worst is None:
        worst = np.inf if d["passed"] else -np.inf
    if "margin" in witness and witness["margin"] is None:
        witness["margin"] = worst
    return ConvexityCertificate(d["notion"], d["alpha_tested"], d["samples"],
                                worst, witness, d["tolerance"])


# ---------------------------------------------------------------------------
# clearance along a ray, by bisection on membership
# ---------------------------------------------------------------------------

def _sup_member(member_at, hi_cap, resolution):
    """sup{s in [0, hi_cap] : member_at(s)}; assumes membership along
    the ray is an initial interval (true for convex sets)."""
    if not member_at(0.0):
        return 0.0
    if member_at(hi_cap):
        return hi_cap
    lo, hi = 0.0, hi_cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if member_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ray_margin(cset, point_at, required, worst):
    """Margin of the admissible travel distance along the ray s ->
    point_at(s) over the required one, or None when it cannot fall
    below worst, the lowest margin seen so far.  point_at calls exp, and
    leaving the exp domain counts as a violation.

    The clearance is bisected only for a sample that can lower worst:
    the margin is at least -required, and when the point at
    s = required + worst + resolution is a member, the bisection would
    end above s - resolution/2 (its non-member end stays beyond s), a
    margin above worst either way.  Both hold wherever the bisection
    itself is right: membership along the ray is an initial interval."""
    def member_at(s):
        try:
            z = point_at(s)
        except DomainError:
            return False
        return bool(cset.membership(z))

    cap = cset.diameter if cset.diameter is not None else 1.0
    hi_cap = max(cap, 2.0 * required, 1e-9)
    resolution = 1e-11 * max(1.0, hi_cap)
    s = required + worst + resolution
    if s <= 0.0 or (s < hi_cap and member_at(s)):
        return None
    return _sup_member(member_at, hi_cap, resolution) - required


# ---------------------------------------------------------------------------
# the sampling loop and the five notions
# ---------------------------------------------------------------------------

def _worst_case(notion, alpha, n_samples, rng, draw, tolerance):
    """Lowest margin over n_samples calls of draw(rng, worst), which
    returns (margin, witness), or None for a sample with nothing to
    certify or whose margin cannot fall below worst, the lowest so far."""
    worst, witness = np.inf, {}
    for _ in range(n_samples):
        sample = draw(rng, worst)
        if sample is not None and sample[0] < worst:
            worst, witness = sample
    return ConvexityCertificate(notion, alpha, n_samples, float(worst),
                                witness, tolerance)


def _double_geodesic(cset, alpha, dist_eq):
    """Sample chords (x, y) and times t; every z at gamma(t) with
    norm(z) <= alpha*t*(1-t)*d(x,y)^2 must exponentiate into the set (a
    missing exp counts as failure), probing the worst direction drawn
    uniformly on the tangent sphere, with d given by dist_eq rather than
    pinned to the Riemannian distance."""
    dist_eq = dist_eq or DistanceEquivalence()
    k = cset.kernel

    def draw(rng, worst):
        x, y = cset.sampler(rng), cset.sampler(rng)
        t = rng.uniform()
        d = dist_eq.distance(k, x, y)
        m = k.geodesic(x, y, t)
        rho = alpha * t * (1.0 - t) * d * d
        u = k.random_unit_tangent(m, rng)
        margin = _ray_margin(cset, lambda s: k.exp(m, s * u), rho, worst)
        if margin is None:
            return None
        return margin, {"x": x, "y": y, "t": t, "direction": u,
                        "required": rho, "margin": margin}
    return draw


def _geodesic(cset, alpha, dist_eq):
    """The metric ball of radius alpha*t*(1-t)*d(x,y)^2 around gamma(t)
    stays in the set: the double geodesic notion with the Riemannian
    distance, whatever dist_eq the caller passes."""
    return _double_geodesic(cset, alpha, None)


def _riemannian(cset, alpha, dist_eq):
    """Strong convexity of the tangent-space pullback log_x(C),
    uniformly over sampled base points x in C."""
    k = cset.kernel

    def draw(rng, worst):
        x = cset.sampler(rng)
        p = k.log(x, cset.sampler(rng))
        q = k.log(x, cset.sampler(rng))
        t = rng.uniform()
        pq = p - q
        dpq2 = k._inner(x, pq, pq)
        combo = (1.0 - t) * p + t * q
        rho = alpha * t * (1.0 - t) * dpq2
        zdir = k.random_unit_tangent(x, rng)
        margin = _ray_margin(cset, lambda s: k.exp(x, combo + s * zdir),
                             rho, worst)
        if margin is None:
            return None
        return margin, {"x": x, "p": p, "q": q, "t": t, "direction": zdir,
                        "required": rho, "margin": margin}
    return draw


def _scaling(cset, alpha, dist_eq):
    """At the oracle vertex v for a unit direction w at x in C, require
    <w, log_x(v)> >= alpha * norm(w) * dist(x, v)^2."""
    if cset.lmo is None:
        raise ConfigError("scaling: set has no oracle")
    k = cset.kernel

    def draw(rng, worst):
        x = cset.sampler(rng)
        w = k.random_unit_tangent(x, rng)
        res = cset.lmo(w, x)
        v, lhs, lx = res.vertex, res.objective, res.log
        margin = lhs - alpha * k._inner(x, lx, lx)
        return margin, {"x": x, "w": w, "vertex": v, "lhs": lhs,
                        "margin": margin}
    return draw


def _approx_scaling(cset, alpha, dist_eq):
    """Scaling inequality with the curvature correction term: the lower
    bound alpha*norm(w)*dist(x,v)^2 is offset by <w, r(x)> with r(x) =
    R_x(log_x(v)/2, omega), the residual of the double exponential map
    along the half chord.  omega = (alpha d^2/4) w: transporting the
    scaled direction to the midpoint and back is the identity, and
    residual makes the one transport itself.  A residual that leaves
    the exp domain counts as a violation (margin -inf), as a missing exp
    does for the membership notions."""
    if cset.lmo is None:
        raise ConfigError("approx_scaling: set has no oracle")
    k = cset.kernel

    def draw(rng, worst):
        x = cset.sampler(rng)
        w = k.random_unit_tangent(x, rng)
        res = cset.lmo(w, x)
        v, lx = res.vertex, res.log
        d = k.dist(x, v)
        if d < 1e-12:
            return None  # degenerate set; nothing to certify at this point
        omega = (0.25 * alpha * d * d) * w
        try:
            r_x = residual(k, x, 0.5 * lx, omega)
        except DomainError as exc:
            return -np.inf, {"x": x, "w": w, "vertex": v,
                             "domain_error": str(exc), "margin": -np.inf}
        margin = res.objective - alpha * d * d - k._inner(x, w, r_x)
        return margin, {"x": x, "w": w, "vertex": v, "lhs": res.objective,
                        "residual": r_x, "margin": margin}
    return draw


_DRAWS = {"geodesic": _geodesic, "riemannian": _riemannian,
          "double_geodesic": _double_geodesic, "scaling": _scaling,
          "approx_scaling": _approx_scaling}

NOTIONS = tuple(_DRAWS)


def run_checker(notion, cset, alpha, n_samples, rng, dist_eq=None,
                tolerance=DEFAULT_CERT_TOL):
    """Certificate for one notion (see NOTIONS) by sampling.  dist_eq
    only matters to double_geodesic."""
    if notion not in _DRAWS:
        raise ConfigError(f"unknown notion '{notion}'")
    draw = _DRAWS[notion](cset, alpha, dist_eq)
    return _worst_case(notion, alpha, n_samples, rng, draw, tolerance)


def estimate_alpha(cset, notion, n_samples, rng):
    """Largest alpha (within 2%, relative) passing the checker at the
    given sample budget, with the Riemannian distance.  Bisection over
    [0, 10/diameter]; every probe replays the same sample stream so the
    pass/fail threshold is sharp."""
    if cset.diameter is None:
        raise ConfigError("estimate_alpha: set needs a diameter hint")
    hi = 10.0 / cset.diameter
    probe_seed = int(rng.integers(0, 2 ** 62))

    def passes(alpha):
        prng = np.random.default_rng(probe_seed)
        return run_checker(notion, cset, alpha, n_samples, prng).passed

    if passes(hi):
        return hi
    lo = 0.0
    floor = 1e-7 * hi
    while hi - lo > 0.02 * max(lo, floor):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# double exponential map and its residual
# ---------------------------------------------------------------------------

def double_exp(kernel, x, u, v):
    """Exp at exp_x(u) of v transported from x along the geodesic."""
    y = kernel.exp(x, u)
    return kernel.exp(y, kernel.transport(x, y, v))

def exp_map_operator(kernel, x, u, v):
    """h_x(u, v) = log_x(double_exp(x, u, v)); equals u + v on flat
    space and deviates cubically on curved ones."""
    return kernel.log(x, double_exp(kernel, x, u, v))

def residual(kernel, x, u, v):
    """R_x(u, v) = h_x(u, v) - u - v."""
    return exp_map_operator(kernel, x, u, v) - u - v


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def zeta(r, kappa_min):
    """Smoothness constant of 0.5*dist^2(., x0) on a ball of radius r:
    s*coth(s) with s = r*sqrt(|kappa_min|) for negative curvature, 1
    otherwise (continuity at kappa = 0)."""
    if r < 0.0:
        raise ContractError("zeta: radius must be nonnegative")
    if kappa_min >= 0.0 or r == 0.0:
        return 1.0
    s = r * np.sqrt(-kappa_min)
    return float(s / np.tanh(s))


def delta(r, kappa_max):
    """Strong-convexity constant of 0.5*dist^2(., x0) on a ball of
    radius r: s*cot(s) with s = r*sqrt(kappa_max) for positive
    curvature (requires s < pi/2), 1 otherwise."""
    if r < 0.0:
        raise ContractError("delta: radius must be nonnegative")
    if kappa_max <= 0.0 or r == 0.0:
        return 1.0
    s = r * np.sqrt(kappa_max)
    if s >= 0.5 * np.pi:
        raise DomainError(f"delta: r*sqrt(kappa_max)={s:.6g} >= pi/2")
    return float(s / np.tan(s))


def riemannian_strong_convexity_radius(curv: CurvatureInfo, r_probe):
    """One application of the admissible-radius map
    r -> 0.5 * (delta_r / zeta_r) * min{1/(4K), K/(4F)}; balls of any
    fixed-point radius are strongly convex in the Riemannian sense.
    Returns +inf on flat space (every radius is admissible there)."""
    K = curv.K
    if K == 0.0:
        return np.inf
    F = curv.grad_curvature_bound
    cap = 1.0 / (4.0 * K)
    if F > 0.0:
        cap = min(cap, K / (4.0 * F))
    ratio = delta(r_probe, curv.kappa_max) / zeta(r_probe, curv.kappa_min)
    return 0.5 * ratio * cap


def strong_convexity_radius(curv: CurvatureInfo):
    """Fixed point of riemannian_strong_convexity_radius, iterated from
    r0 = 1/(8K) to a relative step of 1e-10 within 200 iterations; +inf
    on flat space (any radius works there)."""
    if curv.K == 0.0:
        return np.inf
    r = 1.0 / (8.0 * curv.K)
    for _ in range(200):
        r_new = riemannian_strong_convexity_radius(curv, r)
        if abs(r_new - r) <= 1e-10 * max(abs(r), 1e-30):
            return float(r_new)
        r = r_new
    raise NumericsError("strong_convexity_radius: fixed point did not settle")


def levelset_alpha(mu, L, s, ell=1.0):
    """Strong-convexity constant of the sublevel set {f <= s} of a
    mu-strongly convex, L-smooth function whose minimum value is 0:
    mu / (2 sqrt(2 s L max{ell^-2, 1}))."""
    if not (mu > 0.0 and L >= mu and s > 0.0 and ell > 0.0):
        raise ContractError("levelset_alpha: need 0 < mu <= L, s > 0, ell > 0")
    return float(mu / (2.0 * np.sqrt(2.0 * s * L * max(ell ** -2.0, 1.0))))


def ball_strong_convexity_alpha(curv: CurvatureInfo, r):
    """Strong-convexity constant certified for a geodesic ball of
    radius r: 0.5*dist^2(., center) is (delta_r/2)-strongly convex and
    (3 zeta_r/2)-smooth through the exp pullback, and the ball is its
    sublevel set at r^2/2."""
    mu = 0.5 * delta(r, curv.kappa_max)
    L = 1.5 * zeta(r, curv.kappa_min)
    return levelset_alpha(mu, L, 0.5 * r * r, 1.0)


# ---------------------------------------------------------------------------
# function-class checks
# ---------------------------------------------------------------------------

@dataclass
class SmoothStronglyConvexFn:
    """Value/gradient oracle, value_grad(x) -> (f(x), grad f(x)), with
    declared geodesic constants."""

    kernel: Manifold
    value_grad: Callable
    mu: float
    L: float
    fstar: Optional[float] = None
    xstar: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.xstar is not None:
            _, g = self.value_grad(self.xstar)
            if self.kernel.norm(self.xstar, g) > 1e-8:
                raise ContractError(
                    "SmoothStronglyConvexFn: grad(xstar) is not zero")


def check_smoothness_gradient_bound(fn, cset, n_samples, rng,
                                    tolerance=DEFAULT_CERT_TOL):
    """Self-bounding property of smooth functions: norm(grad f(x)) <=
    sqrt(2 L (f(x) - fstar)) on the set."""
    if fn.fstar is None:
        raise ConfigError("check_smoothness_gradient_bound: fstar required")
    k = cset.kernel

    def draw(rng, worst):
        x = cset.sampler(rng)
        fx, gx = fn.value_grad(x)
        gap = max(fx - fn.fstar, 0.0)
        margin = np.sqrt(2.0 * fn.L * gap) - k.norm(x, gx)
        return margin, {"x": x, "margin": margin}
    return _worst_case("smoothness_gradient_bound", None, n_samples, rng,
                       draw, tolerance)


def check_gconvexity_of_function(fn, cset, n_samples, rng,
                                 tolerance=DEFAULT_CERT_TOL):
    """Geodesic mu-strong-convexity and L-smoothness inequalities of fn
    along sampled chords of the set; the worst of the two margins is
    reported."""
    k = cset.kernel

    def draw(rng, worst):
        x, y = cset.sampler(rng), cset.sampler(rng)
        t = rng.uniform()
        d = k.dist(x, y)
        fx, gx = fn.value_grad(x)
        fy = fn.value_grad(y)[0]
        fmid = fn.value_grad(k.geodesic(x, y, t))[0]
        convexity = ((1.0 - t) * fx + t * fy
                     - 0.5 * fn.mu * t * (1.0 - t) * d * d - fmid)
        lin = fy - fx - k.inner(x, gx, k.log(x, y))
        smooth = 0.5 * fn.L * d * d - abs(lin)
        return min(convexity, smooth), {"x": x, "y": y, "t": t,
                                        "convexity": convexity,
                                        "smoothness": smooth}
    return _worst_case("gconvexity", None, n_samples, rng, draw, tolerance)
