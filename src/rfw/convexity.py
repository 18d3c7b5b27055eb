"""Numerical certifiers for strong convexity of sets.

Five notions are checked by sampling, each returning a certificate with
the worst margin seen:

* geodesic: the metric ball of radius alpha*t*(1-t)*d(x,y)^2 around
  gamma(t) stays inside the set;
* riemannian: the pullback log_x(C) is strongly convex in the tangent
  space, uniformly over base points x in C;
* double geodesic: every tangent perturbation z at gamma(t) with
  norm(z) <= alpha*t*(1-t)*d(x,y)^2 exponentiates into the set, with d
  any distance equivalent to the Riemannian one, given as a function
  distance(kernel, x, y) that is called once on the stacked chords;
* scaling inequality: at the oracle vertex v for direction w,
  <w, log_x(v)> >= alpha * norm(w) * dist(x,v)^2;
* approximate scaling inequality: the same with a curvature residual
  term built from the double exponential map subtracted.

A certificate is built in three stages.  Its random draws come first
(_Draws), one generator call per slot of the sample's layout over all
samples, in layout order: n normals for a direction, n uniforms for a
time, a ball's point as its normals and then its uniforms.  The
geometry (sample points, chords, midpoints, unit tangents, required
clearances, the approx_scaling residual) is then computed over all
rows at once, and only what the check reads, with stacked kernel
calls that give each row's bits; a unit tangent whose projection
vanished is drawn again there, after all the blocks.  The margins come
out as one float array, a row each, +inf for a row with nothing to
certify; one argmin over it (_worst_case) then keeps the first lowest
margin and its witness, so the certificate is bit for bit that of a
loop measuring one sample at a time on the same draws; for the
scaling notions, up to the last bits in which a stacked oracle row
may differ from a single call (GeodesicBall.lmo).

Margins for the membership-based notions are the gap between the
admissible travel distance along a direction and the required one.  On
a GeodesicBall the geodesic and double geodesic notions take it exact,
over all directions at once: by the triangle inequality no direction
travels less than the outward radial one, and that geodesic is
minimizing within the ball, so the margin is the ball's radius less
the distance from its center, less the required travel (one stacked
dist call).  Elsewhere, and for riemannian everywhere, it is that of a
bisection on membership, for all rows at once, by one routine on every
set (_clearances): the crossings are bracketed by stacked
Chandrupatla steps on a slack (a ball's signed clearance, or +-1 on
any other set, where each step is the bisection's own midpoint), rows
that cannot be the lowest leave early, and the rows left replay the
bisection on floats, its guesses confirmed by one stacked probe, so
the certificate is that of refining every row, bit for bit.  The
scaling notions make one oracle call on all the rows stacked and have
analytic margins.  A NaN margin is a violation.
run_checker is the entry point; the function-class checks return the
same ConvexityCertificate with alpha_tested None.  Every certificate
passes when its worst margin is at least -DEFAULT_CERT_TOL.
"""

import json
import logging
import numpy as np
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .errors import ConfigError, ContractError, DomainError, NumericsError
from .manifolds import CurvatureInfo, Manifold, _col
from .scalars import _step_fraction, _step_point
from .balls import ORACLE_KERNELS, GeodesicBall

DEFAULT_CERT_TOL = 1e-8
log = logging.getLogger("rfw")


@dataclass
class ConvexSet:
    """A set presented through predicates: membership test, interior
    sampler, and (when available) a linear minimization oracle
    (w, x) -> LmoResult with the vertex v maximizing <w, log_x(.)>, the
    objective <w, log_x(v)>, log_x(v) and the search angle phi.  The
    oracle answers a single pair and stacked rows of pairs alike (w and
    x of one shape, with a leading axis), with one row of each field
    per pair: the solver calls it on one pair, the scaling certifiers
    once on all their rows.  Both take the gap and log_x(v) from the
    result."""

    kernel: Manifold
    membership: Callable
    sampler: Callable
    lmo: Optional[Callable] = None
    diameter: Optional[float] = None

    def __post_init__(self):
        if not callable(self.membership) or not callable(self.sampler):
            raise ConfigError("ConvexSet needs a membership test and a sampler")
        if self.diameter is not None and not 0.0 < self.diameter < np.inf:
            raise ConfigError(f"ConvexSet: bad diameter {self.diameter}")


def ball_set(ball: GeodesicBall) -> ConvexSet:
    lmo = ball.lmo if isinstance(ball.kernel, ORACLE_KERNELS) else None
    return ConvexSet(kernel=ball.kernel, membership=ball.membership,
                     sampler=ball.sample, lmo=lmo, diameter=ball.diameter)


def _finite_or_none(value):
    """value made strict JSON: a non-finite float becomes None, and
    dicts, lists and tuples are taken element by element (a tuple as a
    list, as json writes it).  Certificates, traces and run summaries
    all write their numbers through this rule."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


@dataclass
class ConvexityCertificate:
    notion: str
    alpha_tested: Optional[float]  # None for the function-class checks
    samples: int
    worst_margin: float
    witness: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.worst_margin >= -DEFAULT_CERT_TOL

    def to_dict(self):
        """Plain types for strict JSON: a non-finite margin (a domain
        error, a NaN, or no sample to certify) or other witness number
        is written as None."""
        witness = _finite_or_none({
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in self.witness.items()})
        return {
            "notion": self.notion,
            "alpha_tested": self.alpha_tested,
            "samples": self.samples,
            "worst_margin": _finite_or_none(self.worst_margin),
            "tolerance": DEFAULT_CERT_TOL,
            "passed": bool(self.passed),
            "witness": witness,
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


# ---------------------------------------------------------------------------
# clearances along rays: a bisection on membership, raced on a slack
# ---------------------------------------------------------------------------

def _ball_of(method, func):
    """The GeodesicBall whose method func is the bound method, or None."""
    if getattr(method, "__func__", None) is func:
        return method.__self__
    return None


def _members(cset, z):
    """Whether each row of the stacked points z is in a set that is not
    a ball, asked row by row.  A NaN row (a ray that left the exp
    domain) is not a member, and the set never sees it."""
    return np.array([not np.isnan(p).any() and bool(cset.membership(p))
                     for p in z], dtype=bool)


def _clearances(cset, base, direction, required, offset=None):
    """Margins, travel distance minus required[i], along the rays s ->
    exp(base[i], offset[i] + s direction[i]) (offset 0 when None), as an
    array with +inf for a row that cannot be the lowest; leaving the
    exp domain counts as a violation.  A row's travel distance is that of a
    bisection on membership: 0 from a start outside the set, else
    [0, hi_cap] halved to the resolution, then hi_cap if a member there
    and hi never moved, else the midpoint (exact when membership along
    the ray is an initial interval, as for convex sets).  Every set is
    raced on a slack, a member where it is >= 0 (_race): a ball's is
    r + MEMBERSHIP_TOL - d(c, z), probed at hi_cap up front, any other
    set's is +1 on a member and -1 elsewhere, unknown at hi_cap."""
    k, n = cset.kernel, len(required)
    cap = cset.diameter if cset.diameter is not None else 1.0
    # fmax: a NaN required leaves its cap at max(cap, 1e-9)
    hi_cap = np.fmax(np.fmax(cap, 2.0 * required), 1e-9)
    resolution = 1e-11 * np.fmax(1.0, hi_cap)

    def ray(rows, s):
        v = _col(s, len(k.point_shape)) * direction[rows]
        return k.exp(base[rows], v if offset is None else offset[rows] + v)

    ball = _ball_of(cset.membership, GeodesicBall.membership)
    if ball is not None:
        slack = ball._slack
        f1 = slack(ray(np.arange(n), hi_cap))
    else:
        def slack(z):
            return np.where(_members(cset, z), 1.0, -1.0)
        f1 = np.full(n, np.nan)
    return _race(slack, ray, required, hi_cap, resolution, f1)


def _race(slack, ray, required, hi_cap, resolution, f1):
    """_clearances' bisection margins in a few stacked probes of
    slack(ray(rows, s)), f1 the slack at hi_cap, NaN where it is not
    known (or a ray left the exp domain there).  One stacked call probes
    every ray at 0: a start outside travels 0, as in the bisection, and
    a member at hi_cap takes the bracket lo = hi = hi_cap.  Each other
    row brackets its crossing, a member end lo and an outside end hi,
    by Chandrupatla's steps on the slack (rfw.scalars), the first a
    secant step where f1 is finite, one stacked probe per step on the
    rows still moving, until the bracket is at most 1/64 of the
    resolution wide.  On a slack of +-1 every step is the bisection's
    own midpoint: its brackets are [0, s] or have hi <= 2 lo, so b - a
    is exact.  The rows race as the bisection's do: a row whose
    lo - near - required exceeds some row's hi + near - required, or a
    finished margin, cannot be the lowest and leaves.  near, 1e4
    resolutions, bounds how far the bisection's final midpoint lies
    from a row's bracket: within a resolution where membership along
    the ray is an initial interval, and further by the width of any
    flicker of membership about the crossing (a kernel's roundoff).
    The rows left replay the bisection (_replays), so each margin is
    the bisection's bit for bit."""
    n = len(required)
    f0 = slack(ray(np.arange(n), np.zeros(n)))
    start, far = f0 >= 0.0, f1 >= 0.0
    margin = np.where(start, np.inf, 0.0 - required)
    pending = start.copy()
    lo, hi = np.where(far, hi_cap, 0.0), hi_cap.copy()
    tol, near = resolution / 64.0, 1e4 * resolution
    rows = np.flatnonzero(start & ~far)
    a, fa, b, fb = lo[rows], f0[rows], hi[rows], f1[rows]
    # the first step is the secant's where the far slack is finite
    c, fc, t = b, fb, np.where(np.isfinite(fb), fa / (fa - fb), 0.5)
    moving = np.ones(len(rows), dtype=bool)
    # a bracket's divisions may fail on rows whose step bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(101):  # after 100 steps, replayed as it stands
            least = np.where(pending, (hi + near) - required,
                             margin).min(initial=np.inf)
            pending &= ~((lo - near) - required > least)
            keep = moving & pending[rows]
            if step == 100 or not keep.any():
                break
            if not keep.all():
                rows, a, fa, b, fb, c, fc, t = (
                    v[keep] for v in (rows, a, fa, b, fb, c, fc, t))
            close = tol[rows]
            x = _step_point(a, b, t, close)
            fx = slack(ray(rows, x))
            # a is the newest point, [a, b] the bracket, c the point dropped
            inside = fx >= 0.0
            same = inside == (fa >= 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = x, fx
            t = _step_fraction(a, fa, b, fb, c, fc)
            lo[rows], hi[rows] = np.where(inside, a, b), np.where(inside, b, a)
            moving = np.abs(b - a) > close
    left = np.flatnonzero(pending)
    bounds = zip(*(v[left].tolist()
                   for v in (lo, hi, hi_cap, resolution, required)))
    margin[left] = _replays(slack, ray, left, f1[left].tolist(), list(bounds))
    return margin


def _replays(slack, ray, rows, far, bounds):
    """The bisection's margins on rows, replayed from their brackets:
    bounds[j] is (lo, hi, hi_cap, resolution, required) of rows[j] as
    floats, far[j] its slack at hi_cap (NaN: unknown).  Each replay
    (_replay) is confirmed: the midpoints it guessed are probed, all
    rows' in one stacked call, and a row that guessed any of them wrong
    replays again with the answers so far, until it guesses none wrong.
    Its margin is then the bisection's whatever membership along the
    ray is."""
    answers = [{} if f != f else {b[2]: f >= 0.0}
               for b, f in zip(bounds, far)]
    margins, todo = [None] * len(bounds), list(range(len(bounds)))
    while todo:
        guesses = {}
        for j in todo:
            margins[j], guesses[j] = _replay(answers[j], *bounds[j])
        probed = [(j, s) for j in todo for s in guesses[j]]
        if probed:
            who, where = zip(*probed)
            truth = slack(ray(rows[list(who)], np.array(where))) >= 0.0
            for (j, s), inside in zip(probed, truth.tolist()):
                answers[j][s] = inside
        todo = [j for j in todo
                if any(answers[j][s] != g for s, g in guesses[j].items())]
    return margins


def _replay(answers, lo_end, hi_end, hi_cap, resolution, required):
    """_clearances' bisection on one row that starts in the set, on
    Python floats: its margin, and the {midpoint: membership} it
    guessed.  A midpoint in answers takes its answer; any other is
    guessed from the bracket [lo_end, hi_end] of the crossing, in on
    the half nearer lo_end."""
    lo, hi, moved, settled = 0.0, hi_cap, False, False
    guesses = {}
    while True:
        s = hi_cap if settled else 0.5 * (lo + hi)
        inside = answers.get(s)
        if inside is None:
            inside = guesses[s] = s - lo_end <= hi_end - s
        moved = moved or settled or not inside
        lo, hi = (s, hi) if inside else (lo, s)
        settled = not hi - lo > resolution
        if settled and moved:
            return 0.5 * (lo + hi) - required, guesses


# ---------------------------------------------------------------------------
# a certificate's sample: draws, then geometry over all rows at once
# ---------------------------------------------------------------------------

POINT, TIME, TANGENT = "point", "time", "tangent"


class _Draws:
    """Stage 1 of a certificate: the random draws of its n samples (an
    integer >= 0, not a bool), one generator call per slot of layout,
    in layout order.  A slot is a
    TANGENT, rng.standard_normal((n,) + point_shape), made unit tangents
    once their base points are known; a TIME, rng.random(n), uniforms
    on [0, 1); or a POINT, n points of the set.  A GeodesicBall's POINT
    is a TANGENT block at the center, then a TIME block, as its sample
    method draws a normal and then a uniform, and is placed in stage 2;
    any other set's POINT is its sampler called n times, in the slot's
    turn.  Stage 2, in each check's own body, reads each slot at most
    once: a TIME as slots[j], a POINT through points, a TANGENT through
    the kernel's _unit_tangents on the rows it reads, with this
    sample's rng: a unit tangent whose projection vanished is drawn
    again then, after all the blocks."""

    def __init__(self, cset, rng, n, layout):
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                and n >= 0):
            raise ConfigError(f"n_samples must be an integer >= 0, got {n!r}")
        k, sampler = cset.kernel, cset.sampler
        self.kernel, self.rng = k, rng
        self.ball = _ball_of(sampler, GeodesicBall.sample)
        shape = (n,) + k.point_shape
        self.slots = []
        for slot in layout:
            if slot == TANGENT:
                block = rng.standard_normal(shape)
            elif slot == TIME:
                block = rng.random(n)
            elif self.ball is not None:
                block = rng.standard_normal(shape), rng.random(n)
            else:
                block = np.array([sampler(rng) for _ in range(n)],
                                 dtype=float).reshape(shape)
            self.slots.append(block)

    def points(self, slot):
        if self.ball is None:
            return self.slots[slot]
        g, s = self.slots[slot]
        # _place takes its radius power on Python floats
        return self.ball._place(
            self.kernel._unit_tangents(self.ball.center, g, self.rng),
            s.tolist())


def _rows(**rows):
    """witness(i, margin, **more): row i of each named array (a copy,
    or a float for an array of scalars), then more, then the margin."""
    return lambda i, margin, **more: {
        **{k: a[i].copy() if a.ndim > 1 else float(a[i])
           for k, a in rows.items()}, **more, "margin": margin}


# ---------------------------------------------------------------------------
# the worst margin and the five notions
# ---------------------------------------------------------------------------

def _worst_case(notion, alpha, n_samples, margins, witness):
    """Stage 3 of every certificate: the first lowest of the float
    array margins, one per row, +inf for a row with nothing to certify
    or one that left the race of _clearances.  witness(i, margin) is
    the witness of the row kept; with no row below +inf (no rows, or
    all +inf) the worst margin is +inf and the witness empty.  A NaN
    margin is a violation: it counts as -inf, and the witness says
    so."""
    low = np.append(np.where(np.isnan(margins), -np.inf, margins), np.inf)
    best = int(np.argmin(low))  # the first of the lowest
    worst, found = float(low[best]), {}
    if worst < np.inf:
        found = witness(best, worst)
        if np.isnan(margins[best]):
            found["reason"] = "margin is NaN"
    return ConvexityCertificate(notion, alpha, int(n_samples), worst, found)


def _double_geodesic(cset, alpha, distance, rng, n_samples):
    """Sample chords (x, y) and times t; every z at m = gamma(t) with
    norm(z) <= rho = alpha*t*(1-t)*d(x,y)^2 must exponentiate into the
    set.  d is distance(kernel, x, y), called once on the stacked
    chords, or the Riemannian distance when distance is None.

    On a GeodesicBall of center c and radius r the margin is exact:
    max(r + MEMBERSHIP_TOL - d(c, m), 0) - rho, one stacked dist call.
    d(c, exp_m(s u)) <= d(c, m) + s for every unit u by the triangle
    inequality, with equality along the outward radial geodesic, which
    is minimizing on every ball the kernels accept (r < pi/2 on the
    sphere, any r on the Hadamard kernels); a start outside the ball
    travels 0, as in _clearances.  The witness direction is the unit
    outward radial one, -log_m(c) normalised, from one single log call;
    where m is the center, as every direction is worst there, the unit
    tangent of its row's normal, the one row made so.  Any other set
    probes the drawn u, bisected on membership (_clearances; a missing
    exp counts as failure).  The blocks are the same on every set."""
    k = cset.kernel
    draws = _Draws(cset, rng, n_samples, (POINT, POINT, TIME, TANGENT))
    x, y, t = draws.points(0), draws.points(1), draws.slots[2]
    d = k.dist(x, y) if distance is None else distance(k, x, y)
    m = k.geodesic(x, y, t)
    rho = alpha * t * (1.0 - t) * d * d
    ball = _ball_of(cset.membership, GeodesicBall.membership)
    if ball is None:
        u = k._unit_tangents(m, draws.slots[3], draws.rng)
        return (_clearances(cset, m, u, rho),
                _rows(x=x, y=y, t=t, direction=u, required=rho))
    travel = ball._slack(m)
    margins = np.maximum(travel, 0.0) - rho  # NaN kept
    rows = _rows(x=x, y=y, t=t)

    def witness(i, margin):
        g = k.log(m[i], ball.center)
        size = k._norm(m[i], g)
        u = (-g / size if size > 1e-12
             else k._unit_tangents(m[i], draws.slots[3][i], draws.rng))
        return rows(i, margin, direction=u, required=float(rho[i]))
    return margins, witness


def _geodesic(cset, alpha, distance, rng, n_samples):
    """The metric ball of radius alpha*t*(1-t)*d(x,y)^2 around gamma(t)
    stays in the set: the double geodesic notion with the Riemannian
    distance, whatever distance the caller passes."""
    return _double_geodesic(cset, alpha, None, rng, n_samples)


def _riemannian(cset, alpha, distance, rng, n_samples):
    """Strong convexity of the tangent-space pullback log_x(C),
    uniformly over sampled base points x in C.  On a GeodesicBall each
    row is probed along two directions, racing in one _clearances call,
    and keeps the lower margin: the drawn z and the outward direction
    combo - log_x(center), normalised at x (z alone where that vector
    vanishes).  A clearance below the required one in any direction is
    a violation, and a random z in a high-dimensional tangent space
    rarely points out of the ball.  The witness names the direction
    that won, z on a tie."""
    k = cset.kernel
    draws = _Draws(cset, rng, n_samples, (POINT, POINT, POINT, TIME, TANGENT))
    x = draws.points(0)
    p, q = k.log(x, draws.points(1)), k.log(x, draws.points(2))
    t = draws.slots[3]
    pq, tc = p - q, _col(t, len(k.point_shape))
    rho = alpha * t * (1.0 - t) * k._inner(x, pq, pq)
    combo = (1.0 - tc) * p + tc * q
    z = k._unit_tangents(x, draws.slots[4], draws.rng)
    ball = _ball_of(cset.membership, GeodesicBall.membership)
    out, o = np.arange(0), z[:0]  # the outward rows and their directions
    if ball is not None:
        v = combo - k.log(x, ball.center)
        size = k._norm(x, v)
        out = np.flatnonzero(size > 1e-12)
        o = v[out] / _col(size[out], len(k.point_shape))
    both = _clearances(cset, *(np.concatenate((a, b)) for a, b in (
        (x, x[out]), (z, o), (rho, rho[out]), (combo, combo[out]))))
    n, direction = len(x), z.copy()
    margins = both[:n]
    lower = both[n:] < margins[out]  # z kept on a tie
    margins[out[lower]] = both[n:][lower]
    direction[out[lower]] = o[lower]
    return (margins,
            _rows(x=x, p=p, q=q, t=t, direction=direction, required=rho))


def _scaling(cset, alpha, distance, rng, n_samples, approx=False):
    """At the oracle vertex v for a unit direction w at x in C, require
    <w, log_x(v)> >= alpha * norm(w) * dist(x, v)^2.

    With approx, the approximate scaling inequality: the lower bound is
    offset by <w, r(x)> with r(x) = R_x(log_x(v)/2, omega), the
    residual of the double exponential map along the half chord.  omega
    = (alpha d^2/4) w: transporting the scaled direction to the midpoint
    and back is the identity, and residual makes the one transport
    itself.  A row with d < 1e-12 has nothing to certify (a degenerate
    set).  A residual that leaves the exp domain, a NaN row of the
    stacked call, counts as a violation (margin -inf), as a missing exp
    does for the membership notions; the witness row's single call
    names the error."""
    if cset.lmo is None:
        notion = "approx_scaling" if approx else "scaling"
        raise ConfigError(f"{notion}: set has no oracle")
    k = cset.kernel
    draws = _Draws(cset, rng, n_samples, (POINT, TANGENT))
    x = draws.points(0)
    w = k._unit_tangents(x, draws.slots[1], draws.rng)
    res = cset.lmo(w, x)
    v, lx = res.vertex, res.log
    lhs = np.asarray(res.objective, dtype=float)
    if not approx:
        margins = lhs - alpha * k._inner(x, lx, lx)
        return margins, _rows(x=x, w=w, vertex=v, lhs=lhs)
    d = k.dist(x, v)
    omega = _col(0.25 * alpha * d * d, len(k.point_shape)) * w
    r_x = residual(k, x, 0.5 * lx, omega)
    wr = k._inner(x, w, r_x)
    margins = np.where(np.isnan(wr), -np.inf, lhs - alpha * d * d - wr)
    margins = np.where(d < 1e-12, np.inf, margins)
    found = _rows(x=x, w=w, vertex=v, lhs=lhs, residual=r_x)
    failed = _rows(x=x, w=w, vertex=v)

    def witness(i, margin):
        try:
            if wr[i] != wr[i]:  # a NaN row: its single call names the error
                residual(k, x[i], 0.5 * lx[i], omega[i])
        except DomainError as exc:
            return failed(i, margin, domain_error=str(exc))
        return found(i, margin)
    return margins, witness


_NOTIONS = {"geodesic": _geodesic, "riemannian": _riemannian,
            "double_geodesic": _double_geodesic, "scaling": _scaling,
            "approx_scaling": partial(_scaling, approx=True)}

NOTIONS = tuple(_NOTIONS)


def run_checker(notion, cset, alpha, n_samples, rng, distance=None):
    """Certificate for one notion (see NOTIONS) by sampling, for a
    finite alpha >= 0 and an integer n_samples >= 0.  distance(kernel,
    x, y), a distance equivalent to the Riemannian one taken on stacked
    chords, only matters to double_geodesic; None is kernel.dist."""
    if notion not in _NOTIONS:
        raise ConfigError(f"unknown notion '{notion}'")
    if not 0.0 <= alpha < np.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    margins, witness = _NOTIONS[notion](cset, alpha, distance, rng,
                                        n_samples)
    return _worst_case(notion, alpha, n_samples, margins, witness)


def estimate_alpha(cset, notion, n_samples, rng):
    """Largest alpha (within 2%, relative) passing the checker at the
    given sample budget, with the Riemannian distance.  Bisection over
    [0, 10/diameter]; every probe replays the same sample stream so the
    pass/fail threshold is sharp.  When the cap 10/diameter passes, it
    is returned with a warning on the rfw logger."""
    if cset.diameter is None:
        raise ConfigError("estimate_alpha: set needs a diameter hint")
    hi = 10.0 / cset.diameter
    probe_seed = int(rng.integers(0, 2 ** 62))

    def passes(alpha):
        prng = np.random.default_rng(probe_seed)
        return run_checker(notion, cset, alpha, n_samples, prng).passed

    if passes(hi):
        log.warning("estimate_alpha: %s saturates at its cap alpha = "
                    "10/diameter = %.6g", notion, hi)
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
    declared geodesic constants: finite mu and L, and fstar None or
    finite (an infinite one would make every check pass)."""

    kernel: Manifold
    value_grad: Callable
    mu: float
    L: float
    fstar: Optional[float] = None
    xstar: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.L)
                and (self.fstar is None or np.isfinite(self.fstar))):
            raise ConfigError("SmoothStronglyConvexFn: need finite mu and L "
                              "and fstar None or finite, got "
                              f"{self.mu}, {self.L}, {self.fstar}")
        if self.xstar is not None:
            _, g = self.value_grad(self.xstar)
            if self.kernel.norm(self.xstar, g) > 1e-8:
                raise ContractError(
                    "SmoothStronglyConvexFn: grad(xstar) is not zero")


def _value_grads(value_grad, x):
    """f and grad f at the stacked points x, in row order: a float
    array, and the gradients stacked like x (also with no rows)."""
    pairs = [value_grad(p) for p in x]
    return (np.array([f for f, _ in pairs], dtype=float),
            np.array([g for _, g in pairs], dtype=float).reshape(x.shape))


def check_smoothness_gradient_bound(fn, cset, n_samples, rng):
    """Self-bounding property of smooth functions: norm(grad f(x)) <=
    sqrt(2 L (f(x) - fstar)) on the set."""
    if fn.fstar is None:
        raise ConfigError("check_smoothness_gradient_bound: fstar required")
    x = _Draws(cset, rng, n_samples, (POINT,)).points(0)
    fx, gx = _value_grads(fn.value_grad, x)
    gap = fx - fn.fstar
    gap = np.where(0.0 > gap, 0.0, gap)  # max(gap, 0.0), NaN kept
    margins = np.sqrt(2.0 * fn.L * gap) - cset.kernel.norm(x, gx)
    return _worst_case("smoothness_gradient_bound", None, n_samples,
                       margins, _rows(x=x))


def check_gconvexity_of_function(fn, cset, n_samples, rng):
    """Geodesic mu-strong-convexity and L-smoothness inequalities of fn
    along sampled chords of the set; the worst of the two margins is
    reported, and a NaN in either makes the sample a violation."""
    k = cset.kernel
    draws = _Draws(cset, rng, n_samples, (POINT, POINT, TIME))
    x, y, t = draws.points(0), draws.points(1), draws.slots[2]
    d, lxy = k.dist(x, y), k.log(x, y)
    mid = k.exp(x, _col(t, len(k.point_shape)) * lxy)  # geodesic's bits
    f, g = _value_grads(fn.value_grad, np.concatenate((x, y, mid)))
    fx, fy, fmid = f.reshape(3, len(x))
    convexity = ((1.0 - t) * fx + t * fy
                 - 0.5 * fn.mu * t * (1.0 - t) * d * d - fmid)
    lin = fy - fx - k.inner(x, g[:len(x)], lxy)
    smooth = 0.5 * fn.L * d * d - np.abs(lin)
    # min(convexity, smooth), keeping a NaN in either
    worse = np.where((smooth < convexity) | np.isnan(smooth), smooth,
                     convexity)
    rows = _rows(x=x, y=y, t=t, convexity=convexity, smoothness=smooth)

    def witness(i, margin):
        found = rows(i, margin)
        del found["margin"]
        return found
    return _worst_case("gconvexity", None, n_samples, worse, witness)


def min_gradient_norm(objective, cset, n_samples, rng):
    """Empirical min of norm(grad) over sampled points of the set; the
    lower bound fed to the contraction check when the unconstrained
    optimum lies outside the set.  A NaN norm raises NumericsError: it
    would otherwise hide a sample and overstate the bound."""
    x = _Draws(cset, rng, n_samples, (POINT,)).points(0)
    norms = cset.kernel.norm(x, _value_grads(objective.value_grad, x)[1])
    if np.isnan(norms).any():
        raise NumericsError("min_gradient_norm: a gradient norm is NaN")
    return float(norms.min(initial=np.inf))
