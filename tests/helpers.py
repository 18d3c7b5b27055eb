"""Shared fixtures-free utilities for the test suite."""

import numpy as np

from rfw.scalars import bisect_root


def ball_quadratic_fstar(matrix, target, center, radius):
    """Exact optimum of 0.5 (x-t)' A (x-t) over a Euclidean ball,
    solved through the dual: find lam >= 0 with ||x(lam) - center|| =
    radius where x(lam) = (A + lam I)^-1 (A t + lam center).  Serves as
    an independent reference for the solver's constrained optimum."""
    matrix = np.asarray(matrix, dtype=float)
    target = np.asarray(target, dtype=float)
    n = len(target)
    eye = np.eye(n)

    def x_of(lam):
        return np.linalg.solve(matrix + lam * eye,
                               matrix @ target + lam * center)

    def phi(lam):
        return np.linalg.norm(x_of(lam) - center) - radius

    if phi(0.0) <= 0.0:
        xs = x_of(0.0)
    else:
        hi = 1.0
        while phi(hi) > 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise RuntimeError("dual variable does not bracket")
        lam = bisect_root(phi, 0.0, hi, tol=1e-15)
        xs = x_of(lam)
    d = xs - target
    return 0.5 * float(d @ matrix @ d), xs


def alpha_phi_bisect(a, b, c):
    """rfw.balls.alpha_phi_sphere by a scan of [0, 2pi] and `bisect_root`,
    outside the oracle's regime too: an independent reference."""
    f = lambda t: a * np.cos(t) + b * np.sin(t) - c
    grid = np.linspace(0.0, 2.0 * np.pi, 721)
    vals = f(grid)
    for i in range(720):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] <= 0.0:
            return float(bisect_root(f, grid[i], grid[i + 1], tol=1e-14))
    raise AssertionError("alpha_phi_sphere: no root located on (0, 2pi]")


def fd_directional(kernel, value, x, u, h=1e-6):
    """Central finite difference of a scalar field along exp(x, t u)."""
    return (value(kernel.exp(x, h * u)) - value(kernel.exp(x, -h * u))) / (2 * h)


def hadamard_slacks(kernel, n_samples, rng, spread=2.0):
    """Worst slacks of the two nonpositive-curvature inequalities over
    random geodesic triangles: tangent chords never exceed distances,
    and squared distance is 1-strongly convex along geodesics."""
    cos_min, npc_min = np.inf, np.inf
    for _ in range(n_samples):
        x = kernel.random_point(rng)
        a = kernel.exp(x, rng.uniform(0, spread)
                       * kernel.random_unit_tangent(x, rng))
        b = kernel.exp(x, rng.uniform(0, spread)
                       * kernel.random_unit_tangent(x, rng))
        chord = kernel.norm(x, kernel.log(x, a) - kernel.log(x, b))
        cos_min = min(cos_min, kernel.dist(a, b) - chord)
        t = rng.uniform()
        g = kernel.geodesic(a, b, t)
        lhs = kernel.dist(x, g) ** 2
        rhs = ((1 - t) * kernel.dist(x, a) ** 2
               + t * kernel.dist(x, b) ** 2
               - t * (1 - t) * kernel.dist(a, b) ** 2)
        npc_min = min(npc_min, rhs - lhs)
    return cos_min, npc_min


def geometry_invariant_worst(kernel, n_samples, rng, spread=1.0):
    """Worst absolute error over random draws of the core kernel
    invariants: exp/log roundtrip, dist = |log|, geodesic speed,
    transport isometry, and unit-speed exp."""
    worst = 0.0
    for _ in range(n_samples):
        x = kernel.random_point(rng)
        u = spread * kernel.random_unit_tangent(x, rng)
        s = rng.uniform(0.05, 1.0)
        y = kernel.exp(x, s * u)
        worst = max(worst, abs(kernel.dist(x, y) - s * kernel.norm(x, u)))
        back = kernel.log(x, y)
        worst = max(worst, kernel.norm(x, back - s * u))
        t = rng.uniform()
        worst = max(worst, abs(kernel.dist(x, kernel.geodesic(x, y, t))
                               - t * kernel.dist(x, y)))
        v = rng.uniform(0.1, 2.0) * kernel.random_unit_tangent(x, rng)
        w = rng.uniform(0.1, 2.0) * kernel.random_unit_tangent(x, rng)
        tv = kernel.transport(x, y, v)
        tw = kernel.transport(x, y, w)
        worst = max(worst, abs(kernel.inner(y, tv, tw)
                               - kernel.inner(x, v, w)))
    return worst


# ---------------------------------------------------------------------------
# per-sample reference certifiers
# ---------------------------------------------------------------------------
# The certifiers as a loop over samples, each measured on its own with
# the scalar kernel calls.  The draws are the documented blocks, one
# generator call per slot of the certificate's layout: a TANGENT is
# rng.standard_normal((n,) + point_shape), a TIME rng.random(n), a
# GeodesicBall's POINT its normal block then its uniform block, any
# other set's POINT its sampler called n times.  A unit tangent whose
# projection vanishes is drawn again after all the blocks, slot by
# slot.  run_checker builds a certificate's whole sample as stacked
# arrays instead, and must give the same certificate bit for bit.  The
# membership notions' clearances are bisected here ray by ray, with no
# code shared with the stacked bisection of rfw.convexity; on a ball
# the geodesic notions take the radial margin from single dist and log
# calls instead, and make no unit tangent of their direction normals
# but the witness's own where its midpoint is the center.

LAYOUTS = {  # the slots of one sample, per certificate
    "geodesic": ("point", "point", "time", "tangent"),
    "double_geodesic": ("point", "point", "time", "tangent"),
    "riemannian": ("point", "point", "point", "time", "tangent"),
    "scaling": ("point", "tangent"), "approx_scaling": ("point", "tangent"),
    "smoothness_gradient_bound": ("point",),
    "gconvexity": ("point", "point", "time")}


def sup_member(member_at, hi_cap, resolution):
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


def ray_margin(cset, point_at, required, worst):
    """Margin of the admissible travel distance along the ray s ->
    point_at(s) over the required one, or None when it cannot fall
    below worst, the lowest margin seen so far.  point_at calls exp, and
    leaving the exp domain counts as a violation.

    The clearance is bisected only for a sample that can lower worst:
    the margin is at least -required, and when the point at
    s = required + worst + resolution is a member, the bisection would
    end above s - resolution/2 (its non-member end stays beyond s), a
    margin above worst either way."""
    from rfw.errors import DomainError

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
    return sup_member(member_at, hi_cap, resolution) - required


def unit_rows(kernel, rng, normals, bases):
    """Unit tangents at bases[i] from normals[i], one call per row.  The
    rows whose projection vanished take a fresh normal each, in row
    order, pass after pass until none is left; a row with 64 such
    normals is a ContractError."""
    from rfw.errors import ContractError
    units, bad = [None] * len(normals), range(len(normals))
    for tries in range(64):
        left = []
        for i in bad:
            if tries:
                normals[i] = rng.standard_normal(kernel.point_shape)
            u, ok = kernel._unit_tangent(bases[i], normals[i])
            if ok:
                units[i] = u
            else:
                left.append(i)
        if not left:
            return units
        bad = left
    raise ContractError(f"{kernel.name}: could not draw a unit tangent")


class Blocks:
    """The documented blocks of n samples for a layout, drawn at once;
    point(j) and unit(j, bases) resolve a slot's rows, each called once
    per slot and in slot order."""

    def __init__(self, cset, rng, n, layout):
        from rfw import GeodesicBall
        k = self.kernel = cset.kernel
        self.rng, self.n = rng, n
        ball = getattr(cset.sampler, "__self__", None)
        self.ball = ball if isinstance(ball, GeodesicBall) else None
        self.slots = []
        for slot in layout:
            if slot == "tangent":
                self.slots.append(rng.standard_normal((n,) + k.point_shape))
            elif slot == "time":
                self.slots.append(rng.random(n).tolist())
            elif self.ball is not None:
                self.slots.append((rng.standard_normal((n,) + k.point_shape),
                                   rng.random(n).tolist()))
            else:
                self.slots.append([cset.sampler(rng) for _ in range(n)])

    def point(self, j):
        if self.ball is None:
            return self.slots[j]
        normals, times = self.slots[j]
        units = unit_rows(self.kernel, self.rng, normals,
                          [self.ball.center] * self.n)
        return [self.ball._place(u[None], [s])[0]
                for u, s in zip(units, times)]

    def unit(self, j, bases):
        return unit_rows(self.kernel, self.rng, self.slots[j], bases)


def _reference_samples(cset, alpha, distance, rng, n, notion):
    """Per sample, measure(i, worst) -> (margin, witness) or None, after
    all of the certificate's draws."""
    from rfw import GeodesicBall
    from rfw.balls import MEMBERSHIP_TOL
    from rfw.convexity import residual
    from rfw.errors import DomainError
    k = cset.kernel
    draws = Blocks(cset, rng, n, LAYOUTS[notion])
    ball = getattr(cset.membership, "__self__", None)
    ball = ball if isinstance(ball, GeodesicBall) else None

    def double_geodesic(distance):
        xs, ys, ts = draws.point(0), draws.point(1), draws.slots[2]
        ms = [k.geodesic(x, y, t) for x, y, t in zip(xs, ys, ts)]
        us = draws.unit(3, ms) if ball is None else None

        def measure(i, worst):
            x, y, t, m = xs[i], ys[i], ts[i], ms[i]
            d = k.dist(x, y) if distance is None else distance(k, x, y)
            rho = alpha * t * (1.0 - t) * d * d
            if ball is not None:  # the outward radial ray, in closed form
                travel = ball.radius + MEMBERSHIP_TOL - k.dist(ball.center, m)
                margin = max(travel, 0.0) - rho
                g = k.log(m, ball.center)
                size = k._norm(m, g)
                if size > 1e-12:
                    u = -g / size
                else:  # m is the center: made for the witness alone
                    u = lambda: unit_rows(k, draws.rng,
                                          draws.slots[3][i:i + 1], [m])[0]
            else:
                u = us[i]
                margin = ray_margin(cset, lambda s: k.exp(m, s * u), rho,
                                    worst)
            if margin is None:
                return None
            return margin, {"x": x, "y": y, "t": t, "direction": u,
                            "required": rho, "margin": margin}
        return measure

    def riemannian():
        xs = draws.point(0)
        ps = [k.log(x, y) for x, y in zip(xs, draws.point(1))]
        qs = [k.log(x, y) for x, y in zip(xs, draws.point(2))]
        ts, zs = draws.slots[3], draws.unit(4, xs)
        center = None if ball is None else ball.center

        def measure(i, worst):
            x, p, q, t = xs[i], ps[i], qs[i], ts[i]
            pq = p - q
            combo = (1.0 - t) * p + t * q
            rho = alpha * t * (1.0 - t) * k._inner(x, pq, pq)
            directions = [zs[i]]
            if center is not None:  # the outward direction of the ball
                v = combo - k.log(x, center)
                size = k._norm(x, v)
                if size > 1e-12:
                    directions.append(v / size)
            best = None
            for u in directions:
                bar = worst if best is None else min(worst, best[0])
                margin = ray_margin(cset, lambda s: k.exp(x, combo + s * u),
                                    rho, bar)
                if margin is not None and (best is None or margin < best[0]):
                    best = margin, u
            if best is None:
                return None
            margin, u = best
            return margin, {"x": x, "p": p, "q": q, "t": t, "direction": u,
                            "required": rho, "margin": margin}
        return measure

    def scaling(approx):
        xs = draws.point(0)
        ws = draws.unit(1, xs)

        def measure(i, worst):
            x, w = xs[i], ws[i]
            res = cset.lmo(w, x)
            v, lx = res.vertex, res.log
            if not approx:
                margin = res.objective - alpha * k._inner(x, lx, lx)
                return margin, {"x": x, "w": w, "vertex": v,
                                "lhs": res.objective, "margin": margin}
            d = k.dist(x, v)
            if d < 1e-12:
                return None
            omega = (0.25 * alpha * d * d) * w
            try:
                r_x = residual(k, x, 0.5 * lx, omega)
            except DomainError as exc:
                return -np.inf, {"x": x, "w": w, "vertex": v,
                                 "domain_error": str(exc), "margin": -np.inf}
            margin = res.objective - alpha * d * d - k._inner(x, w, r_x)
            return margin, {"x": x, "w": w, "vertex": v,
                            "lhs": res.objective, "residual": r_x,
                            "margin": margin}
        return measure

    return {"geodesic": lambda: double_geodesic(None),
            "double_geodesic": lambda: double_geodesic(distance),
            "riemannian": riemannian,
            "scaling": lambda: scaling(False),
            "approx_scaling": lambda: scaling(True)}[notion]()


def _reference_worst(notion, alpha, n_samples, measure, refine_all):
    from rfw.convexity import ConvexityCertificate
    worst, witness = np.inf, {}
    for i in range(n_samples):
        sample = measure(i, np.inf if refine_all else worst)
        if sample is None:
            continue
        margin, wit = sample
        if margin != margin:
            margin, wit = -np.inf, {**wit, "reason": "margin is NaN"}
            if "margin" in wit:
                wit["margin"] = margin
        if margin < worst:
            worst, witness = margin, wit
    # a witness value left as a function is made for the kept row only
    witness = {k: v() if callable(v) else v for k, v in witness.items()}
    return ConvexityCertificate(notion, alpha, n_samples, float(worst),
                                witness)


def reference_certificate(notion, cset, alpha, n_samples, rng, distance=None,
                          refine_all=False):
    """run_checker as a loop over samples.  With refine_all, every
    membership sample's clearance is bisected, not only those that can
    lower the worst margin."""
    measure = _reference_samples(cset, alpha, distance, rng, n_samples,
                                 notion)
    return _reference_worst(notion, alpha, n_samples, measure, refine_all)


def assert_certificates_close(cert, ref, tol):
    """cert is ref up to tol: the same verdict, sample count and witness
    row (its drawn x and w bit for bit), finite margins within tol, and
    every computed witness number within tol.  For certificates whose
    oracle rows may differ from the single calls in the last bits."""
    assert (cert.notion, cert.alpha_tested, cert.samples, cert.passed) == (
        ref.notion, ref.alpha_tested, ref.samples, ref.passed)
    assert np.isfinite(cert.worst_margin) and np.isfinite(ref.worst_margin)
    assert abs(cert.worst_margin - ref.worst_margin) <= tol
    assert set(cert.witness) == set(ref.witness)
    for key in ("x", "w"):
        np.testing.assert_array_equal(cert.witness[key], ref.witness[key])
    for key, value in ref.witness.items():
        np.testing.assert_allclose(cert.witness[key], value, rtol=0.0,
                                   atol=tol)


def reference_function_check(check, fn, cset, n_samples, rng):
    """check_gconvexity_of_function ("gconvexity") or
    check_smoothness_gradient_bound ("smoothness_gradient_bound") as a
    loop over samples, on the documented blocks."""
    k = cset.kernel
    draws = Blocks(cset, rng, n_samples, LAYOUTS[check])
    xs = draws.point(0)
    ys = draws.point(1) if check == "gconvexity" else None

    def smoothness(i, worst):
        x = xs[i]
        fx, gx = fn.value_grad(x)
        gap = max(fx - fn.fstar, 0.0)
        margin = np.sqrt(2.0 * fn.L * gap) - k.norm(x, gx)
        return margin, {"x": x, "margin": margin}

    def gconvexity(i, worst):
        x, y, t = xs[i], ys[i], draws.slots[2][i]
        d = k.dist(x, y)
        fx, gx = fn.value_grad(x)
        fy = fn.value_grad(y)[0]
        fmid = fn.value_grad(k.geodesic(x, y, t))[0]
        convexity = ((1.0 - t) * fx + t * fy
                     - 0.5 * fn.mu * t * (1.0 - t) * d * d - fmid)
        lin = fy - fx - k.inner(x, gx, k.log(x, y))
        smooth = 0.5 * fn.L * d * d - abs(lin)
        margin = np.nan if np.isnan(smooth) else min(convexity, smooth)
        return margin, {"x": x, "y": y, "t": t, "convexity": convexity,
                        "smoothness": smooth}

    measure = {"gconvexity": gconvexity,
               "smoothness_gradient_bound": smoothness}[check]
    return _reference_worst(check, None, n_samples, measure, False)
