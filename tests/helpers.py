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
# The certifiers as a loop over samples, each drawn and measured on its
# own with the scalar kernel calls.  run_checker builds a certificate's
# whole sample as stacked arrays instead, from the same random stream,
# and must give the same certificate bit for bit.  The membership
# notions' clearances are bisected here ray by ray, with no code shared
# with the stacked bisection of rfw.convexity.

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


def _reference_draws(cset, alpha, distance):
    from rfw.convexity import residual
    from rfw.errors import DomainError
    k = cset.kernel

    def double_geodesic(rng, worst, distance=distance):
        x, y = cset.sampler(rng), cset.sampler(rng)
        t = rng.uniform()
        d = k.dist(x, y) if distance is None else distance(k, x, y)
        m = k.geodesic(x, y, t)
        rho = alpha * t * (1.0 - t) * d * d
        u = k.random_unit_tangent(m, rng)
        margin = ray_margin(cset, lambda s: k.exp(m, s * u), rho, worst)
        if margin is None:
            return None
        return margin, {"x": x, "y": y, "t": t, "direction": u,
                        "required": rho, "margin": margin}

    def riemannian(rng, worst):
        x = cset.sampler(rng)
        p = k.log(x, cset.sampler(rng))
        q = k.log(x, cset.sampler(rng))
        t = rng.uniform()
        pq = p - q
        combo = (1.0 - t) * p + t * q
        rho = alpha * t * (1.0 - t) * k._inner(x, pq, pq)
        zdir = k.random_unit_tangent(x, rng)
        margin = ray_margin(cset, lambda s: k.exp(x, combo + s * zdir),
                            rho, worst)
        if margin is None:
            return None
        return margin, {"x": x, "p": p, "q": q, "t": t, "direction": zdir,
                        "required": rho, "margin": margin}

    def scaling(rng, worst):
        x = cset.sampler(rng)
        w = k.random_unit_tangent(x, rng)
        res = cset.lmo(w, x)
        margin = res.objective - alpha * k._inner(x, res.log, res.log)
        return margin, {"x": x, "w": w, "vertex": res.vertex,
                        "lhs": res.objective, "margin": margin}

    def approx_scaling(rng, worst):
        x = cset.sampler(rng)
        w = k.random_unit_tangent(x, rng)
        res = cset.lmo(w, x)
        v, lx = res.vertex, res.log
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
        return margin, {"x": x, "w": w, "vertex": v, "lhs": res.objective,
                        "residual": r_x, "margin": margin}

    return {"geodesic": lambda rng, worst: double_geodesic(rng, worst, None),
            "riemannian": riemannian, "double_geodesic": double_geodesic,
            "scaling": scaling, "approx_scaling": approx_scaling}


def _reference_worst(notion, alpha, n_samples, rng, draw, refine_all):
    from rfw.convexity import ConvexityCertificate
    worst, witness = np.inf, {}
    for _ in range(n_samples):
        sample = draw(rng, np.inf if refine_all else worst)
        if sample is None:
            continue
        margin, wit = sample
        if margin != margin:
            margin, wit = -np.inf, {**wit, "reason": "margin is NaN"}
            if "margin" in wit:
                wit["margin"] = margin
        if margin < worst:
            worst, witness = margin, wit
    return ConvexityCertificate(notion, alpha, n_samples, float(worst),
                                witness)


def reference_certificate(notion, cset, alpha, n_samples, rng, distance=None,
                          refine_all=False):
    """run_checker as a loop over samples.  With refine_all, every
    membership sample's clearance is bisected, not only those that can
    lower the worst margin."""
    draw = _reference_draws(cset, alpha, distance)[notion]
    return _reference_worst(notion, alpha, n_samples, rng, draw, refine_all)


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
    loop over samples."""
    k = cset.kernel

    def smoothness(rng, worst):
        x = cset.sampler(rng)
        fx, gx = fn.value_grad(x)
        gap = max(fx - fn.fstar, 0.0)
        margin = np.sqrt(2.0 * fn.L * gap) - k.norm(x, gx)
        return margin, {"x": x, "margin": margin}

    def gconvexity(rng, worst):
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
        margin = np.nan if np.isnan(smooth) else min(convexity, smooth)
        return margin, {"x": x, "y": y, "t": t, "convexity": convexity,
                        "smoothness": smooth}

    draw = {"gconvexity": gconvexity,
            "smoothness_gradient_bound": smoothness}[check]
    return _reference_worst(check, None, n_samples, rng, draw, False)
