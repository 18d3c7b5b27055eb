"""One-dimensional solvers used by the linear minimization oracles: a
golden-section search for a minimizer and a bracketing root finder
(Chandrupatla's method), each on a function value alone."""

import numpy as np

from .errors import BracketError

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0   # 1/phi
INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def minimize_1d(fun, lo, hi, tol=1e-12):
    """Golden-section search for a minimizer of fun on [lo, hi].

    Returns (x, fun(x)) with the final bracket width <= tol.  Assumes
    fun is unimodal on the interval; on a multimodal function it finds
    some local minimizer, so callers seed several brackets.
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc, fd = fun(c), fun(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def bisect_root(fun, lo, hi, tol=1e-12):
    """Root of fun on [lo, hi] by Chandrupatla's bracketing method: an
    inverse quadratic step through the last three points where their
    values are monotone enough to trust it, a bisection step otherwise
    (Chandrupatla 1997, "A new hybrid quadratic/bisection algorithm for
    finding the zero of a nonlinear function without using
    derivatives").  Each step lands at least tol/2 inside the bracket,
    so the one next to the root closes it.

    Requires fun(lo) and fun(hi) to have opposite signs (or one of them
    to vanish); raises BracketError otherwise.  Returns the end of the
    sign-change bracket with the smaller |fun| once the bracket is
    <= tol wide, or after 200 steps.
    """
    a, b = float(lo), float(hi)
    fa, fb = fun(a), fun(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(
            f"bisect_root: no sign change on [{a:.6g}, {b:.6g}] "
            f"(f(lo)={fa:.6g}, f(hi)={fb:.6g})")
    t = 0.5
    for _ in range(200):
        width = abs(b - a)
        if width <= tol:
            break
        edge = 0.5 * tol / width
        if t < edge:  # conditionals run several times faster than min(max())
            t = edge
        elif t > 1.0 - edge:
            t = 1.0 - edge
        x = a + t * (b - a)
        fx = fun(x)
        if fx == 0.0:
            return x
        # a is the newest point, [a, b] the bracket, c the point dropped
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if ph * ph < xi and (1.0 - ph) * (1.0 - ph) < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
    return a if abs(fa) < abs(fb) else b
