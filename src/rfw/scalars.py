"""One-dimensional solvers used by the linear minimization oracles."""

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
    """Bisection for a root of fun on [lo, hi].

    Requires fun(lo) and fun(hi) to have opposite signs (or one of them
    to vanish); raises BracketError otherwise.  Returns x with bracket
    width <= tol, or the midpoint after 200 halvings.
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
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= tol:
            return m
        fm = fun(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
