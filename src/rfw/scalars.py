"""One-dimensional solvers: a golden-section search for a minimizer
(the solver's line search) and a bracketing root finder (Chandrupatla's
method, the ball oracle's refinement), each on a function value alone.
The root finder also runs row-wise, on arrays of brackets, and starts
from the values at the bracket ends when its caller has measured them;
its row-wise step (_step_point, _step_fraction) also brackets the
clearances along rays of rfw.convexity, on every set."""

import math

import numpy as np

from .errors import BracketError

# Python floats: golden-section steps in numpy scalars take ~3x as long
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def minimize_1d(fun, lo, hi, tol=1e-12):
    """Golden-section search for a minimizer of fun on [lo, hi].

    Returns (x, fun(x)) once the bracket is <= tol wide, or after 200
    steps (a tol below the float spacing of the bracket is never met).
    Assumes fun is unimodal on the interval; on a multimodal function it
    finds some local minimizer, so callers seed several brackets.
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if not h > tol:
            break
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


def bisect_root(fun, lo, hi, tol=1e-12, ends=None):
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
    <= tol wide, or after 200 steps.  ends, if given, is (fun(lo),
    fun(hi)) as the caller measured it: the same root, two calls fewer.

    With arrays lo and hi each row is a bracket of its own: fun maps an
    array of points, one per row, to their values (ends, if given, are
    two such arrays), and the roots come back as an array, each row's
    the one a call on that row returns.
    """
    if np.ndim(lo):
        return _bisect_rows(fun, np.array(lo, dtype=float),
                            np.array(hi, dtype=float), tol, ends)
    a, b = float(lo), float(hi)
    fa, fb = (fun(a), fun(b)) if ends is None else ends
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


def _bisect_rows(fun, a, b, tol, ends):
    """bisect_root over rows: each row takes the scalar call's steps in
    the same arithmetic.  A row's bracket is its only state: a root, at
    an end (lo's first, as the scalar call checks them) or at a step,
    closes the bracket on itself, and a row is done once its bracket is
    <= tol wide (as in scipy's row-wise Chandrupatla).  fun is called on
    every row at each step; a done row is held at its bracket's a."""
    fa, fb = (fun(a), fun(b)) if ends is None else ends
    unbracketed = np.count_nonzero(fa * fb > 0.0)
    if unbracketed:
        raise BracketError(f"bisect_root: no sign change on {unbracketed} "
                           f"of {a.size} rows")
    b, fb = np.where(fa == 0.0, a, b), np.where(fa == 0.0, fa, fb)
    a, fa = np.where(fb == 0.0, b, a), np.where(fb == 0.0, fb, fa)
    t = np.full(a.shape, 0.5)
    # a done row's bracket may have shrunk to a point, and its values
    # are never used: its divisions may fail silently
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            live = ~(np.abs(b - a) <= tol)
            if not live.any():
                break
            x = np.where(live, _step_point(a, b, t, tol), a)
            fx = fun(x)
            # a is the newest point, [a, b] the bracket, c the point
            # dropped; a root is both a and b
            same = (fx > 0.0) == (fa > 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            flip = live & ~same
            b, fb = np.where(flip, a, b), np.where(flip, fa, fb)
            a, fa = np.where(live, x, a), np.where(live, fx, fa)
            hit = live & (fx == 0.0)
            b, fb = np.where(hit, a, b), np.where(hit, fa, fb)
            t = _step_fraction(a, fa, b, fb, c, fc)
    return np.where(np.abs(fa) < np.abs(fb), a, b)


def _step_point(a, b, t, tol):
    """Chandrupatla's next point a + t (b - a) of rows of brackets
    [a, b], a the newest point, with t held at least tol/2 from either
    end."""
    edge = 0.5 * tol / np.abs(b - a)
    t = np.where(t < edge, edge, np.where(t > 1.0 - edge, 1.0 - edge, t))
    return a + t * (b - a)


def _step_fraction(a, fa, b, fb, c, fc):
    """Chandrupatla's next t for rows: a is the newest point, [a, b] the
    bracket and c the point dropped, with values fa, fb, fc.  The
    inverse quadratic step through the three points where their values
    are monotone enough to trust it, else 0.5 (a NaN value fails the
    test).  The divisions of a row that fails it may fail too: callers
    silence numpy's warnings."""
    xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
    return np.where((ph * ph < xi) & ((1.0 - ph) * (1.0 - ph) < 1.0 - xi),
                    fa / (fb - fa) * fc / (fb - fc)
                    + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
                    0.5)
