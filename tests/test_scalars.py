import math

import numpy as np
import pytest

from rfw import BracketError, bisect_root, minimize_1d


def test_golden_section_parabola():
    # argument accuracy is sqrt(eps)-limited once f-values tie
    x, fx = minimize_1d(lambda t: (t - 0.3) ** 2 + 1.0, -2.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_section_nonsmooth():
    x, _ = minimize_1d(lambda t: abs(t - np.pi / 10), 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(np.pi / 10, abs=1e-8)


def test_golden_section_endpoint_minimum():
    x, fx = minimize_1d(lambda t: t, 2.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-9)
    assert fx == pytest.approx(x)


@pytest.mark.parametrize("lo,hi,tol", [(1e6, 1e6 + 1.0, 1e-12),
                                        (0.0, 1.0, 0.0)])
def test_golden_section_stops_below_the_float_spacing(lo, hi, tol):
    # no bracket of floats gets <= tol wide: the search stops after 200
    # steps (fun raises, where an uncapped search would hang)
    calls = [0]

    def f(t):
        calls[0] += 1
        if calls[0] > 1000:
            raise RuntimeError("minimize_1d does not stop")
        return (t - lo - 0.3) ** 2
    x, fx = minimize_1d(f, lo, hi, tol=tol)
    assert calls[0] == 2 + 200 + 1
    assert abs(x - (lo + 0.3)) <= 1e-6 and fx == f(x)


def test_bisect_root_cosine():
    r = bisect_root(np.cos, 0.0, 2.0)
    assert r == pytest.approx(np.pi / 2, abs=1e-11)


def test_bisect_root_is_superlinear_on_a_smooth_root():
    # plain bisection from a width-2 bracket to 1e-12 takes 43 evaluations
    calls = []

    def f(t):
        calls.append(t)
        return math.cos(t)
    r = bisect_root(f, 0.0, 2.0, tol=1e-12)
    assert abs(r - np.pi / 2) <= 1e-12
    assert len(calls) <= 12


@pytest.mark.parametrize("fun,lo,hi,root", [
    (lambda t: t ** 3, -1.0, 2.0, 0.0),
    (lambda t: math.tanh(1e6 * (t - 0.3)), 0.0, 1.0, 0.3)],
    ids=["triple-root", "near-step"])
def test_bisect_root_lands_within_tol_where_interpolation_fails(fun, lo, hi,
                                                                root):
    for tol in (1e-12, 1e-14):
        assert abs(bisect_root(fun, lo, hi, tol=tol) - root) <= tol


def test_bisect_root_accepts_root_at_endpoint():
    assert bisect_root(lambda t: t, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_bisect_root_requires_sign_change():
    with pytest.raises(BracketError):
        bisect_root(lambda t: 1.0 + t * t, -1.0, 1.0)


def _cubic(x, r, s):
    return s * (x - r) ** 3 + 0.1 * (x - r)


def _cubic_rows():
    """(lo, hi, r, s): rows of brackets of _cubic with roots r at lo
    (rows 0-2), at hi (3-5), a bracket <= tol wide (6), and random
    brackets, on many of which a step lands on the root itself."""
    rng = np.random.default_rng(0)
    n = 200
    r, s = rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 3.0, n)
    lo = r - rng.uniform(1e-13, 2.0, n)
    hi = r + rng.uniform(1e-13, 2.0, n)
    lo[:3], hi[3:6] = r[:3], r[3:6]
    lo[6], hi[6] = r[6] - 4e-13, r[6] + 4e-13
    return lo, hi, r, s


def test_bisect_root_rows_take_the_single_calls_steps():
    # each row of an array bracket is the call on that row, bit for bit,
    # when fun has the same arithmetic on arrays as on floats; rows with
    # a root at an end, or a closed bracket, stop at once
    lo, hi, r, s = _cubic_rows()
    roots = bisect_root(lambda x: _cubic(x, r, s), lo, hi, tol=1e-12)
    for i in range(len(lo)):
        assert roots[i] == bisect_root(
            lambda x: _cubic(x, r[i], s[i]), lo[i], hi[i], tol=1e-12)
    with pytest.raises(BracketError, match="1 of 3 rows"):
        bisect_root(np.cos, np.array([0.0, 0.0, 2.0]),
                    np.array([2.0, 1.0, 5.0]))


def _counted(fun):
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)
    return counted, calls


@pytest.mark.parametrize("fun,lo,hi", [
    (math.cos, 0.0, 2.0),
    (lambda t: t, 0.0, 1.0),
    (lambda t: t - 1.0, 0.0, 1.0),
    (lambda t: t * (t - 1.0), 0.0, 1.0),
    (lambda t: t - 0.5, 0.5 - 4e-13, 0.5 + 4e-13),
    (lambda t: t ** 3, -1.0, 2.0)],
    ids=["smooth", "root-at-lo", "root-at-hi", "roots-at-both-ends",
         "closed-bracket", "triple-root"])
def test_bisect_root_from_measured_ends_is_the_same_search(fun, lo, hi):
    # ends the caller measured replace the first two calls of fun, and
    # nothing else changes
    counted, calls = _counted(fun)
    root = bisect_root(counted, lo, hi)
    counted_ends, calls_ends = _counted(fun)
    again = bisect_root(counted_ends, lo, hi, ends=(fun(lo), fun(hi)))
    assert math.copysign(1.0, again) == math.copysign(1.0, root)
    assert again == root and calls_ends == calls[2:]


def test_bisect_rows_from_measured_ends_are_the_same_search():
    lo, hi, r, s = _cubic_rows()

    def cubic(x):
        return _cubic(x, r, s)
    counted, calls = _counted(cubic)
    roots = bisect_root(counted, lo, hi, tol=1e-12)
    counted_ends, calls_ends = _counted(cubic)
    again = bisect_root(counted_ends, lo, hi, tol=1e-12,
                        ends=(cubic(lo), cubic(hi)))
    assert again.tobytes() == roots.tobytes()
    assert len(calls_ends) == len(calls) - 2
    for x, y in zip(calls_ends, calls[2:]):
        assert x.tobytes() == y.tobytes()


def test_bisect_root_from_measured_ends_needs_a_sign_change():
    with pytest.raises(BracketError, match=r"f\(lo\)=2, f\(hi\)=2"):
        bisect_root(lambda t: 1.0 + t * t, -1.0, 1.0, ends=(2.0, 2.0))
    lo, hi = np.array([0.0, 0.0, 2.0]), np.array([2.0, 1.0, 5.0])
    with pytest.raises(BracketError, match="1 of 3 rows"):
        bisect_root(np.cos, lo, hi, ends=(np.cos(lo), np.cos(hi)))
