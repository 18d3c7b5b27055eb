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
