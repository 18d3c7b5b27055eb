import json
from functools import partial

import numpy as np
import pytest

from rfw import (ConfigError, ContractError, ConvexSet, ConvexityCertificate,
                 DomainError, Euclidean, GeodesicBall, Hyperboloid,
                 SmoothStronglyConvexFn, Spd, Sphere, ball_set,
                 ball_strong_convexity_alpha, check_gconvexity_of_function,
                 check_smoothness_gradient_bound, delta, double_exp,
                 estimate_alpha, exp_map_operator, levelset_alpha,
                 min_gradient_norm, residual,
                 riemannian_strong_convexity_radius, run_checker,
                 strong_convexity_radius, zeta)
from rfw.convexity import NOTIONS, _clearances, _replays, _worst_case
from rfw.manifolds import CurvatureInfo

from helpers import (LAYOUTS, Blocks, assert_certificates_close, ray_margin,
                     reference_certificate, reference_function_check,
                     sup_member)


def disk(radius=1.0):
    k = Euclidean(2)
    return k, ball_set(GeodesicBall(k, np.zeros(2), radius))


def cap(radius, n=3, seed=0):
    k = Sphere(n)
    c = k.random_point(np.random.default_rng(seed))
    return k, ball_set(GeodesicBall(k, c, radius))


# ---------------------------------------------------------------------------
# geometric constants
# ---------------------------------------------------------------------------

def test_zeta_values():
    assert zeta(1.0, 0.0) == 1.0
    assert zeta(0.5, 2.0) == 1.0
    assert zeta(1.0, -1.0) == pytest.approx(1.3130352854993315, abs=1e-14)
    assert zeta(2.0, -0.25) == pytest.approx(1.3130352854993315, abs=1e-14)
    with pytest.raises(ContractError):
        zeta(-0.1, -1.0)


def test_delta_values():
    assert delta(1.0, -5.0) == 1.0
    assert delta(1.0, 0.0) == 1.0
    assert delta(0.3, 1.0) == pytest.approx(0.9698184431297483, abs=1e-14)
    with pytest.raises(DomainError):
        delta(0.5 * np.pi, 1.0)
    with pytest.raises(ContractError):
        delta(-1.0, 1.0)


def test_radius_bound_flat_is_infinite():
    assert riemannian_strong_convexity_radius(
        CurvatureInfo(0.0, 0.0), 1.0) == np.inf
    assert strong_convexity_radius(CurvatureInfo(0.0, 0.0)) == np.inf


def test_radius_bound_small_r_limit():
    curv = CurvatureInfo(1.0, 1.0)  # K = 1, F = 0
    assert riemannian_strong_convexity_radius(curv, 1e-9) == pytest.approx(
        0.125, rel=1e-6)


def test_radius_bound_curvature_gradient_term():
    curv = CurvatureInfo(1.0, 1.0, grad_curvature_bound=8.0)
    # K/(4F) = 1/32 binds over 1/(4K) = 1/4
    assert riemannian_strong_convexity_radius(curv, 1e-9) == pytest.approx(
        0.5 * (1.0 / 32.0), rel=1e-6)


def test_sphere_fixed_point_radius():
    r = strong_convexity_radius(Sphere(3).curvature)
    assert r == pytest.approx(np.arctan(1.0 / 8.0), abs=1e-12)
    # self-consistency: the bound evaluated at r returns r
    assert riemannian_strong_convexity_radius(
        Sphere(3).curvature, r) == pytest.approx(r, abs=1e-12)


def test_levelset_alpha_formula():
    assert levelset_alpha(1.0, 1.0, 0.125, 1.0) == pytest.approx(1.0)
    assert levelset_alpha(0.5, 1.0, 0.125, 1.0) == pytest.approx(
        2.0 * levelset_alpha(0.25, 1.0, 0.125, 1.0))
    assert levelset_alpha(1.0, 1.0, 0.5, 1.0) == pytest.approx(0.5)
    # ell < 1 penalizes through max{ell^-2, 1}
    assert levelset_alpha(1.0, 1.0, 0.125, 0.5) == pytest.approx(0.5)
    assert levelset_alpha(1.0, 1.0, 0.125, 3.0) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        levelset_alpha(2.0, 1.0, 0.125)  # mu > L
    with pytest.raises(ContractError):
        levelset_alpha(1.0, 1.0, -0.1)


def test_ball_alpha_at_fixed_point_radius():
    curv = Sphere(3).curvature
    r = strong_convexity_radius(curv)
    assert ball_strong_convexity_alpha(curv, r) == pytest.approx(
        2.0 * np.sqrt(2.0 / 3.0), abs=1e-9)


# ---------------------------------------------------------------------------
# certifiers on flat space, where truth is analytic
# ---------------------------------------------------------------------------

def test_geodesic_disk_passes_at_half_inverse_radius():
    _, cs = disk(1.0)
    cert = run_checker("geodesic", cs, 0.5 * (1 - 1e-3), 300,
                       np.random.default_rng(0))
    assert cert.passed
    assert cert.worst_margin >= 0.0


def test_geodesic_disk_fails_at_two_over_radius():
    _, cs = disk(1.0)
    cert = run_checker("geodesic", cs, 2.0, 400, np.random.default_rng(3))
    assert not cert.passed
    assert cert.worst_margin < -0.1
    for key in ("x", "y", "t", "direction", "required", "margin"):
        assert key in cert.witness


def test_riemannian_reduces_to_geodesic_on_flat_space():
    _, cs = disk(1.0)
    good = run_checker("riemannian", cs, 0.5 * (1 - 1e-3), 300,
                       np.random.default_rng(1))
    bad = run_checker("riemannian", cs, 2.0, 300, np.random.default_rng(1))
    assert good.passed and not bad.passed


def test_scaling_estimate_on_unit_disk():
    _, cs = disk(1.0)
    a = estimate_alpha(cs, "scaling", 2000, np.random.default_rng(5))
    assert a == pytest.approx(0.5, rel=0.08)


def test_estimate_alpha_is_deterministic_in_the_seed():
    _, cs = disk(1.0)
    a1 = estimate_alpha(cs, "scaling", 500, np.random.default_rng(9))
    a2 = estimate_alpha(cs, "scaling", 500, np.random.default_rng(9))
    assert a1 == a2


def test_estimate_alpha_radius_scaling():
    _, cs2 = disk(2.0)
    a = estimate_alpha(cs2, "scaling", 800, np.random.default_rng(6))
    assert a == pytest.approx(0.25, rel=0.1)


def test_halfspace_truncation_kills_alpha():
    # flat boundary face: the feasible alpha drifts to zero with budget
    k = Euclidean(2)

    def member(x, tol=1e-9):
        return np.linalg.norm(x) <= 1.0 + tol and x[0] <= tol

    def sampler(rng):
        while True:
            p = rng.uniform(-1, 1, 2)
            if np.linalg.norm(p) <= 1.0 and p[0] <= 0.0:
                return p

    cs = ConvexSet(k, member, sampler, diameter=2.0)
    a_small = estimate_alpha(cs, "geodesic", 500, np.random.default_rng(11))
    a_large = estimate_alpha(cs, "geodesic", 2000, np.random.default_rng(11))
    assert a_large <= a_small + 1e-12
    assert a_large <= 0.25


def test_flat_space_scaling_equals_approx_scaling():
    _, cs = disk(1.0)
    a = 0.5 * (1 - 1e-3)
    m_sc = run_checker("scaling", cs, a, 300,
                       np.random.default_rng(14)).worst_margin
    m_ap = run_checker("approx_scaling", cs, a, 300,
                       np.random.default_rng(14)).worst_margin
    assert m_sc == pytest.approx(m_ap, abs=1e-14)
    m_dd = run_checker("double_geodesic", cs, a, 300,
                       np.random.default_rng(14)).worst_margin
    assert m_dd >= 0.0


# ---------------------------------------------------------------------------
# sphere caps: the implication chain and the distance-equivalence bridge
# ---------------------------------------------------------------------------

def test_cap_chain_at_critical_radius():
    curv = Sphere(3).curvature
    r = strong_convexity_radius(curv)
    a = ball_strong_convexity_alpha(curv, r)
    _, cs = cap(r, seed=2)
    rng = np.random.default_rng(30)
    assert run_checker("riemannian", cs, a, 250, rng).passed
    assert run_checker("scaling", cs, a, 250, rng).passed
    assert run_checker("geodesic", cs, a, 250, rng).passed
    assert run_checker("approx_scaling", cs, a, 250, rng).passed


def test_double_geodesic_under_homothetic_distance():
    # doubling the distance rescales alpha by 1/4; the required tangent
    # ball is then identical, so the margins agree exactly
    k, cs = cap(0.2, seed=0)
    ag = 0.5 / np.tan(0.2) * (1 - 1e-3)
    base = run_checker("double_geodesic", cs, ag, 400,
                       np.random.default_rng(13))
    scaled = run_checker("double_geodesic", cs, ag / 4.0, 400,
                         np.random.default_rng(13),
                         distance=lambda kk, x, y: 2.0 * kk.dist(x, y))
    assert base.passed and scaled.passed
    assert base.worst_margin == scaled.worst_margin


def test_double_geodesic_exp_existence_counts():
    # alpha so large the tangent ball leaves the sphere's exp domain:
    # the missing point is a violation, not an error
    _, cs = cap(1.2, seed=1)
    cert = run_checker("double_geodesic", cs, 50.0, 200,
                       np.random.default_rng(8))
    assert not cert.passed


def test_sublevel_route_matches_cap_constant():
    # the ball of radius r is the s = r^2/2 sublevel set of
    # 0.5*dist(., center)^2; the sublevel constant is exactly cot(r)/2
    r = 0.3
    a = levelset_alpha(delta(r, 1.0), zeta(r, 1.0), 0.5 * r * r, 1.0)
    assert a == pytest.approx(0.5 / np.tan(r), abs=1e-12)
    _, cs = cap(r, seed=0)
    cert = run_checker("geodesic", cs, a, 500, np.random.default_rng(12))
    assert cert.passed
    assert cert.worst_margin >= 0.0


def test_riemannian_fails_at_inflated_alpha():
    curv = Sphere(3).curvature
    r = strong_convexity_radius(curv)
    a = 1000.0 * ball_strong_convexity_alpha(curv, r)
    _, cs = cap(r, seed=2)
    cert = run_checker("riemannian", cs, a, 200, np.random.default_rng(31))
    assert not cert.passed


# ---------------------------------------------------------------------------
# double exponential map, operator, residual
# ---------------------------------------------------------------------------

def test_double_exp_identities():
    k = Sphere(3)
    rng = np.random.default_rng(20)
    x = k.random_point(rng)
    u = 0.4 * k.random_unit_tangent(x, rng)
    v = 0.3 * k.random_unit_tangent(x, rng)
    np.testing.assert_allclose(double_exp(k, x, u, np.zeros_like(u)),
                               k.exp(x, u), atol=1e-12)
    np.testing.assert_allclose(double_exp(k, x, np.zeros_like(v), v),
                               k.exp(x, v), atol=1e-12)
    ke = Euclidean(3)
    xe, ue, ve = rng.standard_normal(3), rng.standard_normal(3), \
        rng.standard_normal(3)
    np.testing.assert_allclose(double_exp(ke, xe, ue, ve), xe + ue + ve,
                               atol=1e-13)


def test_exp_map_operator_consistency():
    k = Sphere(3)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = k.random_point(rng)
        u = 0.5 * k.random_unit_tangent(x, rng)
        v = 0.4 * k.random_unit_tangent(x, rng)
        h = exp_map_operator(k, x, u, v)
        np.testing.assert_allclose(k.exp(x, h), double_exp(k, x, u, v),
                                   atol=1e-8)


def test_residual_flat_and_collinear_vanish():
    ke = Euclidean(4)
    rng = np.random.default_rng(22)
    x, u, v = rng.standard_normal(4), rng.standard_normal(4), \
        rng.standard_normal(4)
    assert np.linalg.norm(residual(ke, x, u, v)) <= 1e-12
    k = Sphere(3)
    xs = k.random_point(rng)
    w = k.random_unit_tangent(xs, rng)
    assert np.linalg.norm(residual(k, xs, 0.3 * w, 0.2 * w)) <= 1e-10


def test_residual_cubic_halving():
    k = Sphere(3)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = k.random_point(rng)
        u = k.random_unit_tangent(x, rng)
        v = k.random_unit_tangent(x, rng)
        norms = [np.linalg.norm(residual(k, x, s * u, s * v))
                 for s in (0.1, 0.05, 0.025)]
        if min(norms[1:]) <= 1e-14:
            continue
        assert 6.8 <= norms[0] / norms[1] <= 9.2
        assert 6.8 <= norms[1] / norms[2] <= 9.2


def test_approx_scaling_residual_quartic_envelope():
    # fit the envelope constant on one sample, check the correction
    # term against it on a fresh sample: |<w, r(x)>| <= C d(x,v)^4
    k = Sphere(3)
    ball = GeodesicBall(k, np.array([0.0, 0.0, 1.0]), 0.3)
    alpha = 0.5 / np.tan(0.3)

    def corrections(rng, n):
        out = []
        for _ in range(n):
            x = ball.sample(rng)
            w = k.random_unit_tangent(x, rng)
            v = ball.lmo(w, x).vertex
            d = k.dist(x, v)
            if d <= 1e-6:
                continue
            mid = k.geodesic(x, v, 0.5)
            zs = k.transport(x, mid, w)
            zs /= k.norm(mid, zs)
            omega = k.transport(mid, x, 0.25 * alpha * d * d * zs)
            r_x = residual(k, x, 0.5 * k.log(x, v), omega)
            out.append((d, np.linalg.norm(r_x), abs(k.inner(x, w, r_x))))
        return out

    train = corrections(np.random.default_rng(22), 150)
    c_fit = max(rn / d ** 4 for d, rn, _ in train)
    assert 0.005 <= c_fit <= 0.05
    ds = np.array([d for d, rn, _ in train if rn > 1e-15])
    rn = np.array([rn for _, rn, _ in train if rn > 1e-15])
    slope = np.polyfit(np.log(ds), np.log(rn), 1)[0]
    assert 3.4 <= slope <= 4.3
    test = corrections(np.random.default_rng(23), 150)
    assert all(wr <= 1.25 * c_fit * d ** 4 for d, _, wr in test)


# ---------------------------------------------------------------------------
# plumbing: certificates, dispatch, configuration errors
# ---------------------------------------------------------------------------

def test_certificate_json_roundtrip():
    cert = ConvexityCertificate("geodesic", 0.5, 10, -0.25,
                                {"x": np.array([1.0, 2.0]), "t": 0.5})
    assert json.loads(cert.to_json()) == {
        "notion": "geodesic", "alpha_tested": 0.5, "samples": 10,
        "worst_margin": -0.25, "tolerance": 1e-8, "passed": False,
        "witness": {"x": [1.0, 2.0], "t": 0.5}}
    assert not cert.passed


@pytest.mark.parametrize("radius, alpha, n", [(1.2, 4.0, 50), (0.3, 1.0, 0)],
                         ids=["domain_error", "no_samples"])
def test_non_finite_margin_is_strict_json(radius, alpha, n):
    # a domain error gives margin -inf, an empty sample +inf
    k = Sphere(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), radius))
    cert = run_checker("approx_scaling", cs, alpha, n,
                       np.random.default_rng(0))
    assert not np.isfinite(cert.worst_margin)

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    d = json.loads(cert.to_json(), parse_constant=reject)
    assert d["worst_margin"] is None
    # the verdict tells the two apart: -inf fails, +inf passes
    assert d["passed"] == cert.passed == (cert.worst_margin == np.inf)
    if n:
        assert "domain_error" in d["witness"]
        assert d["witness"]["margin"] is None
        assert cert.witness["margin"] == -np.inf


def test_certificate_pass_tolerance():
    assert ConvexityCertificate("geodesic", 1.0, 1, -5e-9, {}).passed
    assert not ConvexityCertificate("geodesic", 1.0, 1, -2e-8, {}).passed


# the seed ids are those of an earlier boolean axis, so that each case
# keeps its id
@pytest.mark.parametrize("seed", [17, 18], ids=["True", "False"])
@pytest.mark.parametrize("kernel, radius", [
    (Euclidean(2), 1.0), (Sphere(3), 0.4), (Spd(3), 1.0)])
def test_geodesic_is_double_geodesic_with_riemannian_distance(kernel, radius,
                                                              seed):
    cs = ball_set(GeodesicBall(kernel, kernel.base_point(), radius))
    certs = [run_checker(notion, cs, 1.5, 40,
                         np.random.default_rng(seed)).to_dict()
             for notion in ("geodesic", "double_geodesic")]
    for cert in certs:
        cert.pop("notion")
    assert certs[0] == certs[1]


def test_run_checker_dispatch_and_unknown_notion():
    _, cs = disk(1.0)
    rng = np.random.default_rng(0)
    for notion in ("geodesic", "riemannian", "double_geodesic", "scaling",
                   "approx_scaling"):
        cert = run_checker(notion, cs, 0.1, 30, rng)
        assert cert.notion == notion
    with pytest.raises(ConfigError):
        run_checker("banach", cs, 0.1, 10, rng)


def test_scaling_needs_oracle():
    k = Euclidean(2)
    cs = ConvexSet(k, lambda x, tol=1e-9: np.linalg.norm(x) <= 1 + tol,
                   lambda rng: np.zeros(2))
    with pytest.raises(ConfigError):
        run_checker("scaling", cs, 0.5, 10, np.random.default_rng(0))


def test_membership_domain_error_propagates():
    # only a failing exp counts as a violation; a failing membership
    # test is a bug in the set and must surface
    def member(x, tol=1e-9):
        raise DomainError("membership outside its domain")

    cs = ConvexSet(Euclidean(2), member, lambda rng: rng.uniform(-1, 1, 2),
                   diameter=2.0)
    for notion in ("geodesic", "riemannian", "double_geodesic"):
        with pytest.raises(DomainError):
            run_checker(notion, cs, 0.5, 5, np.random.default_rng(0))


PRUNE_BALLS = [  # kernel, radius, a passing alpha, a failing alpha
    (Euclidean(2), 1.0, 0.45, 2.0), (Sphere(3), 0.3, 1.5, 10.0),
    (Hyperboloid(3), 1.0, 0.05, 4.0), (Spd(3), 1.0, 0.05, 2.0)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("notion", ["geodesic", "riemannian",
                                    "double_geodesic"])
@pytest.mark.parametrize("kernel, radius, good, bad", PRUNE_BALLS,
                         ids=[type(b[0]).__name__ for b in PRUNE_BALLS])
def test_pruned_certificate_equals_full_refinement(kernel, radius, good, bad,
                                                   notion, seed):
    # replay the sample stream with every sample refined (worst = inf):
    # the lowest margin and its witness are those of the pruned run
    cs = ball_set(GeodesicBall(kernel, kernel.base_point(), radius))
    n = 40
    for alpha, passes in ((good, True), (bad, False)):
        full = reference_certificate(notion, cs, alpha, n,
                                     np.random.default_rng(seed),
                                     refine_all=True)
        pruned = run_checker(notion, cs, alpha, n,
                             np.random.default_rng(seed))
        assert pruned.passed == passes
        assert pruned.to_dict() == full.to_dict()


# ---------------------------------------------------------------------------
# batched samples against the per-sample reference
# ---------------------------------------------------------------------------

EDGE_BALLS = [  # kernel class, radius, a failing alpha
    (Spd, 2.0, 50.0), (Sphere, 1.2, 10.0), (Sphere, 1.5, 10.0)]


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("notion", ["geodesic", "riemannian",
                                    "double_geodesic"])
@pytest.mark.parametrize("cls, radius, alpha", EDGE_BALLS,
                         ids=["Spd-2-50", "Sphere-1.2-10", "Sphere-1.5-10"])
def test_domain_edge_certificate_equals_per_sample_reference(
        cls, radius, alpha, notion, seed, monkeypatch):
    # far SPD probes are not positive definite, and on the sphere caps
    # 2 required > pi for some rows: a stacked dist or exp returns NaN
    # on such rows, which are not members, and the other rows keep
    # their bits.  Every seed's riemannian certificate reaches the edge
    # (3-4 NaN calls with 50-86 NaN rows on SPD, 6-12 calls with 114-240
    # rows on the caps), and its clearances stay one stacked call per
    # step (10-14 dist calls here, where the bisection made 38 and
    # redoing a stack row by row up to 89).  On a ball the geodesic
    # notions take the exact radial margin and probe no ray, so they
    # never reach the edge.  The certificate is the per-sample loop's
    k = cls(3)
    calls = {"dist": 0, "nan": 0}
    maps = {name: getattr(k, name) for name in ("exp", "dist")}

    def counted(name):
        def call(x, y):
            out = maps[name](x, y)
            calls["dist"] += name == "dist"
            calls["nan"] += int(np.isnan(out).any())
            return out
        return call

    for name in maps:
        monkeypatch.setattr(k, name, counted(name))
    cs = ball_set(GeodesicBall(k, k.base_point(), radius))
    cert = run_checker(notion, cs, alpha, 30,
                       np.random.default_rng([seed, 0]))
    assert (calls["nan"] > 0) == (notion == "riemannian")
    assert calls["dist"] <= 16
    ref = reference_certificate(notion, cs, alpha, 30,
                                np.random.default_rng([seed, 0]))
    assert not cert.passed
    assert cert.to_json() == ref.to_json()


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("kernel, radius, good, bad", PRUNE_BALLS,
                         ids=[type(b[0]).__name__ for b in PRUNE_BALLS])
def test_batched_certificate_equals_per_sample_reference(kernel, radius, good,
                                                         bad, notion, seed):
    # the center comes from default_rng(seed) and the certificate's draws
    # from default_rng([seed, 0]), the same stream, as in the certify
    # benchmarks: on the sphere the first tangent drawn at the center is
    # the center's own normal, whose projection vanishes and is redrawn.
    # The scaling notions' stacked oracle rows may differ from the single
    # calls in the last bits on curved balls: there the certificate is
    # the reference's to 1e-12
    center = kernel.random_point(np.random.default_rng(seed))
    cs = ball_set(GeodesicBall(kernel, center, radius))
    for alpha in (good, bad):
        rng = np.random.default_rng([seed, 0])
        if cs.lmo is None and notion in ("scaling", "approx_scaling"):
            with pytest.raises(ConfigError):
                run_checker(notion, cs, alpha, 30, rng)
            continue
        cert = run_checker(notion, cs, alpha, 30, rng)
        ref_rng = np.random.default_rng([seed, 0])
        ref = reference_certificate(notion, cs, alpha, 30, ref_rng)
        if notion in ("scaling", "approx_scaling") and kernel.curvature.K:
            assert_certificates_close(cert, ref, 1e-12)
        else:
            assert cert.to_json() == ref.to_json()
        assert rng.random() == ref_rng.random()  # the same draws taken


@pytest.mark.parametrize("kernel, radius, good, bad", PRUNE_BALLS,
                         ids=[type(b[0]).__name__ for b in PRUNE_BALLS])
def test_double_geodesic_distance_is_one_call_on_stacked_chords(kernel,
                                                                radius, good,
                                                                bad):
    # d = 2 dist, taken once on all chords, gives the certificate of the
    # per-sample loop that takes it chord by chord; geodesic ignores it
    cs = ball_set(GeodesicBall(kernel, kernel.base_point(), radius))
    calls = []

    def distance(k, x, y):
        calls.append(np.shape(x))
        return 2.0 * k.dist(x, y)

    for alpha in (good / 4.0, bad / 4.0):
        cert = run_checker("double_geodesic", cs, alpha, 30,
                           np.random.default_rng(3), distance=distance)
        ref = reference_certificate("double_geodesic", cs, alpha, 30,
                                    np.random.default_rng(3),
                                    distance=lambda k, x, y: 2.0 * k.dist(x, y))
        assert cert.to_json() == ref.to_json()
    assert calls == [(30,) + kernel.point_shape] * 2
    run_checker("geodesic", cs, good, 30, np.random.default_rng(3),
                distance=distance)
    assert len(calls) == 2


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sphere_benchmark_stream_redraws_the_first_tangent(seed):
    # the collision the test above relies on: the first row of the
    # certificate's first block, a ball point's normals at the center,
    # is the center's own normal.  Its projection vanishes, and one
    # more normal is drawn for it after all the blocks
    k = Sphere(3)
    center = k.random_point(np.random.default_rng(seed))
    cs = ball_set(GeodesicBall(k, center, 0.3))
    rng, twin = (np.random.default_rng([seed, 0]) for _ in range(2))
    run_checker("scaling", cs, 1.5, 30, rng)
    g = twin.standard_normal((30, 3))
    assert not k._unit_tangent(center, g[0])[1]
    assert k._unit_tangent(center, g[1:])[1].all()
    twin.random(30)
    twin.standard_normal((30, 3))
    twin.standard_normal(3)  # the redrawn row
    assert rng.random() == twin.random()


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_certify_sphere_stream_scaling_verdicts(seed):
    # the certify-sphere benchmark's scaling operations: its cap, its
    # 400 samples and its generators default_rng([seed, i]) for the ops
    # i = 6..9 of the first round, and default_rng([seed, 0]), whose
    # first tangent is redrawn (op 0's stream); every verdict is the
    # benchmark's and every margin finite and the per-sample loop's
    k = Sphere(3)
    cs = ball_set(GeodesicBall(k, k.random_point(np.random.default_rng(seed)),
                               0.3))
    cases = [("scaling", 1.5, True), ("scaling", 4.0, False),
             ("approx_scaling", 1.5, True), ("approx_scaling", 4.0, False)]
    for op, (notion, alpha, passes) in enumerate(cases, start=6):
        for stream in ([seed, op], [seed, 0]):
            cert = run_checker(notion, cs, alpha, 400,
                               np.random.default_rng(stream))
            ref = reference_certificate(notion, cs, alpha, 400,
                                        np.random.default_rng(stream))
            assert cert.passed == passes, (notion, alpha, stream)
            assert_certificates_close(cert, ref, 1e-12)


class _Sticky(Sphere):
    """A sphere whose unit tangents reject every normal with a first
    coordinate above 1 (~16% of draws), so that certificates redraw
    on many rows, some of them more than once."""

    calls = []  # the rows of each stacked call

    def _unit_tangent(self, x, g):
        u, ok = super()._unit_tangent(x, g)
        if np.ndim(g) > 1:
            self.calls.append(len(g))
        return u, ok & ~(np.asarray(g)[..., 0] > 1.0)


@pytest.mark.parametrize("notion", NOTIONS)
def test_batched_redraws_where_the_per_sample_loop_does(notion):
    # the rejected rows of a slot take fresh normals after all the
    # blocks, in row order and pass after pass, at the center for the
    # ball's points and at the rows' base points for the directions.
    # On the stream of seed 4 every notion rejects some row twice
    k = _Sticky(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 1.2))
    # the slots that are made unit tangents: the points and the
    # direction, but for the geodesic notions, whose witness direction
    # on a ball is the radial one; and the stacked calls that make them
    # first, one for all the point slots and one for a direction
    slots, first = {"riemannian": (4, 2), "scaling": (2, 2),
                    "approx_scaling": (2, 2)}.get(notion, (2, 1))
    for alpha in (0.2, 3.0):
        rng = np.random.default_rng(4)
        k.calls = []
        cert = run_checker(notion, cs, alpha, 25, rng)
        # the first calls, then one per slot per redraw pass: more
        # passes than slots means that some row was rejected twice
        assert len(k.calls) > first + slots
        ref_rng = np.random.default_rng(4)
        ref = reference_certificate(notion, cs, alpha, 25, ref_rng)
        assert cert.to_json() == ref.to_json()
        assert rng.random() == ref_rng.random()


class _Stickier(Sphere):
    """A sphere whose unit tangents reject every normal with a first
    coordinate above 0.3 (~38% of draws)."""

    def _unit_tangent(self, x, g):
        u, ok = super()._unit_tangent(x, g)
        return u, ok & ~(np.asarray(g)[..., 0] > 0.3)


@pytest.mark.parametrize("notion", ["geodesic", "riemannian",
                                    "double_geodesic"])
def test_stacked_points_redraw_slot_by_slot(notion):
    # a certificate places all its ball points in one stacked call, but
    # each POINT slot's rejected normals are drawn again slot after slot,
    # pass after pass, as the per-sample loop draws them: its JSON and
    # the generator's next draw are the loop's on every seed.  Redrawing
    # the rejected rows of all slots together would take other normals
    k = _Stickier(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 1.2))
    for seed in range(60):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        cert = run_checker(notion, cs, 1.0, 20, rng)
        ref = reference_certificate(notion, cs, 1.0, 20, ref_rng)
        assert cert.to_json() == ref.to_json(), seed
        assert rng.random() == ref_rng.random(), seed


@pytest.mark.parametrize("notion", ["geodesic", "double_geodesic"])
def test_ball_geodesic_notions_make_no_unit_tangent_at_their_midpoints(
        notion):
    # the TANGENT block is drawn, but on a ball the witness direction is
    # the outward radial one: the only unit tangents made are the ball
    # points', at the center, both slots in one call, and none is made
    # at the midpoints m
    bases = []

    class Counted(Sphere):
        def _unit_tangent(self, x, g):
            bases.append(np.array(x))
            return super()._unit_tangent(x, g)

    k = Counted(3)
    ball = GeodesicBall(k, k.base_point(), 1.2)
    for alpha in (0.2, 3.0):
        bases.clear()
        cert = run_checker(notion, ball_set(ball), alpha, 25,
                           np.random.default_rng(6))
        assert len(bases) == 1  # both POINT slots, nothing redrawn
        assert all(np.array_equal(b, ball.center) for b in bases)
        assert cert.witness["direction"].shape == (3,)


@pytest.mark.parametrize("seed", [1, 27])
@pytest.mark.parametrize("notion", ["geodesic", "double_geodesic"])
def test_ball_geodesic_witness_at_the_center_takes_its_own_normal(notion,
                                                                  seed):
    # every midpoint of a ball of radius 1e-13 is within 1e-12 of the
    # center, where no direction is outward: the witness direction is
    # the unit tangent of the witness row's own normal, drawn again only
    # for that row (on seed 27 its normal is rejected), as in the
    # per-sample loop
    k = _Sticky(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 1e-13))
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    cert = run_checker(notion, cs, 1.0, 25, rng)
    ref = reference_certificate(notion, cs, 1.0, 25, ref_rng)
    assert cert.to_json() == ref.to_json()
    assert rng.random() == ref_rng.random()
    assert np.linalg.norm(cert.witness["direction"]) == pytest.approx(1.0)


class _Degenerate(Sphere):
    """A sphere on which no normal has a tangent projection."""

    def project_tangent(self, x, a):
        return 0.0 * np.asarray(a, dtype=float)


def _certificate_blocks(twin):
    # the blocks of a 4-sample geodesic certificate, then the 63 passes
    # over the 4 rows of its first point slot
    for _ in range(2):
        twin.standard_normal((4, 3))
        twin.random(4)
    twin.random(4)
    twin.standard_normal((4 + 63 * 4, 3))


@pytest.mark.parametrize("draw", ["run_checker", "reference_certificate",
                                  "random_unit_tangent", "sample"])
def test_a_tangent_that_never_projects_is_a_contract_error(draw):
    # all 64 normals of each row vanish: the certificate gives up after
    # its blocks and 63 redraw passes, a single unit tangent (and a
    # ball's sample, through it) after 64 normals
    k = _Degenerate(3)
    ball = GeodesicBall(k, k.base_point(), 0.3)
    cs = ball_set(ball)
    call, taken = {
        "run_checker": (partial(run_checker, "geodesic", cs, 1.0, 4),
                        _certificate_blocks),
        "reference_certificate": (
            partial(reference_certificate, "geodesic", cs, 1.0, 4),
            _certificate_blocks),
        "random_unit_tangent": (partial(k.random_unit_tangent, ball.center),
                                lambda twin: twin.standard_normal((64, 3))),
        "sample": (ball.sample, lambda twin: twin.standard_normal((64, 3))),
    }[draw]
    rng, twin = (np.random.default_rng(0) for _ in range(2))
    with pytest.raises(ContractError, match="could not draw"):
        call(rng)
    taken(twin)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("on_ball", [True, False], ids=["ball", "sampler"])
@pytest.mark.parametrize("check", [*NOTIONS, "gconvexity",
                                   "smoothness_gradient_bound",
                                   "min_gradient_norm"])
def test_a_check_takes_exactly_its_documented_blocks(check, on_ball):
    # one generator call per slot over all samples, in layout order,
    # and nothing more where no projection vanishes: the generator's
    # next draw is that of a twin that took the blocks alone.  A set
    # other than a ball has its sampler called n times per point slot
    from rfw import SquaredDistanceObjective
    k = Sphere(3)
    ball = GeodesicBall(k, k.base_point(), 0.3)
    cs = ball_set(ball)
    if not on_ball:
        def sampler(rng):
            return k.exp(ball.center, 0.2 * k._unit_tangent(
                ball.center, rng.standard_normal(3))[0])
        cs = ConvexSet(k, ball.membership, sampler, ball.lmo, ball.diameter)
    fn = SquaredDistanceObjective(k, ball.center).as_smooth_fn(ball.radius)
    run = {"gconvexity": partial(check_gconvexity_of_function, fn),
           "smoothness_gradient_bound": partial(
               check_smoothness_gradient_bound, fn),
           "min_gradient_norm": partial(min_gradient_norm, fn)}.get(
               check, lambda cs, n, rng: run_checker(check, cs, 1.0, n, rng))
    n = 17
    rng, twin = (np.random.default_rng(12) for _ in range(2))
    run(cs, n, rng)
    Blocks(cs, twin, n, LAYOUTS.get(check, ("point",)))
    assert rng.random() == twin.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riemannian_probes_a_ball_along_its_outward_direction(seed):
    # on a Euclidean ball the outward direction from x + combo is radial,
    # the least clearance of all directions: the certificate's worst
    # margin is min over samples of r + tol - |x + combo - c| - rho,
    # up to the bisection's resolution, and its witness direction is
    # that sample's unit radial vector.  The samples are rebuilt from
    # the documented blocks
    from rfw.balls import MEMBERSHIP_TOL
    k, n, dim, r, alpha = Euclidean(6), 40, 6, 1.0, 2.0
    c = np.random.default_rng(seed).standard_normal(dim)
    cs = ball_set(GeodesicBall(k, c, r))
    cert = run_checker("riemannian", cs, alpha, n,
                       np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(3):
        g, s = rng.standard_normal((n, dim)), rng.random(n)
        u = g / np.linalg.norm(g, axis=1)[:, None]
        pts.append(c + np.array([r * t ** (1.0 / dim) for t in s])[:, None]
                   * u)
    t = rng.random(n)
    x, p, q = pts[0], pts[1] - pts[0], pts[2] - pts[0]
    combo = (1.0 - t)[:, None] * p + t[:, None] * q
    rho = alpha * t * (1.0 - t) * np.sum((p - q) ** 2, axis=1)
    radial = x + combo - c
    exact = r + MEMBERSHIP_TOL - np.linalg.norm(radial, axis=1) - rho
    i = int(np.argmin(exact))
    assert abs(cert.worst_margin - exact[i]) <= 1e-10
    assert not cert.passed
    np.testing.assert_allclose(cert.witness["x"], x[i], rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        cert.witness["direction"], radial[i] / np.linalg.norm(radial[i]),
        rtol=0, atol=1e-14)


@pytest.mark.parametrize("notion", ["geodesic", "double_geodesic"])
@pytest.mark.parametrize("alpha", [0.45, 2.0])
def test_geodesic_notions_take_the_exact_radial_margin_on_a_flat_ball(
        notion, alpha):
    # on a Euclidean ball no direction at m travels less than the radial
    # one, which leaves at r + tol - |m - c|: the worst margin is the
    # minimum over rows of r + tol - |m - c| - rho, and the witness
    # direction is that row's unit radial vector.  The rows are rebuilt
    # with numpy from the documented blocks (the tangent slot is drawn
    # and unused)
    from rfw.balls import MEMBERSHIP_TOL
    k, n, dim, r = Euclidean(3), 40, 3, 1.0
    c = np.random.default_rng(4).standard_normal(dim)
    cs = ball_set(GeodesicBall(k, c, r))
    cert = run_checker(notion, cs, alpha, n, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    pts = []
    for _ in range(2):
        g, s = rng.standard_normal((n, dim)), rng.random(n)
        u = g / np.linalg.norm(g, axis=1)[:, None]
        pts.append(c + np.array([r * t ** (1.0 / dim) for t in s])[:, None]
                   * u)
    t = rng.random(n)
    x, y = pts
    m = x + t[:, None] * (y - x)
    rho = alpha * t * (1.0 - t) * np.sum((x - y) ** 2, axis=1)
    radial = m - c
    exact = r + MEMBERSHIP_TOL - np.linalg.norm(radial, axis=1) - rho
    i = int(np.argmin(exact))
    assert abs(cert.worst_margin - exact[i]) <= 1e-12
    assert cert.passed == (alpha < 1.0)
    np.testing.assert_allclose(cert.witness["x"], x[i], rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        cert.witness["direction"], radial[i] / np.linalg.norm(radial[i]),
        rtol=0, atol=1e-14)


@pytest.mark.parametrize("kernel, radius", [
    (Sphere(3), 0.3), (Sphere(3), 1.2), (Hyperboloid(3), 1.0),
    (Spd(3), 1.0)], ids=["Sphere-0.3", "Sphere-1.2", "Hyperboloid", "Spd"])
def test_exact_radial_margin_is_the_least_bisected_clearance(kernel, radius):
    # soundness on the certificate's own rows: each row's exact margin
    # is at most the clearance bisected along its drawn direction u, and
    # is that of the bisection along its witness (radial) direction to
    # within two resolutions.  The drawn u are replayed from the
    # documented blocks
    from rfw.convexity import _double_geodesic
    center = kernel.random_point(np.random.default_rng(8))
    cs = ball_set(GeodesicBall(kernel, center, radius))
    n, alpha = 25, 0.5
    margins, witness = _double_geodesic(cs, alpha, None,
                                        np.random.default_rng(9), n)
    draws = Blocks(cs, np.random.default_rng(9), n, LAYOUTS["geodesic"])
    xs, ys, ts = draws.point(0), draws.point(1), draws.slots[2]
    ms = [kernel.geodesic(x, y, t) for x, y, t in zip(xs, ys, ts)]
    drawn = draws.unit(3, ms)
    for i, margin in enumerate(margins):
        row = witness(i, margin)
        np.testing.assert_array_equal(row["x"], xs[i])
        m, rho = ms[i][None], np.array([row["required"]])
        resolution = 1e-11 * max(1.0, cs.diameter, 2.0 * row["required"])
        along_u = _clearances(cs, m, drawn[i][None], rho)[0]
        radial = _clearances(cs, m, row["direction"][None], rho)[0]
        assert margin <= along_u, i
        assert abs(margin - radial) <= 2.0 * resolution, i


@pytest.mark.parametrize("kernel, radius", [
    (Euclidean(4), 1.0), (Sphere(4), 0.5), (Hyperboloid(3), 1.0),
    (Spd(3), 1.0)], ids=["Euclidean", "Sphere", "Hyperboloid", "Spd"])
def test_batched_function_checks_equal_per_sample_reference(kernel, radius):
    from rfw import SquaredDistanceObjective
    c = kernel.random_point(np.random.default_rng(44))
    fn = SquaredDistanceObjective(kernel, c).as_smooth_fn(radius)
    cs = ball_set(GeodesicBall(kernel, c, radius))
    for check, name in ((check_gconvexity_of_function, "gconvexity"),
                        (check_smoothness_gradient_bound,
                         "smoothness_gradient_bound")):
        if name == "smoothness_gradient_bound" and fn.fstar is None:
            continue
        cert = check(fn, cs, 60, np.random.default_rng(2))
        ref = reference_function_check(name, fn, cs, 60,
                                       np.random.default_rng(2))
        assert cert.to_json() == ref.to_json()


RACE_SETS = {  # sets of diameter 2 whose boundary meets the x axis at 1
    "half-plane": ConvexSet(Euclidean(2), lambda z: z[0] <= 1.0,
                            lambda rng: np.zeros(2), diameter=2.0),
    "disk": ball_set(GeodesicBall(Euclidean(2), np.zeros(2), 1.0))}


def _rows_and_their_margins(cs, c, required):
    """Rays s -> (1 - c[i] + s, 0) into the set cs, whose clearance is
    c[i] where they start in it: the race's margins, and each row's
    margin bisected on its own, as the per-sample reference bisects
    it."""
    k = cs.kernel
    base = np.stack([1.0 - np.asarray(c), np.zeros(len(c))], axis=1)
    direction = np.tile([1.0, 0.0], (len(c), 1))
    required = np.asarray(required, dtype=float)
    full = [ray_margin(cs, lambda s, b=b, u=u: k.exp(b, s * u), r, np.inf)
            for b, u, r in zip(base, direction, required.tolist())]
    return _clearances(cs, base, direction, required), full


@pytest.mark.parametrize("name", list(RACE_SETS))
def test_race_drops_only_rows_that_cannot_be_lowest(name):
    # margins within the bisection's resolution of each other, tied
    # rows, rays that start outside, a clearance past hi_cap (the
    # half-plane's; the disk's rays start outside there), a NaN
    # required and random rows: every row left in the race has the
    # margin of its own bisection, every row dropped is strictly above
    # the lowest, and the certificate is that of every row refined.
    # The disk is a ball: its rows are bracketed, then replayed
    res = 1e-11 * 2.0
    offsets = [-1e-9, -res, -res / 2, -res / 4, 0.0, res / 4, res / 2, res,
               1e-9]
    cases = [([c + o for o in offsets] * 2, [r] * 18)
             for c, r in ((0.7, 0.3), (0.3, 0.7), (1.3, 0.0), (0.0, 0.2),
                          (5.0, 0.3))]
    cases.append(([0.5, 0.5, 0.2, 0.2, 0.9], [0.1, 0.1, 0.3, 0.3, 0.0]))
    cases.append(([0.5, 0.4, 0.6], [0.1, np.nan, 0.1]))
    rng = np.random.default_rng(0)
    cases += [(list(rng.uniform(-0.2, 2.5, 60)), list(rng.uniform(0, 1, 60)))
              for _ in range(5)]
    witness = lambda i, margin: {"row": i, "margin": margin}
    for c, required in cases:
        for order in (slice(None), slice(None, None, -1)):
            raced, full = _rows_and_their_margins(
                RACE_SETS[name], c[order], required[order])
            low = min(-np.inf if m != m else m for m in full)
            assert (raced != np.inf).any()
            for got, want in zip(raced, full):
                if got == np.inf:
                    assert want > low
                else:
                    assert got == want or got != got and want != want
            assert (_worst_case("geodesic", 1.0, len(c), raced, witness)
                    .to_dict() == _worst_case("geodesic", 1.0, len(c), full,
                                              witness).to_dict())


RAY_BALLS = [  # kernel, radius, a required clearance whose probes leave
    # the exp domain (sphere, hyperboloid) or dist's (SPD: not positive
    # definite); Euclidean space has no edge
    (Euclidean(3), 1.0, 4.0), (Sphere(3), 0.3, 4.0), (Sphere(3), 1.2, 4.0),
    (Hyperboloid(3), 1.0, 160.0), (Hyperboloid(3), 2.0, 160.0),
    (Spd(3), 2.0, 160.0)]


def _ball_rays(k, radius, far, with_offset, rng):
    """Rays on the ball of radius around the base point c, as (base,
    direction, offset or None, required): rows 0-6 start at half the
    radius from c, with required far, a few fractions of the radius,
    NaN and 0; row 7 starts outside, at 1.5 radius; row 8 runs along a
    diameter from a boundary point p through c, a member at hi_cap =
    2 radius.  With an offset, rows 0-7 are based at c and start at
    exp_c(offset), and row 8 has offset 0; without, each start is its
    row's base."""
    c = k.base_point()
    required = np.array([far, 0.1, 0.5, 1.0, np.nan, 0.2, 0.0, 0.1, 0.5])
    required[1:] *= radius
    starts = [r * radius * k.random_unit_tangent(c, rng)
              for r in [0.5] * 7 + [1.5]]
    base = [c] * 8 if with_offset else [k.exp(c, v) for v in starts]
    direction = [k.random_unit_tangent(b, rng) for b in base]
    p = k.exp(c, radius * k.random_unit_tangent(c, rng))
    g = k.log(p, c)
    base, direction = np.array(base + [p]), np.array(direction
                                                     + [g / k.norm(p, g)])
    offset = np.array(starts + [np.zeros_like(c)]) if with_offset else None
    return base, direction, offset, required


@pytest.mark.parametrize("wrapped", [False, True], ids=["ball", "wrapped"])
@pytest.mark.parametrize("with_offset", [False, True],
                         ids=["ray", "offset"])
@pytest.mark.parametrize("kernel, radius, far", RAY_BALLS,
                         ids=[f"{type(k).__name__}-{r}"
                              for k, r, _ in RAY_BALLS])
def test_race_takes_a_raising_exp_step_row_by_row(kernel, radius, far,
                                                  with_offset, wrapped,
                                                  monkeypatch):
    # a stacked probe past the exp or dist domain returns NaN on those
    # rows, and the other rows of that call keep their own answers.  A
    # NaN required keeps every row in the race, so each margin of the
    # stack is its own bisection's; each row alone is too, a start
    # outside and a member at hi_cap included.  The ball behind a
    # lambda is a set that is not a ball: it races on a slack of +-1,
    # unknown at hi_cap, and asks membership row by row (a single dist
    # call past SPD's domain raises, and is not a member)
    k = kernel
    cs = ball_set(GeodesicBall(k, k.base_point(), radius))
    if wrapped:
        ball = cs
        cs = ConvexSet(k, lambda z: ball.membership(z), ball.sampler,
                       diameter=ball.diameter)
    base, direction, offset, required = _ball_rays(
        k, radius, far, with_offset, np.random.default_rng(0))

    def point_at(i):
        if offset is None:
            return lambda s: k.exp(base[i], s * direction[i])
        return lambda s: k.exp(base[i], offset[i] + s * direction[i])

    full = np.array([ray_margin(cs, point_at(i), r, np.inf)
                     for i, r in enumerate(required.tolist())])
    assert full[7] == -required[7]
    assert full[8] == 2.0 * radius - required[8]
    nan_calls = [0]
    maps = {name: getattr(k, name) for name in ("exp", "dist")}

    def counted(name):
        def call(x, y):
            out = maps[name](x, y)
            nan_calls[0] += np.isnan(out).any()  # a call with a NaN row
            return out
        return call

    for name in maps:
        monkeypatch.setattr(k, name, counted(name))
    raced = _clearances(cs, base, direction, required, offset)
    np.testing.assert_array_equal(raced, full)
    edge = type(k) not in ((Euclidean, Spd) if wrapped else (Euclidean,))
    assert (nan_calls[0] > 0) == edge
    for i in range(len(required)):
        one = slice(i, i + 1)
        alone = _clearances(cs, base[one], direction[one], required[one],
                            None if offset is None else offset[one])
        np.testing.assert_array_equal(alone, full[one])


@pytest.mark.parametrize("wrapped", [False, True], ids=["ball", "wrapped"])
@pytest.mark.parametrize("with_offset", [False, True],
                         ids=["ray", "offset"])
@pytest.mark.parametrize("kernel, radius, far", RAY_BALLS,
                         ids=[f"{type(k).__name__}-{r}"
                              for k, r, _ in RAY_BALLS])
def test_rays_that_share_a_start_take_the_margins_of_their_own_copies(
        kernel, radius, far, with_offset, wrapped):
    # three rays from each start of _ball_rays, in shuffled order: its
    # own ray, the reverse ray and a random one, the last two with the
    # required clearance of other rows, so that a start outside, a
    # member at hi_cap, a NaN required and a required whose probes leave
    # the exp domain (dist's on SPD) each meet several starts.  Every
    # ray's margin is the one it gets with a copy of its start of its
    # own, bit for bit, and with no start given the call is the copies'
    k = kernel
    cs = ball_set(GeodesicBall(k, k.base_point(), radius))
    if wrapped:
        ball = cs
        cs = ConvexSet(k, lambda z: ball.membership(z), ball.sampler,
                       diameter=ball.diameter)
    rng = np.random.default_rng(1)
    base, direction, offset, required = _ball_rays(
        k, radius, far, with_offset, rng)
    m = len(base)
    start = rng.permutation(np.repeat(np.arange(m), 3))
    rank = np.zeros(len(start), dtype=int)
    for j in range(m):
        rank[start == j] = np.arange(3)
    rays = np.array([(direction[j], -direction[j],
                      k.random_unit_tangent(base[j], rng))[r]
                     for j, r in zip(start, rank)])
    need = required[(start + 4 * rank) % m]
    shared = _clearances(cs, base, rays, need, offset, start)
    copies = (base[start], rays, need,
              None if offset is None else offset[start])
    assert shared.tobytes() == _clearances(cs, *copies).tobytes()
    assert shared.tobytes() == _clearances(cs, *copies, None).tobytes()
    outside = start == 7
    assert (shared[outside] == -need[outside]).all()
    assert np.isnan(shared[np.isnan(need)]).all()


@pytest.mark.parametrize("crossing", [0.3, 1.0, 1.7, 2.0 - 1e-12, 3.0])
def test_a_set_that_is_not_a_ball_is_probed_at_the_bisections_midpoints(
        crossing):
    # on a slack of +-1 each raced step lands on the bisection's own
    # midpoint: a row of a set that is not a ball is probed at 0, then at
    # the reference bisection's midpoints in order, up to where it
    # settles, and its margin is the reference's
    probed, seen = [], []

    def member(z):
        probed.append(float(z[0]))
        return z[0] <= crossing

    def member_at(s):
        seen.append(s)
        return s <= crossing

    cs = ConvexSet(Euclidean(2), member, lambda rng: np.zeros(2),
                   diameter=2.0)
    got = _clearances(cs, np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                      np.array([0.5]))
    assert got.tolist() == [sup_member(member_at, 2.0, 2e-11) - 0.5]
    # the reference asks 0 and hi_cap, then bisects
    assert probed[:len(seen) - 1] == seen[:1] + seen[2:]


@pytest.mark.parametrize("known", [True, False], ids=["far", "unknown"])
def test_replay_is_the_bisection_whatever_the_membership(known):
    # a replay guesses the bisection's probes from a bracket and probes
    # its guesses: its margin is the bisection's even where membership
    # flickers near the crossing (a noisy distance) and the bracket is
    # off, whether the slack at hi_cap is known or not (NaN, as on a
    # set that is not a ball)
    rng = np.random.default_rng(3)
    hi_cap, resolution, required = 2.0, 2e-11, 0.3
    for _ in range(100):
        crossing = rng.uniform(0.1, 1.9)
        width = 10.0 ** rng.uniform(-13.0, -9.0)
        salt = int(rng.integers(1 << 30))

        def member(s):
            if abs(s - crossing) < width:
                return hash((salt, s)) % 2 == 0
            return s < crossing

        def slack(s):  # the rays' points are their times s
            return np.array([1.0 if member(v) else -1.0 for v in s])

        lo = crossing + width * rng.uniform(-2.0, 1.0)
        hi = lo + width * rng.uniform(0.0, 2.0)
        far = slack([hi_cap])[0] if known else np.nan
        got = _replays(slack, lambda rows, s: s, np.array([0]), [far],
                       [(lo, hi, hi_cap, resolution, required)])
        assert got == [sup_member(member, hi_cap, resolution) - required]


def test_pruning_bounds_membership_probes():
    # one probe for most samples; every sample refined takes ~39
    k, cs = cap(0.3)
    probes = [0]

    def member(x):
        probes[0] += 1
        return cs.membership(x)

    counted = ConvexSet(k, member, cs.sampler, cs.lmo, cs.diameter)
    n = 400
    cert = run_checker("geodesic", counted, 1.5, n, np.random.default_rng(0))
    assert cert.passed
    assert probes[0] / n <= 4.0


@pytest.mark.parametrize("seed", [0, 1])
def test_certify_spd_membership_calls_are_stacked(seed, monkeypatch):
    # the certify-spd benchmark's ball, samples and streams: no notion
    # calls the ball's membership.  riemannian's clearances read the
    # ball's slack (its stacked probes are counted below), and the
    # geodesic notions take the exact radial margin: no exp beyond the
    # sample's two (the two ball points' slots, placed in one call, and
    # the chords' geodesic) and one dist call beyond the chord distances
    calls = []
    member = GeodesicBall.membership

    def counted(ball, x):
        calls.append(np.shape(x))
        return member(ball, x)

    monkeypatch.setattr(GeodesicBall, "membership", counted)
    k = Spd(3)
    cs = ball_set(GeodesicBall(k, k.random_point(np.random.default_rng(seed)),
                               1.0))
    maps = {name: getattr(k, name) for name in ("exp", "dist")}
    kernel_calls = {}

    def kernel_counted(name):
        def call(x, y):
            kernel_calls[name] += 1
            return maps[name](x, y)
        return call

    for name in maps:
        monkeypatch.setattr(k, name, kernel_counted(name))
    cases = [(notion, alpha) for notion in ("geodesic", "riemannian",
                                            "double_geodesic")
             for alpha in (0.05, 2.0)]
    for op, (notion, alpha) in enumerate(cases):
        calls.clear()
        kernel_calls.update(exp=0, dist=0)
        run_checker(notion, cs, alpha, 30, np.random.default_rng([seed, op]))
        assert len(calls) == 0, (notion, alpha)
        if notion != "riemannian":
            assert (kernel_calls["exp"], kernel_calls["dist"]) == (2, 2), (
                notion, alpha)


CERTIFY_BALLS = [  # the certify workloads' balls: kernel, radius, samples,
    # and the riemannian cases' alphas, operations 2 and 3 of a round
    (Sphere(3), 0.3, 400, (1.5, 4.0)), (Spd(3), 1.0, 30, (0.05, 2.0))]


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("kernel, radius, n, alphas", CERTIFY_BALLS,
                         ids=["certify-sphere", "certify-spd"])
def test_riemannian_clearances_take_few_stacked_probes(kernel, radius, n,
                                                        alphas, seed,
                                                        monkeypatch):
    # a riemannian certificate brackets its rows' clearances in a few
    # stacked probes, each one exp and one dist call: 5-6 here (the start
    # probe shares the far probe's call), where a bisection of every row to
    # the resolution made 37-38
    k = kernel
    cs = ball_set(GeodesicBall(k, k.random_point(np.random.default_rng(seed)),
                               radius))
    dist, calls = k.dist, [0]

    def counted(x, y):
        calls[0] += 1
        return dist(x, y)

    monkeypatch.setattr(k, "dist", counted)
    for op, alpha in enumerate(alphas, start=2):
        calls[0] = 0
        run_checker("riemannian", cs, alpha, n,
                    np.random.default_rng([seed, op]))
        assert calls[0] <= 10, (alpha, calls[0])


@pytest.mark.parametrize("seed", [0, 1])
def test_certify_spd_riemannian_factors_its_base_points_once(seed,
                                                             monkeypatch):
    # the certify-spd benchmark's ball, cases and streams: a riemannian
    # certificate takes its sample points' square roots once, for its
    # logs at x, and its rays slice theirs from that stack, where each
    # probe whose live rows changed factored them again (18-20 eigh
    # calls).  Left: one eigh per placement, per log call and per probe
    k = Spd(3)
    cs = ball_set(GeodesicBall(k, k.random_point(np.random.default_rng(seed)),
                               1.0))
    eigh, calls = np.linalg.eigh, [0]

    def counted(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cases = [(notion, alpha) for notion in ("geodesic", "riemannian",
                                            "double_geodesic")
             for alpha in (0.05, 2.0)]
    for op in range(60):
        notion, alpha = cases[op % len(cases)]
        calls[0] = 0
        run_checker(notion, cs, alpha, 30, np.random.default_rng([seed, op]))
        if notion == "riemannian":
            assert calls[0] <= 12, (op, calls[0])


def test_approx_scaling_domain_error_is_a_violation():
    # on a cap of radius 1 at alpha = 4 the residual's exp leaves its
    # domain: the certificate fails with the message in its witness
    k = Sphere(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 1.0))
    cert = run_checker("approx_scaling", cs, 4.0, 200,
                       np.random.default_rng(0))
    assert not cert.passed
    assert cert.worst_margin == -np.inf
    assert "exp" in cert.witness["domain_error"]


@pytest.mark.parametrize("seed", [0, 1])
def test_approx_scaling_far_hyperboloid_has_no_spurious_domain_error(seed):
    # omega is the scaled w itself: building it by transport to the
    # midpoint and back used to leave enough roundoff on this ball for
    # the residual's exp to leave the timelike cone (margin -inf)
    k = Hyperboloid(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 2.0))
    cert = run_checker("approx_scaling", cs, 4.0, 40,
                       np.random.default_rng(seed))
    assert "domain_error" not in cert.witness
    assert np.isfinite(cert.worst_margin)
    assert not cert.passed


def test_estimate_alpha_approx_scaling_survives_domain_errors():
    # the first probe, alpha = 10/diameter, leaves the residual's domain
    k = Sphere(3)
    cs = ball_set(GeodesicBall(k, k.base_point(), 1.0))
    a = estimate_alpha(cs, "approx_scaling", 100, np.random.default_rng(4))
    assert np.isfinite(a) and 0.0 < a < 10.0 / cs.diameter


def test_convex_set_requires_sampler():
    with pytest.raises(ConfigError):
        ConvexSet(Euclidean(2), lambda x: True, None)


@pytest.mark.parametrize("diameter", [0.0, -1.0, np.nan, np.inf])
def test_convex_set_rejects_a_diameter_that_is_not_positive_and_finite(
        diameter):
    # diameter 0 made estimate_alpha divide by zero, and NaN failed later
    # as a NaN alpha
    with pytest.raises(ConfigError, match="diameter"):
        ConvexSet(Euclidean(2), lambda x: True, lambda rng: np.zeros(2),
                  diameter=diameter)


def test_zero_alpha_always_passes():
    _, cs = cap(0.5, seed=4)
    rng = np.random.default_rng(7)
    assert run_checker("geodesic", cs, 0.0, 50, rng).passed
    assert run_checker("double_geodesic", cs, 0.0, 50, rng).passed


# ---------------------------------------------------------------------------
# function-class checks
# ---------------------------------------------------------------------------

def quadratic_fn(seed=41):
    k = Euclidean(4)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 4))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    target = rng.standard_normal(4) * 1.5
    from rfw import QuadraticOnEmbedded
    quad = QuadraticOnEmbedded(k, a, target)
    cs = ball_set(GeodesicBall(k, np.zeros(4), 1.0))
    return quad, cs, target


def test_gconvexity_margins_quadratic():
    quad, cs, target = quadratic_fn()
    fn = quad.as_smooth_fn(fstar=0.0, xstar=target)
    rep = check_gconvexity_of_function(fn, cs, 300, np.random.default_rng(42))
    assert rep.worst_margin >= -1e-8
    rep2 = check_smoothness_gradient_bound(fn, cs, 300,
                                           np.random.default_rng(43))
    assert rep2.worst_margin >= -1e-8


def test_gconvexity_flags_wrong_constants():
    quad, cs, target = quadratic_fn()
    fn = quad.as_smooth_fn(mu=10.0 * quad.L, L=10.0 * quad.L,
                           fstar=0.0, xstar=target)
    rep = check_gconvexity_of_function(fn, cs, 300, np.random.default_rng(44))
    assert rep.worst_margin < -1e-4


def test_function_check_certificate_roundtrip():
    quad, cs, target = quadratic_fn()
    fn = quad.as_smooth_fn(fstar=0.0, xstar=target)
    for check in (check_gconvexity_of_function,
                  check_smoothness_gradient_bound):
        cert = check(fn, cs, 50, np.random.default_rng(46))
        assert isinstance(cert, ConvexityCertificate)
        d = json.loads(cert.to_json())
        assert d["alpha_tested"] is None
        assert d == cert.to_dict()


def _half_nan_fn():
    # 0.5 |x|^2 on x_0 <= 0, NaN on the other half of the ball
    k = Euclidean(3)

    def value_grad(x):
        if x[0] > 0.0:
            return np.nan, np.full(3, np.nan)
        return 0.5 * float(x @ x), np.array(x, dtype=float)
    fn = SmoothStronglyConvexFn(k, value_grad, mu=1.0, L=1.0, fstar=0.0)
    return fn, ball_set(GeodesicBall(k, np.zeros(3), 1.0))


@pytest.mark.parametrize("check", [check_gconvexity_of_function,
                                   check_smoothness_gradient_bound])
def test_nan_margin_is_a_violation(check):
    # NaN < worst is False, so a NaN margin used to pass unseen
    fn, cs = _half_nan_fn()
    cert = check(fn, cs, 200, np.random.default_rng(0))
    assert not cert.passed
    assert cert.worst_margin == -np.inf
    assert cert.witness["reason"] == "margin is NaN"

    def no_constants(name):
        raise AssertionError(f"{name} in the certificate's JSON")
    d = json.loads(cert.to_json(), parse_constant=no_constants)
    assert d["worst_margin"] is None


def test_gradient_bound_needs_fstar():
    quad, cs, target = quadratic_fn()
    fn = quad.as_smooth_fn(xstar=None)  # no fstar
    with pytest.raises(ConfigError):
        check_smoothness_gradient_bound(fn, cs, 10, np.random.default_rng(0))


@pytest.mark.parametrize("constants", [
    {"mu": -np.inf, "L": np.inf}, {"mu": np.nan}, {"L": np.inf},
    {"L": np.nan}, {"fstar": -np.inf}, {"fstar": np.inf},
    {"fstar": np.nan}], ids=["mu-L-infinite", "mu-nan", "L-inf", "L-nan",
                             "fstar-minus-inf", "fstar-inf", "fstar-nan"])
def test_smooth_fn_constants_must_be_finite(constants):
    # mu = -inf with L = inf made check_gconvexity_of_function pass with
    # worst margin +inf, and fstar = -inf (or L = inf) made
    # check_smoothness_gradient_bound pass the same way
    quad, cs, target = quadratic_fn()
    declared = {"mu": quad.mu, "L": quad.L, "fstar": 0.0, **constants}
    with pytest.raises(ConfigError, match="SmoothStronglyConvexFn"):
        SmoothStronglyConvexFn(quad.kernel, quad.value_grad, **declared)


def test_smooth_fn_validates_stationary_point():
    quad, cs, target = quadratic_fn()
    with pytest.raises(ContractError):
        SmoothStronglyConvexFn(quad.kernel, quad.value_grad,
                               mu=quad.mu, L=quad.L, fstar=0.0,
                               xstar=target + 0.5)


def test_sqdist_fn_on_negative_curvature():
    for k, r in [(Spd(3), 1.0), (Hyperboloid(3), 1.0)]:
        from rfw import SquaredDistanceObjective
        rng = np.random.default_rng(44)
        c = k.random_point(rng)
        obj = SquaredDistanceObjective(k, c)
        fn = obj.as_smooth_fn(r)
        assert fn.mu == pytest.approx(1.0)  # delta_r = 1 when kmax <= 0
        cs = ball_set(GeodesicBall(k, c, r))
        rep = check_gconvexity_of_function(fn, cs, 200,
                                           np.random.default_rng(45))
        assert rep.worst_margin >= -1e-8


@pytest.mark.parametrize("alpha, n", [(-1.0, 50), (-1e-300, 50), (np.nan, 50),
                                      (np.inf, 50), (1.0, -5)],
                         ids=["negative", "tiny-negative", "nan", "inf",
                              "negative-samples"])
@pytest.mark.parametrize("notion", NOTIONS)
def test_run_checker_rejects_bad_alpha_and_sample_count(notion, alpha, n):
    _, cs = cap(0.3)
    with pytest.raises(ConfigError):
        run_checker(notion, cs, alpha, n, np.random.default_rng(0))


@pytest.mark.parametrize("notion", NOTIONS)
def test_run_checker_takes_zero_alpha_and_zero_samples(notion):
    _, cs = cap(0.3)
    assert run_checker(notion, cs, 0.0, 50, np.random.default_rng(0)).passed
    empty = run_checker(notion, cs, 1.0, 0, np.random.default_rng(0))
    assert empty.passed and empty.samples == 0


def test_estimate_alpha_warns_when_it_saturates(caplog):
    _, cs = disk(1.0)
    cap_alpha = 10.0 / cs.diameter
    with caplog.at_level("WARNING", logger="rfw"):
        a = estimate_alpha(cs, "scaling", 0, np.random.default_rng(0))
    assert a == cap_alpha
    [record] = caplog.records
    assert record.levelname == "WARNING" and record.name == "rfw"
    assert "scaling" in record.getMessage()
    assert f"{cap_alpha:.6g}" in record.getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="rfw"):
        estimate_alpha(cs, "scaling", 100, np.random.default_rng(0))
    assert not caplog.records


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None],
                         ids=["fraction", "float", "string", "none"])
def test_every_sampled_check_rejects_a_non_integer_count(n):
    quad, cs, target = quadratic_fn()
    fn = quad.as_smooth_fn(fstar=0.0, xstar=target)
    calls = [partial(run_checker, notion, cs, 0.5) for notion in NOTIONS]
    calls += [partial(check, fn, cs) for check in (
        check_gconvexity_of_function, check_smoothness_gradient_bound)]
    calls += [partial(estimate_alpha, cs, "geodesic"),
              partial(min_gradient_norm, quad, cs)]
    for call in calls:
        with pytest.raises(ConfigError, match="must be an integer >= 0"):
            call(n, np.random.default_rng(0))


@pytest.mark.parametrize("n", [True, False, np.True_],
                         ids=["true", "false", "numpy-true"])
def test_every_sampled_check_rejects_a_bool_count(n):
    # a bool is an int to isinstance, but not a sample count
    from rfw import SquaredDistanceObjective
    k, cs = cap(0.3)
    objective = SquaredDistanceObjective(k, k.random_point(
        np.random.default_rng(1)))
    fn = objective.as_smooth_fn(0.3)
    calls = [partial(run_checker, notion, cs, 0.5) for notion in NOTIONS]
    calls += [partial(check, fn, cs) for check in (
        check_gconvexity_of_function, check_smoothness_gradient_bound)]
    calls += [partial(estimate_alpha, cs, notion) for notion in NOTIONS]
    calls += [partial(min_gradient_norm, objective, cs)]
    for call in calls:
        with pytest.raises(ConfigError, match="must be an integer >= 0"):
            call(n, np.random.default_rng(0))


@pytest.mark.parametrize("margins, row, reason", [
    ([0.2, -0.1, -0.1], 1, False),
    ([np.nan, -np.inf], 0, True),
    ([-np.inf, np.nan], 0, False),
    ([np.inf, np.inf], None, False),
    ([], None, False),
], ids=["first-lowest", "nan-first", "nan-second", "all-inf", "empty"])
def test_worst_case_keeps_the_first_lowest_row(margins, row, reason):
    # a NaN counts as -inf and ties keep the earlier row; +inf rows have
    # nothing to certify
    witness = lambda i, margin: {"row": i, "margin": margin}
    cert = _worst_case("geodesic", 1.0, len(margins),
                       np.array(margins, dtype=float), witness)
    d = cert.to_dict()
    if row is None:
        assert cert.worst_margin == np.inf and d["worst_margin"] is None
        assert cert.witness == {} and cert.passed
        return
    assert cert.witness["row"] == row
    low = -np.inf if np.isnan(margins[row]) else margins[row]
    assert cert.worst_margin == low == cert.witness["margin"]
    assert ("reason" in cert.witness) == reason


@pytest.mark.parametrize("notion", NOTIONS)
def test_numpy_integer_sample_count(notion):
    # the certificate stores a plain int, so its JSON is that of n = 5
    _, cs = cap(0.3)
    cert = run_checker(notion, cs, 1.0, np.int64(5), np.random.default_rng(0))
    same = run_checker(notion, cs, 1.0, 5, np.random.default_rng(0))
    assert cert.to_json() == same.to_json()
