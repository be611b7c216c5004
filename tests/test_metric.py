"""Slope metric construction: alpha, beta, F, the indicatrix function, Okubo
root-solving, and the fundamental tensor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopemetric import (
    DegenerateDenominator,
    GraphSurface,
    NavigationParams,
    NoRoot,
    RiemannMetric2,
    SurfaceOfRevolution,
    ZeroVector,
    alpha,
    beta,
    flat_surface,
    fundamental_tensor,
    induced_metric,
    limacon_h,
    okubo_solve,
    one_sheet_hyperboloid,
    paraboloid,
    slope_metric_F,
)
from conftest import builtin_profiles, interior_radii

# hand values at the paraboloid point (0.1, 0): alpha^2 = 1.04, beta = -0.2,
# so F(+x) = 1.04/(sqrt(1.04)+0.2) and F(-x) = 1.04/(sqrt(1.04)-0.2)
F_DOWNHILL = 0.8525960588272993
F_UPHILL = 1.268596058827299

# immutable, shared across hypothesis examples
PARAB = SurfaceOfRevolution(paraboloid(100.0))

nonzero_dirs = st.tuples(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
).filter(lambda d: d[0] ** 2 + d[1] ** 2 > 1e-4)


class TestInducedMetric:
    def test_flat_identity(self, flat):
        a = induced_metric(flat, 0.3, -0.7)
        assert (a.a11, a.a12, a.a22) == (1.0, 0.0, 1.0)

    def test_paraboloid_point(self, parab_surface):
        a = induced_metric(parab_surface, 0.1, 0.0)
        assert a.a11 == pytest.approx(1.04, rel=1e-13)
        assert a.a12 == pytest.approx(0.0, abs=1e-15)
        assert a.a22 == pytest.approx(1.0, rel=1e-15)
        assert a.det == pytest.approx(1.04, rel=1e-13)

    def test_determinant_identity_random_points(self):
        # det(a) = 1 + f_x^2 + f_y^2, checked via the plain 2x2 determinant
        # at 100 random points spread over the builtin surfaces
        rng = np.random.default_rng(11)
        profiles = builtin_profiles()
        for k in range(100):
            profile = profiles[k % len(profiles)]
            surf = SurfaceOfRevolution(profile)
            lo, hi = profile.domain
            hi_eff = min(hi, 5.0)
            s = rng.uniform(lo + 0.05 * (hi_eff - lo), hi_eff - 0.05 * (hi_eff - lo))
            th = rng.uniform(0, 2 * np.pi)
            x, y = s * np.cos(th), s * np.sin(th)
            a = induced_metric(surf, x, y)
            fx, fy = surf.gradient(x, y)
            det_direct = a.a11 * a.a22 - a.a12 ** 2
            assert det_direct == pytest.approx(1 + fx**2 + fy**2, rel=1e-12)


class TestAlphaBeta:
    def test_euclidean_norm(self):
        a = RiemannMetric2(1.0, 0.0, 1.0)
        assert alpha(a, (3.0, 4.0)) == 5.0

    def test_homogeneity(self):
        a = RiemannMetric2(1.3, 0.2, 2.1)
        tv = np.array([0.4, -1.1])
        assert alpha(a, 2 * tv) == pytest.approx(2 * alpha(a, tv), rel=1e-14)

    def test_paraboloid_alpha(self, parab_surface):
        a = induced_metric(parab_surface, 0.1, 0.0)
        assert alpha(a, (1.0, 0.0)) == pytest.approx(math.sqrt(1.04), rel=1e-14)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            alpha(RiemannMetric2(1.0, 0.0, 1.0), (0.0, 0.0))

    def test_beta_flat(self, flat):
        assert beta(flat, 1.0, 2.0, (0.3, -0.4)) == 0.0

    def test_beta_paraboloid(self, parab_surface):
        assert beta(parab_surface, 0.1, 0.0, (1.0, 0.0)) == pytest.approx(-0.2, rel=1e-13)

    def test_beta_vanishes_along_latitude(self, parab_surface):
        # tangential direction (perpendicular to the gradient) has zero climb
        x, y = 0.3, 0.4
        fx, fy = parab_surface.gradient(x, y)
        assert beta(parab_surface, x, y, (-fy, fx)) == pytest.approx(0.0, abs=1e-15)

    def test_beta_linear(self, parab_surface):
        b1 = beta(parab_surface, 0.2, 0.1, (1.0, 2.0))
        b2 = beta(parab_surface, 0.2, 0.1, (0.5, -1.0))
        b12 = beta(parab_surface, 0.2, 0.1, (1.5, 1.0))
        assert b12 == pytest.approx(b1 + b2, rel=1e-12)


class TestSlopeMetric:
    def test_flat_euclidean(self, flat):
        assert slope_metric_F(flat, 0.0, 0.0, (1.0, 0.0)) == 1.0
        assert slope_metric_F(flat, 2.0, 3.0, (3.0, 4.0)) == pytest.approx(5.0, rel=1e-15)

    def test_paraboloid_downhill_uphill(self, parab_surface):
        # recomputed by the hand formula alpha^2/(alpha - beta)
        down = slope_metric_F(parab_surface, 0.1, 0.0, (1.0, 0.0))
        up = slope_metric_F(parab_surface, 0.1, 0.0, (-1.0, 0.0))
        assert down == pytest.approx(F_DOWNHILL, rel=1e-14)
        assert up == pytest.approx(F_UPHILL, rel=1e-14)
        assert down < up  # downhill is faster

    def test_zero_vector(self, parab_surface):
        with pytest.raises(ZeroVector):
            slope_metric_F(parab_surface, 0.1, 0.0, (0.0, 0.0))

    def test_degenerate_denominator(self, parab_surface):
        # uphill with an overwhelming slope coefficient
        nav = NavigationParams(v=1.0, w=6.0)
        with pytest.raises(DegenerateDenominator):
            slope_metric_F(parab_surface, 0.1, 0.0, (-1.0, 0.0), nav)

    def test_general_nav_form(self, parab_surface):
        nav = NavigationParams(v=2.0, w=0.5)
        F = slope_metric_F(parab_surface, 0.1, 0.0, (1.0, 0.0), nav)
        al, b = math.sqrt(1.04), -0.2
        assert F == pytest.approx(1.04 / (2.0 * al - 0.5 * b), rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(d=nonzero_dirs, lam=st.sampled_from([0.5, 2.0, 10.0]))
    def test_homogeneity_property(self, d, lam):
        F1 = slope_metric_F(PARAB, 0.15, -0.1, d)
        F2 = slope_metric_F(PARAB, 0.15, -0.1, (lam * d[0], lam * d[1]))
        assert F2 == pytest.approx(lam * F1, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d=nonzero_dirs)
    def test_positivity_beta_below_alpha(self, d):
        # |beta| < alpha on any graph surface, so normalized F is positive
        surf = SurfaceOfRevolution(one_sheet_hyperboloid(0.5, 1.0))
        x, y = 1.3, -0.4
        a = induced_metric(surf, x, y)
        al = alpha(a, d)
        b = beta(surf, x, y, d)
        assert abs(b) < al
        assert slope_metric_F(surf, x, y, d) > 0

    def test_riemannian_limit(self):
        # constant height: F collapses to the Euclidean norm
        level = flat_surface(3.7)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.normal(size=2)
            F = slope_metric_F(level, rng.normal(), rng.normal(), d)
            assert F == pytest.approx(np.hypot(*d), rel=1e-10)


class TestLimaconH:
    def test_flat_unit_circle(self, flat):
        for th in np.linspace(0, 2 * np.pi, 9):
            tv = (math.cos(th), math.sin(th))
            assert limacon_h(flat, 0.0, 0.0, tv) == pytest.approx(0.0, abs=1e-15)

    def test_flat_substitution(self, flat):
        assert limacon_h(flat, 0.0, 0.0, (2.0, 0.0)) == pytest.approx(2.0, rel=1e-15)

    def test_w_independent_on_flat(self, flat):
        h1 = limacon_h(flat, 0.0, 0.0, (1.0, 0.0), NavigationParams(1.0, 0.3))
        h2 = limacon_h(flat, 0.0, 0.0, (1.0, 0.0), NavigationParams(1.0, 2.9))
        assert h1 == h2 == pytest.approx(0.0, abs=1e-15)

    def test_scaling_root_is_reciprocal_F(self, parab_surface):
        tv = np.array([1.0, 0.0])
        F = slope_metric_F(parab_surface, 0.1, 0.0, tv)
        assert limacon_h(parab_surface, 0.1, 0.0, tv / F) == pytest.approx(0.0, abs=1e-13)
        # and the root is unique among positive scalings: bracket it directly
        lo, hi = 1e-6, 1e3
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if limacon_h(parab_surface, 0.1, 0.0, mid * tv) < 0:
                lo = mid
            else:
                hi = mid
        assert math.sqrt(lo * hi) == pytest.approx(1.0 / F, rel=1e-9)


class TestOkubo:
    def test_flat_unit(self, flat):
        assert okubo_solve(flat, 0.0, 0.0, np.array([1.0, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_matches_closed_form_at_example_point(self, parab_surface):
        F = okubo_solve(parab_surface, 0.1, 0.0, np.array([1.0, 0.0]))
        assert F == pytest.approx(F_DOWNHILL, rel=1e-12)

    def test_root_homogeneity(self, parab_surface):
        d = np.array([0.3, -0.8])
        F1 = okubo_solve(parab_surface, 0.1, 0.05, d)
        F2 = okubo_solve(parab_surface, 0.1, 0.05, 7.3 * d)
        assert F2 == pytest.approx(7.3 * F1, rel=1e-12)

    def test_consistency_grid(self):
        # 10x10 points x 16 directions on two contrasting surfaces
        th_pts = np.linspace(0, 2 * np.pi, 10, endpoint=False)
        th_dirs = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        for profile in (paraboloid(100.0), one_sheet_hyperboloid(0.5, 1.0)):
            surf = SurfaceOfRevolution(profile)
            radii = interior_radii(profile, n=10)
            worst = 0.0
            for s in radii:
                for tp in th_pts:
                    x, y = s * math.cos(tp), s * math.sin(tp)
                    for td in th_dirs:
                        d = np.array([math.cos(td), math.sin(td)])
                        Fo = okubo_solve(surf, x, y, d)
                        Fc = slope_metric_F(surf, x, y, d)
                        worst = max(worst, abs(Fo - Fc) / Fc)
            assert worst <= 1e-9

    def test_reads_the_gradient_once(self):
        calls = []

        def grad(x, y):
            calls.append((x, y))
            return 0.4 * x, -0.3 * y

        surf = GraphSurface(f=lambda x, y: 0.2 * x * x - 0.15 * y * y, grad=grad)
        F = okubo_solve(surf, 0.5, 0.3, np.array([0.6, -0.8]))
        assert len(calls) == 1
        assert F == pytest.approx(slope_metric_F(surf, 0.5, 0.3, np.array([0.6, -0.8])),
                                  rel=1e-9)

    def test_no_root_exactly_where_quotient_degenerates(self):
        # nav (1, 6) puts the cone v*alpha - w*beta <= 0 inside the fan
        nav = NavigationParams(1.0, 6.0)
        th = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        n_degenerate = 0
        for d in np.stack([np.cos(th), np.sin(th)], axis=-1):
            try:
                slope_metric_F(PARAB, 0.3, 0.2, d, nav)
            except DegenerateDenominator:
                n_degenerate += 1
                with pytest.raises(NoRoot):
                    okubo_solve(PARAB, 0.3, 0.2, d, nav)
            else:
                okubo_solve(PARAB, 0.3, 0.2, d, nav)
        assert 0 < n_degenerate < len(th)


class TestFundamentalTensor:
    def test_flat_identity(self, flat):
        # F^2 is exactly quadratic on level ground; a wide stencil leaves
        # only rounding, comfortably below the 1e-10 flat-limit tolerance
        g = fundamental_tensor(flat, 0.5, -0.2, np.array([0.6, 0.8]), step=0.05)
        assert g.g11 == pytest.approx(1.0, abs=1e-10)
        assert g.g22 == pytest.approx(1.0, abs=1e-10)
        assert g.g12 == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_and_pd_inside(self, parab_surface):
        rng = np.random.default_rng(3)
        for _ in range(10):
            th = rng.uniform(0, 2 * np.pi)
            g = fundamental_tensor(parab_surface, 0.1, 0.0, np.array([math.cos(th), math.sin(th)]))
            lo, hi = g.eigenvalues()
            assert lo > 0 and hi > 0

    def test_euler_identity_random(self):
        rng = np.random.default_rng(4)
        surf = SurfaceOfRevolution(paraboloid(100.0))
        for _ in range(100):
            s = rng.uniform(0.02, 0.27)
            th = rng.uniform(0, 2 * np.pi)
            x, y = s * math.cos(th), s * math.sin(th)
            d = rng.normal(size=2)
            while np.hypot(*d) < 0.1:
                d = rng.normal(size=2)
            g = fundamental_tensor(surf, x, y, d)
            F = slope_metric_F(surf, x, y, d)
            assert abs(g.quad(d) - F * F) / (F * F) <= 1e-6

    def test_zero_homogeneity(self, parab_surface):
        tv = np.array([0.3, 0.7])
        g1 = fundamental_tensor(parab_surface, 0.1, 0.0, tv)
        g3 = fundamental_tensor(parab_surface, 0.1, 0.0, 3.0 * tv)
        assert g3.g11 == pytest.approx(g1.g11, abs=1e-6)
        assert g3.g12 == pytest.approx(g1.g12, abs=1e-6)
        assert g3.g22 == pytest.approx(g1.g22, abs=1e-6)

    def test_stencil_out_of_cone(self, parab_surface):
        from slopemetric import StencilOutOfCone

        # w at the critical ratio v*alpha/beta for the uphill direction puts
        # the stencil center on the cone boundary
        w_crit = math.sqrt(1.04) / 0.2
        nav = NavigationParams(v=1.0, w=w_crit * (1 + 1e-9))
        with pytest.raises(StencilOutOfCone):
            fundamental_tensor(parab_surface, 0.1, 0.0, np.array([-1.0, 0.0]), nav, step=1e-2)

    def test_pd_verdict_band(self, flat):
        g = fundamental_tensor(flat, 0.0, 0.0, np.array([1.0, 0.0]), step=0.05)
        assert g.is_positive_definite() is True


class TestConcurrency:
    def test_parallel_evaluation_matches_serial(self, parab_surface):
        # immutable surfaces, pure functions: many threads, one surface
        from concurrent.futures import ThreadPoolExecutor

        th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        points = [(0.05 + 0.003 * k, -0.02 + 0.002 * k) for k in range(32)]

        def work(pt):
            return slope_metric_F(parab_surface, pt[0], pt[1], dirs)

        serial = [work(p) for p in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(work, points))
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)
