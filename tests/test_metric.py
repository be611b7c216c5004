"""Slope metric construction: alpha, beta, F, the indicatrix function, Okubo
root-solving, and the fundamental tensor."""

import cProfile
import functools
import hashlib
import importlib.util
import json
import math
import pstats
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopemetric
from slopemetric import (
    ApexSingularity,
    DegenerateDenominator,
    DirectionOverflow,
    GraphSurface,
    NavigationParams,
    NonDifferentiable,
    NoRoot,
    OutOfDomain,
    SlopeMetricError,
    SurfaceOfRevolution,
    SymmetricForm,
    TrigProfile,
    ZeroVector,
    alpha,
    beta,
    cartesian_condition,
    cone,
    ellipsoid,
    eval_profile,
    flat_surface,
    fundamental_tensor,
    hessian_field,
    induced_metric,
    limacon_h,
    okubo_solve,
    one_sheet_hyperboloid,
    paraboloid,
    profile_derivative,
    profile_from_callable,
    profile_from_table,
    profile_second_derivative,
    slope_metric_F,
    surface_from_json,
)
from slopemetric import convexity, metric
from conftest import builtin_profiles, builtin_windows, interior_radii, pinned_env

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
        assert (a.m11, a.m12, a.m22) == (1.0, 0.0, 1.0)

    def test_paraboloid_point(self, parab_surface):
        a = induced_metric(parab_surface, 0.1, 0.0)
        assert a.m11 == pytest.approx(1.04, rel=1e-13)
        assert a.m12 == pytest.approx(0.0, abs=1e-15)
        assert a.m22 == pytest.approx(1.0, rel=1e-15)
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
            det_direct = a.m11 * a.m22 - a.m12 ** 2
            assert det_direct == pytest.approx(1 + fx**2 + fy**2, rel=1e-12)


# any finite size, from subnormal to near the largest double
wide_component = st.floats(min_value=-1e300, max_value=1e300)
wide_dirs = st.tuples(wide_component, wide_component).filter(lambda d: d != (0.0, 0.0))


class TestSymmetricForm:
    @settings(max_examples=30, deadline=None)
    @given(d=wide_dirs)
    def test_alpha_squared_is_the_induced_quadratic_form(self, d):
        # alpha prescales d by 2**-e exactly, then squares; compare the form at that prescale,
        # where no square over- or underflows
        e = math.frexp(max(abs(d[0]), abs(d[1])))[1]
        u = (math.ldexp(d[0], -e), math.ldexp(d[1], -e))
        for surf in _consistency_surfaces():
            for x, y in _consistency_points(surf):
                a = induced_metric(surf, x, y)
                al = alpha(surf, x, y, u)
                assert alpha(surf, x, y, d) == math.ldexp(al, e)
                assert al * al == pytest.approx(a.quad(u), rel=1e-14)
                assert a.quad(u) == a.inner(u, u)

    def test_one_type_for_a_and_g(self, parab_surface):
        g = fundamental_tensor(parab_surface, 0.1, 0.0, (1.0, 0.0))
        assert type(g) is type(induced_metric(parab_surface, 0.1, 0.0)) is SymmetricForm

    def test_eigenvalues_follow_the_input_shape(self):
        xs, ys = np.array([0.1, 0.2]), np.array([0.0, 0.1])
        lo, hi = induced_metric(PARAB, xs, ys).eigenvalues()
        assert lo.shape == hi.shape == (2,)
        for i in range(2):
            a = induced_metric(PARAB, xs[i], ys[i])
            one = a.eigenvalues()
            assert all(type(v) is float for v in one)
            assert one == (lo[i], hi[i])
            # the math-module spelling, bit for bit
            mean = 0.5 * a.trace
            disc = math.sqrt(max(mean * mean - a.det, 0.0))
            assert one == (mean - disc, mean + disc)
            # a_ij = I + grad f grad f^T has eigenvalues 1 and 1 + |grad f|^2
            fx, fy = PARAB.gradient(xs[i], ys[i])
            assert one == pytest.approx((1.0, 1.0 + fx * fx + fy * fy), rel=1e-14)


class TestAlphaBeta:
    def test_euclidean_norm(self, flat):
        assert alpha(flat, 1.0, 2.0, (3.0, 4.0)) == 5.0

    def test_homogeneity(self, parab_surface):
        # a point off the axes, where a_ij has all three entries nonzero; the
        # direction's power-of-two prescale makes the doubling exact
        tv = np.array([0.4, -1.1])
        assert alpha(parab_surface, 0.3, -0.2, 2 * tv) == 2 * alpha(parab_surface, 0.3, -0.2, tv)

    def test_paraboloid_alpha(self, parab_surface):
        assert alpha(parab_surface, 0.1, 0.0, (1.0, 0.0)) == pytest.approx(math.sqrt(1.04), rel=1e-14)

    def test_zero_vector(self, parab_surface):
        with pytest.raises(ZeroVector):
            alpha(parab_surface, 0.3, -0.2, (0.0, 0.0))

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
        al = alpha(surf, x, y, d)
        b = beta(surf, x, y, d)
        assert abs(b) < al
        assert slope_metric_F(surf, x, y, d) > 0

    def test_riemannian_limit(self):
        # constant height: F collapses to the Euclidean norm
        level = flat_surface()
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.normal(size=2)
            F = slope_metric_F(level, rng.normal(), rng.normal(), d)
            assert F == pytest.approx(np.hypot(*d), rel=1e-10)


class TestTinyDirections:
    """F is 1-homogeneous and g_ij 0-homogeneous: a direction's size decides
    nothing but the size of F, down to subnormal and up to the largest doubles."""

    NAVS = [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.0), NavigationParams(1.0, 0.4),
            NavigationParams(2.0, 1.0)]

    @staticmethod
    def _window_samples(nav):
        """Points of both acceptance windows of every builtin, each with a direction F takes."""
        rng = np.random.default_rng(23)
        for _, profile, okubo_radii, euler_radii in builtin_windows():
            surf = SurfaceOfRevolution(profile)
            for lo, hi in (okubo_radii, euler_radii):
                for _ in range(6):
                    s, (tp, td) = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi, 2)
                    x, y = s * math.cos(tp), s * math.sin(tp)
                    d = np.array([math.cos(td), math.sin(td)])
                    try:
                        slope_metric_F(surf, x, y, d, nav)
                    except DegenerateDenominator:
                        continue
                    yield surf, x, y, d * rng.uniform(0.1, 3.0)

    @pytest.mark.parametrize("k", [-1000, -511, 510, 1000])
    @pytest.mark.parametrize("nav", NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_power_of_two_scaling_is_exact(self, k, nav):
        n = 0
        for surf, x, y, d in self._window_samples(nav):
            big = np.ldexp(d, k)
            for route in (slope_metric_F, okubo_solve):
                assert route(surf, x, y, big, nav) == math.ldexp(route(surf, x, y, d, nav), k)
            assert fundamental_tensor(surf, x, y, big, nav) == fundamental_tensor(surf, x, y, d, nav)
            n += 1
        assert n >= 40

    @pytest.mark.parametrize("d", [(5e-324, 0.0), (0.0, -1e-320), (1e-200, 1e-200), (1e200, 1.0),
                                   (1.3e154, 1.0), (-1.0e154, -0.6e154), (1.7e308, 1.7e308)])
    @pytest.mark.parametrize("nav", NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_both_routes_give_the_value_by_homogeneity(self, d, nav):
        # c * F(d / c) in Python floats, which overflow to inf without a warning
        c = max(abs(d[0]), abs(d[1]))
        want = c * slope_metric_F(PARAB, 0.3, 0.2, np.array(d) / c, nav)
        assert math.isfinite(fundamental_tensor(PARAB, 0.3, 0.2, np.array(d), nav).det)
        for route in (slope_metric_F, okubo_solve):
            if math.isinf(want):
                with pytest.raises(DirectionOverflow, match="not a finite double"):
                    route(PARAB, 0.3, 0.2, np.array(d), nav)
            else:
                assert route(PARAB, 0.3, 0.2, np.array(d), nav) == pytest.approx(want, rel=1e-12,
                                                                                 abs=1e-323)

    def test_batch_and_alpha(self):
        dirs = np.array([[1e200, 1.0], [5e-324, 0.0], [0.6, -0.8]])
        F = slope_metric_F(PARAB, 0.3, 0.2, dirs)
        assert F.tolist() == [slope_metric_F(PARAB, 0.3, 0.2, d) for d in dirs]
        xs, ys = np.array([0.3, 0.1, -0.2]), np.array([0.2, 0.0, 0.1])
        for route in (slope_metric_F, hessian_field):
            assert np.isfinite(route(PARAB, xs, ys, dirs)).all()
        a = induced_metric(PARAB, 0.3, 0.2)
        assert alpha(PARAB, 0.3, 0.2, (1e200, 1.0)) == pytest.approx(1e200 * math.sqrt(a.m11), rel=1e-15)

    def test_zero_direction_message(self):
        for route in (slope_metric_F, okubo_solve, fundamental_tensor, limacon_h,
                      lambda *a: beta(*a[:4])):
            with pytest.raises(ZeroVector, match="^direction must be nonzero$"):
                route(PARAB, 0.3, 0.2, np.array([0.0, 0.0]))

    @pytest.mark.parametrize("d", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_components_raise_direction_overflow(self, d):
        for route in (slope_metric_F, okubo_solve, fundamental_tensor, limacon_h,
                      lambda *a: beta(*a[:4])):
            with pytest.raises(DirectionOverflow, match="^direction must be finite$"):
                route(PARAB, 0.3, 0.2, np.array(d))
        for route in (slope_metric_F, hessian_field, limacon_h):
            with pytest.raises(DirectionOverflow, match="^direction must be finite$"):
                route(PARAB, 0.3, 0.2, np.array([[1.0, 0.0], d]))
        with pytest.raises(DirectionOverflow, match="^direction must be finite$"):
            alpha(PARAB, 0.3, 0.2, d)

    @pytest.mark.parametrize("nav", NAVS[:3], ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_uphill_F_past_the_largest_double_raises(self, nav):
        # uphill at v = 1, F is more than |d|: at |d| = 1.7e308 it is not a finite double
        d = np.array([-1.7e308, 0.0])
        for route in (slope_metric_F, okubo_solve):
            with pytest.raises(DirectionOverflow, match="not a finite double"):
                route(PARAB, 0.3, 0.2, d, nav)
        with pytest.raises(DirectionOverflow, match="not a finite double"):
            slope_metric_F(PARAB, 0.3, 0.2, np.array([[1.0, 0.0], d]), nav)
        # g_ij is 0-homogeneous: the same direction has its tensor
        g = fundamental_tensor(PARAB, 0.3, 0.2, d, nav)
        assert g == fundamental_tensor(PARAB, 0.3, 0.2, np.ldexp(d, -1000), nav)

    def test_uphill_numerator_at_nav_2_1(self):
        # v^2*|d|^2 overflowed here before the prescale, and F came out 0.0
        nav = NavigationParams(2.0, 1.0)
        d = (-1e154, 0.0)
        F = slope_metric_F(PARAB, 0.3, 0.2, d, nav)
        assert F == pytest.approx(okubo_solve(PARAB, 0.3, 0.2, np.array(d), nav), rel=1e-12)
        unit = slope_metric_F(PARAB, 0.3, 0.2, (-1.0, 0.0), nav)
        assert F == pytest.approx(1e154 * unit, rel=1e-15)

    def test_limacon_h_past_the_largest_double_raises(self):
        # h is not homogeneous: alpha^2 of this direction is not a finite double
        for tv in ((1.3e154, 1.0), np.array([[1.0, 0.0], [1e200, 1.0]])):
            with pytest.raises(DirectionOverflow, match="not a finite double"):
                limacon_h(PARAB, 0.3, 0.2, tv)
        assert limacon_h(PARAB, 0.3, 0.2, (1.3e150, 1.0)) > 0.0

    @pytest.mark.parametrize("d", [(0.6, 0.8), (-0.6, -0.8)])
    @pytest.mark.parametrize("nav", NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_alpha_squared_just_below_the_largest_double(self, d, nav):
        # alpha^2 of the direction itself is about 0.9 of the largest double
        # (downhill, then uphill); F of the prescaled direction keeps its digits
        d = np.array(d)
        big = 1.05e154 * d
        assert 0.5 < metric._parts(-0.6, -0.4, *big)[2] / np.finfo(float).max < 1.0
        F1 = slope_metric_F(PARAB, 0.3, 0.2, d, nav)
        assert slope_metric_F(PARAB, 0.3, 0.2, big, nav) == pytest.approx(1.05e154 * F1, rel=1e-15)
        assert okubo_solve(PARAB, 0.3, 0.2, big, nav) == pytest.approx(1.05e154 * F1, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 2.0 ** -511, 1e150, 2.0 ** 510])
    def test_normal_range_keeps_its_digits(self, scale):
        # 2**-1022 <= |d|^2 < 2**1024: still F's full digits, by 1-homogeneity
        d = np.array([0.6, -0.8])
        F1 = slope_metric_F(PARAB, 0.3, 0.2, d)
        assert slope_metric_F(PARAB, 0.3, 0.2, scale * d) == pytest.approx(scale * F1, rel=1e-15)
        assert okubo_solve(PARAB, 0.3, 0.2, scale * d) == pytest.approx(scale * F1, rel=1e-12)


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

    def test_direction_forms_give_one_float(self):
        # a list, a tuple and an array direction are converted once, to the same bits;
        # a direction scaled by 2**40 or 2**-40 solves the same unit-direction problem
        for x, y, d in ((0.1, 0.05, [0.3, -0.8]), (0.3, -0.2, [-1.0, 0.25]), (0.05, 0.2, [0.7, 0.6])):
            got = {_bits(okubo_solve(PARAB, x, y, form(d))) for form in (list, tuple, np.array)}
            assert len(got) == 1
            F = okubo_solve(PARAB, x, y, d)
            for e in (40, -40):
                assert okubo_solve(PARAB, x, y, np.ldexp(d, e)) == math.ldexp(F, e)

    def test_reads_the_gradient_once(self):
        calls = []

        def grad(x, y):
            calls.append((x, y))
            return 0.4 * x, -0.3 * y

        surf = GraphSurface(f=lambda x, y: 0.2 * x * x - 0.15 * y * y, grad=grad,
                            hess=lambda x, y: (0.4, 0.0, -0.3))
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


def _benchmark_okubo_pairs():
    """The crosscheck benchmark's okubo pairs of operations 0-2 at seed 1.

    3 006 (surface, x, y, direction) tuples drawn in ``bench/inputs.py``'s
    OKUBO_WINDOWS, read from that file so the test sees the benchmark's points.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    surfs = [surface_from_json(s) for s, _ in inputs.OKUBO_WINDOWS]
    return [(surfs[k], x, y, np.array([dx, dy]))
            for i in range(3) for k, x, y, dx, dy in inputs.crosscheck_inputs(1, i)[1]]


def okubo_digests(nav) -> tuple[str, str]:
    """sha256 of the slope_metric_F and of the okubo_solve values at ``nav`` over the pairs."""
    params = NavigationParams(*nav)
    return tuple(
        hashlib.sha256(np.array([fn(surf, x, y, d, params) for surf, x, y, d in
                                 TestOkuboOnBenchmarkPairs.PAIRS]).tobytes()).hexdigest()
        for fn in (slope_metric_F, okubo_solve))


@functools.cache
def _pinned_okubo_digests() -> dict:
    """``okubo_digests`` at each of ``DIGESTS``' navs, from one child process run as
    the golden digests are: np.power and np.exp in the closed forms dispatch by the CPU."""
    navs = list(TestOkuboOnBenchmarkPairs.DIGESTS)
    code = f"import json, test_metric; print(json.dumps([test_metric.okubo_digests(n) for n in {navs!r}]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=pinned_env(), cwd=Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    return {nav: tuple(d) for nav, d in zip(navs, json.loads(proc.stdout))}


class TestOkuboOnBenchmarkPairs:
    PAIRS = _benchmark_okubo_pairs()

    @pytest.mark.parametrize("nav", [(1.0, 1.0), (1.0, 0.5), (1.0, 0.75)])
    def test_agrees_with_closed_form_to_1e_13(self, nav):
        nav = NavigationParams(*nav)
        worst = 0.0
        for surf, x, y, d in self.PAIRS:
            Fc = slope_metric_F(surf, x, y, d, nav)
            worst = max(worst, abs(okubo_solve(surf, x, y, d, nav) - Fc) / Fc)
        assert worst <= 1e-13

    def test_no_root_exactly_where_quotient_degenerates(self):
        nav = NavigationParams(1.0, 6.0)
        n_degenerate = 0
        for surf, x, y, d in self.PAIRS:
            try:
                slope_metric_F(surf, x, y, d, nav)
            except DegenerateDenominator:
                n_degenerate += 1
                with pytest.raises(NoRoot):
                    okubo_solve(surf, x, y, d, nav)
            else:
                okubo_solve(surf, x, y, d, nav)
        assert (n_degenerate, len(self.PAIRS)) == (995, 3006)

    # sha256 of (slope_metric_F values, okubo_solve values) over PAIRS, as
    # float64 bytes, from a child process in the golden digests' dispatch class
    DIGESTS = {
        (1.0, 1.0): ("951030f2a9b0d65e9b79acce05cc55b4d443320bae71b9fdf4f01a466d9db950",
                     "83f178d93ec3eaa13070522b7f28098259929090f260c3aac1b0b24d8cb80598"),
        (1.0, 0.5): ("51ad85b23ddbf13e33d7bf039b63ba04c255807d9ab40972aed633c4f4282741",
                     "03a38f830c1d77be4538957eab7b3ca5205e798fabb462044c619b7fa0d6192d"),
        (1.0, 0.75): ("17c3e776105eda104084fabda5ad68c6b422d539a46221efa090a54b3e7830db",
                      "9092048acd98fdc970e25d753f6a65ac83b7ae66cd8fc66bc6f025dd6b54be03"),
    }

    @pytest.mark.parametrize("nav", list(DIGESTS))
    def test_values_bit_for_bit(self, nav):
        # both routes' values, pinned to the last bit: a regrouped sum in the
        # Newton loop or a different radius at one point moves a digest
        assert _pinned_okubo_digests()[nav] == self.DIGESTS[nav]

    @pytest.mark.parametrize("case", [
        (cone(0.5), (0.0, 0.0), ApexSingularity, "gradient undefined on the axis of a 'cone' surface"),
        (paraboloid(100.0), (math.nan, 0.2), OutOfDomain, "s=nan outside profile domain [0.0, inf)"),
        (paraboloid(100.0), (0.3, math.inf), OutOfDomain, "s=inf outside profile domain [0.0, inf)"),
        (ellipsoid(1.0, 1.0), (1.0, 0.0), OutOfDomain, "s=1.0 outside profile domain [0.0, 1.0)"),
        (ellipsoid(1.0, 1.0), (0.9, 0.6), OutOfDomain, "s=1.0816653826391969 outside profile domain [0.0, 1.0)"),
    ], ids=["apex", "nan", "inf", "rim", "past-rim"])
    def test_one_point_errors(self, case):
        # every one-point read raises the type and message of the surface's checks
        profile, (x, y), kind, message = case
        surf = SurfaceOfRevolution(profile)
        d = np.array([0.6, 0.8])
        for call in (surf.gradient, surf.hessian,
                     lambda X, Y: slope_metric_F(surf, X, Y, d),
                     lambda X, Y: okubo_solve(surf, X, Y, d)):
            assert _raised(lambda: call(x, y)) == (kind, message)

    @pytest.mark.parametrize("scalar", [float, np.float64, np.asarray])
    def test_scalar_point_gives_python_floats(self, scalar):
        surf, x, y, d = self.PAIRS[0]
        x, y = scalar(x), scalar(y)
        assert [type(v) for v in surf.gradient(x, y)] == [float, float]
        assert type(slope_metric_F(surf, x, y, d)) is float
        assert type(okubo_solve(surf, x, y, d)) is float


    def test_package_calls_per_pair(self):
        # Python-level calls into slopemetric for one scalar slope_metric_F
        # and okubo_solve pair, counted by cProfile as
        # test_package_calls_per_step counts an RK4 step: two one-point
        # surface reads (5 calls each: gradient, profile_derivative, its
        # domain check, _read and the closed form phi'), F (10: slope_metric_F
        # and _F, the direction check _direction, _split and _one_direction,
        # the kernels _parts, _quotient and _denominator, _times_pow2 and
        # _scalar), and the root-solve's prologue (5: okubo_solve, _one_direction, _parts,
        # _denominator, _times_pow2) and four Newton iterations (_limacon and
        # _parts each, 8).  A one-point branch that became a function call of
        # its own, a wrapper round trip or a per-iteration closure shows here.
        package = str(Path(slopemetric.__file__).parent)
        d = np.array([0.6, 0.8])

        def pair():
            return slope_metric_F(PARAB, 0.15, -0.1, d), okubo_solve(PARAB, 0.15, -0.1, d)

        profile = cProfile.Profile()
        profile.runcall(pair)
        stats = pstats.Stats(profile).stats
        assert sum(calls for (path, _, _), (_, calls, *_) in stats.items()
                   if path.startswith(package)) == 33


def _consistency_surfaces():
    """The builtins, a 256-row table, a callable profile, a graph and flat ground.

    The callable is written in numpy ufuncs, as the builtins are: one radius
    reaches it as a numpy scalar, and Python's ``**`` on a numpy scalar is
    libm's pow, which can differ from numpy's array power in the last bit.
    """
    s = np.linspace(0.0, 4.0, 256)
    surfs = [SurfaceOfRevolution(p) for p in builtin_profiles()]
    surfs.append(SurfaceOfRevolution(profile_from_table(s, np.sin(s) / math.sqrt(3.0))))
    surfs.append(SurfaceOfRevolution(profile_from_callable(
        lambda r: 1.0 - 0.1 * np.power(r, 3), (0.0, 3.0),
        dphi=lambda r: -0.3 * np.square(r), d2phi=lambda r: -0.6 * r)))
    surfs.append(GraphSurface(
        f=lambda x, y: 0.3 * np.sin(x) * np.cos(2.0 * y),
        grad=lambda x, y: (0.3 * np.cos(x) * np.cos(2.0 * y), -0.6 * np.sin(x) * np.sin(2.0 * y)),
        hess=lambda x, y: (-0.3 * np.sin(x) * np.cos(2.0 * y), -0.6 * np.cos(x) * np.sin(2.0 * y),
                           -1.2 * np.sin(x) * np.cos(2.0 * y))))
    surfs.append(flat_surface())
    return surfs


def _consistency_points(surf):
    if isinstance(surf, SurfaceOfRevolution):
        radii = interior_radii(surf.profile, n=3)
        return [(r * math.cos(th), r * math.sin(th)) for r, th in zip(radii, (0.4, 2.5, 4.4))]
    return [(0.3, -0.2), (-1.7, 0.9), (2.2, 2.6)]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _raised(fn):
    with pytest.raises(SlopeMetricError) as info:
        fn()
    return type(info.value), str(info.value)


class TestOnePointMatchesBatch:
    """A one-point call equals the matching element of the (1,)-array call, bit for bit."""

    SURFACES = _consistency_surfaces()
    DIRS = [(0.6, -0.8), (-1.0, 0.25), (0.0, 1.0)]
    NAVS = [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.75), NavigationParams(2.0, 1.0)]

    @pytest.mark.parametrize("surf", SURFACES, ids=lambda s: s.kind)
    def test_values(self, surf):
        for x, y in _consistency_points(surf):
            X, Y = np.array([x]), np.array([y])
            for fn in (surf.gradient, surf.hessian):
                one = fn(x, y)
                assert all(type(v) is float for v in one)
                assert _bits(one) == _bits(fn(X, Y))
            for d in self.DIRS:
                D = np.array([d])
                assert _bits(beta(surf, x, y, d)) == _bits(beta(surf, X, Y, D))
                for nav in self.NAVS:
                    for fn in (slope_metric_F, limacon_h):
                        one = fn(surf, x, y, d, nav)
                        assert type(one) is float
                        assert _bits(one) == _bits(fn(surf, X, Y, D, nav))

    FORMS = (float, np.float64, np.asarray)

    @pytest.mark.parametrize("surf", [s for s in _consistency_surfaces() if isinstance(s, SurfaceOfRevolution)],
                             ids=lambda s: s.kind)
    def test_profile_reads(self, surf):
        # 64 radii: a closed form using Python's ** on one radius's numpy
        # scalar (libm's pow) misses numpy's array power in the last bit at a
        # few radii in a hundred on some hosts, too rarely for three points
        p = surf.profile
        reads = (eval_profile, profile_derivative, profile_second_derivative, cartesian_condition)
        for s in interior_radii(p, n=64):
            S = np.array([s])
            for fn in reads:
                got = [fn(p, form(s)) for form in self.FORMS]
                assert [type(v) for v in got] == [float] * 3
                assert {_bits(v) for v in got} == {_bits(fn(p, S))}
        if p.params.get("rows"):
            return  # the sine table turns at s = pi/2: no height parametrization
        trig = TrigProfile.from_profile(p)
        for u in np.linspace(*trig.u_range, 9)[1:-1]:
            got = [trig.m(form(u)) for form in self.FORMS]
            assert [type(v) for v in got] == [float] * 3
            assert {_bits(v) for v in got} == {_bits(trig.m(np.array([u])))}

    @pytest.mark.parametrize("surf", SURFACES, ids=lambda s: s.kind)
    def test_scalar_forms(self, surf):
        # a Python float, a numpy scalar and a 0-d array are one point alike;
        # okubo_solve has no batch form, so this is its one-point check
        d = np.array([0.6, -0.8])
        for x, y in _consistency_points(surf):
            calls = [surf.gradient, surf.hessian, surf.height,
                     lambda X, Y: slope_metric_F(surf, X, Y, d),
                     lambda X, Y: okubo_solve(surf, X, Y, d),
                     lambda X, Y: limacon_h(surf, X, Y, d)]
            for call in calls:
                got = [call(form(x), form(y)) for form in self.FORMS]
                assert {type(v) for v in np.ravel(np.array(got, dtype=object))} == {float}
                assert len({_bits(v) for v in got}) == 1

    def test_non_finite_closed_form(self):
        # phi' is NaN past s = 1: one radius raises what the (1,) batch raises
        p = profile_from_callable(lambda s: 1.0 - 0.5 * np.square(s), (0.0, 2.0),
                                  lambda s: np.where(s > 1.0, np.nan, -s), lambda s: np.full_like(s, -1.0))
        surf = SurfaceOfRevolution(p)
        d = np.array([0.6, 0.8])
        want = (NonDifferentiable, "closed-form derivative non-finite at s=1.5")
        cases = [
            (lambda S: profile_derivative(p, S), 1.5, [1.5]),
            (lambda S: cartesian_condition(p, S), 1.5, [1.5]),
            (lambda P: surf.gradient(*P), (1.5, 0.0), ([1.5], [0.0])),
            (lambda P: surf.hessian(*P), (1.5, 0.0), ([1.5], [0.0])),
            (lambda P: slope_metric_F(surf, *P, d), (1.5, 0.0), ([1.5], [0.0])),
        ]
        for call, one, batch in cases:
            assert _raised(lambda: call(one)) == want
            assert _raised(lambda: call(np.asarray(batch))) == want
        assert _raised(lambda: okubo_solve(surf, 1.5, 0.0, d)) == want
        with pytest.raises(ValueError, match="^okubo_solve expects one chart point$"):
            okubo_solve(surf, np.array([0.3]), np.array([0.2]), d)

    def test_errors(self):
        apex = SurfaceOfRevolution(cone(0.5))
        rim = SurfaceOfRevolution(ellipsoid(1.0, 1.0))
        flat = flat_surface()
        steep = NavigationParams(1.0, 6.0)
        cases = [
            (OutOfDomain, lambda p, D: flat.gradient(*p), (math.nan, 0.0)),
            (OutOfDomain, lambda p, D: slope_metric_F(flat, *p, D), (math.inf, 0.2)),
            (DirectionOverflow, lambda p, D: slope_metric_F(PARAB, 0.3, 0.2, D), (math.nan, 0.2)),
            (ApexSingularity, lambda p, D: apex.gradient(*p), (0.0, 0.0)),
            (ApexSingularity, lambda p, D: slope_metric_F(apex, *p, D), (0.0, 0.0)),
            (OutOfDomain, lambda p, D: rim.gradient(*p), (0.9, 0.6)),
            (OutOfDomain, lambda p, D: limacon_h(rim, *p, D), (0.9, 0.6)),
            (ZeroVector, lambda p, D: slope_metric_F(PARAB, *p, 0.0 * D), (0.3, 0.2)),
            # steepest uphill at nav (1, 6): v*alpha - w*beta < 0
            (DegenerateDenominator, lambda p, D: slope_metric_F(PARAB, *p, -D, steep), (0.3, 0.2)),
        ]
        for kind, call, (x, y) in cases:
            one = _raised(lambda: call((x, y), np.array([x, y])))
            assert one[0] is kind
            assert one == _raised(lambda: call(([x], [y]), np.array([[x, y]])))
        with pytest.raises(NoRoot):
            okubo_solve(PARAB, 0.3, 0.2, np.array([-0.3, -0.2]), steep)
        with pytest.raises(ZeroVector, match="^direction must be nonzero$"):
            okubo_solve(PARAB, 0.3, 0.2, np.array([0.0, 0.0]))


class TestFundamentalTensor:
    def test_flat_identity(self, flat):
        # F is the Euclidean norm on level ground, so g_ij = delta_ij
        g = fundamental_tensor(flat, 0.5, -0.2, np.array([0.6, 0.8]))
        assert g.m11 == pytest.approx(1.0, abs=1e-10)
        assert g.m22 == pytest.approx(1.0, abs=1e-10)
        assert g.m12 == pytest.approx(0.0, abs=1e-10)

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
        assert g3.m11 == pytest.approx(g1.m11, abs=1e-6)
        assert g3.m12 == pytest.approx(g1.m12, abs=1e-6)
        assert g3.m22 == pytest.approx(g1.m22, abs=1e-6)

    def test_degenerate_denominator_exactly_where_the_quotient_is_nan(self, parab_surface):
        # w at the critical ratio v*alpha/beta = sqrt(1.04)/0.2 of the uphill
        # direction at (0.1, 0): just below it F is defined, just above it is not
        w_crit = math.sqrt(1.04) / 0.2
        tv = np.array([-1.0, 0.0])
        fx, fy = parab_surface.gradient(0.1, 0.0)
        nan = []
        for factor in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0):
            nav = NavigationParams(v=1.0, w=w_crit * factor)
            nan.append(bool(np.isnan(metric._quotient(*metric._parts(fx, fy, *tv), nav)[0])))
            if nan[-1]:
                with pytest.raises(DegenerateDenominator):
                    fundamental_tensor(parab_surface, 0.1, 0.0, tv, nav)
            else:
                assert math.isfinite(fundamental_tensor(parab_surface, 0.1, 0.0, tv, nav).det)
        assert nan == [False, False, True, True]

    CLOSED_FORM_NAVS = [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.75),
                        NavigationParams(1.0, 0.5)]

    @pytest.mark.parametrize("nav", CLOSED_FORM_NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_agrees_with_the_oracle_stencil(self, nav):
        # the stencil's truncation and rounding leave ~1e-6 of the pair's largest |g|
        for profile in builtin_profiles():
            surf, x, y, fx, fy, dirs = stencil_batch(profile)
            want = np.stack(nine_node_hessian(fx[:, None], fy[:, None], dirs, nav))
            got = np.stack(hessian_field(surf, np.repeat(x, dirs.shape[1]),
                                         np.repeat(y, dirs.shape[1]), dirs.reshape(-1, 2), nav))
            got = got.reshape(want.shape)
            assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-5, profile.kind

    @staticmethod
    def _window_samples():
        """The acceptance suite's Euler-identity samples: 100 per builtin window."""
        for _, profile, _, (c_lo, c_hi) in builtin_windows():
            surf = SurfaceOfRevolution(profile)
            rng = np.random.default_rng(17)
            for _ in range(100):
                s, tp = rng.uniform(c_lo, c_hi), rng.uniform(0, 2 * math.pi)
                d = rng.normal(size=2)
                while np.hypot(*d) < 0.1:
                    d = rng.normal(size=2)
                yield surf, s * math.cos(tp), s * math.sin(tp), d

    def test_euler_identity_to_rounding(self):
        worst = 0.0
        for surf, x, y, d in self._window_samples():
            F = slope_metric_F(surf, x, y, d)
            worst = max(worst, abs(fundamental_tensor(surf, x, y, d).quad(d) - F * F) / (F * F))
        assert worst <= 1e-13

    @pytest.mark.parametrize("nav", CLOSED_FORM_NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
    def test_shen_determinant(self, nav):
        # det g = phi^3 N / (v - w s)^3 det a, phi = 1/(v - w s),
        # N = v^2 - 3 v w s + 2 w^2 b^2 with b^2 = q / (1 + q) (the spray's N)
        v, w = nav.v, nav.w
        worst = 0.0
        for surf, x, y, d in self._window_samples():
            fx, fy = surf.gradient(x, y)
            q = fx * fx + fy * fy
            s = beta(surf, x, y, d) / alpha(surf, x, y, d)
            N = v * v - 3.0 * v * w * s + 2.0 * w * w * q / (1.0 + q)
            want = N / (v - w * s) ** 6 * (1.0 + q)
            worst = max(worst, abs(fundamental_tensor(surf, x, y, d, nav).det - want) / abs(want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_riemannian_limit(self, v):
        # w = 0: F = alpha / v, so g_ij = a_ij / v^2
        nav = NavigationParams(v, 0.0)
        for surf, x, y, d in self._window_samples():
            g, a = fundamental_tensor(surf, x, y, d, nav), induced_metric(surf, x, y)
            for gij, aij in ((g.m11, a.m11), (g.m12, a.m12), (g.m22, a.m22)):
                assert gij == pytest.approx(aij / (v * v), rel=1e-15, abs=1e-15 * a.m11)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_positive_definite_at_the_ellipsoid_rim(self, k):
        # at nav (1, 0.5) the threshold is infinite, so the analytic route
        # says convex up to the rim, where q = |grad f|^2 ~ 10^k / 2.  On the
        # x axis the chart axes are a_ij's own axes; at a generic polar angle
        # a_ij's condition number ~ q leaves the chart-frame g11 g22 - g12^2
        # without its sign from k = 8 on (polar angle 0.7)
        nav = NavigationParams(1.0, 0.5)
        surf = SurfaceOfRevolution(ellipsoid(1.0, 1.0))
        fan = convexity._unit_directions(64)
        g11, g12, g22 = hessian_field(surf, 1.0 - 10.0 ** -k, 0.0, fan, nav)
        assert np.all(g11 + g22 > 0.0) and np.all(g11 * g22 - g12 * g12 > 0.0)


    def test_hessian_field_raises_where_a_fan_direction_leaves_the_cone(self):
        nav = NavigationParams(1.0, 3.0)
        outcomes = set()
        for profile in builtin_profiles():
            surf, x, y, fx, fy, dirs = stencil_batch(profile)
            parts = metric._parts(fx[:, None], fy[:, None], dirs[..., 0], dirs[..., 1])
            F = metric._quotient(*parts, nav)[0]
            for i in range(x.size):
                left = bool(np.isnan(F[i]).any())
                outcomes.add(left)
                if left:
                    with pytest.raises(DegenerateDenominator):
                        hessian_field(surf, x[i], y[i], dirs[i], nav)
                else:
                    assert np.isfinite(hessian_field(surf, x[i], y[i], dirs[i], nav)).all()
        assert outcomes == {True, False}


# the 2nd-order stencil of half F^2 in the chart frame, one node per offset:
# an oracle for ``_tensor``'s closed form, with steps of step * |dir|
NINE_OFFSETS = np.array([
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
], dtype=float)


def nine_node_hessian(fx, fy, dirs, nav, step=1e-4):
    h = step * np.linalg.norm(dirs, axis=-1)
    E = [0.5 * np.square(metric._quotient(
             *metric._parts(fx, fy, *metric._split(dirs + h[..., None] * off)), nav)[0])
         for off in NINE_OFFSETS]
    h2 = h * h
    g11 = (E[1] - 2.0 * E[0] + E[2]) / h2
    g22 = (E[3] - 2.0 * E[0] + E[4]) / h2
    g12 = (E[5] - E[6] - E[7] + E[8]) / (4.0 * h2)
    return g11, g12, g22


def stencil_batch(profile):
    """21 points of a builtin surface and a (21, 65, 2) fan there.

    The fan is 64 equally spaced unit directions, then the steepest-uphill one
    (the first again where the gradient vanishes).
    """
    surf = SurfaceOfRevolution(profile)
    s, th = np.meshgrid(interior_radii(profile), [0.3, 2.0, 4.1])
    x, y = (s * np.cos(th)).ravel(), (s * np.sin(th)).ravel()
    fx, fy = surf.gradient(x, y)
    q = fx * fx + fy * fy
    fan = np.broadcast_to(convexity._unit_directions(64), (q.size, 64, 2))
    flat = q == 0.0
    uphill = np.where(flat[:, None], fan[:, 0],
                      np.stack([fx, fy], axis=-1) / np.sqrt(np.where(flat, 1.0, q))[:, None])
    return surf, x, y, fx, fy, np.concatenate([fan, uphill[:, None, :]], axis=1)


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
