"""Profile curves, inversion, and surface gradients."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopemetric import surfaces
from slopemetric import (
    ApexSingularity,
    ConfigError,
    GraphSurface,
    NonDifferentiable,
    NotInvertible,
    OutOfDomain,
    OutOfRange,
    SurfaceOfRevolution,
    TrigProfile,
    cone,
    ellipsoid,
    eval_profile,
    flat_surface,
    gaussian_bump,
    one_sheet_hyperboloid,
    paraboloid,
    profile_derivative,
    profile_from_callable,
    profile_from_table,
    profile_second_derivative,
    surface_from_json,
    two_sheet_hyperboloid,
)
from conftest import builtin_profiles, central_difference, interior_radii, table_profile, window_profiles

GAUSS_PEAK = 0.20412414523193154  # 1/(2*sqrt(6))

# every builtin and a spline table: the profiles whose closed forms the
# difference oracle checks
CLOSED_FORM_PROFILES = [pytest.param(p, id=p.kind) for p in builtin_profiles() + [table_profile()]]


class TestEvalProfile:
    def test_paraboloid_hilltop(self):
        assert eval_profile(paraboloid(100.0), 0.0) == 100.0

    def test_cone_apex(self):
        assert eval_profile(cone(1.0), 0.0) == 0.0

    def test_gaussian_peak(self):
        assert eval_profile(gaussian_bump(), 0.0) == pytest.approx(GAUSS_PEAK, abs=1e-15)

    def test_vectorized(self):
        z = eval_profile(paraboloid(100.0), np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(z, [100.0, 99.0, 96.0])

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_profile(ellipsoid(1.0, 1.0), 1.0)  # half-open domain [0, a)
        with pytest.raises(OutOfDomain):
            eval_profile(paraboloid(100.0), -0.1)

    def test_non_finite_height_names_the_radius(self):
        # phi = 100 - s^2 overflows past s ~ 1.3e154; numpy's overflow warning
        # stays inside the typed error
        message = re.escape("profile evaluated non-finite at s=1e+200")
        for s in (np.float64(1e200), np.array([1.0, 1e200, 2e200])):
            with pytest.raises(OutOfDomain, match=message):
                eval_profile(paraboloid(100.0), s)


class TestProfileDerivative:
    def test_paraboloid(self):
        assert profile_derivative(paraboloid(100.0), 1.0) == pytest.approx(-2.0, rel=1e-14)

    def test_cone_constant_slope(self):
        p = cone(0.5)
        for s in (0.1, 1.0, 17.3):
            assert profile_derivative(p, s) == pytest.approx(0.5, rel=1e-14)

    def test_ellipsoid_axis_symmetry(self):
        assert profile_derivative(ellipsoid(1.0, 1.0), 0.0) == 0.0

    def test_waist_edge_rejected(self):
        # the closed forms divide by zero at the waist s = |b|, which lies in the domain
        p = one_sheet_hyperboloid(0.5, 1.0)
        for derivative in (profile_derivative, profile_second_derivative):
            for s in (1.0, np.array([2.0, 1.0, 3.0])):
                with pytest.raises(OutOfDomain, match=r"^derivative undefined at the domain edge s=1\.0$"):
                    derivative(p, s)

    @pytest.mark.parametrize("profile", CLOSED_FORM_PROFILES)
    def test_closed_vs_central_difference(self, profile):
        # oracle: differences of phi alone
        for s in interior_radii(profile):
            d_num = central_difference(lambda q: np.asarray(profile.phi(q), dtype=float), s)
            assert d_num == pytest.approx(profile_derivative(profile, s), rel=1e-6)

    def test_derivatives_are_required(self):
        with pytest.raises(TypeError):
            profile_from_callable(np.square, (0.0, 1.0))
        with pytest.raises(TypeError):
            GraphSurface(f=lambda x, y: x * y)
        with pytest.raises(TypeError):
            GraphSurface(f=lambda x, y: x * y, grad=lambda x, y: (y, x))

    def test_constant_closed_forms_spread_over_the_radii(self):
        # a line profile whose phi' and phi'' return bare constants
        p = profile_from_callable(lambda s: 0.5 * s, (0.0, 5.0), lambda s: 0.5, lambda s: 0.0)
        s = np.array([0.0, 1.0, 4.5])
        for evaluate, value in ((profile_derivative, 0.5), (profile_second_derivative, 0.0)):
            d = evaluate(p, s)
            assert isinstance(d, np.ndarray) and d.tolist() == [value] * 3
            assert evaluate(p, 1.0) == value
        # a level profile and a level plane: heights spread too, on both surface
        # kinds; the plane's gradient comes as a list, read entry by entry
        level = profile_from_callable(lambda s: 2.0, (0.0, 5.0), lambda s: 0.0, lambda s: 0.0)
        plane = GraphSurface(f=lambda x, y: 2.0, grad=lambda x, y: [0.0, 0.0],
                             hess=lambda x, y: (0.0, 0.0, 0.0))
        x, y = np.array([0.0, 1.0, 4.5]), np.array([0.5, -1.0, 0.0])
        assert [g.tolist() for g in plane.gradient(x, y)] == [[0.0] * 3] * 2
        for height, at in ((lambda q: eval_profile(level, q), (s,)),
                           (SurfaceOfRevolution(level).height, (x, y)), (plane.height, (x, y))):
            z = height(*at)
            assert isinstance(z, np.ndarray) and z.tolist() == [2.0] * 3
            z = height(*(a[1] for a in at))
            assert type(z) is float and z == 2.0

    def test_non_finite_closed_form_names_the_radius(self):
        # phi' = -2s overflows past s ~ 9e307; numpy's overflow warning stays
        # inside the typed error
        message = re.escape("closed-form derivative non-finite at s=1e+308")
        for s in (1e308, np.float64(1e308), np.array([1.0, 1e308, 1.5e308])):
            with pytest.raises(NonDifferentiable, match=message):
                profile_derivative(paraboloid(100.0), s)


class TestDomainCheck:
    # ellipsoid(1, 1) lives on [0, 1), the one-sheet hyperboloid on [1, inf)
    @pytest.mark.parametrize("profile, bad", [
        (ellipsoid(1.0, 1.0), math.nan),
        (ellipsoid(1.0, 1.0), math.inf),
        (ellipsoid(1.0, 1.0), -math.inf),
        (ellipsoid(1.0, 1.0), 1.0),
        (one_sheet_hyperboloid(0.5, 1.0), 0.5),
        (one_sheet_hyperboloid(0.5, 1.0), math.nan),
        (one_sheet_hyperboloid(0.5, 1.0), math.inf),
    ])
    @pytest.mark.parametrize("evaluate", [eval_profile, profile_derivative, profile_second_derivative])
    def test_edges_raise_naming_the_first_bad_value(self, profile, bad, evaluate):
        ok = 0.5 * (profile.domain[0] + min(profile.domain[1], 2.0))
        message = re.escape(f"s={bad!r} outside profile domain")
        for s in (bad, np.float64(bad), np.array(bad), np.array([ok, bad, ok, -math.inf])):
            with pytest.raises(OutOfDomain, match=message):
                evaluate(profile, s)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (0.3, -math.inf)])
    def test_graph_reads_reject_non_finite_points(self, x, y):
        message = re.escape(f"point ({x!r}, {y!r}) is not finite")
        graph = GraphSurface(f=lambda x, y: 0.2 * x * x - 0.1 * x * y,
                             grad=lambda x, y: (0.4 * x - 0.1 * y, -0.1 * x),
                             hess=lambda x, y: (0.4, -0.1, 0.0))
        graphs = (flat_surface(), graph)
        for surf in graphs:
            for read in (surf.gradient, surf.hessian, surf.height):
                for X, Y in ((x, y), (np.array([0.1, x]), np.array([0.2, y]))):
                    with pytest.raises(OutOfDomain, match=message):
                        read(X, Y)

    def test_negative_zero_on_the_axis_is_inside(self):
        p = paraboloid(100.0)
        for s in (-0.0, np.array(-0.0), np.array([-0.0, 0.5])):
            eval_profile(p, s)
            profile_derivative(p, s)
            profile_second_derivative(p, s)

    def test_hessian_reuses_the_gradient_domain_check(self, parab_surface, monkeypatch):
        calls = []
        check = surfaces._check_in_domain
        monkeypatch.setattr(surfaces, "_check_in_domain", lambda p, s: calls.append(s) or check(p, s))
        _, _, hessian_at = parab_surface._jet(np.array([0.1, 0.2, -0.4]), np.array([0.0, 0.3, 0.1]))
        hessian_at()
        hessian_at(np.array([True, True, False]))
        assert len(calls) == 1

    def test_axis_read_checks_the_domain_once(self, parab_surface, monkeypatch):
        # whether the axis is smooth depends only on the profile, so a read
        # with an axis row does not differentiate at s = 0 again
        calls = []
        check = surfaces._check_in_domain
        monkeypatch.setattr(surfaces, "_check_in_domain", lambda p, s: calls.append(s) or check(p, s))
        x, y = np.array([0.0, 0.1]), np.array([0.0, 0.2])
        parab_surface._jet(x, y)
        calls.clear()
        fx, fy, hessian_at = parab_surface._jet(x, y)
        assert len(calls) == 1
        assert (fx[0], fy[0]) == (0.0, 0.0)
        fxx, fxy, fyy = hessian_at()
        assert (fxx[0], fxy[0], fyy[0]) == (-2.0, 0.0, -2.0)

    def test_empty_batches(self, builtin_profile):
        empty = np.empty(0)
        for evaluate in (eval_profile, profile_derivative, profile_second_derivative):
            assert evaluate(builtin_profile, empty).shape == (0,)
        fx, fy, hessian_at = SurfaceOfRevolution(builtin_profile)._jet(empty, empty)
        assert [a.shape for a in (fx, fy, *hessian_at())] == [(0,)] * 5
        assert SurfaceOfRevolution(builtin_profile).gradient(empty, empty)[0].shape == (0,)


class TestInversion:
    def test_paraboloid_known_heights(self):
        trig = TrigProfile.from_profile(paraboloid(100.0))
        assert trig.m(99.0) == pytest.approx(1.0, abs=1e-10)
        assert trig.m(100.0) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_against_independent_bisection(self):
        # oracle: straight bisection of exp(-s^2)/(2 sqrt 6) = u on [0, 5]
        u = math.exp(-0.5) / (2.0 * math.sqrt(6.0))
        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.exp(-mid * mid) / (2.0 * math.sqrt(6.0)) >= u:
                lo = mid
            else:
                hi = mid
        expected = 0.5 * (lo + hi)  # = 0.7071067811865475
        assert TrigProfile.from_profile(gaussian_bump()).m(u) == pytest.approx(expected, abs=1e-10)

    def test_gaussian_closed_form_branch(self):
        # second oracle: solving exp(-s^2)/(2 sqrt 6) = u by hand gives
        # s = sqrt(-2 ln(24 u^2)) / 2 on the positive branch
        trig = TrigProfile.from_profile(gaussian_bump())
        for u in (0.02, 0.05, 0.1, 0.15, 0.2):
            expected = math.sqrt(-2.0 * math.log(24.0 * u * u)) / 2.0
            assert trig.m(u) == pytest.approx(expected, abs=1e-10)

    def test_inverse_identity(self, builtin_profile):
        try:
            trig = TrigProfile.from_profile(builtin_profile)
        except NotInvertible:
            pytest.skip("profile not monotone on the default branch")
        for s in interior_radii(builtin_profile):
            u = eval_profile(builtin_profile, s)
            if not (trig.u_range[0] <= u <= trig.u_range[1]):
                continue
            m = trig.m(u)
            assert m == pytest.approx(s, abs=1e-8)
            d = profile_derivative(builtin_profile, s)
            if d != 0.0:
                assert trig.m_prime(u) * d == pytest.approx(1.0, abs=1e-8)

    def test_round_trip_residual(self):
        p = paraboloid(100.0)
        trig = TrigProfile.from_profile(p)
        for u in np.linspace(-50.0, 99.9, 13):
            assert eval_profile(p, trig.m(u)) == pytest.approx(u, abs=1e-8)

    def test_not_invertible(self):
        bump = profile_from_callable(np.sin, (0.5, 4.0), dphi=np.cos, d2phi=lambda s: -np.sin(s))
        with pytest.raises(NotInvertible):
            TrigProfile.from_profile(bump)

    def test_level_profile_is_not_invertible(self):
        # phi returns a bare constant, which spreads over the scan grid
        level = profile_from_callable(lambda s: 1.0, (0.0, math.inf), lambda s: 0.0, lambda s: 0.0)
        with pytest.raises(NotInvertible, match="numerically constant"):
            TrigProfile.from_profile(level)

    def test_non_finite_profile_names_the_radius(self):
        # phi = -s is NaN past s = 50; the scan grid's step on [0, 100] is 0.390625
        p = profile_from_callable(lambda s: np.where(s <= 50.0, -s, math.nan), (0.0, math.inf),
                                  lambda s: -1.0, lambda s: 0.0)
        with pytest.raises(OutOfDomain, match=re.escape("non-finite at s=50.390625")):
            TrigProfile.from_profile(p)

    def test_out_of_range(self):
        # the error names the first height outside, as a radius outside the domain is named
        trig = TrigProfile.from_profile(paraboloid(100.0))
        for u, first in ((101.0, 101.0), (np.float64(1e9), 1e9),
                         (np.array([99.0, 1e9, math.nan]), 1e9)):
            with pytest.raises(OutOfRange, match=re.escape(f"height u={first!r} outside")):
                trig.m(u)


class TestScanWindow:
    """``_scan_window``: the one radial window of the domain scan, verify's sampler
    and the default height inversion."""

    @pytest.mark.parametrize("profile, s_max, window", [
        (paraboloid(100.0), None, (0.0, 100.0)),
        (paraboloid(100.0), 5.0, (0.0, 5.0)),
        (ellipsoid(1.0, 1.0), None, (0.0, 1.0 - 1e-9)),
        (ellipsoid(1.0, 1.0), 7.0, (0.0, 1.0 - 1e-9)),
        # phi' diverges at the waist s = 1, so the window starts 1e-9 of its width past it
        (one_sheet_hyperboloid(0.5, 1.0), None, (1.0 + 99.0 * 1e-9, 100.0)),
        (one_sheet_hyperboloid(0.5, 1.0), 3.0, (1.0 + 2.0 * 1e-9, 3.0)),
        # a finite edge comes in by at least 1e-12
        (profile_from_callable(np.square, (0.0, 1e-4), dphi=lambda s: 2.0 * s,
                               d2phi=lambda s: np.full_like(s, 2.0)), None,
         (0.0, 1e-4 - 1e-12)),
    ], ids=["paraboloid", "paraboloid-smax", "ellipsoid", "ellipsoid-smax-past-edge",
            "waist", "waist-smax", "narrow"])
    def test_rules(self, profile, s_max, window):
        assert surfaces._scan_window(profile, s_max) == window

    @pytest.mark.parametrize("profile", window_profiles())
    def test_inversion_runs_inside_the_window(self, profile):
        lo, hi = surfaces._scan_window(profile)
        s_lo, s_hi = TrigProfile.from_profile(profile).s_range
        assert lo <= s_lo < s_hi <= hi
        # only a numerically flat head or tail is trimmed: the gaussian's underflow
        assert (s_lo, s_hi) == (lo, hi) or profile.kind == "gaussian"

    def test_waist_past_the_default_scan_radius_raises(self):
        # as the domain scan and verify's sampler do
        with pytest.raises(OutOfDomain, match=re.escape("empty scan range [150.0, 100.0]")):
            TrigProfile.from_profile(one_sheet_hyperboloid(0.5, 150.0))


class TestGradient:
    def test_paraboloid_point(self, parab_surface):
        fx, fy = parab_surface.gradient(0.1, 0.0)
        assert fx == pytest.approx(-0.2, rel=1e-13)
        assert fy == pytest.approx(0.0, abs=1e-15)

    def test_cone_against_finite_differences(self):
        surf = SurfaceOfRevolution(cone(0.5))
        fx, fy = surf.gradient(3.0, 4.0)
        assert (fx, fy) == pytest.approx((0.3, 0.4), rel=1e-13)
        # independent oracle: central differences of (x, y) -> 0.5*hypot(x, y)
        h = 1e-6
        f = lambda x, y: 0.5 * math.hypot(x, y)
        fx_fd = (f(3.0 + h, 4.0) - f(3.0 - h, 4.0)) / (2 * h)
        fy_fd = (f(3.0, 4.0 + h) - f(3.0, 4.0 - h)) / (2 * h)
        assert fx == pytest.approx(fx_fd, abs=1e-9)
        assert fy == pytest.approx(fy_fd, abs=1e-9)

    def test_gradient_norm_matches_profile_slope(self, builtin_profile):
        surf = SurfaceOfRevolution(builtin_profile)
        rng = np.random.default_rng(7)
        for s in interior_radii(builtin_profile):
            th = rng.uniform(0, 2 * np.pi)
            fx, fy = surf.gradient(s * np.cos(th), s * np.sin(th))
            d = profile_derivative(builtin_profile, float(s))
            assert fx * fx + fy * fy == pytest.approx(d * d, rel=1e-12, abs=1e-15)

    def test_rotational_symmetry_closed_form(self, parab_surface):
        s = 0.37
        th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        fx, fy = parab_surface.gradient(s * np.cos(th), s * np.sin(th))
        q = fx**2 + fy**2
        assert np.max(np.abs(q - q[0])) <= 1e-12

    def test_smooth_axis(self, parab_surface, gauss_surface):
        assert parab_surface.gradient(0.0, 0.0) == (0.0, 0.0)
        assert gauss_surface.gradient(0.0, 0.0) == (0.0, 0.0)

    def test_cone_apex_raises(self):
        surf = SurfaceOfRevolution(cone(0.5))
        with pytest.raises(ApexSingularity):
            surf.gradient(0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.floats(min_value=0.05, max_value=3.0),
        th=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_two_sheet_gradient_norm_property(self, s, th):
        p = two_sheet_hyperboloid(0.5, 1.0)
        surf = SurfaceOfRevolution(p)
        fx, fy = surf.gradient(s * math.cos(th), s * math.sin(th))
        d = profile_derivative(p, s)
        assert fx * fx + fy * fy == pytest.approx(d * d, rel=1e-12, abs=1e-15)


def _gradient_differences(surf, x, y, h=1e-5):
    """(f_xx, f_xy, f_yy) by 2nd-order central differences of the gradient."""
    gxp, gyp = surf.gradient(x + h, y)
    gxm, gym = surf.gradient(x - h, y)
    gxu, gyu = surf.gradient(x, y + h)
    gxd, gyd = surf.gradient(x, y - h)
    return ((gxp - gxm) / (2 * h), 0.5 * ((gyp - gym) + (gxu - gxd)) / (2 * h), (gyu - gyd) / (2 * h))


class TestHessian:
    @pytest.mark.parametrize("profile", CLOSED_FORM_PROFILES)
    def test_second_derivative_closed_vs_central_difference(self, profile):
        # oracle: differences of the closed-form slope
        for s in interior_radii(profile):
            d2_num = central_difference(lambda q: np.asarray(profile.dphi(q), dtype=float), s)
            assert d2_num == pytest.approx(profile_second_derivative(profile, s), rel=1e-6, abs=1e-9)

    def test_matches_gradient_differences(self, builtin_profile):
        surf = SurfaceOfRevolution(builtin_profile)
        for k, s in enumerate(interior_radii(builtin_profile)):
            th = 0.4 + 0.9 * k
            x, y = s * math.cos(th), s * math.sin(th)
            got = surf.hessian(x, y)
            want = _gradient_differences(surf, x, y)
            scale = 1.0 + max(abs(w) for w in want)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-6 * scale

    def test_table_and_graph_match_gradient_differences(self):
        s = np.linspace(0.0, 3.0, 128)
        table = SurfaceOfRevolution(profile_from_table(s, np.exp(-s * s) * np.cos(s)))
        graph = GraphSurface(
            f=lambda x, y: np.sin(x) * np.cos(0.7 * y) + 0.1 * x * y,
            grad=lambda x, y: (np.cos(x) * np.cos(0.7 * y) + 0.1 * y,
                               -0.7 * np.sin(x) * np.sin(0.7 * y) + 0.1 * x),
            hess=lambda x, y: (-np.sin(x) * np.cos(0.7 * y),
                               -0.7 * np.cos(x) * np.sin(0.7 * y) + 0.1,
                               -0.49 * np.sin(x) * np.cos(0.7 * y)))
        x = np.array([0.3, -1.1, 0.8, 1.7])
        y = np.array([0.2, 0.5, -1.3, 0.4])
        for surf in (table, graph):
            got = surf.hessian(x, y)
            want = _gradient_differences(surf, x, y)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_smooth_axis_is_isotropic(self, parab_surface, gauss_surface):
        assert parab_surface.hessian(0.0, 0.0) == (-2.0, 0.0, -2.0)
        assert gauss_surface.hessian(0.0, 0.0) == (-2.0 * GAUSS_PEAK, 0.0, -2.0 * GAUSS_PEAK)

    def test_axis_rows_in_a_batch(self, parab_surface, gauss_surface):
        x, y = np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.4, 0.0])
        for surf in (parab_surface, gauss_surface):
            want = [surf.hessian(float(a), float(b)) for a, b in zip(x, y)]
            np.testing.assert_array_equal(np.transpose(surf.hessian(x, y)), want)

    def test_cone_apex_raises(self):
        with pytest.raises(ApexSingularity):
            SurfaceOfRevolution(cone(0.5)).hessian(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def test_domain_override_keeps_second_derivative(self):
        surf = surface_from_json({"kind": "ellipsoid", "params": {"a": 1, "c": 1},
                                  "domain": [0, 0.5]})
        assert surf.profile.domain == (0.0, 0.5)
        assert surf.profile.d2phi is not None
        assert profile_second_derivative(surf.profile, 0.3) == pytest.approx(-1.0 / 0.91**1.5, rel=1e-14)


class TestSurfaceFromJson:
    def test_builtin_kinds(self):
        surf = surface_from_json({"kind": "paraboloid", "params": {"h": 100}})
        assert surf.kind == "paraboloid"
        assert surf.height(0.0, 0.0) == 100.0
        surf = surface_from_json('{"kind": "gaussian", "params": {}}')
        assert surf.height(0.0, 0.0) == pytest.approx(GAUSS_PEAK)

    def test_domain_override(self):
        surf = surface_from_json({"kind": "cone", "params": {"a": 0.5}, "domain": [0, 2]})
        assert surf.profile.domain == (0.0, 2.0)
        with pytest.raises(OutOfDomain):
            eval_profile(surf.profile, 3.0)

    def test_custom_table_cubic(self):
        s = np.linspace(0.0, 2.0, 80)
        table = [[float(a), float(100.0 - a * a)] for a in s]
        surf = surface_from_json({"kind": "custom", "params": {"table": table}})
        assert surf.height(0.5, 0.0) == pytest.approx(99.75, abs=1e-9)
        assert profile_derivative(surf.profile, 0.5) == pytest.approx(-1.0, abs=1e-7)

    def test_custom_table_too_short(self):
        table = [[0.0, 1.0], [1.0, 2.0]]
        with pytest.raises(ConfigError):
            surface_from_json({"kind": "custom", "params": {"table": table}})

    def test_custom_table_not_monotone(self):
        s = np.r_[np.linspace(0, 1, 40), np.linspace(0.9, 1.5, 30)]
        table = [[float(a), 0.0] for a in s]
        with pytest.raises(ConfigError):
            surface_from_json({"kind": "custom", "params": {"table": table}})

    def test_bad_descriptions(self):
        with pytest.raises(ConfigError):
            surface_from_json({"kind": "dodecahedron"})
        with pytest.raises(ConfigError):
            surface_from_json('{"kind": ')
        with pytest.raises(ConfigError):
            surface_from_json({"kind": "cone", "params": {"radius": 1.0}})
        with pytest.raises(ConfigError):
            surface_from_json(json.dumps({"kind": "cone", "params": {"a": -1.0}}))
