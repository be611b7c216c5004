"""Strong-convexity criteria, domain scans, the Hessian oracle, and the
route-equivalence verifier."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import lambertw

from slopemetric import (
    ConfigError,
    DerivativeBlowupWarning,
    DoubleRootWarning,
    GraphSurface,
    InsufficientDirections,
    NavigationParams,
    OutOfDomain,
    SamplePlan,
    SurfaceOfRevolution,
    TrigProfile,
    Verdict,
    cartesian_condition,
    condition_asymptote,
    cone,
    convexity_domain,
    convexity_threshold,
    criterion_verdict,
    ellipsoid,
    gaussian_bump,
    is_strongly_convex_at,
    one_sheet_hyperboloid,
    paraboloid,
    pd_oracle,
    profile_derivative,
    profile_from_callable,
    trig_condition,
    two_sheet_hyperboloid,
    verdict_codes,
    verify_equivalence,
)
from slopemetric import convexity, metric, surface_from_json
from slopemetric.cli import BUILTIN_VERIFY_SUITE
from slopemetric.surfaces import _scan_window
from conftest import builtin_profiles, interior_radii, window_profiles

BOUNDARY_PARAB = 0.2886751345948129  # 1/sqrt(12)
GAUSS_MU_MIN = 32.61938194150854     # 12 * e


class TestPointwiseCriterion:
    def test_flat_everywhere(self, flat):
        for x, y in [(0, 0), (3, -4), (100, 100)]:
            assert is_strongly_convex_at(flat, x, y) is Verdict.CONVEX

    def test_paraboloid_inside_outside(self, parab_surface):
        assert is_strongly_convex_at(parab_surface, 0.2, 0.0) is Verdict.CONVEX
        assert is_strongly_convex_at(parab_surface, 0.4, 0.0) is Verdict.NOT_CONVEX

    def test_steep_cone_everywhere_false(self):
        surf = SurfaceOfRevolution(cone(0.6))  # slope^2 = 0.36 > 1/3
        for s in (0.1, 1.0, 10.0):
            assert is_strongly_convex_at(surf, s, 0.0) is Verdict.NOT_CONVEX

    def test_indeterminate_band(self):
        # cone with slope^2 within the band around 1/3
        a = math.sqrt(1.0 / 3.0 + 1e-10)
        surf = SurfaceOfRevolution(cone(a))
        assert is_strongly_convex_at(surf, 1.0, 0.0) is Verdict.INDETERMINATE

    def test_verdict_rotation_invariant(self, parab_surface):
        for s, expected in [(0.2, Verdict.CONVEX), (0.4, Verdict.NOT_CONVEX)]:
            for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                v = is_strongly_convex_at(parab_surface, s * math.cos(th), s * math.sin(th))
                assert v is expected

    def test_threshold_follows_nav(self, parab_surface):
        s = math.sqrt(0.125)  # q = 4 s^2 = 0.5, above 1/3 and below the bound at w = v/2
        assert is_strongly_convex_at(parab_surface, s, 0.0) is Verdict.NOT_CONVEX
        assert is_strongly_convex_at(parab_surface, s, 0.0,
                                     nav=NavigationParams(1.0, 0.5)) is Verdict.CONVEX

    def test_verdict_not_boolean(self, flat):
        with pytest.raises(TypeError):
            bool(is_strongly_convex_at(flat, 0.0, 0.0))

    def test_criterion_verdict_broadcasts(self):
        q = np.array([[0.1, 1.0 / 3.0], [0.5, np.nan]])
        assert criterion_verdict(q, 1.0 / 3.0).tolist() == [["true", "indeterminate"],
                                                            ["false", "indeterminate"]]
        assert criterion_verdict(0.5, 0.8) == "true"
        assert criterion_verdict(0.35, 1.0 / 3.0, band=0.1) == "indeterminate"

    def test_verdict_codes_mark_points_outside(self):
        q = np.array([[0.1, 1.0 / 3.0], [0.5, np.nan]])
        inside = np.array([[True, False], [True, True]])
        labels, codes = verdict_codes(q, 1.0 / 3.0, inside=inside)
        assert codes.dtype == np.uint8
        assert labels[codes].tolist() == [["true", "outside"], ["false", "indeterminate"]]
        assert labels[verdict_codes(q, 1.0 / 3.0)[1]].tolist() == criterion_verdict(q, 1.0 / 3.0).tolist()


class TestConvexityThreshold:
    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 3.7, 250.0])
    def test_equal_speeds_give_one_third(self, c):
        assert convexity_threshold(NavigationParams(c, c)) == 1.0 / 3.0

    @pytest.mark.parametrize("v, w", [(1.0, 0.5), (1.0, 0.0), (3.0, 1.0)])
    def test_unbounded_when_2w_at_most_v(self, v, w):
        assert convexity_threshold(NavigationParams(v, w)) == math.inf

    @pytest.mark.parametrize("v, w", [(1.0, 0.75), (1.0, 2.0), (2.0, 1.5), (1.0, 6.0)])
    def test_matsumoto_bound(self, v, w):
        # at q = threshold the alpha-norm of df sits exactly on v / (2w)
        q = convexity_threshold(NavigationParams(v, w))
        assert math.sqrt(q / (1.0 + q)) == pytest.approx(v / (2.0 * w), rel=1e-14)


class TestCartesianCondition:
    def test_cone_constant(self):
        p = cone(0.6)
        for s in (0.2, 1.0, 7.0):
            assert cartesian_condition(p, s) == pytest.approx(0.36, rel=1e-14)

    def test_ellipsoid_boundary_value(self):
        # at s = a^2/sqrt(a^2+3c^2) the criterion sits exactly on 1/3
        assert cartesian_condition(ellipsoid(1.0, 1.0), 0.5) == pytest.approx(1 / 3, rel=1e-12)

    def test_gaussian_maximum(self):
        # maximize s^2 exp(-2 s^2)/6 by scanning + golden refinement oracle
        p = gaussian_bump()
        s_grid = np.linspace(0.01, 3.0, 4001)
        vals = cartesian_condition(p, s_grid)
        k = int(np.argmax(vals))
        assert s_grid[k] == pytest.approx(1 / math.sqrt(2), abs=1e-3)
        assert vals[k] == pytest.approx(math.exp(-1) / 12, rel=1e-5)
        assert 1.0 / vals[k] == pytest.approx(GAUSS_MU_MIN, rel=1e-4)


class TestTrigCondition:
    def test_paraboloid_closed_form(self):
        trig = TrigProfile.from_profile(paraboloid(100.0))
        for u in (50.0, 99.0, 99.9):
            expected = 1.0 / (4.0 * (100.0 - u))
            assert trig_condition(trig, u) == pytest.approx(expected, rel=1e-7)

    def test_paraboloid_threshold_height(self):
        trig = TrigProfile.from_profile(paraboloid(100.0))
        u_crit = 100.0 - 1.0 / 12.0
        assert trig_condition(trig, u_crit + 1e-3) > 3.0
        assert trig_condition(trig, u_crit - 1e-3) < 3.0

    def test_gaussian_minimum_value(self):
        trig = TrigProfile.from_profile(gaussian_bump())
        u_star = math.exp(-0.5) / (2.0 * math.sqrt(6.0))
        assert trig_condition(trig, u_star) == pytest.approx(GAUSS_MU_MIN, rel=1e-6)

    def test_blowup_at_hilltop(self):
        trig = TrigProfile.from_profile(paraboloid(100.0))
        with pytest.warns(DerivativeBlowupWarning):
            mu = trig_condition(trig, 100.0)
        assert mu == math.inf  # condition holds by limit

    def test_finite_at_the_waist_height(self):
        # the default height range starts just past the waist, where phi' is defined
        trig = TrigProfile.from_profile(one_sheet_hyperboloid(0.5, 1.0))
        assert math.isfinite(trig_condition(trig, trig.u_range[0]))

    def test_reciprocity(self, builtin_profile):
        from slopemetric import NotInvertible
        from conftest import interior_radii

        try:
            trig = TrigProfile.from_profile(builtin_profile)
        except NotInvertible:
            pytest.skip("not invertible")
        for s in interior_radii(builtin_profile, n=5):
            cond_s = cartesian_condition(builtin_profile, float(s))
            if cond_s == 0.0:
                continue
            u = float(builtin_profile.phi(s))
            if not (trig.u_range[0] <= u <= trig.u_range[1]):
                continue
            assert cond_s * trig_condition(trig, u) == pytest.approx(1.0, abs=1e-8)


class TestConvexityDomain:
    def test_paraboloid_single_interval(self):
        dom = convexity_domain(paraboloid(100.0), resolution=2048, s_max=1.0)
        assert len(dom.intervals) == 1
        (lo, hi), = dom.intervals
        assert lo == 0.0
        assert hi == pytest.approx(BOUNDARY_PARAB, abs=1e-10)
        (root, residual), = dom.boundary_roots
        assert root == pytest.approx(BOUNDARY_PARAB, abs=1e-10)
        assert residual <= 1e-9

    def test_root_follows_nav(self):
        # at nav (1, 0.75) the bound is q < 0.8, so 4 s^2 < 0.8 gives s < 1/sqrt(5)
        dom = convexity_domain(paraboloid(100.0), s_max=1.0, nav=NavigationParams(1.0, 0.75))
        assert dom.threshold == 0.8
        (root, _), = dom.boundary_roots
        assert root == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)

    def test_residuals_are_the_reported_condition(self):
        # the scan, the bisection and the residual all square phi' as cartesian_condition does
        p = paraboloid(100.0)
        dom = convexity_domain(p, resolution=2048, s_max=1.0, nav=NavigationParams(1.0, 2.1))
        assert dom.boundary_roots
        for root, residual in dom.boundary_roots:
            assert residual == abs(cartesian_condition(p, root) - dom.threshold)

    def test_constant_slope_closed_form(self):
        # a line profile whose phi' returns a bare constant: convex on the whole window
        p = profile_from_callable(lambda s: 0.5 * s, (0.0, 5.0), lambda s: 0.5, lambda s: 0.0)
        dom = convexity_domain(p)
        assert dom.is_entire
        assert dom.intervals == ((0.0, _scan_window(p)[1]),)
        assert verify_equivalence(SurfaceOfRevolution(p), SamplePlan(n_points=40)).ok

    @pytest.mark.parametrize("profile, s_max", [
        (paraboloid(100.0), -1.0), (paraboloid(100.0), 0.0), (one_sheet_hyperboloid(0.5, 1.0), 1.0),
    ])
    def test_smax_at_or_below_inner_edge_rejected(self, profile, s_max):
        with pytest.raises(ValueError, match="inner edge") as caught:
            convexity_domain(profile, s_max=s_max)
        assert not isinstance(caught.value, OutOfDomain)
        # without s_max, a waist past the default scan radius stays a domain error
        with pytest.raises(OutOfDomain, match="empty scan range"):
            convexity_domain(one_sheet_hyperboloid(0.5, 150.0))

    def test_cone_whole_domain(self):
        dom = convexity_domain(cone(0.5), s_max=5.0)
        assert dom.is_entire
        assert not dom.boundary_roots

    def test_steep_cone_empty(self):
        dom = convexity_domain(cone(0.7), s_max=5.0)
        assert dom.is_empty

    def test_ellipsoid_boundary(self):
        dom = convexity_domain(ellipsoid(1.0, 1.0), resolution=2048)
        (root, residual), = dom.boundary_roots
        assert root == pytest.approx(0.5, abs=1e-10)
        assert residual <= 1e-9

    def test_one_sheet_clipped_interval(self):
        dom = convexity_domain(one_sheet_hyperboloid(0.5, 1.0), s_max=7.0)
        (root, _), = dom.boundary_roots
        assert root == pytest.approx(2.0, abs=1e-9)
        (lo, hi), = dom.intervals
        assert lo == pytest.approx(2.0, abs=1e-9)
        assert hi == pytest.approx(7.0)

    def test_two_sheet_entire(self):
        assert convexity_domain(two_sheet_hyperboloid(0.5, 1.0), s_max=50.0).is_entire

    def test_gaussian_entire(self):
        assert convexity_domain(gaussian_bump(), s_max=10.0).is_entire

    def test_boundary_residual_bound(self, builtin_profile):
        dom = convexity_domain(builtin_profile, resolution=2048, s_max=8.0)
        for _, residual in dom.boundary_roots:
            assert residual <= 1e-9

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            convexity_domain(paraboloid(100.0), resolution=32)

    def test_grazing_warns(self):
        # slope^2 = cos(s)^2/3 touches 1/3 tangentially at s = pi
        grazer = profile_from_callable(
            lambda s: np.sin(s) / math.sqrt(3.0), (0.0, 4.0),
            dphi=lambda s: np.cos(s) / math.sqrt(3.0),
            d2phi=lambda s: -np.sin(s) / math.sqrt(3.0),
        )
        with pytest.warns(DoubleRootWarning):
            convexity_domain(grazer, resolution=2048)

    def test_tangent_root_joins_its_two_intervals(self):
        # phi'^2 = (1 - (s - 1)^2)^2 / 3 touches 1/3 at the grid point s = 1
        # (exactly, in doubles) and stays below it on either side: the root
        # is reported, and the two intervals it cuts join into one
        r = math.sqrt(1.0 / 3.0)
        tangent = profile_from_callable(
            lambda s: -r * (s - np.power(s - 1.0, 3) / 3.0), (0.0, math.inf),
            dphi=lambda s: -r * (1.0 - np.square(s - 1.0)),
            d2phi=lambda s: 2.0 * r * (s - 1.0),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dom = convexity_domain(tangent, resolution=64, s_max=2.0)
        assert dom.intervals == ((0.0, 2.0),)
        assert dom.boundary_roots == ((1.0, 0.0),)
        assert [(w.category, str(w.message)) for w in caught] == [
            (DoubleRootWarning, "criterion grazes the threshold near s=1; double root suspected")]

    @pytest.mark.parametrize("profile", window_profiles())
    def test_scans_the_window(self, profile):
        assert convexity_domain(profile).scan_range == _scan_window(profile)
        assert convexity_domain(profile, s_max=2.5).scan_range == _scan_window(profile, 2.5)

    def test_asymptotes(self):
        assert condition_asymptote(cone(0.5)) == {"limit": 0.25, "behavior": "constant"}
        assert condition_asymptote(two_sheet_hyperboloid(0.5, 1.0))["limit"] == 0.25
        assert condition_asymptote(one_sheet_hyperboloid(0.5, 1.0))["limit"] == 0.25
        assert condition_asymptote(gaussian_bump())["limit"] == 0.0
        assert condition_asymptote(paraboloid(100.0))["limit"] == math.inf
        assert condition_asymptote(ellipsoid(1.0, 1.0)) is None


def closed_form_runs(p, t):
    """The radii where phi'^2 < t on a builtin profile, from its closed form, as (lo, hi) runs."""
    k = p.params
    if p.kind == "paraboloid":
        return [(0.0, math.sqrt(t) / 2.0)]
    if p.kind == "ellipsoid":
        return [(0.0, k["a"] * math.sqrt(t) / math.sqrt(t + (k["c"] / k["a"]) ** 2))]
    if p.kind == "hyperboloid2":
        return [(0.0, math.inf if k["a"] ** 2 <= t else k["b"] * math.sqrt(t / (k["a"] ** 2 - t)))]
    if p.kind == "hyperboloid1":
        return [] if t <= k["a"] ** 2 else [(k["b"] * math.sqrt(t / (t - k["a"] ** 2)), math.inf)]
    if p.kind == "cone":
        return [(0.0, math.inf)] if k["a"] ** 2 < t else []
    # gaussian: phi'^2 = s^2 exp(-2 s^2) / 6 peaks at 1/(12e), at s = 1/sqrt(2), and
    # equals t where -2 s^2 = W(-12 t), on Lambert W's two real branches
    assert p.kind == "gaussian"
    if t >= 1.0 / (12.0 * math.e):
        return [(0.0, math.inf)]
    inner, outer = (math.sqrt(-lambertw(-12.0 * t, branch).real / 2.0) for branch in (0, -1))
    return [(0.0, inner), (outer, math.inf)]


def assert_closed_form_domain(dom, p):
    """dom's intervals are ``closed_form_runs`` on its scan range, to 1e-11."""
    hi = dom.scan_range[1]
    runs = [(a, min(b, hi)) for a, b in closed_form_runs(p, dom.threshold) if a < hi]
    assert len(dom.intervals) == len(runs), (dom.intervals, runs)
    for got, want in zip(dom.intervals, runs):
        assert got == pytest.approx(want, abs=1e-11, rel=0.0)
    assert dom.is_entire == (runs == [(p.domain[0], hi)])


class TestClosedFormDomains:
    """The paper's applied result: each builtin's convex radii in closed form, at any nav."""

    @pytest.mark.parametrize("s_max", [None, 5.0], ids=["default", "smax5"])
    @pytest.mark.parametrize("w", [1.0, 0.75, 2.0, 3.0, 2.9019], ids=lambda w: f"nav1,{w:g}")
    @pytest.mark.parametrize("p", builtin_profiles(), ids=lambda p: p.kind)
    def test_builtin_domains(self, p, w, s_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DoubleRootWarning)
            dom = convexity_domain(p, s_max=s_max, nav=NavigationParams(1.0, w))
        assert_closed_form_domain(dom, p)

    @pytest.mark.parametrize("s_max", [None, 5.0], ids=["default", "smax5"])
    @pytest.mark.parametrize("rel", [-1e-3, 1e-3, -1e-8, 1e-8])
    def test_gaussian_near_its_critical_threshold(self, rel, s_max):
        # the nav whose threshold is (1 + rel)/(12e): the annulus closes as rel rises through 0
        t = (1.0 + rel) / (12.0 * math.e)
        nav = NavigationParams(1.0, math.sqrt((1.0 / t + 1.0) / 4.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dom = convexity_domain(gaussian_bump(), s_max=s_max, nav=nav)
        assert_closed_form_domain(dom, gaussian_bump())
        assert len(dom.boundary_roots) == (2 if rel < 0 else 0)
        # only a peak within CRITERION_BAND of the threshold warns, and it names the peak
        named = [float(re.search(r"near s=(\S+);", str(w.message)).group(1))
                 for w in caught if issubclass(w.category, DoubleRootWarning)]
        assert len(named) == (abs(rel) < 1e-6)
        for s in named:
            assert abs(s - math.sqrt(0.5)) < 1e-6


def per_panel_roots(grid, c, crit):
    """The scan's root search as one Python step per grid point, the form the array scan replaced.

    A grid point where c is 0 is a root; a panel is bisected only where both
    its ends are nonzero and differ in sign.
    """
    roots = []
    for i in range(len(grid)):
        ci = c[i]
        if ci == 0.0:
            roots.append(float(grid[i]))
        elif i + 1 < len(grid) and c[i + 1] != 0.0 and (ci < 0) != (c[i + 1] < 0):
            roots.append(convexity._bisect_root(crit, float(grid[i]), float(grid[i + 1]), ci))
    return roots


def scan_both_ways(monkeypatch, profile, **kwargs):
    """convexity_domain, after checking it against the per-panel root search bit for bit."""
    dom = convexity_domain(profile, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(convexity, "_panel_roots", per_panel_roots)
        ref = convexity_domain(profile, **kwargs)
    assert len(dom.intervals) == len(ref.intervals)
    assert len(dom.boundary_roots) == len(ref.boundary_roots)
    assert np.array(dom.intervals).tobytes() == np.array(ref.intervals).tobytes()
    assert np.array(dom.boundary_roots).tobytes() == np.array(ref.boundary_roots).tobytes()
    return dom


class TestPanelScan:
    """Root panels found by array comparisons, against the per-panel loop."""

    # at nav (1, 1) the threshold is 1/3, and SLOPE^2 rounds to it exactly
    SLOPE = math.sqrt(1.0 / 3.0)
    # on [0, 1] with 64 panels the grid points are k/64, all exact
    GRID = np.linspace(0.0, 1.0, 65)

    def criterion(self, profile):
        return np.square(np.asarray(profile_derivative(profile, self.GRID))) - 1.0 / 3.0

    def test_zero_at_an_interior_grid_point(self, monkeypatch):
        # phi' = SLOPE * 2s meets the threshold at the grid point s = 1/2
        p = profile_from_callable(lambda s: self.SLOPE * s * s, (0.0, math.inf),
                                  dphi=lambda s: self.SLOPE * (2.0 * s),
                                  d2phi=lambda s: np.full_like(s, 2.0 * self.SLOPE))
        c = self.criterion(p)
        assert c[32] == 0.0 and np.all(c[:32] < 0.0) and np.all(c[33:] > 0.0)
        dom = scan_both_ways(monkeypatch, p, resolution=64, s_max=1.0)
        # the grid point is the one root: the panel ending on it is not bisected
        assert dom.boundary_roots == ((0.5, 0.0),)
        assert dom.intervals == ((0.0, 0.5),)

    def test_zero_at_the_last_grid_point(self, monkeypatch):
        p = profile_from_callable(lambda s: 0.5 * self.SLOPE * s * s, (0.0, math.inf),
                                  dphi=lambda s: self.SLOPE * s,
                                  d2phi=lambda s: np.full_like(s, self.SLOPE))
        c = self.criterion(p)
        assert c[-1] == 0.0 and np.all(c[:-1] < 0.0)
        dom = scan_both_ways(monkeypatch, p, resolution=64, s_max=1.0)
        # the last grid point is the one root: the panel ending on it is not bisected
        assert dom.boundary_roots == ((1.0, 0.0),)
        assert dom.intervals == ((0.0, 1.0),)

    def test_sign_changes_in_adjacent_panels(self, monkeypatch):
        # a tent of half-width 1.5 panels around s = 1/2 lifts only that grid
        # point above the threshold, so panels 31 and 32 each hold a root
        width = 1.5 / 64

        def dphi(s):
            return 2.0 * self.SLOPE * np.maximum(0.0, 1.0 - np.abs(s - 0.5) / width)

        def d2phi(s):
            return np.where(np.abs(s - 0.5) < width, -2.0 * self.SLOPE * np.sign(s - 0.5) / width, 0.0)

        p = profile_from_callable(lambda s: np.zeros_like(s), (0.0, math.inf), dphi=dphi, d2phi=d2phi)
        c = self.criterion(p)
        assert np.flatnonzero(c > 0.0).tolist() == [32]
        dom = scan_both_ways(monkeypatch, p, resolution=64, s_max=1.0)
        (a, _), (b, _) = dom.boundary_roots
        assert self.GRID[31] < a < self.GRID[32] < b < self.GRID[33]
        assert len(dom.intervals) == 2

    @pytest.mark.parametrize("nav", [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.75),
                                     NavigationParams(1.0, 3.0)], ids=lambda n: f"nav{n.w:g}")
    def test_builtin_profiles(self, monkeypatch, builtin_profile, nav):
        scan_both_ways(monkeypatch, builtin_profile, s_max=5.0, nav=nav)


class TestPdOracle:
    def test_flat_true(self, flat):
        assert pd_oracle(flat, 0.4, -1.2) is True

    def test_paraboloid_inside_outside(self, parab_surface):
        assert pd_oracle(parab_surface, 0.2, 0.0) is True
        assert pd_oracle(parab_surface, 0.4, 0.0) is False

    def test_matches_criterion_close_to_boundary(self, parab_surface):
        for ds, expected in [(1.2e-3, False), (-1.2e-3, True)]:
            s = BOUNDARY_PARAB + ds
            assert pd_oracle(parab_surface, s, 0.0) is expected

    def test_cone_agreement(self):
        assert pd_oracle(SurfaceOfRevolution(cone(0.7)), 1.0, 1.0) is False
        assert pd_oracle(SurfaceOfRevolution(cone(0.5)), 1.0, 1.0) is True

    def test_outside_the_cone_is_false(self, parab_surface):
        # at nav (1, 2) F is no norm at s = 0.4: some directions have v*alpha <= w*beta
        assert pd_oracle(parab_surface, 0.4, 0.0, NavigationParams(1.0, 2.0)) is False

    def test_insufficient_directions(self, flat):
        # the oracle's fan is sized by the sample plan only
        with pytest.raises(InsufficientDirections):
            verify_equivalence(flat, SamplePlan(n_points=1, n_directions=4))

    def test_insufficient_directions_is_a_config_error(self):
        assert issubclass(InsufficientDirections, ConfigError)
        assert issubclass(InsufficientDirections, ValueError)


DTHETA = 1e-3  # the oracle's angular step, in radians


def frame_directions(fx, fy, n_directions=64, h=DTHETA):
    """The (n, 3, n_directions, 2) chart directions cos(t) e1 + sin(t) e2 the oracle reads.

    t runs over theta_k - h, theta_k and theta_k + h, theta_k = 2 pi k / n_directions, in the
    a-orthonormal frame e1 = grad f / (|grad f| sqrt(1 + q)), e2 = grad f^perp / |grad f| of each
    of the (n,) gradient values; the chart axes where the gradient vanishes.
    """
    fan = np.linspace(0.0, 2.0 * math.pi, n_directions, endpoint=False)
    t = np.stack([fan - h, fan, fan + h])[None, :, :, None]
    g = np.hypot(fx, fy)
    flat = g == 0.0
    u = np.stack([fx, fy], axis=-1) / np.where(flat, 1.0, g)[:, None]
    u[flat] = (1.0, 0.0)
    e1 = u / np.hypot(1.0, g)[:, None]
    e2 = np.stack([-u[:, 1], u[:, 0]], axis=-1)
    return np.cos(t) * e1[:, None, None, :] + np.sin(t) * e2[:, None, None, :]


def frame_curvature(fx, fy, nav, n_directions=64, h=DTHETA):
    """(n, n_directions) values f(t - h) - 2 f(t) + f(t + h) + h^2 f(t), one batch for all points."""
    d = frame_directions(fx, fy, n_directions, h)
    parts = metric._parts(fx[:, None, None], fy[:, None, None], d[..., 0], d[..., 1])
    f = metric._quotient(*parts, nav)[0]
    return f[:, 0] - 2.0 * f[:, 1] + f[:, 2] + h * h * f[:, 1]


def one_shot_verdicts(fx, fy, nav, n_directions=64):
    """``_pd_verdicts`` as one batch over every point, and its count of points with a NaN."""
    curv = frame_curvature(fx, fy, nav, n_directions)
    return np.all(curv > 0.0, axis=1), np.count_nonzero(np.isnan(curv).any(axis=1))


def spy_quotient(monkeypatch):
    """The (fx, fy, F) of every F batch the oracle evaluates from now on: ``_parts``
    takes the batch's gradient values, and the ``_quotient`` call after it gives F."""
    calls, gradients = [], []
    parts, quotient = convexity._parts, convexity._quotient

    def spy_parts(fx, fy, vx, vy):
        gradients.append((fx, fy))
        return parts(fx, fy, vx, vy)

    def spy(n2, b, a2, nav):
        F, al = quotient(n2, b, a2, nav)
        calls.append((*gradients.pop(), F))
        return F, al

    monkeypatch.setattr(convexity, "_parts", spy_parts)
    monkeypatch.setattr(convexity, "_quotient", spy)
    return calls


def builtin_gradients(profile):
    """The gradient at 21 points of a builtin surface: 7 interior radii at 3 polar angles."""
    s, th = np.meshgrid(interior_radii(profile), [0.3, 2.0, 4.1])
    return SurfaceOfRevolution(profile).gradient((s * np.cos(th)).ravel(), (s * np.sin(th)).ravel())


NAV_IDS = lambda n: f"nav{n.v:g},{n.w:g}"


class TestFrameOracle:
    """The oracle's F values in the a-frame, its cost and its verdicts where the slope is steep."""

    @pytest.mark.parametrize("nav", [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.5),
                                     NavigationParams(1.0, 0.75), NavigationParams(2.0, 1.0)],
                             ids=NAV_IDS)
    def test_frame_F_is_the_limacon_reciprocal(self, nav, monkeypatch):
        # in the a-frame alpha = 1 and beta = b cos(theta), b = sqrt(q / (1 + q))
        calls = spy_quotient(monkeypatch)
        fan = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        cos = np.cos(np.stack([fan - DTHETA, fan, fan + DTHETA]))[:, None, :]
        worst = 0.0
        for profile in builtin_profiles():
            convexity._pd_verdicts(*builtin_gradients(profile), nav, 64)
            for fx, fy, F in calls:
                q = fx * fx + fy * fy
                want = 1.0 / (nav.v - nav.w * np.sqrt(q / (1.0 + q)) * cos)
                worst = max(worst, float(np.max(np.abs(F - want) / want)))
            calls.clear()
        assert worst <= 1e-13

    def test_three_F_values_per_fan_direction(self, parab_surface, monkeypatch):
        # the chart-frame stencil it replaced took 9 F values at each of 65 directions
        calls = spy_quotient(monkeypatch)
        fx, fy = 0.5 * np.random.default_rng(0).normal(size=(2, 200))
        convexity._pd_verdicts(fx, fy, NavigationParams(), 64)
        assert sum(F.size for _, _, F in calls) == 200 * 3 * 64
        calls.clear()
        pd_oracle(parab_surface, 0.2, 0.1)
        assert sum(F.size for _, _, F in calls) == 3 * 64

    @pytest.mark.parametrize("nav", [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.5),
                                     NavigationParams(1.0, 0.75), NavigationParams(1.0, 2.0),
                                     NavigationParams(1.0, 0.25), NavigationParams(2.0, 1.0),
                                     NavigationParams(1.0, 3.0)], ids=NAV_IDS)
    def test_builtin_suite_agrees_at_ten_seeds(self, nav):
        # verify's builtin suite with its sample ranges, as the CLI runs it
        suite = [(surface_from_json(desc), s_range) for desc, s_range in BUILTIN_VERIFY_SUITE]
        for seed in range(10):
            for surf, s_range in suite:
                rep = verify_equivalence(surf, SamplePlan(seed=seed, s_range=s_range), nav)
                assert rep.ok, (seed, rep.surface, rep.disagreements)

    @pytest.mark.parametrize("angle", [0.0, 0.7])
    @pytest.mark.parametrize("nav", [NavigationParams(1.0, 0.5), NavigationParams(2.0, 1.0),
                                     NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.75)],
                             ids=NAV_IDS)
    def test_matches_the_criterion_at_the_ellipsoid_rim(self, nav, angle):
        # q ~ 10^k / 2 at s = 1 - 10^-k; at 2w = v the true margin min (f + f'') / f ~ 1/q
        surf = SurfaceOfRevolution(ellipsoid(1.0, 1.0))
        wrong = []
        for k in range(1, 13):
            s = 1.0 - 10.0 ** -k
            x, y = s * math.cos(angle), s * math.sin(angle)
            want = is_strongly_convex_at(surf, x, y, nav)
            assert want is not Verdict.INDETERMINATE
            if pd_oracle(surf, x, y, nav) is not (want is Verdict.CONVEX):
                wrong.append(k)
        assert wrong == []


class TestBlockedOracle:
    BLOCK = convexity._PD_BLOCK

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1, 200])
    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_blocks_match_one_stencil(self, n, w):
        nav = NavigationParams(1.0, w)
        rng = np.random.default_rng(n)
        # |grad f| spread across the threshold 1/3 and past q = 1/8, where
        # at nav (1, 3) the uphill stencil leaves the cone (NaN rows)
        fx, fy = 0.5 * rng.normal(size=(2, n))
        want, nan_rows = one_shot_verdicts(fx, fy, nav)
        got = convexity._pd_verdicts(fx, fy, nav, 64)
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        if n == 200:
            assert 0 < np.count_nonzero(want) < n
            assert (nan_rows > 0) == (w > 1.0)

    @pytest.mark.parametrize("n_directions", [8, 1024])
    def test_blocks_hold_at_most_48_x_64_fan_directions(self, n_directions, monkeypatch):
        # at 1 024 directions a block holds 3 points, so each (3, 3, 1024) temporary
        # stays 72 KiB, as (3, 48, 64) does at the default fan
        nav = NavigationParams(1.0, 3.0)
        fx, fy = 0.5 * np.random.default_rng(7).normal(size=(2, 200))
        want, _ = one_shot_verdicts(fx, fy, nav, n_directions)
        calls = spy_quotient(monkeypatch)
        got = convexity._pd_verdicts(fx, fy, nav, n_directions)
        assert got.tobytes() == want.tobytes()
        assert 0 < np.count_nonzero(want) < 200
        assert max(F.size for _, _, F in calls) <= 3 * self.BLOCK * 64
        assert sum(F.size for _, _, F in calls) == 200 * 3 * n_directions


class TestVerifyEquivalence:
    def test_paraboloid_full_agreement(self, parab_surface):
        plan = SamplePlan(n_points=200, seed=0, band=1e-3, s_range=(0.0, 1.0))
        rep = verify_equivalence(parab_surface, plan)
        assert rep.ok
        assert rep.agreements == 200
        assert not rep.disagreements

    def test_level_profile_skips_the_polar_route(self):
        # a level profile has no height parametrization, so no point is judged by m'(u)
        level = profile_from_callable(lambda s: 1.0, (0.0, math.inf), lambda s: 0.0, lambda s: 0.0)
        rep = verify_equivalence(SurfaceOfRevolution(level))
        assert rep.ok and rep.agreements == 200 and rep.trig_skipped == 200

    def test_ellipsoid_full_agreement(self):
        surf = SurfaceOfRevolution(ellipsoid(1.0, 1.0))
        rep = verify_equivalence(surf, SamplePlan(n_points=120, seed=2))
        assert rep.ok

    def test_gaussian_all_routes_convex(self, gauss_surface):
        plan = SamplePlan(n_points=80, seed=3, s_range=(0.0, 5.0))
        rep = verify_equivalence(gauss_surface, plan)
        assert rep.ok
        # every sampled point is convex by every route, so far from threshold
        assert rep.worst_margin > 0.03

    def test_threshold_follows_nav(self, parab_surface):
        plan = SamplePlan(n_points=60, seed=0, s_range=(0.0, 1.0))
        rep = verify_equivalence(parab_surface, plan, NavigationParams(1.0, 0.75))
        assert rep.ok
        assert rep.agreements == 60

    def test_corrupted_threshold_detected(self, monkeypatch):
        # a wrong bound corrupts the analytic routes; the Hessian oracle never reads it
        monkeypatch.setattr(convexity, "convexity_threshold", lambda nav: 0.5)
        surf = SurfaceOfRevolution(replace(paraboloid(100.0), domain=(0.0, 1.0)))
        rep = verify_equivalence(surf, SamplePlan(n_points=150, seed=0))
        assert len(rep.disagreements) > 0

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_plan_needs_a_sample_point(self, n_points):
        with pytest.raises(ValueError, match="at least 1 sample point"):
            SamplePlan(n_points=n_points)

    @pytest.mark.parametrize("fields, error, message", [
        ({"n_directions": 4}, InsufficientDirections, "at least 8 directions"),
        ({"band": -1e-3}, ValueError, "band must be nonnegative"),
    ])
    def test_bad_plan_is_rejected_when_built(self, fields, error, message):
        with pytest.raises(error, match=message):
            SamplePlan(**fields)

    def test_report_dict_shape(self, parab_surface):
        rep = verify_equivalence(parab_surface, SamplePlan(n_points=10, seed=1, s_range=(0.0, 1.0)))
        d = rep.to_dict()
        for key in ("surface", "samples", "band", "agreements", "disagreements", "worst_margin"):
            assert key in d

    def test_graph_surface_without_profile_routes(self, flat):
        rep = verify_equivalence(flat, SamplePlan(n_points=15, seed=4))
        assert rep.ok
        assert rep.agreements == 15

    def test_reads_the_gradient_once(self):
        calls = []

        def grad(x, y):
            calls.append(np.size(x))
            return -2.0 * x, -2.0 * y

        surf = GraphSurface(f=lambda x, y: 100.0 - x * x - y * y, grad=grad,
                            hess=lambda x, y: (-2.0, 0.0, -2.0), bbox=(-1.0, 1.0, -1.0, 1.0))
        rep = verify_equivalence(surf, SamplePlan(n_points=50, seed=0))
        assert rep.samples == 50
        assert calls == [50]

    def test_stencil_out_of_cone_is_a_per_point_false(self, parab_surface, monkeypatch):
        # at nav (1, 6) the uphill fan direction leaves v*alpha - w*beta > 0 beyond s ~ 0.085
        nav = NavigationParams(1.0, 6.0)
        seen = {}
        batch, gradient = convexity._pd_verdicts, SurfaceOfRevolution.gradient

        def spy_batch(fx, fy, nav, n_directions):
            seen["verdicts"] = batch(fx, fy, nav, n_directions)
            return seen["verdicts"]

        def spy_gradient(surf, x, y):
            seen.setdefault("points", (x, y))
            return gradient(surf, x, y)

        monkeypatch.setattr(convexity, "_pd_verdicts", spy_batch)
        monkeypatch.setattr(SurfaceOfRevolution, "gradient", spy_gradient)
        rep = verify_equivalence(parab_surface, SamplePlan(n_points=100, seed=0, s_range=(0.0, 0.3)),
                                 nav)
        monkeypatch.undo()
        assert rep.ok

        def reference(x, y):
            # per point, the frame kernel over the point's fan: a NaN (out of the cone) is None
            curv = frame_curvature(*np.atleast_1d(*parab_surface.gradient(x, y)), nav)
            if np.isnan(curv).any():
                return None
            return bool(np.all(curv > 0.0))

        expected = [reference(x, y) for x, y in zip(*seen["points"])]
        assert expected.count(None) > 0 and expected.count(True) > 0
        assert [bool(v) for v in seen["verdicts"]] == [e is True for e in expected]

    @pytest.mark.parametrize("band", [1e-3, 1e-6])
    @pytest.mark.parametrize("profile", window_profiles())
    def test_samples_the_window(self, profile, band):
        # a waist (hyperboloid1) or non-smooth apex (cone) is kept out by the
        # band, or by 1e-6 of the window's width where that is wider
        lo, hi = _scan_window(profile)
        if profile.kind in ("cone", "hyperboloid1"):
            edge = profile.domain[0]
            lo = edge + max(band, 1e-6 * (hi - edge))
        plan = SamplePlan(band=band)
        assert convexity._revolution_sample_range(SurfaceOfRevolution(profile), plan) == (lo, hi)

    def test_a_bug_in_the_profile_is_not_trig_skipped(self):
        # phi raises an error of no package type: the height route must not
        # swallow it and count every point as trig_skipped
        p = profile_from_callable(lambda s: s.bogus, (0.0, math.inf), dphi=lambda s: -2.0 * s,
                                  d2phi=lambda s: np.full_like(s, -2.0))
        with pytest.raises(AttributeError, match="bogus"):
            verify_equivalence(SurfaceOfRevolution(p), SamplePlan(n_points=20))

    def test_subnormal_heights_are_trig_skipped(self, gauss_surface, monkeypatch):
        # phi(s) = exp(-s^2)/(2 sqrt 6) is subnormal beyond s ~ 26.59 and 0 near
        # 27.3: its digits are lost, so the height no longer pins the radius
        sampled = []
        condition = convexity.cartesian_condition
        monkeypatch.setattr(convexity, "cartesian_condition",
                            lambda p, s: sampled.append(s) or condition(p, s))
        rep = verify_equivalence(gauss_surface,
                                 SamplePlan(n_points=200, seed=0, s_range=(20.0, 27.3)))
        # the domain scan reads the condition first, the Cartesian route's samples last
        s = sampled[-1]
        assert s.shape == (200,)
        lost = gauss_surface.profile.phi(s) < np.finfo(float).tiny
        assert np.count_nonzero(lost & (s < 27.2)) > 0
        assert rep.trig_skipped == np.count_nonzero(lost)
        assert rep.ok


def per_call_points(plan, roots, window=None, bbox=None):
    """verify_equivalence's sample points by one Generator.uniform call per
    coordinate, the form the block draws replaced; also counts the rejections."""
    rng = np.random.default_rng(plan.seed)
    xs, ys, ss, rejected = [], [], [], 0
    for _ in range(plan.n_points):
        for _attempt in range(1000):
            if window is not None:
                s = rng.uniform(*window)
                if any(abs(s - r) <= plan.band for r in roots):
                    rejected += 1
                    continue
                th = rng.uniform(0.0, 2.0 * math.pi)
                x, y = s * math.cos(th), s * math.sin(th)
            else:
                x = rng.uniform(bbox[0], bbox[1])
                y = rng.uniform(bbox[2], bbox[3])
                s = math.hypot(x, y)
            break
        else:
            raise RuntimeError("could not sample a point outside the exclusion band")
        xs.append(x)
        ys.append(y)
        ss.append(s)
    return (xs, ys, ss), rejected


def bits(*coords):
    return [np.array(c, dtype=float).tobytes() for c in coords]


class TestSampleDraws:
    """Block draws give the points of per-call Generator.uniform, bit for bit."""

    def test_rejections_across_the_paraboloid_root(self, parab_surface, monkeypatch):
        # s_range straddles the root 1/sqrt(12); a band of 0.05 rejects half the draws
        plan = SamplePlan(n_points=300, seed=5, band=0.05, s_range=(0.2, 0.4))
        roots = tuple(r for r, _ in convexity_domain(parab_surface.profile, s_max=0.4).boundary_roots)
        want, rejected = per_call_points(plan, roots, window=plan.s_range)
        assert roots == pytest.approx((BOUNDARY_PARAB,)) and rejected > plan.n_points // 2
        assert bits(*convexity._sample_points(plan, roots, window=plan.s_range)) == bits(*want)

        seen = []
        gradient = SurfaceOfRevolution.gradient
        monkeypatch.setattr(SurfaceOfRevolution, "gradient",
                            lambda surf, x, y: seen.append((x, y)) or gradient(surf, x, y))
        rep = verify_equivalence(parab_surface, plan)
        (x, y), = seen
        assert bits(x, y) == bits(*want[:2])
        assert rep.ok

    def test_graph_surface_bbox(self):
        seen = []

        def grad(x, y):
            seen.append((x, y))
            return -2.0 * x, -2.0 * y

        bbox = (-0.3, 0.7, -1.25, 0.5)
        surf = GraphSurface(f=lambda x, y: 100.0 - x * x - y * y, grad=grad,
                            hess=lambda x, y: (-2.0, 0.0, -2.0), bbox=bbox)
        plan = SamplePlan(n_points=250, seed=11)
        want, _ = per_call_points(plan, (), bbox=bbox)
        assert bits(*convexity._sample_points(plan, (), bbox=bbox)) == bits(*want)
        verify_equivalence(surf, plan)
        (x, y), = seen
        assert bits(x, y) == bits(*want[:2])

    @pytest.mark.parametrize("window", [(0.4, 0.2), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_ranges_raise_as_uniform_does(self, window):
        plan = SamplePlan(n_points=3, seed=0)
        with pytest.raises(Exception) as per_call:
            per_call_points(plan, (), window=window)
        with pytest.raises(type(per_call.value), match=str(per_call.value)):
            convexity._sample_points(plan, (), window=window)
