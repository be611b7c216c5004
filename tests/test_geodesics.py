"""Geodesic tracing, conservation and convergence order, indicatrix
sampling with the limacon fit, and front propagation."""

import cProfile
import math
import pstats
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slopemetric import (
    GraphSurface,
    NavigationParams,
    OutOfDomain,
    StepTooLarge,
    SurfaceOfRevolution,
    ZeroVector,
    cone,
    conservation_drift,
    gaussian_bump,
    geodesic_shoot,
    indicatrix,
    paraboloid,
    profile_from_table,
    slope_metric_F,
    two_sheet_hyperboloid,
    wavefront,
)
import slopemetric
from slopemetric import surfaces
from conftest import builtin_profiles, interior_radii
from slopemetric.convexity import convexity_threshold, criterion_verdict
from slopemetric.geodesics import STATUS_LEFT_DOMAIN, _accel_at, _integrate

# slope cosine coefficient at the paraboloid point (0.1, 0):
# k = sqrt(q/(1+q)) with q = |grad f|^2 = 0.04
K_PARAB = 0.19611613513818402
# the paraboloid's convexity boundary radius at nav (1, 1)
BOUNDARY_PARAB = 1.0 / math.sqrt(12.0)

# 4th-order central-difference weights for the stencil oracle
_D1_OFF = np.array([-2.0, -1.0, 1.0, 2.0])
_D1_W = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_D2_OFF = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_D2_W = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def stencil_accel(surf, p, v, nav, rel=2e-3):
    """Oracle: the Euler-Lagrange acceleration of E = F^2/2 with every
    derivative by 4th-order central differences of F, solving
    g_ij a^j = dE/dx_i - (d^2E/dv_i dx_j) v_j row by row.  Independent of the
    closed-form spray: it never touches the surface Hessian."""
    def energy(x, y, tv):
        return 0.5 * np.square(slope_metric_F(surf, x, y, tv, nav))

    hx = rel * np.maximum(1.0, np.linalg.norm(p, axis=-1))
    hy = rel * np.linalg.norm(v, axis=-1)
    eye = np.eye(2)

    # g_ij = d^2E/dv_i dv_j at fixed position
    x1, y1 = p[:, 0, None], p[:, 1, None]
    axis_nodes = lambda e: v[:, None, :] + hy[:, None, None] * _D2_OFF[None, :, None] * e
    g11 = energy(x1, y1, axis_nodes(eye[0])) @ _D2_W / hy**2
    g22 = energy(x1, y1, axis_nodes(eye[1])) @ _D2_W / hy**2
    corners = _D1_OFF[:, None, None] * eye[0] + _D1_OFF[None, :, None] * eye[1]  # (4, 4, 2)
    Ec = energy(x1[..., None], y1[..., None], v[:, None, None, :] + hy[:, None, None, None] * corners)
    g12 = np.einsum("nkl,k,l->n", Ec, _D1_W, _D1_W) / hy**2

    # dE/dx_j: nodes (n, j, k) at p + off_k*hx*e_j, direction fixed
    px = p[:, None, None, :] + hx[:, None, None, None] * _D1_OFF[None, None, :, None] * eye[None, :, None, :]
    Ex = energy(px[..., 0], px[..., 1], v[:, None, None, :])
    dEdx = (Ex @ _D1_W) / hx[:, None]

    # M_ij = d^2E / dv_i dx_j: cross grid over x-offsets (j,k) and v-offsets (i,l)
    pxx = p[:, None, None, None, None, :] + (
        hx[:, None, None, None, None, None]
        * _D1_OFF[None, None, None, None, :, None]
        * eye[None, None, :, None, None, :]
    )
    vvv = v[:, None, None, None, None, :] + (
        hy[:, None, None, None, None, None]
        * _D1_OFF[None, None, None, :, None, None]
        * eye[None, :, None, None, None, :]
    )
    Exy = energy(pxx[..., 0], pxx[..., 1], vvv)
    M = np.einsum("nijlk,l,k->nij", Exy, _D1_W, _D1_W) / (hx * hy)[:, None, None]

    rhs = dEdx - np.einsum("nij,nj->ni", M, v)
    g = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    return np.linalg.solve(g, rhs[..., None])[..., 0]


def bumpy_table_surface():
    """Spline table of the builtin gaussian plus a small sinusoid."""
    s = np.linspace(0.0, 3.0, 256)
    z = (np.exp(-s * s) / (2.0 * math.sqrt(6.0))
         + 0.00453935808476718 * np.sin(2.0 * s + 1.7483137865656933))
    return SurfaceOfRevolution(profile_from_table(s, z))


class TestGeodesicShoot:
    def test_flat_straight_line(self, flat):
        path = geodesic_shoot(flat, (0.2, -0.1), (3.0, 4.0), length=1.0, step=1e-2)
        expected = np.array([0.2, -0.1]) + np.outer(path.t, [0.6, 0.8])
        assert np.max(np.abs(path.points - expected)) <= 1e-9
        assert path.status == "complete"

    def test_unit_speed_time_parametrization(self, parab_surface):
        path = geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-3)
        np.testing.assert_allclose(path.F_values, 1.0, atol=1e-7)
        assert path.status == "complete"
        assert path.t[-1] == pytest.approx(0.2, abs=1e-12)

    def test_conservation_at_reference_step(self, parab_surface):
        path = geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-3)
        assert path.status == "complete"
        assert conservation_drift(path) <= 1e-6

    def test_fourth_order_convergence(self, parab_surface):
        # halving in the truncation-dominated regime: expect ~16x
        d_coarse = conservation_drift(
            geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.2, step=2e-2)
        )
        d_fine = conservation_drift(
            geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-2)
        )
        assert d_coarse / d_fine >= 8.0

    def test_stays_in_convex_domain(self, parab_surface):
        # shoot outward; path must halt before the boundary radius
        path = geodesic_shoot(parab_surface, (0.2, 0.0), (-1.0, 0.0), length=1.0, step=1e-3)
        assert path.status == "left_convex_domain"
        radii = np.hypot(path.points[:, 0], path.points[:, 1])
        assert np.all(radii < 1.0 / math.sqrt(12.0))
        assert path.t[-1] < 1.0

    def test_step_too_large(self, parab_surface):
        with pytest.raises(StepTooLarge):
            geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.5, step=5e-2)

    def test_step_too_large_names_the_first_drifting_ray(self, parab_surface):
        # the drift test runs over all rays at once; the message still gives
        # the drift of the first ray (in ray order) past 10x the tolerance
        with pytest.raises(StepTooLarge, match=r"^F drift 2\.828e-05 per unit length exceeds 10x "
                                                r"the tolerance 1\.0e-06; reduce the step$"):
            wavefront(parab_surface, (0.1, 0.0), 0.5, n_rays=8, step=5e-2)

    def test_start_outside_domain(self, parab_surface):
        with pytest.raises(OutOfDomain):
            geodesic_shoot(parab_surface, (0.4, 0.0), (0.0, 1.0), length=0.1)

    def test_zero_direction(self, parab_surface):
        with pytest.raises(ZeroVector):
            geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 0.0), length=0.1)

    def test_table_profile_conservation(self):
        # spline tables once drifted ~1.5e-6 per unit length from force-stencil
        # noise across knots
        path = geodesic_shoot(bumpy_table_surface(), (0.7574251960933144, -0.8064707576745129),
                              (0.049441478975768074, 0.9987770222410449), length=0.3, step=1e-3)
        assert path.status == "complete"
        assert conservation_drift(path) <= 1e-6

    def test_reversal_asymmetry(self, parab_surface):
        fwd = geodesic_shoot(parab_surface, (0.1, 0.0), (0.0, 1.0), length=0.3, step=1e-3)
        back = geodesic_shoot(
            parab_surface, fwd.points[-1], -fwd.velocities[-1], length=0.3, step=1e-3
        )
        mid_f = fwd.points[len(fwd.points) // 2]
        mid_b = back.points[len(back.points) // 2]
        # reversed path takes a different route on sloped ground
        assert np.linalg.norm(mid_f - mid_b) > 1e-3
        assert np.linalg.norm(back.points[-1] - fwd.points[0]) > 1e-3


def _uniform_radii(lo, hi):
    return lambda rng, n: rng.uniform(lo, hi, n)


def _knot_midpoint_radii(rng, n):
    # The spline is one cubic between knots (spacing 3/255); the oracle's
    # 4th-order stencils assume smoothness, so keep every stencil node (within
    # 2 * 2e-3 of the state for |p| <= 1) between the same two knots.
    return (rng.integers(8, 84, n) + 0.5) * (3.0 / 255.0)


class TestSpray:
    SURFACES = {
        "paraboloid": (lambda: SurfaceOfRevolution(paraboloid(100.0)), _uniform_radii(0.02, 0.25)),
        "gaussian": (lambda: SurfaceOfRevolution(gaussian_bump()), _uniform_radii(0.1, 2.5)),
        "table": (bumpy_table_surface, _knot_midpoint_radii),
        "graph": (lambda: GraphSurface(
            f=lambda x, y: 0.2 * np.sin(x) * np.cos(0.7 * y) + 0.1 * x,
            grad=lambda x, y: (0.2 * np.cos(x) * np.cos(0.7 * y) + 0.1, -0.14 * np.sin(x) * np.sin(0.7 * y)),
            hess=lambda x, y: (-0.2 * np.sin(x) * np.cos(0.7 * y), -0.14 * np.cos(x) * np.sin(0.7 * y),
                               -0.098 * np.sin(x) * np.cos(0.7 * y))),
            _uniform_radii(0.1, 2.5)),
    }

    @pytest.mark.parametrize("nav", [(1.0, 1.0), (1.0, 0.5)], ids=["nav11", "nav105"])
    @pytest.mark.parametrize("name", list(SURFACES))
    def test_matches_stencil_oracle(self, name, nav):
        make, radii = self.SURFACES[name]
        surf = make()
        nav = NavigationParams(*nav)
        rng = np.random.default_rng(7)
        n = 256
        r = radii(rng, n)
        th, ph = rng.uniform(0, 2 * math.pi, (2, n))
        p = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        v = rng.uniform(0.5, 2.0, n)[:, None] * np.stack([np.cos(ph), np.sin(ph)], axis=-1)
        spray = _accel_at(surf, np.vstack([p.T, v.T]), nav)[0].T
        oracle = stencil_accel(surf, p, v, nav)
        err = np.linalg.norm(spray - oracle, axis=-1)
        assert np.max(err) <= 1e-7 * np.max(np.linalg.norm(oracle, axis=-1))

    def test_flat_ground_has_no_force(self, flat):
        p = np.array([[0.3, -0.2], [1.0, 2.0]])
        v = np.array([[1.0, 0.5], [-0.2, 0.9]])
        assert np.all(_accel_at(flat, np.vstack([p.T, v.T]), NavigationParams())[0] == 0.0)

    def test_past_convexity_is_nan(self, parab_surface):
        # q = 4 s^2 = 0.64 > 1/3: det g_ij <= 0 for the uphill direction
        state = np.array([[0.4], [0.0], [-1.0], [0.0]])
        acc, _ = _accel_at(parab_surface, state, NavigationParams())
        assert np.all(np.isnan(acc))


class TestSurfaceReads:
    def test_one_surface_read_per_rk4_stage(self):
        # phi' feeds the gradient and phi'' the Hessian, so their calls count surface reads
        calls = {"dphi": 0, "d2phi": 0}

        def counted(name, fn):
            def wrapped(s):
                calls[name] += 1
                return fn(s)
            return wrapped

        base = paraboloid(100.0)
        surf = SurfaceOfRevolution(replace(base, dphi=counted("dphi", base.dphi),
                                           d2phi=counted("d2phi", base.d2phi)))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
        v0 = dirs / slope_metric_F(surf, 0.1, 0.0, dirs)[:, None]
        p0 = np.tile([0.1, 0.0], (3, 1))
        calls.update(dphi=0, d2phi=0)
        n = 20
        paths = _integrate(surf, p0, v0, n * 1e-3, 1e-3, NavigationParams())
        assert [len(path.t) for path in paths] == [n + 1] * 3
        assert all(path.status == "complete" for path in paths)
        # four stages per step, the end point's read doubling as the next first
        # stage; no Hessian is taken at the last end point, which starts no step
        assert calls == {"dphi": 4 * n + 1, "d2phi": 4 * n}

    def test_package_calls_per_step(self):
        # Python-level calls into slopemetric per RK4 step, counted by cProfile:
        # four jet reads (gradient, Hessian, domain check, closed forms), four
        # sprays, the node's F and convexity test.  numpy's own functions are
        # left out, so the count does not depend on numpy's version.
        package = str(Path(slopemetric.__file__).parent)
        surf = SurfaceOfRevolution(paraboloid(100.0))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
        v0 = dirs / slope_metric_F(surf, 0.1, 0.0, dirs)[:, None]
        p0 = np.tile([0.1, 0.0], (3, 1))

        def package_calls(n):
            profile = cProfile.Profile()
            profile.runcall(_integrate, surf, p0, v0, n * 1e-3, 1e-3, NavigationParams())
            stats = pstats.Stats(profile).stats
            return sum(calls for (path, _, _), (_, calls, *_) in stats.items()
                       if path.startswith(package))

        assert (package_calls(20) - package_calls(10)) / 10 == 53

    def test_rays_all_leaving_on_one_step(self, parab_surface, monkeypatch):
        # At nav (1, 3) the convex disk has radius sqrt(1/35)/2 ~ 0.085; one
        # step of 0.5 takes every ray past it to a non-finite state, so the
        # end-of-step read gets zero rows.
        sizes = []
        check = surfaces._check_in_domain
        monkeypatch.setattr(surfaces, "_check_in_domain",
                            lambda p, s: sizes.append(np.size(s)) or check(p, s))
        wf = wavefront(parab_surface, (0.02, 0.0), 0.5, n_rays=16, step=0.5,
                       nav=NavigationParams(1.0, 3.0))
        assert 0 in sizes
        assert wf.statuses == ["non_finite_state"] * 16
        for ray in wf.rays:
            assert ray.t.tolist() == [0.0] and ray.points.tolist() == [[0.02, 0.0]]
        assert wf.fronts[0].ray_ids.size == 0

    def test_mid_step_nan_spray_ends_only_its_ray(self):
        # on a bowl, the ray that climbs past the convexity edge gets a NaN
        # spray at stage 2 or 3; it ends non-finite and the batch returns
        surf = SurfaceOfRevolution(two_sheet_hyperboloid(1.0, 1.0))
        wf = wavefront(surf, (0.65, 0.0), 1.0, n_rays=16, step=0.02)
        assert wf.statuses.count("non_finite_state") == 1
        for ray in wf.rays:
            assert np.isfinite(ray.points).all() and np.isfinite(ray.F_values).all()
        # the stalled ray's last node is the last one accepted
        path = geodesic_shoot(surf, (0.6, 0.0), (1.0, 0.0), 1.0, step=0.1)
        assert path.status == "non_finite_state" and len(path.t) > 1


class TestIndicatrix:
    def test_flat_unit_circle(self, flat):
        ind = indicatrix(flat, 0.0, 0.0, n=64)
        assert ind.fit.c0 == pytest.approx(1.0, abs=1e-9)
        assert ind.fit.c1 == pytest.approx(0.0, abs=1e-9)
        assert ind.fit.max_residual <= 1e-9
        assert ind.convex
        assert ind.frame is None
        radii = np.linalg.norm(ind.samples, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_unit_norm_residual(self, parab_surface):
        ind = indicatrix(parab_surface, 0.1, 0.0, n=256)
        assert ind.max_F_residual <= 1e-9

    def test_closure(self, parab_surface):
        ind = indicatrix(parab_surface, 0.1, 0.0, n=256)
        gap = np.linalg.norm(ind.samples[0] - ind.samples[-1])
        arc = 2 * math.pi / 256 * np.max(np.linalg.norm(ind.samples, axis=1))
        assert gap <= 1.5 * arc

    def test_limacon_fit_paraboloid(self, parab_surface):
        ind = indicatrix(parab_surface, 0.1, 0.0, n=256)
        assert ind.fit.max_residual <= 1e-6
        assert ind.fit.c0 == pytest.approx(1.0, abs=1e-6)
        assert ind.fit.c1 == pytest.approx(K_PARAB, abs=1e-9)
        assert ind.convex

    def test_max_radius_downhill(self, parab_surface):
        # gradient at (0.1, 0) points to -x, so downhill is +x
        ind = indicatrix(parab_surface, 0.1, 0.0, n=256)
        radii = np.linalg.norm(ind.samples, axis=1)
        best = ind.samples[np.argmax(radii)]
        assert best[0] > 0
        assert abs(best[1]) < 0.1 * best[0]
        # radius ratio downhill/uphill equals F_up/F_down
        Fd = slope_metric_F(parab_surface, 0.1, 0.0, (1.0, 0.0))
        Fu = slope_metric_F(parab_surface, 0.1, 0.0, (-1.0, 0.0))
        assert radii[0] / radii[128] == pytest.approx(Fu / Fd, rel=1e-12)

    def test_frame_orthonormal_in_a(self, parab_surface):
        from slopemetric import induced_metric

        ind = indicatrix(parab_surface, 0.3, -0.2, n=64)
        a = induced_metric(parab_surface, 0.3, -0.2)
        e1, e2 = ind.frame
        assert a.quad(e1) == pytest.approx(1.0, rel=1e-12)
        assert a.quad(e2) == pytest.approx(1.0, rel=1e-12)
        assert a.inner(e1, e2) == pytest.approx(0.0, abs=1e-13)
        # e1 points downhill: positive inner product with -grad
        fx, fy = parab_surface.gradient(0.3, -0.2)
        assert e1 @ np.array([-fx, -fy]) > 0

    def test_nonconvex_flag_steep_cone(self):
        surf = SurfaceOfRevolution(cone(0.7))
        ind = indicatrix(surf, 1.0, 0.0, n=256)
        assert not ind.convex

    def test_convex_flag_mild_cone(self):
        surf = SurfaceOfRevolution(cone(0.4))
        ind = indicatrix(surf, 1.0, 0.0, n=256)
        assert ind.convex

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_convex_flag_is_the_criterion_across_the_boundary(self, parab_surface, n):
        # a sampled polygon's turning misjudged points up to 6.9e-4 outside the
        # boundary at n = 64; the criterion's verdict needs no samples
        threshold = convexity_threshold(NavigationParams())
        definite = 0
        for s in np.linspace(BOUNDARY_PARAB - 2e-3, BOUNDARY_PARAB + 2e-3, 401):
            fx, fy = parab_surface.gradient(s, 0.0)
            label = criterion_verdict(fx * fx + fy * fy, threshold)
            if label != "indeterminate":
                definite += 1
                assert indicatrix(parab_surface, s, 0.0, n=n).convex is (label == "true")
        assert definite >= 400

    @pytest.mark.parametrize("nav", [NavigationParams(1.0, 1.0), NavigationParams(1.0, 0.5),
                                     NavigationParams(2.0, 1.0)], ids=str)
    @pytest.mark.parametrize("profile", builtin_profiles(), ids=lambda p: p.kind)
    def test_fit_is_the_closed_form_limacon(self, profile, nav):
        surf = SurfaceOfRevolution(profile)
        for s in interior_radii(profile, 5):
            x, y = 0.6 * s, -0.8 * s
            ind = indicatrix(surf, x, y, nav, n=64)
            grad = np.hypot(*surf.gradient(x, y))
            assert ind.fit.c0 == nav.v
            assert ind.fit.c1 == nav.w * (grad / np.hypot(1.0, grad))
            assert ind.fit.max_residual <= 1e-13


@pytest.mark.parametrize("shoot", [
    lambda surf, length, step: geodesic_shoot(surf, (0.1, 0.0), (0.0, 1.0), length, step=step),
    lambda surf, length, step: wavefront(surf, (0.1, 0.0), length, n_rays=8, step=step),
], ids=["geodesic_shoot", "wavefront"])
@pytest.mark.parametrize("length, step", [
    (0.1, 0.0), (-1.0, 1e-3), (0.1, -1.0), (math.inf, 1e-3), (0.1, math.nan),
])
def test_length_and_step_must_be_positive_and_finite(parab_surface, shoot, length, step):
    with pytest.raises(ValueError, match="length and step must be positive"):
        shoot(parab_surface, length, step)


class TestWavefront:
    def test_flat_circles(self, flat):
        wf = wavefront(flat, (0.0, 0.0), total_time=0.5, n_rays=32, step=1e-2, n_fronts=2)
        for front in wf.fronts:
            radii = np.linalg.norm(front.points, axis=1)
            assert np.max(np.abs(radii - front.time)) <= 1e-9
            assert front.complete

    def test_paraboloid_egg_ratio(self, parab_surface):
        wf = wavefront(parab_surface, (0.1, 0.0), total_time=0.05, n_rays=64, step=1e-3)
        pts = wf.fronts[-1].points - np.array([0.1, 0.0])
        reach_down = np.linalg.norm(pts[0])    # ray 0 heads +x (downhill)
        reach_up = np.linalg.norm(pts[32])     # ray 32 heads -x (uphill)
        Fd = slope_metric_F(parab_surface, 0.1, 0.0, (1.0, 0.0))
        Fu = slope_metric_F(parab_surface, 0.1, 0.0, (-1.0, 0.0))
        assert reach_down / reach_up == pytest.approx(Fu / Fd, rel=0.05)
        assert reach_down > reach_up

    def test_gaussian_all_rays_complete(self, gauss_surface):
        # globally convex surface: no ray ever hits a boundary
        wf = wavefront(gauss_surface, (1.0, 0.0), total_time=0.5, n_rays=64, step=1e-3)
        assert all(s == "complete" for s in wf.statuses)
        assert wf.fronts[-1].complete
        assert len(wf.fronts[-1].ray_ids) == 64

    def test_truncated_rays_marked(self, parab_surface):
        wf = wavefront(parab_surface, (0.25, 0.0), total_time=0.3, n_rays=8, step=1e-3)
        assert any(s == "left_convex_domain" for s in wf.statuses)
        last = wf.fronts[-1]
        assert not last.complete
        assert len(last.ray_ids) < 8

    def test_seed_outside_domain(self, parab_surface):
        with pytest.raises(OutOfDomain):
            wavefront(parab_surface, (0.5, 0.0), total_time=0.1)

    @pytest.mark.parametrize("n_fronts", [0, -1])
    def test_needs_a_front(self, parab_surface, n_fronts):
        with pytest.raises(ValueError, match="at least 1 front"):
            wavefront(parab_surface, (0.1, 0.0), total_time=0.01, n_rays=4, n_fronts=n_fronts)

    def test_rays_halt_at_the_nav_boundary(self, parab_surface):
        # at nav (1, 0.75) convexity holds for q < 0.8, i.e. s < 1/sqrt(5)
        wf = wavefront(parab_surface, (0.1, 0.0), total_time=0.3, n_rays=64, step=1e-3,
                       nav=NavigationParams(1.0, 0.75))
        ends = [math.hypot(*ray.points[-1]) for ray in wf.rays if ray.status == STATUS_LEFT_DOMAIN]
        assert ends
        edge = 1.0 / math.sqrt(5.0)
        assert all(edge - 2e-3 <= s < edge for s in ends)

    def test_rays_match_solo_shots(self, parab_surface):
        # rays that die stop advancing; the live ones must be unaffected
        seed, n = (0.2, 0.05), 16
        wf = wavefront(parab_surface, seed, total_time=0.2, n_rays=n, step=1e-3)
        assert 0 < wf.statuses.count("left_convex_domain") < n
        th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        for ray, a in zip(wf.rays, th):
            solo = geodesic_shoot(parab_surface, seed, (math.cos(a), math.sin(a)),
                                  length=0.2, step=1e-3)
            assert solo.status == ray.status
            assert solo.points.shape == ray.points.shape
            np.testing.assert_allclose(ray.points, solo.points, rtol=0, atol=1e-12)

    def test_rays_share_no_writable_memory(self, parab_surface):
        # the rays view rows of one ray-major table, of different lengths;
        # each ray is filled with its own mark, which a shared cell would lose
        wf = wavefront(parab_surface, (0.2, 0.05), total_time=0.1, n_rays=8, step=1e-3)
        assert len({len(ray.t) for ray in wf.rays}) > 1
        fields = ("t", "points", "velocities", "F_values")
        for i, ray in enumerate(wf.rays):
            for f in fields:
                getattr(ray, f)[...] = -1.0 - i
        for i, ray in enumerate(wf.rays):
            for f in fields:
                assert np.all(getattr(ray, f) == -1.0 - i)
