"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them on success)."""

import json
import math
import time

import numpy as np

from slopemetric import (
    SurfaceOfRevolution,
    TrigProfile,
    cone,
    conservation_drift,
    convexity_domain,
    flat_surface,
    fundamental_tensor,
    gaussian_bump,
    geodesic_shoot,
    indicatrix,
    okubo_solve,
    one_sheet_hyperboloid,
    paraboloid,
    slope_metric_F,
    trig_condition,
)
from slopemetric.cli import main
from conftest import builtin_windows

PARAB_JSON = '{"kind": "paraboloid", "params": {"h": 100}}'


def test_criterion_1_paraboloid_boundary_via_cli(capsys):
    t0 = time.perf_counter()
    code = main(["domain", "--surface", PARAB_JSON, "--smax", "1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    d = json.loads(out)
    roots = d["domain"]["boundary_roots"]
    assert len(roots) == 1
    assert len(d["domain"]["intervals"]) == 1
    err = abs(roots[0]["location"] - 1.0 / math.sqrt(12.0))
    assert err <= 1e-8
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: paraboloid boundary err={err:.2e}, {elapsed:.3f}s")


def test_criterion_2_cone_threshold_bisection():
    t0 = time.perf_counter()

    def whole_surface_convex(a: float) -> bool:
        return convexity_domain(cone(a), resolution=256, s_max=5.0).is_entire

    lo, hi = 0.5, 0.7  # convex at lo, not at hi
    assert whole_surface_convex(lo) and not whole_surface_convex(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if whole_surface_convex(mid):
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    err = abs(flip - 1.0 / math.sqrt(3.0))
    assert err <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 2 PASS: cone verdict flips at {flip:.8f}, err={err:.2e}, {elapsed:.2f}s")


def test_criterion_3_ellipsoid_boundary():
    from slopemetric import ellipsoid

    dom = convexity_domain(ellipsoid(1.0, 1.0), resolution=2048)
    (root, residual), = dom.boundary_roots
    err = abs(root - 0.5)
    assert err <= 1e-8
    print(f"criterion 3 PASS: ellipsoid boundary err={err:.2e}, residual={residual:.2e}")


def test_criterion_4_hyperboloid_boundaries():
    from slopemetric import two_sheet_hyperboloid

    dom1 = convexity_domain(one_sheet_hyperboloid(0.5, 1.0), resolution=2048, s_max=8.0)
    (root, _), = dom1.boundary_roots
    err = abs(root - 2.0)
    assert err <= 1e-7
    dom2 = convexity_domain(two_sheet_hyperboloid(0.5, 1.0), resolution=2048, s_max=8.0)
    assert dom2.is_entire
    print(f"criterion 4 PASS: one-sheet boundary err={err:.2e}; two-sheet convex on scan range")


def test_criterion_5_gaussian_minimum():
    trig = TrigProfile.from_profile(gaussian_bump())
    u_lo, u_hi = trig.u_range
    pad = 1e-4 * (u_hi - u_lo)
    grid = np.linspace(u_lo + pad, u_hi - pad, 4001)
    mu = trig_condition(trig, grid)
    k = int(np.argmin(mu))
    # golden-section polish of the grid minimum
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda u: trig_condition(trig, float(u)),
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
        method="bounded", options={"xatol": 1e-12},
    )
    mu_min, u_min = float(res.fun), float(res.x)
    u_star = math.exp(-0.5) / (2.0 * math.sqrt(6.0))
    assert 32.0 <= mu_min <= 33.0
    assert abs(u_min - u_star) <= 1e-4
    dom = convexity_domain(gaussian_bump(), resolution=2048, s_max=10.0)
    assert dom.is_entire  # globally convex on (0, 10]
    print(f"criterion 5 PASS: min m'(u)^2 = {mu_min:.6f} at u={u_min:.8f} "
          f"(target {u_star:.8f}); globally convex on (0, 10]")


def test_criterion_6_equivalence_oracle_via_cli(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--samples", "200", "--seed", "0", "--band", "1e-3"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert code == 0
    assert d["total_disagreements"] == 0
    assert len(d["reports"]) == 6
    for rep in d["reports"]:
        assert rep["agreements"] == 200
    assert elapsed < 60.0
    print(f"criterion 6 PASS: 6 surfaces x 200 points, zero disagreements, {elapsed:.1f}s")


def test_criterion_7_okubo_consistency():
    worst_overall = 0.0
    for label, profile, (s_lo, s_hi), _ in builtin_windows():
        surf = SurfaceOfRevolution(profile)
        worst = 0.0
        for s in np.linspace(s_lo, s_hi, 10):
            for tp in np.linspace(0, 2 * math.pi, 10, endpoint=False):
                x, y = s * math.cos(tp), s * math.sin(tp)
                for td in np.linspace(0, 2 * math.pi, 16, endpoint=False):
                    d = np.array([math.cos(td), math.sin(td)])
                    Fo = okubo_solve(surf, x, y, d)
                    Fc = slope_metric_F(surf, x, y, d)
                    worst = max(worst, abs(Fo - Fc) / Fc)
        assert worst <= 1e-9, f"{label}: okubo mismatch {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    print(f"criterion 7 PASS: okubo vs closed form, worst rel diff {worst_overall:.2e}")


def test_criterion_8_euler_identity():
    worst_overall = 0.0
    for label, profile, _, (c_lo, c_hi) in builtin_windows():
        surf = SurfaceOfRevolution(profile)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            s = rng.uniform(c_lo, c_hi)
            tp = rng.uniform(0, 2 * math.pi)
            x, y = s * math.cos(tp), s * math.sin(tp)
            d = rng.normal(size=2)
            while np.hypot(*d) < 0.1:
                d = rng.normal(size=2)
            g = fundamental_tensor(surf, x, y, d)
            F = slope_metric_F(surf, x, y, d)
            worst = max(worst, abs(g.quad(d) - F * F) / (F * F))
        assert worst <= 1e-6, f"{label}: Euler residual {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    print(f"criterion 8 PASS: Euler identity residual <= {worst_overall:.2e} on 600 samples")


def test_criterion_9_conservation_and_order():
    surf = SurfaceOfRevolution(paraboloid(100.0))
    path = geodesic_shoot(surf, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-3)
    drift_ref = conservation_drift(path)
    assert path.status == "complete"
    assert drift_ref <= 1e-6
    d_coarse = conservation_drift(
        geodesic_shoot(surf, (0.1, 0.0), (0.0, 1.0), length=0.2, step=2e-2)
    )
    d_fine = conservation_drift(
        geodesic_shoot(surf, (0.1, 0.0), (0.0, 1.0), length=0.2, step=1e-2)
    )
    ratio = d_coarse / d_fine
    assert ratio >= 8.0
    flat = flat_surface()
    straight = geodesic_shoot(flat, (0.3, -0.4), (2.0, 1.0), length=1.0, step=1e-2)
    expected = np.array([0.3, -0.4]) + np.outer(straight.t, np.array([2.0, 1.0]) / math.hypot(2, 1))
    dev = float(np.max(np.abs(straight.points - expected)))
    assert dev <= 1e-9
    print(f"criterion 9 PASS: drift {drift_ref:.2e} at step 1e-3; halving ratio {ratio:.1f}x; "
          f"flat deviation {dev:.2e}")


def test_criterion_10_limacon_fit():
    surf = SurfaceOfRevolution(paraboloid(100.0))
    ind = indicatrix(surf, 0.1, 0.0, n=256)
    assert ind.fit.max_residual <= 1e-6
    assert abs(ind.fit.c0 - 1.0) <= 1e-6
    print(f"criterion 10 PASS: limacon fit residual {ind.fit.max_residual:.2e}, "
          f"c0 = {ind.fit.c0:.9f}, c1 = {ind.fit.c1:.9f}")
