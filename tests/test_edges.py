"""The edge matrix: every public metric and convexity entry at degenerate points and directions.

Each case gives a finite value or a SlopeMetricError.  The suite's
``error::RuntimeWarning`` filter turns a numpy warning into a test failure,
so each case is a no-warning check as well.
"""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from slopemetric import (
    NORMALIZED,
    DegenerateDenominator,
    DirectionOverflow,
    GraphSurface,
    NavigationParams,
    NonDifferentiable,
    OutOfDomain,
    SamplePlan,
    SlopeMetricError,
    SurfaceOfRevolution,
    SymmetricForm,
    Verdict,
    ZeroVector,
    alpha,
    beta,
    convexity_domain,
    flat_surface,
    fundamental_tensor,
    geodesic_shoot,
    hessian_field,
    indicatrix,
    induced_metric,
    is_strongly_convex_at,
    limacon_h,
    okubo_solve,
    pd_oracle,
    slope_metric_F,
    verify_equivalence,
    wavefront,
)
import slopemetric
from slopemetric import convexity, errors, geodesics, metric, surfaces
from conftest import builtin_profiles


def _hypot_cubed(x, y):
    return np.hypot(x, y) ** 3


# the cone z = r as a graph: its closed-form gradient (x, y)/r is 0/0 at the apex
GRAPH_CONE = GraphSurface(
    f=lambda x, y: np.hypot(x, y),
    grad=lambda x, y: (x / np.hypot(x, y), y / np.hypot(x, y)),
    hess=lambda x, y: (y * y / _hypot_cubed(x, y), -x * y / _hypot_cubed(x, y),
                       x * x / _hypot_cubed(x, y)),
    kind="graph-cone",
)

SURFACES = [SurfaceOfRevolution(p) for p in builtin_profiles()] + [flat_surface(), GRAPH_CONE]

# the ellipsoid(1, 1) rim and the hyperboloid1(0.5, 1) waist both lie at radius 1
POINTS = {
    "axis": (0.0, 0.0),
    "nan": (math.nan, 0.2),
    "inf": (math.inf, 0.0),
    "rim": (math.nextafter(1.0, 0.0), 0.0),
    "outside": (2.0, -1.5),
    "waist": (1.0, 0.0),
}

DIRECTIONS = {
    "zero": (0.0, 0.0),
    "nan": (math.nan, 1.0),
    "inf": (0.0, -math.inf),
    "tiny": (5e-324, -5e-324),
    "huge": (-1.7e308, 1.7e308),
}

NAVS = [NavigationParams(1.0, 1.0), NavigationParams(2.0, 1.0), NavigationParams(1.0, 3.0)]


def _metric_entries(surf, x, y, d, nav):
    """Each public metric entry at one point and direction, one-point and (1,)-batch forms.

    a_ij's ``quad`` and ``inner`` keep the same direction rule as the entries.
    """
    X, Y, D = np.array([x]), np.array([y]), np.array([d])
    return {
        "alpha": lambda: alpha(surf, x, y, d),
        "alpha batch": lambda: alpha(surf, X, Y, D),
        "beta": lambda: beta(surf, x, y, d),
        "beta batch": lambda: beta(surf, X, Y, D),
        "slope_metric_F": lambda: slope_metric_F(surf, x, y, d, nav),
        "slope_metric_F batch": lambda: slope_metric_F(surf, X, Y, D, nav),
        "limacon_h": lambda: limacon_h(surf, x, y, d, nav),
        "limacon_h batch": lambda: limacon_h(surf, X, Y, D, nav),
        "okubo_solve": lambda: okubo_solve(surf, x, y, np.array(d), nav),
        "fundamental_tensor": lambda: fundamental_tensor(surf, x, y, d, nav),
        "hessian_field": lambda: hessian_field(surf, x, y, D, nav),
        "quad": lambda: induced_metric(surf, x, y).quad(d),
        "quad batch": lambda: induced_metric(surf, X, Y).quad(D),
        "inner": lambda: induced_metric(surf, x, y).inner(d, (0.6, -0.8)),
        "inner batch": lambda: induced_metric(surf, X, Y).inner((0.6, -0.8), D),
    }


def _outcome(call):
    """The SlopeMetricError type a call raises, or None after checking its value is finite."""
    try:
        value = call()
    except SlopeMetricError as exc:
        return type(exc)
    if isinstance(value, SymmetricForm):
        value = (value.m11, value.m12, value.m22)
    assert np.isfinite(np.asarray(value, dtype=float)).all(), value
    return None


def _point_error(surf, x, y):
    """The error the point's surface read raises, or None; every entry reads the point first."""
    try:
        surf.gradient(x, y)
    except SlopeMetricError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("nav", NAVS, ids=lambda n: f"nav{n.v:g},{n.w:g}")
@pytest.mark.parametrize("surf", SURFACES, ids=lambda s: s.kind)
class TestEdgeMatrix:
    def test_metric_entries(self, surf, nav):
        for (x, y) in POINTS.values():
            point_error = _point_error(surf, x, y)
            for name, d in DIRECTIONS.items():
                for entry, call in _metric_entries(surf, x, y, d, nav).items():
                    got = _outcome(call)
                    case = (entry, (x, y), name)
                    if point_error is not None:
                        assert got is point_error, case
                    elif name == "zero":
                        assert got is ZeroVector, case
                    elif name in ("nan", "inf"):
                        assert got is DirectionOverflow, case

    def test_point_entries(self, surf, nav):
        # the convexity verdicts, and the indicatrix, which samples F over a fan
        for (x, y) in POINTS.values():
            point_error = _point_error(surf, x, y)
            for call in (lambda: is_strongly_convex_at(surf, x, y, nav),
                         lambda: pd_oracle(surf, x, y, nav)):
                try:
                    verdict = call()
                except SlopeMetricError as exc:
                    assert type(exc) is point_error, (x, y)
                else:
                    assert point_error is None and isinstance(verdict, (Verdict, bool)), (x, y)
            got = _outcome(lambda: indicatrix(surf, x, y, nav, n=16).samples)
            if point_error is not None:
                assert got is point_error, (x, y)
            else:
                assert got in (None, DegenerateDenominator), (x, y)

    def test_non_finite_points_are_out_of_domain(self, surf, nav):
        for x, y in (POINTS["nan"], POINTS["inf"], (0.3, -math.inf)):
            assert _point_error(surf, x, y) is OutOfDomain


def test_graph_derivatives_name_the_first_non_finite_point():
    # each entry raises what the surface read raises, as at a profile's
    # non-finite closed form, and numpy's 0/0 warning stays inside the error
    message = re.escape("closed-form derivative non-finite at (0.0, 0.0)")
    X, Y = np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
    for call in (lambda: GRAPH_CONE.gradient(0.0, 0.0),
                 lambda: GRAPH_CONE.gradient(X, Y),
                 lambda: GRAPH_CONE.hessian(X, Y),
                 lambda: slope_metric_F(GRAPH_CONE, 0.0, 0.0, (1.0, 0.0)),
                 lambda: is_strongly_convex_at(GRAPH_CONE, 0.0, 0.0),
                 lambda: pd_oracle(GRAPH_CONE, 0.0, 0.0)):
        with pytest.raises(NonDifferentiable, match=message):
            call()
    # a height that is not finite is OutOfDomain, as a profile's is
    log_cone = replace(GRAPH_CONE, f=lambda x, y: np.log(np.hypot(x, y)))
    with pytest.raises(OutOfDomain, match=re.escape("surface evaluated non-finite at (0.0, 0.0)")):
        log_cone.height(X, Y)


def test_nav_defaults_in_the_signatures():
    for entry in (slope_metric_F, limacon_h, okubo_solve, hessian_field, fundamental_tensor,
                  is_strongly_convex_at, convexity_domain, pd_oracle, verify_equivalence,
                  geodesic_shoot, wavefront, indicatrix):
        assert inspect.signature(entry).parameters["nav"].default is NORMALIZED, entry.__name__
    assert inspect.signature(verify_equivalence).parameters["plan"].default == SamplePlan()


def test_the_package_exports_exactly_its_modules_all():
    modules = (errors, surfaces, metric, convexity, geodesics)
    listed = [name for module in modules for name in module.__all__]
    public = {name for name, value in vars(slopemetric).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(listed) == len(set(listed))
    assert public == set(listed)
