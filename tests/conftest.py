import os
from pathlib import Path

import numpy as np
import pytest

import slopemetric
from slopemetric import (
    SurfaceOfRevolution,
    cone,
    ellipsoid,
    flat_surface,
    gaussian_bump,
    one_sheet_hyperboloid,
    paraboloid,
    profile_from_table,
    surface_from_json,
    two_sheet_hyperboloid,
)


# numpy picks its SIMD kernels at import, by the host's CPU, and its AVX-512
# and AVX2 kernels of np.exp and np.power differ in the last bit.  A digest
# is computed in a child process with the AVX-512 kernels disabled, so every
# x86-64 host with AVX2 computes the same bits; numpy ignores a disabled
# feature the host lacks.
AVX2_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"


def pinned_env(**extra) -> dict:
    """The environment of a child process whose output a digest pins: this
    checkout's package on PYTHONPATH, numpy in the AVX2 dispatch class, and ``extra``."""
    src = str(Path(slopemetric.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=AVX2_DISPATCH, **extra)


@pytest.fixture
def parab_surface():
    return SurfaceOfRevolution(paraboloid(100.0))


@pytest.fixture
def flat():
    return flat_surface()


@pytest.fixture
def gauss_surface():
    return SurfaceOfRevolution(gaussian_bump())


def builtin_profiles():
    """All six builtin profiles with the parameter choices used throughout."""
    return [
        paraboloid(100.0),
        cone(0.5),
        ellipsoid(1.0, 1.0),
        two_sheet_hyperboloid(0.5, 1.0),
        one_sheet_hyperboloid(0.5, 1.0),
        gaussian_bump(),
    ]


def table_profile():
    """A 64-row spline table of s^1.5 whose inner edge lies off the axis."""
    s = np.linspace(0.5, 4.0, 64)
    return profile_from_table(s, s ** 1.5)


def window_profiles():
    """The builtins, a spline table and a "domain"-restricted waist, as pytest params.

    Together they have a smooth and a non-smooth apex, a waist, an unbounded
    and a finite outer edge, and a table's inner edge off the axis.
    """
    restricted = {"kind": "hyperboloid1", "params": {"a": 0.5, "b": 1.0}, "domain": [1.0, 3.0]}
    return ([pytest.param(p, id=p.kind) for p in builtin_profiles()]
            + [pytest.param(table_profile(), id="table"),
               pytest.param(surface_from_json(restricted).profile, id="hyperboloid1-restricted")])


def builtin_windows():
    """(label, profile, Okubo-check radii, Euler-identity radii): the acceptance windows."""
    return [
        ("paraboloid", paraboloid(100.0), (0.05, 4.75), (0.02, 0.28)),
        ("cone", cone(0.5), (0.1, 4.9), (0.1, 4.9)),
        ("ellipsoid", ellipsoid(1.0, 1.0), (0.05, 0.95), (0.02, 0.49)),
        ("hyperboloid2", two_sheet_hyperboloid(0.5, 1.0), (0.05, 4.9), (0.05, 4.9)),
        ("hyperboloid1", one_sheet_hyperboloid(0.5, 1.0), (1.2, 4.8), (2.05, 4.8)),
        ("gaussian", gaussian_bump(), (0.05, 4.9), (0.05, 4.9)),
    ]


def central_difference(f, x):
    """4th-order central difference of f at x with step 1e-5 * max(1, |x|).

    The tests' oracle for every closed-form derivative the library carries;
    its nodes reach 2 steps either side of x, so x must lie that far inside
    f's domain.
    """
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def interior_radii(profile, n=7):
    """A few radii safely inside the profile domain, away from edges."""
    lo, hi = profile.domain
    hi_eff = min(hi, 5.0)
    pad = 0.05 * (hi_eff - lo)
    return np.linspace(lo + pad, hi_eff - pad, n)


@pytest.fixture(params=builtin_profiles(), ids=lambda p: p.kind)
def builtin_profile(request):
    return request.param
