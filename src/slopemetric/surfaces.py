"""Profile curves and graph surfaces.

A surface of revolution is the graph z = phi(sqrt(x^2 + y^2)) of a radial
profile phi on a half-open interval [s_min, s_max); a general surface is a
graph z = f(x, y).  Both expose heights and gradients, vectorized over
numpy arrays.  A profile can additionally be inverted on a strictly
monotone branch, giving the height parametrization s = m(u) of the same
generator (the nonnegative branch only; mirrored branches are rejected).

Surfaces are immutable after construction and all operations are pure, so
one surface may be evaluated concurrently from any number of threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ApexSingularity,
    ConfigError,
    NonDifferentiable,
    NotInvertible,
    OutOfDomain,
    OutOfRange,
)

__all__ = [
    "ProfileCurve",
    "TrigProfile",
    "SurfaceOfRevolution",
    "GraphSurface",
    "SurfaceSpec",
    "paraboloid",
    "cone",
    "ellipsoid",
    "two_sheet_hyperboloid",
    "one_sheet_hyperboloid",
    "gaussian_bump",
    "profile_from_table",
    "profile_from_callable",
    "eval_profile",
    "profile_derivative",
    "profile_second_derivative",
    "invert_profile",
    "flat_surface",
    "surface_from_json",
]

# Unbounded profile domains are clipped to this radius (scans, samples, inversion).
DEFAULT_SCAN_SMAX = 100.0

# |phi'(0+)| below this counts as a smooth axis point (even extension).
_APEX_SLOPE_TOL = 1e-8

# Bisection tolerance for profile inversion, absolute in s.
_INVERT_TOL = 1e-12

# Second derivatives by differences of first derivatives use steps this many
# times fd_step, so the first derivative's own rounding noise (~eps/fd_step
# when it is numeric) stays small against the outer step.
_HESSIAN_STEP_FACTOR = 100.0


@dataclass(frozen=True)
class ProfileCurve:
    """Radial generator phi of a surface of revolution.

    Attributes
    ----------
    kind : str
        Builtin tag ("paraboloid", "cone", ...) or "custom".
    phi : callable
        Vectorized map s -> z.
    dphi : callable or None
        Closed-form derivative; None switches ``profile_derivative`` to
        4th-order central differences with step ``fd_step * max(1, |s|)``.
    domain : (float, float)
        Half-open interval [s_min, s_max), s_min >= 0; s_max may be inf.
    params : dict
        Shape coefficients, kept for reporting and serialization.
    fd_step : float
        Base step for numeric differentiation (> 0).
    d2phi : callable or None
        Closed-form second derivative; None switches
        ``profile_second_derivative`` to central differences of
        ``profile_derivative``.
    """

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray] | None
    domain: tuple[float, float]
    params: dict = field(default_factory=dict)
    fd_step: float = 1e-5
    d2phi: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        lo, hi = self.domain
        if not (0.0 <= lo < hi):
            raise ConfigError(f"invalid profile domain [{lo}, {hi})")
        if self.fd_step <= 0.0:
            raise ConfigError("fd_step must be positive")

    @property
    def derivative_mode(self) -> str:
        return "closed-form" if self.dphi is not None else "central-difference"

    def __call__(self, s):
        return eval_profile(self, s)


def paraboloid(h: float = 100.0, s_max: float = math.inf) -> ProfileCurve:
    """phi(s) = h - s^2 with hilltop height h > 0."""
    if h <= 0:
        raise ConfigError("paraboloid needs h > 0")
    return ProfileCurve(
        kind="paraboloid",
        phi=lambda s: h - np.square(s),
        dphi=lambda s: -2.0 * np.asarray(s, dtype=float),
        d2phi=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0),
        domain=(0.0, s_max),
        params={"h": float(h)},
    )


def cone(a: float, s_max: float = math.inf) -> ProfileCurve:
    """phi(s) = a*s, a > 0.  The axis point s=0 is a non-smooth apex."""
    if a <= 0:
        raise ConfigError("cone needs a > 0")
    return ProfileCurve(
        kind="cone",
        phi=lambda s: a * np.asarray(s, dtype=float),
        dphi=lambda s: np.full_like(np.asarray(s, dtype=float), a),
        d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        domain=(0.0, s_max),
        params={"a": float(a)},
    )


def ellipsoid(a: float, c: float) -> ProfileCurve:
    """phi(s) = (c/a)*sqrt(a^2 - s^2) on [0, a), semi-axes a, c > 0."""
    if a <= 0 or c <= 0:
        raise ConfigError("ellipsoid needs a > 0 and c > 0")
    return ProfileCurve(
        kind="ellipsoid",
        phi=lambda s: (c / a) * np.sqrt(a * a - np.square(s)),
        dphi=lambda s: -(c / a) * np.asarray(s, dtype=float) / np.sqrt(a * a - np.square(s)),
        d2phi=lambda s: -(c * a) / (a * a - np.square(s)) ** 1.5,
        domain=(0.0, a),
        params={"a": float(a), "c": float(c)},
    )


def two_sheet_hyperboloid(a: float, b: float, s_max: float = math.inf) -> ProfileCurve:
    """phi(s) = a*sqrt(s^2 + b^2), a, b > 0 (upper sheet)."""
    if a <= 0 or b <= 0:
        raise ConfigError("two-sheet hyperboloid needs a > 0 and b > 0")
    return ProfileCurve(
        kind="hyperboloid2",
        phi=lambda s: a * np.sqrt(np.square(s) + b * b),
        dphi=lambda s: a * np.asarray(s, dtype=float) / np.sqrt(np.square(s) + b * b),
        d2phi=lambda s: a * b * b / (np.square(s) + b * b) ** 1.5,
        domain=(0.0, s_max),
        params={"a": float(a), "b": float(b)},
    )


def one_sheet_hyperboloid(a: float, b: float, s_max: float = math.inf) -> ProfileCurve:
    """phi(s) = a*sqrt(s^2 - b^2) on [|b|, s_max), a, b > 0.

    phi itself is defined at the waist s = |b|, but the derivative diverges
    there, so differentiation requires s > |b|.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("one-sheet hyperboloid needs a > 0 and b > 0")
    b = abs(b)
    return ProfileCurve(
        kind="hyperboloid1",
        phi=lambda s: a * np.sqrt(np.square(s) - b * b),
        dphi=lambda s: a * np.asarray(s, dtype=float) / np.sqrt(np.square(s) - b * b),
        d2phi=lambda s: -a * b * b / (np.square(s) - b * b) ** 1.5,
        domain=(b, s_max),
        params={"a": float(a), "b": float(b)},
    )


def gaussian_bump(s_max: float = math.inf) -> ProfileCurve:
    """phi(s) = exp(-s^2) / (2*sqrt(6)), the bell-shaped bump."""
    amp = 1.0 / (2.0 * math.sqrt(6.0))
    return ProfileCurve(
        kind="gaussian",
        phi=lambda s: amp * np.exp(-np.square(s)),
        dphi=lambda s: -2.0 * amp * np.asarray(s, dtype=float) * np.exp(-np.square(s)),
        d2phi=lambda s: amp * (4.0 * np.square(s) - 2.0) * np.exp(-np.square(s)),
        domain=(0.0, s_max),
        params={},
    )


def profile_from_table(s: Sequence[float], z: Sequence[float]) -> ProfileCurve:
    """Cubic-spline profile through sampled (s, phi(s)) rows.

    Requires at least 64 rows with strictly increasing s; the spline and its
    first two derivatives are exact on [s[0], s[-1]] (closed at the top so
    the last row stays usable).
    """
    # scipy costs most of the package's import time and only tables need it
    from scipy.interpolate import CubicSpline

    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    if s.ndim != 1 or s.shape != z.shape:
        raise ConfigError("table must be two equal-length 1-D columns")
    if s.size < 64:
        raise ConfigError(f"custom profile table needs >= 64 rows, got {s.size}")
    if not np.all(np.diff(s) > 0):
        raise ConfigError("table s-column must be strictly increasing")
    if s[0] < 0:
        raise ConfigError("table radii must be nonnegative")
    spline = CubicSpline(s, z)
    # np.nextafter keeps the last table row inside the half-open domain.
    return ProfileCurve(
        kind="custom",
        phi=spline,
        dphi=spline.derivative(),
        d2phi=spline.derivative(2),
        domain=(float(s[0]), float(np.nextafter(s[-1], np.inf))),
        params={"rows": int(s.size), "s_min": float(s[0]), "s_max": float(s[-1])},
    )


def profile_from_callable(
    phi: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    dphi: Callable[[np.ndarray], np.ndarray] | None = None,
    fd_step: float = 1e-5,
    kind: str = "custom",
) -> ProfileCurve:
    """Wrap an arbitrary vectorized callable as a profile curve."""
    return ProfileCurve(kind=kind, phi=phi, dphi=dphi, domain=(float(domain[0]), float(domain[1])), fd_step=fd_step)


def _scalar(*values):
    """Python floats for 0-d values, else the arrays themselves.

    The scalar-in, float-out rule of every public function: one value comes
    back bare, several (of one shape) as a tuple.
    """
    if np.ndim(values[0]) == 0:
        values = tuple(float(v) for v in values)
    return values[0] if len(values) == 1 else values


def _check_in_domain(p: ProfileCurve, s: np.ndarray) -> None:
    lo, hi = p.domain
    bad = (s < lo) | (s >= hi) | ~np.isfinite(s)
    if np.any(bad):
        worst = np.asarray(s)[bad].flat[0]
        raise OutOfDomain(f"s={worst!r} outside profile domain [{lo}, {hi})")


def eval_profile(p: ProfileCurve, s):
    """Profile height phi(s).  Scalar in, float out; array in, array out."""
    s_arr = np.asarray(s, dtype=float)
    _check_in_domain(p, s_arr)
    z = np.asarray(p.phi(s_arr), dtype=float)
    if not np.all(np.isfinite(z)):
        raise OutOfDomain(f"profile evaluated non-finite at s={s!r}")
    return _scalar(z)


def _phi_even(p: ProfileCurve, s: np.ndarray) -> np.ndarray:
    # Even extension across the axis; valid for rotation profiles with s_min = 0.
    return np.asarray(p.phi(np.abs(s)), dtype=float)


def _closed_form(p: ProfileCurve, fn, s_arr: np.ndarray, s):
    """A closed-form derivative at s; non-finite values become typed errors."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.asarray(fn(s_arr), dtype=float)
    if not np.all(np.isfinite(d)):
        lo = p.domain[0]
        if lo > 0.0 and np.any(s_arr == lo):
            # closed-form slope diverges at a positive inner edge (waist)
            raise OutOfDomain(f"derivative undefined at the domain edge s={lo}")
        raise NonDifferentiable(f"closed-form derivative non-finite at s={s!r}")
    return _scalar(d)


def _central_difference(p: ProfileCurve, f, s_arr: np.ndarray, s, fd_step: float):
    """4th-order central difference of f at s, step ``fd_step * max(1, |s|)``.

    The step shrinks near a finite domain edge.  On an axis domain (s_min = 0)
    only the upper edge limits it, so f must accept the reflected nodes s < 0.
    """
    lo, hi = p.domain
    h = fd_step * np.maximum(1.0, np.abs(s_arr))
    if math.isfinite(hi):
        h = np.minimum(h, (hi - s_arr) / 2.5)
    if lo != 0.0:
        h = np.minimum(h, (s_arr - lo) / 2.5)
    if np.any(h <= 0):
        raise NonDifferentiable(f"no room for a difference stencil at s={s!r}")
    d = (f(s_arr - 2 * h) - 8 * f(s_arr - h) + 8 * f(s_arr + h) - f(s_arr + 2 * h)) / (12 * h)
    if not np.all(np.isfinite(d)):
        raise NonDifferentiable(f"numeric derivative non-finite at s={s!r}")
    return _scalar(d)


def profile_derivative(p: ProfileCurve, s):
    """dphi/ds, closed form when available, else 4th-order central differences.

    The numeric path reflects evenly across s=0 when the domain starts at the
    axis, and shrinks the step near a finite domain edge.  Raises
    NonDifferentiable when no valid stencil fits.
    """
    s_arr = np.asarray(s, dtype=float)
    _check_in_domain(p, s_arr)
    if p.dphi is not None:
        return _closed_form(p, p.dphi, s_arr, s)
    if p.domain[0] == 0.0:
        f = lambda q: _phi_even(p, q)
    else:
        f = lambda q: np.asarray(p.phi(q), dtype=float)
    return _central_difference(p, f, s_arr, s, p.fd_step)


def profile_second_derivative(p: ProfileCurve, s):
    """d^2phi/ds^2, closed form when available, else central differences of
    ``profile_derivative`` (odd reflection across the axis, steps
    ``_HESSIAN_STEP_FACTOR`` times wider than the first derivative's)."""
    s_arr = np.asarray(s, dtype=float)
    _check_in_domain(p, s_arr)
    if p.d2phi is not None:
        return _closed_form(p, p.d2phi, s_arr, s)
    if p.domain[0] == 0.0:
        f = lambda q: np.sign(q) * profile_derivative(p, np.abs(q))
    else:
        f = lambda q: np.asarray(profile_derivative(p, q))
    return _central_difference(p, f, s_arr, s, _HESSIAN_STEP_FACTOR * p.fd_step)


@dataclass(frozen=True)
class TrigProfile:
    """Height parametrization s = m(u) of a profile, on one monotone branch.

    m inverts phi: m(phi(s)) = s on the branch, and m'(u) = 1/phi'(m(u))
    wherever phi' does not vanish.  Only the nonnegative branch (s >= 0) is
    represented; profiles that are not strictly monotone on the requested
    s-range raise NotInvertible.
    """

    profile: ProfileCurve
    s_range: tuple[float, float]
    u_range: tuple[float, float]
    increasing: bool

    @classmethod
    def from_profile(cls, p: ProfileCurve, s_range: tuple[float, float] | None = None) -> "TrigProfile":
        lo, hi = p.domain
        auto = s_range is None
        if auto:
            hi_eff = min(hi, max(DEFAULT_SCAN_SMAX, 2 * lo))
            if math.isfinite(hi):
                hi_eff = min(hi_eff, hi - max(1e-12, (hi - lo) * 1e-12))
            s_range = (lo, hi_eff)
        s_lo, s_hi = float(s_range[0]), float(s_range[1])
        if not (lo <= s_lo < s_hi < hi):
            raise OutOfDomain(f"s-range [{s_lo}, {s_hi}] not inside profile domain [{lo}, {hi})")
        if s_lo < 0:
            raise NotInvertible("only the nonnegative branch s >= 0 is supported")
        # strict monotonicity scan, 256 panels
        grid = np.linspace(s_lo, s_hi, 257)
        vals = np.asarray(p.phi(grid), dtype=float)
        diffs = np.diff(vals)
        if auto:
            # trim numerically flat head/tail (e.g. an underflowed far tail)
            nz = np.nonzero(diffs)[0]
            if nz.size == 0:
                raise NotInvertible(f"profile '{p.kind}' is numerically constant on [{s_lo}, {s_hi}]")
            grid = grid[nz[0]: nz[-1] + 2]
            vals = vals[nz[0]: nz[-1] + 2]
            diffs = np.diff(vals)
            s_lo, s_hi = float(grid[0]), float(grid[-1])
        if np.all(diffs > 0):
            increasing = True
        elif np.all(diffs < 0):
            increasing = False
        else:
            raise NotInvertible(
                f"profile '{p.kind}' is not strictly monotone on [{s_lo}, {s_hi}]"
            )
        u_lo, u_hi = (vals[0], vals[-1]) if increasing else (vals[-1], vals[0])
        return cls(profile=p, s_range=(s_lo, s_hi), u_range=(float(u_lo), float(u_hi)), increasing=increasing)

    def m(self, u):
        """Radius m(u) with phi(m(u)) = u, bisected to 1e-12 absolute in s."""
        u_arr = np.asarray(u, dtype=float)
        u_lo, u_hi = self.u_range
        if np.any((u_arr < u_lo) | (u_arr > u_hi) | ~np.isfinite(u_arr)):
            raise OutOfRange(f"height u={u!r} outside profile range [{u_lo}, {u_hi}]")
        s_lo, s_hi = self.s_range
        shape = u_arr.shape
        u_flat = np.atleast_1d(u_arr).ravel()
        a = np.full_like(u_flat, s_lo)
        b = np.full_like(u_flat, s_hi)
        phi = lambda q: np.asarray(self.profile.phi(q), dtype=float)
        # orient so f(s) = sign*(phi(s) - u) is increasing: f(a) <= 0 <= f(b)
        sign = 1.0 if self.increasing else -1.0
        n_iter = max(1, int(math.ceil(math.log2(max((s_hi - s_lo) / _INVERT_TOL, 1.0)))))
        for _ in range(n_iter):
            mid = 0.5 * (a + b)
            go_left = sign * (phi(mid) - u_flat) >= 0
            b = np.where(go_left, mid, b)
            a = np.where(go_left, a, mid)
        out = 0.5 * (a + b)
        # snap exact endpoint hits
        out = np.where(u_flat == phi(np.full_like(u_flat, s_lo)), s_lo, out)
        out = np.where(u_flat == phi(np.full_like(u_flat, s_hi)), s_hi, out)
        return _scalar(out.reshape(shape))

    def m_prime(self, u):
        """dm/du = 1 / phi'(m(u)); +-inf where the profile slope vanishes."""
        s = self.m(u)
        d = profile_derivative(self.profile, s)
        with np.errstate(divide="ignore"):
            out = np.where(np.asarray(d) == 0.0, np.inf, 1.0 / np.asarray(d, dtype=float))
        return _scalar(out)


def invert_profile(p: ProfileCurve, u, s_range: tuple[float, float] | None = None):
    """m(u) on the (auto-detected) nonnegative monotone branch of p."""
    return TrigProfile.from_profile(p, s_range).m(u)


@dataclass(frozen=True)
class SurfaceOfRevolution:
    """Graph surface z = phi(sqrt(x^2 + y^2)) built from a profile curve."""

    profile: ProfileCurve

    @property
    def kind(self) -> str:
        return self.profile.kind

    @property
    def apex_smooth(self) -> bool:
        """True when the axis point is smooth: 0 in the domain and phi'(0+) = 0."""
        lo, _ = self.profile.domain
        if lo != 0.0:
            return False
        try:
            d0 = profile_derivative(self.profile, 0.0)
        except (OutOfDomain, NonDifferentiable):
            return False
        return abs(d0) <= _APEX_SLOPE_TOL

    def height(self, x, y):
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        z = eval_profile(self.profile, np.hypot(x_arr, y_arr))
        return z

    def gradient(self, x, y):
        """(f_x, f_y) = phi'(s) * (x/s, y/s) with s = sqrt(x^2 + y^2).

        At s = 0 the gradient is (0, 0) when the axis is smooth and raises
        ApexSingularity otherwise.
        """
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        s = np.hypot(x_arr, y_arr)
        on_axis = s == 0.0
        if np.any(on_axis):
            if not self.apex_smooth:
                raise ApexSingularity(f"gradient undefined on the axis of a '{self.kind}' surface")
            s_safe = np.where(on_axis, 1.0, s)
            d = profile_derivative(self.profile, np.where(on_axis, 0.0, s))
            d = np.where(on_axis, 0.0, d)
        else:
            s_safe = s
            d = profile_derivative(self.profile, s)
        fx = np.asarray(d) * x_arr / s_safe
        fy = np.asarray(d) * y_arr / s_safe
        return _scalar(fx, fy)

    def hessian(self, x, y):
        """(f_xx, f_xy, f_yy) of phi''(s) u u^T + (phi'(s)/s) (I - u u^T), u = (x, y)/s.

        On a smooth axis the Hessian is phi''(0) I; at a non-smooth axis point
        it raises ApexSingularity, as ``gradient`` does.
        """
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        s = np.hypot(x_arr, y_arr)
        on_axis = s == 0.0
        if np.any(on_axis) and not self.apex_smooth:
            raise ApexSingularity(f"Hessian undefined on the axis of a '{self.kind}' surface")
        s_safe = np.where(on_axis, 1.0, s)
        d2 = np.asarray(profile_second_derivative(self.profile, s))
        radial = np.where(on_axis, d2, np.asarray(profile_derivative(self.profile, s)) / s_safe)
        ux, uy = x_arr / s_safe, y_arr / s_safe
        bend = d2 - radial
        fxx = radial + bend * ux * ux
        fxy = bend * ux * uy
        fyy = radial + bend * uy * uy
        return _scalar(fxx, fxy, fyy)

    def bounding_box(self) -> tuple[float, float, float, float]:
        lo, hi = self.profile.domain
        r = min(hi, DEFAULT_SCAN_SMAX)
        if math.isfinite(hi):
            r = r * (1 - 1e-12)
        return (-r, r, -r, r)


@dataclass(frozen=True)
class GraphSurface:
    """General graph surface z = f(x, y) with supplied or numeric gradient."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    bbox: tuple[float, float, float, float] = (-10.0, 10.0, -10.0, 10.0)
    fd_step: float = 1e-5
    kind: str = "graph"

    def height(self, x, y):
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return _scalar(np.asarray(self.f(x_arr, y_arr), dtype=float))

    def gradient(self, x, y):
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if self.grad is not None:
            fx, fy = self.grad(x_arr, y_arr)
            fx = np.asarray(fx, dtype=float) * np.ones_like(x_arr)
            fy = np.asarray(fy, dtype=float) * np.ones_like(y_arr)
        else:
            hx = self.fd_step * np.maximum(1.0, np.abs(x_arr))
            hy = self.fd_step * np.maximum(1.0, np.abs(y_arr))
            f = self.f
            fx = (f(x_arr - 2 * hx, y_arr) - 8 * f(x_arr - hx, y_arr)
                  + 8 * f(x_arr + hx, y_arr) - f(x_arr + 2 * hx, y_arr)) / (12 * hx)
            fy = (f(x_arr, y_arr - 2 * hy) - 8 * f(x_arr, y_arr - hy)
                  + 8 * f(x_arr, y_arr + hy) - f(x_arr, y_arr + 2 * hy)) / (12 * hy)
        return _scalar(fx, fy)

    def hessian(self, x, y):
        """(f_xx, f_xy, f_yy) by 4th-order central differences of ``gradient``.

        Steps are ``_HESSIAN_STEP_FACTOR * fd_step * max(1, |x|)`` (and |y|);
        f_xy averages the two mixed differences, so the result is symmetric.
        """
        x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        step = _HESSIAN_STEP_FACTOR * self.fd_step
        hx = step * np.maximum(1.0, np.abs(x_arr))
        hy = step * np.maximum(1.0, np.abs(y_arr))
        off = np.array([-2.0, -1.0, 1.0, 2.0]).reshape((4,) + (1,) * x_arr.ndim)
        w = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
        gx_x, gy_x = self.gradient(x_arr + off * hx, y_arr)
        gx_y, gy_y = self.gradient(x_arr, y_arr + off * hy)
        fxx = np.tensordot(w, gx_x, axes=1) / hx
        fyy = np.tensordot(w, gy_y, axes=1) / hy
        fxy = 0.5 * (np.tensordot(w, gy_x, axes=1) / hx + np.tensordot(w, gx_y, axes=1) / hy)
        return _scalar(fxx, fxy, fyy)

    def bounding_box(self) -> tuple[float, float, float, float]:
        return self.bbox


SurfaceSpec = SurfaceOfRevolution | GraphSurface


def flat_surface(height: float = 0.0) -> GraphSurface:
    """Horizontal plane z = height; its slope metric is the Euclidean norm."""
    return GraphSurface(
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), height),
        grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                           np.zeros_like(np.asarray(y, dtype=float))),
        kind="flat",
    )


_BUILTIN_FACTORIES = {
    "paraboloid": (paraboloid, ("h",)),
    "cone": (cone, ("a",)),
    "ellipsoid": (ellipsoid, ("a", "c")),
    "hyperboloid2": (two_sheet_hyperboloid, ("a", "b")),
    "hyperboloid1": (one_sheet_hyperboloid, ("a", "b")),
    "gaussian": (gaussian_bump, ()),
}


def surface_from_json(spec) -> SurfaceOfRevolution:
    """Build a surface of revolution from a JSON description.

    Accepts a dict, a JSON string, or a path to a JSON file with schema
    {"kind": "paraboloid|cone|ellipsoid|hyperboloid2|hyperboloid1|gaussian|custom",
     "params": {...}, "domain": [s_min, s_max]}.
    Custom profiles carry params["table"] = [[s, z], ...] with >= 64 rows.
    """
    if isinstance(spec, (str, Path)):
        text = str(spec)
        candidate = Path(text)
        try:
            is_file = candidate.is_file()
        except OSError:
            is_file = False
        if is_file:
            text = candidate.read_text()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"surface description is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("surface description must be a JSON object")
    kind = spec.get("kind")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    if kind == "custom":
        table = params.get("table")
        if table is None:
            raise ConfigError("custom surface needs params.table = [[s, z], ...]")
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError("params.table must be a list of [s, z] pairs")
        profile = profile_from_table(arr[:, 0], arr[:, 1])
    elif kind in _BUILTIN_FACTORIES:
        factory, names = _BUILTIN_FACTORIES[kind]
        unknown = set(params) - set(names)
        if unknown:
            raise ConfigError(f"unknown params for '{kind}': {sorted(unknown)}")
        try:
            profile = factory(**{k: float(v) for k, v in params.items()})
        except TypeError as exc:
            raise ConfigError(f"bad params for '{kind}': {exc}") from exc
    else:
        raise ConfigError(f"unknown surface kind {kind!r}")
    domain = spec.get("domain")
    if domain is not None:
        if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
            raise ConfigError("'domain' must be [s_min, s_max]")
        lo, hi = float(domain[0]), float(domain[1])
        base_lo, base_hi = profile.domain
        if lo < base_lo or hi > base_hi:
            raise ConfigError(
                f"requested domain [{lo}, {hi}) exceeds the natural domain [{base_lo}, {base_hi})"
            )
        profile = replace(profile, domain=(lo, hi))
    return SurfaceOfRevolution(profile)
