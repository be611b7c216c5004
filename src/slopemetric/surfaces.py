"""Profile curves and graph surfaces.

A surface of revolution is the graph z = phi(sqrt(x^2 + y^2)) of a radial
profile phi on a half-open interval [s_min, s_max); a general surface is a
graph z = f(x, y).  Both expose heights, gradients and Hessians, vectorized
over numpy arrays, from derivatives each carries in closed form.  A profile
can additionally be inverted where it is strictly monotone on its scan
window (``_scan_window``, nonnegative radii), giving the height
parametrization s = m(u) of the same generator.

Surfaces are immutable after construction and all operations are pure, so
one surface may be evaluated concurrently from any number of threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    "DEFAULT_SCAN_SMAX",
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
    "flat_surface",
    "surface_from_json",
]

# Unbounded profile domains are clipped to this radius (``_scan_window``).
DEFAULT_SCAN_SMAX = 100.0

# |phi'(0+)| below this counts as a smooth axis point (even extension).
_APEX_SLOPE_TOL = 1e-8

# Bisection tolerance for profile inversion, absolute in s.
_INVERT_TOL = 1e-12


@dataclass(frozen=True)
class ProfileCurve:
    """Radial generator phi of a surface of revolution.

    Attributes
    ----------
    kind : str
        Builtin tag ("paraboloid", "cone", ...) or "custom".
    phi : callable
        Vectorized map s -> z, called (by ``_read``) on a float array, or on
        a numpy scalar at one radius.
    dphi, d2phi : callable
        Vectorized closed-form first and second derivatives of phi, the only
        source of ``profile_derivative`` and ``profile_second_derivative``.
        The builtins write powers as ``np.power``: Python's ``**`` on a numpy
        scalar is libm's pow, which can differ from numpy's array power in
        the last bit, so one radius would not match a batch.
    domain : (float, float)
        Half-open interval [s_min, s_max), s_min >= 0; s_max may be inf.
        Restrict it with ``dataclasses.replace(p, domain=(lo, hi))``, as JSON "domain" does.
    params : dict
        Shape coefficients, kept for reporting and serialization.
    """

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.domain
        if not (0.0 <= lo < hi):
            raise ConfigError(f"invalid profile domain [{lo}, {hi})")


def paraboloid(h: float = 100.0) -> ProfileCurve:
    """phi(s) = h - s^2 on [0, inf) with hilltop height h > 0."""
    if h <= 0:
        raise ConfigError("paraboloid needs h > 0")
    return ProfileCurve(
        kind="paraboloid",
        phi=lambda s: h - np.square(s),
        dphi=lambda s: -2.0 * s,
        d2phi=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0),
        domain=(0.0, math.inf),
        params={"h": float(h)},
    )


def cone(a: float) -> ProfileCurve:
    """phi(s) = a*s on [0, inf), a > 0.  The axis point s=0 is a non-smooth apex."""
    if a <= 0:
        raise ConfigError("cone needs a > 0")
    return ProfileCurve(
        kind="cone",
        phi=lambda s: a * s,
        dphi=lambda s: np.full_like(np.asarray(s, dtype=float), a),
        d2phi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        domain=(0.0, math.inf),
        params={"a": float(a)},
    )


def ellipsoid(a: float, c: float) -> ProfileCurve:
    """phi(s) = (c/a)*sqrt(a^2 - s^2) on [0, a), semi-axes a, c > 0."""
    if a <= 0 or c <= 0:
        raise ConfigError("ellipsoid needs a > 0 and c > 0")
    return ProfileCurve(
        kind="ellipsoid",
        phi=lambda s: (c / a) * np.sqrt(a * a - np.square(s)),
        dphi=lambda s: -(c / a) * s / np.sqrt(a * a - np.square(s)),
        d2phi=lambda s: -(c * a) / np.power(a * a - np.square(s), 1.5),
        domain=(0.0, a),
        params={"a": float(a), "c": float(c)},
    )


def two_sheet_hyperboloid(a: float, b: float) -> ProfileCurve:
    """phi(s) = a*sqrt(s^2 + b^2) on [0, inf), a, b > 0 (upper sheet)."""
    if a <= 0 or b <= 0:
        raise ConfigError("two-sheet hyperboloid needs a > 0 and b > 0")
    return ProfileCurve(
        kind="hyperboloid2",
        phi=lambda s: a * np.sqrt(np.square(s) + b * b),
        dphi=lambda s: a * s / np.sqrt(np.square(s) + b * b),
        d2phi=lambda s: a * b * b / np.power(np.square(s) + b * b, 1.5),
        domain=(0.0, math.inf),
        params={"a": float(a), "b": float(b)},
    )


def one_sheet_hyperboloid(a: float, b: float) -> ProfileCurve:
    """phi(s) = a*sqrt(s^2 - b^2) on [|b|, inf), a, b > 0.

    phi itself is defined at the waist s = |b|, but the derivative diverges
    there, so differentiation requires s > |b|.
    """
    if a <= 0 or b <= 0:
        raise ConfigError("one-sheet hyperboloid needs a > 0 and b > 0")
    b = abs(b)
    return ProfileCurve(
        kind="hyperboloid1",
        phi=lambda s: a * np.sqrt(np.square(s) - b * b),
        dphi=lambda s: a * s / np.sqrt(np.square(s) - b * b),
        d2phi=lambda s: -a * b * b / np.power(np.square(s) - b * b, 1.5),
        domain=(b, math.inf),
        params={"a": float(a), "b": float(b)},
    )


def gaussian_bump() -> ProfileCurve:
    """phi(s) = exp(-s^2) / (2*sqrt(6)) on [0, inf), the bell-shaped bump."""
    amp = 1.0 / (2.0 * math.sqrt(6.0))
    return ProfileCurve(
        kind="gaussian",
        phi=lambda s: amp * np.exp(-np.square(s)),
        dphi=lambda s: -2.0 * amp * s * np.exp(-np.square(s)),
        d2phi=lambda s: amp * (4.0 * np.square(s) - 2.0) * np.exp(-np.square(s)),
        domain=(0.0, math.inf),
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
    dphi: Callable[[np.ndarray], np.ndarray],
    d2phi: Callable[[np.ndarray], np.ndarray],
) -> ProfileCurve:
    """Wrap vectorized callables phi, phi' and phi'' as a "custom" profile curve."""
    return ProfileCurve(kind="custom", phi=phi, dphi=dphi, d2phi=d2phi,
                        domain=(float(domain[0]), float(domain[1])))


def _scalar(*values):
    """Python floats for one point's values (floats, numpy scalars or 0-d arrays), else the arrays.

    The scalar-in, float-out rule of every public function: one value comes
    back bare, several (of one shape) as a tuple.  An ``isinstance`` test
    tells the two apart, without a numpy call.
    """
    if isinstance(values[0], np.ndarray) and values[0].ndim:
        return values[0] if len(values) == 1 else values
    return float(values[0]) if len(values) == 1 else tuple(map(float, values))


def _chart_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays of one shape, broadcast only when their shapes differ.

    One point comes back as two numpy scalars, without numpy's per-call cost
    on 0-d arrays; a closed form written in numpy functions gives them the
    bits and warnings it gives a batch (Python's ``**`` aside, see
    ``ProfileCurve``).  Only a one-point ``hessian`` and a graph surface's
    reads take one point through here: ``SurfaceOfRevolution.gradient``
    reads two floats without it.
    """
    x_arr, y_arr = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        x_arr, y_arr = np.broadcast_arrays(x_arr, y_arr)
    if not x_arr.ndim:
        return x_arr[()], y_arr[()]
    return x_arr, y_arr


def _check_in_domain(p: ProfileCurve, s):
    """Radii s as a float array, one radius as a numpy scalar, all inside p's domain.

    OutOfDomain names the first radius outside it.  One radius is compared
    as a float, with no array between.
    """
    lo, hi = p.domain
    if not isinstance(s, float):
        s = np.asarray(s, dtype=float)
        if s.ndim:
            # lo is finite, so NaN and -inf fail the first comparison and +inf the second
            inside = (s >= lo) & (s < hi)
            # np.count_nonzero costs a fraction of ndarray.all's reduction
            if np.count_nonzero(inside) == inside.size:
                return s
            raise OutOfDomain(f"s={float(s[~inside].flat[0])!r} outside profile domain [{lo}, {hi})")
        s = s[()]
    if lo <= s < hi:
        return np.float64(s)
    raise OutOfDomain(f"s={float(s)!r} outside profile domain [{lo}, {hi})")


def _require_finite(values, error, message: str, *coords) -> None:
    """Raise ``error`` where ``values`` is not finite; the first such point's ``coords``
    (broadcast with it) fill ``message``'s ``{!r}`` as floats, one bare and several as a tuple."""
    finite = np.isfinite(values)
    if finite if finite.ndim == 0 else np.count_nonzero(finite) == finite.size:
        return
    values, *coords = np.broadcast_arrays(values, *coords)
    bad = ~np.isfinite(values)
    where = tuple(float(c[bad].flat[0]) for c in coords)
    raise error(message.format(where[0] if len(where) == 1 else where))


def _check_finite_point(x, y) -> None:
    """Raise OutOfDomain where a chart point has a NaN or infinite coordinate, as radii do."""
    _require_finite(np.maximum(np.abs(x), np.abs(y)), OutOfDomain, "point {!r} is not finite", x, y)


# np.errstate as a decorator costs half of its ``with`` form
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _read(fn, error, message: str, *at):
    """fn(*at), the one read of every closed form a surface carries (phi, f and their derivatives).

    ``at`` is the radii, or x and y, as arrays of one shape or one point's numpy
    scalars.  A constant spreads over that shape, a tuple or list (``grad``,
    ``hess``) is read entry by entry, and a value not finite raises ``error``
    with ``message`` naming the first such point.  One point gives Python
    floats, each ``float()`` of fn's value and checked by ``math.isfinite``,
    with no array between.
    """
    values = fn(*at)
    single = not isinstance(values, (tuple, list))
    if not at[0].ndim:
        read = float(values) if single else tuple(map(float, values))
        if math.isfinite(read) if single else all(map(math.isfinite, read)):
            return read
        _require_finite(read, error, message, *at)
    shape = at[0].shape
    read = []
    for v in (values,) if single else values:
        v = np.asarray(v, dtype=float)
        if v.shape != shape:
            v = np.full(shape, v)
        if np.count_nonzero(np.isfinite(v)) < v.size:
            _require_finite(v, error, message, *at)
        read.append(v)
    return read[0] if single else tuple(read)


def eval_profile(p: ProfileCurve, s):
    """Profile height phi(s), read by ``_read``.  Scalar in, float out; array in, array out.

    Raises OutOfDomain outside the domain and where phi is not finite, naming the radius.
    """
    s_arr = _check_in_domain(p, s)
    return _read(p.phi, OutOfDomain, "profile evaluated non-finite at s={!r}", s_arr)


def _check_waist(p: ProfileCurve, s_arr) -> None:
    """After a closed form failed at s_arr: OutOfDomain where s_arr holds a positive inner edge (a waist)."""
    lo = p.domain[0]
    if lo > 0.0 and np.any(s_arr == lo):
        raise OutOfDomain(f"derivative undefined at the domain edge s={lo}") from None


def profile_derivative(p: ProfileCurve, s):
    """dphi/ds from the profile's closed form ``dphi``, read by ``_read``.

    Raises OutOfDomain outside the domain and at a waist, NonDifferentiable
    where the closed form is not finite.
    """
    s_arr = _check_in_domain(p, s)  # one radius runs on a numpy scalar, not a 0-d array
    try:
        return _read(p.dphi, NonDifferentiable, "closed-form derivative non-finite at s={!r}", s_arr)
    except NonDifferentiable:
        _check_waist(p, s_arr)
        raise


def profile_second_derivative(p: ProfileCurve, s):
    """d^2phi/ds^2 from the profile's closed form ``d2phi``; errors as ``profile_derivative``'s."""
    s_arr = _check_in_domain(p, s)
    try:
        return _read(p.d2phi, NonDifferentiable, "closed-form derivative non-finite at s={!r}", s_arr)
    except NonDifferentiable:
        _check_waist(p, s_arr)
        raise


def _scan_window(p: ProfileCurve, s_max: float | None = None) -> tuple[float, float]:
    """The finite window [lo, hi] of radii on which p is scanned, sampled and inverted.

    p's domain clipped at ``s_max`` (default ``DEFAULT_SCAN_SMAX``; ValueError
    at or below the inner edge), a finite outer edge pulled in by max(1e-12,
    1e-9 of the width) and an inner edge where phi' fails (a waist) pushed
    out by 1e-9 of the width.  Raises OutOfDomain when nothing is left.
    """
    lo, hi = p.domain
    if s_max is not None and not s_max > lo:
        raise ValueError(f"s_max {s_max} must exceed the profile's inner edge {lo}")
    hi_eff = min(hi, DEFAULT_SCAN_SMAX if s_max is None else s_max)
    if math.isfinite(hi) and hi_eff >= hi:
        hi_eff = hi - max(1e-12, (hi - lo) * 1e-9)
    if not hi_eff > lo:
        raise OutOfDomain(f"empty scan range [{lo}, {hi_eff}]")
    try:
        profile_derivative(p, lo)
    except (OutOfDomain, NonDifferentiable):
        return lo + (hi_eff - lo) * 1e-9, hi_eff
    return lo, hi_eff


@dataclass(frozen=True)
class TrigProfile:
    """Height parametrization s = m(u) of a profile, on one monotone branch.

    m inverts phi: m(phi(s)) = s on the branch, and m'(u) = 1/phi'(m(u))
    wherever phi' does not vanish.  The branch is ``_scan_window``'s radii
    less any numerically flat head or tail; a profile that is not strictly
    monotone there raises NotInvertible.
    """

    profile: ProfileCurve
    s_range: tuple[float, float]
    u_range: tuple[float, float]
    increasing: bool

    @classmethod
    def from_profile(cls, p: ProfileCurve) -> "TrigProfile":
        """The branch of p from phi at 257 radii of ``_scan_window``, read by ``eval_profile``.

        A constant phi is NotInvertible, a non-finite one OutOfDomain naming the radius.
        """
        grid = np.linspace(*_scan_window(p), 257)  # strict monotonicity scan, 256 panels
        vals = eval_profile(p, grid)
        diffs = np.diff(vals)
        # trim numerically flat head/tail (e.g. an underflowed far tail)
        nz = np.flatnonzero(diffs)
        if nz.size == 0:
            raise NotInvertible(f"profile '{p.kind}' is numerically constant on [{grid[0]}, {grid[-1]}]")
        first, last = nz[0], nz[-1] + 1
        s_lo, s_hi = float(grid[first]), float(grid[last])
        increasing = bool(diffs[first] > 0)
        if not np.all(diffs[first:last] > 0 if increasing else diffs[first:last] < 0):
            raise NotInvertible(f"profile '{p.kind}' is not strictly monotone on [{s_lo}, {s_hi}]")
        u_lo, u_hi = sorted((float(vals[first]), float(vals[last])))
        return cls(profile=p, s_range=(s_lo, s_hi), u_range=(u_lo, u_hi), increasing=increasing)

    def m(self, u):
        """Radius m(u) with phi(m(u)) = u, bisected to 1e-12 absolute in s."""
        u_arr = np.asarray(u, dtype=float)
        u_lo, u_hi = self.u_range
        outside = (u_arr < u_lo) | (u_arr > u_hi) | ~np.isfinite(u_arr)
        if np.any(outside):
            worst = float(u_arr[outside].flat[0])
            raise OutOfRange(f"height u={worst!r} outside profile range [{u_lo}, {u_hi}]")
        s_lo, s_hi = self.s_range
        shape = u_arr.shape
        u_flat = np.atleast_1d(u_arr).ravel()
        a = np.full_like(u_flat, s_lo)
        b = np.full_like(u_flat, s_hi)
        n_iter = max(1, int(math.ceil(math.log2(max((s_hi - s_lo) / _INVERT_TOL, 1.0)))))
        for _ in range(n_iter):
            mid = 0.5 * (a + b)
            # every midpoint lies in the branch's checked window: no domain test
            phi = _read(self.profile.phi, OutOfDomain, "profile evaluated non-finite at s={!r}", mid)
            # the root is left of mid where phi(mid) is past u along the branch
            go_left = phi >= u_flat if self.increasing else phi <= u_flat
            b = np.where(go_left, mid, b)
            a = np.where(go_left, a, mid)
        out = 0.5 * (a + b)
        # snap exact endpoint hits
        out = np.where(u_flat == eval_profile(self.profile, s_lo), s_lo, out)
        out = np.where(u_flat == eval_profile(self.profile, s_hi), s_hi, out)
        return _scalar(out.reshape(shape))

    def m_prime(self, u):
        """dm/du = 1 / phi'(m(u)); +-inf where the profile slope vanishes."""
        s = self.m(u)
        d = profile_derivative(self.profile, s)
        with np.errstate(divide="ignore"):
            out = np.where(np.asarray(d) == 0.0, np.inf, 1.0 / np.asarray(d, dtype=float))
        return _scalar(out)


@dataclass(frozen=True)
class SurfaceOfRevolution:
    """Graph surface z = phi(sqrt(x^2 + y^2)) built from a profile curve."""

    profile: ProfileCurve

    @property
    def kind(self) -> str:
        return self.profile.kind

    @cached_property
    def apex_smooth(self) -> bool:
        """True when the axis point is smooth: 0 in the domain and phi'(0+) = 0.

        It depends only on the profile, so it is evaluated once per surface.
        """
        lo, _ = self.profile.domain
        if lo != 0.0:
            return False
        try:
            d0 = profile_derivative(self.profile, 0.0)
        except (OutOfDomain, NonDifferentiable):
            return False
        return abs(d0) <= _APEX_SLOPE_TOL

    def height(self, x, y):
        return eval_profile(self.profile, np.hypot(x, y))

    def gradient(self, x, y):
        """(f_x, f_y) = phi'(s) * (x/s, y/s) with s = sqrt(x^2 + y^2).

        At s = 0 the gradient is (0, 0) when the axis is smooth and raises
        ApexSingularity otherwise.
        """
        if not (isinstance(x, float) and isinstance(y, float)):
            x, y = _chart_arrays(x, y)
            if x.ndim:
                return self._jet(x, y)[:2]
        # one point: the closed form reads np.hypot's numpy scalar, as it reads
        # a batch's element, and the rest is float arithmetic in the batch's order
        s = np.hypot(x, y)
        if s == 0.0:  # NaN is nonzero, and profile_derivative raises on it
            d, r = self._axis_slope(), 1.0
        else:
            d, r = profile_derivative(self.profile, s), float(s)
        return d * float(x) / r, d * float(y) / r

    def hessian(self, x, y):
        """(f_xx, f_xy, f_yy) of phi''(s) u u^T + (phi'(s)/s) (I - u u^T), u = (x, y)/s.

        On a smooth axis the Hessian is phi''(0) I; at a non-smooth axis point
        it raises ApexSingularity, as ``gradient`` does.
        """
        return _scalar(*self._jet(*_chart_arrays(x, y))[2]())

    def _axis_slope(self) -> float:
        """phi' on the axis, 0.0 where the axis is smooth; ApexSingularity elsewhere."""
        if not self.apex_smooth:
            raise ApexSingularity(f"gradient undefined on the axis of a '{self.kind}' surface")
        return 0.0

    def _jet(self, x: np.ndarray, y: np.ndarray):
        """Gradient now, Hessian on demand, from one hypot and one phi' evaluation.

        x and y are float arrays of one shape, or two numpy scalars for
        ``hessian``'s one point.  Returns (f_x, f_y, hessian_at).
        ``hessian_at(rows)`` gives (f_xx, f_xy, f_yy) at the points a boolean
        mask selects (all by default) with one phi'' evaluation, reusing s and
        phi', so a caller that drops points after seeing the gradient never
        differentiates twice there.
        """
        s = np.hypot(x, y)
        # one reduction finds any axis point; NaN counts as nonzero
        axis = np.count_nonzero(s) < s.size
        if axis:
            self._axis_slope()  # ApexSingularity unless the axis is smooth
            on_axis = s == 0.0
            s_safe = np.where(on_axis, 1.0, s)
            d = np.where(on_axis, 0.0, profile_derivative(self.profile, s))
        else:
            s_safe = s
            d = profile_derivative(self.profile, s)
        fx = d * x / s_safe
        fy = d * y / s_safe

        def hessian_at(rows=None):
            s_r, safe, d_r, x_r, y_r = s, s_safe, d, x, y
            if rows is not None:
                s_r, safe, d_r, x_r, y_r = (a.compress(rows) for a in (s, s_safe, d, x, y))
            # s_r is a subset of the radii profile_derivative just read: no waist
            d2 = _read(self.profile.d2phi, NonDifferentiable,
                       "closed-form derivative non-finite at s={!r}", s_r)
            radial = d_r / safe
            if axis:
                radial = np.where(s_r == 0.0, d2, radial)
            ux, uy = x_r / safe, y_r / safe
            bend = d2 - radial
            return radial + bend * ux * ux, bend * ux * uy, radial + bend * uy * uy

        return fx, fy, hessian_at

    def bounding_box(self) -> tuple[float, float, float, float]:
        lo, hi = self.profile.domain
        r = min(hi, DEFAULT_SCAN_SMAX)
        if math.isfinite(hi):
            r = r * (1 - 1e-12)
        return (-r, r, -r, r)


@dataclass(frozen=True)
class GraphSurface:
    """General graph surface z = f(x, y) with closed-form derivatives.

    ``grad(x, y)`` returns (f_x, f_y) and ``hess(x, y)`` returns (f_xx, f_xy,
    f_yy); all three are vectorized and read as a profile's phi is (``_read``):
    a constant spreads over the points, a non-finite value raises naming one.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple]
    hess: Callable[[np.ndarray, np.ndarray], tuple]
    bbox: tuple[float, float, float, float] = (-10.0, 10.0, -10.0, 10.0)
    kind: str = "graph"

    def height(self, x, y):
        """f(x, y); OutOfDomain at a non-finite point or where f is not finite, as ``eval_profile``."""
        x_arr, y_arr = _chart_arrays(x, y)
        _check_finite_point(x_arr, y_arr)
        return _read(self.f, OutOfDomain, "surface evaluated non-finite at {!r}", x_arr, y_arr)

    def gradient(self, x, y):
        fx, fy, _ = self._jet(*_chart_arrays(x, y))
        return _scalar(fx, fy)

    def hessian(self, x, y):
        """(f_xx, f_xy, f_yy) from the supplied ``hess``."""
        return _scalar(*self._jet(*_chart_arrays(x, y))[2]())

    def _jet(self, x, y):
        """``gradient`` now and ``hessian`` on demand: (f_x, f_y, hessian_at(rows)).

        x and y are float arrays of one shape, or one point's numpy scalars.
        ``hessian_at(rows)`` reads ``hess`` at the points a boolean mask
        selects (all by default).  A NaN or infinite point raises OutOfDomain,
        a non-finite derivative NonDifferentiable.
        """
        _check_finite_point(x, y)
        fx, fy = _read(self.grad, NonDifferentiable, "closed-form derivative non-finite at {!r}", x, y)

        def hessian_at(rows=None):
            x_r, y_r = (x, y) if rows is None else (x.compress(rows), y.compress(rows))
            return _read(self.hess, NonDifferentiable, "closed-form derivative non-finite at {!r}", x_r, y_r)

        return fx, fy, hessian_at

    def bounding_box(self) -> tuple[float, float, float, float]:
        return self.bbox


SurfaceSpec = SurfaceOfRevolution | GraphSurface


def flat_surface() -> GraphSurface:
    """Horizontal plane z = 0; its slope metric, as any level plane's, is the Euclidean norm."""
    return GraphSurface(
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        grad=lambda x, y: (0.0, 0.0),
        hess=lambda x, y: (0.0, 0.0, 0.0),
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
