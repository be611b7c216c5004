"""The slope metric F = alpha^2 / (v*alpha - w*beta) and its fundamental tensor.

alpha is the length a tangent vector inherits from the ambient space through
the graph embedding, beta = f_x*xdot + f_y*ydot is the climb rate, v is the
flat-ground speed and w the slope coefficient (half the gravitational pull).
Normalized mode v = w = 1 gives the classical form alpha^2 / (alpha - beta).

alpha, beta, F, the indicatrix function and the geodesic spray see the point
only through beta = df: ``_parts``, the one kernel that builds beta and
alpha^2 = |tv|^2 + beta^2, takes gradient values and direction components, so
each caller reads the surface once, and the same kernel serves batches of
arrays and a pair of Python floats.  alpha^2 is the quadratic form of the
induced metric a_ij = delta_ij + f_i f_j (``induced_metric``); a_ij and the
fundamental tensor g_ij (``fundamental_tensor``) share one type,
``SymmetricForm``.

Directions are array-likes with a trailing axis of length 2 and may be
batched: every operation broadcasts over leading axes of the direction and
of the chart coordinates.  Every public entry checks its direction the same
way: an exact zero raises ZeroVector, a NaN or infinite component
DirectionOverflow.  Any other direction gets its value by homogeneity from an
exact power-of-two prescale (``_direction``), so its size decides nothing;
DirectionOverflow otherwise means that the value is not a finite double.
All functions are pure; nothing here mutates shared state, so grid sweeps
may fan out across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DirectionOverflow, NoRoot, ZeroVector
from .surfaces import SurfaceSpec, _scalar

__all__ = [
    "NavigationParams",
    "NORMALIZED",
    "SymmetricForm",
    "induced_metric",
    "alpha",
    "beta",
    "slope_metric_F",
    "limacon_h",
    "okubo_solve",
    "fundamental_tensor",
    "hessian_field",
]


@dataclass(frozen=True)
class NavigationParams:
    """Flat-ground speed v > 0 and slope coefficient w = g/2 >= 0.

    The incline angle enters only through beta, so it has no field here.
    """

    v: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError("flat-ground speed v must be positive")
        if self.w < 0:
            raise ValueError("slope coefficient w must be nonnegative")


NORMALIZED = NavigationParams()


@dataclass(frozen=True)
class SymmetricForm:
    """Symmetric 2x2 form [[m11, m12], [m12, m22]]: the induced metric a_ij or the tensor g_ij.

    Entries are floats at one chart point and arrays over a batch; each
    method gives floats or arrays to match.
    """

    m11: float
    m12: float
    m22: float

    @property
    def trace(self):
        return self.m11 + self.m22

    @property
    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m12

    def eigenvalues(self):
        """(smaller, larger) eigenvalue."""
        mean = 0.5 * self.trace
        disc = np.sqrt(np.maximum(mean * mean - self.det, 0.0))
        return _scalar(mean - disc, mean + disc)

    def inner(self, u, t):
        """Bilinear form m_ij u^i t^j; u and t follow the metric entries' direction rule."""
        ux, uy, eu = _direction(u)
        tx, ty, et = _direction(t)
        value = self.m11 * ux * tx + self.m12 * (ux * ty + uy * tx) + self.m22 * uy * ty
        return _scalar(_times_pow2(value, eu + et))

    def quad(self, tv):
        """Quadratic form m_ij tv^i tv^j."""
        return self.inner(tv, tv)


def _split(tv):
    """The components of directions (..., 2); two Python floats, not 0-d arrays, for one (2,)."""
    arr = np.asarray(tv, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("a tangent direction needs exactly 2 components on the last axis")
    if arr.ndim == 1:
        return arr.tolist()
    return arr[..., 0], arr[..., 1]


def _direction(tv):
    """Checked components of directions (..., 2) times 2**-e, and e: 2**(e-1) <= max |d_i| < 2**e.

    No square of them over- or underflows.  One direction gives Python floats and an int.
    """
    dx, dy = _split(tv)
    if isinstance(dx, float):
        return _one_direction(dx, dy)
    big = np.maximum(np.abs(dx), np.abs(dy))  # NaN where either component is NaN
    if np.count_nonzero(np.isfinite(big)) < big.size:
        raise DirectionOverflow("direction must be finite")
    if np.count_nonzero(big) < big.size:
        raise ZeroVector("direction must be nonzero")
    e = np.frexp(big)[1]
    return np.ldexp(dx, -e), np.ldexp(dy, -e), e


def _one_direction(dx: float, dy: float):
    """``_direction`` of one direction, from its two components as Python floats."""
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise DirectionOverflow("direction must be finite")
    if dx == 0.0 and dy == 0.0:
        raise ZeroVector("direction must be nonzero")
    e = math.frexp(max(abs(dx), abs(dy)))[1]
    return math.ldexp(dx, -e), math.ldexp(dy, -e), e


def _times_pow2(value, e):
    """value * 2**e, exactly; DirectionOverflow where that is not a finite double."""
    if isinstance(value, np.ndarray):
        with np.errstate(over="ignore"):
            value = np.ldexp(value, e)
        if np.count_nonzero(np.isfinite(value)) == value.size:
            return value
    else:
        try:
            value = math.ldexp(value, e)
        except OverflowError:  # where np.ldexp returns inf
            value = math.inf
        if math.isfinite(value):
            return value
    raise DirectionOverflow("the value at this direction is not a finite double")


def induced_metric(surf: SurfaceSpec, x, y) -> SymmetricForm:
    """Metric a_ij the chart inherits from the embedding: [[1+f_x^2, f_x f_y], [., 1+f_y^2]]."""
    fx, fy = surf.gradient(x, y)
    return SymmetricForm(1.0 + fx * fx, fx * fy, 1.0 + fy * fy)


def alpha(surf: SurfaceSpec, x, y, tv):
    """Length sqrt(|tv|^2 + beta^2) = sqrt(a_ij tv^i tv^j) of a chart direction; 1-homogeneous."""
    fx, fy = surf.gradient(x, y)
    vx, vy, e = _direction(tv)
    return _scalar(_times_pow2(np.sqrt(_parts(fx, fy, vx, vy)[2]), e))


def beta(surf: SurfaceSpec, x, y, tv):
    """Climb rate f_x*xdot + f_y*ydot of a chart direction; linear in tv."""
    fx, fy = surf.gradient(x, y)
    vx, vy, e = _direction(tv)
    return _scalar(_times_pow2(_parts(fx, fy, vx, vy)[1], e))


def _parts(fx, fy, vx, vy):
    """|tv|^2, climb rate b = fx*vx + fy*vy and alpha^2 = |tv|^2 + b^2, broadcast."""
    b = fx * vx + fy * vy
    n2 = vx * vx + vy * vy
    return n2, b, n2 + b * b


def _limacon(fx, fy, vx, vy, nav: NavigationParams):
    """alpha^2 - v*alpha + w*beta, the indicatrix function at gradient values."""
    _, b, a2 = _parts(fx, fy, vx, vy)
    # one value takes math.sqrt: correctly rounded as np.sqrt is, and a2 >= 0
    return a2 - nav.v * (math.sqrt(a2) if isinstance(a2, float) else np.sqrt(a2)) + nav.w * b


def _denominator(n2, b, a2, nav: NavigationParams):
    """v*alpha - w*beta, evaluated cancellation-free on the uphill side.

    For b > 0, v*alpha - w*b = (v^2*n2 + (v^2-w^2)*b^2) / (v*alpha + w*b),
    which stays fully accurate when w*b approaches v*alpha.
    """
    v, w = nav.v, nav.w
    one = isinstance(a2, float)
    al = math.sqrt(a2) if one else np.sqrt(a2)
    uphill = b > 0
    num = v * v * n2 + (v * v - w * w) * b * b
    va, wb = v * al, w * b
    if one:
        # one value: math.sqrt as in _limacon, and only the branch it takes
        return (num / (va + wb) if uphill else va - wb), al
    safe = np.where(uphill, va + wb, 1.0)
    return np.where(uphill, num / safe, va - wb), al


def _quotient(n2, b, a2, nav: NavigationParams):
    """(F, alpha) from the values of ``_parts``: F = alpha^2 / (v*alpha - w*beta), NaN
    where v*alpha - w*beta <= 0; floats for one value, else arrays."""
    denom, al = _denominator(n2, b, a2, nav)
    if not isinstance(denom, np.ndarray):
        return a2 / (denom if denom > 0.0 else np.nan), al
    return a2 / np.where(denom > 0.0, denom, np.nan), al


def slope_metric_F(surf: SurfaceSpec, x, y, tv, nav: NavigationParams = NORMALIZED):
    """Travel-time norm alpha^2 / (v*alpha - w*beta) of a chart direction.

    Positive and 1-homogeneous in tv wherever v*alpha - w*beta > 0; on graph
    surfaces in normalized mode that holds for every nonzero tv because
    |beta| < alpha always.  Raises ZeroVector / DirectionOverflow (see the
    module docstring) / DegenerateDenominator.
    """
    return _scalar(_F(*surf.gradient(x, y), tv, nav))


def _F(fx, fy, tv, nav: NavigationParams):
    """``slope_metric_F`` at gradient values, with its errors."""
    vx, vy, e = _direction(tv)
    F = _quotient(*_parts(fx, fy, vx, vy), nav)[0]
    try:
        return _times_pow2(F, e)
    except DirectionOverflow:
        # only a failed scale-back looks for the NaN of a degenerate
        # denominator; one F is a float, and only NaN differs from itself
        if F != F if isinstance(F, float) else np.count_nonzero(np.isnan(F)):
            raise DegenerateDenominator(
                "v*alpha - w*beta <= 0: slope term overwhelms the base speed") from None
        raise


def limacon_h(surf: SurfaceSpec, x, y, tv, nav: NavigationParams = NORMALIZED):
    """Implicit indicatrix function; zero exactly on the unit curve of F.

    h(tv) = |tv|^2 + beta^2 - v*sqrt(|tv|^2 + beta^2) + w*beta, i.e.
    alpha^2 - v*alpha + w*beta.  Scaling any direction by 1/F lands on the
    zero set, which in the steepest-descent frame is the limacon
    r = v + w*sin(incline)*cos(theta).  h is not homogeneous: it is evaluated
    on tv itself, after the direction check.
    """
    fx, fy = surf.gradient(x, y)
    _direction(tv)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _limacon(fx, fy, *_split(tv), nav)
    return _scalar(_times_pow2(h, 0))  # DirectionOverflow where h is not a finite double


def okubo_solve(surf: SurfaceSpec, x, y, direction, nav: NavigationParams = NORMALIZED) -> float:
    """The unique F > 0 with h(direction/F) = 0, found by root-solving, at one point and direction.

    At most 60 Newton iterations on lam = 1/F, with the analytic dh/dlam,
    then a bisection fallback on [1e-12, 1e6]; converged when
    |h| <= 1e-12 * (1 + |direction|^2).  This route never
    touches the closed-form quotient, so it independently cross-checks
    ``slope_metric_F``.  Reads the surface once; raises NoRoot exactly where
    the quotient's denominator test raises DegenerateDenominator, and
    ZeroVector and DirectionOverflow where it raises them.

    Both loops run on Python floats, from the one-point surface read's
    floats, and call ``_limacon`` (the one implementation of h) directly.
    h(lam) stays the limacon evaluated at lam * direction through alpha,
    beta and alpha^2, and is deliberately not collapsed to the quadratic
    lam^2*alpha^2 - lam*(v*alpha - w*beta): that quadratic's root is the
    closed-form quotient itself, and the check would stop being independent.
    dh/dlam is summed as (2*lam*alpha^2 - v*alpha) + w*beta, with v*alpha and
    w*beta formed once; another grouping moves the root's last bits.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,):
        raise ValueError("okubo_solve expects a single direction of shape (2,)")
    fx, fy = surf.gradient(x, y)
    if not isinstance(fx, float):
        raise ValueError("okubo_solve expects one chart point")
    # d is already a float array: its two floats skip ``_direction``'s second asarray
    dx, dy, e = _one_direction(*d.tolist())
    # solve for the unit-Euclid direction; the root scales by 1-homogeneity.  The BLAS
    # dot is np.linalg.norm's sum of squares, not always dx*dx + dy*dy to the last bit
    d = np.array((dx, dy))
    scale = math.sqrt(d.dot(d))
    ux, uy = dx / scale, dy / scale
    n2, b, a2 = _parts(fx, fy, ux, uy)
    if _denominator(n2, b, a2, nav)[0] <= 0.0:
        raise NoRoot("degenerate denominator: no positive root of the indicatrix equation")

    # h(lam) = lam^2*alpha^2 - v*lam*alpha + w*lam*beta along the unit direction
    al = math.sqrt(a2)
    v_al, w_b = nav.v * al, nav.w * b
    # |h| threshold alone under-resolves lam where F/alpha is large (steep
    # uphill, nearly degenerate denominator), so Newton also runs until the
    # update stalls; the relative-agreement contract is 1e-9.
    tol = 1e-12 * (1.0 + n2)

    lam = 1.0 / al
    for _ in range(60):
        fl = _limacon(fx, fy, lam * ux, lam * uy, nav)
        fp = 2.0 * lam * a2 - v_al + w_b
        if not math.isfinite(fp) or fp == 0.0:
            break
        step_nwt = fl / fp
        nxt = lam - step_nwt
        if not (0.0 < nxt <= 1e7) or not math.isfinite(nxt):
            break
        lam = nxt
        if abs(fl) <= tol and abs(step_nwt) <= 1e-13 * lam:
            return _times_pow2(scale / lam, e)

    lo, hi = 1e-12, 1e6
    if not (_limacon(fx, fy, lo * ux, lo * uy, nav) < 0.0 < _limacon(fx, fy, hi * ux, hi * uy, nav)):
        raise NoRoot("indicatrix equation has no bracketed positive root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _limacon(fx, fy, mid * ux, mid * uy, nav)
        if (hi - lo) <= 1e-14 * mid and abs(fm) <= tol:
            return _times_pow2(scale / mid, e)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return _times_pow2(2.0 * scale / (lo + hi), e)


def _tensor(fx, fy, tv, nav: NavigationParams):
    """g_ij at gradient values in closed form; raises what ``_F`` raises on tv.

    Chern & Shen (*Riemann-Finsler Geometry*, 2005) for F = alpha*phi(s), s = beta/alpha:
    g_ij = rho a_ij + rho0 f_i f_j + rho1 (f_i alpha_j + alpha_i f_j) + rho2 alpha_i alpha_j,
    alpha_i = (y_i + f_i beta)/alpha, rho = phi (phi - s phi'), rho0 = phi phi'' + phi'^2,
    rho1 = phi phi' - s rho0, rho2 = -s rho1.  phi = alpha/(v alpha - w beta) comes from
    F's cancellation-free denominator; phi' = w phi^2, phi'' = 2 w^2 phi^3, so rho0 = 3 phi'^2.
    """
    vx, vy, _ = _direction(tv)
    n2, b, a2 = _parts(fx, fy, vx, vy)
    denom, al = _denominator(n2, b, a2, nav)
    if not np.all(denom > 0.0):
        raise DegenerateDenominator("v*alpha - w*beta <= 0: slope term overwhelms the base speed")
    phi, s = al / denom, b / al
    dphi = nav.w * phi * phi
    rho, rho0 = phi * (phi - s * dphi), 3.0 * dphi * dphi
    rho1 = phi * dphi - s * rho0
    rho2 = -s * rho1
    ax, ay = (vx + fx * b) / al, (vy + fy * b) / al
    g11 = rho * (1.0 + fx * fx) + rho0 * fx * fx + 2.0 * rho1 * fx * ax + rho2 * ax * ax
    g12 = (rho + rho0) * fx * fy + rho1 * (fx * ay + ax * fy) + rho2 * ax * ay
    g22 = rho * (1.0 + fy * fy) + rho0 * fy * fy + 2.0 * rho1 * fy * ay + rho2 * ay * ay
    return g11, g12, g22


def hessian_field(surf: SurfaceSpec, x, y, dirs, nav: NavigationParams = NORMALIZED):
    """g_ij for a batch of directions, shape (n, 2) -> three (n,) arrays.

    x, y may be scalars (one chart point for the whole fan) or (n,) arrays pairing
    each direction with its own point.  ``fundamental_tensor``'s closed form and errors.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    return _tensor(*surf.gradient(x, y), dirs, nav)


def fundamental_tensor(surf: SurfaceSpec, x, y, tv,
                       nav: NavigationParams = NORMALIZED) -> SymmetricForm:
    """Half the direction-Hessian of F^2 at (point, direction), in Chern & Shen's closed form.

    Symmetric, 0-homogeneous in tv, g_ij tv^i tv^j = F^2 up to rounding, and
    positive definite exactly where F is strongly convex.  Raises what ``slope_metric_F`` does.
    """
    tv = np.asarray(tv, dtype=float)
    if tv.shape != (2,):
        raise ValueError("fundamental_tensor expects a single direction of shape (2,)")
    g11, g12, g22 = _tensor(*surf.gradient(x, y), tv, nav)
    return SymmetricForm(float(g11), float(g12), float(g22))
