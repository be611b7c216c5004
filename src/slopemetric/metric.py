"""The slope metric F = alpha^2 / (v*alpha - w*beta) and its fundamental tensor.

alpha is the length a tangent vector inherits from the ambient space through
the graph embedding, beta = f_x*xdot + f_y*ydot is the climb rate, v is the
flat-ground speed and w the slope coefficient (half the gravitational pull).
Normalized mode v = w = 1 gives the classical form alpha^2 / (alpha - beta).

F, the indicatrix function and the geodesic spray see the point only through
beta = df: ``_parts``, the one kernel that builds beta and alpha^2 = |tv|^2 +
beta^2, takes gradient values, so each caller reads the surface once.

Directions are array-likes with a trailing axis of length 2 and may be
batched: every operation broadcasts over leading axes of the direction and
of the chart coordinates.  All functions are pure; nothing here mutates
shared state, so grid sweeps may fan out across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    NoRoot,
    StencilOutOfCone,
    ZeroVector,
)
from .surfaces import SurfaceSpec, _scalar

__all__ = [
    "NavigationParams",
    "NORMALIZED",
    "RiemannMetric2",
    "FundamentalTensor",
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
class RiemannMetric2:
    """Symmetric 2x2 metric a_ij at a point of the surface chart."""

    a11: float
    a12: float
    a22: float

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def quad(self, tv) -> float:
        """Quadratic form a_ij tv^i tv^j."""
        vx, vy = _split(tv)
        return _scalar(self.a11 * vx * vx + 2.0 * self.a12 * vx * vy + self.a22 * vy * vy)

    def inner(self, u, t) -> float:
        ux, uy = _split(u)
        tx, ty = _split(t)
        return _scalar(self.a11 * ux * tx + self.a12 * (ux * ty + uy * tx) + self.a22 * uy * ty)


@dataclass(frozen=True)
class FundamentalTensor:
    """Direction-dependent metric g_ij, half the direction-Hessian of F^2."""

    g11: float
    g12: float
    g22: float

    @property
    def trace(self) -> float:
        return self.g11 + self.g22

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 * self.g12

    def eigenvalues(self) -> tuple[float, float]:
        mean = 0.5 * self.trace
        disc = math.sqrt(max(mean * mean - self.det, 0.0))
        return (mean - disc, mean + disc)

    def quad(self, tv) -> float:
        vx, vy = _split(tv)
        return _scalar(self.g11 * vx * vx + 2.0 * self.g12 * vx * vy + self.g22 * vy * vy)

    def is_positive_definite(self, band: float = 1e-7) -> bool | None:
        """True / False, or None when trace or det sits inside the +-band."""
        if self.trace > band and self.det > band:
            return True
        if self.trace < -band or self.det < -band:
            return False
        return None


def _split(tv) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(tv, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("a tangent direction needs exactly 2 components on the last axis")
    return arr[..., 0], arr[..., 1]


def _require_nonzero(vx, vy):
    if np.any((vx == 0.0) & (vy == 0.0)):
        raise ZeroVector("direction must be nonzero")


def induced_metric(surf: SurfaceSpec, x, y) -> RiemannMetric2:
    """Metric the chart inherits from the embedding: [[1+f_x^2, f_x f_y], [., 1+f_y^2]]."""
    fx, fy = surf.gradient(x, y)
    return RiemannMetric2(a11=1.0 + fx * fx, a12=fx * fy, a22=1.0 + fy * fy)


def alpha(a: RiemannMetric2, tv):
    """Riemannian length sqrt(a_ij tv^i tv^j); 1-homogeneous and positive."""
    vx, vy = _split(tv)
    _require_nonzero(vx, vy)
    return _scalar(np.sqrt(a.quad(tv)))


def beta(surf: SurfaceSpec, x, y, tv):
    """Climb rate f_x*xdot + f_y*ydot of a chart direction; linear in tv."""
    _, b, _ = _parts(*surf.gradient(x, y), tv)
    return _scalar(b)


def _parts(fx, fy, tv):
    """|tv|^2, climb rate b = fx*xdot + fy*ydot and alpha^2 = |tv|^2 + b^2, broadcast."""
    vx, vy = _split(tv)
    b = np.asarray(fx) * vx + np.asarray(fy) * vy
    n2 = vx * vx + vy * vy
    return n2, b, n2 + b * b


def _limacon(fx, fy, tv, nav: NavigationParams):
    """alpha^2 - v*alpha + w*beta, the indicatrix function at gradient values."""
    _, b, a2 = _parts(fx, fy, tv)
    return a2 - nav.v * np.sqrt(a2) + nav.w * b


def _denominator(n2, b, a2, nav: NavigationParams):
    """v*alpha - w*beta, evaluated cancellation-free on the uphill side.

    For b > 0, v*alpha - w*b = (v^2*n2 + (v^2-w^2)*b^2) / (v*alpha + w*b),
    which stays fully accurate when w*b approaches v*alpha.
    """
    v, w = nav.v, nav.w
    al = np.sqrt(a2)
    uphill = b > 0
    num = v * v * n2 + (v * v - w * w) * b * b
    safe = np.where(uphill, v * al + w * b, 1.0)
    denom = np.where(uphill, num / safe, v * al - w * b)
    return denom, al


def slope_metric_F(surf: SurfaceSpec, x, y, tv, nav: NavigationParams | None = None):
    """Travel-time norm alpha^2 / (v*alpha - w*beta) of a chart direction.

    Positive and 1-homogeneous in tv wherever v*alpha - w*beta > 0; on graph
    surfaces in normalized mode that holds for every nonzero tv because
    |beta| < alpha always.  Raises ZeroVector / DegenerateDenominator.
    """
    nav = nav or NORMALIZED
    n2, b, a2 = _parts(*surf.gradient(x, y), tv)
    _require_nonzero(*_split(tv))
    denom, _ = _denominator(n2, b, a2, nav)
    if np.any(denom <= 0.0):
        raise DegenerateDenominator(
            "v*alpha - w*beta <= 0: slope term overwhelms the base speed"
        )
    return _scalar(a2 / denom)


def limacon_h(surf: SurfaceSpec, x, y, tv, nav: NavigationParams | None = None):
    """Implicit indicatrix function; zero exactly on the unit curve of F.

    h(tv) = |tv|^2 + beta^2 - v*sqrt(|tv|^2 + beta^2) + w*beta, i.e.
    alpha^2 - v*alpha + w*beta.  Scaling any direction by 1/F lands on the
    zero set, which in the steepest-descent frame is the limacon
    r = v + w*sin(incline)*cos(theta).
    """
    nav = nav or NORMALIZED
    return _scalar(_limacon(*surf.gradient(x, y), tv, nav))


def okubo_solve(surf: SurfaceSpec, x, y, direction, nav: NavigationParams | None = None,
                max_iter: int = 60) -> float:
    """The unique F > 0 with h(direction/F) = 0, found by root-solving.

    Newton iteration on lam = 1/F with a bisection fallback on [1e-12, 1e6];
    converged when |h| <= 1e-12 * (1 + |direction|^2).  This route never
    touches the closed-form quotient, so it independently cross-checks
    ``slope_metric_F``.  Reads the surface once; raises NoRoot exactly where
    the quotient's denominator test raises DegenerateDenominator.
    """
    nav = nav or NORMALIZED
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,):
        raise ValueError("okubo_solve expects a single direction of shape (2,)")
    _require_nonzero(d[0], d[1])
    # solve for the unit-Euclid direction; the root scales by 1-homogeneity
    scale = float(np.linalg.norm(d))
    dn = d / scale
    fx, fy = surf.gradient(x, y)
    n2, b, a2 = _parts(fx, fy, dn)
    if _denominator(n2, b, a2, nav)[0] <= 0.0:
        raise NoRoot("degenerate denominator: no positive root of the indicatrix equation")

    f = lambda lam: float(_limacon(fx, fy, lam * dn, nav))
    # |h| threshold alone under-resolves lam where F/alpha is large (steep
    # uphill, nearly degenerate denominator), so Newton also runs until the
    # update stalls; the relative-agreement contract is 1e-9.
    tol = 1e-12 * (1.0 + n2)

    lam = 1.0 / math.sqrt(a2)
    for _ in range(max_iter):
        fl = f(lam)
        dl = 1e-7 * (1.0 + lam)
        fp = (f(lam + dl) - f(lam - dl)) / (2.0 * dl)
        if not math.isfinite(fp) or fp == 0.0:
            break
        step_nwt = fl / fp
        nxt = lam - step_nwt
        if not (0.0 < nxt <= 1e7) or not math.isfinite(nxt):
            break
        lam = nxt
        if abs(fl) <= tol and abs(step_nwt) <= 1e-13 * lam:
            return scale / lam

    lo, hi = 1e-12, 1e6
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise NoRoot("indicatrix equation has no bracketed positive root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= 1e-14 * mid and abs(f(mid)) <= tol:
            return scale / mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 * scale / (lo + hi)


# --- direction-Hessian stencils -------------------------------------------

# center, +-e1, +-e2, and the four corners for the mixed term
_OFFS2 = np.array([
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
], dtype=float)


def _f2_at(surf, x, y, nodes, nav):
    """F^2 on a batch of direction nodes; cone violations become StencilOutOfCone."""
    try:
        F = slope_metric_F(surf, x, y, nodes, nav)
    except DegenerateDenominator as exc:
        raise StencilOutOfCone(
            "difference stencil crossed v*alpha - w*beta <= 0"
        ) from exc
    return np.square(F)


def hessian_field(surf: SurfaceSpec, x, y, dirs, nav: NavigationParams | None = None,
                  step: float = 1e-4):
    """g_ij for a batch of directions, shape (n, 2) -> three (n,) arrays.

    x, y may be scalars (one chart point for the whole fan) or (n,) arrays
    pairing each direction with its own point.  The workhorse behind
    ``fundamental_tensor`` and the positive-definiteness sweeps; one
    vectorized F^2 evaluation per batch on a 2nd-order stencil.
    """
    nav = nav or NORMALIZED
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[-1] != 2:
        raise ValueError("directions must have shape (n, 2)")
    if np.ndim(x) > 0:
        x = np.asarray(x, dtype=float)[:, None]
        y = np.asarray(y, dtype=float)[:, None]
    h = step * np.linalg.norm(dirs, axis=-1)
    if np.any(h == 0.0):
        raise ZeroVector("direction must be nonzero")
    nodes = dirs[:, None, :] + h[:, None, None] * _OFFS2[None, :, :]
    E = 0.5 * _f2_at(surf, x, y, nodes, nav)
    h2 = h * h
    g11 = (E[:, 1] - 2.0 * E[:, 0] + E[:, 2]) / h2
    g22 = (E[:, 3] - 2.0 * E[:, 0] + E[:, 4]) / h2
    g12 = (E[:, 5] - E[:, 6] - E[:, 7] + E[:, 8]) / (4.0 * h2)
    return g11, g12, g22


def fundamental_tensor(surf: SurfaceSpec, x, y, tv, nav: NavigationParams | None = None,
                       step: float = 1e-4) -> FundamentalTensor:
    """Half the direction-Hessian of F^2 at (point, direction), by central differences.

    The step is relative (scaled by |tv|).  Symmetric by construction,
    0-homogeneous in tv, and satisfies g_ij tv^i tv^j = F^2 up to the
    truncation error of the stencil.
    """
    tv = np.asarray(tv, dtype=float)
    if tv.shape != (2,):
        raise ValueError("fundamental_tensor expects a single direction of shape (2,)")
    g11, g12, g22 = hessian_field(surf, x, y, tv[None, :], nav, step=step)
    return FundamentalTensor(g11=float(g11[0]), g12=float(g12[0]), g22=float(g22[0]))
