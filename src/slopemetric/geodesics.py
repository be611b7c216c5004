"""Time-minimizing trajectories, indicatrix sampling, and propagating fronts.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0, integrated with a classic
4th-order Runge-Kutta step.  The slope metric is a Matsumoto
(alpha, beta)-metric, F = alpha * phi(beta/alpha) with phi(s) = 1/(v - w*s)
and beta = df closed, so its spray G has an exact closed form in the
surface gradient and Hessian (Matsumoto 1989; Chern & Shen,
*Riemann-Finsler Geometry*, 2005); no derivative of F is taken numerically.
Paths run at unit F-speed, so arclength equals travel time, and they halt
at the strong-convexity boundary where extremals stop being minimizers.

Rays of a front are independent; the integrator advances the live ones as
one batch, which is equivalent to running them in parallel.  Each RK4
stage reads the surface once, through its jet (gradient and Hessian from
one evaluation of phi' and one of phi''); the read at a step's end point
also judges convexity there, gives F, and serves the next step's first
stage, so a step costs four surface reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import (Verdict, _unit_directions, convexity_threshold, criterion_verdict,
                        is_strongly_convex_at)
from .errors import OutOfDomain, StepTooLarge, ZeroVector
from .metric import NORMALIZED, NavigationParams, _F, _parts, induced_metric, slope_metric_F
from .surfaces import SurfaceSpec

__all__ = [
    "GeodesicPath",
    "Indicatrix",
    "LimaconFit",
    "Front",
    "WavefrontResult",
    "geodesic_shoot",
    "wavefront",
    "indicatrix",
    "conservation_drift",
]

STATUS_COMPLETE = "complete"
STATUS_LEFT_DOMAIN = "left_convex_domain"

# Relative F drift per unit F-length tolerated along a path; ten times this
# raises StepTooLarge.
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class GeodesicPath:
    """One integrated trajectory, sampled at every accepted step.

    F_values stay constant along the path to within 10x ``DRIFT_TOL`` per unit length;
    every stored point lies inside the strong-convexity domain, and
    ``status`` records whether the requested length was reached or the
    boundary cut the path short.
    """

    t: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    F_values: np.ndarray
    step: float
    status: str

    @property
    def length(self) -> float:
        return float(self.t[-1])

    @property
    def left_domain(self) -> bool:
        return self.status == STATUS_LEFT_DOMAIN


def conservation_drift(path: GeodesicPath) -> float:
    """Max relative F drift per unit F-length along a path."""
    if len(path.t) < 2:
        return 0.0
    f0 = path.F_values[0]
    rel = np.abs(path.F_values[1:] - f0) / f0
    return float(np.max(rel / np.maximum(path.t[1:], path.step)))


def _spray_accel(fx, fy, fxx, fxy, fyy, v, nav):
    """Acceleration -2 G(p, v) of the geodesic spray for a batch of states.

    Takes the surface jet at p (gradient and Hessian, each (n,)) and the
    velocities v (n, 2).  With q = |grad f|^2, H = Hess f, s = beta/alpha and
    b^i = f_i / (1 + q) the dual of beta, the spray of an (alpha, beta)-metric
    with closed beta is

        G^i = (f_i / 2 + Theta * y^i / alpha + Psi * b^i) * r00,
        r00 = y^T H y / (1 + q),

    where for phi(s) = 1/(v - w*s) the Chern-Shen coefficients reduce to
    Theta = w (v - 4ws) / (2N) and Psi = w^2 / N with
    N = v^2 - 3vws + 2w^2 b^2,  b^2 = q / (1 + q).  N has the sign of
    det g_ij, so rows with N <= 0 (or v - w*s <= 0, where F itself breaks
    down) come back NaN: the ray has slipped past the convexity boundary
    between checks.
    """
    y1, y2 = v[:, 0], v[:, 1]
    q1 = 1.0 + fx * fx + fy * fy
    _, b, a2 = _parts(fx, fy, y1, y2)
    al = np.sqrt(a2)
    s = b / al
    r00 = (fxx * y1 * y1 + 2.0 * fxy * y1 * y2 + fyy * y2 * y2) / q1
    vn, wn = nav.v, nav.w
    N = vn * vn - 3.0 * vn * wn * s + 2.0 * wn * wn * (1.0 - 1.0 / q1)
    with np.errstate(divide="ignore", invalid="ignore"):
        along_f = (0.5 + wn * wn / (N * q1)) * r00
        along_y = wn * (vn - 4.0 * wn * s) / (2.0 * N * al) * r00
    acc = np.empty_like(v)
    np.multiply(-2.0, along_f * fx + along_y * y1, out=acc[:, 0])
    np.multiply(-2.0, along_f * fy + along_y * y2, out=acc[:, 1])
    acc[(N <= 0.0) | (vn - wn * s <= 0.0)] = np.nan
    return acc


def _accel_at(surf, p, v, nav):
    """Spray acceleration at states (p, v), from one read of the surface jet."""
    fx, fy, hessian_at = surf._jet(p[:, 0], p[:, 1])
    return _spray_accel(fx, fy, *hessian_at(), v, nav)


def _integrate(surf, p0, v0, length, step, nav):
    """Advance a batch of unit-speed rays with classic RK4; returns per-node arrays and halts.

    The surface jet is read once per RK4 stage.  The read at each accepted
    point serves three uses: its gradient judges strong convexity there and
    gives F, and, for the rays that stay live, its Hessian part feeds the
    next step's first stage.
    """
    if not (0 < length < math.inf and 0 < step < math.inf):
        raise ValueError("length and step must be positive")
    n = p0.shape[0]
    n_full = int(math.floor(length / step + 1e-9))
    hs = [step] * n_full
    rem = length - n_full * step
    if rem > 1e-12 * max(1.0, length):
        hs.append(rem)
    m = len(hs)

    pos = np.empty((m + 1, n, 2))
    vel = np.empty((m + 1, n, 2))
    fv = np.empty((m + 1, n))
    t = np.minimum(np.arange(m + 1) * step, length)
    pos[0], vel[0] = p0, v0
    fx, fy, hessian_at = surf._jet(p0[:, 0], p0[:, 1])
    fv[0] = _F(fx, fy, v0, nav)
    halt = np.full(n, m, dtype=int)
    live = np.arange(n)
    kept = ...  # rows of the last jet read that are still live; all of them at p0
    p, v = p0, v0
    threshold = convexity_threshold(nav)

    for k, h in enumerate(hs):
        k1v = _spray_accel(fx, fy, *hessian_at(kept), v, nav)
        k2p = v + 0.5 * h * k1v
        k2v = _accel_at(surf, p + 0.5 * h * v, k2p, nav)
        k3p = v + 0.5 * h * k2v
        k3v = _accel_at(surf, p + 0.5 * h * k2p, k3p, nav)
        k4p = v + h * k3v
        k4v = _accel_at(surf, p + h * k3p, k4p, nav)
        p = p + (h / 6.0) * (v + 2 * k2p + 2 * k3p + k4p)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

        ok = np.isfinite(p).all(axis=-1) & np.isfinite(v).all(axis=-1)
        fx, fy, hessian_at = surf._jet(p[ok, 0], p[ok, 1])
        kept = criterion_verdict(fx * fx + fy * fy, threshold) == Verdict.CONVEX.value
        ok[ok] = kept
        halt[live[~ok]] = k
        live, p, v = live[ok], p[ok], v[ok]
        if not live.size:
            break
        # a ray's nodes past its halt step are never read, so dead rays stop here
        pos[k + 1, live] = p
        vel[k + 1, live] = v
        fx, fy = fx[kept], fy[kept]
        fv[k + 1, live] = _F(fx, fy, v, nav)

    paths = []
    for i in range(n):
        end = halt[i] + 1
        path = GeodesicPath(
            t=t[:end].copy(),
            points=pos[:end, i].copy(),
            velocities=vel[:end, i].copy(),
            F_values=fv[:end, i].copy(),
            step=step,
            status=STATUS_COMPLETE if halt[i] == m else STATUS_LEFT_DOMAIN,
        )
        drift = conservation_drift(path)
        if drift > 10.0 * DRIFT_TOL:
            raise StepTooLarge(
                f"F drift {drift:.3e} per unit length exceeds 10x the tolerance "
                f"{DRIFT_TOL:.1e}; reduce the step"
            )
        paths.append(path)
    return paths


def geodesic_shoot(surf: SurfaceSpec, start, direction, length: float,
                   step: float = 1e-3, nav: NavigationParams | None = None) -> GeodesicPath:
    """Trace the extremal from ``start`` along ``direction`` for an F-length.

    The initial velocity is rescaled to unit F-speed, so ``length`` is travel
    time.  Integration stops early (status ``left_convex_domain``) if the
    path reaches the strong-convexity boundary; raises StepTooLarge when the
    conserved F drifts more than 10x ``DRIFT_TOL`` per unit length.
    """
    nav = nav or NORMALIZED
    start = np.asarray(start, dtype=float).reshape(2)
    direction = np.asarray(direction, dtype=float).reshape(2)
    if not np.any(direction):
        raise ZeroVector("shooting direction must be nonzero")
    if is_strongly_convex_at(surf, start[0], start[1], nav) is not Verdict.CONVEX:
        raise OutOfDomain("start point is not strictly inside the strong-convexity domain")
    F0 = slope_metric_F(surf, start[0], start[1], direction, nav)
    v0 = direction / F0
    return _integrate(surf, start[None, :], v0[None, :], length, step, nav)[0]


@dataclass(frozen=True)
class Front:
    """Positions of the surviving rays at one instant, ordered by ray angle."""

    time: float
    points: np.ndarray
    ray_ids: np.ndarray
    n_rays: int

    @property
    def complete(self) -> bool:
        return len(self.ray_ids) == self.n_rays


@dataclass(frozen=True)
class WavefrontResult:
    """Propagating front: per-time polylines plus the underlying rays."""

    seed: tuple[float, float]
    fronts: list[Front]
    rays: list[GeodesicPath]

    @property
    def statuses(self) -> list[str]:
        return [r.status for r in self.rays]


def wavefront(surf: SurfaceSpec, seed, total_time: float, n_rays: int = 64,
              step: float = 1e-3, nav: NavigationParams | None = None,
              n_fronts: int = 1) -> WavefrontResult:
    """Propagate a unit-F-speed front from a seed point.

    Shoots ``n_rays`` geodesics at equally spaced chart angles; the front at
    time t is the polyline of ray positions at F-arclength t.  Rays that
    exit the strong-convexity domain are truncated and drop out of later
    fronts (their status records the early stop).
    """
    nav = nav or NORMALIZED
    seed = np.asarray(seed, dtype=float).reshape(2)
    if is_strongly_convex_at(surf, seed[0], seed[1], nav) is not Verdict.CONVEX:
        raise OutOfDomain("seed point is not strictly inside the strong-convexity domain")
    if n_rays < 3:
        raise ValueError("need at least 3 rays for a front polyline")
    if n_fronts < 1:
        raise ValueError("need at least 1 front")
    dirs = _unit_directions(n_rays)
    F0 = slope_metric_F(surf, seed[0], seed[1], dirs, nav)
    v0 = dirs / F0[:, None]
    p0 = np.broadcast_to(seed, (n_rays, 2)).copy()
    rays = _integrate(surf, p0, v0, total_time, step, nav)

    fronts = []
    for j in range(1, n_fronts + 1):
        t_front = total_time * j / n_fronts
        pts, ids = [], []
        for i, ray in enumerate(rays):
            k = int(round(t_front / step))
            if k < len(ray.t) and ray.t[k] <= t_front + 0.5 * step:
                pts.append(ray.points[min(k, len(ray.t) - 1)])
                ids.append(i)
        fronts.append(Front(time=t_front, points=np.asarray(pts),
                            ray_ids=np.asarray(ids, dtype=int), n_rays=n_rays))
    return WavefrontResult(seed=(float(seed[0]), float(seed[1])), fronts=fronts, rays=rays)


@dataclass(frozen=True)
class LimaconFit:
    """Least-squares fit r = c0 + c1*cos(theta) in the steepest-descent frame."""

    c0: float
    c1: float
    max_residual: float


@dataclass(frozen=True)
class Indicatrix:
    """The unit curve {tv : F(tv) = 1} sampled at one chart point.

    ``frame`` holds the rows (e1, e2): an orthonormal pair in the induced
    inner product with e1 along steepest descent, or None on level ground
    (zero gradient), where the curve is a circle and the chart frame is used
    for the fit.  ``convex`` is False when the sampled curve's discrete
    curvature changes sign.
    """

    center: tuple[float, float]
    samples: np.ndarray
    frame: np.ndarray | None
    fit: LimaconFit
    convex: bool
    max_F_residual: float


def _discrete_convexity(samples: np.ndarray) -> bool:
    rolled = np.roll(samples, -1, axis=0)
    edges = rolled - samples
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    scale = np.linalg.norm(edges, axis=1) * np.linalg.norm(nxt, axis=1)
    signif = np.abs(cross) > 1e-9 * scale
    signs = np.sign(cross[signif])
    return not (np.any(signs > 0) and np.any(signs < 0))


def indicatrix(surf: SurfaceSpec, x, y, nav: NavigationParams | None = None,
               n: int = 256) -> Indicatrix:
    """Sample n unit-F directions at (x, y) and fit the limacon polar profile.

    Directions are equally spaced in chart angle and scaled by 1/F.  On
    sloped ground the samples, expressed in polar coordinates of the
    steepest-descent frame, follow r = v + w*k*cos(theta) exactly (k grows
    with the incline); the fit is reported along with a discrete convexity
    flag, which goes False outside the strong-convexity domain.
    """
    nav = nav or NORMALIZED
    if n < 8:
        raise ValueError("need at least 8 samples")
    dirs = _unit_directions(n)
    F = slope_metric_F(surf, x, y, dirs, nav)
    samples = dirs / F[:, None]
    F_check = slope_metric_F(surf, x, y, samples, nav)
    max_res = float(np.max(np.abs(F_check - 1.0)))

    fx, fy = surf.gradient(x, y)
    q = fx * fx + fy * fy
    a = induced_metric(surf, x, y)
    if q > 0.0:
        e1 = -np.array([fx, fy]) / math.sqrt(q * (1.0 + q))
        e2 = np.array([fy, -fx]) / math.sqrt(q)
        frame = np.stack([e1, e2])
    else:
        frame = None
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
    X = a.inner(samples, e1)
    Y = a.inner(samples, e2)
    theta = np.arctan2(Y, X)
    r = np.hypot(X, Y)
    A = np.stack([np.ones_like(theta), np.cos(theta)], axis=-1)
    coef, *_ = np.linalg.lstsq(A, r, rcond=None)
    resid = float(np.max(np.abs(A @ coef - r)))
    return Indicatrix(
        center=(float(x), float(y)),
        samples=samples,
        frame=frame,
        fit=LimaconFit(c0=float(coef[0]), c1=float(coef[1]), max_residual=resid),
        convex=_discrete_convexity(samples),
        max_F_residual=max_res,
    )
