"""Time-minimizing trajectories, indicatrix sampling, and propagating fronts.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0, integrated with a classic
4th-order Runge-Kutta step.  The slope metric is a Matsumoto
(alpha, beta)-metric, F = alpha * phi(beta/alpha) with phi(s) = 1/(v - w*s)
and beta = df closed, so its spray G has an exact closed form in the
surface gradient and Hessian (Matsumoto 1989; Chern & Shen,
*Riemann-Finsler Geometry*, 2005); no derivative of F is taken numerically.
Paths run at unit F-speed, so arclength equals travel time, and they halt
at the strong-convexity boundary where extremals stop being minimizers.
``indicatrix`` samples the unit F-curve at one point and reads it in the
steepest-descent frame of the induced metric a_ij (``metric.induced_metric``)
against its closed form, the limacon r = v + w*b*cos(theta); its convexity
flag is the strong-convexity criterion's verdict, not a test of the samples.

Rays of a front are independent; the integrator advances the live ones as
one batch, which is equivalent to running them in parallel.  Each RK4
stage reads the surface once, through its jet (gradient and Hessian from
one evaluation of phi' and one of phi''); the read at a step's end point
also judges convexity there, gives F, and serves the next step's first
stage, so a step costs four surface reads.

Numpy charges a fixed cost per call, which at front widths is as large as
the arithmetic, so the loop is laid out to make few calls.  The state of
the live rays is one (4, n) array of rows (x, y, xdot, ydot), so each RK4
combination (Y + c*K, the final weighted sum, the finiteness test) is one
call over positions and velocities together, and its rows are contiguous
operands for the jet and the spray.  The arithmetic is elementwise the
same as on separate arrays, so every output bit is.  A step that drops no
ray copies nothing; the spray writes NaN rows only when some row is bad;
the node's F and the next step's first spray share one ``metric._parts``;
and each accepted node goes straight into ray-major tables, whose rows
the paths view without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import (Verdict, _a_frame, _convex, _unit_directions, convexity_threshold,
                        is_strongly_convex_at)
from .errors import OutOfDomain, StepTooLarge
from .metric import (NORMALIZED, NavigationParams, _F, _parts, _quotient, induced_metric,
                     slope_metric_F)
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
# the RK4 state turned non-finite within a step, as it does when the step
# carries the ray past the convexity boundary, where the spray is NaN
STATUS_NON_FINITE = "non_finite_state"

# Relative F drift per unit F-length tolerated along a path; ten times this
# raises StepTooLarge.
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class GeodesicPath:
    """One integrated trajectory, sampled at every accepted step.

    t holds the F-length of each node, so ``t[-1]`` is the length reached.
    F_values stay constant along the path to within 10x ``DRIFT_TOL`` per unit length;
    every stored point lies inside the strong-convexity domain, and
    ``status`` records whether the requested length was reached
    (``STATUS_COMPLETE``), the boundary cut the path short
    (``STATUS_LEFT_DOMAIN``), or a step ended in a non-finite state
    (``STATUS_NON_FINITE``).
    """

    t: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    F_values: np.ndarray
    step: float
    status: str


def conservation_drift(path: GeodesicPath) -> float:
    """Max relative F drift per unit F-length along a path."""
    return float(_drift(path.F_values, path.t, path.step))


def _drift(F, t, step):
    """``conservation_drift`` of F sampled at times t, for each column of a (nodes, rays) F."""
    rel = (np.abs(F[1:] - F[0]) / F[0]).T / np.maximum(t[1:], step)
    return np.max(rel, axis=-1, initial=0.0)


def _spray_accel(fx, fy, fxx, fxy, fyy, y1, y2, b, al, nav, out):
    """Acceleration -2 G(p, v) of the geodesic spray for a batch of states.

    Takes the surface jet at p (gradient and Hessian, each (n,)), the
    velocity components y1, y2 and their climb rate b and alpha =
    sqrt(alpha^2) from ``metric._parts``; writes (xddot, yddot) into the
    rows of ``out`` (2, n).  With q = |grad f|^2, H = Hess f, s = beta/alpha and
    b^i = f_i / (1 + q) the dual of beta, the spray of an (alpha, beta)-metric
    with closed beta is

        G^i = (f_i / 2 + Theta * y^i / alpha + Psi * b^i) * r00,
        r00 = y^T H y / (1 + q),

    where for phi(s) = 1/(v - w*s) the Chern-Shen coefficients reduce to
    Theta = w (v - 4ws) / (2N) and Psi = w^2 / N with
    N = v^2 - 3vws + 2w^2 b^2,  b^2 = q / (1 + q).  N has the sign of
    det g_ij, so rows with N <= 0 (or v - w*s <= 0, where F itself breaks
    down) come back NaN: the ray has slipped past the convexity boundary
    between checks.  Returns the mask of those rows, or None when there are
    none.
    """
    q1 = 1.0 + fx * fx + fy * fy
    s = b / al
    r00 = (fxx * y1 * y1 + 2.0 * fxy * y1 * y2 + fyy * y2 * y2) / q1
    vn, wn = nav.v, nav.w
    N = vn * vn - 3.0 * vn * wn * s + 2.0 * wn * wn * (1.0 - 1.0 / q1)
    along_f, along_y = _spray_terms(N, q1, s, al, r00, vn, wn)
    np.multiply(-2.0, along_f * fx + along_y * y1, out=out[0])
    np.multiply(-2.0, along_f * fy + along_y * y2, out=out[1])
    # a NaN in either test leaves its row NaN already
    bad = np.minimum(N, vn - wn * s) <= 0.0
    if not np.count_nonzero(bad):
        return None
    out[:, bad] = np.nan
    return bad


@np.errstate(divide="ignore", invalid="ignore")
def _spray_terms(N, q1, s, al, r00, vn, wn):
    """The factors of f_i and y^i in G^i: (1/2 + Psi / (1 + q)) * r00 and Theta * r00 / alpha.

    N <= 0 makes them inf or NaN without a warning; ``_spray_accel`` then
    gives the row NaN.
    """
    along_f = (0.5 + wn * wn / (N * q1)) * r00
    along_y = wn * (vn - 4.0 * wn * s) / (2.0 * N * al) * r00
    return along_f, along_y


def _accel_at(surf, state, nav, out=None):
    """Spray acceleration at states (x, y, xdot, ydot) stacked (4, n), from one jet read.

    Returns (xddot, yddot) stacked (2, n), in ``out`` when given, and
    ``_spray_accel``'s mask of NaN rows (None when there are none).
    """
    x, y, y1, y2 = state
    fx, fy, hessian_at = surf._jet(x, y)
    _, b, a2 = _parts(fx, fy, y1, y2)
    out = np.empty((2, state.shape[1])) if out is None else out
    return out, _spray_accel(fx, fy, *hessian_at(), y1, y2, b, np.sqrt(a2), nav, out)


def _node_F(fx, fy, y1, y2, nav):
    """F at accepted states, with the climb rate b and alpha that their spray reuses."""
    n2, b, a2 = _parts(fx, fy, y1, y2)
    F, al = _quotient(n2, b, a2, nav)
    if np.isnan(F).any():
        # a zero velocity makes F NaN too, so only a failing batch pays for
        # _F's own tests, which raise its ZeroVector or DegenerateDenominator
        F = _F(fx, fy, np.stack([y1, y2], axis=-1), nav)
    return F, b, al


def _columns(mask, *arrays):
    """(mask, each array's columns where mask holds), or (None, the arrays) when it holds everywhere.

    A step that drops no ray then copies nothing, and the jet's ``hessian_at(None)``
    reads every point without re-indexing.
    """
    if np.count_nonzero(mask) == mask.size:
        return None, arrays
    return mask, [a.compress(mask, axis=-1) for a in arrays]


def _integrate(surf, p0, v0, length, step, nav):
    """Advance a batch of unit-speed rays with classic RK4; returns one GeodesicPath per ray.

    The state of the live rays is one array with rows (x, y, xdot, ydot),
    so each RK4 combination is one numpy call over positions and velocities
    together.  The surface jet is read once per RK4 stage.  The read at each
    accepted point serves three uses: its gradient judges strong convexity
    there and gives F, and, for the rays that stay live, its Hessian part
    and F's intermediate values feed the next step's first stage.  A step
    that drops no ray copies no state.

    Each accepted node goes straight into two ray-major tables, one
    (rays, nodes, 4) state array and one (rays, nodes) F array, so no step's
    arrays outlive the step.  Each path's points, velocities and F values
    are views of its own rows there, so no two paths share memory and no
    per-ray copy is made; its t is its own copy of the time grid.  A ray
    whose state turns non-finite within a step stops with
    ``STATUS_NON_FINITE``, one that steps out of the convexity domain with
    ``STATUS_LEFT_DOMAIN``.  A ray whose spray is NaN at a stage (it has
    slipped past the convexity boundary) runs the step's remaining stages
    from its step-start state, so that no stage reads the surface at a NaN
    position; its NaN spray still ends the step NaN.
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

    t = np.minimum(np.arange(m + 1) * step, length)
    Y = np.concatenate([p0.T, v0.T])
    fx, fy, hessian_at = surf._jet(Y[0], Y[1])
    F, b, al = _node_F(fx, fy, Y[2], Y[3], nav)
    states = np.empty((n, m + 1, 4))  # rows past a ray's last node are never read
    states[:, 0] = Y.T
    # nodes past a ray's halt keep its starting F, which adds no drift
    fv = np.repeat(F[:, None], m + 1, axis=1)
    ends = np.ones(n, dtype=int)  # nodes per ray
    broken = np.zeros(n, dtype=bool)  # rays dropped for a non-finite state
    live = np.arange(n)
    kept = None  # mask of the last jet read's rows that are still live; None for all
    threshold = convexity_threshold(nav)

    for k, h in enumerate(hs, 1):
        # K[i] is the slope (xdot, ydot, xddot, yddot) of stage i
        K = np.empty((4,) + Y.shape)
        K[0, :2] = Y[2:]
        stalled = _spray_accel(fx, fy, *hessian_at(kept), Y[2], Y[3], b, al, nav, K[0, 2:])
        for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
            stage = Y + c * K[i - 1]
            if stalled is not None:
                stage[:, stalled] = Y[:, stalled]
            K[i, :2] = stage[2:]
            bad = _accel_at(surf, stage, nav, K[i, 2:])[1]
            if bad is not None:
                stalled = bad if stalled is None else stalled | bad
        Y = Y + (h / 6.0) * (K[0] + 2 * K[1] + 2 * K[2] + K[3])

        finite, (Y, survivors) = _columns(np.isfinite(Y).all(axis=0), Y, live)
        if finite is not None:
            broken[live[~finite]] = True
        live = survivors
        fx, fy, hessian_at = surf._jet(Y[0], Y[1])
        kept, (Y, live, fx, fy) = _columns(_convex(fx * fx + fy * fy, threshold), Y, live, fx, fy)
        if not live.size:
            break
        F, b, al = _node_F(fx, fy, Y[2], Y[3], nav)
        states[live, k] = Y.T
        fv[live, k] = F
        ends[live] = k + 1

    drift = _drift(fv.T, t, step)
    too_large = np.flatnonzero(drift > 10.0 * DRIFT_TOL)
    if too_large.size:
        raise StepTooLarge(
            f"F drift {float(drift[too_large[0]]):.3e} per unit length exceeds 10x the tolerance "
            f"{DRIFT_TOL:.1e}; reduce the step"
        )
    return [
        GeodesicPath(
            t=t[:end].copy(),
            points=states[i, :end, :2],
            velocities=states[i, :end, 2:],
            F_values=fv[i, :end],
            step=step,
            status=(STATUS_COMPLETE if end == m + 1
                    else STATUS_NON_FINITE if bad else STATUS_LEFT_DOMAIN),
        )
        for i, (end, bad) in enumerate(zip(ends.tolist(), broken.tolist()))
    ]


def geodesic_shoot(surf: SurfaceSpec, start, direction, length: float,
                   step: float = 1e-3, nav: NavigationParams = NORMALIZED) -> GeodesicPath:
    """Trace the extremal from ``start`` along ``direction`` for an F-length.

    The initial velocity is rescaled to unit F-speed, so ``length`` is travel
    time.  Integration stops early (status ``left_convex_domain``) if the
    path reaches the strong-convexity boundary, or (``non_finite_state``) if
    a step ends in a non-finite state; raises StepTooLarge when the
    conserved F drifts more than 10x ``DRIFT_TOL`` per unit length, and what
    ``slope_metric_F`` raises on the direction.
    """
    start = np.asarray(start, dtype=float).reshape(2)
    direction = np.asarray(direction, dtype=float).reshape(2)
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
              step: float = 1e-3, nav: NavigationParams = NORMALIZED,
              n_fronts: int = 1) -> WavefrontResult:
    """Propagate a unit-F-speed front from a seed point.

    Shoots ``n_rays`` geodesics at equally spaced chart angles; the front at
    time t is the polyline of ray positions at F-arclength t.  Rays that
    exit the strong-convexity domain, or whose state turns non-finite within
    a step, are truncated and drop out of later fronts (their status records
    the early stop).
    """
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
    """The unit curve's limacon r = c0 + c1*cos(theta) in the steepest-descent frame:
    c0 = v, c1 = w*b in closed form; ``max_residual`` is the samples' largest distance from it."""

    c0: float
    c1: float
    max_residual: float


@dataclass(frozen=True)
class Indicatrix:
    """The unit curve {tv : F(tv) = 1} sampled at one chart point.

    ``frame`` holds the rows (e1, e2): an orthonormal pair in the induced
    inner product with e1 along steepest descent, or None on level ground
    (zero gradient), where the curve is a circle and the chart frame is used.
    ``convex`` is the strong-convexity criterion's verdict at the point: True
    where ``criterion_verdict`` says "true", else False.
    """

    center: tuple[float, float]
    samples: np.ndarray
    frame: np.ndarray | None
    fit: LimaconFit
    convex: bool
    max_F_residual: float


def indicatrix(surf: SurfaceSpec, x, y, nav: NavigationParams = NORMALIZED,
               n: int = 256) -> Indicatrix:
    """Sample n unit-F directions at (x, y) and read them as the limacon.

    Directions are equally spaced in chart angle and scaled by 1/F.  In polar
    coordinates of the steepest-descent frame the unit curve is the limacon
    r = v + w*b*cos(theta), with b = |grad f| / sqrt(1 + q) the alpha-norm of
    df (Matsumoto 1989); ``fit`` holds its coefficients and the samples'
    largest distance from it, and ``convex`` the criterion's verdict on q.
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    dirs = _unit_directions(n)
    fx, fy = surf.gradient(x, y)
    samples = dirs / _F(fx, fy, dirs, nav)[:, None]
    b, e1, e2 = _a_frame(fx, fy)
    # the oracle's frame has e1 steepest uphill; turned half round, downhill
    frame = -np.array([e1, e2], dtype=float)
    a = induced_metric(surf, x, y)
    X = a.inner(samples, frame[0])
    r = np.hypot(X, a.inner(samples, frame[1]))
    c0, c1 = float(nav.v), nav.w * float(b)
    return Indicatrix(
        center=(float(x), float(y)),
        samples=samples,
        frame=frame if b > 0.0 else None,
        fit=LimaconFit(c0=c0, c1=c1, max_residual=float(np.max(np.abs(r - (c0 + c1 * X / r))))),
        convex=bool(_convex(fx * fx + fy * fy, convexity_threshold(nav))),
        max_F_residual=float(np.max(np.abs(_F(fx, fy, samples, nav) - 1.0))),
    )
