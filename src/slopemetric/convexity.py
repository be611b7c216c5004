"""Where the slope metric is strongly convex, decided by three routes.

The metric F = alpha^2 / (v*alpha - w*beta) is strongly convex exactly where
the 1-form beta = df has alpha-norm b = sqrt(q / (1 + q)) < v / (2w), with
q = f_x^2 + f_y^2 (Matsumoto's bound; Chern & Shen, *Riemann-Finsler
Geometry*, 2005), i.e. where q < ``convexity_threshold(nav)``, which is 1/3
at v = w.  The pointwise criterion q < threshold (gradient route), the
profile criteria phi'(s)^2 < threshold and m'(u)^2 > 1/threshold (profile
routes), and a brute-force positive-definiteness sweep of the direction
Hessian (oracle route) must all agree; ``verify_equivalence`` samples
surfaces at random and reports any disagreement instead of raising.  The
oracle reads F values only: g_ij is positive definite exactly where the
indicatrix has positive curvature, which it tests by second differences of
F around a fan of angles in an orthonormal frame of a_ij (``pd_oracle``).

Scans and sweeps are embarrassingly parallel over points; every callee is
pure, and reports are assembled by a single aggregator afterwards.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DerivativeBlowupWarning,
    DoubleRootWarning,
    InsufficientDirections,
    SlopeMetricError,
)
from .metric import NORMALIZED, NavigationParams, _parts, _quotient
from .surfaces import (
    ProfileCurve,
    SurfaceOfRevolution,
    SurfaceSpec,
    TrigProfile,
    _scalar,
    _scan_window,
    eval_profile,
    profile_derivative,
    profile_second_derivative,
)

__all__ = [
    "Verdict",
    "ConvexityDomain",
    "SamplePlan",
    "EquivalenceReport",
    "convexity_threshold",
    "criterion_verdict",
    "verdict_codes",
    "is_strongly_convex_at",
    "cartesian_condition",
    "trig_condition",
    "convexity_domain",
    "condition_asymptote",
    "pd_oracle",
    "verify_equivalence",
]

# Criterion values within +-this of the threshold are ruled indeterminate.
CRITERION_BAND = 1e-9


class Verdict(enum.Enum):
    CONVEX = "true"
    NOT_CONVEX = "false"
    INDETERMINATE = "indeterminate"

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("compare Verdict members explicitly; indeterminate is not False")


# the verdict labels in code order: 0 below the band, 1 above it, 2 inside it
# or NaN, and 3 for a point off the surface's domain (``verdict_codes``)
_VERDICT_LABELS = np.array([v.value for v in (Verdict.CONVEX, Verdict.NOT_CONVEX,
                                              Verdict.INDETERMINATE)] + ["outside"])
_CONVEX, _NOT_CONVEX, _INDETERMINATE, _OUTSIDE = map(np.uint8, range(4))


def convexity_threshold(nav: NavigationParams) -> float:
    """Bound on q = |grad f|^2 below which the slope metric of ``nav`` is strongly convex.

    det g_ij has the sign of v^2 - 3vws + 2w^2 b^2, with s = beta/alpha and
    b^2 = q / (1 + q).  That is least along steepest ascent (s = b), where it
    factors as (v - w*b)(v - 2w*b); so the metric is strongly convex exactly
    where b < v/(2w), i.e. q < v^2 / (4w^2 - v^2).  That is 1/3 when
    v = w, and inf when 2w <= v.
    """
    k = nav.w / nav.v
    if 2.0 * k <= 1.0:
        return math.inf
    return 1.0 / (4.0 * k * k - 1.0)


def criterion_verdict(q, threshold: float, band: float = CRITERION_BAND):
    """Verdict value(s) of the gradient criterion q < threshold.

    "true" below threshold - band, "false" above threshold + band, and
    "indeterminate" in between or for NaN; a str for scalar q, else an array
    of the same shape.  Every strong-convexity test on q goes through here,
    or through its codes (``verdict_codes``).
    """
    labels, codes = verdict_codes(q, threshold, band)
    return labels[codes]


def verdict_codes(q, threshold: float, band: float = CRITERION_BAND, inside=None):
    """``criterion_verdict`` as (labels, codes): uint8 codes into a label array.

    Where the boolean mask ``inside`` is False the label is "outside", for a
    point off the surface's domain, whatever q is there.
    """
    q = np.asarray(q, dtype=float)
    above = np.where(q > threshold + band, _NOT_CONVEX, _INDETERMINATE)
    codes = np.where(_convex(q, threshold, band), _CONVEX, above)
    if inside is not None:
        codes = np.where(inside, codes, _OUTSIDE)
    return _VERDICT_LABELS, codes


def _convex(q, threshold: float, band: float = CRITERION_BAND):
    """Where ``criterion_verdict`` says "true", as booleans: q < threshold - band."""
    return q < threshold - band


def is_strongly_convex_at(surf: SurfaceSpec, x, y, nav: NavigationParams = NORMALIZED) -> Verdict:
    """Verdict of f_x^2 + f_y^2 < threshold of ``nav``; indeterminate within ``CRITERION_BAND``."""
    fx, fy = surf.gradient(x, y)
    threshold = convexity_threshold(nav)
    return Verdict(criterion_verdict(fx * fx + fy * fy, threshold))


def cartesian_condition(p: ProfileCurve, s):
    """phi'(s)^2; the metric is strongly convex at radius s iff this < the threshold."""
    d = profile_derivative(p, s)  # a float at one radius
    return d * d


def trig_condition(t: TrigProfile, u):
    """m'(u)^2; the metric is strongly convex at height u iff this > 1/threshold.

    Where the Cartesian slope vanishes (hilltop, bump peak) m' diverges and
    the condition holds by limit: returns +inf and warns.  A square that
    overflows (far, numerically flat tails) gives the same +inf silently.
    """
    mp = t.m_prime(u)
    arr = np.asarray(mp)
    if np.any(np.isinf(arr)):
        warnings.warn(
            "m'(u) diverges where the profile slope vanishes; condition holds by limit",
            DerivativeBlowupWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore"):
        return _scalar(np.square(arr))


@dataclass(frozen=True)
class ConvexityDomain:
    """Radial intervals where the strong-convexity condition phi'(s)^2 < threshold holds.

    The intervals and roots are Cartesian radii s, which ``to_dict`` names as
    its "variable".  ``boundary_roots`` carries (location, residual) with
    residual the distance of the criterion from the threshold at the refined root.
    """

    intervals: tuple[tuple[float, float], ...]
    boundary_roots: tuple[tuple[float, float], ...]
    scan_range: tuple[float, float]
    resolution: int
    threshold: float

    @property
    def is_entire(self) -> bool:
        """Condition holds on the whole scanned range (no interior boundary)."""
        if len(self.intervals) != 1 or self.boundary_roots:
            return False
        lo, hi = self.scan_range
        (a, b), = self.intervals
        return a <= lo and b >= hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def to_dict(self) -> dict:
        return {
            "variable": "s",
            "threshold": self.threshold,
            "intervals": [[a, b] for a, b in self.intervals],
            "boundary_roots": [{"location": r, "residual": res} for r, res in self.boundary_roots],
            "scan_range": list(self.scan_range),
            "resolution": self.resolution,
            "entire": self.is_entire,
        }


def _bisect_root(fn, a: float, b: float, fa: float) -> float:
    """Refine a bracketed sign change of fn to ~1e-13 relative width."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= 1e-13 * max(1.0, abs(mid)):
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _panel_roots(grid: np.ndarray, c: np.ndarray, crit) -> list[float]:
    """The roots of ``crit``, whose values on the sorted grid are c, in grid order.

    One root per crossing: a grid point where c is exactly 0 is one, and a
    panel whose two ends are nonzero and differ in sign holds one, bisected;
    a panel ending on a zero is not bisected.  Points and panels are
    classified by array comparisons, so only those holding a root are visited.
    """
    neg = c < 0
    on = c == 0.0
    cross = np.append((neg[:-1] != neg[1:]) & ~on[:-1] & ~on[1:], False)
    return [float(grid[i]) if on[i] else _bisect_root(crit, float(grid[i]), float(grid[i + 1]), c[i])
            for i in np.flatnonzero(on | cross)]


def convexity_domain(p: ProfileCurve, resolution: int = 1024, s_max: float | None = None,
                     nav: NavigationParams = NORMALIZED) -> ConvexityDomain:
    """Roots of c = phi'^2 - threshold of ``nav``, on a scan grid refined at the turns of c.

    The grid has ``resolution`` equal panels (>= 64) on ``_scan_window(p, s_max)``.
    The turns, the strict sign changes of c' = 2 phi' phi'' (a run of exact
    zeros, as on a cone or an underflowed tail, is none), are bisected and join
    the grid; each crossing of c on it gives one root (``_panel_roots``).  Emits
    DoubleRootWarning naming a turn where c is within ``CRITERION_BAND`` of 0.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    grid = np.linspace(*_scan_window(p, s_max), resolution + 1)
    threshold = convexity_threshold(nav)
    crit = lambda s: cartesian_condition(p, s) - threshold
    slope = lambda s: 2.0 * profile_derivative(p, s) * profile_second_derivative(p, s)

    dc = slope(grid)
    moving = dc != 0.0
    turns = _panel_roots(grid[moving], dc[moving], slope)
    grazing = [s for s in turns if abs(crit(s)) <= CRITERION_BAND]
    if grazing:
        warnings.warn(f"criterion grazes the threshold near s={grazing[0]:.6g}; double root suspected",
                      DoubleRootWarning, stacklevel=2)
    grid = np.sort(np.append(grid, turns))
    roots = sorted(set(_panel_roots(grid, crit(grid), crit)))

    # assemble intervals where the condition holds (criterion below threshold)
    cuts = [float(grid[0])] + roots + [float(grid[-1])]
    intervals: list[tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0:
            continue
        mid = 0.5 * (a + b)
        if crit(mid) < 0:
            a_rep = p.domain[0] if a == float(grid[0]) else a
            if intervals and intervals[-1][1] == a:
                intervals[-1] = (intervals[-1][0], b)
            else:
                intervals.append((a_rep, b))
    boundary = tuple((r, abs(crit(r))) for r in roots)
    return ConvexityDomain(
        intervals=tuple(intervals),
        boundary_roots=boundary,
        scan_range=(float(grid[0]), float(grid[-1])),
        resolution=resolution,
        threshold=threshold,
    )


def condition_asymptote(p: ProfileCurve) -> dict | None:
    """Known large-s limit of phi'^2 for builtin profiles with unbounded domains."""
    params = p.params
    if p.kind == "cone":
        return {"limit": params["a"] ** 2, "behavior": "constant"}
    if p.kind == "hyperboloid2":
        return {"limit": params["a"] ** 2, "behavior": "increasing to the limit"}
    if p.kind == "hyperboloid1":
        return {"limit": params["a"] ** 2, "behavior": "decreasing to the limit"}
    if p.kind == "gaussian":
        return {"limit": 0.0, "behavior": "decaying to zero"}
    if p.kind == "paraboloid":
        return {"limit": math.inf, "behavior": "unbounded growth"}
    return None


def _unit_directions(n: int) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


# The oracle's angular step: each fan angle is read at theta - h, theta and theta + h.
_DTHETA = 1e-3

# Most points per block of ``_pd_verdicts`` at the default 64 fan directions;
# a fan of n directions takes max(1, _PD_BLOCK * 64 // n) points a block, so
# each block holds at most 3072 directions whatever the fan.  n points are cut
# into ceil(n / that) blocks of near-equal size (200 into five of 40), so no
# short tail block pays a whole block's fixed cost.  A (3, 48, 64) float64
# temporary is 72 KiB, under glibc's 128 KiB trim threshold, so the kernel's
# many short-lived temporaries reuse heap memory instead of being handed back
# to the OS and faulted in again for every one of them.
_PD_BLOCK = 48


def _pd_verdicts(fx, fy, nav: NavigationParams, n_directions: int) -> np.ndarray:
    """``pd_oracle``'s verdict at each of the (n,) gradient values fx, fy.

    In the a-orthonormal frame e1 = grad f / (|grad f| sqrt(1 + q)),
    e2 = grad f^perp / |grad f| (the chart axes where grad f = 0),
    f(theta) = F(cos(theta) e1 + sin(theta) e2) is read on the chart
    directions at theta_k - h, theta_k and theta_k + h, theta_k = 2 pi k /
    n_directions, h = ``_DTHETA``; a point is convex iff
    f(theta - h) - 2 f(theta) + f(theta + h) + h^2 f(theta) > 0 at every
    theta_k.  Blocks of points (see ``_PD_BLOCK``) change no verdict, since
    each point's verdict reads its own directions only.  A point whose fan
    leaves v*alpha - w*beta > 0 gets NaN values, which fail the test, so its
    verdict is False.
    """
    h = _DTHETA
    fan = np.linspace(0.0, 2.0 * math.pi, n_directions, endpoint=False)
    theta = np.stack([fan - h, fan, fan + h])[:, None, :]
    c, s = np.cos(theta), np.sin(theta)
    # (ux, uy) = grad f / |grad f|, the x axis where grad f = 0; |e1| = 1/sqrt(1 + q)
    grad = np.hypot(fx, fy)
    flat = grad == 0.0
    safe = np.where(flat, 1.0, grad)
    ux, uy = np.where(flat, 1.0, fx / safe), fy / safe
    sqrt1q = np.hypot(1.0, grad)
    e1x, e1y = ux / sqrt1q, uy / sqrt1q
    n = fx.size
    blocks = -(-n // max(1, _PD_BLOCK * 64 // n_directions))
    verdicts = np.empty(n, dtype=bool)
    for k in range(blocks):
        i, j = k * n // blocks, (k + 1) * n // blocks
        dx = c * e1x[i:j, None] - s * uy[i:j, None]
        dy = c * e1y[i:j, None] + s * ux[i:j, None]
        f = _quotient(*_parts(fx[i:j, None], fy[i:j, None], dx, dy), nav)[0]
        verdicts[i:j] = np.all(f[0] - 2.0 * f[1] + f[2] + h * h * f[1] > 0.0, axis=1)
    return verdicts


def pd_oracle(surf: SurfaceSpec, x, y, nav: NavigationParams = NORMALIZED) -> bool:
    """Brute-force positive definiteness of g_ij, read off the indicatrix's curvature.

    For a Minkowski norm det g = f^3 (f + f'') in an a-orthonormal frame, with
    f(theta) = F(cos(theta) e1 + sin(theta) e2), and g(d, d) = F^2 > 0 (Bao,
    Chern & Shen, *An Introduction to Riemann-Finsler Geometry*, 2000, ch. 1):
    g_ij is positive definite in every direction exactly where the indicatrix
    has positive curvature, f + f'' > 0 at every angle.  The oracle checks that
    by second differences of F over verify's default fan of
    ``SamplePlan.n_directions`` (64) equally spaced angles, in the frame whose
    e1 is steepest uphill, where convexity is lost first, so theta = 0 is in
    the fan.  It reads F values only (the gradient only places the frame),
    never the closed-form tensor or the criterion.  A fan direction with
    v*alpha - w*beta <= 0 means F is not a norm at the point, so the verdict
    is False.
    """
    fx, fy = surf.gradient(x, y)
    return bool(_pd_verdicts(np.atleast_1d(fx), np.atleast_1d(fy), nav,
                             SamplePlan.n_directions)[0])


@dataclass(frozen=True)
class SamplePlan:
    """How ``verify_equivalence`` draws its random sample of surface points.

    ``band`` excludes points within that radial distance of any predicted
    convexity boundary; a graph surface is sampled on its ``bbox``.  A
    negative band, no sample point or fewer than 8 directions is rejected
    when the plan is built, before any surface is sampled.
    """

    n_points: int = 200
    seed: int = 0
    band: float = 1e-3
    n_directions: int = 64
    s_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.band < 0:
            raise ValueError("band must be nonnegative")
        if self.n_points < 1:
            raise ValueError(f"need at least 1 sample point, got {self.n_points}")
        if self.n_directions < 8:
            raise InsufficientDirections("need at least 8 directions for a meaningful sweep")


@dataclass
class EquivalenceReport:
    """Agreement tally among the analytic, profile and Hessian-oracle routes."""

    surface: str
    samples: int
    band: float
    seed: int
    agreements: int = 0
    disagreements: list = field(default_factory=list)
    indeterminate: int = 0
    trig_skipped: int = 0
    worst_margin: float = math.inf

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return asdict(self)


def _revolution_sample_range(surf: SurfaceOfRevolution, plan: SamplePlan) -> tuple[float, float]:
    """``plan.s_range``, else ``_scan_window``'s, started past a waist or non-smooth apex."""
    if plan.s_range is not None:
        return plan.s_range
    lo = surf.profile.domain[0]
    lo_eff, hi_eff = _scan_window(surf.profile)
    if lo_eff > lo or (lo == 0.0 and not surf.apex_smooth):
        lo_eff = lo + max(plan.band, 1e-6 * (hi_eff - lo))
    return (lo_eff, hi_eff)


def _doubles(rng: np.random.Generator, block: int):
    """The doubles of ``rng.random``, one at a time, drawn ``block`` at a time."""
    while True:
        yield from rng.random(block).tolist()


def _draw_range(lo, hi) -> tuple[float, float]:
    """(lo, hi - lo) as ``Generator.uniform(lo, hi)`` takes them, with its range checks."""
    lo = float(lo)
    span = float(hi) - lo
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    return lo, span


def _sample_points(plan: SamplePlan, roots: tuple[float, ...], window=None, bbox=None):
    """The x, y and s lists of ``verify_equivalence``'s sample points.

    A surface of revolution is sampled in polar form, s uniform on
    ``window`` and redrawn while within ``plan.band`` of a root, then the
    angle; a graph surface uniformly on ``bbox``.  Each coordinate is
    lo + (hi - lo) * u, ``Generator.uniform``'s own formula, on the doubles
    u of ``default_rng(plan.seed)`` in draw order, so the points are bit for
    bit those of one ``uniform`` call per coordinate, without numpy's cost
    per call.
    """
    doubles = _doubles(np.random.default_rng(plan.seed), 2 * plan.n_points)
    if window is not None:
        s_lo, s_span = _draw_range(*window)
        th_lo, th_span = _draw_range(0.0, 2.0 * math.pi)
    else:
        x_lo, x_span = _draw_range(bbox[0], bbox[1])
        y_lo, y_span = _draw_range(bbox[2], bbox[3])
    xs, ys, ss = [], [], []
    for _ in range(plan.n_points):
        for _attempt in range(1000):
            if window is not None:
                s = s_lo + s_span * next(doubles)
                if any(abs(s - r) <= plan.band for r in roots):
                    continue
                th = th_lo + th_span * next(doubles)
                x, y = s * math.cos(th), s * math.sin(th)
            else:
                x = x_lo + x_span * next(doubles)
                y = y_lo + y_span * next(doubles)
                s = math.hypot(x, y)
            break
        else:
            raise RuntimeError("could not sample a point outside the exclusion band")
        xs.append(x)
        ys.append(y)
        ss.append(s)
    return xs, ys, ss


def verify_equivalence(surf: SurfaceSpec, plan: SamplePlan = SamplePlan(),
                       nav: NavigationParams = NORMALIZED) -> EquivalenceReport:
    """Randomly sample the surface and tally agreement among all routes.

    For each sampled point the gradient criterion, the Cartesian profile
    condition, the height-parametrized condition (where the profile branch
    is invertible and the height identifies the radius) and the
    Hessian-eigenvalue oracle each issue a verdict; any two definite
    verdicts that differ count as a disagreement (reported, never raised).
    Indeterminate verdicts are tallied separately.  The points are drawn
    first; each route then judges all of them in one array evaluation.
    """
    threshold = convexity_threshold(nav)
    is_rev = isinstance(surf, SurfaceOfRevolution)
    report = EquivalenceReport(
        surface=getattr(surf, "kind", "graph"),
        samples=plan.n_points,
        band=plan.band,
        seed=plan.seed,
    )

    roots: tuple[float, ...] = ()
    trig: TrigProfile | None = None
    window = bbox = None
    if is_rev:
        window = _revolution_sample_range(surf, plan)
        dom = convexity_domain(surf.profile, s_max=window[1], nav=nav)
        roots = tuple(r for r, _ in dom.boundary_roots)
        try:
            trig = TrigProfile.from_profile(surf.profile)
        except SlopeMetricError:
            trig = None
    else:
        bbox = surf.bounding_box()

    xs, ys, ss = _sample_points(plan, roots, window, bbox)

    # each route issues its verdicts for every sampled point at once, as
    # (name, definite, convex) boolean arrays
    n = plan.n_points
    s_arr = np.array(ss, dtype=float)
    fx, fy = surf.gradient(np.array(xs, dtype=float), np.array(ys, dtype=float))
    q = fx * fx + fy * fy
    analytic = verdict_codes(q, threshold)[1]
    definite = analytic != _INDETERMINATE
    routes = [("analytic", definite, analytic == _CONVEX)]
    report.indeterminate = int(np.count_nonzero(~definite))
    report.worst_margin = float(np.min(np.abs(q - threshold), initial=math.inf))

    if is_rev:
        cond = cartesian_condition(surf.profile, s_arr)
        routes.append(("cartesian", np.ones(n, dtype=bool), cond < threshold))
        identified = np.zeros(n, dtype=bool)
        trig_convex = np.zeros(n, dtype=bool)
        if trig is not None:
            u = eval_profile(surf.profile, s_arr)
            # at a branch end's height (e.g. an underflowed tail) m(u) is not
            # s, nor at a subnormal one, whose digits are already lost
            identified = ((trig.u_range[0] < u) & (u < trig.u_range[1])
                          & (np.abs(u) >= np.finfo(float).tiny))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DerivativeBlowupWarning)
                trig_convex[identified] = trig_condition(trig, u[identified]) > 1.0 / threshold
        report.trig_skipped = int(np.count_nonzero(~identified))
        routes.append(("trig", identified, trig_convex))

    routes.append(("hessian", np.ones(n, dtype=bool),
                   _pd_verdicts(fx, fy, nav, plan.n_directions)))

    n_definite = sum(d.astype(int) for _, d, _ in routes)
    n_convex = sum((d & c).astype(int) for _, d, c in routes)
    agree = (n_convex == 0) | (n_convex == n_definite)
    report.agreements = int(np.count_nonzero(agree))
    for i in np.flatnonzero(~agree):
        report.disagreements.append({
            "x": xs[i],
            "y": ys[i],
            "s": ss[i],
            "predicates": {name: bool(c[i]) if d[i] else None for name, d, c in routes},
        })
    return report
