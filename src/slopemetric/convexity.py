"""Where the slope metric is strongly convex, decided by three routes.

The metric F = alpha^2 / (v*alpha - w*beta) is strongly convex exactly where
the 1-form beta = df has alpha-norm b = sqrt(q / (1 + q)) < v / (2w), with
q = f_x^2 + f_y^2 (Matsumoto's bound; Chern & Shen, *Riemann-Finsler
Geometry*, 2005), i.e. where q < ``convexity_threshold(nav)``, which is 1/3
at v = w.  The pointwise criterion q < threshold (gradient route), the
profile criteria phi'(s)^2 < threshold and m'(u)^2 > 1/threshold (profile
routes), and a brute-force positive-definiteness sweep of the direction
Hessian (oracle route) must all agree; ``verify_equivalence`` samples
surfaces at random and reports any disagreement instead of raising.

Scans and sweeps are embarrassingly parallel over points; every callee is
pure, and reports are assembled by a single aggregator afterwards.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DerivativeBlowupWarning,
    DoubleRootWarning,
    InsufficientDirections,
    NonDifferentiable,
    OutOfDomain,
    OutOfRange,
    StencilOutOfCone,
)
from .metric import NORMALIZED, NavigationParams, hessian_field
from .surfaces import (
    DEFAULT_SCAN_SMAX,
    ProfileCurve,
    SurfaceOfRevolution,
    SurfaceSpec,
    TrigProfile,
    _scalar,
    profile_derivative,
)

__all__ = [
    "THRESHOLD",
    "DEFAULT_SCAN_SMAX",
    "Verdict",
    "ConvexityDomain",
    "SamplePlan",
    "EquivalenceReport",
    "convexity_threshold",
    "criterion_verdict",
    "is_strongly_convex_at",
    "cartesian_condition",
    "trig_condition",
    "convexity_domain",
    "condition_asymptote",
    "pd_oracle",
    "verify_equivalence",
]

# Strong convexity holds where the squared gradient norm stays below 1/3
# (at v = w; ``convexity_threshold`` gives the bound for any nav).
THRESHOLD = 1.0 / 3.0

# Criterion values within +-this of the threshold are ruled indeterminate.
CRITERION_BAND = 1e-9


class Verdict(enum.Enum):
    CONVEX = "true"
    NOT_CONVEX = "false"
    INDETERMINATE = "indeterminate"

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("compare Verdict members explicitly; indeterminate is not False")


# indexed by criterion_verdict: 0 below the band, 1 above it, 2 inside it
_VERDICT_VALUES = np.array([v.value for v in (Verdict.CONVEX, Verdict.NOT_CONVEX,
                                              Verdict.INDETERMINATE)])


def convexity_threshold(nav: NavigationParams) -> float:
    """Bound on q = |grad f|^2 below which the slope metric of ``nav`` is strongly convex.

    det g_ij has the sign of v^2 - 3vws + 2w^2 b^2, with s = beta/alpha and
    b^2 = q / (1 + q).  That is least along steepest ascent (s = b), where it
    factors as (v - w*b)(v - 2w*b); so the metric is strongly convex exactly
    where b < v/(2w), i.e. q < v^2 / (4w^2 - v^2).  That is THRESHOLD
    (exactly) when v = w, and inf when 2w <= v.
    """
    k = nav.w / nav.v
    if 2.0 * k <= 1.0:
        return math.inf
    return 1.0 / (4.0 * k * k - 1.0)


def criterion_verdict(q, band: float = CRITERION_BAND, threshold: float = THRESHOLD):
    """Verdict value(s) of the gradient criterion q < threshold.

    "true" below threshold - band, "false" above threshold + band, and
    "indeterminate" in between or for NaN; a str for scalar q, else an array
    of the same shape.  Every strong-convexity test on q goes through here.
    """
    q = np.asarray(q, dtype=float)
    idx = np.where(q < threshold - band, 0, np.where(q > threshold + band, 1, 2))
    return _VERDICT_VALUES[idx]


def is_strongly_convex_at(surf: SurfaceSpec, x, y, band: float = CRITERION_BAND,
                          threshold: float = THRESHOLD) -> Verdict:
    """Pointwise verdict from the gradient criterion f_x^2 + f_y^2 < threshold."""
    fx, fy = surf.gradient(x, y)
    return Verdict(criterion_verdict(fx * fx + fy * fy, band, threshold))


def cartesian_condition(p: ProfileCurve, s):
    """phi'(s)^2; the metric is strongly convex at radius s iff this < the threshold."""
    return _scalar(np.square(profile_derivative(p, s)))


def trig_condition(t: TrigProfile, u):
    """m'(u)^2; the metric is strongly convex at height u iff this > 3.

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
    """Radial intervals where the strong-convexity condition holds.

    ``variable`` tags the parametrization: "s" for the Cartesian radius
    (condition phi'^2 < threshold) or "u" for the height (m'^2 > 1/threshold).
    ``boundary_roots`` carries (location, residual) with residual the
    distance of the criterion from the threshold at the refined root.
    """

    variable: str
    intervals: tuple[tuple[float, float], ...]
    boundary_roots: tuple[tuple[float, float], ...]
    scan_range: tuple[float, float]
    resolution: int
    threshold: float = THRESHOLD

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

    def contains(self, s: float) -> bool:
        return any(a < s < b for a, b in self.intervals)

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
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


def convexity_domain(p: ProfileCurve, resolution: int = 1024, s_max: float | None = None,
                     threshold: float = THRESHOLD) -> ConvexityDomain:
    """Scan phi'^2 - threshold, bracket sign changes, bisect each boundary root.

    The scan grid is uniform with ``resolution`` panels (>= 64); unbounded
    domains are clipped to ``s_max`` (default 100).  Emits DoubleRootWarning
    when the criterion grazes the threshold without a clean crossing.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    lo, hi = p.domain
    hi_eff = min(hi, s_max if s_max is not None else DEFAULT_SCAN_SMAX)
    if math.isfinite(hi) and hi_eff >= hi:
        hi_eff = hi - max(1e-12, (hi - lo) * 1e-9)
    if not hi_eff > lo:
        raise OutOfDomain(f"empty scan range [{lo}, {hi_eff}]")
    lo_eff = lo
    try:
        profile_derivative(p, lo_eff)
    except (OutOfDomain, NonDifferentiable):
        lo_eff = lo + (hi_eff - lo) * 1e-9
    grid = np.linspace(lo_eff, hi_eff, resolution + 1)
    cond = np.square(np.asarray(profile_derivative(p, grid), dtype=float))
    c = cond - threshold

    def crit(s: float) -> float:
        return float(profile_derivative(p, s)) ** 2 - threshold

    roots: list[float] = []
    for i in range(resolution):
        ci, cj = c[i], c[i + 1]
        if ci == 0.0:
            roots.append(float(grid[i]))
        elif (ci < 0) != (cj < 0):
            roots.append(_bisect_root(crit, float(grid[i]), float(grid[i + 1]), ci))
    if c[-1] == 0.0:
        roots.append(float(grid[-1]))
    roots = sorted(set(roots))

    # tangential grazing: a strict local extremum hugging the threshold with
    # no crossing (a constant near-threshold profile is not a double root)
    interior = np.arange(1, resolution)
    is_min = (np.abs(c[interior]) < np.abs(c[interior - 1])) & (np.abs(c[interior]) < np.abs(c[interior + 1]))
    same_sign = ((c[interior - 1] < 0) == (c[interior] < 0)) & ((c[interior + 1] < 0) == (c[interior] < 0))
    grazing = is_min & same_sign & (np.abs(c[interior]) < 1e-6) & (c[interior] != 0.0)
    if np.any(grazing):
        s_graze = grid[interior[grazing]][0]
        warnings.warn(
            f"criterion grazes the threshold near s={s_graze:.6g}; double root suspected",
            DoubleRootWarning,
            stacklevel=2,
        )

    # assemble intervals where the condition holds (criterion below threshold)
    cuts = [float(grid[0])] + roots + [float(grid[-1])]
    intervals: list[tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0:
            continue
        mid = 0.5 * (a + b)
        if crit(mid) < 0:
            a_rep = lo if a == float(grid[0]) and lo_eff != lo else a
            if intervals and intervals[-1][1] == a:
                intervals[-1] = (intervals[-1][0], b)
            else:
                intervals.append((a_rep, b))
    boundary = tuple((r, abs(crit(r))) for r in roots)
    return ConvexityDomain(
        variable="s",
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


def pd_oracle(surf: SurfaceSpec, x, y, nav: NavigationParams | None = None,
              n_directions: int = 64) -> bool:
    """Brute-force positive definiteness of g_ij over a fan of directions.

    Sweeps ``n_directions`` equally spaced angles and requires trace > 0 and
    det > 0 for every one.  Convexity of the slope metric is lost first along
    the steepest-uphill direction, and just past the breakdown the indefinite
    cone around it is narrower than any fixed angular spacing, so the uphill
    angle joins the fan; the verdict still rests purely on Hessian eigenvalue
    signs.  A stencil that leaves v*alpha - w*beta > 0 means F is not a norm
    at the point, so the verdict is False.
    """
    if n_directions < 8:
        raise InsufficientDirections("need at least 8 directions for a meaningful sweep")
    nav = nav or NORMALIZED
    dirs = _unit_directions(n_directions)
    fx, fy = surf.gradient(x, y)
    q = fx * fx + fy * fy
    if q > 0.0:
        dirs = np.concatenate([dirs, np.array([[fx, fy]]) / math.sqrt(q)], axis=0)
    try:
        g11, g12, g22 = hessian_field(surf, x, y, dirs, nav)
    except StencilOutOfCone:
        return False
    return bool(np.all(g11 + g22 > 0.0) and np.all(g11 * g22 - g12 * g12 > 0.0))


@dataclass(frozen=True)
class SamplePlan:
    """How ``verify_equivalence`` draws its random sample of surface points.

    ``band`` excludes points within that radial distance of any predicted
    convexity boundary.  ``threshold`` None means ``convexity_threshold`` of
    the nav being verified; a number is a test hook that corrupts the
    analytic routes (the Hessian oracle never sees it).
    """

    n_points: int = 200
    seed: int = 0
    band: float = 1e-3
    n_directions: int = 64
    s_range: tuple[float, float] | None = None
    bbox: tuple[float, float, float, float] | None = None
    threshold: float | None = None


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
        return {
            "surface": self.surface,
            "samples": self.samples,
            "band": self.band,
            "seed": self.seed,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "indeterminate": self.indeterminate,
            "trig_skipped": self.trig_skipped,
            "worst_margin": self.worst_margin,
        }


def _revolution_sample_range(surf: SurfaceOfRevolution, plan: SamplePlan) -> tuple[float, float]:
    if plan.s_range is not None:
        return plan.s_range
    lo, hi = surf.profile.domain
    hi_eff = min(hi, DEFAULT_SCAN_SMAX)
    if math.isfinite(hi) and hi_eff >= hi:
        hi_eff = hi * (1 - 1e-9) if hi > 0 else hi - 1e-12
    lo_eff = lo
    try:
        profile_derivative(surf.profile, lo_eff)
        if lo == 0.0 and not surf.apex_smooth:
            lo_eff = max(plan.band, 1e-6)
    except (OutOfDomain, NonDifferentiable):
        lo_eff = lo + max(plan.band, (hi_eff - lo) * 1e-6)
    return (lo_eff, hi_eff)


def verify_equivalence(surf: SurfaceSpec, plan: SamplePlan | None = None,
                       nav: NavigationParams | None = None) -> EquivalenceReport:
    """Randomly sample the surface and tally agreement among all routes.

    For each sampled point the gradient criterion, the Cartesian profile
    condition, the height-parametrized condition (where the profile branch
    is invertible) and the Hessian-eigenvalue oracle each issue a verdict;
    any two definite verdicts that differ count as a disagreement (reported,
    never raised).  Indeterminate verdicts are tallied separately.
    """
    plan = plan or SamplePlan()
    nav = nav or NORMALIZED
    threshold = convexity_threshold(nav) if plan.threshold is None else plan.threshold
    rng = np.random.default_rng(plan.seed)
    is_rev = isinstance(surf, SurfaceOfRevolution)
    report = EquivalenceReport(
        surface=getattr(surf, "kind", "graph"),
        samples=plan.n_points,
        band=plan.band,
        seed=plan.seed,
    )

    roots: tuple[float, ...] = ()
    trig: TrigProfile | None = None
    if is_rev:
        s_lo, s_hi = _revolution_sample_range(surf, plan)
        dom = convexity_domain(surf.profile, s_max=s_hi, threshold=threshold)
        roots = tuple(r for r, _ in dom.boundary_roots)
        try:
            trig = TrigProfile.from_profile(surf.profile)
        except Exception:
            trig = None
    else:
        bbox = plan.bbox or surf.bounding_box()

    for _ in range(plan.n_points):
        for _attempt in range(1000):
            if is_rev:
                s = rng.uniform(s_lo, s_hi)
                if any(abs(s - r) <= plan.band for r in roots):
                    continue
                th = rng.uniform(0.0, 2.0 * math.pi)
                x, y = s * math.cos(th), s * math.sin(th)
            else:
                x = rng.uniform(bbox[0], bbox[1])
                y = rng.uniform(bbox[2], bbox[3])
                s = math.hypot(x, y)
            break
        else:
            raise RuntimeError("could not sample a point outside the exclusion band")

        verdicts: dict[str, bool | None] = {}
        fx, fy = surf.gradient(x, y)
        q = fx * fx + fy * fy
        analytic = Verdict(criterion_verdict(q, threshold=threshold))
        verdicts["analytic"] = (
            None if analytic is Verdict.INDETERMINATE else analytic is Verdict.CONVEX
        )
        if verdicts["analytic"] is None:
            report.indeterminate += 1
        report.worst_margin = min(report.worst_margin, abs(q - threshold))

        if is_rev:
            cond = cartesian_condition(surf.profile, s)
            verdicts["cartesian"] = bool(cond < threshold)
            mu = None
            if trig is not None:
                try:
                    u = float(surf.profile.phi(s))
                    # at a branch end's height (e.g. an underflowed tail) m(u) is not s
                    if trig.u_range[0] < u < trig.u_range[1]:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", DerivativeBlowupWarning)
                            mu = trig_condition(trig, u)
                except (OutOfRange, OutOfDomain):
                    mu = None
            if mu is None:
                report.trig_skipped += 1
                verdicts["trig"] = None
            else:
                verdicts["trig"] = bool(mu > 1.0 / threshold)

        verdicts["hessian"] = pd_oracle(surf, x, y, nav, n_directions=plan.n_directions)

        definite = [v for v in verdicts.values() if v is not None]
        if all(definite) or not any(definite):
            report.agreements += 1
        else:
            report.disagreements.append({
                "x": x,
                "y": y,
                "s": s,
                "predicates": {k: v for k, v in verdicts.items()},
            })
    return report
