"""Command-line front end: analysis, verification, and plot-ready exports.

Six subcommands (analyze, domain, verify, indicatrix, geodesic, front) wrap
the library; every run is configured by flags and/or a JSON config file
(flags win), and identical configurations produce byte-identical output.
CSV uses 17 significant digits so golden files stay stable.

Exit codes: 0 success, 1 verification disagreement, 2 malformed
configuration, 3 surface-domain or geometry error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import convexity as cx
from . import geodesics as gd
from .errors import ConfigError, SlopeMetricError, StepTooLarge
from .metric import NavigationParams
from .surfaces import SurfaceOfRevolution, surface_from_json

__all__ = ["main", "RunConfig", "BUILTIN_VERIFY_SUITE"]

# default sampling windows for the builtin verification suite: each entry is
# (label, surface description, radial sample range)
BUILTIN_VERIFY_SUITE = [
    ("paraboloid", {"kind": "paraboloid", "params": {"h": 100.0}}, (0.0, 1.0)),
    ("cone", {"kind": "cone", "params": {"a": 0.5}}, (0.05, 5.0)),
    ("ellipsoid", {"kind": "ellipsoid", "params": {"a": 1.0, "c": 1.0}}, None),
    ("hyperboloid2", {"kind": "hyperboloid2", "params": {"a": 0.5, "b": 1.0}}, (0.0, 5.0)),
    ("hyperboloid1", {"kind": "hyperboloid1", "params": {"a": 0.5, "b": 1.0}}, (1.01, 5.0)),
    ("gaussian", {"kind": "gaussian", "params": {}}, (0.0, 5.0)),
]


@dataclass
class RunConfig:
    """Merged options for one CLI invocation (flags over config over defaults)."""

    command: str
    surface: object = None
    nav: NavigationParams = field(default_factory=NavigationParams)
    out: str | None = None
    format: str = "json"
    resolution: int = 2048
    seed: int = 0
    band: float = 1e-3
    strict: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.resolution < 64:
            raise ConfigError("resolution must be at least 64")
        if self.band < 0:
            raise ConfigError("band must be nonnegative")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")

    def extra(self, key: str, kind=None):
        """A command option's merged value, converted by ``kind`` when one is given."""
        val = self.extras.get(key)
        return val if kind is None else _typed(val, kind, key)


def _typed(value, kind, key: str):
    """kind(value) for an option; a value of the wrong type is a ConfigError (exit 2)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _run_config(args: argparse.Namespace, default_format: str = "json",
                default_resolution: int = 2048, default_band: float = 1e-3,
                need_surface: bool = True, **extra_keys) -> RunConfig:
    """Merge flags over the optional config file over defaults."""
    cfg = _load_config_file(args.config)
    surface = None
    if need_surface:
        surface = _surface_arg(args, cfg)
    extras = {k: _merged(args, cfg, k, dflt) for k, dflt in extra_keys.items()}
    return RunConfig(
        command=args.command,
        surface=surface,
        nav=_nav_arg(args, cfg),
        out=_merged(args, cfg, "out", None),
        format=_merged(args, cfg, "format", default_format),
        resolution=_typed(_merged(args, cfg, "resolution", default_resolution), int, "resolution"),
        seed=_typed(_merged(args, cfg, "seed", 0), int, "seed"),
        band=_typed(_merged(args, cfg, "band", default_band), float, "band"),
        strict=_typed(_merged(args, cfg, "strict", False), bool, "strict"),
        extras=extras,
    )


def _fmt(x) -> str:
    """17-significant-digit decimal, the CSV stability contract."""
    return format(float(x), ".17g")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_numbers(raw, what: str, n: int = 2) -> tuple[float, ...]:
    """n numbers from a flag's "a,b,..." string or a config file's list of length n."""
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, (list, tuple)) or len(parts) != n:
        raise ConfigError(f"{what} must be {n} comma-separated numbers, got {raw!r}")
    return tuple(_typed(v, float, what) for v in parts)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default):
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(key, default)
    return val


def _surface_arg(args, cfg):
    raw = _merged(args, cfg, "surface", None)
    if raw is None:
        raise ConfigError("a surface description is required (--surface or config)")
    return surface_from_json(raw)


def _nav_arg(args, cfg) -> NavigationParams:
    raw = _merged(args, cfg, "nav", None)
    if raw is None:
        return NavigationParams()
    return NavigationParams(*_parse_numbers(raw, "--nav"))


def _surface_echo(surf: SurfaceOfRevolution) -> dict:
    return {"kind": surf.kind, "params": dict(surf.profile.params),
            "domain": [surf.profile.domain[0], surf.profile.domain[1]]}


def cmd_analyze(args) -> int:
    rc = _run_config(args, default_resolution=64, default_band=cx.CRITERION_BAND,
                     bbox=None)
    surf, resolution, band = rc.surface, rc.resolution, rc.band
    threshold = cx.convexity_threshold(rc.nav)
    bbox_raw = rc.extra("bbox")
    bbox = surf.bounding_box() if bbox_raw is None else _parse_numbers(bbox_raw, "--bbox", 4)

    profile = surf.profile
    lo, hi = profile.domain
    xs = np.linspace(bbox[0], bbox[1], resolution)
    ys = np.linspace(bbox[2], bbox[3], resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    S = np.hypot(X, Y)
    # a positive inner edge (waist) has no derivative, keep it outside
    inside = ((S >= lo) if lo == 0.0 else (S > lo)) & (S < hi)
    q = np.full_like(S, np.nan)
    if inside.any():
        d = np.asarray(cx.cartesian_condition(profile, S[inside]))
        q[inside] = d
    verdict = np.where(inside, cx.criterion_verdict(q, band, threshold), "outside")

    # radial profile of the criterion with the threshold line
    dom = cx.convexity_domain(profile, resolution=max(256, resolution), s_max=None)
    s_grid = np.linspace(dom.scan_range[0], dom.scan_range[1], max(256, resolution))
    cond = np.asarray(cx.cartesian_condition(profile, s_grid))

    if rc.format == "json":
        payload = {
            "surface": _surface_echo(surf),
            "bbox": list(bbox),
            "resolution": resolution,
            "band": band,
            "threshold": threshold,
            "x": xs, "y": ys,
            "grad_norm2": q,
            "verdict": verdict,
            "profile": {"s": s_grid, "condition": cond},
        }
        _emit(_dump_json(payload), rc.out)
    else:
        lines = ["x,y,grad_norm2,verdict"]
        for i in range(resolution):
            for j in range(resolution):
                qv = "nan" if not np.isfinite(q[i, j]) else _fmt(q[i, j])
                lines.append(f"{_fmt(xs[i])},{_fmt(ys[j])},{qv},{verdict[i, j]}")
        lines.append("")
        lines.append("s,condition,threshold")
        for k in range(len(s_grid)):
            lines.append(f"{_fmt(s_grid[k])},{_fmt(cond[k])},{_fmt(threshold)}")
        _emit("\n".join(lines) + "\n", rc.out)
    return 0


def cmd_domain(args) -> int:
    rc = _run_config(args, smax=None)
    surf = rc.surface
    smax = rc.extra("smax")
    dom = cx.convexity_domain(surf.profile, resolution=rc.resolution,
                              s_max=None if smax is None else _typed(smax, float, "smax"),
                              threshold=cx.convexity_threshold(rc.nav))
    if rc.format == "json":
        payload = {
            "surface": _surface_echo(surf),
            "domain": dom.to_dict(),
            "asymptote": cx.condition_asymptote(surf.profile),
        }
        _emit(_dump_json(payload), rc.out)
    else:
        lines = ["type,a,b"]
        for a, b in dom.intervals:
            lines.append(f"interval,{_fmt(a)},{_fmt(b)}")
        for r, res in dom.boundary_roots:
            lines.append(f"root,{_fmt(r)},{_fmt(res)}")
        _emit("\n".join(lines) + "\n", rc.out)
    return 0


def cmd_verify(args) -> int:
    rc = _run_config(args, need_surface=False,
                     samples=200, directions=64, threshold=None, surfaces=None)

    surfaces_raw = args.surface or rc.extra("surfaces")
    if surfaces_raw:
        jobs = [(None, s, None) for s in surfaces_raw]
    else:
        jobs = BUILTIN_VERIFY_SUITE

    threshold = rc.extra("threshold")
    if threshold is None:
        threshold = cx.convexity_threshold(rc.nav)
    else:
        threshold = _typed(threshold, float, "threshold")
    reports = []
    total_disagreements = 0
    for label, desc, s_range in jobs:
        surf = surface_from_json(desc)
        plan = cx.SamplePlan(
            n_points=rc.extra("samples", int), seed=rc.seed, band=rc.band,
            n_directions=rc.extra("directions", int),
            s_range=s_range, threshold=threshold,
        )
        rep = cx.verify_equivalence(surf, plan, rc.nav)
        if label:
            rep.surface = label
        total_disagreements += len(rep.disagreements)
        reports.append(rep.to_dict())
    payload = {"reports": reports, "total_disagreements": total_disagreements,
               "threshold": threshold}
    _emit(_dump_json(payload), rc.out)
    return 0 if total_disagreements == 0 else 1


def cmd_indicatrix(args) -> int:
    rc = _run_config(args, at=None, n=256)
    at = rc.extra("at")
    if at is None:
        raise ConfigError("--at x,y is required")
    x0, y0 = _parse_numbers(at, "--at")
    n = rc.extra("n", int)
    ind = gd.indicatrix(rc.surface, x0, y0, rc.nav, n=n)
    if rc.format == "json":
        payload = {
            "surface": _surface_echo(rc.surface),
            "center": list(ind.center),
            "n": n,
            "frame": None if ind.frame is None else ind.frame,
            "fit": {"c0": ind.fit.c0, "c1": ind.fit.c1, "max_residual": ind.fit.max_residual},
            "convex": ind.convex,
            "max_F_residual": ind.max_F_residual,
            "samples": ind.samples,
        }
        _emit(_dump_json(payload), rc.out)
    else:
        lines = ["index,dx,dy"]
        for i, (dx, dy) in enumerate(ind.samples):
            lines.append(f"{i},{_fmt(dx)},{_fmt(dy)}")
        _emit("\n".join(lines) + "\n", rc.out)
    return 0


def _distinct_text(columns) -> np.ndarray:
    """``_fmt`` text of the concatenated columns, formatting each distinct value once.

    Values are told apart by bit pattern, which keeps 0.0 and -0.0 apart.
    """
    bits, where = np.unique(np.concatenate(columns).view(np.uint64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)[where]


def _rays_csv(rays) -> str:
    """CSV rows ``ray_id,t,x,y,F``, each value as ``_fmt`` formats it.

    The rays of a front share one time grid and F is conserved along each
    ray, so the t and F columns hold few distinct values and are formatted
    once per value; x and y take one "%" call per ray.
    """
    t_text = _distinct_text([np.asarray(ray.t, dtype=float) for ray in rays])
    f_text = _distinct_text([np.asarray(ray.F_values, dtype=float) for ray in rays])
    parts = ["ray_id,t,x,y,F\n"]
    start = 0
    for rid, ray in enumerate(rays):
        n = len(ray.t)
        cells = np.empty((n, 4), dtype=object)
        cells[:, 0] = t_text[start:start + n]
        cells[:, 1:3] = ray.points
        cells[:, 3] = f_text[start:start + n]
        parts.append((f"{rid},%s,%.17g,%.17g,%s\n" * n) % tuple(cells.ravel().tolist()))
        start += n
    return "".join(parts)


def cmd_geodesic(args) -> int:
    rc = _run_config(args, default_format="csv",
                     start=None, dir=None, length=0.5, step=1e-3)
    start = rc.extra("start")
    direction = rc.extra("dir")
    if start is None or direction is None:
        raise ConfigError("--start x,y and --dir dx,dy are required")
    start = _parse_numbers(start, "--start")
    direction = _parse_numbers(direction, "--dir")

    path = gd.geodesic_shoot(rc.surface, start, direction, rc.extra("length", float),
                             step=rc.extra("step", float), nav=rc.nav)
    if rc.format == "csv":
        _emit(_rays_csv([path]), rc.out)
    else:
        payload = {
            "surface": _surface_echo(rc.surface),
            "status": path.status,
            "nodes": len(path.t),
            "t_end": path.t[-1],
            "end_point": path.points[-1],
            "end_velocity": path.velocities[-1],
            "F_drift_per_unit_length": gd.conservation_drift(path),
        }
        _emit(_dump_json(payload), rc.out)
    if path.left_domain:
        if rc.strict:
            print("geodesic left the strong-convexity domain", file=sys.stderr)
            return 3
        print("warning: geodesic left the strong-convexity domain", file=sys.stderr)
    return 0


def cmd_front(args) -> int:
    rc = _run_config(args, default_format="csv",
                     seed_point=None, time=0.5, rays=64, step=1e-3, fronts=1)
    seed_pt = rc.extra("seed_point")
    if seed_pt is None:
        raise ConfigError("--seed-point x,y is required")
    seed_pt = _parse_numbers(seed_pt, "--seed-point")

    wf = gd.wavefront(rc.surface, seed_pt, rc.extra("time", float),
                      n_rays=rc.extra("rays", int), step=rc.extra("step", float),
                      nav=rc.nav, n_fronts=rc.extra("fronts", int))
    if rc.format == "csv":
        _emit(_rays_csv(wf.rays), rc.out)
    else:
        payload = {
            "surface": _surface_echo(rc.surface),
            "seed": list(wf.seed),
            "statuses": wf.statuses,
            "fronts": [
                {"time": f.time, "ray_ids": f.ray_ids, "points": f.points,
                 "complete": f.complete}
                for f in wf.fronts
            ],
        }
        _emit(_dump_json(payload), rc.out)
    truncated = [s for s in wf.statuses if s != gd.STATUS_COMPLETE]
    if truncated:
        if rc.strict:
            print(f"{len(truncated)} ray(s) left the strong-convexity domain", file=sys.stderr)
            return 3
        print(f"warning: {len(truncated)} ray(s) left the strong-convexity domain", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopemetric",
        description="Slope metrics on graph surfaces: convexity analysis, "
                    "geodesics, and front propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface_multi=False):
        if surface_multi:
            p.add_argument("--surface", action="append",
                           help="surface JSON (inline or file path); repeatable")
        else:
            p.add_argument("--surface", help="surface JSON (inline or file path)")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--nav", help="navigation params 'v,w' (default 1,1)")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--band", type=float, default=None)
        p.add_argument("--strict", action="store_const", const=True, default=None)

    p = sub.add_parser("analyze", help="criterion field, verdict map, radial profile")
    common(p)
    p.add_argument("--resolution", type=int, default=None, help="grid points per axis")
    p.add_argument("--bbox", help="xmin,xmax,ymin,ymax")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("domain", help="strong-convexity intervals and boundary roots")
    common(p)
    p.add_argument("--resolution", type=int, default=None, help="scan panels (>= 64)")
    p.add_argument("--smax", type=float, default=None, help="clip radius for unbounded domains")
    p.set_defaults(func=cmd_domain)

    p = sub.add_parser("verify", help="cross-check all convexity routes on random samples")
    common(p, surface_multi=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--directions", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="analytic threshold override (test hook; default the nav's "
                        "bound, 1/3 at v = w)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("indicatrix", help="sample the unit curve and fit the limacon")
    common(p)
    p.add_argument("--at", help="chart point 'x,y'")
    p.add_argument("--n", type=int, default=None, help="number of samples")
    p.set_defaults(func=cmd_indicatrix)

    p = sub.add_parser("geodesic", help="trace one time-minimizing path")
    common(p)
    p.add_argument("--start", help="chart point 'x,y'")
    p.add_argument("--dir", help="initial direction 'dx,dy'")
    p.add_argument("--length", type=float, default=None, help="F-arclength (travel time)")
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("front", help="propagate a unit-speed front from a seed")
    common(p)
    p.add_argument("--seed-point", dest="seed_point", help="chart point 'x,y'")
    p.add_argument("--time", type=float, default=None, help="total propagation time")
    p.add_argument("--rays", type=int, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--fronts", type=int, default=None, help="number of reported fronts")
    p.set_defaults(func=cmd_front)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SlopeMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
