"""Command-line front end: analysis, verification, and plot-ready exports.

Six subcommands (analyze, domain, verify, indicatrix, geodesic, front) wrap
the library; every run is configured by flags and/or a JSON config file
(flags win), and identical configurations produce byte-identical output.
Every CSV goes through one writer, ``_csv``: each float as ``_fmt``'s 17
significant digits, so golden files stay stable, and the rows in chunks, so
``--out`` is opened only once the first chunk is ready.

Exit codes: 0 success, 1 verification disagreement, 2 malformed
configuration, 3 surface-domain or geometry error, 4 output not writable
(``--out`` cannot be opened, or a write fails), 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import convexity as cx
from . import geodesics as gd
from .errors import ConfigError, DerivativeBlowupWarning, DoubleRootWarning, SlopeMetricError
from .metric import NORMALIZED, NavigationParams
from .surfaces import SurfaceOfRevolution, _scan_window, surface_from_json

__all__ = ["main", "BUILTIN_VERIFY_SUITE"]

# default sampling windows for the builtin verification suite: each entry is
# (surface description, radial sample range); a report names its surface by kind
BUILTIN_VERIFY_SUITE = [
    ({"kind": "paraboloid", "params": {"h": 100.0}}, (0.0, 1.0)),
    ({"kind": "cone", "params": {"a": 0.5}}, (0.05, 5.0)),
    ({"kind": "ellipsoid", "params": {"a": 1.0, "c": 1.0}}, None),
    ({"kind": "hyperboloid2", "params": {"a": 0.5, "b": 1.0}}, (0.0, 5.0)),
    ({"kind": "hyperboloid1", "params": {"a": 0.5, "b": 1.0}}, (1.01, 5.0)),
    ({"kind": "gaussian", "params": {}}, (0.0, 5.0)),
]


def _int(raw) -> int:
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _finite(raw) -> float:
    if isinstance(raw, bool):
        raise ValueError(f"expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _numbers(n: int):
    """Converter to n finite numbers from a flag's "a,b,..." string or a config file's list."""
    def convert(raw) -> tuple[float, ...]:
        parts = raw.split(",") if isinstance(raw, str) else raw
        if not isinstance(parts, (list, tuple)) or len(parts) != n:
            raise ValueError(f"must be {n} comma-separated numbers, got {raw!r}")
        return tuple(_finite(v) for v in parts)
    return convert


def _exactly(cls, what: str):
    """Converter that passes only instances of ``cls`` (JSON true/false, or a string)."""
    def convert(raw):
        if not isinstance(raw, cls):
            raise ValueError(f"expected {what}, got {raw!r}")
        return raw
    return convert


FORMATS = ("csv", "json")


def _format(raw) -> str:
    if raw not in FORMATS:
        raise ValueError(f"unknown format {raw!r}")
    return raw


def _surfaces(raw) -> list[SurfaceOfRevolution]:
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of surface descriptions, got {raw!r}")
    return [surface_from_json(desc) for desc in raw]


class Kind(NamedTuple):
    """``convert`` types a flag's or config file's value, raising on a wrong one;
    ``flag`` holds the argparse keywords of the option's flag."""

    convert: Callable | None
    flag: dict


_pair = _numbers(2)
INT = Kind(_int, {"type": int})
FLOAT = Kind(_finite, {"type": float})
BOOL = Kind(_exactly(bool, "true or false"), {"action": "store_const", "const": True})
STR = Kind(_exactly(str, "a string"), {})
FORMAT = Kind(_format, {"choices": FORMATS})
PAIR = Kind(_pair, {})
BOX = Kind(_numbers(4), {})
NAV = Kind(lambda raw: NavigationParams(*_pair(raw)), {})
SURFACES = Kind(_surfaces, {"action": "append", "metavar": "SURFACE"})
CONFIG = Kind(None, {})  # the config file's path, which is not itself a config key

REQUIRED = object()  # the default of an option that has none


def _default(entry: Callable, name: str):
    """The default of ``entry``'s parameter ``name``, which an option that feeds it reads."""
    return inspect.signature(entry).parameters[name].default


class Option(NamedTuple):
    """``key`` names the config key and the attribute the command reads; the
    default is REQUIRED, None (unset) or a value the kind converts."""

    key: str
    flag: str
    kind: Kind
    default: object
    help: str | None = None


# every subcommand reads these and lists them after its --surface, so that
# --surface leads its help text and is the first option reported missing
SHARED = (
    Option("config", "--config", CONFIG, None, "JSON config file; flags override its keys"),
    Option("nav", "--nav", NAV, (NORMALIZED.v, NORMALIZED.w),
           f"navigation params 'v,w' (default {NORMALIZED.v:g},{NORMALIZED.w:g})"),
    Option("out", "--out", STR, None, "output file (default stdout)"),
)


def _options(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options: each flag, else its config key, else its default,
    converted by its kind.

    A missing required option or a value its kind rejects is a ConfigError
    (exit 2).  A config null leaves an option without a default unset; for
    any other option it is a wrong value.
    """
    cfg = _load_config_file(args.config)
    opts = argparse.Namespace()
    for opt in args.options:
        if opt.kind is CONFIG:
            continue
        raw = getattr(args, opt.key)
        if raw is None:
            raw = cfg.get(opt.key, opt.default)
        if raw is REQUIRED or raw is None and opt.default is REQUIRED:
            raise ConfigError(f"{opt.flag} is required (or {opt.key!r} in the config file)")
        if raw is not None or opt.default is not None:
            try:
                raw = opt.kind.convert(raw)
            except SlopeMetricError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {opt.key}: {exc}") from exc
        setattr(opts, opt.key, raw)
    return opts


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


class _WriteFailed(Exception):
    """``--out`` could not be opened, or writing the output failed (an OSError)."""


def _emit(output: str | Iterable[str], out: str | None) -> None:
    """Write one string, or the chunks of an iterable in turn, to ``out`` or stdout.

    ``out`` is opened only once the first chunk is ready, so a run that
    fails before then leaves an existing file as it was.  stdout is flushed
    here, so a failing write raises here too; an OSError other than a closed
    pipe becomes ``_WriteFailed``.
    """
    chunks = iter([output] if isinstance(output, str) else output)
    first = next(chunks, "")
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
            stream.write(first)
            stream.writelines(chunks)
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _WriteFailed(exc) from exc


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


def _surface_echo(surf: SurfaceOfRevolution) -> dict:
    return {"kind": surf.kind, "params": dict(surf.profile.params),
            "domain": [surf.profile.domain[0], surf.profile.domain[1]]}


def cmd_analyze(opts) -> int:
    if opts.resolution < 64:
        raise ConfigError("resolution must be at least 64")
    if opts.band < 0:
        raise ConfigError("band must be nonnegative")
    surf, resolution, band = opts.surface, opts.resolution, opts.band
    bbox = opts.bbox or surf.bounding_box()

    profile = surf.profile
    # radial profile of the criterion on the domain scan's window, with the threshold line
    s_grid = np.linspace(*_scan_window(profile), max(256, resolution))
    cond = np.asarray(cx.cartesian_condition(profile, s_grid))
    threshold = cx.convexity_threshold(opts.nav)

    lo, hi = profile.domain
    xs = np.linspace(bbox[0], bbox[1], resolution)
    ys = np.linspace(bbox[2], bbox[3], resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    S = np.hypot(X, Y)
    # a positive inner edge (waist) and a non-smooth apex have no gradient:
    # only a smooth apex joins the points strictly inside
    inside = ((S > lo) | (S == 0.0) & surf.apex_smooth) & (S < hi)
    q = np.full_like(S, np.nan)
    if inside.any():
        d = np.asarray(cx.cartesian_condition(profile, S[inside]))
        q[inside] = d
    labels, verdict = cx.verdict_codes(q, threshold, band, inside)

    if opts.format == "json":
        payload = {
            "surface": _surface_echo(surf),
            "bbox": list(bbox),
            "resolution": resolution,
            "band": band,
            "threshold": threshold,
            "x": xs, "y": ys,
            "grad_norm2": q,
            "verdict": labels[verdict],
            "profile": {"s": s_grid, "condition": cond},
        }
        _emit(_dump_json(payload), opts.out)
    else:
        # a blank line parts the grid from the radial profile
        grid = np.stack([X, Y, q], axis=-1).reshape(-1, 3)
        radial = np.stack([s_grid, cond, np.full_like(s_grid, threshold)], axis=1)
        labeled = (_text_rows(labels), verdict.ravel())
        _emit(itertools.chain(_csv("x,y,grad_norm2,verdict", [grid, labeled]), ["\n"],
                              _csv("s,condition,threshold", [radial])), opts.out)
    return 0


def cmd_domain(opts) -> int:
    surf = opts.surface
    # convexity_domain rejects a resolution below 64
    dom = cx.convexity_domain(surf.profile, resolution=opts.resolution, s_max=opts.smax,
                              nav=opts.nav)
    if opts.format == "json":
        payload = {
            "surface": _surface_echo(surf),
            "domain": dom.to_dict(),
            "asymptote": cx.condition_asymptote(surf.profile),
        }
        _emit(_dump_json(payload), opts.out)
    else:
        labels = np.repeat(["interval", "root"], [len(dom.intervals), len(dom.boundary_roots)])
        values = np.reshape(dom.intervals + dom.boundary_roots, (-1, 2))
        _emit(_csv("type,a,b", [_distinct(labels), values]), opts.out)
    return 0


def cmd_verify(opts) -> int:
    if opts.surfaces:
        jobs = [(surf, None) for surf in opts.surfaces]
    else:
        jobs = [(surface_from_json(desc), s_range) for desc, s_range in BUILTIN_VERIFY_SUITE]

    reports = []
    total_disagreements = 0
    for surf, s_range in jobs:
        plan = cx.SamplePlan(
            n_points=opts.samples, seed=opts.seed, band=opts.band,
            n_directions=opts.directions, s_range=s_range,
        )
        rep = cx.verify_equivalence(surf, plan, opts.nav)
        total_disagreements += len(rep.disagreements)
        reports.append(rep.to_dict())
    payload = {"reports": reports, "total_disagreements": total_disagreements,
               "threshold": cx.convexity_threshold(opts.nav)}
    _emit(_dump_json(payload), opts.out)
    return 0 if total_disagreements == 0 else 1


def cmd_indicatrix(opts) -> int:
    ind = gd.indicatrix(opts.surface, *opts.at, opts.nav, n=opts.n)
    if opts.format == "json":
        payload = {
            "surface": _surface_echo(opts.surface),
            "center": list(ind.center),
            "n": opts.n,
            "frame": ind.frame,
            "fit": {"c0": ind.fit.c0, "c1": ind.fit.c1, "max_residual": ind.fit.max_residual},
            "convex": ind.convex,
            "max_F_residual": ind.max_F_residual,
            "samples": ind.samples,
        }
        _emit(_dump_json(payload), opts.out)
    else:
        _emit(_csv("index,dx,dy", [_distinct(np.arange(len(ind.samples))), ind.samples]), opts.out)
    return 0


# 10^k for k = 0..20, each an exact double
_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])
_ASCII0 = np.uint64(0x3030303030303030)  # "0" in every byte


# _text17's tables are built on first use, so a run that writes no CSV holds
# none of their 160 kB
@functools.cache
def _digit_table() -> np.ndarray:
    """The 4 ASCII digits of g = 0..9999 as a little-endian u64 (first digit
    in the lowest byte); entry 10000 + g holds them with trailing zeros as 0 bytes."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + np.uint8(48)
    trailing = np.logical_and.accumulate(digits[::-1] == 48, axis=0)[::-1]
    both = np.concatenate([digits, np.where(trailing, np.uint8(0), digits)], axis=1)
    return np.ascontiguousarray(both.T).view("<u4").ravel().astype(np.uint64)


@functools.cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per exponent X = -4..16, three (3, 21) u64 tables over a 24-byte field
    whose byte 7 + j holds digit j: the bytes of the integer digits 0..X, the
    point just after them, and "0." with the -X - 1 zeros a value below 1 opens with."""
    X = np.arange(-4, 17)[:, None]
    byte = np.arange(24)
    integer = (7 <= byte) & (byte <= 7 + X)
    point = (byte == 7 + X) & (X >= 0)
    opening = (1 <= byte) & (byte < 2 - X) & (X < 0)
    fills = ((integer, 0xFF), (point, ord(".")), (opening, np.where(byte == 2, ord("."), ord("0"))))
    return tuple(np.where(mask, fill, 0).astype(np.uint8).view("<u8").T.copy() for mask, fill in fills)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = a * b exactly, hi the rounded product (Dekker 1971, Veltkamp's split)."""
    hi = a * b
    c, d = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _text17(values) -> np.ndarray:
    """``_fmt`` text of each value as one (n, 24) uint8 row, padded with 0 bytes.

    Finite values with 1e-4 <= |v| < 1e17 are formatted here, vectorised:
    ``_fmt`` writes them positionally, with the 17 significant digits
    N = round(|v| * 10^(16 - X)) in [10^16, 10^17) and decimal exponent X in
    [-4, 16].  10^(16 - X) is an exact double, so Dekker's two-product gives
    the product exactly as hi + lo; hi >= 10^16 > 2^53 is an even integer,
    so rounding lo half to even rounds the product half to even, as
    CPython's correctly rounded dtoa does.  np.log10 only estimates X, which
    the product's range then corrects, so no SIMD variant of it changes a
    byte.  Every other value (+-0, |v| < 1e-4, |v| >= 1e17, NaN, +-inf)
    goes through ``_fmt``.  The 0 bytes sit anywhere in a row: a reader of
    the text deletes them.
    """
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    inside = (a >= 1e-4) & (a < 1e17)
    a[~inside] = 1.0
    X = np.minimum(np.maximum(np.floor(np.log10(a)), -4), 16).astype(np.intp)
    hi, lo = _two_product(a, _POW10[16 - X])
    # np.log10 only estimates X: move it by one where hi + lo leaves [10^16, 10^17)
    step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.intp)
    step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    moved = np.flatnonzero(step)
    X[moved] += step[moved]
    hi[moved], lo[moved] = _two_product(a[moved], _POW10[16 - X[moved]])
    # N < 10^17: rounding up to 10^(X + 1) would need |v| within half a unit
    # of the 17th digit below it, and the doubles below the powers of ten in
    # the range all lie 16 or more of those half units away
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # N's digits: a lead digit, then four groups of 4; a group is read with
    # its trailing zeros as 0 bytes where every later group is 0
    top = N // 10 ** 8
    bot = N - top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    g1, g3 = top // 10 ** 4, bot // 10 ** 4
    g2, g4 = top - g1 * 10 ** 4, bot - g3 * 10 ** 4
    g1 += 10000 * ((g2 == 0) & (bot == 0))
    g2 += 10000 * (bot == 0)
    g3 += 10000 * (g4 == 0)
    g4 += 10000
    # the field as three little-endian words: digit j in byte 7 + j
    digits = _digit_table()
    words = ((lead + ord("0")).astype(np.uint64) << 56,
             digits[g1] | digits[g2] << 32,
             digits[g3] | digits[g4] << 32)
    # a value >= 1 moves its integer digits (each a "0" again where it was
    # a trailing zero) down one byte, and the point takes the byte of digit
    # X if a nonzero digit follows it
    integer, point, opening = _layout_tables()
    k = X + 4
    masks = [m[k] for m in integer]
    low = [(w | _ASCII0) & m for w, m in zip(words, masks)]
    high = [w & ~m for w, m in zip(words, masks)]
    # row 0 of the point table (X = -4) is all 0 bytes
    kp = k * ((high[1] | high[2]) != 0)
    out = np.empty((v.size, 3), np.uint64)
    out[:, 0] = (low[0] >> 8 | low[1] << 56 | high[0] | point[0][kp] | opening[0][k]
                 | (v < 0) * np.uint64(ord("-")))
    out[:, 1] = low[1] >> 8 | low[2] << 56 | high[1] | point[1][kp]
    out[:, 2] = low[2] >> 8 | high[2] | point[2][kp]
    text = out.view(np.uint8)
    rest = np.flatnonzero(~inside)
    text[rest] = np.array([_fmt(x) for x in v[rest].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
    return text


# rows per chunk of a CSV
_CSV_BLOCK = 2048


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value as a row of 0-padded bytes, and each
    value's row in it: a column for ``_csv`` whose values repeat.

    Floats are told apart by bit pattern, which keeps 0.0 and -0.0 apart,
    and written by ``_text17``; any other value (a label, an id) by ``str``.
    The row index is of the narrowest type that holds it, since a column
    of few distinct values costs its index, not its text.
    """
    values = np.asarray(values).ravel()
    floats = values.dtype.kind == "f"
    keys, where = np.unique(values.view(np.uint64) if floats else values, return_inverse=True)
    text = _text17(keys.view(np.float64)) if floats else _text_rows(keys.tolist())
    return text, where.astype(np.min_scalar_type(keys.size))


def _text_rows(values) -> np.ndarray:
    """The ``str`` of each value as a row of 0-padded ASCII bytes: ``_csv``'s text rows."""
    text = np.array([str(v) for v in values], dtype=bytes)
    return text.view(np.uint8).reshape(len(values), text.itemsize)


def _csv(header: str, columns) -> Iterator[str]:
    """The CSV text of ``header`` and the rows of ``columns``, in chunks.

    A column is an (n,) or (n, k) array of floats, k cells a row, each
    written as ``_fmt`` writes it, or a pair (text rows, row index) from
    ``_distinct`` or, for labels known in advance, ``_text_rows`` and the
    labels' codes.  Each chunk holds up to ``_CSV_BLOCK`` rows, and the first
    one the header too, so a writer never holds the whole text and a failure
    before the first chunk writes nothing.  A chunk's floats go through
    ``_text17`` at once; its cells, each with its separator byte, are laid
    out in one uint8 table with 0-byte padding, which one ``translate`` strips.
    """
    n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    text = header + "\n"
    for start in range(0, n, _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        cells = [col[0][col[1][rows], None] if isinstance(col, tuple)
                 else _text17(col[rows]).reshape(len(col[rows]), -1, 24) for col in columns]
        # a column's k cells of w bytes take k * (w + 1) bytes of a row, each
        # cell followed by its separator
        table = np.full((len(cells[0]), sum(c.shape[1] * (c.shape[2] + 1) for c in cells)),
                        ord(","), np.uint8)
        at = 0
        for c in cells:
            m, k, w = c.shape
            table[:, at:at + k * (w + 1)].reshape(m, k, w + 1, copy=False)[..., :w] = c
            at += k * (w + 1)
        table[:, -1] = ord("\n")
        yield text + table.tobytes().translate(None, b"\0").decode("ascii")
        text = ""
    if text:
        yield text


def _rays_csv(rays) -> Iterator[str]:
    """CSV rows ``ray_id,t,x,y,F``, one for each node of each ray.

    The rays of a front share one time grid and F is conserved along each
    ray, so t and F hold few distinct values.
    """
    # t and F first: np.unique's temporaries are gone before the points are copied
    t = _distinct(np.concatenate([ray.t for ray in rays]))
    F = _distinct(np.concatenate([ray.F_values for ray in rays]))
    ids, order = _distinct(np.arange(len(rays)))
    return _csv("ray_id,t,x,y,F", [(ids, np.repeat(order, [len(ray.t) for ray in rays])), t,
                                   np.concatenate([ray.points for ray in rays]), F])


# the stderr line of each early stop, by the status it gives a ray
_EARLY_STOPS = {
    gd.STATUS_LEFT_DOMAIN: "left the strong-convexity domain",
    gd.STATUS_NON_FINITE: "turned non-finite within one step",
}


def _early_stops(statuses: list[str], strict: bool, subject: str) -> int:
    """Exit code of a run whose rays have these statuses, with one stderr line per kind of stop.

    ``subject.format(count)`` names the ``count`` rays that one line is about.
    """
    code = 0
    for status, what in _EARLY_STOPS.items():
        count = statuses.count(status)
        if count:
            print(f"{'' if strict else 'warning: '}{subject.format(count)} {what}", file=sys.stderr)
            code = 3 if strict else 0
    return code


def cmd_geodesic(opts) -> int:
    path = gd.geodesic_shoot(opts.surface, opts.start, opts.dir, opts.length,
                             step=opts.step, nav=opts.nav)
    if opts.format == "csv":
        _emit(_rays_csv([path]), opts.out)
    else:
        payload = {
            "surface": _surface_echo(opts.surface),
            "status": path.status,
            "nodes": len(path.t),
            "t_end": path.t[-1],
            "end_point": path.points[-1],
            "end_velocity": path.velocities[-1],
            "F_drift_per_unit_length": gd.conservation_drift(path),
        }
        _emit(_dump_json(payload), opts.out)
    return _early_stops([path.status], opts.strict, "geodesic")


def cmd_front(opts) -> int:
    wf = gd.wavefront(opts.surface, opts.seed_point, opts.time, n_rays=opts.rays,
                      step=opts.step, nav=opts.nav, n_fronts=opts.fronts)
    if opts.format == "csv":
        _emit(_rays_csv(wf.rays), opts.out)
    else:
        payload = {
            "surface": _surface_echo(opts.surface),
            "seed": list(wf.seed),
            "statuses": wf.statuses,
            "fronts": [
                {"time": f.time, "ray_ids": f.ray_ids, "points": f.points,
                 "complete": f.complete}
                for f in wf.fronts
            ],
        }
        _emit(_dump_json(payload), opts.out)
    return _early_stops(wf.statuses, opts.strict, "{} ray(s)")


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[Option, ...]


SURFACE = Option("surface", "--surface", Kind(surface_from_json, {}), REQUIRED,
                 "surface JSON (inline or file path)")
JSON = Option("format", "--format", FORMAT, "json")
CSV = Option("format", "--format", FORMAT, "csv")
STRICT = Option("strict", "--strict", BOOL, False)

COMMANDS = {
    "analyze": Command(cmd_analyze, "criterion field, verdict map, radial profile", (
        SURFACE, *SHARED, JSON,
        Option("band", "--band", FLOAT, cx.CRITERION_BAND,
               "half-width of the criterion's indeterminate band around the threshold"),
        Option("resolution", "--resolution", INT, 64, "grid points per axis"),
        Option("bbox", "--bbox", BOX, None, "xmin,xmax,ymin,ymax"),
    )),
    "domain": Command(cmd_domain, "strong-convexity intervals and boundary roots", (
        SURFACE, *SHARED, JSON,
        Option("resolution", "--resolution", INT, 2048, "scan panels (>= 64)"),
        Option("smax", "--smax", FLOAT, None, "clip radius for unbounded domains"),
    )),
    "verify": Command(cmd_verify, "cross-check all convexity routes on random samples", (
        Option("surfaces", "--surface", SURFACES, None,
               "surface JSON (inline or file path); repeatable"),
        *SHARED,
        Option("seed", "--seed", INT, cx.SamplePlan.seed),
        Option("band", "--band", FLOAT, cx.SamplePlan.band,
               "radial exclusion distance around each convexity boundary, "
               "waist and non-smooth apex"),
        Option("samples", "--samples", INT, cx.SamplePlan.n_points),
        Option("directions", "--directions", INT, cx.SamplePlan.n_directions),
    )),
    "indicatrix": Command(cmd_indicatrix, "sample the unit curve and fit the limacon", (
        SURFACE, *SHARED, JSON,
        Option("at", "--at", PAIR, REQUIRED, "chart point 'x,y'"),
        Option("n", "--n", INT, _default(gd.indicatrix, "n"), "number of samples"),
    )),
    "geodesic": Command(cmd_geodesic, "trace one time-minimizing path", (
        SURFACE, *SHARED, CSV, STRICT,
        Option("start", "--start", PAIR, REQUIRED, "chart point 'x,y'"),
        Option("dir", "--dir", PAIR, REQUIRED, "initial direction 'dx,dy'"),
        Option("length", "--length", FLOAT, 0.5, "F-arclength (travel time)"),
        Option("step", "--step", FLOAT, _default(gd.geodesic_shoot, "step")),
    )),
    "front": Command(cmd_front, "propagate a unit-speed front from a seed", (
        SURFACE, *SHARED, CSV, STRICT,
        Option("seed_point", "--seed-point", PAIR, REQUIRED, "chart point 'x,y'"),
        Option("time", "--time", FLOAT, 0.5, "total propagation time"),
        Option("rays", "--rays", INT, _default(gd.wavefront, "n_rays")),
        Option("step", "--step", FLOAT, _default(gd.wavefront, "step")),
        Option("fronts", "--fronts", INT, _default(gd.wavefront, "n_fronts"),
               "number of reported fronts"),
    )),
}


# built by the first ``main`` call and reused: argparse keeps no state between
# parses, and a run that only imports the module pays nothing for it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopemetric",
        description="Slope metrics on graph surfaces: convexity analysis, "
                    "geodesics, and front propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            p.add_argument(opt.flag, dest=opt.key, help=opt.help, **opt.kind.flag)
        p.set_defaults(func=command.run, options=command.options, parser=p)
    return parser


# the library's own warnings, which a run reports to its user
_REPORTED = (DoubleRootWarning, DerivativeBlowupWarning)


def _quiet_stdout() -> None:
    """Point stdout at devnull, so the interpreter's final flush of what a failed
    write left buffered adds nothing to stderr."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        # reported with the subcommand's usage, which lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    with warnings.catch_warnings():
        # each reported warning is one "warning:" line, without the source
        # path and code line; numpy's own warnings keep the caller's filters
        show = warnings.showwarning

        def report(message, category, *where):
            if issubclass(category, _REPORTED):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *where)

        warnings.showwarning = report
        for category in _REPORTED:
            warnings.simplefilter("always", category)
        try:
            return args.func(_options(args))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except SlopeMetricError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # the reader closed stdout early: no failure of the run.  141 is a
            # shell's SIGPIPE code
            _quiet_stdout()
            return 141
        except _WriteFailed as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            _quiet_stdout()
            return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
