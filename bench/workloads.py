"""The three benchmark workloads: surfaces, one operation each, and checks.

An operation is ``call``: the calls into the package that the caller times.
``check`` then validates its result against the acceptance suite's
tolerances, raising ``CheckFailed``, and returns ``(output, work)``: the
bytes produced, which the determinism checks compare, and the useful work
done (live ray-steps, or points and pairs checked).

Modules are looked up as attributes at call time (``cli.main``,
``metric.okubo_solve``, ``geodesics.geodesic_shoot``), so the tracer's
rebinding reaches the calls made here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import slopemetric.cli as cli
from slopemetric import geodesics, metric, surfaces

import inputs

# Tolerances from the acceptance suite (criteria 6, 7 and 9).
DRIFT_TOL = 1e-6
OKUBO_TOL = 1e-9
BOUNDARY_S = 1.0 / math.sqrt(12.0)


class CheckFailed(Exception):
    """An operation returned normally but its output is wrong."""


def build_surfaces(workload: str, seed: int) -> list:
    return [surfaces.surface_from_json(spec) for spec in inputs.surface_specs(workload, seed)]


def _quiet_cli(argv: list[str]) -> int:
    """Run the CLI in-process, keeping its stderr warnings out of the log."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 2


class FrontParaboloid:
    """One `slopemetric front` call, 256 rays, CSV to a file."""

    name = "front_paraboloid"

    def __init__(self, seed: int, surfs: list, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def call(self, i: int, tag: str):
        x, y = inputs.front_seed_point(self.seed, i)
        out = self.out_dir / f"front_{tag}.csv"
        code = _quiet_cli([
            "front", "--surface", json.dumps(inputs.PARABOLOID_SPEC),
            f"--seed-point={x!r},{y!r}", "--time", repr(inputs.FRONT_TIME),
            "--rays", str(inputs.FRONT_RAYS), "--step", repr(inputs.FRONT_STEP),
            "--fronts", str(inputs.FRONT_FRONTS), "--out", str(out),
        ])
        return code, out

    @staticmethod
    def check(result):
        code, out = result
        if code != 0:
            raise CheckFailed(f"front exited {code}")
        data = out.read_bytes()
        header = data[:data.index(b"\n")]
        if header != b"ray_id,t,x,y,F":
            raise CheckFailed(f"unexpected CSV header {header!r}")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        ids = rows[:, 0].astype(int)
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        if not np.array_equal(ids[starts], np.arange(inputs.FRONT_RAYS)):
            raise CheckFailed("ray ids are not 0..n-1 in order")
        T, step = inputs.FRONT_TIME, inputs.FRONT_STEP
        for a, b in zip(starts, np.append(starts[1:], len(ids))):
            t, F = rows[a:b, 1], rows[a:b, 4]
            if t[0] != 0.0:
                raise CheckFailed("a ray does not start at t = 0")
            drift = np.max(np.abs(F[1:] - F[0]) / F[0] / np.maximum(t[1:], step), initial=0.0)
            if drift > DRIFT_TOL:
                raise CheckFailed(f"ray {ids[a]}: F drift {drift:.3e} per unit length")
            if t[-1] != T:
                # a truncated ray must stop inside the convexity disk, within
                # one step (chart speed <= 2 at unit F-speed) of its edge
                s_end = math.hypot(rows[b - 1, 2], rows[b - 1, 3])
                if not BOUNDARY_S - 2.0 * step <= s_end < BOUNDARY_S:
                    raise CheckFailed(f"ray {ids[a]} stops at t={t[-1]}, s={s_end} off the boundary")
        return data, len(ids) - inputs.FRONT_RAYS


class GeodesicTable:
    """One library `geodesic_shoot` of one ray on a custom table profile."""

    name = "geodesic_table"

    def __init__(self, seed: int, surfs: list, out_dir: Path):
        self.seed = seed
        (self.surf,) = surfs
        s = np.linspace(0.0, inputs.TABLE_S_MAX, 4096)
        q = np.square(surfaces.profile_derivative(self.surf.profile, s))
        if not np.all(q < 1.0 / 3.0):
            raise CheckFailed("table profile is not strongly convex everywhere")

    def call(self, i: int, tag: str):
        start, direction = inputs.geodesic_shot(self.seed, i)
        return geodesics.geodesic_shoot(self.surf, start, direction, inputs.GEODESIC_LENGTH,
                                        step=inputs.GEODESIC_STEP)

    @staticmethod
    def check(path):
        if path.status != geodesics.STATUS_COMPLETE:
            raise CheckFailed(f"shot stopped early: {path.status}")
        if path.t[-1] != inputs.GEODESIC_LENGTH:
            raise CheckFailed(f"shot ends at t={path.t[-1]!r}")
        drift = geodesics.conservation_drift(path)
        if drift > DRIFT_TOL:
            raise CheckFailed(f"shot F drift {drift:.3e} per unit length")
        data = b"".join(a.tobytes() for a in (path.t, path.points, path.velocities, path.F_values))
        return data, len(path.t) - 1


class Crosscheck:
    """`slopemetric verify` over the builtin suite plus okubo/quotient pairs."""

    name = "crosscheck"

    def __init__(self, seed: int, surfs: list, out_dir: Path):
        self.seed = seed
        self.surfs = surfs
        self.out_dir = out_dir

    def call(self, i: int, tag: str):
        verify_seed, pairs = inputs.crosscheck_inputs(self.seed, i)
        out = self.out_dir / f"verify_{tag}.json"
        code = _quiet_cli(["verify", "--seed", str(verify_seed), "--out", str(out)])
        F = np.empty((len(pairs), 2))
        for j, (k, x, y, dx, dy) in enumerate(pairs):
            d = np.array([dx, dy])
            F[j] = (metric.okubo_solve(self.surfs[k], x, y, d),
                    metric.slope_metric_F(self.surfs[k], x, y, d))
        return code, out, F

    @staticmethod
    def check(result):
        code, out, F = result
        data = out.read_bytes()
        report = json.loads(data)
        if code != 0 or report["total_disagreements"] != 0:
            raise CheckFailed(f"verify exited {code} with "
                              f"{report['total_disagreements']} disagreement(s)")
        checked = sum(r["samples"] for r in report["reports"])
        if checked != len(inputs.OKUBO_WINDOWS) * inputs.VERIFY_SAMPLES:
            raise CheckFailed(f"verify checked {checked} points")
        worst = float(np.max(np.abs(F[:, 0] - F[:, 1]) / F[:, 1]))
        if not worst <= OKUBO_TOL:
            raise CheckFailed(f"okubo vs closed form: worst relative difference {worst:.3e}")
        return data + F.tobytes(), checked + len(F)


WORKLOAD_CLASSES = {cls.name: cls for cls in (FrontParaboloid, GeodesicTable, Crosscheck)}
