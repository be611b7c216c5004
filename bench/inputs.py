"""Seeded inputs for the benchmark workloads, in pure Python.

Nothing here imports numpy or slopemetric, so the set-up probe can build a
workload's inputs before it starts its clock.  Every value comes from
``random.Random`` seeded with a string, which is stable across Python
versions: the same workload seed always gives the same inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("front_paraboloid", "geodesic_table", "crosscheck")

PARABOLOID_SPEC = {"kind": "paraboloid", "params": {"h": 100.0}}

# front_paraboloid: the Roadmap's front path at full batch width
FRONT_RAYS = 256
FRONT_TIME = 0.3
FRONT_STEP = 1e-3
FRONT_FRONTS = 3
# Seed points lie in the ring 0.1 <= s <= 0.15 of the disk s <= 0.15: from
# there some rays always reach T, so every operation integrates all 300
# steps.  Nearer the axis every ray leaves the convexity disk early and the
# operation ends sooner, so its cost would depend on the draw.
FRONT_SEED_RING = (0.1, 0.15)

# geodesic_table: one ray on a 256-row table profile
TABLE_ROWS = 256
TABLE_S_MAX = 3.0
TABLE_WAVENUMBER = 2.0
GEODESIC_LENGTH = 0.3
GEODESIC_STEP = 1e-3
# Start radii keep the whole path (at most ~0.6 of chart distance in travel
# time 0.3) away from the axis and the table's outer edge.
GEODESIC_START_S = (0.8, 1.6)

# crosscheck: part (a) is `verify` over the builtin suite, part (b) okubo
# pairs drawn from the windows acceptance criterion 7 sweeps.
VERIFY_SAMPLES = 200
OKUBO_PAIRS_PER_SURFACE = 167
OKUBO_WINDOWS = (
    ({"kind": "paraboloid", "params": {"h": 100.0}}, (0.05, 4.75)),
    ({"kind": "cone", "params": {"a": 0.5}}, (0.1, 4.9)),
    ({"kind": "ellipsoid", "params": {"a": 1.0, "c": 1.0}}, (0.05, 0.95)),
    ({"kind": "hyperboloid2", "params": {"a": 0.5, "b": 1.0}}, (0.05, 4.9)),
    ({"kind": "hyperboloid1", "params": {"a": 0.5, "b": 1.0}}, (1.2, 4.8)),
    ({"kind": "gaussian", "params": {}}, (0.05, 4.9)),
)


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def table_spec(seed: int) -> dict:
    """The builtin gaussian bump plus a small seeded sinusoid, as a 256-row table.

    |phi'| stays below 0.18 + 0.005 * 2 < 0.2, far inside the strong
    convexity bound 1/sqrt(3), so every shot on it completes.
    """
    rng = _rng("geodesic_table", seed, "table")
    amp = 1.0 / (2.0 * math.sqrt(6.0))
    eps = rng.uniform(0.002, 0.005)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    rows = []
    for j in range(TABLE_ROWS):
        s = TABLE_S_MAX * j / (TABLE_ROWS - 1)
        bump = amp * math.exp(-s * s)
        z = bump + eps * math.sin(TABLE_WAVENUMBER * s + phase)
        rows.append([s, z])
    return {"kind": "custom", "params": {"table": rows}}


def surface_specs(workload: str, seed: int) -> list[dict]:
    """The surface descriptions a workload builds once per run."""
    if workload == "front_paraboloid":
        return [PARABOLOID_SPEC]
    if workload == "geodesic_table":
        return [table_spec(seed)]
    if workload == "crosscheck":
        return [spec for spec, _ in OKUBO_WINDOWS]
    raise ValueError(f"unknown workload {workload!r}")


def front_seed_point(seed: int, i: int) -> tuple[float, float]:
    """Seed point of operation i, uniform by area in the seed ring."""
    rng = _rng("front_paraboloid", seed, i)
    lo, hi = FRONT_SEED_RING
    r = math.sqrt(rng.uniform(lo * lo, hi * hi))
    th = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(th), r * math.sin(th))


def geodesic_shot(seed: int, i: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(start, direction) of operation i."""
    rng = _rng("geodesic_table", seed, i)
    s = rng.uniform(*GEODESIC_START_S)
    th = rng.uniform(0.0, 2.0 * math.pi)
    td = rng.uniform(0.0, 2.0 * math.pi)
    return (s * math.cos(th), s * math.sin(th)), (math.cos(td), math.sin(td))


def crosscheck_inputs(seed: int, i: int) -> tuple[int, list[tuple[int, float, float, float, float]]]:
    """Verify seed and okubo pairs (surface index, x, y, dx, dy) of operation i."""
    rng = _rng("crosscheck", seed, i)
    verify_seed = rng.getrandbits(31)
    pairs = []
    for k, (_, (s_lo, s_hi)) in enumerate(OKUBO_WINDOWS):
        for _ in range(OKUBO_PAIRS_PER_SURFACE):
            s = rng.uniform(s_lo, s_hi)
            tp = rng.uniform(0.0, 2.0 * math.pi)
            td = rng.uniform(0.0, 2.0 * math.pi)
            pairs.append((k, s * math.cos(tp), s * math.sin(tp), math.cos(td), math.sin(td)))
    return verify_seed, pairs
