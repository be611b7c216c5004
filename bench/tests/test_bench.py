"""Behaviour of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/tests -q

Runs the real command on short runs (``--seconds 0`` still runs the
minimum number of operations), so the whole file takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_out" / "tests"
COUNT_SUFFIXES = (".calls", ".nodes", ".points", ".directions")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc


def result_of(proc) -> dict:
    """The JSON result; the exit code is 0 exactly when every operation passed."""
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == (0 if res["correct"] else 1), proc.stderr
    return res


def test_inputs_follow_the_seed():
    for seed in (1, 2):
        assert inputs.front_seed_point(seed, 0) == inputs.front_seed_point(seed, 0)
        assert inputs.table_spec(seed) == inputs.table_spec(seed)
    assert inputs.front_seed_point(1, 0) != inputs.front_seed_point(2, 0)
    assert inputs.front_seed_point(1, 0) != inputs.front_seed_point(1, 1)
    assert inputs.geodesic_shot(1, 0) != inputs.geodesic_shot(2, 0)
    assert inputs.table_spec(1) != inputs.table_spec(2)
    assert inputs.crosscheck_inputs(1, 0) != inputs.crosscheck_inputs(2, 0)
    x, y = inputs.front_seed_point(3, 5)
    assert inputs.FRONT_SEED_RING[0] <= math.hypot(x, y) <= inputs.FRONT_SEED_RING[1]


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH)


# geodesic_shoot on a spline table profile exceeds the 1e-6 drift tolerance
# on a few shots in a hundred; the benchmark reports them in error_rate.
KNOWN_DRIFT_DEFECT = pytest.mark.xfail(
    raises=workloads.CheckFailed, strict=False,
    reason="geodesic_shoot F drift above 1e-6 on some spline-table shots")


@pytest.mark.parametrize("workload", [
    "front_paraboloid", "crosscheck",
    pytest.param("geodesic_table", marks=KNOWN_DRIFT_DEFECT),
])
def test_new_seed_passes_every_check(workload, scratch):
    seed = 20260917
    wl = workloads.WORKLOAD_CLASSES[workload](seed, workloads.build_surfaces(workload, seed), scratch)
    for i in range(2):
        data, work = wl.check(wl.call(i, "test"))
        assert data and work > 0


def test_untraced_run_prints_every_end_to_end_metric():
    res = result_of(run_bench("crosscheck", 5, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 12
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run_bench(workload, 7, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["failed"] == second["failed"]
    counts = [k for k, unit in expected.items()
              if k.endswith(COUNT_SUFFIXES) or unit in ("count", "bytes", "nodes/step")]
    assert "geodesics.live_ray_steps" in counts
    for key in counts + ["geodesics.F_drift_max"]:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_self_times_sum_to_wall_time_minus_bookkeeping(scratch):
    seed = 3
    tr = tracer.Tracer()
    wl = workloads.GeodesicTable(seed, workloads.build_surfaces("geodesic_table", seed), scratch)
    with tr.installed():
        t0 = time.perf_counter()
        with tr.operation(0):
            wl.call(0, "test")
        wall = time.perf_counter() - t0
    own, bookkeeping = tr.self_times()
    parts = [v for (op, _), v in own.items() if op == 0]
    assert min(parts) >= -1e-9
    total = sum(parts) + bookkeeping[0]
    assert total <= wall
    assert wall - total <= 1e-3 * wall
    assert bookkeeping[0] > 0


def test_tracer_restores_the_package():
    from slopemetric import cli, geodesics, metric, surfaces

    before = (metric.slope_metric_F, geodesics.slope_metric_F, cli.main,
              surfaces.SurfaceOfRevolution.__dict__["gradient"])
    tr = tracer.Tracer()
    with tr.installed():
        assert geodesics.slope_metric_F is not before[1]
        assert metric.slope_metric_F is geodesics.slope_metric_F
    after = (metric.slope_metric_F, geodesics.slope_metric_F, cli.main,
             surfaces.SurfaceOfRevolution.__dict__["gradient"])
    assert after == before


def test_fails_without_the_package(scratch):
    """A directory with only BENCHMARK.json and bench/ has no program to run."""
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("front_paraboloid", 1, trace=0, cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
