"""Benchmark of slopemetric: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload front_paraboloid --seed 1 --seconds 50 --trace 0

Workloads: ``front_paraboloid`` and ``crosscheck`` (those BENCHMARK.json
gates), and ``geodesic_table``, which runs and checks the same way but is
not gated: a few of its shots fail the conservation-drift check (a defect
of ``geodesic_shoot`` on spline table profiles), and a gated workload must
have no failing operation.  Its failures count in ``error_rate``.

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing needs installing.  Each operation starts only
after the previous one returned.  Inputs come from ``--seed`` alone
(``inputs.py``); every operation's output is checked (``workloads.py``),
and operation 0 is run twice with identical arguments, whose outputs must
match byte for byte.

``--trace 0`` times the untraced loop and reports the end-to-end metrics.
``--trace 1`` alternates each operation traced (``tracer.py``) with its
untraced twin, requires the two outputs to be byte-identical, and reports
the per-layer metrics plus the tracing overhead; the spans go to
``.bench_out/trace_<workload>.csv``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation passed its checks.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(1, str(SRC))

import inputs  # noqa: E402  (pure Python)

# One closed-loop caller: the numeric libraries' thread pools are pinned (at
# most nproc) before numpy loads, here and in the probe interpreters.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_LAUNCHES = 5   # fresh interpreters per run for setup_s
IMPORT_LAUNCHES = 3  # fresh interpreters per traced run for slopemetric.import_s
MIN_OPS = 11         # so op_s_tail always has ten operations beyond it
COUNT_OPS = 2        # traced operations whose counts are reported

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "work_per_s": "1/s",
             "peak_rss_mb": "MB"}
THROUGHPUT_NAME = {
    "front_paraboloid": "ray_steps_per_s",
    "geodesic_table": "ray_steps_per_s",
    "crosscheck": "checks_per_s",
}

perf = time.perf_counter


def import_package():
    """Import slopemetric from this checkout's src/, or stop the run."""
    try:
        import slopemetric
    except ImportError as exc:
        raise SystemExit(f"error: cannot import slopemetric from {SRC}: {exc}")
    if Path(slopemetric.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: slopemetric was imported from {slopemetric.__file__}, not {SRC}")


def probe(mode: str, workload: str, seed: int) -> float:
    """Seconds one fresh interpreter spends on a start-up step."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), mode, workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, across all phases of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)

    def attempt(self, wl, i: int, tag: str, tracer=None):
        """Run operation i; returns (seconds, output bytes, work) or None."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = perf()
                result = wl.call(i, tag)
                seconds = perf() - t0
            else:
                with tracer.installed():
                    t0 = perf()
                    with tracer.operation(i):
                        result = wl.call(i, tag)
                    seconds = perf() - t0
            data, work = wl.check(result)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.fail(f"operation {i} ({tag}): {exc!r}")
            return None
        return seconds, data, work

    def same(self, a, b, what: str) -> bool:
        """Byte-for-byte comparison of two operations' outputs."""
        if a is None or b is None:
            return False
        if a[1] != b[1]:
            self.fail(f"{what}: outputs differ")
            return False
        return True


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten operations beyond it.

    It is a tail only when a run makes many more than twenty operations.  At
    the benchmark's run length the gated workloads make about 16 to 22, so
    it lands near p37 to p55: an order statistic close to the median.
    Only a run with failed operations can have fewer than eleven timings;
    its tail is then the fastest one.
    """
    k = max(len(times) - 11, 0)
    return sorted(times)[k], 100.0 * (k + 1) / len(times)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    setup = [probe("setup", workload, seed) for _ in range(SETUP_LAUNCHES)]
    wl = workloads.WORKLOAD_CLASSES[workload](seed, workloads.build_surfaces(workload, seed), OUT)
    tally = Tally()
    warmup = tally.attempt(wl, 0, "warmup")
    times, rates = [], []
    t_end = perf() + seconds
    i = 0
    while perf() < t_end or i < MIN_OPS:
        r = tally.attempt(wl, i, "op")
        if r is not None:
            times.append(r[0])
            rates.append(r[2] / r[0])
        if i == 0:
            compared = warmup is not None and r is not None
            deterministic = tally.same(warmup, r, "operation 0 repeated")
        i += 1

    if not times:
        raise SystemExit("error: every operation failed")
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate_name = THROUGHPUT_NAME[workload]
    print(f"workload {workload}  seed {seed}  closed loop, 1 caller, "
          f"{len(times)} timed operations after 1 warm-up")
    print(f"  setup_s          {metrics['setup_s']:.6f} s    median of {len(setup)} fresh interpreters")
    print(f"  op_s_p50         {metrics['op_s_p50']:.6f} s    n={len(times)}")
    print(f"  op_s_tail        {tail_s:.6f} s    p{tail_pct:.1f}, "
          f"{round(len(times) * (1 - tail_pct / 100))} of {len(times)} operations beyond it")
    print(f"  {rate_name:<16} {metrics['work_per_s']:.1f} 1/s  median over the timed operations "
          f"(work_per_s in the JSON line)")
    print(f"  error_rate       {tally.failed / tally.attempted:.6f}      "
          f"{tally.failed} failed of {tally.attempted} attempted")
    print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    print(f"  determinism      operation 0 repeated: "
          f"{'byte-identical' if deterministic else 'MISMATCH' if compared else 'not compared, it failed'}")
    return {"tally": tally,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    import workloads

    imports = [probe("import", workload, seed) for _ in range(IMPORT_LAUNCHES)]
    tr = tracing.Tracer()
    with tr.installed(), tr.operation(tracing.SETUP_OP):
        surfs = workloads.build_surfaces(workload, seed)
    wl = workloads.WORKLOAD_CLASSES[workload](seed, surfs, OUT)
    tally = Tally()
    warmup = tally.attempt(wl, 0, "warmup")
    traced_s, plain_s, identical = [], [], 0
    t_end = perf() + seconds
    i = 0
    while perf() < t_end or i < COUNT_OPS:
        # alternate which twin runs first so neither always finds warm caches
        for tag in (("traced", "plain") if i % 2 == 0 else ("plain", "traced")):
            if tag == "traced":
                traced = tally.attempt(wl, i, tag, tr)
            else:
                plain = tally.attempt(wl, i, tag)
        identical += tally.same(traced, plain, f"operation {i} traced vs untraced")
        if i == 0:
            tally.same(warmup, plain, "operation 0 repeated")
        if traced is not None and plain is not None:
            traced_s.append(traced[0])
            plain_s.append(plain[0])
        i += 1

    if not traced_s:
        raise SystemExit("error: every operation failed")
    values = tr.layer_metrics(ops=list(range(i)), count_ops=list(range(COUNT_OPS)))
    values["slopemetric.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    tr.write(OUT / f"trace_{workload}.csv")
    print(f"workload {workload}  seed {seed}  traced run, {i} operations traced "
          f"and {i} untraced twins, {identical} byte-identical pairs")
    print(f"  op_s_p50 traced {statistics.median(traced_s):.6f} s, untraced "
          f"{statistics.median(plain_s):.6f} s, tracing overhead {values['trace.overhead_s']:.6f} s")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"  {name:<40} {metrics[name]['value']:.6g} {unit}")
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update({var: THREADS for var in THREAD_VARS})
    import_package()
    OUT.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    res = run(args.workload, args.seed, args.seconds)
    tally = res["tally"]
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": res["metrics"]}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
