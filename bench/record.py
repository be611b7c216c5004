"""Run the benchmark over several seeds and append one point to series.json.

    python3 bench/record.py --label "<commit> <what changed>"

For each workload, gated or not, it makes one untraced run on each of the
seeds 1 to 10 and one traced run on seed 1, then records the median and
quartiles of every end-to-end metric, its spread (interquartile distance
over median) against the bound in BENCHMARK.json, the operations attempted
and failed, and the traced per-layer values.  It also records the
interpreter, library versions and thread settings the runs used.  The exit
code is 0 only when every gated workload passed every check and every
spread but that of setup_s is below a third of its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run as bench_run  # noqa: E402


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # a run with failed operations exits 1 but still prints its result
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: bench_run.THREADS for var in bench_run.THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    point = {"label": args.label, "seeds": SEEDS, "run_seconds": spec["run_seconds"],
             "environment": environment(), "gated": sorted(gated),
             "end_to_end": {}, "operations": {}, "per_layer": {}}
    steady = True
    for workload in inputs.WORKLOADS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            res = run(spec, workload, seed, trace=0)
            attempted += res["attempted"]
            failed += res["failed"]
            for key, metric in res["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        point["operations"][workload] = {"attempted": attempted, "failed": failed,
                                         "error_rate": failed / attempted}
        print(f"{workload:<17} error_rate {failed / attempted:.4f} ({failed} of {attempted})")
        steady &= workload not in gated or failed == 0
        summary = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[key] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "bound": bounds[key], "values": vals}
            # set-up time is judged on its median only, not on its spread
            ok = key == "setup_s" or spread < bounds[key] / 3
            steady &= ok or workload not in gated
            print(f"{workload:<17} {key:<12} median {med:<12.6g} "
                  f"spread {spread:.4f} (bound {bounds[key]}){'' if ok else '  NOT STEADY'}")
        point["end_to_end"][workload] = summary
        traced = run(spec, workload, SEEDS[0], trace=1)
        point["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}

    out = BENCH / "series.json"
    series = json.loads(out.read_text()) if out.exists() else {"series": []}
    series["series"].append(point)
    out.write_text(json.dumps(series, indent=1) + "\n")
    print(f"appended '{args.label}' to {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
