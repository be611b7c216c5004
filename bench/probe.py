"""Time one start-up step in a fresh interpreter and print the seconds.

    python3 bench/probe.py setup <workload> <seed>   # import slopemetric.cli, build surfaces
    python3 bench/probe.py import <workload> <seed>  # import slopemetric

The workload's inputs are generated before the clock starts; only the
package import (and, for ``setup``, the surface builds) is timed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402  (pure Python, imports nothing heavy)


def main() -> None:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    specs = inputs.surface_specs(workload, seed)
    t0 = time.perf_counter()
    if mode == "import":
        import slopemetric  # noqa: F401
    elif mode == "setup":
        import slopemetric.cli  # noqa: F401
        from slopemetric.surfaces import surface_from_json

        for spec in specs:
            surface_from_json(spec)
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
