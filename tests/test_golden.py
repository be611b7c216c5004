"""Golden outputs: SHA-256 of a CLI run's (stdout, stderr, exit code) in a fresh interpreter.

Each digest pins the exact bytes a user sees, so a faster or refactored
route-equivalence check or integrator must reproduce them.  The digests depend on numpy's
floating-point kernels, so they are tied to the numpy version recorded
here; under another version the test fails and names both versions instead
of comparing.  A digest changes only with a change that alters the output
on purpose, and that change says which digest moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slopemetric

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "builtin suite, nav 1,1": (
        ["verify"],
        "02f4e0aa1f328e403b88019f99194280e1a034006fcbdd292c844e3dd5fcfc1a",
    ),
    "builtin suite, nav 1,0.5": (
        ["verify", "--nav", "1,0.5"],
        "45354c01e52705dd2017d4ac440d568658b347a184bc22c3c4d6eb1fa4d8c880",
    ),
    "gaussian, 50 samples": (
        ["verify", "--surface", '{"kind":"gaussian","params":{}}', "--samples", "50"],
        "745b48e150a0d7de3dcc6120fb4128778339d0ef0d2f668f1cf5b5246f5ad49a",
    ),
}

PARAB = '{"kind": "paraboloid", "params": {"h": 100}}'
README_FRONT = ["front", "--surface", PARAB, "--seed-point", "0.1,0", "--time", "0.05", "--rays", "64"]
README_GEODESIC = ["geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "0,1",
                   "--length", "0.2"]

# the README's front and geodesic arguments on the paraboloid(h=100), plus
# runs whose rays reach the convexity boundary and a seed outside it (exit 3)
GOLDEN_GEODESICS = {
    "front README, nav 1,1": (
        README_FRONT,
        "29af9caea1b5a8e96613719bb65926bac3e134e4b9458877708737fe8a374fcf",
    ),
    "front README, nav 1,0.5": (
        README_FRONT + ["--nav", "1,0.5"],
        "7b2901bc7faa217bdf72318d00b84702dbb36decbc5b470289438a039c97a14b",
    ),
    "geodesic README, nav 1,1": (
        README_GEODESIC,
        "f94854b950b7e6c125c16842b8463b01760914515f17e393a46ef2ed1ea5fc23",
    ),
    "geodesic README, nav 1,0.5": (
        README_GEODESIC + ["--nav", "1,0.5"],
        "07c5521335d6b37f20d14b9a812a94b33f29759d90a1d6da782a73d6aa0872c7",
    ),
    "front, seed outside the domain at nav 1,6": (
        README_FRONT + ["--nav", "1,6"],
        "b72d14b659f8aae7699c430972a7e69d897cf7dc00f8c21bc34be72bd21adefe",
    ),
    "front to the boundary": (
        ["front", "--surface", PARAB, "--seed-point", "0.1,0", "--time", "0.3", "--rays", "64"],
        "d3a88139d1d3240a3967db4c0936222efa3c87ea202f8527d12f41770a0bf5ef",
    ),
    "front to the boundary, json": (
        ["front", "--surface", PARAB, "--seed-point", "0.1,0", "--time", "0.3", "--rays", "16",
         "--fronts", "3", "--format", "json"],
        "bd40e8e6a21c7c146e888bd482bc5732069444808828455f0b2a72f01e6af026",
    ),
    "geodesic to the boundary": (
        ["geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "1,0", "--length", "0.3"],
        "a9d1852fb34095aba8e1149ae50a41698e77b34df74c1e1f8dbba0b474c2d08b",
    ),
}


def run_digest(argv, cwd) -> str:
    """SHA-256 of the JSON list [stdout, stderr, exit code] of one CLI run."""
    src = str(Path(slopemetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "slopemetric.cli", *argv],
                          capture_output=True, env=env, cwd=cwd)
    payload = [proc.stdout.decode(), proc.stderr.decode(), proc.returncode]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def check_golden(table, case, cwd):
    assert np.__version__ == NUMPY_VERSION, (
        f"golden digests were recorded under numpy {NUMPY_VERSION}, "
        f"this run has numpy {np.__version__}"
    )
    argv, digest = table[case]
    assert run_digest(argv, cwd) == digest


@pytest.mark.parametrize("case", list(GOLDEN))
def test_verify_output_is_golden(case, tmp_path):
    check_golden(GOLDEN, case, tmp_path)


@pytest.mark.parametrize("case", list(GOLDEN_GEODESICS))
def test_geodesic_output_is_golden(case, tmp_path):
    check_golden(GOLDEN_GEODESICS, case, tmp_path)
