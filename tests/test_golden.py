"""Golden outputs: SHA-256 of `verify`'s (stdout, stderr, exit code) in a fresh interpreter.

Each digest pins the exact bytes a user sees, so a faster or refactored
route-equivalence check must reproduce them.  The digests depend on numpy's
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


def run_digest(argv, cwd) -> str:
    """SHA-256 of the JSON list [stdout, stderr, exit code] of one CLI run."""
    src = str(Path(slopemetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "slopemetric.cli", *argv],
                          capture_output=True, env=env, cwd=cwd)
    payload = [proc.stdout.decode(), proc.stderr.decode(), proc.returncode]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_verify_output_is_golden(case, tmp_path):
    assert np.__version__ == NUMPY_VERSION, (
        f"golden digests were recorded under numpy {NUMPY_VERSION}, "
        f"this run has numpy {np.__version__}"
    )
    argv, digest = GOLDEN[case]
    assert run_digest(argv, tmp_path) == digest
