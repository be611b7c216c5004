"""Golden outputs: SHA-256 of what a CLI run or a demo prints, in a fresh interpreter.

A CLI run's digest covers its (stdout, stderr, exit code), a demo's its stdout.

Each digest pins the exact bytes a user sees, so a faster or refactored
route-equivalence check or integrator must reproduce them.  The digests depend on numpy's
floating-point kernels, so they are tied to the numpy version recorded
here; under another version the test fails and names both versions instead
of comparing.  Within one version they depend on the SIMD kernels numpy
picks for the host's CPU, so every run takes ``conftest.pinned_env``, which
disables the AVX-512 kernels: the digests hold on any x86-64 host with AVX2.
A digest changes only with a change that alters the output on purpose, and
that change says which digest moved and why.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import pinned_env

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
    "builtin suite, nav 1,0.75": (
        ["verify", "--nav", "1,0.75"],
        "2ed6c84dffd60cebf9de11f34653cdaef02130433382511a01e121bf766ea80c",
    ),
    "builtin suite, nav 1,3": (
        ["verify", "--nav", "1,3"],
        "af54120a5f605cc3f5c9ce8452d62911d90cbecb9487b2d21cb3811648849147",
    ),
    # 2w <= v: the threshold is infinite, as at nav 1,0.5, and so is the report
    "builtin suite, nav 1,0.25": (
        ["verify", "--nav", "1,0.25"],
        "45354c01e52705dd2017d4ac440d568658b347a184bc22c3c4d6eb1fa4d8c880",
    ),
    # w = 0: F = alpha/v, so the threshold and the report are those of nav 1,0.5
    "builtin suite, nav 1,0": (
        ["verify", "--nav", "1,0"],
        "45354c01e52705dd2017d4ac440d568658b347a184bc22c3c4d6eb1fa4d8c880",
    ),
    "builtin suite, seed 7": (
        ["verify", "--seed", "7"],
        "e54121a312d837df4f8344b5df7378dae409bedc3f66d57987eb22a427abae63",
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


GAUSS = '{"kind": "gaussian", "params": {}}'
ELLIPSOID = '{"kind": "ellipsoid", "params": {"a": 1, "c": 1}}'
HYPERBOLOID2 = '{"kind": "hyperboloid2", "params": {"a": 0.5, "b": 1}}'


def table_surface() -> dict:
    """A 256-row table on [0, 3]: the gaussian bump plus a small sinusoid."""
    amp = 1.0 / (2.0 * math.sqrt(6.0))
    rows = []
    for j in range(256):
        s = 3.0 * j / 255
        rows.append([s, amp * math.exp(-s * s) + 0.004 * math.sin(2.0 * s + 1.0)])
    return {"kind": "custom", "params": {"table": rows}}


# front and geodesic runs on the other closed-form profiles and on a table
# profile (written as surf.json in the working directory); the gaussian at
# nav 1,3 has a non-convex annulus, the ellipsoid at nav 1,1 is convex for
# s < 1/2, so rays of both halt at the boundary
GOLDEN_SURFACES = {
    "front, gaussian": (
        ["front", "--surface", GAUSS, "--seed-point", "0.2,0", "--time", "0.3", "--rays", "64"],
        None,
        "8311ae1809a08f9e0ad2475ad0ae69126bb73480e020188fc3b08fe54d9276eb",
    ),
    "front, gaussian, nav 1,3": (
        ["front", "--surface", GAUSS, "--seed-point", "0.3,0", "--time", "0.3", "--rays", "64",
         "--nav", "1,3"],
        None,
        "87ed22cc3ef10e5d1e84bf2a9560ac83e6fa39f30f1fe989805403e530711690",
    ),
    "geodesic, gaussian": (
        ["geodesic", "--surface", GAUSS, "--start", "0.3,0", "--dir", "0,1", "--length", "0.3"],
        None,
        "c4c666714bbd8ab022246fa346c5624b6a1b2604a7c8495172a1dcc859864cfb",
    ),
    "front, ellipsoid, nav 1,1": (
        ["front", "--surface", ELLIPSOID, "--seed-point", "0.3,0.1", "--time", "0.3",
         "--rays", "64", "--nav", "1,1"],
        None,
        "0cc26282eb8ccb25aea28bb50f39f9707659fe05f7083cc8747e7a5eff3ad714",
    ),
    "geodesic, ellipsoid, nav 1,1": (
        ["geodesic", "--surface", ELLIPSOID, "--start", "0.3,0.1", "--dir", "1,0",
         "--length", "0.3", "--nav", "1,1"],
        None,
        "ccd6e6fa1666da00f42d45ca87a00e46f3ae644dfd0347cfc5242ceb14a711d7",
    ),
    "front, hyperboloid2": (
        ["front", "--surface", HYPERBOLOID2, "--seed-point", "1,0.5", "--time", "0.3",
         "--rays", "64"],
        None,
        "3ede8d935a610b38c13e9ed77e4a3a1d50920ef8fc203157dc9a64d1b9f373b5",
    ),
    "geodesic, hyperboloid2": (
        ["geodesic", "--surface", HYPERBOLOID2, "--start", "1,0.5", "--dir=-1,0",
         "--length", "0.3"],
        None,
        "fdf4839891d99e567f4c13f5171e6f3561c3187fcfabbdfed3ad3fb03b9a2bd1",
    ),
    "front, 256-row table": (
        ["front", "--surface", "surf.json", "--seed-point", "1,0.2", "--time", "0.3",
         "--rays", "64"],
        table_surface(),
        "2818c7dc649b99d58afbfc47a82744a21995bafe79f93c9e45aec27e271bd2e7",
    ),
    "geodesic, 256-row table": (
        ["geodesic", "--surface", "surf.json", "--start", "1,0.2", "--dir", "0,1",
         "--length", "0.3"],
        table_surface(),
        "30c353f26012c6b4ef2903e21a426e7be70057a582f403c53bf32a5c920fcbd9",
    ),
}


README_DOMAIN = ["domain", "--surface", PARAB, "--smax", "1"]
README_ANALYZE = ["analyze", "--surface", PARAB, "--resolution", "64", "--bbox=-0.5,0.5,-0.5,0.5"]
README_INDICATRIX = ["indicatrix", "--surface", PARAB, "--at", "0.1,0", "--n", "256"]

# the README's domain, analyze and indicatrix arguments on the paraboloid(h=100),
# in JSON and in CSV, the gaussian's domain CSV with root rows, a flag argparse
# rejects (its usage message), and the help text of every parser
GOLDEN_CLI = {
    "domain README, nav 1,1": (
        README_DOMAIN,
        "290a3e5e1486a30bf2d4a25bb7b7fc173640c1ce234d1058fec0304a6db90cbd",
    ),
    "domain README, nav 1,0.5": (
        README_DOMAIN + ["--nav", "1,0.5"],
        "6506ad87e0324ba376a5ce2c70f6f3b89fbc2ca176761d90ae1052397a009934",
    ),
    "analyze README, nav 1,1": (
        README_ANALYZE,
        "877f73cfa2c72639de354b5508f8e21fbecb3d5f034533be9c4b73abcfa38ce7",
    ),
    "analyze README, nav 1,0.5": (
        README_ANALYZE + ["--nav", "1,0.5"],
        "23b0bcfa93674b78acb65f9acd94b0ca904a85db15bd080ef6f86bd3a7c7b662",
    ),
    "indicatrix README, nav 1,1": (
        README_INDICATRIX,
        "f6022969269682bb457b09c799a95ee980f5f8c4ef0e8a348377e67e903df5b7",
    ),
    "indicatrix README, nav 1,0.5": (
        README_INDICATRIX + ["--nav", "1,0.5"],
        "476f0bfbf73218f0708684f47fd44d05545091c136feab0717ab6e1d8018ca75",
    ),
    "analyze README, csv, nav 1,1": (
        README_ANALYZE + ["--format", "csv"],
        "3f0b3414d0a5ac3d3cf8834f6318373644ce3320f412f1ec6356c2c518fbca3e",
    ),
    "analyze README, csv, nav 1,0.5": (
        README_ANALYZE + ["--format", "csv", "--nav", "1,0.5"],
        "2eab0cf1f90b18f627f8fd1c54752c9ee7d438913552509de83a50d3cd2a99c3",
    ),
    "domain README, csv, nav 1,1": (
        README_DOMAIN + ["--format", "csv"],
        "cf168c0ba0bfe21efc014b64c24ee56f4671cf2d601896b4c3ab83f6e72b3008",
    ),
    "domain README, csv, nav 1,0.5": (
        README_DOMAIN + ["--format", "csv", "--nav", "1,0.5"],
        "8bb271e1ed33e0981e685a1ccfba3b999bdce4846dc13e18afd20250d3b73402",
    ),
    # two intervals and their two boundary roots
    "domain, gaussian, csv, nav 1,2.9019": (
        ["domain", "--surface", GAUSS, "--format", "csv", "--nav", "1,2.9019"],
        "a8d3cb49ae9ab3717fd106b98017935c1815a716368da1cd434758c19a9d890b",
    ),
    "indicatrix README, csv, nav 1,1": (
        README_INDICATRIX + ["--format", "csv"],
        "dc5ae4fd59da3f98f0dbea96f0fe09335d915ba658dd4b2952e0aa61db92094a",
    ),
    "indicatrix README, csv, nav 1,0.5": (
        README_INDICATRIX + ["--format", "csv", "--nav", "1,0.5"],
        "8dbcef603729014bbc56fc20cbe6f2ab63cc395b74ac32688042e82585b034f9",
    ),
    "front --rays abc": (
        ["front", "--rays", "abc"],
        "5eeea820ec1d6a8b14b7fd4e970d86035d06fe0b28f2eca9fadf0afeb09b4c97",
    ),
    "help": (
        ["--help"],
        "fd9ddc57ca7d9e4e588a5997cbf972090ce2ca6592c987a6802d95c4bc015cc6",
    ),
    "analyze --help": (
        ["analyze", "--help"],
        "77c732a5200c44f451894f77982397d4b403fe52c8dffbe9f22b6efd98eb093d",
    ),
    "domain --help": (
        ["domain", "--help"],
        "c2663a98d64b8abd487e67346952ca812316deb32fa885a318ac0df4e98ecafb",
    ),
    "verify --help": (
        ["verify", "--help"],
        "dfc26488d09bf1a20d52ee13f4ec8d0b4b60d18afc7ef73e284b253859dd38ff",
    ),
    "indicatrix --help": (
        ["indicatrix", "--help"],
        "b2e1a9ae3168dd74bb83406e45e383d79a63f049d0eb3d42247c10ddfc696952",
    ),
    "geodesic --help": (
        ["geodesic", "--help"],
        "08735cddc87eb47fd3c7684b96abac41a0ab7ffa2f7fa195ec246bfecdf43bfc",
    ),
    "front --help": (
        ["front", "--help"],
        "38b1fb61adae8d6639d3f45c422a49d1993a89174ce1d7bd0622353afaf23e0d",
    ),
}

# runs whose config file (written as cfg.json in the working directory) holds a
# wrong-typed value: exit 2 with one error line
GOLDEN_CONFIG = {
    "front, rays a list": (
        ["front", "--surface", PARAB, "--seed-point", "0.1,0", "--config", "cfg.json"],
        {"rays": [64]},
        "4dbad9f554c81463efaae1658200c9e234ab154c83ab2d7ddc19287ea741f479",
    ),
    "domain, resolution null": (
        ["domain", "--surface", PARAB, "--config", "cfg.json"],
        {"resolution": None},
        "36b829950948108a36ccffab2633fda991f18472b53d12b353ee4b8932f24c58",
    ),
}


# SHA-256 of each demo's stdout, run as a script with numpy's RuntimeWarning an error
GOLDEN_DEMOS = {
    "01_surfaces_and_profiles.py": "51ef97956b32e25165d296887560bfa8e0454b4ab3fb04f767d10bc9e7ad7f2a",
    "02_slope_metric.py": "d718131e9bc667454da0bbb9a636f63b7f6dd8e99c5bade6a862407b3ce6d352",
    "03_convexity_domains.py": "ad60a7b9dcc2f198dc7e4a3fd0a62016535bb7bb40859907b2e9e927d8470ce7",
    "04_hessian_oracle.py": "29d603942f8ed1c0227709451c512daf385d13ffaa368ca0fbbc9c0bd68a5892",
    "05_geodesics.py": "2cf0d7a63331fe86addd26224a423c2e21e5131f46a9beff11d49c085d02939c",
    "06_propagating_fronts.py": "973080b67d583c6074c387ad8bd3ccbb0a03eac47492f00e1b8bf83f8396e8bd",
}
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_digest(argv, cwd) -> str:
    """SHA-256 of the JSON list [stdout, stderr, exit code] of one CLI run.

    COLUMNS is fixed so that argparse wraps usage and help text the same way
    on every terminal.
    """
    proc = subprocess.run([sys.executable, "-m", "slopemetric.cli", *argv],
                          capture_output=True, env=pinned_env(COLUMNS="80"), cwd=cwd)
    payload = [proc.stdout.decode(), proc.stderr.decode(), proc.returncode]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def check_numpy_version():
    assert np.__version__ == NUMPY_VERSION, (
        f"golden digests were recorded under numpy {NUMPY_VERSION}, "
        f"this run has numpy {np.__version__}"
    )


def check_golden(table, case, cwd):
    check_numpy_version()
    argv, digest = table[case]
    assert run_digest(argv, cwd) == digest


@pytest.mark.parametrize("case", list(GOLDEN))
def test_verify_output_is_golden(case, tmp_path):
    check_golden(GOLDEN, case, tmp_path)


@pytest.mark.parametrize("case", list(GOLDEN_GEODESICS))
def test_geodesic_output_is_golden(case, tmp_path):
    check_golden(GOLDEN_GEODESICS, case, tmp_path)


@pytest.mark.parametrize("case", list(GOLDEN_SURFACES))
def test_surface_geodesic_output_is_golden(case, tmp_path):
    argv, surface, digest = GOLDEN_SURFACES[case]
    if surface is not None:
        (tmp_path / "surf.json").write_text(json.dumps(surface))
    check_golden({case: (argv, digest)}, case, tmp_path)


@pytest.mark.parametrize("case", list(GOLDEN_CLI))
def test_cli_output_is_golden(case, tmp_path):
    check_golden(GOLDEN_CLI, case, tmp_path)


@pytest.mark.parametrize("case", list(GOLDEN_CONFIG))
def test_config_error_is_golden(case, tmp_path):
    argv, config, digest = GOLDEN_CONFIG[case]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    check_golden({case: (argv, digest)}, case, tmp_path)


@pytest.mark.parametrize("demo", list(GOLDEN_DEMOS))
def test_demo_output_is_golden(demo, tmp_path):
    check_numpy_version()
    env = pinned_env(PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_DEMOS[demo]
