"""Command-line interface: subcommands, exit codes, formats, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slopemetric
from slopemetric import DerivativeBlowupWarning, SlopeMetricError, convexity
from slopemetric import cli
from slopemetric.cli import _emit, _rays_csv, main
from slopemetric.convexity import convexity_threshold, criterion_verdict
from slopemetric.geodesics import GeodesicPath, wavefront
from slopemetric.surfaces import surface_from_json

PARAB = '{"kind": "paraboloid", "params": {"h": 100}}'
PARAB_NEAR = '{"kind": "paraboloid", "params": {"h": 100}, "domain": [0, 1]}'
BOUNDARY = 0.2886751345948129
# hyperboloid1 whose waist lies past the default scan radius 100
FAR_WAIST = '{"kind": "hyperboloid1", "params": {"a": 0.5, "b": 150}}'
# phi = sin(s)/sqrt(3): phi'^2 = cos(s)^2/3 touches 1/3 tangentially at s = pi
GRAZER = json.dumps({"kind": "custom", "params": {
    "table": [[float(s), float(np.sin(s) / math.sqrt(3.0))] for s in np.linspace(0.0, 4.0, 400)]}})


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


class TestDomainCommand:
    def test_paraboloid_boundary(self, capsys):
        code, out, _ = run(capsys, ["domain", "--surface", PARAB, "--smax", "1"])
        assert code == 0
        d = json.loads(out)
        roots = d["domain"]["boundary_roots"]
        assert len(roots) == 1
        assert roots[0]["location"] == pytest.approx(BOUNDARY, abs=1e-8)
        assert roots[0]["residual"] <= 1e-9
        assert d["domain"]["intervals"] == [[0.0, roots[0]["location"]]]

    def test_ellipsoid_boundary(self, capsys):
        surf = '{"kind": "ellipsoid", "params": {"a": 1, "c": 1}}'
        code, out, _ = run(capsys, ["domain", "--surface", surf])
        assert code == 0
        d = json.loads(out)
        assert d["domain"]["boundary_roots"][0]["location"] == pytest.approx(0.5, abs=1e-8)

    def test_two_sheet_full_domain(self, capsys):
        surf = '{"kind": "hyperboloid2", "params": {"a": 0.5, "b": 1}}'
        code, out, _ = run(capsys, ["domain", "--surface", surf, "--smax", "5"])
        d = json.loads(out)
        assert code == 0
        assert d["domain"]["entire"] is True
        assert d["asymptote"]["limit"] == pytest.approx(0.25)

    def test_one_sheet_clipped(self, capsys):
        surf = '{"kind": "hyperboloid1", "params": {"a": 0.5, "b": 1}}'
        code, out, _ = run(capsys, ["domain", "--surface", surf, "--smax", "5"])
        d = json.loads(out)
        assert d["domain"]["boundary_roots"][0]["location"] == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("smax", ["-1", "0"])
    def test_smax_at_or_below_inner_edge_exit_two(self, capsys, smax):
        code, out, err = run(capsys, ["domain", "--surface", PARAB, "--smax", smax])
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "inner edge" in err
        # a waist past the default scan radius is the surface's fault, not the flag's
        for command in ("domain", "analyze", "verify"):
            code, out, err = run(capsys, [command, "--surface", FAR_WAIST])
            assert code == 3
            assert out == ""
            assert err == "error: empty scan range [150.0, 100.0]\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["domain", "--surface", PARAB, "--smax", "1",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,a,b"
        assert lines[1].startswith("interval,0,")
        assert lines[2].startswith("root,0.2886751345")

    def test_library_warning_is_one_clean_line(self):
        # a fresh interpreter shows the stderr a user sees: no source path, no code line
        src = str(Path(slopemetric.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "slopemetric.cli", "domain", "--surface", GRAZER],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "warning: criterion grazes the threshold near s=3.14159; double root suspected"]

    def test_only_library_warnings_are_reworded(self, capsys, monkeypatch):
        # a numpy RuntimeWarning still meets the caller's filter (here an error)
        def scan(*args, **kwargs):
            warnings.warn("m'(u) diverges", DerivativeBlowupWarning)
            warnings.warn("m'(u) diverges", DerivativeBlowupWarning)
            return np.log(np.zeros(1))

        monkeypatch.setattr(convexity, "convexity_domain", scan)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                main(["domain", "--surface", PARAB])
        assert capsys.readouterr().err == "warning: m'(u) diverges\n" * 2


class TestAnalyzeCommand:
    def test_paraboloid_disk(self, capsys):
        code, out, _ = run(capsys, [
            "analyze", "--surface", PARAB, "--resolution", "65",
            "--bbox=-0.5,0.5,-0.5,0.5",
        ])
        assert code == 0
        d = json.loads(out)
        xs, ys = np.array(d["x"]), np.array(d["y"])
        verdict = np.array(d["verdict"])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                s = math.hypot(x, y)
                if abs(s - BOUNDARY) < 1e-6:
                    continue
                assert verdict[i, j] == ("true" if s < BOUNDARY else "false")

    def test_flat_custom_table_all_true(self, capsys):
        table = [[float(s), 1.0] for s in np.linspace(0, 2, 80)]
        surf = json.dumps({"kind": "custom", "params": {"table": table}})
        code, out, _ = run(capsys, [
            "analyze", "--surface", surf, "--resolution", "64", "--bbox=-1,1,-1,1",
        ])
        assert code == 0
        d = json.loads(out)
        v = np.array(d["verdict"])
        inside = v != "outside"
        assert inside.any()
        assert np.all(v[inside] == "true")

    def test_steep_cone_all_false(self, capsys):
        surf = '{"kind": "cone", "params": {"a": 0.7}}'
        code, out, _ = run(capsys, [
            "analyze", "--surface", surf, "--resolution", "64", "--bbox=0.1,2,0.1,2",
        ])
        d = json.loads(out)
        v = np.array(d["verdict"])
        assert np.all(v == "false")

    def test_resolution_floor_is_config_error(self, capsys):
        code, _, _ = run(capsys, ["analyze", "--surface", PARAB, "--resolution", "16",
                                  "--bbox=-1,1,-1,1"])
        assert code == 2

    def test_verdicts_match_pointwise_criterion(self, capsys):
        code, out, _ = run(capsys, [
            "analyze", "--surface", PARAB, "--resolution", "129",
            "--bbox=-0.5,0.5,-0.5,0.5", "--band", "1e-3",
        ])
        assert code == 0
        d = json.loads(out)
        verdict = np.array(d["verdict"])
        assert np.count_nonzero(verdict == "indeterminate") > 0
        surf = slopemetric.surface_from_json(PARAB)
        threshold = convexity_threshold(slopemetric.NORMALIZED)
        for i, x in enumerate(d["x"]):
            for j, y in enumerate(d["y"]):
                if verdict[i, j] != "outside":
                    fx, fy = surf.gradient(x, y)
                    assert verdict[i, j] == criterion_verdict(fx * fx + fy * fy, threshold, 1e-3)

    def test_grazing_warning_follows_nav(self, capsys):
        # at nav (1, 0.5) the threshold is inf, so nothing grazes it; analyze
        # bisects no roots, so it suspects no double root
        for nav, warns in (("1,1", True), ("1,0.5", False)):
            code, _, err = run(capsys, ["domain", "--surface", GRAZER, "--nav", nav])
            assert code == 0
            assert ("warning: criterion grazes the threshold" in err) is warns, nav
            code, _, err = run(capsys, ["analyze", "--surface", GRAZER, "--nav", nav])
            assert (code, err) == (0, ""), nav

    @pytest.mark.parametrize("surface, verdict, grad_norm2", [
        ('{"kind": "cone", "params": {"a": 0.5}}', "outside", "nan"),
        (PARAB, "true", 0.0),
    ])
    def test_apex_has_a_verdict_only_where_smooth(self, capsys, surface, verdict, grad_norm2):
        # the odd grid puts its middle point on the axis, where the cone has no gradient
        code, out, _ = run(capsys, ["analyze", "--surface", surface, "--resolution", "65",
                                    "--bbox=-1,1,-1,1"])
        assert code == 0
        d = json.loads(out)
        assert d["x"][32] == d["y"][32] == 0.0
        assert d["verdict"][32][32] == verdict
        assert d["grad_norm2"][32][32] == grad_norm2

    def test_profile_section_present(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--surface", PARAB, "--resolution", "64",
                                    "--bbox=-1,1,-1,1"])
        d = json.loads(out)
        assert d["threshold"] == pytest.approx(1 / 3)
        assert len(d["profile"]["s"]) == len(d["profile"]["condition"])


class TestVerifyCommand:
    def test_single_surface_agrees(self, capsys):
        code, out, _ = run(capsys, ["verify", "--surface", PARAB_NEAR,
                                    "--samples", "60", "--seed", "1"])
        assert code == 0
        d = json.loads(out)
        assert d["total_disagreements"] == 0

    def test_corrupted_threshold_exits_one(self, capsys, monkeypatch):
        # a wrong bound corrupts the analytic routes; the Hessian oracle never reads it
        monkeypatch.setattr(convexity, "convexity_threshold", lambda nav: 0.5)
        code, out, _ = run(capsys, ["verify", "--surface", PARAB_NEAR,
                                    "--samples", "150", "--seed", "0"])
        assert code == 1
        d = json.loads(out)
        assert d["total_disagreements"] > 0

    @pytest.mark.parametrize("flags, message", [
        (["--directions", "0", "--samples", "5"], "need at least 8 directions"),
        (["--samples", "-3"], "need at least 1 sample point"),
        (["--samples", "0"], "need at least 1 sample point"),
        (["--band", "-1"], "band must be nonnegative"),
    ])
    def test_malformed_counts_exit_two(self, capsys, flags, message):
        code, out, err = run(capsys, ["verify", "--surface", PARAB_NEAR, *flags])
        assert code == 2
        assert out == ""
        assert one_error_line(err) and message in err

    @pytest.mark.parametrize("nav", ["1,0.5", "1,2"])
    def test_builtin_suite_agrees_at_other_nav(self, capsys, nav):
        code, out, _ = run(capsys, ["verify", "--nav", nav, "--samples", "100"])
        assert code == 0
        assert json.loads(out)["total_disagreements"] == 0

    def test_zero_band_reports_and_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["verify", "--surface", PARAB_NEAR,
                                    "--samples", "60", "--seed", "5", "--band", "0"])
        d = json.loads(out)
        assert code == 0
        assert d["total_disagreements"] == 0

    def test_trig_route_skips_radii_its_height_does_not_identify(self, capsys):
        # without s_range s runs to 100, but phi underflows to 0 near s = 27.3
        code, out, err = run(capsys, ["verify", "--surface", '{"kind":"gaussian","params":{}}',
                                      "--samples", "50"])
        assert code == 0
        assert err == ""
        (report,) = json.loads(out)["reports"]
        assert report["trig_skipped"] > 0
        assert report["disagreements"] == []


class TestIndicatrixCommand:
    def test_limacon_fit_json(self, capsys):
        code, out, _ = run(capsys, ["indicatrix", "--surface", PARAB,
                                    "--at", "0.1,0", "--n", "128"])
        assert code == 0
        d = json.loads(out)
        assert d["fit"]["c0"] == pytest.approx(1.0, abs=1e-6)
        assert d["fit"]["max_residual"] <= 1e-6
        assert d["convex"] is True
        assert len(d["samples"]) == 128

    def test_csv_samples(self, capsys):
        code, out, _ = run(capsys, ["indicatrix", "--surface", PARAB,
                                    "--at", "0.1,0", "--n", "16", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,dx,dy"
        assert len(lines) == 17

    def test_apex_is_geometry_error(self, capsys):
        surf = '{"kind": "cone", "params": {"a": 0.5}}'
        code, _, err = run(capsys, ["indicatrix", "--surface", surf, "--at", "0,0"])
        assert code == 3

    def test_overflowing_slope_is_one_error_line(self, capsys):
        # phi' = -2s overflows at s = 1e308: numpy's overflow warning (an error
        # under the suite's filter) stays inside the typed error, which names s
        code, out, err = run(capsys, ["indicatrix", "--surface", PARAB, "--at", "1e308,0"])
        assert (code, out, err) == (3, "", "error: closed-form derivative non-finite at s=1e+308\n")

    def test_missing_point_is_config_error(self, capsys):
        code, _, _ = run(capsys, ["indicatrix", "--surface", PARAB])
        assert code == 2


class TestGeodesicCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, [
            "geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "0,1",
            "--length", "0.05", "--step", "0.005",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ray_id,t,x,y,F"
        assert len(lines) == 12  # header + 11 nodes
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == pytest.approx(1.0, abs=1e-9)

    def test_strict_exit_on_boundary(self, capsys):
        # outward ray from just inside the boundary exits at once
        args = ["geodesic", "--surface", PARAB, "--start", "0.27,0",
                "--dir", "1,0", "--length", "0.5", "--step", "0.005"]
        code, _, err = run(capsys, args)
        assert code == 0
        assert "left the strong-convexity domain" in err
        code, _, _ = run(capsys, args + ["--strict"])
        assert code == 3

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, [
            "geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "1,1",
            "--length", "0.05", "--step", "0.005", "--format", "json",
        ])
        d = json.loads(out)
        assert d["status"] == "complete"
        assert d["F_drift_per_unit_length"] <= 1e-6


class TestFrontCommand:
    def test_flat_circle_csv(self, capsys):
        table = [[float(s), 0.5] for s in np.linspace(0, 3, 80)]
        surf = json.dumps({"kind": "custom", "params": {"table": table}})
        code, out, _ = run(capsys, [
            "front", "--surface", surf, "--seed-point", "0,0", "--time", "0.2",
            "--rays", "8", "--step", "0.01",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ray_id,t,x,y,F"
        rows = [ln.split(",") for ln in lines[1:]]
        finals = [r for r in rows if float(r[1]) == 0.2]
        assert len(finals) == 8
        for r in finals:
            assert math.hypot(float(r[2]), float(r[3])) == pytest.approx(0.2, abs=1e-6)

    def test_gaussian_complete_json(self, capsys):
        surf = '{"kind": "gaussian", "params": {}}'
        code, out, _ = run(capsys, [
            "front", "--surface", surf, "--seed-point", "1,0", "--time", "0.1",
            "--rays", "16", "--step", "0.005", "--format", "json",
        ])
        assert code == 0
        d = json.loads(out)
        assert all(s == "complete" for s in d["statuses"])
        assert d["fronts"][-1]["complete"] is True

    def test_seed_outside_nav_domain_exit_three(self, capsys):
        # at nav (1, 6) convexity needs q < 1/143; the seed has q = 0.04
        code, _, err = run(capsys, ["front", "--surface", PARAB, "--seed-point", "0.1,0",
                                    "--nav", "1,6"])
        assert code == 3
        assert "seed point is not strictly inside" in err

    @pytest.mark.parametrize("flags", [
        ["--step", "0"], ["--time", "-1"], ["--step", "-1"],
    ])
    def test_nonpositive_time_or_step_exit_two(self, capsys, flags):
        code, out, err = run(capsys, ["front", "--surface", PARAB, "--seed-point", "0.1,0",
                                      "--rays", "8", *flags])
        assert code == 2
        assert out == ""
        assert err == "error: length and step must be positive\n"

    def test_zero_fronts_exit_two(self, capsys):
        code, out, err = run(capsys, ["front", "--surface", PARAB, "--seed-point", "0.1,0",
                                      "--time", "0.01", "--rays", "4", "--fronts", "0"])
        assert code == 2
        assert out == ""
        assert err == "error: need at least 1 front\n"

    def test_strict_exit_three_on_truncation(self, capsys):
        code, _, _ = run(capsys, [
            "front", "--surface", PARAB, "--seed-point", "0.25,0", "--time", "0.3",
            "--rays", "8", "--step", "0.005", "--strict",
        ])
        assert code == 3

    def test_non_finite_rays_have_their_own_warning(self, capsys):
        # at nav (1, 3) one step of 0.5 carries every ray past the convex disk
        # (radius ~0.085) to a non-finite state
        args = ["front", "--surface", PARAB, "--seed-point", "0.02,0", "--time", "0.5",
                "--rays", "16", "--step", "0.5", "--nav", "1,3"]
        code, _, err = run(capsys, args)
        assert code == 0
        assert err == "warning: 16 ray(s) turned non-finite within one step\n"
        code, _, err = run(capsys, args + ["--strict"])
        assert code == 3
        assert err == "16 ray(s) turned non-finite within one step\n"


# a bowl: a ray that climbs past the convexity edge gets a NaN spray at RK4
# stage 2 or 3, and the next stage used to read the surface at a NaN position,
# which aborted the whole batch with "s=nan outside profile domain"
BOWL = '{"kind": "hyperboloid2", "params": {"a": 1, "b": 1}}'


class TestMidStepNaN:
    @pytest.mark.parametrize("args, subject", [
        (["front", "--surface", BOWL, "--seed-point", "0.65,0", "--time", "1",
          "--rays", "16", "--step", "0.02"], "1 ray(s)"),
        (["geodesic", "--surface", BOWL, "--start", "0.6,0", "--dir", "1,0",
          "--length", "1", "--step", "0.1"], "geodesic"),
    ], ids=["front", "geodesic"])
    def test_ray_ends_non_finite_and_the_run_returns(self, capsys, args, subject):
        code, out, err = run(capsys, args)
        assert code == 0 and out
        assert f"warning: {subject} turned non-finite within one step\n" in err
        code, _, err = run(capsys, args + ["--strict"])
        assert code == 3
        assert f"{subject} turned non-finite within one step\n" in err


class TestStreamedOutput:
    """Every command streams its CSV: the same bytes, in bounded memory."""

    @pytest.mark.parametrize("args", [
        ["front", "--surface", PARAB, "--seed-point", "0.1,0.05", "--time", "0.1",
         "--rays", "16", "--step", "0.002", "--fronts", "2"],
        ["geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "1,0.3",
         "--length", "0.4", "--step", "0.001"],
        ["analyze", "--surface", PARAB, "--resolution", "64", "--bbox=-0.5,0.5,-0.5,0.5"],
        ["domain", "--surface", PARAB, "--smax", "1"],
        ["indicatrix", "--surface", PARAB, "--at", "0.1,0", "--n", "256"],
    ], ids=["front", "geodesic", "analyze", "domain", "indicatrix"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_out_file_match(self, capsys, tmp_path, args, fmt):
        args = args + ["--format", fmt]
        code, out, err = run(capsys, args)
        target = tmp_path / "out.txt"
        assert run(capsys, args + ["--out", str(target)]) == (code, "", err)
        assert target.read_bytes() == out.encode()

    def test_writer_peak_below_output_size(self, tmp_path):
        # the benchmark's front: 256 rays for 0.3 at step 1e-3, ~4.7 MB of CSV
        wf = wavefront(surface_from_json(PARAB), (0.12, 0.05), 0.3, n_rays=256, step=1e-3,
                       n_fronts=3)
        target = tmp_path / "front.csv"
        tracemalloc.start()
        try:
            _emit(_rays_csv(wf.rays), str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < target.stat().st_size

    def test_emit_takes_a_string_or_chunks(self, capsys, tmp_path):
        _emit("one string\n", None)
        _emit(iter(["a,", "b\n"]), None)
        assert capsys.readouterr().out == "one string\na,b\n"
        target = tmp_path / "t.txt"
        _emit(["x", "y"], str(target))
        assert target.read_text() == "xy"
        _emit([], str(target))
        assert target.read_text() == ""

    def test_failed_run_leaves_out_file_as_it_was(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "front.csv"
        target.write_text("earlier output\n")
        # the seed lies outside the convex domain at nav (1, 6)
        code, _, _ = run(capsys, ["front", "--surface", PARAB, "--seed-point", "0.1,0",
                                  "--nav", "1,6", "--out", str(target)])
        assert code == 3
        # a failure while the first chunk is being made: --out is not opened yet
        def fail(values):
            raise SlopeMetricError("no text")
        monkeypatch.setattr(cli, "_text17", fail)
        for command in (["front", "--seed-point", "0.1,0", "--rays", "8", "--time", "0.01",
                         "--step", "0.005"],
                        ["geodesic", "--start", "0.1,0", "--dir", "1,0", "--length", "0.01",
                         "--step", "0.005"],
                        ["analyze", "--resolution", "64", "--format", "csv"],
                        ["domain", "--smax", "1", "--format", "csv"],
                        ["indicatrix", "--at", "0.1,0", "--n", "16", "--format", "csv"]):
            code, _, err = run(capsys, command + ["--surface", PARAB, "--out", str(target)])
            assert (code, err) == (3, "error: no text\n"), command
        assert target.read_text() == "earlier output\n"


def text17(values) -> list[str]:
    """``cli._text17``'s rows as strings, without their 0 bytes."""
    rows = cli._text17(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def below(x: float) -> float:
    return math.nextafter(x, -math.inf)


def above(x: float) -> float:
    return math.nextafter(x, math.inf)


# the kernel's range is 1e-4 <= |v| < 1e17; powers of ten 1e-5 .. 1e18
POWERS = [float(f"1e{k}") for k in range(-5, 19)]
# the largest double below each true power of ten 10^-3 .. 10^17 (float("1e-3")
# lies above 10^-3): where 17 digits come closest to rounding up to the power
NEAR_POWERS = [0.0009999999999999998, 0.009999999999999998, 0.09999999999999999] + [
    below(float(f"1e{k}")) for k in range(0, 18)]
def ties() -> list[float]:
    """Doubles v = m / 2^(k + 1), m odd, with v * 10^k = m * 5^k / 2 in [1e16, 1e17):
    exact halves of the 17th digit, rounded half to even; two of each k end in
    an odd and two in an even digit."""
    values = []
    for k in range(1, 21):
        lo = -(-2 * 10 ** 16 // 5 ** k) | 1
        mid = (lo + min(2 * 10 ** 17 // 5 ** k, 2 ** 53)) // 2 | 1
        values += [math.ldexp(m, -1 - k) for m in (lo, lo + 2, mid, mid + 2)]
    return values


TIES = ties()
EDGE_VALUES = (
    [1e-4, below(1e-4), above(1e-4), 1e17, below(1e17), above(1e17)]
    + POWERS + [below(p) for p in POWERS] + [above(p) for p in POWERS] + NEAR_POWERS + TIES
    + [0.5, 1.5, 0.12345678901234567, 1.0 / 3.0, 2.0 / 3.0, 2 ** -13, 2 ** 56]
    + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
       math.nan, math.inf, -math.inf, 1e-5, 123.0, 1e16 + 2, 99999999999999984.0]
)


class TestText17:
    """``_text17`` writes each value's ``format(v, ".17g")`` bytes."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_format_at_the_edges(self, sign):
        values = [sign * v for v in EDGE_VALUES]
        assert text17(values) == [format(v, ".17g") for v in values]

    def test_no_value_in_range_rounds_up_to_a_power_of_ten(self):
        # the kernel has no carry from 99..9 to 10^17: 17 digits of the double
        # closest below each power stay below it
        for k, v in zip(range(-3, 18), NEAR_POWERS):
            assert v < Fraction(10) ** k
            assert Fraction(format(v, ".17g")) < Fraction(10) ** k

    def test_ties_are_exact_halves(self):
        for k, v in zip(np.repeat(range(1, 21), 4), TIES):
            scaled = Fraction(v) * 10 ** int(k)
            assert 10 ** 16 <= scaled < 10 ** 17 and scaled.denominator == 2

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_an_exponent_estimate_one_off_gives_the_same_text(self, shift, monkeypatch):
        # np.log10 only estimates the exponent; at -0.5 every exact power of ten
        # starts one low, with the product hi + lo exactly 10^17
        values = [sign * v for v in EDGE_VALUES for sign in (1.0, -1.0)]
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert text17(values) == [format(v, ".17g") for v in values]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(1e-4, 1e17, exclude_max=True), min_size=1, max_size=64))
    def test_matches_format_on_any_float(self, values):
        assert text17(values) == [format(v, ".17g") for v in values]

    def test_rows_are_24_bytes_padded_with_zeros(self):
        values = np.array([[1.0, -0.25], [1e300, 7.5e-5]])
        rows = cli._text17(values)
        assert rows.shape == (4, 24) and rows.dtype == np.uint8
        assert rows[0][rows[0] != 0].tobytes() == b"1"
        assert text17(values.ravel()) == [format(v, ".17g") for v in values.ravel()]


class TestCsvWriter:
    """``_csv`` writes each value as ``format(v, ".17g")`` writes it, in chunks."""

    @pytest.mark.parametrize("n", [0, 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
    def test_matches_per_value_format(self, n):
        values = EDGE_VALUES + [-v for v in EDGE_VALUES]
        labels = np.resize(np.array(["interval", "root", "indeterminate"]), n)
        block = np.resize(np.array(values), (n, 2))
        # a column of few distinct values, +-0 and 5e-324 apart
        repeated = np.resize(np.array([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf,
                                       1e-4, below(1e-4), 1e17, below(1e17)]), n)
        columns = [cli._distinct(np.arange(n)), cli._distinct(labels), block,
                   cli._distinct(repeated)]
        chunks = list(cli._csv("id,type,a,b,c", columns))
        # zero rows are the header alone, as domain writes where it finds no interval
        assert len(chunks) == max(1, -(-n // cli._CSV_BLOCK))
        reference = ["id,type,a,b,c"] + [
            ",".join([str(i), str(label)] + [format(float(v), ".17g") for v in (*pair, d)])
            for i, (label, pair, d) in enumerate(zip(labels, block, repeated))]
        assert "".join(chunks) == "".join(line + "\n" for line in reference)


class TestClosedStdout:
    def test_reader_that_leaves_early_gets_141_and_no_stderr(self):
        # the benchmark-sized front writes ~4.7 MB; its reader takes 10 bytes and
        # closes the pipe.  That is no verification disagreement (exit 1)
        src = str(Path(slopemetric.__file__).resolve().parent.parent)
        proc = subprocess.Popen([sys.executable, "-m", "slopemetric.cli", "front", "--surface", PARAB,
                                 "--seed-point", "0.1,0", "--time", "0.3", "--rays", "256"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


class TestUnwritableOutput:
    """A failed output write is one error line and exit 4, not a traceback."""

    ARGV = [sys.executable, "-m", "slopemetric.cli", "domain", "--surface", PARAB, "--smax", "1"]

    def run_cli(self, argv, stdout):
        src = str(Path(slopemetric.__file__).resolve().parent.parent)
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            proc = self.run_cli(self.ARGV, full)
        assert proc.returncode == 4
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_out_in_a_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        proc = self.run_cli(self.ARGV + ["--out", str(target)], subprocess.PIPE)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write output: [Errno 2]")
        assert one_error_line(proc.stderr)


HOSTILE_PARAMS = {"paraboloid": ("h",), "cone": ("a",), "ellipsoid": ("a", "c"),
                  "hyperboloid2": ("a", "b"), "hyperboloid1": ("a", "b"), "gaussian": ()}
EXTREMES = [1e-300, 1e-9, 0.5, 1.0, 3.0, 1e9, 1e300]
HOSTILE_POINTS = ["0,0", "1e-300,0", "0.1,0", "0.5,0.5", "2,1", "1e300,0"]


@st.composite
def hostile_argv(draw):
    """A CLI call on a builtin with extreme params, maybe a tiny domain, any nav
    and a chart point, with few rays, samples and steps."""
    kind = draw(st.sampled_from(sorted(HOSTILE_PARAMS)))
    desc = {"kind": kind, "params": {k: draw(st.sampled_from(EXTREMES)) for k in HOSTILE_PARAMS[kind]}}
    if draw(st.booleans()):
        lo = draw(st.sampled_from([0.0, 1e-300, 0.5, 1.0]))
        desc["domain"] = [lo, lo + draw(st.sampled_from([1e-300, 1e-12, 1e-6]))]
    v = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e300]))
    w = draw(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e300]))
    at = draw(st.sampled_from(HOSTILE_POINTS))
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    extra = {
        "analyze": ["--resolution", "64"],
        "domain": ["--resolution", "64"],
        "verify": ["--samples", "3", "--directions", "8"],
        "indicatrix": ["--at", at, "--n", "8"],
        "geodesic": ["--start", at, "--dir", draw(st.sampled_from(["1,0", "0,1", "-1,1"])),
                     "--length", "0.01", "--step", "0.005"],
        "front": ["--seed-point", at, "--time", "0.01", "--rays", "3", "--step", "0.005"],
    }[command]
    return [command, "--surface", json.dumps(desc), "--nav", f"{v!r},{w!r}", *extra]


class TestHostileInputs:
    """No CLI input ends in a traceback: each run exits with a documented code."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hostile_argv())
    @example(["verify", "--nav", "1e-300,1", "--samples", "3", "--directions", "8"])
    @example(["domain", "--surface", '{"kind":"cone","params":{"a":1e300}}'])
    @example(["verify", "--surface", '{"kind":"ellipsoid","params":{"a":1e-3,"c":1}}'])
    def test_exit_code_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        # the CLI runs under the interpreter's filters, where a numpy warning is
        # a line on stderr, not the exception this suite's filter makes it
        with warnings.catch_warnings(record=True), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("default", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert argv[0] == "verify" and json.loads(out.getvalue())["total_disagreements"] > 0
        else:
            assert code in (0, 2, 3, 4)

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--nav", "1e-300,1"], 0),
        (["domain", "--surface", '{"kind":"cone","params":{"a":1e300}}'], 0),
        (["verify", "--surface", '{"kind":"ellipsoid","params":{"a":1e-3,"c":1}}'], 3),
    ], ids=["zero threshold", "cone asymptote overflow", "band covers the window"])
    def test_item_21_inputs(self, capsys, argv, code):
        got, out, err = run(capsys, argv)
        assert got == code
        if code == 3:
            assert one_error_line(err)
            assert "exclusion band 0.001" in err and "sample window [0.0, 0.000999999999]" in err
        else:
            assert err == ""
            d = json.loads(out)
            if argv[0] == "verify":
                assert d["threshold"] == 0.0 and d["total_disagreements"] == 0
            else:
                assert d["asymptote"]["limit"] == "inf"


# README-like arguments that run each subcommand to its end, cut small
README_LIKE = {
    "analyze": ["--surface", PARAB, "--resolution", "64", "--bbox=-0.5,0.5,-0.5,0.5"],
    "domain": ["--surface", PARAB, "--smax", "1"],
    "verify": ["--surface", PARAB_NEAR, "--samples", "5"],
    "indicatrix": ["--surface", PARAB, "--at", "0.1,0", "--n", "16"],
    "geodesic": ["--surface", PARAB, "--start", "0.1,0", "--dir", "0,1", "--length", "0.02"],
    "front": ["--surface", PARAB, "--seed-point", "0.1,0", "--time", "0.01", "--rays", "8"],
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_declared_option_is_read(capsys, command):
    args = cli._build_parser().parse_args([command, *README_LIKE[command]])
    assert all(opt in args.options for opt in cli.SHARED)
    opts = cli._options(args)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if name in vars(opts):
                read.add(name)
            return super().__getattribute__(name)

    assert args.func(Recording(**vars(opts))) == 0
    capsys.readouterr()
    # the config file's path is read before the command runs
    assert read == {opt.key for opt in args.options} - {"config"}


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--format", "csv"], "--format csv"),
    (["indicatrix", "--surface", PARAB, "--at", "0.1,0", "--seed", "7"], "--seed 7"),
    (["domain", "--surface", PARAB, "--band", "1"], "--band 1"),
    (["analyze", "--surface", PARAB, "--strict"], "--strict"),
])
def test_a_flag_its_command_does_not_read_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    # the usage is the subcommand's, which lists the flags it does take
    assert err.startswith(f"usage: slopemetric {argv[0]} [-h]")
    assert err.rstrip().endswith(f"error: unrecognized arguments: {flag}")


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process: a run, a usage error and another
    # command in one process each print what a fresh interpreter prints
    src = str(Path(slopemetric.__file__).resolve().parent.parent)
    runs = (["verify", *README_LIKE["verify"]], ["verify", "--bogus", "1"], ["domain", *README_LIKE["domain"]])
    cli._build_parser.cache_clear()
    got = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))
        fresh = subprocess.run([sys.executable, "-m", "slopemetric.cli", *argv], capture_output=True,
                               text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert got[-1] == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [code for code, *_ in got] == [0, 2, 0]
    assert got[1][2].startswith("usage: slopemetric verify [-h]")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(runs) - 1)


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = {"surface": json.loads(PARAB), "smax": 1.0, "resolution": 256}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out1, _ = run(capsys, ["domain", "--config", str(path)])
        assert code == 0
        d1 = json.loads(out1)
        assert d1["domain"]["resolution"] == 256
        code, out2, _ = run(capsys, ["domain", "--config", str(path), "--resolution", "512"])
        d2 = json.loads(out2)
        assert d2["domain"]["resolution"] == 512

    def test_byte_identical_reruns(self, capsys):
        args = ["front", "--surface", PARAB, "--seed-point", "0.1,0", "--time", "0.03",
                "--rays", "8", "--step", "0.005"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2
        args_json = ["verify", "--surface", PARAB_NEAR, "--samples", "40", "--seed", "9"]
        _, out3, _ = run(capsys, args_json)
        _, out4, _ = run(capsys, args_json)
        assert out3 == out4

    def test_rays_csv_matches_per_value_format(self):
        def ray(values):
            a = np.asarray(values, dtype=float)
            return GeodesicPath(t=a[:, 0], points=a[:, 1:3], velocities=a[:, 1:3],
                                F_values=a[:, 3], step=1e-3, status="complete")

        rays = [ray([[0.0, -0.0, 5e-324, 1.0 / 3.0], [1e-3, 1e308, -1e308, 2.0]]),
                ray([[0.0, 0.1, -2.5e-17, 1.0]]),
                # other time grids: 0.5 sits on two of them, -0.0 and 5e-324
                # must not merge with 0.0, and a ray may revisit a time
                ray([[-0.0, 0.2, 0.3, 1.5], [0.25, -0.0, 0.5, 5e-324], [0.5, 1.0, 2.0, 3.0]]),
                ray([[5e-324, 1.0, -1.0, 1.0], [0.5, 2.0, -2.0, 2.0], [1.0 / 3.0, 0.5, 0.5, 0.5],
                     [5e-324, -0.0, 0.0, 1.0]]),
                ray([[0.0, 7.0, 8.0, 9.0]])]
        reference = ["ray_id,t,x,y,F"]
        for rid, r in enumerate(rays):
            for k in range(len(r.t)):
                vals = (r.t[k], r.points[k, 0], r.points[k, 1], r.F_values[k])
                reference.append(",".join([str(rid)] + [format(float(v), ".17g") for v in vals]))
        assert "".join(_rays_csv(rays)) == "\n".join(reference) + "\n"

    def test_import_does_not_load_scipy(self):
        src = str(Path(slopemetric.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); import slopemetric.cli; "
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dom.json"
        code, out, _ = run(capsys, ["domain", "--surface", PARAB, "--smax", "1",
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["domain"]["entire"] is False

    def test_malformed_surface_exit_two(self, capsys):
        code, _, err = run(capsys, ["domain", "--surface", '{"kind": "torus"}'])
        assert code == 2
        assert "error" in err

    def test_invalid_json_exit_two(self, capsys):
        code, _, _ = run(capsys, ["domain", "--surface", '{"kind": '])
        assert code == 2

    def test_missing_surface_exit_two(self, capsys):
        code, _, _ = run(capsys, ["domain"])
        assert code == 2

    def test_bad_nav_exit_two(self, capsys):
        code, _, _ = run(capsys, ["indicatrix", "--surface", PARAB,
                                  "--at", "0.1,0", "--nav", "0,-1"])
        assert code == 2

    @pytest.mark.parametrize("command, cfg", [
        ("front", {"seed_point": 5}),
        ("analyze", {"bbox": 3}),
        ("indicatrix", {"at": [0.1, 0.2, 7]}),
    ])
    def test_malformed_number_list_in_config_exit_two(self, capsys, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, [command, "--surface", PARAB, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, cfg, key", [
        ("front", {"seed_point": "0.1,0", "rays": [64]}, "rays"),
        ("domain", {"resolution": None}, "resolution"),
        ("geodesic", {"start": "0.1,0", "dir": "0,1", "length": {"t": 1}}, "length"),
        ("domain", {"smax": "far"}, "smax"),
        ("verify", {"samples": 1e400}, "samples"),
        ("front", {"seed_point": "0.1,0", "strict": "false"}, "strict"),
        ("front", {"seed_point": "0.1,0", "rays": 8.9}, "rays"),
        ("front", {"seed_point": "0.1,0", "rays": True}, "rays"),
        ("domain", {"out": 5}, "out"),
        ("front", {"seed_point": "0.1,0", "time": "inf"}, "time"),
        ("domain", {"smax": "nan"}, "smax"),
    ])
    def test_wrong_typed_config_value_exit_two(self, capsys, tmp_path, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, [command, "--surface", PARAB, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad {key}:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, key", [
        (["geodesic", "--surface", PARAB, "--start", "0.1,0", "--dir", "0,1", "--length", "inf"],
         "length"),
        (["domain", "--surface", PARAB, "--smax", "nan"], "smax"),
    ])
    def test_non_finite_flag_exit_two(self, argv, key):
        # a fresh interpreter shows the stderr a user sees, warnings included
        src = str(Path(slopemetric.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "slopemetric.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: bad {key}:") and proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

    def test_config_null_unsets_an_optional_option(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"smax": None}))
        code, out, _ = run(capsys, ["domain", "--surface", PARAB, "--config", str(path)])
        assert code == 0
        assert json.loads(out)["domain"]["scan_range"][1] == pytest.approx(100.0)

    @pytest.mark.parametrize("cfg", [{}, {"seed_point": None}])
    def test_missing_required_option_exit_two(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, ["front", "--surface", PARAB, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: --seed-point is required") and err.count("\n") == 1
