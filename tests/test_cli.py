"""Command-line interface: subcommands, exit codes, formats, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slopemetric
from slopemetric.cli import _rays_csv, main
from slopemetric.convexity import is_strongly_convex_at
from slopemetric.geodesics import GeodesicPath

PARAB = '{"kind": "paraboloid", "params": {"h": 100}}'
PARAB_NEAR = '{"kind": "paraboloid", "params": {"h": 100}, "domain": [0, 1]}'
BOUNDARY = 0.2886751345948129


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["domain", "--surface", PARAB, "--smax", "1",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,a,b"
        assert lines[1].startswith("interval,0,")
        assert lines[2].startswith("root,0.2886751345")


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
        for i, x in enumerate(d["x"]):
            for j, y in enumerate(d["y"]):
                if verdict[i, j] != "outside":
                    assert verdict[i, j] == is_strongly_convex_at(surf, x, y, band=1e-3).value

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

    def test_corrupted_threshold_exits_one(self, capsys):
        code, out, _ = run(capsys, ["verify", "--surface", PARAB_NEAR,
                                    "--samples", "150", "--seed", "0",
                                    "--threshold", "0.5"])
        assert code == 1
        d = json.loads(out)
        assert d["total_disagreements"] > 0

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

    def test_strict_exit_three_on_truncation(self, capsys):
        code, _, _ = run(capsys, [
            "front", "--surface", PARAB, "--seed-point", "0.25,0", "--time", "0.3",
            "--rays", "8", "--step", "0.005", "--strict",
        ])
        assert code == 3


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
                ray([[0.0, 0.1, -2.5e-17, 1.0]])]
        reference = ["ray_id,t,x,y,F"]
        for rid, r in enumerate(rays):
            for k in range(len(r.t)):
                vals = (r.t[k], r.points[k, 0], r.points[k, 1], r.F_values[k])
                reference.append(",".join([str(rid)] + [format(float(v), ".17g") for v in vals]))
        assert _rays_csv(rays) == "\n".join(reference) + "\n"

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
