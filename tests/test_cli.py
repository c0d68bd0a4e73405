import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resokit
from resokit import fem
from resokit.cli import main
from resokit.core import DiskGeometry
from resokit.design import profile_by_name

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture()
def beam_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "beam",
        "geometry": {"length": "10 um", "width": "0.46 um",
                     "thickness": "0.4 um", "vibration_axis": "in_plane"},
        "material": "silicon",
        "transducer": {"gap": "90 nm", "bias_voltage": "5 V",
                       "drive_voltage": "100 mV", "electrode_area": "4 um2"},
        "q": 10000,
    }
    path = tmp_path / "beam.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def mos_beam_config(tmp_path, beam_config):
    cfg = json.loads(open(beam_config).read())
    cfg["transducer"]["detection"] = "mos"
    cfg["transducer"]["mos"] = {"bias_drain_current": "10 uA"}
    path = tmp_path / "mos_beam.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def disk_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "disk",
        "geometry": {"radius": "3 um", "thickness": "0.4 um"},
        "material": "silicon",
        "transducer": {"gap": "90 nm", "bias_voltage": "5 V",
                       "drive_voltage": "100 mV", "electrode_area": "1.88 um2"},
        "q": 10000,
    }
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestAnalyze:
    def test_beam_delta_below_1pct(self, beam_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--config", beam_config, "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert abs(report["delta_pct"]) < 1.0
        # text and JSON agree field for field
        text = capsys.readouterr().out
        for key in ("analytic_hz", "fem_hz", "delta_pct"):
            line = [l for l in text.splitlines() if key in l][0]
            assert float(line.split(":")[1]) == report[key]

    def test_disk_smoke(self, disk_config, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--config", disk_config, "--target-edge",
                   "0.3 um", "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert abs(report["delta_pct"]) < 5.0

    @pytest.mark.parametrize("argv", [
        ["analyze", "--config", "{missing}"],
        ["analyze", "--config", "{dir}"],
        ["optimize", "--profile", "vco", "--bounds", "{missing}"],
        ["gap", "--drawn", "90 nm", "--tunnel", "1 um", "--process", "{missing}"],
    ], ids=["config-missing", "config-directory", "bounds-missing", "process-missing"])
    def test_missing_file_is_usage_error(self, tmp_path, capsys, argv):
        paths = {"missing": str(tmp_path / "nonexistent.json"), "dir": str(tmp_path)}
        assert main([a.format(**paths) for a in argv]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_schema_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "pyramid"}))
        assert main(["analyze", "--config", str(path)]) == 2

    def test_missing_geometry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "beam"}))
        assert main(["analyze", "--config", str(path)]) == 2
        assert "missing 'geometry'" in capsys.readouterr().err

    def test_disk_reads_wineglass_pair_only(self, tmp_path, silicon):
        """analyze asks the FEM for the n=2 pair alone; its frequency stays
        within 1e-9 of the one a 6-mode solve gives."""
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(CONFIGS / "disk.json"),
                     "--json", str(out)]) == 0
        geom = DiskGeometry(radius=3e-6, thickness=0.4e-6)
        mesh = fem.mesh_disk(geom, geom.radius / 16.0)
        six = [m for m in fem.disk_modal_fem(geom, silicon, mesh, n_modes=6)
               if m.mode_order == 2][0].frequency
        assert json.loads(out.read_text())["fem_hz"] == pytest.approx(six, rel=1e-9)

    @pytest.mark.parametrize("length", ["10 parsecs", float("inf"), float("nan")])
    def test_bad_quantity_is_usage_error(self, beam_config, capsys, length):
        cfg = json.loads(open(beam_config).read())
        cfg["geometry"]["length"] = length   # inf/nan are written as Infinity/NaN
        with open(beam_config, "w") as f:
            json.dump(cfg, f)
        assert main(["analyze", "--config", beam_config]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestConfigReader:
    """Design, bounds and material files go through one reader and get the
    same errors."""

    @staticmethod
    def _with_material(tmp_path, name, material):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["material"] = material
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("name,argv", [
        ("beam.json", ["check", "--profile", "oscillator-n2", "--config"]),
        ("beam.json", ["respond", "--config"]),
        ("oscillator_bounds.json", ["optimize", "--profile", "oscillator-n2", "--bounds"]),
    ], ids=["check", "respond", "optimize"])
    def test_material_directory_is_usage_error(self, tmp_path, capsys, name, argv):
        assert main([*argv, self._with_material(tmp_path, name, str(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {tmp_path}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "expected a JSON object"),
        ("{", "invalid JSON"),
        (b"\xff\xfe{}", "invalid JSON"),
        ('{"schema_version": 2}', "unsupported schema_version 2"),
    ], ids=["list", "truncated", "not-utf8", "schema-2"])
    def test_bad_material_file_is_usage_error(self, tmp_path, capsys, text, message):
        material = tmp_path / "material.json"
        if isinstance(text, bytes):
            material.write_bytes(text)
        else:
            material.write_text(text)
        config = self._with_material(tmp_path, "beam.json", str(material))
        assert main(["check", "--profile", "oscillator-n2", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {material}: {message}")
        assert len(err.splitlines()) == 1


def _fem_on_material(tmp_path, youngs_modulus, density):
    """The exit code of resokit fem on configs/disk.json with the given
    material, at R/5 with 2 modes."""
    material = tmp_path / "extreme.json"
    material.write_text(json.dumps({"name": "extreme", "youngs_modulus": youngs_modulus,
                                    "density": density, "poisson_ratio": 0.25}))
    config = TestConfigReader._with_material(tmp_path, "disk.json", str(material))
    return main(["fem", "--config", config, "--target-edge", "0.6 um", "--modes", "2"])


class TestEigenSolveFailure:
    def test_overflowing_disk_is_domain_error(self, tmp_path, capsys):
        # a material whose disk eigenvalues overflow: one error line, exit 1
        assert _fem_on_material(tmp_path, 1e280, 1e-30) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalue scale median(diag K / diag M) must be a "
                              "normal float, got inf")
        assert len(err.splitlines()) == 1

    def test_overflowing_stiffness_is_one_error_line(self, tmp_path, capsys):
        # the disk's K overflows while its elements are formed: the gate
        # reports it, with no numpy warning (an error under the test filter)
        assert _fem_on_material(tmp_path, 1e300, 1.0) == 1
        err = capsys.readouterr().err
        assert err == "error: stiffness matrix has non-finite entries\n"

    def test_overflowing_mesh_is_one_error_line(self, tmp_path, capsys):
        # the triangle areas of a 1e300 m disk overflow: the mesh refuses
        # them, with no numpy warning (an error under the test filter)
        config = tmp_path / "huge_disk.json"
        text = (CONFIGS / "disk.json").read_text()
        config.write_text(text.replace('"3 um"', '"1e300 m"').replace('"0.4 um"', '"1e299 m"'))
        assert main(["fem", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: triangle areas must be finite and > 0")
        assert len(err.splitlines()) == 1


class TestUnknownTopLevelKeys:
    """A design or bounds config with a key no loader reads is a config
    error, not a default silently used."""

    @pytest.mark.parametrize("name,argv,key,what", [
        ("beam.json", ["respond", "--config"], "Q", "design"),
        ("disk.json", ["analyze", "--config"], "radius", "design"),
        ("oscillator_bounds.json", ["optimize", "--profile", "oscillator-n2", "--bounds"],
         "grid_point", "bounds"),
    ], ids=["design-beam", "design-disk", "bounds"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, name, argv, key, what):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg[key] = 3
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {what} config: unknown fields ['{key}']\n"
        assert captured.out == ""

    @pytest.mark.parametrize("cfg,message", [
        ({"kind": "beam", "Q": 50}, "design config: missing 'geometry' object"),
        ({"geometry": {}, "Q": 50}, "design config: kind must be 'beam' or 'disk'"),
    ], ids=["no-geometry", "no-kind"])
    def test_missing_design_key_reported_first(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("cfg,message", [
        ({"bounds": {}, "grid_point": 3}, "bounds config: family must be"),
        ({"family": "beam", "grid_point": 3}, "bounds config: missing 'bounds' object"),
    ], ids=["no-family", "no-bounds"])
    def test_missing_bounds_key_reported_first(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimize", "--profile", "oscillator-n2", "--bounds", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestAbsurdValues:
    # check analyzes the released gap, which a drawn gap of 1e-100 m
    # leaves at about 20 nm
    @pytest.mark.parametrize("argv,gap", [
        (["respond"], 1e100), (["respond"], 1e-100),
        (["check", "--profile", "oscillator-n2"], 1e100),
    ], ids=["respond-huge", "respond-tiny", "check-huge"])
    def test_absurd_gap_is_domain_error(self, beam_config, capsys, argv, gap):
        # R_x overflows or underflows: one error line and exit 1, no
        # traceback and no numpy warning
        cfg = json.loads(open(beam_config).read())
        cfg["transducer"]["gap"] = gap
        with open(beam_config, "w") as f:
            json.dump(cfg, f)
        assert main([argv[0], "--config", beam_config, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: R_x must be finite and > 0, got " \
            f"{'inf' if gap > 1 else '0.0'}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["analyze"], ["fem"]])
    def test_disk_mesh_past_the_ring_limit(self, disk_config, capsys, argv):
        # a target edge of 1e-300 m would need 3e294 rings
        assert main([*argv, "--config", disk_config, "--target-edge", "1e-300"]) == 1
        assert "rings" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["analyze"], ["fem"]])
    def test_disk_mesh_edge_of_a_quarter_radius(self, disk_config, capsys, argv):
        # radius/4 is a positive quantity but no mesh: a domain failure
        assert main([*argv, "--config", disk_config, "--target-edge", "0.75 um"]) == 1
        assert capsys.readouterr().err.startswith("error: target_edge must be in (0, radius/4)")


def _breaking(tmp_path, kind):
    """(argv, the file holding the value) for a config of the given kind
    with one value that breaks a domain invariant."""
    beam = str(CONFIGS / "beam.json")
    bounds = json.loads((CONFIGS / "oscillator_bounds.json").read_text())
    design = json.loads((CONFIGS / "beam.json").read_text())
    design["geometry"]["width"] = "20 um"   # wider than long
    negative = {"youngs_modulus": -1.0, "density": 2330, "poisson_ratio": 0.28}
    cases = {
        "design": (design, ["analyze", "--config"]),
        "bounds-material": (dict(bounds, material=negative),
                            ["optimize", "--profile", "oscillator-n2", "--bounds"]),
        "bounds-assumed-q": (dict(bounds, assumed_q=-5),
                             ["optimize", "--profile", "oscillator-n2", "--bounds"]),
        "profile": (dict(profile_by_name("vco").to_dict(), q_required=-1.0),
                    ["check", "--config", beam, "--profile"]),
        "process-gap": ({"etch_bias": -1e-9},
                        ["gap", "--drawn", "80 nm", "--tunnel", "1 um", "--process"]),
        "process-check": ({"etch_bias": -1e-9},
                          ["check", "--config", beam, "--profile", "vco", "--process"]),
    }
    cfg, argv = cases[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    return [*argv, str(path)], str(path)


@pytest.mark.parametrize("kind", ["design", "bounds-material", "bounds-assumed-q", "profile",
                                  "process-gap", "process-check"])
def test_value_breaking_an_invariant_is_usage_error(tmp_path, capsys, kind):
    """A value no input can have is a config error in every kind of config
    file: exit 2 and one error line naming the file."""
    argv, path = _breaking(tmp_path, kind)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("kind,message", [
    ("design", "cannot parse quantity 'abc'"),
    ("bound", "unknown unit suffix 'parsecs' in '2 parsecs'"),
    ("assumed-q", "cannot parse quantity 'lots'"),
])
def test_value_not_a_quantity_names_its_file(tmp_path, capsys, kind, message):
    """A config value that does not parse as a quantity is a config error
    naming the file, wherever it is parsed."""
    bounds = json.loads((CONFIGS / "oscillator_bounds.json").read_text())
    design = json.loads((CONFIGS / "beam.json").read_text())
    design["geometry"]["width"] = "abc"
    bounds_bad = dict(bounds, bounds=dict(bounds["bounds"], width=["2 parsecs", "3 um"]))
    optimize = ["optimize", "--profile", "oscillator-n2", "--bounds"]
    cfg, argv = {"design": (design, ["analyze", "--config"]),
                 "bound": (bounds_bad, optimize),
                 "assumed-q": (dict(bounds, assumed_q="lots"), optimize)}[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "{disk}", "--target-edge", "0"],
    ["fem", "--config", "{disk}", "--target-edge", "-0.3 um"],
    ["respond", "--config", "{beam}", "--termination", "0"],
    ["respond", "--config", "{beam}", "--termination", "-5"],
    ["fem", "--config", "{beam}", "--modes", "0"],
    ["respond", "--config", "{beam}", "--points", "2"],
    ["analyze", "--config", "{beam}", "--elements", "1"],
    ["analyze", "--config", "{beam}", "--elements", "4097"],
    ["fem", "--config", "{beam}", "--elements", "10000000000"],
    ["compare-detection", "--config", "{mos}", "--scales", "1,abc"],
    ["check", "--config", "{beam}", "--profile", "vco", "--freq-tol", "nan"],
    ["check", "--config", "{beam}", "--profile", "vco", "--freq-tol", "-1"],
    ["compare-detection", "--config", "{mos}", "--scales", "0.5,0.2"],
    ["compare-detection", "--config", "{mos}", "--scales", "2,1"],
    ["compare-detection", "--config", "{mos}", "--scales", "1,0.5,0.5"],
    ["compare-detection", "--config", "{mos}", "--scales", "1,0.5,-0.1"],
], ids=["target-edge-0", "target-edge-negative", "termination-0",
        "termination-negative", "modes-0", "points-2", "elements-1", "elements-4097",
        "elements-1e10", "scales-abc", "freq-tol-nan",
        "freq-tol-negative", "scales-not-from-1", "scales-above-1",
        "scales-not-descending", "scales-negative"])
def test_bad_argument_is_usage_error(beam_config, mos_beam_config, disk_config, capsys,
                                    argv):
    assert main([a.format(beam=beam_config, mos=mos_beam_config, disk=disk_config)
                 for a in argv]) == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: resokit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gap", "--drawn", "80 nm", "--tunnel", "1 um", "--json", "{out}"],
    ["respond", "--config", "{beam}", "--csv", "{out}"],
    ["respond", "--config", "{beam}", "--circuit-json", "{out}"],
    ["compare-detection", "--config", "{mos}", "--csv", "{out}"],
    ["fem", "--config", "{beam}", "--mesh-out", "{out}"],
    ["fem", "--config", "{disk}", "--modes", "2", "--modes-csv", "{out}"],
], ids=["json", "csv", "circuit-json", "detection-csv", "mesh-out", "modes-csv"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_is_usage_error(beam_config, mos_beam_config, disk_config,
                                          tmp_path, capsys, argv, where):
    out = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    assert main([a.format(beam=beam_config, mos=mos_beam_config, disk=disk_config,
                          out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {out}: ")


class TestFem:
    def test_disk_modes_csv_solves_once(self, disk_config, tmp_path, monkeypatch):
        # one solve, of the reference disk (the finished solves forgotten),
        # for the table and the CSV
        calls = []
        for name in ("_finish_disk", "_pencil_modes"):
            def counting(*args, name=name, solve=getattr(fem, name), **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)

            monkeypatch.setattr(fem, name, counting)
        fem._reference_modes.cache_clear()
        csv, out = tmp_path / "modes.csv", tmp_path / "fem.json"
        rc = main(["fem", "--config", disk_config, "--modes", "3",
                   "--modes-csv", str(csv), "--json", str(out)])
        assert rc == 0
        assert calls == ["_finish_disk", "_pencil_modes"]
        rows = json.loads(out.read_text())["modes"]
        header = csv.read_text().splitlines()[0].split(",")
        # columns mode<k>_f<frequency>_<component>
        csv_freqs = [col.split("_")[1] for col in header if col.endswith("_ux")]
        assert csv_freqs == [f"f{row['frequency_hz']:.6g}" for row in rows]
        assert len(rows) == 3

    def test_disk_too_many_modes_is_a_domain_failure(self, disk_config, capsys):
        assert main(["fem", "--config", disk_config, "--modes", "5000"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n_modes must be an integer in [1, ")


class TestRespond:
    def test_csv_rows_and_q(self, beam_config, tmp_path, capsys):
        csv = tmp_path / "spec.csv"
        out = tmp_path / "resp.json"
        rc = main(["respond", "--config", beam_config, "--points", "801",
                   "--csv", str(csv), "--json", str(out)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 802  # header + points
        report = json.loads(out.read_text())
        assert report["q_extracted"] == pytest.approx(10000, rel=0.01)

    def test_deterministic_bytes(self, beam_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["respond", "--config", beam_config, "--points", "201",
                     "--csv", str(a)]) == 0
        assert main(["respond", "--config", beam_config, "--points", "201",
                     "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_circuit_json(self, beam_config, tmp_path):
        path = tmp_path / "circuit.json"
        rc = main(["respond", "--config", beam_config, "--points", "201",
                   "--circuit-json", str(path)])
        assert rc == 0
        record = json.loads(path.read_text())
        assert {"r_x", "l_x", "c_x", "c0", "q", "f0"} <= set(record)


class TestCompareDetection:
    def test_ratio_curve(self, mos_beam_config, tmp_path):
        csv = tmp_path / "ratio.csv"
        rc = main(["compare-detection", "--config", mos_beam_config,
                   "--scales", "1,0.8,0.6,0.4,0.2", "--csv", str(csv)])
        assert rc == 0
        rows = [l.split(",") for l in csv.read_text().splitlines()[1:]]
        scales = [float(r[0]) for r in rows]
        ratios = [float(r[1]) for r in rows]
        assert scales[0] == 1.0
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        slope = np.polyfit(np.log(scales), np.log(ratios), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_capacitive_config_rejected(self, beam_config):
        assert main(["compare-detection", "--config", beam_config]) == 1

    @pytest.mark.parametrize("order", [0, -1.5])
    def test_non_positive_modulation_order_is_usage_error(self, mos_beam_config, capsys,
                                                          order):
        # refused when the config is loaded, before any figure is built
        cfg = json.loads(open(mos_beam_config).read())
        cfg["transducer"]["mos"]["channel_modulation_order"] = order
        with open(mos_beam_config, "w") as f:
            json.dump(cfg, f)
        assert main(["compare-detection", "--config", mos_beam_config]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {mos_beam_config}: channel_modulation_order "
                                "must be finite and > 0\n")
        assert captured.out == ""


class TestCheck:
    def test_vco_fails_tuning(self, beam_config, tmp_path, capsys):
        out = tmp_path / "check.json"
        rc = main(["check", "--config", beam_config, "--profile", "vco",
                   "--json", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        tuning = [c for c in report["criteria"] if c["name"] == "tuning"][0]
        assert tuning["applicable"] and not tuning["passed"]
        assert "tuning" in capsys.readouterr().out

    def test_unknown_profile_is_usage_error(self, beam_config):
        assert main(["check", "--config", beam_config,
                     "--profile", "warp-core"]) == 2

    def test_profile_file_matches_builtin(self, beam_config, tmp_path):
        path = tmp_path / "vco.json"
        path.write_text(json.dumps(profile_by_name("vco").to_dict()))
        out_file, out_name = tmp_path / "file.json", tmp_path / "name.json"
        assert main(["check", "--config", beam_config, "--profile", str(path),
                     "--json", str(out_file)]) == 1
        assert main(["check", "--config", beam_config, "--profile", "vco",
                     "--json", str(out_name)]) == 1
        assert out_file.read_bytes() == out_name.read_bytes()

    def test_negative_dc_profile_file_is_usage_error(self, beam_config, tmp_path, capsys):
        d = dict(profile_by_name("vco").to_dict(), dc_voltage_range=[-1.0, 2.4])
        path = tmp_path / "negative-dc.json"
        path.write_text(json.dumps(d))
        assert main(["check", "--config", beam_config, "--profile", str(path)]) == 2
        assert "dc_voltage_range" in capsys.readouterr().err

    def test_matching_design_passes(self, tmp_path, silicon):
        # build a design that meets oscillator-n2 via the optimizer
        from resokit.design import optimize, oscillator_profile
        bounds = {"length": (2e-6, 30e-6), "width": (0.2e-6, 1.0e-6),
                  "thickness": (0.4e-6, 4.0e-6), "gap": (80e-9, 200e-9),
                  "bias_voltage": (1.2, 5.0)}
        best = optimize(oscillator_profile(2), "beam", bounds,
                        material=silicon, grid_points=4)[0]
        cfg = {
            "schema_version": 1,
            "kind": "beam",
            "geometry": best.geometry.to_dict(),
            "material": "silicon",
            "transducer": best.transducer.to_dict(),
            "q": best.assumed_q,
        }
        path = tmp_path / "winner.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path),
                     "--profile", "oscillator-n2"]) == 0


class TestOptimizeCommand:
    def _bounds_file(self, tmp_path, gap_lo="80 nm", gap_hi="200 nm"):
        cfg = {
            "schema_version": 1,
            "family": "beam",
            "material": "silicon",
            "grid_points": 4,
            "max_results": 3,
            "bounds": {
                "length": ["2 um", "30 um"],
                "width": ["0.2 um", "1 um"],
                "thickness": ["0.4 um", "4 um"],
                "gap": [gap_lo, gap_hi],
                "bias_voltage": [1.2, 5.0],
            },
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_unknown_bound_is_usage_error(self, tmp_path, capsys):
        # a bound the family does not have is refused, not silently dropped
        path = self._bounds_file(tmp_path)
        cfg = json.loads(open(path).read())
        cfg["bounds"]["radius"] = ["1 um", "2 um"]
        with open(path, "w") as f:
            json.dump(cfg, f)
        assert main(["optimize", "--profile", "oscillator-n2", "--bounds", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path}: bounds has parameters a beam does not have: "
                                "['radius']\n")
        assert captured.out == ""

    def test_candidates_all_pass_check(self, tmp_path):
        bounds = self._bounds_file(tmp_path)
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--profile", "oscillator-n2", "--bounds", bounds,
                   "--json", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["candidates"]
        # self-verification: every candidate re-checked through cmd_check
        for i, cand in enumerate(result["candidates"]):
            cfg = {
                "schema_version": 1, "kind": "beam",
                "geometry": cand["geometry"],
                "material": "silicon",
                "transducer": cand["transducer"],
                "q": cand["assumed_q"],
            }
            path = tmp_path / f"cand{i}.json"
            path.write_text(json.dumps(cfg))
            assert main(["check", "--config", str(path),
                         "--profile", "oscillator-n2"]) == 0

    def test_deterministic_ranking(self, tmp_path):
        bounds = self._bounds_file(tmp_path)
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        main(["optimize", "--profile", "oscillator-n2", "--bounds", bounds,
              "--json", str(out1)])
        main(["optimize", "--profile", "oscillator-n2", "--bounds", bounds,
              "--json", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("grid_points", [0, "seven"])
    def test_bad_grid_points_is_usage_error(self, tmp_path, capsys, grid_points):
        path = self._bounds_file(tmp_path)
        cfg = json.loads(open(path).read())
        cfg["grid_points"] = grid_points
        with open(path, "w") as f:
            json.dump(cfg, f)
        assert main(["optimize", "--profile", "oscillator-n2", "--bounds", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: grid_points must be an integer >= 1")

    @pytest.mark.parametrize("interval", [["2 um"], [], "2 um"])
    def test_malformed_interval_is_usage_error(self, tmp_path, capsys, interval):
        path = self._bounds_file(tmp_path)
        cfg = json.loads(open(path).read())
        cfg["bounds"]["length"] = interval
        with open(path, "w") as f:
            json.dump(cfg, f)
        assert main(["optimize", "--profile", "oscillator-n2", "--bounds", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: bounds['length'] must be a [low, high] list")

    @pytest.mark.parametrize("bounds", [[["length", "2 um", "30 um"]], 5])
    def test_bounds_not_an_object_is_usage_error(self, tmp_path, bounds):
        path = self._bounds_file(tmp_path)
        cfg = json.loads(open(path).read())
        cfg["bounds"] = bounds
        with open(path, "w") as f:
            json.dump(cfg, f)
        assert main(["optimize", "--profile", "oscillator-n2", "--bounds", path]) == 2

    def test_infeasible_exit_code(self, tmp_path, capsys):
        bounds = self._bounds_file(tmp_path, gap_lo="20 nm", gap_hi="60 nm")
        rc = main(["optimize", "--profile", "oscillator-n2", "--bounds", bounds])
        assert rc == 1
        assert "min_drawn_gap" in capsys.readouterr().err


class TestGap:
    def test_reference_point(self, capsys):
        rc = main(["gap", "--drawn", "80 nm", "--tunnel", "1.19 um"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "130.000 nm" in out

    def test_floor_violation(self, capsys):
        rc = main(["gap", "--drawn", "50 nm", "--tunnel", "0.5 um"])
        assert rc == 1
        assert "min_drawn_gap" in capsys.readouterr().err

    def test_non_finite_gap_is_usage_error(self, capsys):
        assert main(["gap", "--drawn", "1e999nm", "--tunnel", "1 um"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_json_report(self, tmp_path):
        out = tmp_path / "gap.json"
        rc = main(["gap", "--drawn", "100 nm", "--tunnel", "0 m",
                   "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["released_gap_m"] == pytest.approx(110e-9, rel=1e-12)


_NO_SCIPY_SCRIPT = """
import json, sys
from resokit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def _run_loading(argvs):
    """(exit codes, scipy modules loaded) of the CLI commands argvs run in
    one fresh interpreter."""
    src = str(Path(resokit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["scipy"]


def test_closed_form_commands_load_no_scipy(tmp_path):
    """Beam, disk and process commands that need no FEM run without
    importing any scipy module."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    disk_bounds = tmp_path / "disk_bounds.json"
    disk_bounds.write_text(json.dumps({
        "schema_version": 1, "family": "disk", "material": "silicon", "grid_points": 3,
        "bounds": {"radius": ["2 um", "40 um"], "thickness": ["0.4 um", "2 um"],
                   "gap": ["80 nm", "200 nm"], "bias_voltage": [1.2, 5.0]}}))
    argvs = [
        ["gap", "--drawn", "80 nm", "--tunnel", "1.19 um"],
        ["check", "--config", str(configs / "beam.json"), "--profile", "vco"],
        ["check", "--config", str(configs / "beam.json"), "--profile", "oscillator-n2"],
        ["optimize", "--profile", "oscillator-n2",
         "--bounds", str(configs / "oscillator_bounds.json")],
        ["respond", "--config", str(configs / "beam.json")],
        ["check", "--config", str(configs / "disk.json"), "--profile", "oscillator-n2"],
        ["respond", "--config", str(configs / "disk.json")],
        # disks fail the tunnel-depth rule on every grid point
        ["optimize", "--profile", "oscillator-n2", "--bounds", str(disk_bounds)],
    ]
    codes, loaded = _run_loading(argvs)
    assert codes == [0, 1, 1, 0, 0, 1, 0, 1]
    assert loaded == []


def test_small_fem_commands_load_no_scipy():
    """Pencils of at most 300 free dofs are stored, certified and solved by
    numpy alone: the 64-element beam, the 151-element one and the R/5 disk
    (182 dofs) load no scipy module; a 152-element beam and the R/16 disk
    still solve, through scipy's sparse path."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    beam, disk = str(configs / "beam.json"), str(configs / "disk.json")
    codes, loaded = _run_loading([
        ["analyze", "--config", beam],
        ["fem", "--config", beam],
        ["fem", "--config", beam, "--elements", "151", "--modes", "4"],
        ["fem", "--config", disk, "--target-edge", "0.6 um", "--modes", "4"],
    ])
    assert codes == [0, 0, 0, 0] and loaded == []
    for argv in (["fem", "--config", beam, "--elements", "152", "--modes", "4"],
                 ["analyze", "--config", disk]):
        codes, loaded = _run_loading([argv])
        assert codes == [0] and "scipy.sparse.linalg" in loaded
