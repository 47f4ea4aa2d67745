import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raftcensus
from raftcensus import (
    BandId,
    BandStack,
    BlobFilter,
    GeoRef,
    SynthParams,
    TrainConfig,
    datasets,
    generate_synthetic_scene,
    load_band_stack,
    run_census,
    save_model,
)
from raftcensus import bandstack
from raftcensus.cli import _build_parser, dispatch, render_overlay
from raftcensus.errors import DimensionError
from raftcensus.pipeline import Census, CensusConfig, CensusRecord, run_pipeline
from raftcensus.waterdetect import NdwiOtsu

from oracles import ref_render_overlay, ref_write_synthetic_scene

SUBCOMMANDS = ("import", "synth", "train-water", "train-platform", "census", "eval", "render")


def run_cli(*args):
    return dispatch(list(args))


def reject_json_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    code = run_cli("synth", "--out", str(out), "--width", "192", "--height", "192",
                   "--rafts", "6", "--seed", "42")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, platform_model):
    path = tmp_path_factory.mktemp("model") / "platform.mlp"
    save_model(platform_model, path)
    return path


class TestDispatch:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("synth", "--out", "x", "--bogus") == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_help_lists_every_subcommand(self, capsys):
        assert run_cli("--help") == 0
        text = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in text

    def test_parser_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        a = parser.parse_args(["synth", "--out", "x"])
        d = SynthParams()
        assert ((a.width, a.height, a.rafts, a.raft_size, a.noise_sigma, a.seed)
                == (d.width, d.height, d.raft_count, d.raft_size_px, d.noise_sigma, d.seed))
        d = TrainConfig()
        for command in ("train-platform", "train-water"):
            a = parser.parse_args([command, "--synthetic-default", "--out", "x"])
            assert ((a.epochs, a.lr, a.momentum, a.target_loss, a.seed)
                    == (d.max_epochs, d.learning_rate, d.momentum, d.target_loss, d.seed))
        a = parser.parse_args(["census", "--manifest", "m", "--platform-model", "p",
                               "--out", "x"])
        d = BlobFilter()
        assert ((a.max_area, a.max_eqdiam, a.min_solidity)
                == (d.max_area, d.max_equivalent_diameter, d.min_solidity))

    def test_help_matches_golden(self, capsys):
        assert run_cli("--help") == 0
        text = capsys.readouterr().out
        golden = (Path(__file__).parent / "data" / "help_golden.txt").read_text()
        # normalize whitespace runs: argparse wrapping differs slightly
        # across Python versions
        assert " ".join(text.split()) == " ".join(golden.split())

    def test_missing_manifest_is_data_error(self, model_path, tmp_path, capsys):
        code = run_cli("census", "--manifest", str(tmp_path / "nope.json"),
                       "--platform-model", str(model_path),
                       "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_manifest_missing_band_message(self, scene_dir, model_path, tmp_path, capsys):
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        del manifest["bands"]["B11"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        code = run_cli("census", "--manifest", str(bad),
                       "--platform-model", str(model_path),
                       "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "missing band" in capsys.readouterr().err

    def test_model_in_another_band_order_is_data_error(self, scene_dir, model_path, tmp_path,
                                                        capsys):
        lines = model_path.read_text().splitlines()
        assert lines[2] == "features B2 B3 B4 B5 B6 B7 B8 B8A B11 B12"
        lines[2] = "features B3 B2 B4 B5 B6 B7 B8 B8A B11 B12"
        permuted = tmp_path / "permuted.mlp"
        permuted.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        code = run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(permuted), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "expected the line 'features B2 B3 B4" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case,message", [
        ("manifest_is_a_list", "lacks a 'bands' object"),
        ("band_entry_is_a_number", "band B2 is not a path"),
        ("spectra_is_a_list", "must hold a JSON object"),
        ("spectra_is_invalid_json", "is not valid JSON"),
        ("spectra_class_is_an_object", "'water' must be a flat list of numbers"),
        ("spectra_class_is_nested", "'land' must be a flat list of numbers"),
    ])
    def test_malformed_json_is_data_error(self, scene_dir, model_path, tmp_path, capsys,
                                          case, message):
        bad = tmp_path / "bad.json"
        if case.startswith("spectra"):
            bad.write_text({
                "spectra_is_a_list": "[[0.1, 0.2]]",
                "spectra_is_invalid_json": '{"water": [0.1 0.2]}',
                "spectra_class_is_an_object": '{"water": {"a": 1}}',
                "spectra_class_is_nested": '{"land": [[0.1, 0.2], [0.3]]}',
            }[case])
            args = ("synth", "--out", str(tmp_path / "scene"), "--spectra", str(bad))
        else:
            manifest = json.loads((scene_dir / "manifest.json").read_text())
            if case == "manifest_is_a_list":
                manifest = [manifest]
            else:
                manifest["bands"]["B2"] = 5
            bad.write_text(json.dumps(manifest))
            args = ("census", "--manifest", str(bad), "--platform-model", str(model_path),
                    "--out", str(tmp_path / "c.csv"))
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    @pytest.mark.parametrize("command,out", [
        pytest.param(command, out, id=command + "-directory" * (out == "directory"))
        for out in ("missing", "directory")
        for command in ("census", "render", "train-platform", "train-water", "eval")
    ] + [
        pytest.param(command, out, id=f"{command}-is-{out}")
        for command, out in (("census", "b2.pgm"), ("census", "manifest.json"),
                             ("census", "platform.mlp"), ("render", "b11.pgm"),
                             ("render", "manifest.json"), ("render", "platform.mlp"),
                             ("eval", "c.csv"), ("eval", "truth.json"),
                             ("train-platform", "d.csv"))
    ])
    def test_missing_out_dir_rejected_before_any_input_is_read(self, scene_dir, model_path,
                                                               tmp_path, capsys, monkeypatch,
                                                               command, out):
        # An --out that is a directory, or that names one of the command's
        # input files (here by a relative path), is rejected as early as one
        # in a missing directory.
        read = []

        def never(*args, **kwargs):
            read.append(args)
            raise AssertionError("an input was read")

        monkeypatch.setattr("raftcensus.cli.load_band_stack", never)
        monkeypatch.setattr("raftcensus.cli._read_census_csv", never)
        monkeypatch.setattr(datasets, "load_labeled_csv", never)
        monkeypatch.setattr("raftcensus.mlp.load_model", never)
        inputs = tmp_path / "in"
        shutil.copytree(scene_dir, inputs)
        shutil.copy(model_path, inputs / "platform.mlp")
        (inputs / "c.csv").write_text("id,row,col,area_px\n1,10.0,10.0,4\n")
        (inputs / "d.csv").write_text("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0,water\n")
        before = {p.name: p.read_bytes() for p in inputs.iterdir()}
        manifest, model = str(inputs / "manifest.json"), str(inputs / "platform.mlp")
        args = {
            "census": ("--manifest", manifest, "--platform-model", model),
            "render": ("--manifest", manifest, "--platform-model", model),
            "train-platform": (("--data", str(inputs / "d.csv")) if out == "d.csv"
                               else ("--manifest", manifest)),
            "train-water": ("--data", str(inputs / "w.csv")),
            "eval": ("--census", str(inputs / "c.csv"), "--truth", str(inputs / "truth.json")),
        }[command]
        if out in ("missing", "directory"):
            path = tmp_path / "missing" / "out"
            if out == "directory":
                path.mkdir(parents=True)
        else:
            monkeypatch.chdir(tmp_path)
            path = Path("in") / out
        assert run_cli(command, *args, "--out", str(path)) == 2
        err = capsys.readouterr().err
        if out == "directory":
            assert f"output path {path} is a directory" in err
            assert list(path.parent.iterdir()) == [path] and list(path.iterdir()) == []
        elif out == "missing":
            assert f"output directory {path.parent} does not exist" in err
            assert not path.parent.exists()
        else:
            name = {"b2.pgm": "band B2", "b11.pgm": "band B11", "manifest.json": "--manifest",
                    "platform.mlp": "--platform-model", "c.csv": "--census",
                    "truth.json": "--truth", "d.csv": "--data"}[out]
            assert f"output path {path} is also the {name} file" in err
        assert {p.name: p.read_bytes() for p in inputs.iterdir()} == before
        assert "Traceback" not in err and read == []

    def test_out_hard_linked_to_a_band_rejected(self, scene_dir, model_path, tmp_path, capsys):
        # A hard link names the band file by another path: writing the
        # overlay through it would replace the band's bytes.
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        band, alias = scene / "b2.pgm", scene / "alias.pgm"
        os.link(band, alias)
        before = band.read_bytes()
        code = run_cli("render", "--manifest", str(scene / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(alias))
        assert code == 2
        err = capsys.readouterr().err
        assert f"output path {alias} is also the band B2 file" in err and "Traceback" not in err
        assert band.read_bytes() == before and alias.read_bytes() == before

    def test_band_shrunk_after_load_is_data_error(self, scene_dir, model_path, tmp_path,
                                                  capsys, monkeypatch):
        # A loaded stack reads its band files while the census runs.
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        band = scene / "b3.pgm"

        def load_then_shrink(path):
            stack = load_band_stack(path)
            os.truncate(band, band.stat().st_size - 1000)
            return stack

        monkeypatch.setattr("raftcensus.cli.load_band_stack", load_then_shrink)
        code = run_cli("census", "--manifest", str(scene / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(tmp_path / "c.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(band) in err and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()


class TestSynth:
    def test_outputs_present(self, scene_dir):
        for name in ("manifest.json", "truth.json", "truth_water.pgm", "truth_rafts.pgm"):
            assert (scene_dir / name).exists()
        truth = json.loads((scene_dir / "truth.json").read_text())
        assert truth["raft_count"] == 6

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", str(out), "--width", "96",
                           "--height", "96", "--rafts", "3", "--seed", "7") == 0
        for name in ("manifest.json", "truth.json", "b8.pgm", "truth_rafts.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_rejected(self, tmp_path, capsys, sigma):
        out = tmp_path / "scene"
        assert run_cli("synth", "--out", str(out), "--width", "64", "--height", "64",
                       "--noise-sigma", sigma) == 2
        err = capsys.readouterr().err
        assert "noise_sigma" in err and "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("width,height", [(65, 64), (64, 47), (97, 130)])
    def test_odd_size_rejected_before_drawing(self, tmp_path, capsys, monkeypatch, width, height):
        drawn = []
        monkeypatch.setattr(datasets, "write_synthetic_scene", lambda *a: drawn.append(a))
        out = tmp_path / "scene"
        assert run_cli("synth", "--out", str(out), "--width", str(width),
                       "--height", str(height)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot export a {width}x{height} stack: dimensions must be even "
            f"so 20 m bands can be written at half resolution\n"
        )
        assert drawn == []
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--width", "64", "--height", "48", "--rafts", "3", "--noise-sigma", "0"),
        ("--width", "96", "--height", "200", "--rafts", "6", "--raft-size", "3",
         "--noise-sigma", "0.08", "--origin", "500000", "4680000"),
    ])
    def test_files_equal_whole_plane_reference(self, tmp_path, flags):
        assert run_cli("synth", "--out", str(tmp_path / "cli"), "--seed", "11", *flags) == 0
        opts = dict(zip(flags[::2], flags[1::2]))
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629") if "--origin" in opts else None
        params = SynthParams(
            width=int(opts["--width"]), height=int(opts["--height"]),
            raft_count=int(opts["--rafts"]), raft_size_px=int(opts.get("--raft-size", 2)),
            noise_sigma=float(opts["--noise-sigma"]), seed=11, geo=geo,
        )
        ref_write_synthetic_scene(params, tmp_path / "ref")
        names = sorted(f.name for f in (tmp_path / "ref").iterdir())
        assert sorted(f.name for f in (tmp_path / "cli").iterdir()) == names
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    @pytest.mark.parametrize("flags,spectra,message", [
        (("--rafts", "200"), None, "rafts do not fit"),
        (("--width", "31"), None, "dimensions must be even"),
        (("--origin", "nan", "0"), None, "geo origin must be finite"),
        ((), '{"water": [0.1], "land": [0.2], "raft": [0.3]}', "'water' must list 10 values"),
        ((), '{"water": [NaN, 0, 0, 0, 0, 0, 0, 0, 0, 0]}', "'water' has invalid reflectances"),
        ((), '{"water": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}',
         "lacks class 'land'"),
    ])
    def test_data_errors_exit_2_before_the_directory(self, tmp_path, capsys, flags, spectra,
                                                     message):
        args = ["synth", "--out", str(tmp_path / "scene"), "--width", "32", "--height", "32",
                *flags]
        if spectra is not None:
            (tmp_path / "s.json").write_text(spectra)
            args += ["--spectra", str(tmp_path / "s.json")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "scene").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_synth_peak_memory_far_below_the_float_planes(self, tmp_path):
        # Ten float64 planes of this scene take 335 MB; the streamed
        # synth holds a 4 MB class map plus row-chunk buffers.
        env = dict(os.environ, PYTHONPATH=str(Path(raftcensus.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("peak_rss.py")), "100",
             "synth", "--out", str(tmp_path / "scene"), "--width", "2048", "--height", "2048",
             "--rafts", "2000", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestImport:
    def test_normalizes_and_round_trips(self, scene_dir, tmp_path):
        out = tmp_path / "normalized"
        assert run_cli("import", "--manifest", str(scene_dir / "manifest.json"),
                       "--out", str(out)) == 0
        assert (out / "manifest.json").exists()
        # normalized copy of an already-10m stack is byte-identical band data
        assert (out / "b8.pgm").read_bytes() == (scene_dir / "b8.pgm").read_bytes()

    def test_in_place_import_equals_fresh_import(self, scene_dir, tmp_path):
        # The loaded stack reads the very files the import replaces. Import
        # is lossless: every file it writes, 20 m bands included, equals the
        # input's.
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        shutil.copytree(scene_dir, here)
        assert run_cli("import", "--manifest", str(scene_dir / "manifest.json"),
                       "--out", str(fresh)) == 0
        assert run_cli("import", "--manifest", str(here / "manifest.json"),
                       "--out", str(here)) == 0
        assert (fresh / "b11.pgm").exists()
        for f in fresh.iterdir():
            assert (scene_dir / f.name).read_bytes() == f.read_bytes(), f.name
        names = sorted(f.name for f in scene_dir.iterdir())
        assert sorted(f.name for f in here.iterdir()) == names  # no temporary left
        for f in fresh.iterdir():
            assert (here / f.name).read_bytes() == f.read_bytes(), f.name


class TestCensusEvalCli:
    def test_census_and_eval(self, scene_dir, model_path, tmp_path, capsys):
        census_csv = tmp_path / "census.csv"
        code = run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(census_csv))
        assert code == 0
        lines = census_csv.read_text().strip().splitlines()
        assert lines[0] == "id,row,col,area_px"
        assert len(lines) == 7  # 6 rafts detected

        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--census", str(census_csv),
                       "--truth", str(scene_dir / "truth.json"),
                       "--out", str(report_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "TFA" in out and "TFR" in out
        report = json.loads(report_path.read_text())
        assert report["missed"] == 0 and report["false_detections"] == 0

    @pytest.mark.parametrize("gate", ["nan", "inf"])
    def test_eval_rejects_non_finite_gate(self, scene_dir, tmp_path, capsys, gate):
        census_csv = tmp_path / "census.csv"
        census_csv.write_text("id,row,col,area_px\n1,10.0,10.0,4\n")
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--census", str(census_csv),
                       "--truth", str(scene_dir / "truth.json"),
                       "--max-match-dist", gate, "--out", str(report_path))
        assert code == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("row", ["1", "2,abc,3.0,4"])
    def test_eval_rejects_bad_census_row(self, scene_dir, tmp_path, capsys, row):
        census_csv = tmp_path / "census.csv"
        census_csv.write_text(f"id,row,col,area_px\n1,10.0,10.0,4\n{row}\n")
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--census", str(census_csv),
                       "--truth", str(scene_dir / "truth.json"), "--out", str(report_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{census_csv}: line 3" in err and "Traceback" not in err
        assert not report_path.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_census_rejects_bad_max_eqdiam(self, scene_dir, model_path, tmp_path, capsys, value):
        out_csv = tmp_path / "c.csv"
        code = run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path), "--max-eqdiam", value,
                       "--out", str(out_csv))
        assert code == 2
        assert "max_equivalent_diameter" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_census_writes_geojson_when_geo(self, model_path, tmp_path):
        scene = tmp_path / "geoscene"
        assert run_cli("synth", "--out", str(scene), "--width", "128", "--height", "128",
                       "--rafts", "3", "--seed", "3",
                       "--origin", "500000", "4680000", "--crs", "EPSG:32629") == 0
        out_csv = tmp_path / "c.csv"
        assert run_cli("census", "--manifest", str(scene / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(out_csv)) == 0
        geojson = json.loads(out_csv.with_suffix(".geojson").read_text(),
                             parse_constant=reject_json_constant)
        assert geojson["properties"]["crs"] == "EPSG:32629"
        assert len(geojson["features"]) == 3

    @pytest.mark.parametrize("case", ["out_is_the_geojson_path", "geojson_path_is_a_directory"])
    def test_census_geojson_path_clash_rejected_before_the_census(
            self, model_path, tmp_path, capsys, monkeypatch, case):
        scene = tmp_path / "geoscene"
        assert run_cli("synth", "--out", str(scene), "--width", "128", "--height", "128",
                       "--rafts", "3", "--seed", "3", "--origin", "500000", "4680000") == 0

        def never(*args, **kwargs):
            raise AssertionError("the census ran")

        monkeypatch.setattr("raftcensus.cli.run_census", never)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if case == "out_is_the_geojson_path":
            out, message = out_dir / "x.geojson", "is also the --out file"
        else:
            out, message = out_dir / "y.csv", "is a directory"
            (out_dir / "y.geojson").mkdir()
        assert run_cli("census", "--manifest", str(scene / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not any(p.is_file() for p in out_dir.rglob("*"))

    @pytest.mark.parametrize("origin", ["NaN", "Infinity"])
    def test_census_rejects_non_finite_origin(self, scene_dir, model_path, tmp_path, capsys,
                                              origin):
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        manifest["bands"] = {b: str(scene_dir / name) for b, name in manifest["bands"].items()}
        manifest["geo"] = {"origin_easting": 500000.0, "origin_northing": float(origin),
                           "crs": "EPSG:32629"}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out_csv = tmp_path / "c.csv"
        code = run_cli("census", "--manifest", str(tmp_path / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(out_csv))
        assert code == 2
        err = capsys.readouterr().err
        assert "geo origin must be finite" in err and "Traceback" not in err
        assert not out_csv.exists()

    def test_water_mlp_route(self, scene_dir, model_path, water_model, tmp_path):
        wm_path = tmp_path / "water.mlp"
        save_model(water_model, wm_path)
        out_csv = tmp_path / "c.csv"
        code = run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path),
                       "--water-method", "mlp", "--water-model", str(wm_path),
                       "--out", str(out_csv))
        assert code == 0
        assert len(out_csv.read_text().strip().splitlines()) == 7

    def test_water_mlp_requires_model_flag(self, scene_dir, model_path, tmp_path):
        assert run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path),
                       "--water-method", "mlp",
                       "--out", str(tmp_path / "c.csv")) == 1

    @pytest.mark.parametrize("command", ["census", "render"])
    @pytest.mark.parametrize("method", [(), ("--water-method", "ndwi")])
    def test_water_model_requires_mlp_method(self, scene_dir, model_path, water_model,
                                             tmp_path, capsys, command, method):
        wm_path = tmp_path / "water.mlp"
        save_model(water_model, wm_path)
        out = tmp_path / "out"
        assert run_cli(command, "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path), *method,
                       "--water-model", str(wm_path), "--out", str(out)) == 1
        assert "--water-model requires --water-method mlp" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["census", "render"])
    @pytest.mark.parametrize("flags,message", [
        (("--water-model", "nope.mlp"), "--water-model requires --water-method mlp"),
        (("--water-method", "mlp"), "--water-method mlp requires --water-model"),
    ])
    def test_flag_pairing_checked_before_any_file_is_read(self, tmp_path, capsys, command,
                                                          flags, message):
        # Neither the manifest nor a model exists: the usage error wins.
        out = tmp_path / "out"
        assert run_cli(command, "--manifest", str(tmp_path / "nope.json"),
                       "--platform-model", str(tmp_path / "nope.mlp"), *flags,
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err and "manifest" not in err
        assert not out.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_census_peak_memory_holds_no_band_raster(self, model_path, tmp_path):
        # The 2048x2048 scene's 16-bit bands take 44 MB; a loaded stack
        # reads them one row window at a time, so the census holds its
        # whole-scene masks and the interpreter (63 MB measured).
        scene = tmp_path / "scene"
        assert run_cli("synth", "--out", str(scene), "--width", "2048", "--height", "2048",
                       "--rafts", "2000", "--seed", "1",
                       "--origin", "500000", "4680000") == 0
        env = dict(os.environ, PYTHONPATH=str(Path(raftcensus.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("peak_rss.py")), "90",
             "census", "--manifest", str(scene / "manifest.json"),
             "--platform-model", str(model_path), "--out", str(tmp_path / "c.csv")],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestTrainCli:
    def test_train_platform_synthetic_default(self, tmp_path, capsys):
        model_out = tmp_path / "p.mlp"
        code = run_cli("train-platform", "--synthetic-default", "--seed", "11",
                       "--out", str(model_out))
        assert code == 0
        assert "held-out error" in capsys.readouterr().out
        from raftcensus import load_model

        assert load_model(model_out).layer_sizes == (10, 2, 1)

    def test_train_platform_mined_from_scene(self, scene_dir, tmp_path):
        model_out = tmp_path / "mined.mlp"
        code = run_cli("train-platform", "--manifest", str(scene_dir / "manifest.json"),
                       "--seed", "4", "--epochs", "800", "--out", str(model_out))
        assert code == 0
        assert model_out.exists()

    def test_train_water_from_csv(self, tmp_path):
        from raftcensus.datasets import default_water_training_set, save_labeled_csv

        csv_path = tmp_path / "w.csv"
        save_labeled_csv(default_water_training_set(seed=2, n_per_class=300), csv_path)
        model_out = tmp_path / "w.mlp"
        code = run_cli("train-water", "--data", str(csv_path), "--seed", "2",
                       "--epochs", "600", "--out", str(model_out))
        assert code == 0
        from raftcensus import load_model

        assert load_model(model_out).layer_sizes == (10, 8, 3)

    def test_non_finite_csv_feature_rejected_before_training(self, tmp_path, capsys):
        from raftcensus.datasets import default_platform_training_set, save_labeled_csv

        csv_path = tmp_path / "p.csv"
        save_labeled_csv(default_platform_training_set(seed=2), csv_path)
        lines = csv_path.read_text().splitlines()
        lines[-1] = "nan" + lines[-1][lines[-1].index(","):]
        csv_path.write_text("\n".join(lines) + "\n")
        model_out = tmp_path / "p.mlp"
        assert run_cli("train-platform", "--data", str(csv_path), "--epochs", "5",
                       "--out", str(model_out)) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}: line {len(lines)}: features must be finite" in err
        assert not model_out.exists()

    def test_three_class_csv_rejected_by_the_platform_net(self, tmp_path, capsys):
        from raftcensus.datasets import default_water_training_set, save_labeled_csv

        csv_path = tmp_path / "w.csv"
        save_labeled_csv(default_water_training_set(n_per_class=200), csv_path)
        model_out = tmp_path / "p.mlp"
        assert run_cli("train-platform", "--data", str(csv_path), "--epochs", "5",
                       "--out", str(model_out)) == 2
        err = capsys.readouterr().err
        assert "label 2 is not one of the net's 2 classes 0..1" in err
        assert "Traceback" not in err
        assert not model_out.exists()

    @pytest.mark.parametrize("flag,field", [("--lr", "learning_rate"), ("--momentum", "momentum"),
                                            ("--target-loss", "target_loss")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_training_setting_rejected_before_reading_data(
            self, tmp_path, capsys, monkeypatch, flag, field, value):
        def unread(*args, **kwargs):
            raise AssertionError("training data read")

        monkeypatch.setattr(datasets, "default_platform_training_set", unread)
        monkeypatch.setattr(datasets, "load_labeled_csv", unread)
        model_out = tmp_path / "p.mlp"
        for source in (("--synthetic-default",), ("--data", str(tmp_path / "p.csv"))):
            assert run_cli("train-platform", *source, f"{flag}={value}",
                           "--out", str(model_out)) == 2
            assert f"{field} must be finite" in capsys.readouterr().err
        assert not model_out.exists()

    @pytest.mark.parametrize("source", ["--data", "--synthetic-default"])
    def test_correction_without_manifest_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        source):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(datasets, "default_platform_training_set", unread)
        monkeypatch.setattr(datasets, "load_labeled_csv", unread)
        monkeypatch.setattr("raftcensus.cli.read_pgm16", unread)
        args = ("--data", str(tmp_path / "p.csv")) if source == "--data" else (source,)
        model_out = tmp_path / "p.mlp"
        assert run_cli("train-platform", *args, "--correction", str(tmp_path / "nope.pgm"),
                       "--out", str(model_out)) == 1
        assert "--correction requires --manifest" in capsys.readouterr().err
        assert not model_out.exists()

    def test_train_water_zero_hidden_rejected(self, tmp_path, capsys):
        model_out = tmp_path / "w.mlp"
        assert run_cli("train-water", "--synthetic-default", "--hidden", "0",
                       "--epochs", "5", "--out", str(model_out)) == 2
        err = capsys.readouterr().err
        assert "layer sizes" in err and "Traceback" not in err
        assert not model_out.exists()

    def test_train_water_negative_hidden_rejected(self, tmp_path, capsys):
        model_out = tmp_path / "w.mlp"
        assert run_cli("train-water", "--synthetic-default", "--hidden", "-1",
                       "--epochs", "5", "--out", str(model_out)) == 2
        err = capsys.readouterr().err
        assert "layer sizes (10, -1, 3)" in err and "Traceback" not in err
        assert "negative dimensions" not in err
        assert not model_out.exists()

    def test_census_rejects_zero_hidden_model_file(self, scene_dir, model_path, tmp_path, capsys):
        bad = tmp_path / "bad.mlp"
        text = model_path.read_text().replace("layers 10 2 1", "layers 10 0 1")
        bad.write_text(text)
        out_csv = tmp_path / "c.csv"
        assert run_cli("census", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(bad), "--out", str(out_csv)) == 2
        assert "layer sizes" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_requires_exactly_one_source(self, tmp_path):
        assert run_cli("train-platform", "--out", str(tmp_path / "x.mlp")) == 1

    def test_platform_hidden_width_is_not_an_option(self, tmp_path, capsys):
        # The census takes only [10, 2, 1] platform nets.
        model_out = tmp_path / "p.mlp"
        assert run_cli("train-platform", "--synthetic-default", "--hidden", "3",
                       "--epochs", "5", "--out", str(model_out)) == 1
        assert "--hidden" in capsys.readouterr().err
        assert not model_out.exists()


class TestRender:
    def test_render_cli(self, scene_dir, model_path, tmp_path):
        out = tmp_path / "overlay.ppm"
        code = run_cli("render", "--manifest", str(scene_dir / "manifest.json"),
                       "--platform-model", str(model_path), "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n192 192\n255\n")
        assert len(data) == len(b"P6\n192 192\n255\n") + 192 * 192 * 3

    def test_pure_grayscale_without_masks(self, tmp_path):
        stack, _ = generate_synthetic_scene(SynthParams(width=32, height=32, raft_count=0, seed=1))
        path = tmp_path / "gray.ppm"
        render_overlay(stack, None, None, None, path)
        data = path.read_bytes()
        pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(-1, 3)
        assert (pixels[:, 0] == pixels[:, 1]).all() and (pixels[:, 1] == pixels[:, 2]).all()

    def test_all_true_water_uniformly_tinted(self, tmp_path):
        stack, _ = generate_synthetic_scene(SynthParams(width=32, height=32, raft_count=0, seed=1))
        path = tmp_path / "tint.ppm"
        render_overlay(stack, np.ones((32, 32), dtype=bool), None, None, path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8).reshape(-1, 3)
        assert (pixels[:, 2].astype(int) > pixels[:, 0].astype(int)).all()

    def test_platform_pixels_tinted_red(self, tmp_path):
        stack, _ = generate_synthetic_scene(SynthParams(width=32, height=32, raft_count=0, seed=1))
        pmask = np.zeros((32, 32), dtype=bool)
        pmask[10:12, 10:12] = True
        path = tmp_path / "red.ppm"
        render_overlay(stack, None, pmask, None, path)
        img = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        img = img.reshape(32, 32, 3).astype(int)
        sel = img[pmask]
        assert (sel[:, 0] > sel[:, 1]).all() and (sel[:, 0] > sel[:, 2]).all()
        untouched = img[~pmask]
        assert (untouched[:, 0] == untouched[:, 1]).all()

    def test_cross_count_matches_census(self, platform_model, tmp_path):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=192, height=192, raft_count=5, seed=15)
        )
        cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)
        census = run_census(stack, cfg)
        assert census.count == 5
        path = tmp_path / "o.ppm"
        render_overlay(stack, None, None, census, path)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        img = pixels.reshape(192, 192, 3)
        yellow = (img[:, :, 0] == 255) & (img[:, :, 1] == 255) & (img[:, :, 2] == 0)
        assert yellow.sum() == 5 * 5  # five 5-pixel crosses
        for r, c in truth.raft_centroids:
            assert yellow[int(round(r)), int(round(c))]

    @pytest.mark.parametrize("rows", [None, 3])
    def test_bytes_equal_whole_plane_reference(self, scene_dir, platform_model, tmp_path,
                                               monkeypatch, rows):
        if rows:  # windows of 3 rows
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * 192)
        cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)
        loaded = load_band_stack(scene_dir / "manifest.json")
        result = run_pipeline(loaded, cfg)
        memory, _ = generate_synthetic_scene(SynthParams(width=40, height=30, raft_count=1, seed=2))
        flat = {b: np.full((5, 7), 0.25) for b in BandId}
        edge = np.zeros((30, 40), dtype=bool)
        edge[0, :] = edge[:, -1] = True
        cases = [
            (loaded, result.water_mask, result.platform_mask, result.census),
            (loaded, None, None, result.census),
            (memory, edge, ~edge, None),
            (memory, np.ones((30, 40), dtype=bool), np.ones((30, 40), dtype=bool), None),
            (BandStack(width=7, height=5, pixel_size=10.0, planes=flat), None, None, None),
        ]
        assert result.census.count > 0
        for i, (stack, water, platform, census) in enumerate(cases):
            lib, ref = tmp_path / f"lib{i}.ppm", tmp_path / f"ref{i}.ppm"
            render_overlay(stack, water, platform, census, lib)
            ref_render_overlay(stack, water, platform, census, ref)
            assert lib.read_bytes() == ref.read_bytes()

    def test_crosses_across_window_edges_equal_whole_image_reference(self, tmp_path,
                                                                      monkeypatch):
        stack, _ = generate_synthetic_scene(SynthParams(width=40, height=30, raft_count=0, seed=3))
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 4 * 40)  # windows of 4 rows
        # Crosses over the edges of windows 0-3, 4-7 and 8-11 (7.6 rounds to
        # 8), in a window's middle, and cut by the image's edges and corners.
        centers = [(3.0, 5.0), (4.0, 10.0), (7.6, 39.0), (0.0, 0.0), (29.0, 20.5),
                   (28.5, 0.4), (17.5, -1.0), (13.0, 22.0)]
        records = tuple(CensusRecord(id=i, centroid_px=c, area_px=4, bbox=(0, 0, 1, 1))
                        for i, c in enumerate(centers))
        census = Census(records=records, count=len(records), source="s", config_digest="0")
        water = np.zeros((30, 40), dtype=bool)
        water[2:9, 3:30] = True
        for i, (wm, pm) in enumerate([(None, None), (water, ~water), (water, None)]):
            lib, ref = tmp_path / f"lib{i}.ppm", tmp_path / f"ref{i}.ppm"
            render_overlay(stack, wm, pm, census, lib)
            ref_render_overlay(stack, wm, pm, census, ref)
            assert lib.read_bytes() == ref.read_bytes()
        img = np.frombuffer(lib.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        yellow = (img.reshape(30, 40, 3) == (255, 255, 0)).all(axis=-1)
        assert yellow[[2, 3, 4, 3, 4, 5, 7, 8, 9], [5, 5, 5, 10, 10, 10, 39, 39, 39]].all()

    @pytest.mark.parametrize("shape", [(31, 40), (30, 39), (29, 40)])
    def test_mask_of_another_shape_rejected(self, tmp_path, shape):
        stack, _ = generate_synthetic_scene(SynthParams(width=40, height=30, raft_count=0, seed=3))
        for masks in [(np.ones(shape, dtype=bool), None), (None, np.ones(shape, dtype=bool))]:
            with pytest.raises(DimensionError, match="mask of shape"):
                render_overlay(stack, *masks, None, tmp_path / "o.ppm")
        assert not (tmp_path / "o.ppm").exists()

    def test_render_deterministic(self, scene_dir, model_path, tmp_path):
        outs = []
        for name in ("r1.ppm", "r2.ppm"):
            out = tmp_path / name
            assert run_cli("render", "--manifest", str(scene_dir / "manifest.json"),
                           "--platform-model", str(model_path), "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEndToEndDeterminism:
    def test_full_chain_byte_identical(self, tmp_path):
        def chain(root: Path) -> dict[str, bytes]:
            root.mkdir()
            scene = root / "scene"
            assert run_cli("synth", "--out", str(scene), "--width", "160",
                           "--height", "160", "--rafts", "5", "--seed", "77") == 0
            model = root / "platform.mlp"
            assert run_cli("train-platform", "--synthetic-default", "--seed", "77",
                           "--out", str(model)) == 0
            census = root / "census.csv"
            assert run_cli("census", "--manifest", str(scene / "manifest.json"),
                           "--platform-model", str(model), "--out", str(census)) == 0
            report = root / "report.json"
            assert run_cli("eval", "--census", str(census),
                           "--truth", str(scene / "truth.json"),
                           "--out", str(report)) == 0
            return {
                "model": model.read_bytes(),
                "census": census.read_bytes(),
                "report": report.read_bytes(),
            }

        first = chain(tmp_path / "run1")
        second = chain(tmp_path / "run2")
        assert first == second
