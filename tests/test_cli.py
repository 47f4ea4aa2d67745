import json
from pathlib import Path

import numpy as np
import pytest

from raftcensus import SynthParams, datasets, generate_synthetic_scene, run_census, save_model
from raftcensus.cli import dispatch, render_overlay
from raftcensus.pipeline import CensusConfig
from raftcensus.waterdetect import NdwiOtsu

SUBCOMMANDS = ("import", "synth", "train-water", "train-platform", "census", "eval", "render")


def run_cli(*args):
    return dispatch(list(args))


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

    @pytest.mark.parametrize("width,height", [(65, 64), (64, 47)])
    def test_odd_size_rejected_before_drawing(self, tmp_path, capsys, monkeypatch, width, height):
        drawn = []
        monkeypatch.setattr(datasets, "generate_synthetic_scene", drawn.append)
        out = tmp_path / "scene"
        assert run_cli("synth", "--out", str(out), "--width", str(width),
                       "--height", str(height)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot export a {width}x{height} stack: dimensions must be even "
            f"so 20 m bands can be written at half resolution\n"
        )
        assert drawn == []
        assert not out.exists()


class TestImport:
    def test_normalizes_and_round_trips(self, scene_dir, tmp_path):
        out = tmp_path / "normalized"
        assert run_cli("import", "--manifest", str(scene_dir / "manifest.json"),
                       "--out", str(out)) == 0
        assert (out / "manifest.json").exists()
        # normalized copy of an already-10m stack is byte-identical band data
        assert (out / "b8.pgm").read_bytes() == (scene_dir / "b8.pgm").read_bytes()


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
        geojson = json.loads(out_csv.with_suffix(".geojson").read_text())
        assert geojson["properties"]["crs"] == "EPSG:32629"
        assert len(geojson["features"]) == 3

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
