import re
import tracemalloc

import numpy as np
import pytest

from raftcensus import (
    BandId,
    GeoRef,
    SynthParams,
    compute_ndwi,
    extract_platform_samples,
    generate_synthetic_scene,
    load_band_stack,
    load_spectra,
    read_pgm16,
    save_band_stack,
    synthetic_pixel_dataset,
    water_mask_ndwi,
)
from raftcensus import bandstack
from raftcensus.datasets import (
    DEFAULT_TRAINING_TOTAL,
    PLATFORM_CLASS_NAMES,
    LabeledPixels,
    WATER_CLASS_NAMES,
    default_platform_training_set,
    _place_rafts,
    load_labeled_csv,
    save_labeled_csv,
    write_synthetic_scene,
)
from raftcensus.errors import DatasetError, DimensionError

from oracles import (
    ref_place_rafts,
    ref_quantized_scene,
    ref_write_synthetic_scene,
)

TEN_METER = (BandId.B2, BandId.B3, BandId.B4, BandId.B8)


class TestSpectra:
    def test_default_spectra_classes(self):
        spectra = load_spectra()
        assert set(WATER_CLASS_NAMES) <= set(spectra)
        for values in spectra.values():
            assert values.shape == (10,)

    def test_ndwi_margin_regression(self):
        # frozen check: noiseless class means keep water and land NDWI
        # separated by more than 0.2
        spectra = load_spectra()
        order = list(BandId)
        g_idx, n_idx = order.index(BandId.B3), order.index(BandId.B8)

        def ndwi(v):
            return (v[g_idx] - v[n_idx]) / (v[g_idx] + v[n_idx])

        assert ndwi(spectra["water"]) - ndwi(spectra["land"]) > 0.2

    def test_raft_between_water_and_land_per_band(self):
        spectra = load_spectra()
        lo = np.minimum(spectra["water"], spectra["land"])
        hi = np.maximum(spectra["water"], spectra["land"])
        assert ((spectra["raft"] >= lo) & (spectra["raft"] <= hi)).all()

    def test_custom_spectra_file(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "water": [0.1] * 10, "land": [0.2] * 10, "raft": [0.15] * 10,
        }))
        spectra = load_spectra(path)
        assert spectra["raft"][0] == 0.15

    def test_bad_spectra_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"water": [0.1, 0.2]}')
        with pytest.raises(DatasetError):
            load_spectra(path)


def ten(v):
    return [v] * 10


class TestSpectraInParams:
    """SynthParams checks its spectra as load_spectra checks a file's."""

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda s: s.pop("raft"), "lacks class 'raft'"),
            (lambda s: s.update(water=[0.1, 0.2, 0.3]), "class 'water' must list 10 values"),
            (lambda s: s.update(land=ten(float("nan"))), "class 'land' has invalid reflectances"),
            (lambda s: s.update(raft=ten(-0.1)), "class 'raft' has invalid reflectances"),
            (lambda s: s.update(land=np.full(10, np.inf)), "class 'land' has invalid"),
            (lambda s: s.update(water=np.zeros((2, 5))), "class 'water' must be a flat list"),
            (lambda s: s.update(water=ten("0.1")), "class 'water' must be a flat list"),
            (lambda s: s.update(water=ten(True)), "class 'water' must be a flat list"),
        ],
    )
    def test_bad_spectra_rejected_naming_the_class(self, change, message):
        spectra = {name: list(v) for name, v in load_spectra().items()}
        change(spectra)
        with pytest.raises(DatasetError, match=message):
            SynthParams(width=32, height=32, spectra=spectra)

    def test_good_spectra_accepted_as_lists_or_arrays(self):
        spectra = load_spectra()
        as_lists = {name: v.tolist() for name, v in spectra.items()}
        as_lists["_note"] = "ignored"
        for given in (spectra, as_lists):
            stack, _ = generate_synthetic_scene(
                SynthParams(width=32, height=32, raft_count=1, seed=1, spectra=given)
            )
            ref, _ = ref_quantized_scene(
                SynthParams(width=32, height=32, raft_count=1, seed=1, spectra=spectra)
            )
            got = stack.rows(0, 32)
            for b in BandId:
                assert np.array_equal(got[b], ref.planes[b])

    def test_layout_errors_come_before_the_directory(self, tmp_path):
        out = tmp_path / "scene"
        with pytest.raises(DatasetError, match="fit"):
            write_synthetic_scene(SynthParams(width=32, height=32, raft_count=200), out)
        assert not out.exists()


# Scenes drawn in row chunks against the whole-plane reference: sigma 0
# and 0.08, 3 px rafts, the smallest scene, and heights that are not a
# multiple of the chunk height (96 wide: chunks of 170 rows).
SCENES = [
    dict(width=64, height=64, raft_count=4, noise_sigma=0.0, seed=2),
    dict(width=64, height=48, raft_count=4, noise_sigma=0.08, seed=3),
    dict(width=128, height=96, raft_count=12, raft_size_px=3, seed=4),
    dict(width=24, height=24, raft_count=0, seed=5),
    dict(width=96, height=200, raft_count=6, raft_size_px=3, noise_sigma=0.08, seed=6),
]
# None keeps the library's chunk height; a number sets _BLOCK_PIXELS to
# that many rows' worth, so chunks are that many rows rounded down to even.
CHUNK_ROWS = [None, 7]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestStreamedScene:
    # 98 wide is not a multiple of 64, the width of a BitMask word.
    @pytest.mark.parametrize("rows", CHUNK_ROWS)
    @pytest.mark.parametrize("kw", SCENES + [dict(width=98, height=130, raft_count=5, seed=13)])
    def test_planes_and_truth_equal_whole_plane_reference(self, monkeypatch, kw, rows):
        if rows:
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * kw["width"])
        stack, truth = generate_synthetic_scene(SynthParams(**kw))
        ref, ref_truth = ref_quantized_scene(SynthParams(**kw))
        got = stack.rows(0, stack.height)
        for b in BandId:
            assert np.array_equal(bits(got[b]), bits(ref.planes[b])), b
        for name in ("water_mask", "raft_mask", "class_map"):
            assert np.array_equal(getattr(truth, name), getattr(ref_truth, name))
        assert truth.raft_centroids == ref_truth.raft_centroids

    @pytest.mark.parametrize("rows", CHUNK_ROWS)
    @pytest.mark.parametrize("kw", SCENES)
    def test_generated_stack_is_the_written_scene(self, tmp_path, monkeypatch, kw, rows):
        """save_band_stack of the generated stack writes the band files and
        manifest of write_synthetic_scene, and its windows read as the
        written scene's, loaded, read them."""
        if rows:
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * kw["width"])
        params = SynthParams(**kw, geo=GeoRef(500000.0, 4680000.0, "EPSG:32629"))
        stack, _ = generate_synthetic_scene(params)
        write_synthetic_scene(params, tmp_path / "written")
        save_band_stack(stack, tmp_path / "saved")
        names = sorted(f.name for f in (tmp_path / "saved").iterdir())
        assert len(names) == 11
        for name in names:
            assert ((tmp_path / "saved" / name).read_bytes()
                    == (tmp_path / "written" / name).read_bytes()), name
        loaded = load_band_stack(tmp_path / "written" / "manifest.json")
        assert (stack.width, stack.height, stack.geo) == (loaded.width, loaded.height, loaded.geo)
        for (r0, r1, got), (_, _, want) in zip(stack.windows(), loaded.windows(), strict=True):
            for b in BandId:
                assert np.array_equal(bits(got[b]), bits(want[b])), (b, r0)
            got_dn, want_dn = stack.dn_rows(r0, r1, TEN_METER), loaded.dn_rows(r0, r1, TEN_METER)
            for b in TEN_METER:
                assert np.array_equal(got_dn[b], want_dn[b]), (b, r0)

    def test_generated_stack_holds_only_digital_numbers(self):
        """A 512x512 scene holds 11 B/px: the read-only uint16 digital numbers
        of four 10 m bands and of six 20 m bands at half size. With its 1 B/px
        class map, that is all the memory the scene keeps: no float array."""
        n = 512 * 512
        tracemalloc.start()
        try:
            stack, truth = generate_synthetic_scene(SynthParams(width=512, height=512, seed=1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [raster.dn for raster in stack.planes.rasters.values()]
        assert len(arrays) == len(BandId)
        assert all(a.dtype == np.uint16 and not a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) == 11 * n
        assert truth.class_map.nbytes == n
        assert 12 * n <= held < 12 * n + 2**16

    def test_odd_size_rejected_before_drawing(self):
        for width, height in ((97, 64), (64, 97)):
            with pytest.raises(DimensionError, match=f"cannot export a {width}x{height} stack"):
                SynthParams(width=width, height=height)

    @pytest.mark.parametrize("rows", CHUNK_ROWS)
    @pytest.mark.parametrize("kw", SCENES)
    def test_written_files_equal_whole_plane_reference(self, tmp_path, monkeypatch, kw, rows):
        if rows:
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * kw["width"])
        params = SynthParams(**kw, geo=GeoRef(500000.0, 4680000.0, "EPSG:32629"))
        centroids = write_synthetic_scene(params, tmp_path / "lib")
        ref_write_synthetic_scene(params, tmp_path / "ref")
        names = sorted(f.name for f in (tmp_path / "ref").iterdir())
        assert len(names) == 14
        assert sorted(f.name for f in (tmp_path / "lib").iterdir()) == names
        for name in names:
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        assert len(centroids) == kw["raft_count"]

    def test_chunks_are_even_and_cover_every_row(self):
        for width, height in ((2048, 2048), (96, 200), (24, 24), (20000, 6), (1, 4)):
            chunks = list(bandstack.row_chunks(width, height))
            assert chunks[0][0] == 0 and chunks[-1][1] == height
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert all((r1 - r0) % 2 == 0 for r0, r1 in chunks)


class TestSyntheticScene:
    def test_zero_noise_equals_class_means(self, tmp_path):
        """A noiseless 10 m pixel is its class mean rounded to a digital
        number; a 20 m cell is the mean of its 2x2 block of class means,
        rounded."""
        params = SynthParams(width=64, height=64, raft_count=4, noise_sigma=0.0, seed=2)
        stack, truth = generate_synthetic_scene(params)
        table = np.stack([load_spectra()[name] for name in WATER_CLASS_NAMES])
        means = table[truth.class_map]  # (64, 64, 10)
        dn = stack.dn_rows(0, 64, TEN_METER)
        save_band_stack(stack, tmp_path)
        for i, band in enumerate(BandId):
            if band in TEN_METER:
                got, want = dn[band], means[..., i]
            else:
                got = read_pgm16(tmp_path / f"{band.value.lower()}.pgm")
                want = means[..., i].reshape(32, 2, 32, 2).mean(axis=(1, 3))
            assert np.array_equal(got, np.rint(want * 10000)), band

    def test_no_rafts(self):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=48, height=48, raft_count=0, seed=1)
        )
        assert not truth.raft_mask.any()
        assert truth.raft_centroids == ()
        # water mask is the interior rectangle
        assert truth.water_mask.any()
        rows, cols = np.nonzero(truth.water_mask)
        sub = truth.water_mask[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
        assert sub.all()

    def test_deterministic(self):
        params = SynthParams(width=64, height=64, raft_count=5, seed=9)
        s1, t1 = generate_synthetic_scene(params)
        s2, t2 = generate_synthetic_scene(params)
        p1, p2 = s1.rows(0, 64), s2.rows(0, 64)
        for b in BandId:
            assert np.array_equal(p1[b], p2[b])
        assert t1.raft_centroids == t2.raft_centroids

    def test_rafts_inside_water_with_gaps(self):
        params = SynthParams(width=128, height=128, raft_count=12, raft_size_px=3, seed=4)
        _, truth = generate_synthetic_scene(params)
        assert len(truth.raft_centroids) == 12
        assert truth.raft_mask.sum() == 12 * 9
        assert not (truth.raft_mask & (truth.class_map == 0)).any()
        # pairwise gap >= 2 px between raft bounding boxes
        cents = np.array(truth.raft_centroids)
        for i in range(len(cents)):
            for j in range(i + 1, len(cents)):
                d = np.abs(cents[i] - cents[j]).max()
                assert d >= 3 + 2  # size + minimum gap

    def test_overflowing_noise_rejected(self, tmp_path):
        params = SynthParams(width=32, height=32, raft_count=1, noise_sigma=1e308, seed=1)
        with pytest.raises(DatasetError, match="noise_sigma 1e[+]308 draws reflectances beyond"):
            generate_synthetic_scene(params)
        with pytest.raises(DatasetError, match="noise_sigma"):
            write_synthetic_scene(params, tmp_path / "scene")

    def test_rafts_do_not_fit(self):
        with pytest.raises(DatasetError, match="fit"):
            generate_synthetic_scene(SynthParams(width=32, height=32, raft_count=200, seed=0))

    def test_ndwi_separation_on_noiseless_scene(self):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=48, height=48, raft_count=0, noise_sigma=0.0, seed=0)
        )
        planes = stack.rows(0, 48, (BandId.B3, BandId.B8))
        ndwi = compute_ndwi(planes[BandId.B3], planes[BandId.B8])
        assert ndwi[truth.water_mask].min() - ndwi[truth.class_map == 0].max() > 0.2


def placed_both_ways(params):
    """(outcome, generator state after placement) from the library and
    from the all-pairs reference; the outcome is the corner list or the
    DatasetError message."""
    results = []
    for place in (_place_rafts, ref_place_rafts):
        rng = np.random.default_rng(params.seed)
        try:
            outcome = place(params, rng)
        except DatasetError as exc:
            outcome = str(exc)
        results.append((outcome, rng.bit_generator.state))
    return results


class TestRaftPlacement:
    @pytest.mark.parametrize("seed", [0, 1, 5, 9])
    @pytest.mark.parametrize(
        "size,width,height,count",
        [
            (2, 256, 256, 40),  # sparse
            (3, 256, 256, 40),
            (2, 48, 48, 15),  # near full: many candidates rejected
            (3, 64, 64, 25),
            (2, 640, 320, 900),  # many cells, wider than high
            (3, 320, 640, 600),
        ],
    )
    def test_corners_equal_all_pairs_reference(self, seed, size, width, height, count):
        params = SynthParams(width=width, height=height, raft_count=count,
                             raft_size_px=size, seed=seed)
        (corners, state), (ref_corners, ref_state) = placed_both_ways(params)
        assert corners == ref_corners
        assert len(corners) == count
        assert state == ref_state

    @pytest.mark.parametrize("seed", [0, 3])
    # The last two counts are at the bound of _place_rafts: as many rafts as
    # the corner range has reach x reach blocks.
    @pytest.mark.parametrize("size,side,count", [(2, 48, 20), (3, 64, 30), (2, 48, 25),
                                                 (3, 64, 36)])
    def test_same_message_when_rafts_do_not_fit(self, seed, size, side, count):
        params = SynthParams(width=side, height=side, raft_count=count,
                             raft_size_px=size, seed=seed)
        (message, state), (ref_message, ref_state) = placed_both_ways(params)
        assert isinstance(message, str) and message.startswith("rafts do not fit: placed")
        assert message == ref_message
        assert state == ref_state

    @pytest.mark.parametrize("size,side,count,most", [(2, 48, 26, 25), (3, 32, 5, 4),
                                                      (2, 64, 100000, 64)])
    def test_count_above_the_bound_draws_nothing(self, size, side, count, most):
        params = SynthParams(width=side, height=side, raft_count=count, raft_size_px=size)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DatasetError, match=f"do not fit: at most {most} rafts"):
            _place_rafts(params, rng)
        assert rng.bit_generator.state == before


class TestExtractPlatformSamples:
    def test_counts_from_exact_holes(self):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=96, height=96, raft_count=1, raft_size_px=2, seed=6)
        )
        water = water_mask_ndwi(stack)
        data = extract_platform_samples(stack, water, seed=1)
        assert (data.labels == 1).sum() == (data.labels == 0).sum() == 4
        assert data.class_names == PLATFORM_CLASS_NAMES

    def test_mined_pixels_match_truth(self):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=25, seed=11)
        )
        water = water_mask_ndwi(stack)
        data = extract_platform_samples(stack, water, seed=2)
        n = (data.labels == 1).sum()
        # platform features should carry the raft signature: compare the
        # mined platform rows against truth raft pixel features
        truth_feats = stack.features(*np.nonzero(truth.raft_mask))
        mined = data.features[data.labels == 1]
        truth_set = {tuple(row) for row in np.round(truth_feats, 12).tolist()}
        hits = sum(tuple(row) in truth_set for row in np.round(mined, 12).tolist())
        assert hits / n >= 0.95

    def test_correction_mask_vetoes(self):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=96, height=96, raft_count=2, seed=6)
        )
        water = water_mask_ndwi(stack)
        with pytest.raises(DatasetError, match="zero candidates"):
            extract_platform_samples(stack, water, correction=np.zeros_like(water), seed=0)

    def test_balanced_and_seeded(self):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=6, seed=3)
        )
        water = water_mask_ndwi(stack)
        d1 = extract_platform_samples(stack, water, seed=5)
        d2 = extract_platform_samples(stack, water, seed=5)
        d3 = extract_platform_samples(stack, water, seed=6)
        assert np.array_equal(d1.features, d2.features)
        assert not np.array_equal(d1.features, d3.features)
        assert (d1.labels == 0).sum() == (d1.labels == 1).sum()


class TestPixelDatasets:
    def test_default_platform_set_size_and_balance(self):
        data = default_platform_training_set(seed=0)
        assert len(data.features) == DEFAULT_TRAINING_TOTAL
        assert (data.labels == 0).sum() == (data.labels == 1).sum()

    def test_sampled_features_near_spectra(self):
        data = synthetic_pixel_dataset(("water", "raft"), 500, noise_sigma=0.001, seed=8)
        spectra = load_spectra()
        water_rows = data.features[data.labels == 0]
        assert np.allclose(water_rows.mean(axis=0), spectra["water"], atol=0.001)

    def test_csv_round_trip(self, tmp_path):
        data = synthetic_pixel_dataset(WATER_CLASS_NAMES, 20, seed=3)
        save_labeled_csv(data, tmp_path / "d.csv")
        back = load_labeled_csv(tmp_path / "d.csv")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert back.class_names == data.class_names

    @pytest.mark.parametrize("field,bad,message", [
        (0, "x0.08", "could not convert string to float"),
        (10, "1.5", "invalid literal for int"),
        (3, "nan", "features must be finite"),
        (9, "-inf", "features must be finite"),
    ], ids=["text-feature", "fractional-label", "nan-feature", "inf-feature"])
    def test_malformed_row_names_file_and_line(self, tmp_path, field, bad, message):
        path = tmp_path / "d.csv"
        save_labeled_csv(synthetic_pixel_dataset(WATER_CLASS_NAMES, 2, seed=3), path)
        lines = path.read_text().splitlines()
        rec = lines[4].split(",")  # header, classes row, then data rows: line 5
        rec[field] = bad
        lines[4] = ",".join(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: line 5: {message}")):
            load_labeled_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        data = synthetic_pixel_dataset(WATER_CLASS_NAMES, 2, seed=3)
        features = data.features.copy()
        features[1, 4] = bad
        with pytest.raises(DatasetError, match="features must be finite"):
            LabeledPixels(features, data.labels, data.class_names)
