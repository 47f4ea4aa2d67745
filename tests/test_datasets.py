import numpy as np
import pytest

from raftcensus import (
    BandId,
    SynthParams,
    compute_ndwi,
    extract_platform_samples,
    generate_synthetic_scene,
    load_spectra,
    synthetic_pixel_dataset,
    water_mask_ndwi,
)
from raftcensus.datasets import (
    DEFAULT_TRAINING_TOTAL,
    PLATFORM_CLASS_NAMES,
    WATER_CLASS_NAMES,
    default_platform_training_set,
    _place_rafts,
    load_labeled_csv,
    save_labeled_csv,
)
from raftcensus.errors import DatasetError

from oracles import ref_place_rafts


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


class TestSyntheticScene:
    def test_zero_noise_equals_class_means(self):
        params = SynthParams(width=64, height=64, raft_count=4, noise_sigma=0.0, seed=2)
        stack, truth = generate_synthetic_scene(params)
        spectra = load_spectra()
        for i, band in enumerate(BandId):
            plane = stack.planes[band]
            for ci, name in enumerate(WATER_CLASS_NAMES):
                sel = truth.class_map == ci
                assert (plane[sel] == spectra[name][i]).all()

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
        for b in BandId:
            assert np.array_equal(s1.planes[b], s2.planes[b])
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

    def test_rafts_do_not_fit(self):
        with pytest.raises(DatasetError, match="fit"):
            generate_synthetic_scene(SynthParams(width=32, height=32, raft_count=200, seed=0))

    def test_ndwi_separation_on_noiseless_scene(self):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=48, height=48, raft_count=0, noise_sigma=0.0, seed=0)
        )
        ndwi = compute_ndwi(stack.planes[BandId.B3], stack.planes[BandId.B8])
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
    @pytest.mark.parametrize("size,side,count", [(2, 48, 20), (3, 64, 30)])
    def test_same_message_when_rafts_do_not_fit(self, seed, size, side, count):
        params = SynthParams(width=side, height=side, raft_count=count,
                             raft_size_px=size, seed=seed)
        (message, state), (ref_message, ref_state) = placed_both_ways(params)
        assert isinstance(message, str) and message.startswith("rafts do not fit: placed")
        assert message == ref_message
        assert state == ref_state


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
