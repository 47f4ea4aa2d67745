import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raftcensus import (
    FEATURE_ORDER,
    BandId,
    MlpModel,
    MlpWater,
    SynthParams,
    clean_water_mask,
    compute_ndwi,
    generate_synthetic_scene,
    otsu_threshold,
    water_mask_mlp,
    water_mask_ndwi,
)
from raftcensus.errors import DegenerateHistogramError, DimensionError
from raftcensus.waterdetect import _dn_bins, quantize_ndwi

from oracles import (
    ref_forward_batch,
    ref_load_band_stack,
    ref_otsu,
    ref_quantized_scene,
    ref_whole_image_mask,
    write_dn_scene,
)


def constant_model(value: float) -> MlpModel:
    """[10,8,3] net whose outputs are all sigmoid(logit) == value."""
    logit = np.log(value / (1 - value))
    w1 = np.zeros((8, 10))
    b1 = np.zeros(8)
    w2 = np.zeros((3, 8))
    b2 = np.full(3, logit)
    return MlpModel((10, 8, 3), (w1, w2), (b1, b2))


class TestNdwi:
    def test_symmetry_zero(self):
        out = compute_ndwi(np.array([[0.1]]), np.array([[0.1]]))
        assert out[0, 0] == 0.0

    def test_pure_water_limit(self):
        assert compute_ndwi(np.array([[0.2]]), np.array([[0.0]]))[0, 0] == 1.0

    def test_direct_evaluation(self):
        out = compute_ndwi(np.array([[0.2]]), np.array([[0.1]]))
        assert out[0, 0] == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_over_zero_is_zero(self):
        out = compute_ndwi(np.zeros((2, 2)), np.zeros((2, 2)))
        assert (out == 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            compute_ndwi(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_quantize_clips_and_writes_into_out(self):
        x = np.array([-1.0, -0.5, 0.0, 0.999, 1.0, 1.5, -2.0, np.nan, np.inf, -np.inf])
        want = [0, 64, 128, 255, 255, 255, 0, 0, 255, 0]
        got = quantize_ndwi(x)
        assert got.dtype == np.int64 and got.tolist() == want
        out = np.full(len(x), 7, dtype=np.uint8)
        assert quantize_ndwi(x, out=out) is out and out.tolist() == want
        assert np.isnan(x[7]) and x[3] == 0.999  # the input is left as it was

    @given(
        arrays(np.float64, (4, 4), elements=st.floats(0, 2)),
        arrays(np.float64, (4, 4), elements=st.floats(0, 2)),
    )
    def test_bounded(self, g, n):
        out = compute_ndwi(g, n)
        assert (out >= -1).all() and (out <= 1).all()


class TestOtsu:
    def test_two_spikes_smallest_tie(self):
        h = np.zeros(256, dtype=int)
        h[10] = 4
        h[200] = 4
        assert otsu_threshold(h) == 10 == ref_otsu(h)

    def test_uniform_histogram(self):
        h = np.ones(256, dtype=int)
        assert otsu_threshold(h) == 127 == ref_otsu(h)

    def test_empty_histogram(self):
        with pytest.raises(DegenerateHistogramError):
            otsu_threshold(np.zeros(256, dtype=int))

    def test_single_bin_degenerate(self):
        h = np.zeros(256, dtype=int)
        h[7] = 42
        with pytest.raises(DegenerateHistogramError, match="degenerate"):
            otsu_threshold(h)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            otsu_threshold(np.ones(256))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            otsu_threshold(np.ones(255, dtype=int))

    def test_random_histograms_match_oracle(self, rng):
        for _ in range(300):
            h = rng.integers(0, 500, size=256)
            assert otsu_threshold(h) == ref_otsu(h)

    @given(st.lists(st.integers(0, 1000), min_size=256, max_size=256))
    def test_property_matches_oracle(self, counts):
        h = np.array(counts, dtype=np.int64)
        if h.sum() == 0 or (h > 0).sum() < 2:
            with pytest.raises(DegenerateHistogramError):
                otsu_threshold(h)
        else:
            assert otsu_threshold(h) == ref_otsu(h)


class TestWaterMaskNdwi:
    def test_two_level_scene(self):
        # half the pixels NDWI 0.8, half -0.5: mask exactly the 0.8 half
        g = np.full((4, 4), 0.09)
        n = np.full((4, 4), 0.01)  # ndwi 0.8
        g[2:, :] = 0.05
        n[2:, :] = 0.15  # ndwi -0.5
        planes = {b: np.zeros((4, 4)) for b in BandId}
        planes[BandId.B3] = g
        planes[BandId.B8] = n
        from raftcensus import BandStack

        s = BandStack(width=4, height=4, pixel_size=10.0, planes=planes)
        mask = np.asarray(water_mask_ndwi(s))
        assert mask[:2, :].all() and not mask[2:, :].any()
        # membership agrees with the oracle threshold
        bins = quantize_ndwi(compute_ndwi(g, n))
        t = ref_otsu(np.bincount(bins.ravel(), minlength=256))
        assert np.array_equal(mask, bins > t)

    def test_window_bins_equal_quantized_ndwi(self, rng, monkeypatch):
        # Each pixel's bin is read back as the count of thresholds t in
        # 0..254 whose mask holds it, so bins > t for every t.
        from raftcensus import BandStack, bandstack, waterdetect

        k = np.arange(257)
        g = [k / 256, [0.0, 0.0, 0.3, 5e-324, 1e-300, 1.5], rng.uniform(0, 1.5, 300)]
        n = [1 - k / 256, [0.0, 0.3, 0.0, 0.0, 5e-324, 1e-300], rng.uniform(0, 1.5, 300)]
        # NDWI k / 128 - 1 exactly (g + n = 1), so (ndwi + 1) * 128 is the
        # bin edge k, and the neighbours of those edges.
        g += [np.nextafter(k / 256, 0.0), np.nextafter(k / 256, 1.0)]
        n += [1 - k / 256] * 2
        g, n = np.concatenate(g), np.concatenate(n)
        w = 31
        h = -(-len(g) // w)
        green, nir = (np.resize(v, h * w).reshape(h, w) for v in (g, n))
        planes = {b: np.zeros((h, w)) for b in BandId}
        planes[BandId.B3], planes[BandId.B8] = green, nir
        stack = BandStack(width=w, height=h, pixel_size=10.0, planes=planes)
        want = quantize_ndwi(compute_ndwi(green, nir))
        assert {0, 255} <= set(np.unique(want)) and (compute_ndwi(green, nir) == 1.0).any()
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 4 * w)  # several windows
        hists = []
        got = np.zeros((h, w), dtype=np.int64)
        for t in range(255):
            def fixed(hist, t=t):
                hists.append(hist.copy())
                return t

            monkeypatch.setattr(waterdetect, "otsu_threshold", fixed)
            got += water_mask_ndwi(stack)
        assert np.array_equal(got, want)
        assert np.array_equal(hists[0], np.bincount(want.ravel(), minlength=256))

    def test_uniform_scene_degenerate(self):
        planes = {b: np.full((3, 3), 0.1) for b in BandId}
        from raftcensus import BandStack

        s = BandStack(width=3, height=3, pixel_size=10.0, planes=planes)
        with pytest.raises(DegenerateHistogramError):
            water_mask_ndwi(s)

    def test_synthetic_scene_water_found(self):
        stack, truth = generate_synthetic_scene(SynthParams(width=96, height=96, raft_count=0, seed=3))
        mask = np.asarray(water_mask_ndwi(stack))
        assert (mask[truth.water_mask]).mean() >= 0.99
        assert (~mask[truth.class_map == 0]).mean() >= 0.99


def float_bins(green, nir):
    """The NDWI bins of digital numbers by the float64 route."""
    return quantize_ndwi(compute_ndwi(green / 10000, nir / 10000))


def dn_bins(green, nir):
    """``_dn_bins`` of big-endian uint16 digital numbers, as read from PGMs."""
    out = np.empty(np.shape(green), dtype=np.uint8)
    _dn_bins(np.asarray(green, dtype=">u2"), np.asarray(nir, dtype=">u2"), out)
    return out


def exact_ratio_pairs():
    """(G, N) with 128 (G - N) / (G + N) an integer j at high DN: G = (128 +
    j) m and N = (128 - j) m for the largest m within 16 bits, and m - 1."""
    g, n = [], []
    for j in range(-128, 129):
        top = 65535 // (128 + abs(j))
        for m in (top, top - 1):
            g.append((128 + j) * m)
            n.append((128 - j) * m)
    return np.array(g), np.array(n)


class TestDnBins:
    """A loaded stack bins NDWI from its digital numbers in float32; every
    bin must equal the float64 route's."""

    def test_every_pair_below_1024(self):
        g, n = np.meshgrid(np.arange(1024), np.arange(1024), indexing="ij")
        assert np.array_equal(dn_bins(g, n), float_bins(g, n))

    @pytest.mark.parametrize("dn", [0, 1, 65534, 65535])
    def test_extreme_dn_against_every_dn(self, dn):
        every = np.arange(65536).reshape(256, 256)
        fixed = np.full_like(every, dn)
        assert np.array_equal(dn_bins(every, fixed), float_bins(every, fixed))
        assert np.array_equal(dn_bins(fixed, every), float_bins(fixed, every))

    def test_exact_ratios_and_neighbours_at_high_dn(self):
        g, n = exact_ratio_pairs()
        want = float_bins(g, n)
        # The float64 route does not always land on the ratio's own bin.
        assert (want != (128 * (g - n)) // (g + n) + 128).any()
        assert np.array_equal(dn_bins(g, n), want)
        for dg, dn in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]:
            gg, nn = np.clip(g + dg, 0, 65535), np.clip(n + dn, 0, 65535)
            assert np.array_equal(dn_bins(gg, nn), float_bins(gg, nn))

    def test_random_pairs(self, rng):
        g, n = rng.integers(0, 65536, size=(2, 64, 4096))
        assert np.array_equal(dn_bins(g, n), float_bins(g, n))

    def test_loaded_scene_masks_and_histogram_equal_the_float_route(
        self, tmp_path, rng, monkeypatch
    ):
        from raftcensus import bandstack, load_band_stack, waterdetect

        g_ratio, n_ratio = exact_ratio_pairs()
        extremes = np.array([0, 1, 2, 65533, 65534, 65535])
        g_ext, n_ext = (a.ravel() for a in np.meshgrid(extremes, extremes))
        g = np.concatenate([g_ratio, n_ratio, g_ext, rng.integers(0, 65536, 400),
                            rng.integers(0, 3000, 400)])
        n = np.concatenate([n_ratio, g_ratio, n_ext, rng.integers(0, 65536, 400),
                            rng.integers(0, 3000, 400)])
        h, w = 46, 48
        green, nir = (np.resize(v, h * w).reshape(h, w) for v in (g, n))
        planes = {BandId.B3: green, BandId.B8: nir}

        def dn_of(band, shape):
            return planes.get(band, rng.integers(0, 65536, size=shape))

        path = write_dn_scene(tmp_path, h, w, dn_of)
        loaded, ref = load_band_stack(path), ref_load_band_stack(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 5 * w)  # several windows
        floats = []  # pixels binned by compute_ndwi

        def counted(green, nir):
            floats.append(np.size(green))
            return compute_ndwi(green, nir)

        monkeypatch.setattr(waterdetect, "compute_ndwi", counted)
        for t in range(255):
            hists = []

            def fixed(hist, t=t):
                hists.append(hist.copy())
                return t

            monkeypatch.setattr(waterdetect, "otsu_threshold", fixed)
            floats.clear()
            got = water_mask_ndwi(loaded)
            # Only the exact-ratio pixels take the float64 route.
            assert 0 < sum(floats) < h * w
            want = water_mask_ndwi(ref)
            assert np.array_equal(got, want), t
            assert np.array_equal(hists[0], hists[1])
        bins = float_bins(green, nir)
        assert np.array_equal(hists[0], np.bincount(bins.ravel(), minlength=256))


class TestWaterMaskMlp:
    def test_constant_high_output(self):
        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        assert water_mask_mlp(stack, constant_model(0.99), 3, 0.90).sum() == 48 * 48

    def test_constant_half_output_below_threshold(self):
        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        assert water_mask_mlp(stack, constant_model(0.5), 3, 0.90).sum() == 0

    def test_trained_model_agreement(self, water_model):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=6, seed=77)
        )
        mask = np.asarray(water_mask_mlp(stack, water_model, 3, 0.90))
        assert (mask == truth.water_mask).mean() >= 0.98

    def test_monotone_in_threshold(self, water_model):
        stack, _ = generate_synthetic_scene(SynthParams(width=64, height=64, raft_count=3, seed=5))
        lo = water_mask_mlp(stack, water_model, 3, 0.5)
        hi = water_mask_mlp(stack, water_model, 3, 0.95)
        assert not (np.asarray(hi) & ~np.asarray(lo)).any()

    def test_matches_whole_image_reference(self, water_model, rng):
        # 98 wide is not a multiple of 64, the width of a BitMask word.
        params = SynthParams(width=98, height=130, raft_count=5, seed=13)
        stack, _ = generate_synthetic_scene(params)
        ref, _ = ref_quantized_scene(params)
        x = np.stack([ref.planes[b] for b in FEATURE_ORDER], axis=-1)
        scores = ref_forward_batch(water_model, x.reshape(-1, 10))[:, 2]
        for thr in [0.5, 0.9, *scores[rng.integers(0, len(scores), size=4)]]:
            assert np.array_equal(
                water_mask_mlp(stack, water_model, 3, thr),
                ref_whole_image_mask(water_model, ref.planes, 2, thr),
            )

    def test_bad_class_index(self, water_model):
        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        with pytest.raises(ValueError):
            water_mask_mlp(stack, water_model, 4, 0.9)

    def test_model_arity_mismatch(self):
        from raftcensus import init_model

        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        with pytest.raises(ValueError, match="inputs"):
            water_mask_mlp(stack, init_model((2, 2, 1), seed=0), 1, 0.9)


class TestCleanWaterMask:
    def test_hole_filled_and_coast_eroded(self):
        m = np.zeros((30, 30), dtype=bool)
        m[5:25, 5:25] = True
        m[12, 12] = False
        out = clean_water_mask(m)
        want = np.zeros_like(m)
        want[7:23, 7:23] = True  # shrunk 2 px per side by the 5x5 erosion
        assert np.array_equal(out, want)

    def test_empty_stays_empty(self):
        assert clean_water_mask(np.zeros((8, 8), dtype=bool)).sum() == 0

    def test_isolated_pixel_removed(self):
        m = np.zeros((9, 9), dtype=bool)
        m[4, 4] = True
        assert clean_water_mask(m).sum() == 0

    def test_output_within_closing_of_input(self, rng):
        for _ in range(20):
            m = rng.random((24, 24)) < 0.6
            from raftcensus import closing, square

            assert not (np.asarray(clean_water_mask(m)) & ~np.asarray(closing(m, square(3)))).any()


class TestMlpWaterConfig:
    def test_threshold_validation(self, water_model):
        with pytest.raises(ValueError):
            MlpWater(model=water_model, threshold=1.0)

    def test_class_index_validation(self, water_model):
        with pytest.raises(ValueError):
            MlpWater(model=water_model, water_class_index=5)
