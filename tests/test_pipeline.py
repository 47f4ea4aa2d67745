import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from raftcensus import (
    FEATURE_ORDER,
    BandId,
    BitMask,
    BlobFilter,
    CensusConfig,
    GeoRef,
    MlpModel,
    MlpWater,
    NdwiOtsu,
    SynthParams,
    census_to_csv,
    census_to_geojson,
    clean_water_mask,
    closing,
    evaluate_census,
    generate_synthetic_scene,
    init_model,
    load_band_stack,
    platform_mask,
    run_census,
    run_pipeline,
    save_band_stack,
    square,
    water_mask_mlp,
    water_mask_ndwi,
)
from raftcensus import bandstack
from raftcensus.blobs import REJECT_ORDER
from raftcensus.datasets import write_synthetic_scene
from raftcensus.errors import DimensionError, RaftCensusError
from raftcensus.mlp import WATER_LAYERS
from raftcensus.pipeline import Census, CensusRecord

from oracles import (
    ref_census_to_geojson,
    ref_compute_features,
    ref_label_components,
    ref_forward_batch,
    ref_gather_mask,
    ref_load_band_stack,
    ref_quantized_scene,
    ref_water_mask_ndwi,
    ref_whole_image_mask,
)


def constant_platform_model(value: float) -> MlpModel:
    logit = np.log(value / (1 - value))
    return MlpModel((10, 2, 1), (np.zeros((2, 10)), np.zeros((1, 2))),
                    (np.zeros(2), np.full(1, logit)))


@pytest.fixture(scope="module")
def census_cfg(platform_model):
    return CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)


class TestPlatformMask:
    def test_empty_water_mask_short_circuits(self, census_cfg):
        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        out = platform_mask(stack, np.zeros((48, 48), dtype=bool), census_cfg)
        assert out.sum() == 0

    def test_constant_model_marks_all_water(self, platform_model):
        stack, truth = generate_synthetic_scene(SynthParams(width=48, height=48, raft_count=0, seed=1))
        cfg = CensusConfig(water_method=NdwiOtsu(),
                           platform_model=constant_platform_model(0.99))
        water = truth.water_mask
        assert np.array_equal(platform_mask(stack, water, cfg), water)

    def test_f1_against_truth(self, census_cfg):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=12, seed=21)
        )
        water = clean_water_mask(water_mask_ndwi(stack))
        pred = np.asarray(platform_mask(stack, water, census_cfg))
        tp = (pred & truth.raft_mask).sum()
        fp = (pred & ~truth.raft_mask).sum()
        fn = (~pred & truth.raft_mask).sum()
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9

    def test_restriction_to_water(self, census_cfg):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=96, height=96, raft_count=3, seed=2)
        )
        half = np.zeros_like(truth.water_mask)
        half[:, :48] = True
        out = platform_mask(stack, half, census_cfg)
        assert not (out & ~half).any()


    def test_water_shape_mismatch_rejected(self, census_cfg):
        stack, _ = generate_synthetic_scene(SynthParams(width=48, height=40, raft_count=0, seed=1))
        with pytest.raises(DimensionError, match="shape"):
            platform_mask(stack, np.ones((48, 40), dtype=bool), census_cfg)

    def test_matches_gather_reference(self, census_cfg, rng):
        params = SynthParams(width=256, height=200, raft_count=12, seed=21)
        stack, _ = generate_synthetic_scene(params)
        ref, _ = ref_quantized_scene(params)
        water = clean_water_mask(water_mask_ndwi(stack))
        model = census_cfg.platform_model
        rows, cols = np.nonzero(water)
        x = np.stack([ref.planes[b][rows, cols] for b in FEATURE_ORDER], axis=1)
        scores = ref_forward_batch(model, x)[:, 0]
        for thr in [0.5, *scores[rng.integers(0, len(scores), size=4)]]:
            cfg = replace(census_cfg, platform_threshold=thr)
            assert np.array_equal(
                platform_mask(stack, water, cfg),
                ref_gather_mask(model, ref.planes, 0, thr, water),
            )


class TestRunCensus:
    def test_counts_and_matching(self, census_cfg):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=12, seed=31)
        )
        census = run_census(stack, census_cfg)
        assert abs(census.count - 12) <= 1
        report = evaluate_census(census, truth.raft_centroids, max_dist=1.5)
        assert report.true_positives >= 11

    def test_land_only_scene_counts_zero(self, census_cfg, rng):
        from raftcensus import BandStack
        from raftcensus.datasets import load_spectra

        spectra = load_spectra()
        planes = {}
        for i, b in enumerate(BandId):
            planes[b] = np.maximum(
                spectra["land"][i] + rng.normal(0, 0.005, size=(64, 64)), 0.0
            )
        stack = BandStack(width=64, height=64, pixel_size=10.0, planes=planes)
        census = run_census(stack, census_cfg)
        assert census.count == 0

    def test_uniform_scene_reports_no_water(self, census_cfg):
        from raftcensus import BandStack

        planes = {b: np.full((32, 32), 0.2) for b in BandId}
        stack = BandStack(width=32, height=32, pixel_size=10.0, planes=planes)
        with pytest.raises(RaftCensusError, match="no water found"):
            run_census(stack, census_cfg)

    def test_deterministic_census(self, census_cfg):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=6, seed=8)
        )
        c1 = run_census(stack, census_cfg, source="x")
        c2 = run_census(stack, census_cfg, source="x")
        assert census_to_csv(c1) == census_to_csv(c2)
        assert c1.config_digest == c2.config_digest

    def test_records_sorted_and_ids_dense(self, census_cfg):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=10, seed=13)
        )
        census = run_census(stack, census_cfg)
        cents = [r.centroid_px for r in census.records]
        assert cents == sorted(cents)
        assert [r.id for r in census.records] == list(range(1, census.count + 1))
        for rec in census.records:
            r0, c0, r1, c1 = rec.bbox
            assert r0 <= rec.centroid_px[0] <= r1
            assert c0 <= rec.centroid_px[1] <= c1
            assert rec.area_px >= 1

    def test_platform_pixels_inside_closed_water(self, platform_model):
        stack, truth = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=5, seed=17)
        )
        cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=platform_model)
        cleaned = clean_water_mask(water_mask_ndwi(stack))
        envelope = np.asarray(closing(cleaned, square(3)))
        pmask = closing(platform_mask(stack, cleaned, cfg), square(3))
        assert not (pmask & ~envelope).any()

    def test_count_monotone_in_filter_tightening(self, platform_model):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=12, seed=41)
        )
        counts = []
        for min_sol, max_area in [(0.5, 30), (0.8, 25), (0.95, 8), (0.99, 3)]:
            cfg = CensusConfig(
                water_method=NdwiOtsu(),
                platform_model=platform_model,
                blob_filter=BlobFilter(max_area=max_area, min_solidity=min_sol),
            )
            counts.append(run_census(stack, cfg).count)
        assert counts == sorted(counts, reverse=True)

    def test_geo_fields_do_not_change_pixel_output(self, census_cfg, platform_model):
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629")
        p1 = SynthParams(width=128, height=128, raft_count=6, seed=19)
        p2 = SynthParams(width=128, height=128, raft_count=6, seed=19, geo=geo)
        s1, _ = generate_synthetic_scene(p1)
        s2, _ = generate_synthetic_scene(p2)
        c1 = run_census(s1, census_cfg)
        c2 = run_census(s2, census_cfg)
        assert [r.centroid_px for r in c1.records] == [r.centroid_px for r in c2.records]
        assert [r.area_px for r in c1.records] == [r.area_px for r in c2.records]
        assert all(r.centroid_geo is None for r in c1.records)
        assert all(r.centroid_geo is not None for r in c2.records)

    def test_geo_centroid_arithmetic(self, census_cfg):
        geo = GeoRef(1000.0, 2000.0, "EPSG:32629")
        stack, truth = generate_synthetic_scene(
            SynthParams(width=96, height=96, raft_count=1, seed=23, geo=geo)
        )
        census = run_census(stack, census_cfg)
        assert census.count == 1
        rec = census.records[0]
        want_e = 1000.0 + (rec.centroid_px[1] + 0.5) * 10.0
        want_n = 2000.0 - (rec.centroid_px[0] + 0.5) * 10.0
        assert rec.centroid_geo == (want_e, want_n)

    def test_digest_pinned(self):
        # Digests recorded by earlier runs stay comparable only while these hold.
        cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=init_model())
        assert cfg.digest() == "3c2a30ddfca0bbbb"
        tight = BlobFilter(max_area=30, max_equivalent_diameter=5.5, min_solidity=0.9,
                           required_euler=0)
        assert replace(cfg, blob_filter=tight).digest() == "3eb1663bf92af5fe"
        mlp_water = replace(cfg, water_method=MlpWater(model=init_model(WATER_LAYERS)))
        assert mlp_water.digest() == "c84f5be1cded7fc1"

    def test_platform_model_arity_enforced(self):
        with pytest.raises(ValueError, match="platform model"):
            CensusConfig(water_method=NdwiOtsu(), platform_model=init_model((10, 8, 3)))


def hand_built_census(coords, source) -> Census:
    """A census with one record per (easting, northing) in ``coords``."""
    records = tuple(
        CensusRecord(id=i, centroid_px=(float(i), 2.5), area_px=4 + i,
                     bbox=(i, 0, i + 1, 12345678901), centroid_geo=xy)
        for i, xy in enumerate(coords, start=1)
    )
    return Census(records=records, count=len(records), source=source,
                  config_digest="0123abcd4567ef89")


class TestSerialization:
    def test_csv_shape(self, census_cfg):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=29)
        )
        census = run_census(stack, census_cfg)
        text = census_to_csv(census)
        lines = text.strip().splitlines()
        assert lines[0] == "id,row,col,area_px"
        assert len(lines) == census.count + 1

    def test_csv_with_geo_columns(self, census_cfg):
        geo = GeoRef(0.0, 0.0, "EPSG:32629")
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=29, geo=geo)
        )
        census = run_census(stack, census_cfg)
        lines = census_to_csv(census).strip().splitlines()
        assert lines[0] == "id,row,col,area_px,easting,northing"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_geojson(self, census_cfg):
        geo = GeoRef(100.0, 200.0, "EPSG:32629")
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=29, geo=geo)
        )
        census = run_census(stack, census_cfg)
        fc = json.loads(census_to_geojson(census, crs=geo.crs))
        assert fc["type"] == "FeatureCollection"
        assert len(fc["features"]) == census.count
        feat = fc["features"][0]
        assert feat["geometry"]["type"] == "Point"
        assert set(feat["properties"]) == {"id", "area_px", "bbox"}

    def test_geojson_requires_geo(self, census_cfg):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=29)
        )
        census = run_census(stack, census_cfg)
        if census.count:
            with pytest.raises(RaftCensusError):
                census_to_geojson(census)

    def test_geojson_bytes_equal_json_dumps_on_a_census(self, census_cfg):
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629")
        stack, _ = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=29, geo=geo)
        )
        census = run_census(stack, census_cfg, source="scene/manifest.json")
        assert census.count > 0
        for crs in (None, "", geo.crs):
            assert census_to_geojson(census, crs) == ref_census_to_geojson(census, crs)

    @pytest.mark.parametrize("coords", [
        [(500005.0, 4679995.0), (0.1, -0.0), (1e22, 5e-324)],
        [],
    ], ids=["finite", "empty"])
    @pytest.mark.parametrize("crs", [None, "EPSG:32629", 'odd "crs" \\ é'])
    @pytest.mark.parametrize("source", ["", 'dir "q"\\b\\ñ/manifest.json\t\u2603',
                                        '"features": []'])
    def test_geojson_bytes_equal_json_dumps(self, coords, crs, source):
        census = hand_built_census(coords, source)
        assert census_to_geojson(census, crs) == ref_census_to_geojson(census, crs)

    @pytest.mark.parametrize("xy", [(float("nan"), 1.5), (1.5, float("inf")),
                                    (float("-inf"), 1.5)])
    def test_geojson_rejects_non_finite_centroids(self, xy):
        census = hand_built_census([(500005.0, 4679995.0), xy], "")
        with pytest.raises(RaftCensusError, match="record 2 has a non-finite"):
            census_to_geojson(census)

    def test_empty_census_csv_is_bare_header(self, census_cfg):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=64, height=64, raft_count=0, seed=2,
                        geo=GeoRef(0.0, 0.0, "EPSG:32629"))
        )
        census = run_census(stack, census_cfg)
        assert census.count == 0
        assert census_to_csv(census) == "id,row,col,area_px\n"


class TestRunPipeline:
    def test_artifacts_consistent_with_census(self, census_cfg):
        from raftcensus import run_pipeline

        stack, truth = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=37)
        )
        result = run_pipeline(stack, census_cfg)
        assert result.census.count == 4
        # platform pixels sit inside the cleaned water mask's closing
        envelope = np.asarray(closing(result.water_mask, square(3)))
        assert not (result.platform_mask & ~envelope).any()
        # every record's bbox is covered by the platform mask
        for rec in result.census.records:
            r0, c0, r1, c1 = rec.bbox
            assert result.platform_mask.rows(r0, r1 + 1)[:, c0 : c1 + 1].any()

    def test_mlp_water_route(self, platform_model, water_model):
        from raftcensus import MlpWater, run_pipeline

        stack, truth = generate_synthetic_scene(
            SynthParams(width=128, height=128, raft_count=4, seed=43)
        )
        cfg = CensusConfig(
            water_method=MlpWater(model=water_model),
            platform_model=platform_model,
        )
        result = run_pipeline(stack, cfg)
        assert result.census.count == 4
        report = evaluate_census(result.census, truth.raft_centroids)
        assert report.missed == 0 and report.false_detections == 0

    def test_rejected_blobs_complete_the_labeled_ones(self, census_cfg):
        """At noise 0.08 the platform mask breaks into thousands of blobs.
        Each one labeled is a census record or a rejection, with the reason
        and in the order a reference labeling and filter give, and the census
        CSV and GeoJSON are those of the reference's accepted blobs."""
        params = SynthParams(width=512, height=512, raft_count=12, noise_sigma=0.08, seed=3,
                             geo=GeoRef(500000.0, 4680000.0, "EPSG:32629"))
        stack, _ = generate_synthetic_scene(params)
        result = run_pipeline(stack, census_cfg, source="noisy")
        f = census_cfg.blob_filter

        def reason(b):
            failed = (not b.area < f.max_area,
                      not b.equivalent_diameter < f.max_equivalent_diameter,
                      b.euler_number != f.required_euler,
                      not b.solidity > f.min_solidity)
            return next((r for r, bad in zip(REJECT_ORDER, failed) if bad), None)

        blobs = [ref_compute_features(b)
                 for b in ref_label_components(np.asarray(result.platform_mask))]
        accepted = sorted((b for b in blobs if reason(b) is None), key=lambda b: b.centroid)
        assert result.census.count + len(result.rejected) == len(blobs)
        assert result.rejected == tuple(
            (b.centroid, b.area, reason(b)) for b in blobs if reason(b) is not None
        )
        assert {r.reason for r in result.rejected} >= {"area", "solidity"}
        want = Census(
            records=tuple(
                CensusRecord(id=i, centroid_px=b.centroid, area_px=b.area, bbox=b.bbox,
                             centroid_geo=(500000.0 + (b.centroid[1] + 0.5) * 10.0,
                                           4680000.0 - (b.centroid[0] + 0.5) * 10.0))
                for i, b in enumerate(accepted, start=1)
            ),
            count=len(accepted), source="noisy", config_digest=census_cfg.digest(),
        )
        assert census_to_csv(result.census) == census_to_csv(want)
        assert (census_to_geojson(result.census, "EPSG:32629")
                == ref_census_to_geojson(want, "EPSG:32629"))


class TestThreeByThreeRafts:
    """3x3 rafts leave 3x3 water-mask holes, which a 3x3 closing cannot
    fill: with the default cleanup they stay outside the water mask and
    are never classified. A 5x5 closing recovers them."""

    def _scene(self):
        return generate_synthetic_scene(
            SynthParams(width=256, height=256, raft_count=8, raft_size_px=3, seed=5)
        )

    def test_default_cleanup_misses_them(self, census_cfg):
        stack, _ = self._scene()
        assert run_census(stack, census_cfg).count == 0

    def test_wider_closing_recovers_them(self, platform_model):
        stack, truth = self._scene()
        cfg = CensusConfig(
            water_method=NdwiOtsu(),
            platform_model=platform_model,
            water_se=square(5),
        )
        census = run_census(stack, cfg)
        report = evaluate_census(census, truth.raft_centroids)
        assert census.count == 8
        assert report.missed == 0 and report.false_detections == 0


def saved_scene(tmp_path_factory, name, params):
    """Manifest of a synthetic scene written to disk."""
    stack, _ = generate_synthetic_scene(params)
    return save_band_stack(stack, tmp_path_factory.mktemp(name))


class TestLoadedStackCensus:
    """A census over a loaded stack, which screens each row window's
    digital numbers in float32 and scales and upsamples the windows it
    re-scores, equals the census over whole float64 planes, which
    ``forward_batch`` alone scores."""

    GEO = GeoRef(500000.0, 4680000.0, "EPSG:32629")
    BLOCK = 16384  # ``_BLOCK_PIXELS`` here: a scene one window wide stays small

    @pytest.fixture(scope="class", params=["square", "wider_than_a_block"])
    def manifest(self, request, tmp_path_factory):
        if request.param == "square":
            params = SynthParams(width=256, height=200, raft_count=12, seed=21, geo=self.GEO)
        else:  # every row window is a single row
            params = SynthParams(width=self.BLOCK + 34, height=40, raft_count=20,
                                 seed=4, geo=self.GEO)
        return saved_scene(tmp_path_factory, request.param, params)

    @pytest.mark.parametrize("route", ["ndwi", "mlp"])
    def test_masks_and_outputs_equal_whole_plane_path(self, manifest, route, monkeypatch,
                                                      platform_model, water_model):
        from raftcensus import MlpWater

        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", self.BLOCK)

        method = NdwiOtsu() if route == "ndwi" else MlpWater(model=water_model)
        cfg = CensusConfig(water_method=method, platform_model=platform_model)
        stack = load_band_stack(manifest)
        ref = ref_load_band_stack(manifest)

        if route == "ndwi":
            water = water_mask_ndwi(stack)
            ref_water = ref_water_mask_ndwi(ref)
        else:
            water = water_mask_mlp(stack, water_model)
            ref_water = ref_whole_image_mask(water_model, ref.planes, method.water_class_index - 1,
                                             method.threshold)
        assert np.array_equal(water, ref_water)
        ref_cleaned = clean_water_mask(ref_water)
        ref_pmask = closing(ref_gather_mask(platform_model, ref.planes, 0,
                                            cfg.platform_threshold, ref_cleaned), square(3))

        got = run_pipeline(stack, cfg, source="scene")
        assert np.array_equal(got.water_mask, ref_cleaned)
        assert np.array_equal(got.platform_mask, ref_pmask)
        want = run_census(ref, cfg, source="scene")
        assert got.census.count == want.count > 0
        assert census_to_csv(got.census) == census_to_csv(want)
        assert census_to_geojson(got.census, self.GEO.crs) == census_to_geojson(want, self.GEO.crs)


    @pytest.mark.parametrize("route", ["ndwi", "mlp"])
    def test_census_never_unpacks_a_whole_mask(self, manifest, route, monkeypatch,
                                                platform_model, water_model):
        # The census passes BitMasks from the water mask to labeling and
        # reads them by row window only; np.asarray of one calls to_bool.
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", self.BLOCK)
        method = NdwiOtsu() if route == "ndwi" else MlpWater(model=water_model)
        cfg = CensusConfig(water_method=method, platform_model=platform_model)
        stack = load_band_stack(manifest)
        want = census_to_csv(run_census(stack, cfg))

        def whole(self):
            raise AssertionError("a whole mask was unpacked")

        monkeypatch.setattr(BitMask, "to_bool", whole)
        with pytest.raises(AssertionError, match="unpacked"):
            np.asarray(water_mask_ndwi(stack))
        assert census_to_csv(run_census(stack, cfg)) == want
        assert census_to_csv(run_census(ref_load_band_stack(manifest), cfg)) == want


class TestGeneratedSceneCensus:
    """A generated scene holds the digital numbers that write_synthetic_scene
    writes, so its census is the census of the written scene, loaded, byte
    for byte, on both water routes."""

    GEO = GeoRef(500000.0, 4680000.0, "EPSG:32629")
    PARAMS = [
        SynthParams(width=256, height=200, raft_count=12, seed=21, geo=GEO),
        SynthParams(width=130, height=98, raft_count=6, seed=5, geo=GEO),
    ]

    @pytest.mark.parametrize("route", ["ndwi", "mlp"])
    @pytest.mark.parametrize("params", PARAMS)
    def test_census_equals_loaded_twin(self, tmp_path, params, route, platform_model,
                                       water_model):
        method = NdwiOtsu() if route == "ndwi" else MlpWater(model=water_model)
        cfg = CensusConfig(water_method=method, platform_model=platform_model)
        stack, _ = generate_synthetic_scene(params)
        write_synthetic_scene(params, tmp_path)
        got = run_pipeline(stack, cfg, source="scene")
        want = run_pipeline(load_band_stack(tmp_path / "manifest.json"), cfg, source="scene")
        assert np.array_equal(got.water_mask, want.water_mask)
        assert np.array_equal(got.platform_mask, want.platform_mask)
        assert got.census.count == want.census.count > 0
        assert census_to_csv(got.census) == census_to_csv(want.census)
        assert (census_to_geojson(got.census, self.GEO.crs)
                == census_to_geojson(want.census, self.GEO.crs))


class TestMemory:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        return saved_scene(
            tmp_path_factory, "mem", SynthParams(width=1024, height=1024, raft_count=400, seed=3)
        )

    def test_loaded_census_peak_under_32_mib(self, manifest, census_cfg):
        # Whole float64 planes alone would take 80 MiB at 1024^2; row
        # windows keep the census near the size of its uint16 bands.
        tracemalloc.start()
        try:
            census = run_census(load_band_stack(manifest), census_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census.count >= 390
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_pipeline_peak_per_pixel(self, manifest, census_cfg):
        # About 5 B/px: the raw water mask is freed once cleaned, and an
        # erosion or dilation holds its input, a scratch mask and its result.
        # One more whole mask held anywhere adds 1 B/px.
        tracemalloc.start()
        try:
            result = run_pipeline(load_band_stack(manifest), census_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.census.count >= 390
        assert peak <= 5.5 * 1024 * 1024, f"peak {peak / 1024**2:.2f} B/px"
