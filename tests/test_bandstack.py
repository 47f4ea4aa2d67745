import json

import numpy as np
import pytest

from raftcensus import (
    BandId,
    BandStack,
    GeoRef,
    crop,
    load_band_stack,
    read_pgm16,
    resample_plane,
    save_band_stack,
    write_pgm16,
)
from raftcensus import bandstack
from raftcensus.bandstack import _BLOCK_PIXELS, FEATURE_ORDER
from raftcensus.errors import DimensionError, ManifestError, PgmError

from oracles import (
    ref_bilinear,
    ref_bilinear_gathers,
    ref_load_band_stack,
    ref_save_band_stack,
)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def write_dn_scene(tmp_path, h, w, dn_of):
    """Ten PGMs at native resolution, DN from ``dn_of(band, shape)``."""
    bands = {}
    for b in BandId:
        shape = (h, w) if b.native_resolution_m == 10 else (h // 2, w // 2)
        write_pgm16(tmp_path / f"{b.value}.pgm", dn_of(b, shape))
        bands[b.value] = f"{b.value}.pgm"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"bands": bands}))
    return path


def write_manifest(tmp_path, dims=None, geo=None, skip=(), dn=100):
    """Ten constant-DN PGMs + manifest; dims maps band -> (h, w)."""
    bands = {}
    for b in BandId:
        if b.value in skip:
            continue
        if dims and b.value in dims:
            h, w = dims[b.value]
        else:
            h, w = (2, 2) if b.native_resolution_m == 10 else (1, 1)
        write_pgm16(tmp_path / f"{b.value}.pgm", np.full((h, w), dn, dtype=np.uint16))
        bands[b.value] = f"{b.value}.pgm"
    manifest = {"bands": bands}
    if geo:
        manifest["geo"] = geo
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.integers(0, 65536, size=(7, 5), dtype=np.uint16)
        write_pgm16(tmp_path / "a.pgm", arr)
        assert np.array_equal(read_pgm16(tmp_path / "a.pgm"), arr)

    def test_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n65535\n0")
        with pytest.raises(PgmError):
            read_pgm16(tmp_path / "bad.pgm")

    def test_rejects_wrong_maxval(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PgmError, match="maxval"):
            read_pgm16(tmp_path / "bad.pgm")

    def test_rejects_truncated_raster(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n65535\n\x00\x01")
        with pytest.raises(PgmError, match="raster"):
            read_pgm16(tmp_path / "bad.pgm")

    @pytest.mark.parametrize("bad", [np.nan, 1.7, 0.5, -1.0, 65536.0, np.inf])
    def test_rejects_values_that_are_not_whole_16_bit_numbers(self, tmp_path, bad):
        arr = np.array([[0.0, 3.0], [bad, 65535.0]])
        with pytest.raises(ValueError, match="whole numbers within"):
            write_pgm16(tmp_path / "a.pgm", arr)
        assert not (tmp_path / "a.pgm").exists()

    def test_whole_floats_and_non_contiguous_arrays_written_in_row_order(self, tmp_path):
        arr = np.arange(12, dtype=np.uint16).reshape(3, 4) * 5000
        write_pgm16(tmp_path / "f.pgm", arr.astype(np.float64))
        write_pgm16(tmp_path / "t.pgm", np.asfortranarray(arr))
        write_pgm16(tmp_path / "s.pgm", np.ascontiguousarray(arr.T).T)
        for name in ("f", "t", "s"):
            assert np.array_equal(read_pgm16(tmp_path / f"{name}.pgm"), arr)
        assert (tmp_path / "f.pgm").read_bytes() == b"P5\n4 3\n65535\n" + arr.astype(">u2").tobytes()

    def test_comments_allowed_in_header(self, tmp_path):
        (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n1 1\n65535\n\x12\x34")
        assert read_pgm16(tmp_path / "c.pgm")[0, 0] == 0x1234


class TestResample:
    def test_constant_preserved_bilinear(self):
        p = np.full((3, 4), 5.0)
        out = resample_plane(p, 2)
        assert out.shape == (6, 8)
        assert np.allclose(out, 5.0)

    def test_bilinear_matches_direct_formula(self):
        # frozen from the closed-form pixel-center evaluation
        p = np.array([[0.0, 2.0]])
        out = resample_plane(p, 2)
        assert np.allclose(out, [[0.0, 0.5, 1.5, 2.0], [0.0, 0.5, 1.5, 2.0]])

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_bilinear_matches_reference(self, rng, factor):
        p = rng.uniform(0, 1.5, size=(5, 7))
        assert np.allclose(
            resample_plane(p, factor), ref_bilinear(p, factor), atol=1e-12
        )

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (5, 7), (6, 8), (64, 33)])
    def test_bilinear_bit_identical_to_four_gathers(self, rng, factor, shape):
        p = rng.uniform(0, 1.5, size=shape)
        got = resample_plane(p, factor)
        want = ref_bilinear_gathers(p, factor)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["strided", "uint16", "float32"])
    def test_bilinear_bit_identical_for_input_kinds(self, rng, factor, kind):
        if kind == "strided":
            p = rng.uniform(0, 1.5, size=(23, 40))[1::2, ::3]
            assert not p.flags.c_contiguous
        elif kind == "uint16":
            p = rng.integers(0, 65536, size=(9, 13)).astype(np.uint16)
        else:
            p = rng.uniform(0, 1.5, size=(9, 13)).astype(np.float32)
        got = resample_plane(p, factor)
        want = ref_bilinear_gathers(p, factor)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("factor", [1, 2, 3], ids=lambda f: f"{f}-bilinear")
    def test_input_left_unmodified(self, rng, factor):
        base = rng.uniform(0, 1.5, size=(12, 10))
        for p in (base, base[::2, 1:]):
            before = p.copy()
            out = resample_plane(p, factor)
            assert np.array_equal(p.view(np.uint64), before.view(np.uint64))
            assert not np.shares_memory(out, p)

    def test_factor_one_is_identity(self, rng):
        p = rng.uniform(0, 1, size=(4, 4))
        assert np.array_equal(resample_plane(p, 1), p)

    def test_bilinear_bounded_by_input_range(self, rng):
        p = rng.uniform(0, 1.5, size=(6, 6))
        out = resample_plane(p, 3)
        assert out.min() >= p.min() - 1e-12 and out.max() <= p.max() + 1e-12

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            resample_plane(np.zeros((2, 2)), 0)


class TestLoad:
    def test_constant_scaling(self, tmp_path):
        s = load_band_stack(write_manifest(tmp_path))
        assert (s.width, s.height, s.pixel_size) == (2, 2, 10.0)
        for b in BandId:
            assert np.allclose(s.planes[b], 0.01)

    def test_missing_band_entry(self, tmp_path):
        path = write_manifest(tmp_path, skip=("B11",))
        with pytest.raises(ManifestError, match="missing band.*B11"):
            load_band_stack(path)

    def test_dimension_mismatch_between_10m_bands(self, tmp_path):
        path = write_manifest(tmp_path, dims={"B2": (100, 99), "B3": (100, 100),
                                              "B4": (100, 100), "B8": (100, 100),
                                              "B5": (50, 50), "B6": (50, 50),
                                              "B7": (50, 50), "B8A": (50, 50),
                                              "B11": (50, 50), "B12": (50, 50)})
        with pytest.raises(DimensionError):
            load_band_stack(path)

    def test_20m_band_not_half(self, tmp_path):
        path = write_manifest(tmp_path, dims={"B11": (2, 2)})
        with pytest.raises(DimensionError, match="half"):
            load_band_stack(path)

    def test_invalid_pgm_surfaces(self, tmp_path):
        path = write_manifest(tmp_path)
        (tmp_path / "B4.pgm").write_bytes(b"garbage")
        with pytest.raises(PgmError):
            load_band_stack(path)

    def test_load_deterministic(self, tmp_path, rng):
        bands = {}
        for b in BandId:
            shape = (4, 6) if b.native_resolution_m == 10 else (2, 3)
            arr = rng.integers(0, 20000, size=shape, dtype=np.uint16)
            write_pgm16(tmp_path / f"{b.value}.pgm", arr)
            bands[b.value] = f"{b.value}.pgm"
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"bands": bands}))
        s1 = load_band_stack(path)
        s2 = load_band_stack(path)
        for b in BandId:
            assert np.array_equal(s1.planes[b], s2.planes[b])

    def test_save_load_round_trip_quantized(self, tmp_path, rng):
        path = write_manifest(tmp_path, geo={"origin_easting": 1.0,
                                             "origin_northing": 2.0,
                                             "crs": "EPSG:32629"})
        s = load_band_stack(path)
        manifest2 = save_band_stack(s, tmp_path / "out")
        s2 = load_band_stack(manifest2)
        assert s2.geo == s.geo
        for b in BandId:
            assert np.array_equal(s.planes[b], s2.planes[b])


def half_dn_plane(rng, h, w):
    """Constant 2x2 blocks whose scaled DN is exactly k + 0.5."""
    k = rng.integers(0, 65535, size=(h // 2, w // 2))
    v = (k + 0.5) / 10000.0
    v = np.where(v * 10000.0 == k + 0.5, v, 0.0)
    return np.kron(v, np.ones((2, 2)))


def order_sensitive_plane(rng, h, w):
    """2x2 blocks of one large sample and three of widely varying size, the
    large one anywhere in the block: the block sum depends on the order in
    which the four are added, often by enough to change the rounded DN."""
    n = (h // 2) * (w // 2)
    k = rng.integers(0, 65000, n)
    target = (k + 0.5) / 10000.0
    small = target * 10.0 ** rng.uniform(-17, -1, (3, n))
    blocks = np.concatenate([(4 * target - small.sum(0))[None], small])
    blocks = np.take_along_axis(blocks, rng.permuted(np.tile(np.arange(4), (n, 1)), axis=1).T, 0)
    return blocks.reshape(2, 2, h // 2, w // 2).transpose(2, 0, 3, 1).reshape(h, w)


def clipped_plane(rng, h, w):
    """Reflectances around and above 6.5535, where the DN clips at 65535."""
    p = rng.uniform(6.5, 20.0, (h, w))
    p.flat[:4] = (6.5535, 6.55355, 6.55345, 6.5534)
    return p


SAVE_PATTERNS = {
    "order_sensitive": order_sensitive_plane,
    "half_dn": half_dn_plane,
    "clipped": clipped_plane,
    "zeros": lambda rng, h, w: np.zeros((h, w)),
}


class TestSave:
    def test_order_sensitive_blocks_change_dn_under_a_sequential_sum(self, rng):
        p = order_sensitive_plane(rng, 64, 64)
        x00, x01, x10, x11 = p[0::2, 0::2], p[0::2, 1::2], p[1::2, 0::2], p[1::2, 1::2]
        mean = p.reshape(32, 2, 32, 2).mean(axis=(1, 3))
        sequential = (((x00 + x01) + x10) + x11) / 4
        assert (np.rint(mean * 10000.0) != np.rint(sequential * 10000.0)).sum() > 50

    def test_half_dn_blocks_scale_to_exact_halves(self, rng):
        scaled = half_dn_plane(rng, 64, 64) * 10000.0
        assert (scaled % 1 == 0.5).mean() > 0.5

    @pytest.mark.parametrize("pattern", sorted(SAVE_PATTERNS))
    @pytest.mark.parametrize("h,w", [(64, 64), (6, 40), (2, 2)])
    def test_files_bytes_equal_block_mean_reference(self, tmp_path, rng, pattern, h, w):
        planes = {b: SAVE_PATTERNS[pattern](rng, h, w) for b in BandId}
        kept = {b: p.copy() for b, p in planes.items()}
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629")
        s = BandStack(width=w, height=h, pixel_size=10.0, planes=planes, geo=geo)
        save_band_stack(s, tmp_path / "lib")
        ref_save_band_stack(s, tmp_path / "ref")
        names = sorted(f.name for f in (tmp_path / "ref").iterdir())
        assert sorted(f.name for f in (tmp_path / "lib").iterdir()) == names
        for name in names:
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        for b in BandId:  # saving leaves the stack's planes untouched
            assert np.array_equal(bits(planes[b]), bits(kept[b]))

    def test_loaded_stack_files_bytes_equal_reference(self, tmp_path, rng):
        path = write_dn_scene(
            tmp_path, 22, 18, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        save_band_stack(s, tmp_path / "lib")
        ref_save_band_stack(s, tmp_path / "ref")
        for f in (tmp_path / "ref").iterdir():
            assert (tmp_path / "lib" / f.name).read_bytes() == f.read_bytes()


class TestRows:
    @pytest.mark.parametrize("h,w", [(22, 18), (2, 2), (6, 40), (2, 40), (40, 2)])
    def test_every_window_bitwise_equal_to_whole_plane_load(self, tmp_path, rng, h, w):
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        for r0 in range(h):
            for r1 in range(r0 + 1, h + 1):
                got = s.rows(r0, r1)
                assert list(got) == list(BandId)
                for b in BandId:
                    assert got[b].dtype == np.float64 and got[b].shape == (r1 - r0, w)
                    assert np.array_equal(bits(got[b]), bits(ref.planes[b][r0:r1])), (b, r0, r1)
        for b in BandId:
            assert np.array_equal(bits(s.planes[b]), bits(ref.planes[b]))

    def test_named_windows_of_a_larger_scene(self, tmp_path, rng):
        h, w = 130, 96
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 20000, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        windows = {"first row": (0, 1), "last row": (h - 1, h), "one row": (57, 58),
                   "odd height 3": (10, 13), "odd height 7": (64, 71),
                   "odd height 33": (97, 130), "whole image": (0, h)}
        for name, (r0, r1) in windows.items():
            bands = (BandId.B8, BandId.B11, BandId.B3)
            got = s.rows(r0, r1, bands)
            assert list(got) == list(bands), name
            for b in bands:
                assert np.array_equal(bits(got[b]), bits(ref.planes[b][r0:r1])), (name, b)

    @pytest.mark.parametrize("pattern", ["checker", "columns", "rows"])
    def test_extreme_neighbours_finite_non_negative_and_exact(self, tmp_path, pattern):
        # DN 0 next to 65535 is the widest step the bilinear weights can
        # see: the windows stay finite and non-negative, which is why a
        # loaded stack skips the whole-plane check.
        def dn_of(b, shape):
            r, c = np.indices(shape)
            on = {"checker": (r + c) % 2, "columns": c % 2, "rows": r % 2}[pattern]
            return (on * 65535).astype(np.uint16)

        path = write_dn_scene(tmp_path, 12, 10, dn_of)
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        for r0, r1 in [(0, 1), (3, 8), (11, 12), (0, 12)]:
            for b, got in s.rows(r0, r1).items():
                assert np.isfinite(got).all() and (got >= 0).all()
                assert got.max() <= 65535 / 10000
                assert np.array_equal(bits(got), bits(ref.planes[b][r0:r1]))

    def test_in_memory_rows_are_views(self, rng):
        planes = {b: rng.uniform(0, 1, size=(5, 4)) for b in BandId}
        s = BandStack(width=4, height=5, pixel_size=10.0, planes=planes)
        got = s.rows(1, 3)
        for b in BandId:
            assert np.shares_memory(got[b], planes[b])
            assert np.array_equal(got[b], planes[b][1:3])

    @pytest.mark.parametrize("r0,r1", [(0, 0), (2, 1), (-1, 2), (0, 7)])
    def test_window_outside_the_image_rejected(self, tmp_path, r0, r1):
        s = load_band_stack(write_dn_scene(tmp_path, 6, 4, lambda b, shape: np.zeros(shape)))
        with pytest.raises(ValueError, match="row window"):
            s.rows(r0, r1)

    def test_loaded_crop_equals_whole_plane_crop(self, tmp_path, rng):
        path = write_dn_scene(
            tmp_path, 16, 12, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        got = crop(load_band_stack(path), 3, 5, 7, 9)
        want = crop(ref_load_band_stack(path), 3, 5, 7, 9)
        for b in BandId:
            assert np.array_equal(bits(got.planes[b]), bits(want.planes[b]))


class TestWindows:
    @pytest.mark.parametrize("h,w,step", [(1, 1, 16384), (7, 3, 5461), (50, 700, 23),
                                          (129, 128, 128), (4, 16384, 1)])
    def test_windows_cover_the_rows_in_order(self, rng, h, w, step):
        planes = {b: rng.uniform(0, 1, size=(h, w)) for b in BandId}
        s = BandStack(width=w, height=h, pixel_size=10.0, planes=planes)
        spans = []
        for r0, r1, block in s.windows((BandId.B3, BandId.B11)):
            spans.append((r0, r1))
            assert list(block) == [BandId.B3, BandId.B11]
            for b in block:
                assert np.array_equal(block[b], planes[b][r0:r1])
        assert spans == [(r0, min(r0 + step, h)) for r0 in range(0, h, step)]

    def test_width_over_block_pixels_gives_one_row_windows(self):
        w = _BLOCK_PIXELS + 1
        planes = {b: np.zeros((3, w)) for b in BandId}
        s = BandStack(width=w, height=3, pixel_size=10.0, planes=planes)
        assert [(r0, r1) for r0, r1, _ in s.windows()] == [(0, 1), (1, 2), (2, 3)]

    def test_skipped_windows_are_never_read(self, tmp_path, rng, monkeypatch):
        h, w = 22, 18
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)  # 3-row windows
        reads = []
        window = bandstack._DnPlanes.window

        def counting(self, r0, r1, bands):
            reads.append((r0, r1))
            return window(self, r0, r1, bands)

        monkeypatch.setattr(bandstack._DnPlanes, "window", counting)
        where = np.zeros((h, w), dtype=bool)
        where[4, 17] = where[20, 0] = where[21, :] = True
        got = [(r0, r1) for r0, r1, block in s.windows(where=where)]
        assert got == reads == [(3, 6), (18, 21), (21, 22)]
        assert list(s.windows(where=np.zeros((h, w), dtype=bool))) == []
        assert reads == got  # the empty ``where`` read nothing
        for r0, r1, block in s.windows((BandId.B12,), where=where):
            assert np.array_equal(bits(block[BandId.B12]), bits(ref.planes[BandId.B12][r0:r1]))


class TestFeatures:
    def test_loaded_features_bitwise_equal_to_whole_plane_gather(self, tmp_path, rng,
                                                                  monkeypatch):
        h, w = 30, 14
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 4 * w)  # 4-row windows
        reads = []
        window = bandstack._DnPlanes.window

        def counting(self, r0, r1, bands):
            reads.append((r0, r1))
            return window(self, r0, r1, bands)

        def whole_plane(self, band):
            raise AssertionError("features built a whole plane")

        monkeypatch.setattr(bandstack._DnPlanes, "window", counting)
        monkeypatch.setattr(bandstack._DnPlanes, "__getitem__", whole_plane)
        # unsorted, repeated, both image edges, and rows in windows 0, 2, 4 and 7
        rows = np.array([29, 0, 9, 17, 0, 9, 29, 16, 0, 28])
        cols = np.array([13, 0, 5, 2, 0, 5, 0, 13, 7, 6])
        order = (BandId.B11, BandId.B2, BandId.B8A)
        for bands in (FEATURE_ORDER, order):
            got = s.features(rows, cols, bands)
            want = np.stack([ref.planes[b][rows, cols] for b in bands], axis=1)
            assert got.shape == (len(rows), len(bands)) and got.dtype == np.float64
            assert np.array_equal(bits(got), bits(want))
        assert reads == [(0, 4), (8, 12), (16, 20), (28, 30)] * 2

    def test_in_memory_features_equal_plane_gather(self, rng):
        planes = {b: rng.uniform(0, 1, size=(9, 5)) for b in BandId}
        s = BandStack(width=5, height=9, pixel_size=10.0, planes=planes)
        rows, cols = rng.integers(0, 9, size=50), rng.integers(0, 5, size=50)
        want = np.stack([planes[b][rows, cols] for b in FEATURE_ORDER], axis=1)
        assert np.array_equal(s.features(rows, cols), want)
        assert s.features(np.array([], dtype=int), np.array([], dtype=int)).shape == (0, 10)

    @pytest.mark.parametrize("rows,cols", [([9], [0]), ([0], [5]), ([-1], [0]), ([0], [-1])])
    def test_coordinates_outside_rejected(self, rows, cols):
        s = BandStack(width=5, height=9, pixel_size=10.0,
                      planes={b: np.zeros((9, 5)) for b in BandId})
        with pytest.raises(IndexError, match="outside"):
            s.features(np.array(rows), np.array(cols))

    def test_mismatched_coordinates_rejected(self):
        s = BandStack(width=5, height=9, pixel_size=10.0,
                      planes={b: np.zeros((9, 5)) for b in BandId})
        with pytest.raises(DimensionError, match="1-D"):
            s.features(np.array([0, 1]), np.array([0]))


class TestCrop:
    def _stack(self, geo=None):
        planes = {
            b: np.arange(12, dtype=float).reshape(3, 4) + i
            for i, b in enumerate(BandId)
        }
        return BandStack(width=4, height=3, pixel_size=10.0, planes=planes, geo=geo)

    def test_identity_crop(self):
        s = self._stack()
        c = crop(s, 0, 0, 4, 3)
        for b in BandId:
            assert np.array_equal(c.planes[b], s.planes[b])

    def test_single_pixel_crop(self):
        c = crop(self._stack(), 0, 0, 1, 1)
        assert c.width == c.height == 1
        assert c.planes[BandId.B2][0, 0] == 0.0

    def test_geo_origin_shift(self):
        s = self._stack(geo=GeoRef(1000.0, 2000.0, "EPSG:32629"))
        c = crop(s, 3, 2, 1, 1)
        assert c.geo.origin_easting == pytest.approx(1030.0)
        assert c.geo.origin_northing == pytest.approx(1980.0)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DimensionError):
            crop(self._stack(), 2, 0, 3, 3)


class TestStackInvariants:
    def test_negative_values_rejected(self):
        planes = {b: np.zeros((2, 2)) for b in BandId}
        planes[BandId.B4][0, 0] = -0.1
        with pytest.raises(ValueError, match="negative"):
            BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    def test_missing_plane_rejected(self):
        planes = {b: np.zeros((2, 2)) for b in BandId if b is not BandId.B11}
        with pytest.raises(ManifestError, match="B11"):
            BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    def test_shape_mismatch_rejected(self):
        for odd_shape in [(2, 3), (1, 1), (4, 1)]:
            planes = {b: np.zeros((2, 2)) for b in BandId}
            planes[BandId.B8] = np.zeros(odd_shape)
            with pytest.raises(DimensionError, match="shape"):
                BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    def test_odd_dims_cannot_export(self, tmp_path):
        planes = {b: np.zeros((3, 3)) for b in BandId}
        s = BandStack(width=3, height=3, pixel_size=10.0, planes=planes)
        with pytest.raises(DimensionError, match="even"):
            save_band_stack(s, tmp_path / "x")
