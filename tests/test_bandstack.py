import json
import os
import sys
import warnings

import numpy as np
import pytest

from raftcensus import (
    BandId,
    BandStack,
    GeoRef,
    load_band_stack,
    read_pgm16,
    resample_plane,
    save_band_stack,
    write_pgm16,
)
from raftcensus import bandstack
from raftcensus.bandstack import _BLOCK_PIXELS, FEATURE_ORDER, read_manifest
from raftcensus.errors import DimensionError, ManifestError, PgmError

from oracles import (
    ref_bilinear,
    ref_bilinear_gathers,
    ref_folded_sums,
    ref_load_band_stack,
    ref_read_pgm16,
    ref_save_band_stack,
    write_dn_scene,
)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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

    def test_failed_row_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        write_pgm16(tmp_path / "a.pgm", np.ones((2, 3), dtype=np.uint16))
        old = (tmp_path / "a.pgm").read_bytes()
        chunks = (np.zeros((1, 3), dtype=np.uint16),)
        with pytest.raises(DimensionError, match="wrote 1 rows"):
            bandstack.write_pgm16_rows(tmp_path / "a.pgm", 3, 2, chunks)
        assert (tmp_path / "a.pgm").read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["a.pgm"]


def read_both_ways(path):
    """(array or PgmError message) from the library and from the whole-file
    reference reader."""
    out = []
    for read in (read_pgm16, ref_read_pgm16):
        try:
            a = read(path)
            out.append((a.dtype.str, a.shape, a.tobytes()))
        except PgmError as exc:
            out.append(str(exc))
    return out


def pgm_with_comment(n: int, w: int = 3, h: int = 2) -> bytes:
    """A P5 file whose header holds an ``n``-byte comment line, so that
    its fields straddle any chosen offset."""
    raster = (np.arange(w * h, dtype=np.uint16) * 2521 + 7).astype(">u2").tobytes()
    return b"P5\n#" + b"c" * max(0, n - 1) + f"\n{w} {h}\n65535\n".encode() + raster


class TestPgmReaderAgainstWholeFileReference:
    @pytest.mark.parametrize("n", [0, 5, *range(1000, 1030), 2040, 2050, 5000])
    def test_headers_across_prefix_boundaries(self, tmp_path, n):
        path = tmp_path / "a.pgm"
        path.write_bytes(pgm_with_comment(n))
        lib, ref = read_both_ways(path)
        assert not isinstance(lib, str) and lib == ref

    @pytest.mark.parametrize("n", [4, 1003, 1015, 2040])
    def test_every_truncation_gives_the_same_error(self, tmp_path, n):
        data = pgm_with_comment(n)
        path = tmp_path / "t.pgm"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            lib, ref = read_both_ways(path)
            assert lib == ref, cut
            assert (cut < len(data)) == isinstance(lib, str)

    @pytest.mark.parametrize("data", [
        b"",
        b"P2\n1 1\n65535\n\x00\x00",
        b"P5\nx 1\n65535\n\x00\x00",
        b"P5\n0 1\n65535\n",
        b"P5\n1 -1\n65535\n",
        b"P5\n1 1\n255\n\x00",
        b"P5\n1 1\n65535",
        b"P5\n1 1\n65535\n\x12\x34trailing bytes",
        b"P5 2 1 65535 \x12\x34\x56\x78",
        b"P5\r\n#x\r1\t1\x0b65535\r\xab\xcd",
        b"P5\n100000 100000\n65535\n\x00\x00",
        b"P5\n#" + b"c" * 3000,
    ])
    def test_malformed_and_odd_files(self, tmp_path, data):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        lib, ref = read_both_ways(path)
        assert lib == ref

    def test_written_scene_band_reads_alike(self, tmp_path, rng):
        arr = rng.integers(0, 65536, size=(300, 257), dtype=np.uint16)
        write_pgm16(tmp_path / "b.pgm", arr)
        lib, ref = read_both_ways(tmp_path / "b.pgm")
        assert lib == ref
        assert np.array_equal(read_pgm16(tmp_path / "b.pgm"), arr)


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

    @pytest.mark.parametrize("factor", [2])
    def test_bilinear_matches_reference(self, rng, factor):
        p = rng.uniform(0, 1.5, size=(5, 7))
        assert np.allclose(
            resample_plane(p, factor), ref_bilinear(p, factor), atol=1e-12
        )

    @pytest.mark.parametrize("factor", [2])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (5, 7), (6, 8), (64, 33)])
    def test_bilinear_bit_identical_to_four_gathers(self, rng, factor, shape):
        p = rng.uniform(0, 1.5, size=shape)
        got = resample_plane(p, factor)
        want = ref_bilinear_gathers(p, factor)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("factor", [2])
    @pytest.mark.parametrize("kind", ["strided", "uint16", "float32", "signed"])
    def test_bilinear_bit_identical_for_input_kinds(self, rng, factor, kind):
        if kind == "strided":
            p = rng.uniform(0, 1.5, size=(23, 40))[1::2, ::3]
            assert not p.flags.c_contiguous
        elif kind == "signed":  # weighted band sums can be negative
            p = rng.normal(scale=1e3, size=(9, 13))
        elif kind == "uint16":
            p = rng.integers(0, 65536, size=(9, 13)).astype(np.uint16)
        else:
            p = rng.uniform(0, 1.5, size=(9, 13)).astype(np.float32)
        got = resample_plane(p, factor)
        want = ref_bilinear_gathers(p, factor)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("factor", [2], ids=lambda f: f"{f}-bilinear")
    def test_input_left_unmodified(self, rng, factor):
        base = rng.uniform(0, 1.5, size=(12, 10))
        for p in (base, base[::2, 1:]):
            before = p.copy()
            out = resample_plane(p, factor)
            assert np.array_equal(p.view(np.uint64), before.view(np.uint64))
            assert not np.shares_memory(out, p)

    @pytest.mark.parametrize("factor", [0, 1, 3])
    def test_factors_other_than_two_rejected(self, factor):
        with pytest.raises(ValueError, match="must be 2"):
            resample_plane(np.zeros((2, 2)), factor)

    def test_bilinear_bounded_by_input_range(self, rng):
        p = rng.uniform(0, 1.5, size=(6, 6))
        out = resample_plane(p, 2)
        assert out.min() >= p.min() - 1e-12 and out.max() <= p.max() + 1e-12

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_plane(self, shape):
        out = resample_plane(np.zeros(shape), 2)
        assert out.shape == (2 * shape[0], 2 * shape[1])


class TestLoad:
    def test_constant_scaling(self, tmp_path):
        s = load_band_stack(write_manifest(tmp_path))
        assert (s.width, s.height, s.pixel_size) == (2, 2, 10.0)
        for plane in s.rows(0, s.height).values():
            assert np.allclose(plane, 0.01)

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
        p1 = load_band_stack(path).rows(0, 4)
        p2 = load_band_stack(path).rows(0, 4)
        for b in BandId:
            assert np.array_equal(p1[b], p2[b])

    @pytest.mark.parametrize("origin", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_origin_rejected(self, tmp_path, origin):
        path = write_manifest(tmp_path, geo={"origin_easting": origin[0],
                                             "origin_northing": origin[1],
                                             "crs": "EPSG:32629"})
        with pytest.raises(ManifestError, match="finite"):
            load_band_stack(path)

    @pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/fd")
    def test_load_and_drop_cycles_leave_no_file_open(self, tmp_path, rng):
        path = write_dn_scene(
            tmp_path, 4, 6, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        bad = []  # each fails after opening every band
        for name, case in (("dims", {"dims": {"B12": (2, 2)}}),
                           ("geo", {"geo": {"origin_easting": float("nan"),
                                            "origin_northing": 0.0, "crs": "EPSG:32629"}})):
            (tmp_path / name).mkdir()
            bad.append(write_manifest(tmp_path / name, **case))
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            # a file left for the garbage collector to close warns
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(50):
                s = load_band_stack(path)
                s.rows(0, 4)
                del s
                for bad_path in bad:
                    with pytest.raises((DimensionError, ManifestError)):
                        load_band_stack(bad_path)
        assert len(os.listdir("/proc/self/fd")) == before
        assert [str(w.message) for w in caught] == []

    def test_band_shrunk_after_load_raises_naming_the_file(self, tmp_path, rng):
        h, w = 8, 6
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        band = tmp_path / "B11.pgm"
        os.truncate(band, band.stat().st_size - 1)  # the last 20 m row loses a byte
        assert np.array_equal(bits(s.rows(0, 5)[BandId.B11]), bits(ref.planes[BandId.B11][:5]))
        with pytest.raises(PgmError, match=f"{band}: file ends inside raster rows"):
            s.rows(5, 6)
        assert np.array_equal(bits(s.rows(0, h, (BandId.B2,))[BandId.B2]),
                              bits(ref.planes[BandId.B2]))

    def test_save_load_round_trip_quantized(self, tmp_path, rng):
        path = write_manifest(tmp_path, geo={"origin_easting": 1.0,
                                             "origin_northing": 2.0,
                                             "crs": "EPSG:32629"})
        s = load_band_stack(path)
        manifest2 = save_band_stack(s, tmp_path / "out")
        s2 = load_band_stack(manifest2)
        assert s2.geo == s.geo
        p1, p2 = s.rows(0, s.height), s2.rows(0, s2.height)
        for b in BandId:
            assert np.array_equal(p1[b], p2[b])


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


def chunked(planes, w, h):
    """``write_bands``' row source of ``planes``, in ``row_chunks``."""
    return lambda band: (planes[band][r0:r1] for r0, r1 in bandstack.row_chunks(w, h))


def dn_twin(manifest_path):
    """The in-memory stack of the digital numbers in a manifest's files:
    ``BandStack.from_reflectance`` of DN / 10000, each 20 m value spread
    over its 2x2 block, which quantizes back to the same DN."""
    _, paths = read_manifest(manifest_path)
    dn = {b: read_pgm16(path) for b, path in paths.items()}
    h, w = dn[BandId.B2].shape

    def rows(band):
        x = dn[band] / 10000.0
        return [x if band.native_resolution_m == 10 else np.kron(x, np.ones((2, 2)))]

    return BandStack.from_reflectance(w, h, rows)


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
        # Reflectances quantized by ``from_reflectance`` and saved give the
        # reference's files of the float-plane stack.
        planes = {b: SAVE_PATTERNS[pattern](rng, h, w) for b in BandId}
        kept = {b: p.copy() for b, p in planes.items()}
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629")
        save_band_stack(BandStack.from_reflectance(w, h, chunked(planes, w, h), geo),
                        tmp_path / "lib")
        ref_save_band_stack(BandStack(width=w, height=h, pixel_size=10.0, planes=planes,
                                      geo=geo), tmp_path / "ref")
        names = sorted(f.name for f in (tmp_path / "ref").iterdir())
        assert sorted(f.name for f in (tmp_path / "lib").iterdir()) == names
        for name in names:
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        for b in BandId:  # quantizing leaves the reflectances untouched
            assert np.array_equal(bits(planes[b]), bits(kept[b]))

    @pytest.mark.parametrize("pattern", sorted(SAVE_PATTERNS))
    def test_files_in_row_chunks_bytes_equal_block_mean_reference(self, tmp_path, rng,
                                                                  monkeypatch, pattern):
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 5 * 40)  # chunks of 4 rows
        planes = {b: SAVE_PATTERNS[pattern](rng, 22, 40) for b in BandId}
        bandstack.write_bands(tmp_path / "lib", 40, 22, chunked(planes, 40, 22))
        ref_save_band_stack(BandStack(width=40, height=22, pixel_size=10.0, planes=planes),
                            tmp_path / "ref")
        for f in (tmp_path / "ref").iterdir():
            assert (tmp_path / "lib" / f.name).read_bytes() == f.read_bytes()

    def test_loaded_stack_files_bytes_equal_input(self, tmp_path, rng):
        # A loaded stack is saved losslessly: every band file is its input's
        # bytes, and saving the saved stack gives the same bytes again.
        path = write_dn_scene(
            tmp_path, 22, 18, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        save_band_stack(load_band_stack(path), tmp_path / "lib")
        assert_band_files_equal(path, tmp_path / "lib" / "manifest.json")
        save_band_stack(load_band_stack(tmp_path / "lib" / "manifest.json"), tmp_path / "again")
        for f in (tmp_path / "lib").iterdir():
            assert (tmp_path / "again" / f.name).read_bytes() == f.read_bytes()

    @pytest.mark.parametrize("rows", [None, 3, 7])
    @pytest.mark.parametrize("h,w", [(200, 96), (30, 18)])
    def test_loaded_stack_in_row_chunks_bytes_equal_input(self, tmp_path, rng, monkeypatch,
                                                         h, w, rows):
        # rows: chunks of that many rows rounded down to even (None: the
        # library's chunk height; 96 wide, 200 rows is 170 + 30).
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        if rows:
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * w)
        save_band_stack(s, tmp_path / "lib")
        assert_band_files_equal(path, tmp_path / "lib" / "manifest.json")

    def test_float_plane_stack_rejected(self, tmp_path):
        # A stack of float64 planes holds no digital numbers to copy; the
        # error names the two ways to quantize its reflectances.
        planes = {b: np.full((4, 6), 0.5) for b in BandId}
        s = BandStack(width=6, height=4, pixel_size=10.0, planes=planes)
        with pytest.raises(ValueError, match=r"BandStack\.from_reflectance or write_bands"):
            save_band_stack(s, tmp_path / "x")
        assert not (tmp_path / "x").exists()


class TestFromReflectance:
    """``BandStack.from_reflectance`` holds in memory what ``write_bands``
    writes: every reader gives what it gives on the written files, loaded."""

    @pytest.mark.parametrize("pattern", sorted(SAVE_PATTERNS))
    @pytest.mark.parametrize("h,w,rows", [(64, 64, None), (22, 40, 5), (2, 2, None)])
    def test_every_reader_equals_the_written_stack_loaded(self, tmp_path, rng, monkeypatch,
                                                          pattern, h, w, rows):
        if rows:  # chunks of 4 rows
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * w)
        planes = {b: SAVE_PATTERNS[pattern](rng, h, w) for b in BandId}
        geo = GeoRef(500000.0, 4680000.0, "EPSG:32629")
        s = BandStack.from_reflectance(w, h, chunked(planes, w, h), geo)
        path = bandstack.write_bands(tmp_path / "written", w, h, chunked(planes, w, h), geo)
        loaded = load_band_stack(path)
        assert (s.width, s.height, s.pixel_size, s.geo) == (w, h, 10.0, geo)
        save_band_stack(s, tmp_path / "saved")
        for f in (tmp_path / "written").iterdir():
            assert (tmp_path / "saved" / f.name).read_bytes() == f.read_bytes(), f.name
        tens = (BandId.B2, BandId.B3, BandId.B4, BandId.B8)
        weights = rng.normal(size=(3, len(BandId)))
        for (r0, r1, got), (_, _, want) in zip(s.windows(), loaded.windows(), strict=True):
            for b in BandId:
                assert np.array_equal(bits(got[b]), bits(want[b])), (b, r0)
            got_dn, want_dn = s.dn_rows(r0, r1, tens), loaded.dn_rows(r0, r1, tens)
            for b in tens:
                assert got_dn[b].dtype == np.uint16 and not got_dn[b].flags.writeable
                assert np.array_equal(got_dn[b], want_dn[b])
        for (_, _, got, got_peak), (_, _, want, want_peak) in zip(
                s.float32_sums(weights), loaded.float32_sums(weights), strict=True):
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
            assert got_peak == want_peak
        rows_, cols = rng.integers(0, h, 50), rng.integers(0, w, 50)
        assert np.array_equal(bits(s.features(rows_, cols)), bits(loaded.features(rows_, cols)))

    @pytest.mark.parametrize("w,h", [(3, 4), (4, 5), (97, 130)])
    def test_odd_sizes_rejected_before_any_rows(self, w, h):
        asked = []
        with pytest.raises(DimensionError, match=f"cannot export a {w}x{h} stack"):
            BandStack.from_reflectance(w, h, asked.append)
        assert asked == []

    @pytest.mark.parametrize("chunks,message", [
        ([np.zeros((2, 8))], "2 rows of a raster 4 high"),
        ([np.zeros((4, 8)), np.zeros((2, 8))], "at row 4 of a 8x4 raster"),
        ([np.zeros((4, 6))], r"row chunk of shape \(4, 6\)"),
    ])
    def test_chunks_that_do_not_fill_the_raster_rejected(self, chunks, message):
        with pytest.raises(DimensionError, match=message):
            BandStack.from_reflectance(8, 4, lambda band: iter(chunks))

    def test_digital_numbers_are_read_only(self, rng):
        planes = {b: rng.uniform(0, 1, (4, 4)) for b in BandId}
        s = BandStack.from_reflectance(4, 4, lambda band: [planes[band]])
        with pytest.raises(ValueError, match="read-only"):
            s.dn_rows(0, 2, (BandId.B3,))[BandId.B3][0, 0] = 1


def assert_band_files_equal(manifest_a, manifest_b):
    """Every band file of two manifests holds the same bytes."""
    (_, a), (_, b) = read_manifest(manifest_a), read_manifest(manifest_b)
    for band in BandId:
        assert a[band].read_bytes() == b[band].read_bytes(), band


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
        whole = s.rows(0, h)
        for b in BandId:
            assert np.array_equal(bits(whole[b]), bits(ref.planes[b]))

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
        with pytest.raises(ValueError, match="row window"):
            s.dn_rows(r0, r1, (BandId.B3,))


class TestDnRows:
    def test_loaded_rows_are_the_files_digital_numbers(self, tmp_path, rng):
        h, w = 10, 6
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        _, paths = read_manifest(path)
        s = load_band_stack(path)
        tens = (BandId.B8, BandId.B2, BandId.B3, BandId.B4)
        for r0, r1 in [(0, 1), (3, 8), (9, 10), (0, h)]:
            got = s.dn_rows(r0, r1, tens)
            scaled = s.rows(r0, r1, tens)
            assert list(got) == list(tens)
            for b in tens:
                assert got[b].dtype.kind == "u" and got[b].dtype.itemsize == 2
                assert np.array_equal(got[b], read_pgm16(paths[b])[r0:r1])
                assert np.array_equal(bits(np.divide(got[b], 10000.0)), bits(scaled[b]))
        a = s.dn_rows(2, 4, (BandId.B3,))[BandId.B3]
        a[:] = 0  # a new array on every call
        assert not np.array_equal(a, s.dn_rows(2, 4, (BandId.B3,))[BandId.B3])

    def test_in_memory_stack_gives_none(self, rng):
        planes = {b: rng.uniform(0, 1, size=(5, 4)) for b in BandId}
        s = BandStack(width=4, height=5, pixel_size=10.0, planes=planes)
        assert s.dn_rows(0, 5, (BandId.B3, BandId.B8)) is None

    def test_twenty_meter_bands_rejected(self, tmp_path, rng):
        planes = {b: rng.uniform(0, 1, size=(4, 4)) for b in BandId}
        loaded = load_band_stack(write_dn_scene(tmp_path, 4, 4, lambda b, shape: np.ones(shape)))
        for s in (loaded, BandStack(width=4, height=4, pixel_size=10.0, planes=planes)):
            with pytest.raises(ValueError, match="20 m bands B5, B11"):
                s.dn_rows(0, 2, iter((BandId.B3, BandId.B5, BandId.B11)))


class TestWindows:
    @pytest.mark.parametrize("h,w", [(1, 1), (7, 3), (100, 700), (600, 128), (4, 40000)])
    def test_windows_cover_the_rows_in_order(self, rng, h, w):
        step = max(1, _BLOCK_PIXELS // w)
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


class TestLoadedWindowsAndFeatures:
    @pytest.mark.parametrize("h,w", [(2, 2), (2, 40), (22, 18)])
    @pytest.mark.parametrize("window_rows", [1, 3])
    def test_bitwise_equal_to_whole_plane_load(self, tmp_path, rng, monkeypatch, h, w,
                                               window_rows):
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", window_rows * w)
        spans = []
        for r0, r1, block in s.windows():
            spans.append((r0, r1))
            for b in BandId:
                assert np.array_equal(bits(block[b]), bits(ref.planes[b][r0:r1])), (b, r0, r1)
        assert spans == [(r0, min(r0 + window_rows, h)) for r0 in range(0, h, window_rows)]
        rows, cols = np.indices((h, w)).reshape(2, -1)
        want = np.stack([ref.planes[b][rows, cols] for b in FEATURE_ORDER], axis=1)
        assert np.array_equal(bits(s.features(rows[::-1], cols[::-1])), bits(want[::-1]))
        whole = s.rows(0, h)
        for b in BandId:
            assert np.array_equal(bits(whole[b]), bits(ref.planes[b]))

    @pytest.mark.parametrize("h,w", [(2, 2), (6, 40), (22, 18)])
    @pytest.mark.parametrize("bands", [FEATURE_ORDER, (BandId.B12, BandId.B3), (BandId.B4,),
                                       (BandId.B8A, BandId.B5)])
    def test_any_bands_and_where_bitwise_equal_to_whole_plane_load(self, tmp_path, rng,
                                                                   monkeypatch, h, w, bands):
        # The exact path of ``mlp.threshold_planes`` reads its inputs so: in
        # ``FEATURE_ORDER``, in the windows of ``float32_sums`` that its
        # per-row ``where`` keeps; NDWI reads two bands so.
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        ref = ref_load_band_stack(path)
        wheres = {"all": None, "every third row": np.arange(h) % 3 == 0,
                  "last row": np.arange(h) == h - 1}
        for rows in range(1, h + 1):
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * w)
            for name, where in wheres.items():
                want = [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)
                        if where is None or where[r0 : r0 + rows].any()]
                screened = s.float32_sums(np.ones((1, 10)), where)
                assert [(r0, r1) for r0, r1, *_ in screened] == want, (rows, name)
                got = list(s.windows(bands, where))
                assert [(r0, r1) for r0, r1, _ in got] == want, (rows, name)
                for r0, r1, block in got:
                    assert list(block) == list(bands)
                    for b in bands:
                        assert np.array_equal(bits(block[b]), bits(ref.planes[b][r0:r1])), (
                            rows, name, b, r0, r1)


# DN ranges by band: the error bound scales with the window's peak, so a
# dark scene, or one bright only at one resolution, is held to a tighter
# bound for the other bands' terms than a full-range one.
DN_RANGES = {
    "full range": lambda b: 65536,
    "dark": lambda b: 1200,
    "bright 20 m": lambda b: 65536 if b.native_resolution_m == 20 else 300,
    "bright 10 m": lambda b: 300 if b.native_resolution_m == 20 else 65536,
}


class TestFloat32Sums:
    @pytest.mark.parametrize("h,w", [(2, 2), (6, 40), (22, 18)])
    @pytest.mark.parametrize("dn_range", list(DN_RANGES))
    def test_within_their_rounding_of_the_folded_reference(self, tmp_path, rng, monkeypatch,
                                                           h, w, dn_range):
        top = DN_RANGES[dn_range]
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, top(b), size=shape, dtype=np.uint16)
        )
        loaded = load_band_stack(path)
        in_memory = dn_twin(path)
        weights = rng.normal(size=(3, 10))
        weights[0], weights[1] = -abs(weights[0]), abs(weights[1])  # sums of either sign
        # At most 16 float32 roundings per term, each term at most
        # |w_jk| * peak in magnitude.
        n = 16
        gamma = n * 2.0**-24 / (1 - n * 2.0**-24)
        folded = ref_folded_sums(weights, path)
        assert (folded < 0).any() and (folded > 0).any()
        # Windows of every height, each read alone or in groups of windows.
        wheres = {"all": None, "every third row": np.arange(h) % 3 == 0,
                  "last row": np.arange(h) == h - 1}
        for s in (loaded, in_memory):
            for rows in range(1, h + 1):
                monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", rows * w)
                for name, where in wheres.items():
                    spans = [(r0, r1) for r0, r1, _ in s.windows((), where)]
                    got = [(r0, r1, z.copy(), peak)
                           for r0, r1, z, peak in s.float32_sums(weights, where)]
                    assert [(r0, r1) for r0, r1, *_ in got] == spans
                    for r0, r1, z, peak in got:
                        assert z.dtype == np.float32 and z.shape == (3, r1 - r0, w)
                        assert peak >= max(np.abs(v).max() for v in s.rows(r0, r1).values())
                        bound = gamma * peak * np.abs(weights).sum(axis=1)
                        err = np.abs(z - folded[:, r0:r1]).reshape(3, -1).max(axis=1)
                        assert (err <= bound).all(), (rows, name, r0, r1, err, bound)

    def test_each_window_reads_its_20m_rows_once(self, tmp_path, rng, monkeypatch):
        h, w = 40, 6
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 2 * w)  # 2-row windows
        reads = []
        raster = s.planes.rasters[BandId.B11]

        class Counting:
            def dn_rows(self, r0, r1):
                reads.append((r0, r1))
                return raster.dn_rows(r0, r1)

        monkeypatch.setitem(s.planes.rasters, BandId.B11, Counting())
        list(s.float32_sums(np.ones((1, 10))))
        # 20 windows: each reads its own 20 m row and one halo row on
        # either side, no more, and no window's rows are read twice.
        want = [s.planes.native_rows(r0, r0 + 2) for r0 in range(0, h, 2)]
        assert reads == [(a, b + 1) for a, b, _ in want]
        reads.clear()
        where = np.zeros(h, dtype=bool)
        where[[0, 2, 4, 8, 30]] = True  # windows 0-1, 2-3, 4-5, 8-9 and 30-31
        list(s.float32_sums(np.ones((1, 10)), where=where))
        assert reads == [(0, 2), (0, 3), (1, 4), (3, 6), (14, 17)]

    def test_bad_weights_rejected(self, tmp_path):
        s = load_band_stack(write_dn_scene(tmp_path, 6, 4, lambda b, shape: np.zeros(shape)))
        for w in [np.zeros((2, 9)), np.zeros(10), np.zeros((2, 0)), np.zeros((2, 11))]:
            with pytest.raises(ValueError, match="weights"):
                next(s.float32_sums(w))

    def test_float_plane_stack_yields_no_window(self, rng):
        # It has no digital numbers to screen: ``mlp.threshold_planes``
        # scores all of it exactly. Its weights are still checked.
        planes = {b: rng.uniform(0, 1.5, size=(6, 4)) for b in BandId}
        s = BandStack(width=4, height=6, pixel_size=10.0, planes=planes)
        assert list(s.float32_sums(np.ones((2, 10)))) == []
        assert list(s.float32_sums(np.ones((2, 10)), where=np.ones(6, dtype=bool))) == []
        with pytest.raises(ValueError, match="weights"):
            next(s.float32_sums(np.ones((2, 9))))

    @pytest.mark.parametrize("value", [2.0**64 * 1.01, 1e38, 1e300])
    def test_leave_values_beyond_their_peak_uncast(self, rng, monkeypatch, value):
        # A float-plane stack is never cast to float32, however large its
        # values: it yields no window, so nothing overflows or warns.
        h, w = 9, 4
        planes = {b: rng.uniform(0, 1.5, size=(h, w)) for b in BandId}
        planes[BandId.B12][4, 1] = value
        s = BandStack(width=w, height=h, pixel_size=10.0, planes=planes)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(s.float32_sums(np.ones((2, 10)))) == []
        assert s.rows(3, 6)[BandId.B12][1, 1] == value

    @pytest.mark.parametrize("band", [BandId.B3, BandId.B11], ids=["10m", "20m"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_memory_rows_left_uncast(self, rng, monkeypatch, bad, band):
        # ``mlp.threshold_planes`` scores such a stack exactly, and
        # ``forward_batch`` rejects the value there.
        planes = {b: rng.uniform(0, 1.5, size=(6, 4)) for b in BandId}
        s = BandStack(width=4, height=6, pixel_size=10.0, planes=planes)
        planes[band][5, 3] = bad  # written after the stack checked its planes
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(s.float32_sums(np.ones((2, 10)))) == []
            assert list(s.float32_sums(np.ones((2, 10)), where=np.arange(6) == 5)) == []

    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_pixel_where_skips_as_its_row_flags(self, tmp_path, rng, monkeypatch, loaded):
        # ``mlp.threshold_planes`` screens with an (H, W) ``where`` and
        # re-scores with one flag per row: both give the same windows and sums.
        h, w = 22, 18
        path = write_dn_scene(
            tmp_path, h, w, lambda b, shape: rng.integers(0, 65536, size=shape, dtype=np.uint16)
        )
        s = load_band_stack(path) if loaded else dn_twin(path)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)  # 3-row windows
        weights = rng.normal(size=(2, 10))
        where = np.zeros((h, w), dtype=bool)
        where[4, 17] = where[20, 0] = where[21, :] = True
        got = [(r0, r1, z.copy()) for r0, r1, z, _ in s.float32_sums(weights, where=where)]
        want = [(r0, r1, z.copy())
                for r0, r1, z, _ in s.float32_sums(weights, where=where.any(axis=1))]
        assert [(r0, r1) for r0, r1, _ in got] == [(3, 6), (18, 21), (21, 22)]
        assert [(r0, r1) for r0, r1, _ in want] == [(3, 6), (18, 21), (21, 22)]
        for (*_, a), (*_, b) in zip(got, want):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert list(s.float32_sums(weights, where=np.zeros((h, w), dtype=bool))) == []
        assert list(s.float32_sums(weights, where=np.zeros(h, dtype=bool))) == []


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

        monkeypatch.setattr(bandstack._DnPlanes, "window", counting)
        # unsorted, repeated, both image edges, and rows in windows 0, 2, 4 and 7
        rows = np.array([29, 0, 9, 17, 0, 9, 29, 16, 0, 28])
        cols = np.array([13, 0, 5, 2, 0, 5, 0, 13, 7, 6])
        got = s.features(rows, cols)
        want = np.stack([ref.planes[b][rows, cols] for b in FEATURE_ORDER], axis=1)
        assert got.shape == (len(rows), 10) and got.dtype == np.float64
        assert np.array_equal(bits(got), bits(want))
        assert reads == [(0, 4), (8, 12), (16, 20), (28, 30)]

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


class TestStackInvariants:
    def test_negative_values_rejected(self):
        planes = {b: np.zeros((2, 2)) for b in BandId}
        planes[BandId.B4][0, 0] = -0.1
        with pytest.raises(ValueError, match="negative"):
            BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        planes = {b: np.zeros((2, 2)) for b in BandId}
        planes[BandId.B4][1, 0] = value
        with pytest.raises(ValueError, match="non-finite or negative"):
            BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    @pytest.mark.parametrize("value", [-0.0, 0.0, 5e-324, 6.5535, 1e300])
    def test_non_negative_values_accepted(self, value):
        planes = {b: np.full((2, 2), 0.5) for b in BandId}
        planes[BandId.B4][1, 1] = value
        assert BandStack(width=2, height=2, pixel_size=10.0, planes=planes).width == 2

    @pytest.mark.parametrize("value", [-5e-324, -1e300])
    def test_tiny_and_huge_negative_values_rejected(self, value):
        planes = {b: np.full((2, 2), 0.5) for b in BandId}
        planes[BandId.B12][0, 1] = value
        with pytest.raises(ValueError, match="band B12 has non-finite or negative values"):
            BandStack(width=2, height=2, pixel_size=10.0, planes=planes)

    def test_empty_planes_accepted(self):
        planes = {b: np.zeros((0, 3)) for b in BandId}
        assert BandStack(width=3, height=0, pixel_size=10.0, planes=planes).height == 0

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0, -10.0])
    def test_bad_pixel_size_rejected(self, size):
        planes = {b: np.zeros((2, 2)) for b in BandId}
        with pytest.raises(ValueError, match="pixel_size"):
            BandStack(width=2, height=2, pixel_size=size, planes=planes)

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
        # A stack of digital numbers is even-sized by construction; odd
        # reflectance planes are refused before any file is written.
        planes = {b: np.zeros((3, 3)) for b in BandId}
        with pytest.raises(DimensionError, match="even"):
            bandstack.write_bands(tmp_path / "x", 3, 3, lambda band: [planes[band]])
        assert not (tmp_path / "x").exists()
