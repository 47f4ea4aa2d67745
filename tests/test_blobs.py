import math
from dataclasses import replace

import numpy as np
import pytest

from raftcensus import (
    BlobFilter,
    CensusConfig,
    SynthParams,
    compute_features,
    filter_blobs,
    generate_synthetic_scene,
    label_components,
    run_pipeline,
)
from raftcensus.morphology import dilate, square
from raftcensus.waterdetect import NdwiOtsu

from oracles import (
    ref_compute_features,
    ref_convex_area,
    ref_euler,
    ref_label_components,
    ref_label_partition,
)


def mask_from(rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


def label_image(shape, blobs):
    img = np.zeros(shape, dtype=np.int64)
    for b in blobs:
        img[b.pixels[:, 0], b.pixels[:, 1]] = b.label
    return img


def _bits(v):
    """A value with its type and, for floats, its exact bits."""
    if isinstance(v, tuple):
        return tuple(_bits(x) for x in v)
    return type(v), v.hex() if isinstance(v, float) else v


def assert_same_blob(got, want):
    assert got.pixels.dtype == want.pixels.dtype
    assert got.pixels.shape == want.pixels.shape
    assert got.pixels.tobytes() == want.pixels.tobytes()
    for name in ("label", "area", "centroid", "bbox", "equivalent_diameter",
                 "euler_number", "convex_area", "solidity"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


def serpentine(h, w):
    """One 8-connected path that sweeps every other row end to end."""
    m = np.zeros((h, w), dtype=bool)
    m[::2] = True
    m[1::4, -1] = True
    m[3::4, 0] = True
    return m


def checkerboard(h, w):
    return np.indices((h, w)).sum(axis=0) % 2 == 0


def random_blob_mask(rng, size=24):
    """Random-walk blob with dilation and punched holes."""
    m = np.zeros((size, size), dtype=bool)
    r, c = size // 2, size // 2
    for _ in range(rng.integers(5, 60)):
        m[r, c] = True
        r = int(np.clip(r + rng.integers(-1, 2), 1, size - 2))
        c = int(np.clip(c + rng.integers(-1, 2), 1, size - 2))
    if rng.random() < 0.7:
        m = dilate(m, square(3))
    m &= ~(rng.random(m.shape) < rng.uniform(0, 0.15))
    return m


class TestLabeling:
    def test_diagonal_pixels_are_one_blob(self):
        blobs = label_components(mask_from(["#.", ".#"]))
        assert len(blobs) == 1
        assert blobs[0].area == 2

    def test_empty_mask(self):
        assert label_components(np.zeros((4, 4), dtype=bool)) == []

    def test_labels_dense_row_major(self):
        m = mask_from(["#..#", "....", "#..."])
        blobs = label_components(m)
        assert [b.label for b in blobs] == [1, 2, 3]
        assert blobs[0].pixels.tolist() == [[0, 0]]
        assert blobs[1].pixels.tolist() == [[0, 3]]
        assert blobs[2].pixels.tolist() == [[2, 0]]

    def test_partition_matches_flood_fill(self, rng):
        for _ in range(30):
            m = rng.random((32, 32)) < rng.uniform(0.2, 0.7)
            blobs = label_components(m)
            got = {frozenset(map(tuple, b.pixels.tolist())) for b in blobs}
            assert got == ref_label_partition(m)

    def test_label_image_matches_scipy(self, rng):
        from scipy import ndimage

        masks = [rng.random((int(h), int(w))) < rng.uniform(0.1, 0.8)
                 for h, w in rng.integers(1, 48, size=(30, 2))]
        masks += [rng.random((1, 40)) < 0.5, rng.random((40, 1)) < 0.5,
                  np.ones((9, 13), dtype=bool), np.zeros((9, 13), dtype=bool)]
        m = rng.random((30, 30)) < 0.4
        masks += [m.astype(np.uint8) * 7, np.where(m, rng.uniform(0.1, 2.0, m.shape), 0.0)]
        for m in masks:
            want, n = ndimage.label(m, structure=np.ones((3, 3)))
            blobs = label_components(m)
            assert len(blobs) == n
            assert np.array_equal(label_image(m.shape, blobs), want)

    def test_union_covers_mask_disjointly(self, rng):
        m = rng.random((20, 20)) < 0.5
        blobs = label_components(m)
        seen = np.zeros_like(m, dtype=int)
        for b in blobs:
            seen[b.pixels[:, 0], b.pixels[:, 1]] += 1
        assert np.array_equal(seen > 0, m)
        assert seen.max() <= 1


class TestOracleEquivalence:
    """Run-length labeling and batched features against the flood fill
    and per-blob features they replaced, field by field and bit for bit."""

    def _masks(self, rng):
        masks = [rng.random((int(h), int(w))) < rng.uniform(0.05, 0.9)
                 for h, w in rng.integers(1, 40, size=(40, 2))]
        masks += [rng.random((1, 60)) < 0.5, rng.random((60, 1)) < 0.5,
                  np.ones((1, 7), dtype=bool), np.ones((7, 1), dtype=bool),
                  np.ones((9, 13), dtype=bool), np.zeros((9, 13), dtype=bool),
                  np.zeros((0, 5), dtype=bool), checkerboard(11, 17), ~checkerboard(6, 6),
                  mask_from(["#####", "#.#.#", "#####", "#...#", "#####"]),
                  np.eye(12, dtype=bool), np.fliplr(np.eye(12, dtype=bool)),
                  np.eye(30, 8, k=-3, dtype=bool) | np.eye(30, 8, k=4, dtype=bool)]
        masks += [random_blob_mask(rng) for _ in range(20)]
        m = rng.random((30, 30)) < 0.4
        masks += [m.astype(np.uint8) * 7, np.where(m, rng.uniform(0.1, 2.0, m.shape), 0.0)]
        return masks

    def test_labels_and_features_match_oracles(self, rng):
        for m in self._masks(rng):
            got = label_components(m)
            want = ref_label_components(m)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_blob(g, w)
                assert_same_blob(compute_features(g), ref_compute_features(w))
            loose = BlobFilter(max_area=10**6)
            accepted, rejected = filter_blobs(got, loose)
            measured = sorted(accepted + [b for b, _ in rejected], key=lambda b: b.label)
            for g, w in zip(measured, want, strict=True):
                assert_same_blob(g, ref_compute_features(w))

    def test_closed_platform_mask_of_dense_scene(self, platform_model):
        stack, _ = generate_synthetic_scene(
            SynthParams(width=2048, height=2048, raft_count=2000, noise_sigma=0.005, seed=7))
        pmask = run_pipeline(stack, CensusConfig(water_method=NdwiOtsu(),
                                                 platform_model=platform_model)).platform_mask
        got = label_components(pmask)
        want = ref_label_components(pmask)
        assert len(got) == len(want) >= 2000
        for g, w in zip(got, want):
            assert_same_blob(g, w)
        accepted, rejected = filter_blobs(got, BlobFilter())
        assert len(accepted) + len(rejected) == len(got)
        for b in accepted + [b for b, r in rejected if r != "area"]:
            assert_same_blob(b, ref_compute_features(want[b.label - 1]))

    def test_filter_mixed_masks_and_featured_blobs(self, rng):
        # Blobs from different masks overlap in the image; each one is
        # measured on its own pixels only.
        raw = []
        for _ in range(6):
            raw += label_components(random_blob_mask(rng, size=16))
            raw += label_components(rng.random((12, 12)) < 0.3)
        mixed = [ref_compute_features(b) if i % 3 == 0 else b for i, b in enumerate(raw)]
        shuffled = [mixed[i] for i in rng.permutation(len(mixed))]
        for f in (BlobFilter(), BlobFilter(max_area=40), BlobFilter(min_solidity=0.95)):
            for blobs in (raw, mixed, shuffled):
                # Old semantics: measure each area-passing raw blob alone.
                want_acc, want_rej = filter_blobs(
                    [ref_compute_features(b) if b.area < f.max_area and b.solidity is None
                     else b for b in blobs], f)
                acc, rej = filter_blobs(blobs, f)
                assert len(acc) == len(want_acc) and len(rej) == len(want_rej)
                for g, w in zip(acc, want_acc):
                    assert_same_blob(g, w)
                for (g, gr), (w, wr) in zip(rej, want_rej):
                    assert gr == wr
                    assert_same_blob(g, w)

    @pytest.mark.parametrize("m", [checkerboard(512, 512), serpentine(512, 512),
                                   serpentine(512, 512).T], ids=["checker", "serpentine", "columns"])
    def test_long_chains_match_scipy(self, m):
        from scipy import ndimage

        want, n = ndimage.label(m, structure=np.ones((3, 3)))
        blobs = label_components(m)
        assert len(blobs) == n == 1
        assert np.array_equal(label_image(m.shape, blobs), want)


class TestFeatures:
    def test_solid_square(self):
        b = compute_features(label_components(mask_from(["###", "###", "###"]))[0])
        assert b.area == 9
        assert b.equivalent_diameter == pytest.approx(math.sqrt(36 / math.pi), abs=1e-12)
        assert b.euler_number == 1
        assert b.solidity == 1.0
        assert b.centroid == (1.0, 1.0)

    def test_ring_has_one_hole(self):
        b = compute_features(label_components(mask_from(["###", "#.#", "###"]))[0])
        assert b.euler_number == 0

    def test_plus_shape_solidity(self):
        b = compute_features(label_components(mask_from([".#.", "###", ".#."]))[0])
        # hull of corner points clips the four corners but still contains
        # the corner pixel centers, so convex_area is the full 3x3 block
        assert b.convex_area == ref_convex_area(b.pixels, b.bbox) == 9
        assert b.solidity == pytest.approx(5 / 9)
        assert b.solidity < 1.0

    def test_rectangles_have_solidity_one(self, rng):
        for _ in range(10):
            h, w = rng.integers(1, 7, size=2)
            m = np.zeros((h + 2, w + 2), dtype=bool)
            m[1 : 1 + h, 1 : 1 + w] = True
            b = compute_features(label_components(m)[0])
            assert b.solidity == 1.0
            assert b.euler_number == 1

    def test_features_match_oracles(self, rng):
        checked = 0
        while checked < 120:
            m = random_blob_mask(rng)
            for blob in label_components(m):
                b = compute_features(blob)
                assert b.euler_number == ref_euler(b.pixels, b.bbox)
                assert b.convex_area == ref_convex_area(b.pixels, b.bbox)
                assert 0 < b.solidity <= 1.0
                assert b.equivalent_diameter == pytest.approx(
                    math.sqrt(4 * b.area / math.pi), abs=1e-12
                )
                checked += 1


class TestFilter:
    def _blob(self, rows):
        return compute_features(label_components(mask_from(rows))[0])

    def test_two_by_two_accepted_by_defaults(self):
        accepted, rejected = filter_blobs([self._blob(["##", "##"])], BlobFilter())
        assert len(accepted) == 1 and not rejected

    def test_line_rejected_for_area(self):
        rows = ["#" * 40]
        accepted, rejected = filter_blobs([self._blob(rows)], BlobFilter())
        assert not accepted
        assert rejected[0][1] == "area"

    def test_holed_blob_rejected_for_euler(self):
        blob = self._blob(["####", "#..#", "####"])
        accepted, rejected = filter_blobs([blob], BlobFilter(max_area=30))
        assert rejected[0][1] == "euler"

    def test_reason_order_area_first(self):
        # a big holed blob fails area before euler
        rows = ["#" * 10] * 10
        grid = [list(r) for r in rows]
        grid[5][5] = "."
        blob = self._blob(["".join(r) for r in grid])
        _, rejected = filter_blobs([blob], BlobFilter(max_area=25))
        assert rejected[0][1] == "area"

    def test_solidity_rejection(self):
        blob = self._blob([".#.", "###", ".#."])
        _, rejected = filter_blobs([blob], BlobFilter(min_solidity=0.9))
        assert rejected[0][1] == "solidity"

    def test_equivalent_diameter_rejection(self):
        blob = self._blob(["####", "####", "####", "####"])  # area 16, eqdiam 4.51
        _, rejected = filter_blobs([blob], BlobFilter(max_area=100,
                                                      max_equivalent_diameter=4.0))
        assert rejected[0][1] == "equivalent_diameter"

    def test_order_independence(self, rng):
        blobs = []
        while len(blobs) < 8:
            for blob in label_components(random_blob_mask(rng, size=16)):
                blobs.append(compute_features(blob))
        f = BlobFilter(max_area=40)
        acc1, rej1 = filter_blobs(blobs, f)
        perm = list(rng.permutation(len(blobs)))
        acc2, rej2 = filter_blobs([blobs[i] for i in perm], f)
        assert {b.label for b in acc1} == {b.label for b in acc2}
        assert {(b.label, r) for b, r in rej1} == {(b.label, r) for b, r in rej2}

    def test_raw_blobs_filter_like_featured_blobs(self, rng):
        raw = []
        while len(raw) < 40:
            raw += label_components(random_blob_mask(rng, size=16))
        raw = [replace(b, label=i) for i, b in enumerate(raw)]  # unique labels
        for f in (BlobFilter(), BlobFilter(max_area=40), BlobFilter(min_solidity=0.95)):
            acc1, rej1 = filter_blobs(raw, f)
            acc2, rej2 = filter_blobs([compute_features(b) for b in raw], f)
            assert acc1 == acc2
            assert [(b.label, r) for b, r in rej1] == [(b.label, r) for b, r in rej2]

    def test_featured_blobs_used_as_given(self):
        blob = replace(self._blob(["##", "##"]), solidity=0.5)  # measured: 1.0
        accepted, rejected = filter_blobs([blob], BlobFilter())
        assert not accepted
        assert rejected[0][0] is blob and rejected[0][1] == "solidity"

    def test_area_rejects_are_not_measured(self):
        blobs = label_components(mask_from(["#" * 40, "." * 40, "##" + "." * 38]))
        accepted, rejected = filter_blobs(blobs, BlobFilter())
        assert [(b.label, r) for b, r in rejected] == [(1, "area")]
        assert rejected[0][0].solidity is None
        assert accepted[0].solidity == 1.0

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            BlobFilter(max_area=0)
        with pytest.raises(ValueError):
            BlobFilter(min_solidity=0.0)
        for bad in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="max_equivalent_diameter"):
                BlobFilter(max_equivalent_diameter=bad)
