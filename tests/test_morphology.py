import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raftcensus import BitMask, bottom_hat, closing, dilate, erode, opening, square
from raftcensus import morphology
from raftcensus.errors import DimensionError

from oracles import ref_bottom_hat, ref_close, ref_dilate, ref_erode, ref_open

SES = [square(3), square(5), square(7)]

# Up to 140 columns: three 64-pixel words, so shifts carry across words.
masks = arrays(
    dtype=bool,
    shape=st.tuples(st.integers(4, 20), st.integers(4, 140)),
    elements=st.booleans(),
)

OPS = [(erode, ref_erode), (dilate, ref_dilate), (opening, ref_open), (closing, ref_close),
       (bottom_hat, ref_bottom_hat)]


WIDTHS = [1, 2, 63, 64, 65, 127, 128, 129]


def pad_bits(b: BitMask) -> np.ndarray:
    """The pad bits of each row's last word (zero words when none)."""
    tail = b.width % 64
    if tail == 0:
        return np.zeros(len(b.words), np.uint64)
    return b.words[:, -1] >> np.uint64(tail)


class TestBitMask:
    @pytest.mark.parametrize("w", WIDTHS)
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_pack_round_trips(self, rng, w, h):
        for m in (np.zeros((h, w), bool), np.ones((h, w), bool), rng.random((h, w)) < 0.5):
            b = BitMask.pack(m)
            assert b.words.dtype == np.dtype("<u8") and b.words.shape == (h, -(-w // 64))
            assert b.shape == (h, w) and b.width == w
            assert not pad_bits(b).any()
            got = b.to_bool()
            assert got.dtype == bool and np.array_equal(got, m)
            assert np.array_equal(np.asarray(b), m) and np.array_equal(b, m)

    def test_nonzero_is_true_and_bitmask_packs_to_itself(self, rng):
        m = rng.integers(-3, 4, size=(5, 70))
        b = BitMask.pack(m)
        assert np.array_equal(b, m != 0)
        assert BitMask.pack(b) is b
        assert np.array_equal(BitMask.pack(np.asfortranarray(m)).words, b.words)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_rows_sum_and_flat_indices(self, rng, w):
        for p in (0.0, 0.02, 0.5, 1.0):
            m = rng.random((7, w)) < p
            b = BitMask.pack(m)
            assert b.sum() == m.sum() and isinstance(b.sum(), int)
            got = b.flat_indices()
            assert got.dtype == np.intp and np.array_equal(got, np.flatnonzero(m))
            for r0, r1 in [(0, 7), (0, 1), (2, 5), (6, 7), (3, 3)]:
                rows = b.rows(r0, r1)
                assert rows.dtype == bool and np.array_equal(rows, m[r0:r1])

    def test_flat_indices_across_word_batches(self, rng, monkeypatch):
        m = rng.random((9, 300)) < 0.3
        m[4] = False  # a row of zero words between batches
        monkeypatch.setattr(morphology, "_FLAT_WORDS", 2)
        assert np.array_equal(BitMask.pack(m).flat_indices(), np.flatnonzero(m))

    def test_malformed_masks_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            BitMask.pack(np.ones(5, bool))
        with pytest.raises(DimensionError, match="width 65"):
            BitMask(np.zeros((2, 1), np.uint64), 65)
        with pytest.raises(DimensionError, match="int64"):
            BitMask(np.zeros((2, 1), np.int64), 64)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_operators_leave_pad_bits_zero(self, rng, w):
        for m in (np.ones((3, w), bool), rng.random((3, w)) < 0.5):
            for op, _ in OPS:
                for se in (square(1), square(3), square(7)):
                    got = op(m, se)
                    assert isinstance(got, BitMask) and not pad_bits(got).any(), op.__name__
                    # A BitMask input gives the words of its bool mask.
                    assert np.array_equal(op(BitMask.pack(m), se).words, got.words)


class TestStructElem:
    def test_square_offsets(self):
        se = square(3)
        assert len(se.offsets) == 9 and (0, 0) in se.offsets
        assert se.radius == 1
        assert square(1).offsets == ((0, 0),) and square(7).radius == 3

    @pytest.mark.parametrize("k", [4, 0, -1, 3.0])
    def test_square_must_be_odd(self, k):
        with pytest.raises(ValueError, match="square size must be odd and >= 1"):
            square(k)


class TestDefinitions:
    def test_erode_all_true_3x3(self):
        m = np.ones((3, 3), dtype=bool)
        out = erode(m, square(3))
        want = np.zeros((3, 3), dtype=bool)
        want[1, 1] = True
        assert np.array_equal(out, want)

    def test_erode_empty(self):
        m = np.zeros((5, 5), dtype=bool)
        assert not np.asarray(erode(m, square(3))).any()

    def test_dilate_single_pixel(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        out = np.asarray(dilate(m, square(3)))
        assert out.sum() == 9 and out[1:4, 1:4].all()

    def test_dilate_all_true_absorbing(self):
        m = np.ones((4, 4), dtype=bool)
        assert np.asarray(dilate(m, square(3))).all()

    def test_open_removes_isolated_pixel(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        assert not np.asarray(opening(m, square(3))).any()

    def test_close_fills_single_hole(self):
        m = np.ones((7, 7), dtype=bool)
        m[3, 3] = False
        assert closing(m, square(3)).rows(3, 4)[0, 3]

    def test_bottom_hat_is_the_hole(self):
        m = np.zeros((9, 9), dtype=bool)
        m[1:8, 1:8] = True
        m[4, 4] = False
        bh = bottom_hat(m, square(3))
        want = np.zeros_like(m)
        want[4, 4] = True
        assert np.array_equal(bh, want)

    def test_bottom_hat_empty_mask(self):
        assert not np.asarray(bottom_hat(np.zeros((4, 4), dtype=bool), square(3))).any()


@pytest.mark.parametrize("se", SES, ids=["sq3", "sq5", "sq7"])
class TestAgainstReference:
    def test_random_masks_match_naive(self, rng, se):
        # Also 1x1, one-row and one-column masks, and masks narrower or
        # shorter than the element, whose every pixel sees the outside.
        k = se.size
        small = [(1, 1), (1, 7), (7, 1), (2, 3), (3, 2), (1, k), (k, 1), (1, k + 5),
                 (k + 5, 1), (k - 1, k + 3), (k + 3, k - 1)]
        masks = [np.full(shape, v) for shape in small for v in (False, True)]
        masks += [rng.random(shape) < p for shape in small for p in (0.5, 0.9)]
        for _ in range(25):
            h, w = rng.integers(5, 33, size=2)
            masks.append(rng.random((h, w)) < rng.uniform(0.2, 0.8))
        for m in masks:
            assert np.array_equal(erode(m, se), ref_erode(m, se.offsets))
            assert np.array_equal(dilate(m, se), ref_dilate(m, se.offsets))
            assert np.array_equal(opening(m, se), ref_open(m, se.offsets))
            assert np.array_equal(closing(m, se), ref_close(m, se.offsets))
            assert np.array_equal(bottom_hat(m, se), ref_bottom_hat(m, se.offsets))

    def test_duality_on_interior(self, rng, se):
        r = se.radius
        for _ in range(10):
            m = rng.random((16, 16)) < 0.5
            dual = ~np.asarray(erode(~m, se))
            assert np.array_equal(np.asarray(dilate(m, se))[r:-r, r:-r], dual[r:-r, r:-r])


class TestWordBoundaries:
    """Rows are packed into 64-pixel words: widths on either side of one
    and two words, against the definitional references."""

    @pytest.mark.parametrize("w", [1, 2, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_random_full_and_empty_masks(self, rng, w, h, k):
        se = square(k)
        cases = [np.ones((h, w), bool), np.zeros((h, w), bool)]
        cases += [rng.random((h, w)) < p for p in (0.3, 0.9)]
        for m in cases:
            for op, ref in OPS:
                got = op(m, se)
                assert isinstance(got, BitMask) and got.shape == m.shape
                assert np.array_equal(got, ref(m, se.offsets)), (op.__name__, h, w, k)

    @pytest.mark.parametrize("w", [63, 64, 65, 129])
    def test_all_true_dilation_leaves_no_pad_bits(self, w):
        # A dilation of an all-True mask reaches past the last column into
        # the last word's pad bits; the erosion after it must still see the
        # outside there as False.
        m = np.ones((9, w), bool)
        for k in (3, 5, 7):
            se = square(k)
            assert np.array_equal(closing(m, se), ref_close(m, se.offsets))
            assert np.array_equal(erode(dilate(m, se), se), ref_close(m, se.offsets))
            assert bottom_hat(m, se).sum() == 0

    def test_uint8_fortran_order_and_strided_inputs(self, rng):
        for w in (5, 64, 70):
            m = rng.random((11, w)) < 0.6
            as_uint8 = (m * rng.integers(1, 256, size=m.shape)).astype(np.uint8)
            fortran = np.asfortranarray(m)
            assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
            for se in SES:
                for op, ref in OPS:
                    want = ref(m, se.offsets)
                    strided = np.repeat(m, 2, axis=1)[:, ::2]
                    for a in (as_uint8, fortran, np.asfortranarray(as_uint8), strided):
                        got = op(a, se)
                        assert isinstance(got, BitMask) and np.array_equal(got, want), op.__name__

    def test_elements_wider_than_a_word(self, rng):
        m = rng.random((3, 150)) < 0.97
        se = square(131)
        for op, ref in OPS:
            assert np.array_equal(op(m, se), ref(m, se.offsets)), op.__name__
        row = np.ones((1, 130), bool)
        assert np.array_equal(dilate(row[:, :1], se), row[:, :1])
        assert erode(row, se).sum() == 0


@given(masks)
def test_open_anti_extensive(m):
    assert not (np.asarray(opening(m, square(3))) & ~m).any()


@given(masks)
def test_close_extensive_away_from_border(m):
    # Closing composed from border-false primitives loses the border
    # ring, so extensivity is asserted on the interior.
    c = np.asarray(closing(m, square(3)))
    inner = m.copy()
    inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
    assert not (inner & ~c).any()


@given(masks)
def test_idempotence(m):
    for op in (opening, closing):
        once = op(m, square(3))
        assert np.array_equal(op(once, square(3)), once)


@given(masks, masks)
def test_monotonicity(m1, m2):
    h = min(m1.shape[0], m2.shape[0])
    w = min(m1.shape[1], m2.shape[1])
    a = m1[:h, :w] & m2[:h, :w]  # a ⊆ b
    b = m1[:h, :w] | m2[:h, :w]
    for op in (erode, dilate, opening, closing):
        assert not (np.asarray(op(a, square(3))) & ~np.asarray(op(b, square(3)))).any()


@given(masks)
def test_bottom_hat_disjoint_from_input(m):
    bh = np.asarray(bottom_hat(m, square(3)))
    assert not (bh & m).any()
    assert not (bh & ~np.asarray(closing(m, square(3)))).any()


def test_bottom_hat_recovers_raft_pixels():
    from raftcensus import SynthParams, generate_synthetic_scene, water_mask_ndwi

    stack, truth = generate_synthetic_scene(
        SynthParams(width=256, height=256, raft_count=25, seed=11)
    )
    bh = np.asarray(bottom_hat(water_mask_ndwi(stack), square(3)))
    recovered = (bh & truth.raft_mask).sum() / truth.raft_mask.sum()
    assert recovered >= 0.95
