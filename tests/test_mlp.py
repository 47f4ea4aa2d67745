import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raftcensus import (
    BitMask,
    MlpModel,
    TrainConfig,
    evaluate_confusion,
    forward_batch,
    init_model,
    load_band_stack,
    load_model,
    loss_and_gradient,
    save_band_stack,
    save_model,
    train,
)
from raftcensus import bandstack, mlp
from raftcensus.bandstack import FEATURE_ORDER, BandId, BandStack
from raftcensus.datasets import default_platform_training_set, default_water_training_set
from raftcensus.errors import DimensionError, ModelFormatError, TrainingError
from raftcensus.mlp import PLATFORM_LAYERS, WATER_LAYERS, _sigmoid, _targets, split_data, threshold_planes

from oracles import (
    ref_forward_batch,
    ref_gather_mask,
    ref_loss_grads,
    ref_preactivations,
    ref_real_planes,
    ref_sigmoid,
    ref_train,
    ref_whole_image_mask,
    write_dn_scene,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def manual_forward(m, x):
    """Independent straight-line reimplementation of the forward pass."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = sig(m.weights[0] @ x + m.biases[0])
    return sig(m.weights[1] @ h + m.biases[1])


def bits(a):
    """Raw IEEE bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def random_stack(rng, h, w):
    """In-memory stack of reflectances uniform in [0, 1.5)."""
    planes = {b: rng.uniform(0.0, 1.5, size=(h, w)) for b in BandId}
    return BandStack(width=w, height=h, pixel_size=10.0, planes=planes)


def scaled_model(layers, seed, scale):
    """Seeded random model; a large ``scale`` drives units into saturation."""
    m = init_model(layers, seed=seed)
    return MlpModel(m.layer_sizes, tuple(scale * w for w in m.weights),
                    tuple(scale * b for b in m.biases))


# (layers, seed, weight scale)
SCORING_MODELS = [
    ((10, 2, 1), 1, 1.0),
    ((10, 8, 3), 2, 1.0),
    ((10, 8, 3), 3, 40.0),
    ((10, 2, 1), 4, 400.0),
    ((10, 8, 1), 3, 40.0),
]


class TestForward:
    def test_all_zero_parameters_give_half(self):
        m = MlpModel((10, 2, 1), (np.zeros((2, 10)), np.zeros((1, 2))),
                     (np.zeros(2), np.zeros(1)))
        assert forward_batch(m, np.zeros((1, 10)))[0, 0] == 0.5

    def test_saturated_hidden_zero_output_weights(self):
        # huge hidden bias saturates the unit; zero W2/b2 still gives 0.5
        m = MlpModel((10, 1, 1), (np.zeros((1, 10)), np.zeros((1, 1))),
                     (np.full(1, 50.0), np.zeros(1)))
        for x in (np.zeros(10), np.ones(10), np.full(10, -3.0)):
            assert forward_batch(m, x[None])[0, 0] == 0.5

    def test_matches_manual_reimplementation(self, rng):
        for seed in range(5):
            m = init_model((10, 8, 3), seed=seed)
            x = rng.uniform(-1, 1, size=10)
            assert np.allclose(forward_batch(m, x[None])[0], manual_forward(m, x), atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self, rng):
        for seed in range(5):
            m = init_model((10, 2, 1), seed=seed)
            y = forward_batch(m, rng.uniform(0, 1.5, size=(50, 10)))
            assert (y > 0).all() and (y < 1).all()

    def test_arity_mismatch(self):
        m = init_model((10, 2, 1), seed=0)
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((1, 9)))

    def test_non_finite_input(self):
        m = init_model((10, 2, 1), seed=0)
        with pytest.raises(ValueError):
            forward_batch(m, np.full((1, 10), np.nan))


class TestOneRowBatch:
    # Scored through BLAS matrix products, these models give 59, 3 and 19
    # of these 69 rows other last bits alone than inside the batch.
    @pytest.mark.parametrize("layers,seed,scale", [((10, 8, 3), 3, 40.0), ((10, 2, 1), 1, 1.0),
                                                   ((10, 8, 1), 3, 40.0)])
    def test_single_row_matches_row_inside_batch(self, layers, seed, scale):
        m = scaled_model(layers, seed, scale)
        x = np.random.default_rng(0).uniform(0.0, 1.5, size=(69, 10))
        whole = forward_batch(m, x)
        for i in range(len(x)):
            assert np.array_equal(bits(forward_batch(m, x[i : i + 1])), bits(whole[i : i + 1]))

    def test_single_row_confusion_uses_batch_score(self):
        m = scaled_model((10, 2, 1), 1, 1.0)
        x = np.random.default_rng(0).uniform(0.0, 1.5, size=(69, 10))
        scores = forward_batch(m, x)[:, 0]
        for i in range(len(x)):
            at = evaluate_confusion(m, x[i : i + 1], np.array([1]), thr=scores[i])
            above = evaluate_confusion(m, x[i : i + 1], np.array([1]),
                                       thr=np.nextafter(scores[i], 1.0))
            assert at.counts[1, 1] == 1 and above.counts[1, 0] == 1

    @pytest.mark.parametrize("layers,seed,scale", [((10, 8, 3), 3, 40.0), ((10, 2, 1), 1, 1.0),
                                                   ((10, 8, 1), 3, 40.0)])
    def test_sums_in_python_floats(self, layers, seed, scale):
        # Pins the summation order in plain Python floats: every unit sums
        # its terms in feature order, then adds its bias,
        # (((w_0 x_0 + w_1 x_1) + w_2 x_2) ...) + b. Another order changes
        # last bits of the (10, 8, 3) model here.
        m = scaled_model(layers, seed, scale)
        x = np.random.default_rng(1).uniform(0.0, 1.5, size=(6, 10))

        def units(w, b, a):
            z = []
            for wj, bj in zip(w.tolist(), b.tolist()):
                acc = wj[0] * a[0]
                for wk, ak in zip(wj[1:], a[1:]):
                    acc = acc + wk * ak
                z.append(acc + bj)
            return ref_sigmoid(np.array(z)).tolist()

        for row in x:
            hid = units(m.weights[0], m.biases[0], row.tolist())
            want = units(m.weights[1], m.biases[1], hid)
            assert np.array_equal(bits(forward_batch(m, row[None])[0]), bits(np.array(want)))


def sigmoid(z):
    """``_sigmoid`` with fresh scratch arrays."""
    return _sigmoid(z, np.empty(z.size), np.empty(z.size, dtype=bool))


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 710.0, -710.0,
               5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 36.7, -36.7, 1e300, -1e300]

    def test_matches_split_by_sign_reference_bitwise(self, rng):
        z = np.concatenate([rng.normal(scale=s, size=20000) for s in (1.0, 30.0, 500.0)]
                           + [np.array(self.SPECIAL)])
        assert np.array_equal(bits(sigmoid(z.copy())), bits(ref_sigmoid(z)))

    def test_matrix_input_bitwise(self, rng):
        z = rng.normal(scale=20.0, size=(300, 8))
        out = sigmoid(z.copy())
        assert out.shape == z.shape
        assert np.array_equal(bits(out), bits(ref_sigmoid(z)))

    def test_nan_stays_nan(self):
        out = sigmoid(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(out[:2]).all() and out[2] == ref_sigmoid(np.array([1.0]))[0]

    def test_overwrites_its_input_using_oversized_scratch(self, rng):
        z = rng.normal(scale=20.0, size=(300, 8))
        want = ref_sigmoid(z)
        t = rng.normal(size=z.size + 50)  # stale contents and a spare tail
        pos = rng.random(z.size + 50) < 0.5
        out = _sigmoid(z, t, pos)
        assert out is z
        assert np.array_equal(bits(z), bits(want))

    def test_strided_input_bitwise(self, rng):
        y = rng.normal(scale=30.0, size=(500, 3))
        col = y[:, 1]
        want = ref_sigmoid(col.copy())
        sigmoid(col)
        assert np.array_equal(bits(y[:, 1]), bits(want))


# ``_BLOCK_PIXELS`` in the scoring tests that size stacks by windows: small
# enough that a stack several windows high or one row wider than a window
# stays small.
BLOCK = 16384


@pytest.fixture
def block_pixels(monkeypatch):
    monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", BLOCK)


@pytest.fixture
def batch_sizes(monkeypatch):
    """Pixels of every window threshold_planes scores in float32."""
    sizes = []
    sums = BandStack.float32_sums

    def counting(self, *args, **kwargs):
        for r0, r1, z, peak in sums(self, *args, **kwargs):
            sizes.append((r1 - r0) * self.width)
            yield r0, r1, z, peak

    monkeypatch.setattr(BandStack, "float32_sums", counting)
    return sizes


@pytest.fixture
def rescored(monkeypatch):
    """(r0, r1) of every window threshold_planes scores exactly: the windows
    whose bands it reads (the float32 screen walks windows unread)."""
    windows = []
    walk = BandStack.windows

    def recording(self, *args, **kwargs):
        for r0, r1, block in walk(self, *args, **kwargs):
            if block:
                windows.append((r0, r1))
            yield r0, r1, block

    monkeypatch.setattr(BandStack, "windows", recording)
    return windows


@pytest.fixture
def block_scores(monkeypatch):
    """[(r0, r1), outputs] of every row window threshold_planes scores:
    its rows and its (n, n_out) ``forward_batch`` outputs, copied. No window
    is scored in float32, so every window's exact scores are recorded."""
    blocks = []
    walk, score = BandStack.windows, mlp.forward_batch

    def walking(self, *args, **kwargs):
        for r0, r1, block in walk(self, *args, **kwargs):
            blocks.append([(r0, r1), None])
            yield r0, r1, block

    def recording(m, x):
        y = score(m, x)
        if blocks and blocks[-1][1] is None:  # not a call from outside a window
            blocks[-1][1] = y.copy()
        return y

    monkeypatch.setattr(mlp, "_float32_net", lambda m, out_index: None)
    monkeypatch.setattr(BandStack, "windows", walking)
    monkeypatch.setattr(mlp, "forward_batch", recording)
    return blocks


@pytest.mark.usefixtures("block_pixels")
class TestThresholdPlanes:
    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    def test_forward_batch_rows_match_whole_batch_reference(self, rng, layers, seed,
                                                            scale):
        # Row blocks rely on this: a row's outputs do not depend on which
        # other rows share its batch.
        m = scaled_model(layers, seed, scale)
        x = rng.uniform(0.0, 1.5, size=(3 * BLOCK + 17, 10))
        want = ref_forward_batch(m, x)
        for lo, hi in [(0, BLOCK), (BLOCK, 2 * BLOCK + 5),
                       (len(x) - 3, len(x)), (100, 102), (7, 8)]:
            assert np.array_equal(bits(forward_batch(m, x[lo:hi])), bits(want[lo:hi]))
        pick = np.sort(rng.choice(len(x), size=5000, replace=False))
        assert np.array_equal(bits(forward_batch(m, x[pick])), bits(want[pick]))

    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    @pytest.mark.parametrize("shape", [(50, 700), (1, 20000), (2 * BLOCK + 9, 1),
                                       (BLOCK + 1, 1), (1, 1), (7, 3)])
    def test_matches_whole_image_reference(self, rng, layers, seed, scale, shape):
        m = scaled_model(layers, seed, scale)
        stack = random_stack(rng, *shape)
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, 10)
        scores = ref_forward_batch(m, x)
        for out_index in range(m.n_out):
            # Thresholds equal to actual scores put pixels exactly on the
            # boundary, where a one-ulp difference would flip the result.
            picks = rng.integers(0, len(x), size=3)
            for thr in [0.5, *scores[picks, out_index]]:
                got = threshold_planes(m, stack, out_index, thr)
                assert got.shape == shape and isinstance(got, BitMask)
                assert np.array_equal(got, ref_whole_image_mask(m, stack.planes, out_index, thr))

    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    def test_where_matches_gather_reference(self, rng, layers, seed, scale):
        h, w = 203, 512  # not a multiple of the 32-row block size
        m = scaled_model(layers, seed, scale)
        stack = random_stack(rng, h, w)
        few = np.zeros((h, w), dtype=bool)
        few[40, 7] = few[41, 500] = few[150:152, 100:300] = few[202, :] = True
        wheres = {
            "none": np.zeros((h, w), dtype=bool),
            "all": np.ones((h, w), dtype=bool),
            "few_blocks": few,
            "random": rng.random((h, w)) < 0.3,
        }
        for name, where in wheres.items():
            for thr in (0.2, 0.5, 0.9):
                got = threshold_planes(m, stack, m.n_out - 1, thr, where=where)
                want = ref_gather_mask(m, stack.planes, m.n_out - 1, thr, where)
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("odd_shape", [(1, 1), (4, 1)])
    def test_plane_shape_mismatch_rejected(self, rng, odd_shape):
        # A plane whose shape disagrees with the others never reaches the
        # scorer: the stack handed to threshold_planes cannot be built.
        m = init_model((10, 2, 1), seed=0)
        planes = {b: rng.uniform(0.0, 1.5, size=(4, 5)) for b in BandId}
        planes[FEATURE_ORDER[3]] = rng.uniform(size=odd_shape)
        with pytest.raises(DimensionError, match="shape"):
            threshold_planes(m, BandStack(width=5, height=4, pixel_size=10.0,
                                          planes=planes), 0, 0.5)

    def test_where_only_restricts_the_result(self, rng):
        # A pixel's result does not depend on which other pixels are in
        # ``where``, down to a lone pixel.
        m = scaled_model((10, 8, 3), 5, 40.0)
        h, w = 100, 300
        stack = random_stack(rng, h, w)
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, 10)
        scores = ref_forward_batch(m, x)[:, 2].reshape(h, w)
        where = rng.random((h, w)) < 0.5
        for r, c in [(0, 0), (57, 123), (99, 299)]:
            thr = scores[r, c]  # the pixel sits exactly on the threshold
            full = np.asarray(threshold_planes(m, stack, 2, thr))
            assert full[r, c]
            lone = np.zeros((h, w), dtype=bool)
            lone[r, c] = True
            assert np.array_equal(threshold_planes(m, stack, 2, thr, where=lone), lone)
            assert np.array_equal(threshold_planes(m, stack, 2, thr, where=where), full & where)

    def test_row_blocks_without_where_pixels_are_not_scored(self, rng, batch_sizes):
        m = init_model((10, 2, 1), seed=0)
        h, w = 208, 1024  # thirteen 16-row blocks
        stack = random_stack(rng, h, w)
        where = np.zeros((h, w), dtype=bool)
        assert threshold_planes(m, stack, 0, 0.5, where=where).sum() == 0
        assert batch_sizes == []
        where[20, 3] = where[150, 1000] = True
        threshold_planes(m, stack, 0, 0.5, where=where)
        assert batch_sizes == [BLOCK, BLOCK]

    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    def test_one_pixel_tail_block_scores_like_the_reference(self, rng, block_scores,
                                                            layers, seed, scale):
        m = scaled_model(layers, seed, scale)
        stack = random_stack(rng, BLOCK + 1, 1)
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, 10)
        want = ref_forward_batch(m, x)
        thr = want[-1, -1]
        got = np.asarray(threshold_planes(m, stack, m.n_out - 1, thr))
        assert [r1 - r0 for (r0, r1), _ in block_scores] == [BLOCK, 1]
        assert got[-1, 0] and np.array_equal(got[:, 0], want[:, -1] >= thr)
        assert np.array_equal(bits(block_scores[1][1]), bits(want[-1:]))

    @pytest.mark.parametrize("layers", [(10, 2, 1), (10, 8, 3), (10, 8, 1)])
    def test_every_batch_size_and_block_split_scores_alike(self, rng, monkeypatch,
                                                          block_scores, layers):
        from raftcensus import bandstack

        m = scaled_model(layers, 3, 40.0)
        stack = random_stack(rng, 69, 1)
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, 10)
        whole = forward_batch(m, x)
        assert np.array_equal(bits(whole), bits(ref_forward_batch(m, x)))
        for i in range(len(x)):
            assert np.array_equal(bits(forward_batch(m, x[i : i + 1])[0]), bits(whole[i]))
        for n in range(1, len(x) + 1):
            parts = [forward_batch(m, x[i : i + n]) for i in range(0, len(x), n)]
            assert np.array_equal(bits(np.concatenate(parts)), bits(whole))
            monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", n)  # blocks of n rows
            block_scores.clear()
            threshold_planes(m, stack, m.n_out - 1, 0.5)
            assert [r1 - r0 for (r0, r1), _ in block_scores][:1] == [n]
            got = np.concatenate([yb for _, yb in block_scores])
            assert np.array_equal(bits(got), bits(whole))

    def test_unequal_blocks_score_like_the_whole_image(self, rng, block_scores):
        # Ten rows of 5461 pixels make blocks of 3, 3, 3 and 1 rows: a
        # shorter block follows taller ones in the same buffers.
        m = scaled_model((10, 8, 3), 3, 40.0)
        h, w = 10, BLOCK // 3
        stack = random_stack(rng, h, w)
        threshold_planes(m, stack, 2, 0.5)
        assert [rows for rows, _ in block_scores] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, 10)
        assert np.array_equal(bits(np.concatenate([yb for _, yb in block_scores])),
                              bits(ref_forward_batch(m, x)))

    def test_skipped_middle_blocks_leave_no_stale_rows(self, rng, block_scores):
        m = scaled_model((10, 8, 3), 2, 1.0)
        h, w = 10, BLOCK // 3  # blocks of rows 0-2, 3-5, 6-8, 9
        stack = random_stack(rng, h, w)
        where = np.zeros((h, w), dtype=bool)
        where[3, 10] = where[9, :] = True  # blocks 1 and 3 only
        x = np.stack([stack.planes[b] for b in FEATURE_ORDER], axis=-1).reshape(h, w, 10)
        scores = ref_forward_batch(m, x.reshape(-1, 10))[:, 1].reshape(h, w)
        for thr in (0.5, scores[3, 10], scores[9, 77]):
            block_scores.clear()
            got = threshold_planes(m, stack, 1, thr, where=where)
            assert np.array_equal(got, ref_gather_mask(m, stack.planes, 1, thr, where))
            assert [rows for rows, _ in block_scores] == [(3, 6), (9, 10)]
            for (r0, r1), yb in block_scores:
                xb = x[r0:r1].reshape(-1, 10)
                assert np.array_equal(bits(yb), bits(ref_forward_batch(m, xb)))

    def test_back_to_back_models_of_different_width(self, rng):
        stack = random_stack(rng, 70, 600)
        models = [scaled_model((10, 2, 1), 1, 1.0), scaled_model((10, 8, 3), 3, 40.0),
                  scaled_model((10, 2, 1), 4, 400.0), scaled_model((10, 8, 3), 2, 1.0)]
        for m in models + models[::-1]:
            out_index = m.n_out - 1
            assert np.array_equal(threshold_planes(m, stack, out_index, 0.5),
                                  ref_whole_image_mask(m, stack.planes, out_index, 0.5))

    def test_inputs_left_unmodified(self, rng):
        m = scaled_model((10, 8, 3), 3, 40.0)
        stack = random_stack(rng, 40, 900)
        where = rng.random((40, 900)) < 0.5
        before = {b: p.copy() for b, p in stack.planes.items()}
        where_before = where.copy()
        threshold_planes(m, stack, 2, 0.5)
        threshold_planes(m, stack, 2, 0.5, where=where)
        assert all(np.array_equal(bits(stack.planes[b]), bits(before[b])) for b in BandId)
        assert np.array_equal(where, where_before)
        x = rng.uniform(0.0, 1.5, size=(33, 10))
        x_before = x.copy()
        forward_batch(m, x)
        forward_batch(m, x[:1])
        assert np.array_equal(bits(x), bits(x_before))

    @pytest.mark.parametrize("too_large", [False, True], ids=["screened", "too-large model"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_in_scored_block_rejected(self, rng, bad, too_large):
        # The float32 screen leaves such a window uncast, or a model too
        # large to cast has every window scored exactly: either way the
        # exact pass rejects the value.
        m = init_model((10, 2, 1), seed=0)
        if too_large:
            w1 = m.weights[0].copy()
            w1[1, 4] = 1e39
            m = MlpModel(m.layer_sizes, (w1, m.weights[1]), m.biases)
        assert (mlp._float32_net(m, 0) is None) == too_large
        h, w = 10, BLOCK // 3
        stack = random_stack(rng, h, w)
        # Written after the stack checked its planes; in the third block, rows 6-8.
        stack.planes[BandId.B11][8, 5] = bad
        with pytest.raises(ValueError, match="inputs must be finite"):
            threshold_planes(m, stack, 0, 0.5)
        where = np.zeros((h, w), dtype=bool)
        where[7, 0] = True
        with pytest.raises(ValueError, match="inputs must be finite"):
            threshold_planes(m, stack, 0, 0.5, where=where)
        # A block that holds no ``where`` pixel is neither scored nor checked.
        where[7, 0], where[0, 0] = False, True
        assert np.array_equal(threshold_planes(m, stack, 0, 0.5, where=where),
                              ref_gather_mask(m, stack.planes, 0, 0.5, where))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_where_gives_the_bool_result(self, rng, dtype):
        m = scaled_model((10, 8, 3), 2, 1.0)
        stack = random_stack(rng, 40, 900)
        where = rng.random((40, 900)) < 0.3
        where[:20] = False  # the first windows are skipped
        want = threshold_planes(m, stack, 2, 0.5, where=where)
        got = threshold_planes(m, stack, 2, 0.5, where=where.astype(dtype))
        assert np.array_equal(got.words, want.words)

    def test_bitmask_where_gives_the_words_of_the_bool_where(self, rng):
        m = scaled_model((10, 8, 3), 2, 1.0)
        stack = random_stack(rng, 40, 900)
        where = rng.random((40, 900)) < 0.3
        where[:20] = False  # the first windows are skipped
        want = threshold_planes(m, stack, 2, 0.5, where=where)
        got = threshold_planes(m, stack, 2, 0.5, where=BitMask.pack(where))
        assert np.array_equal(got.words, want.words)
        assert np.array_equal(got, ref_gather_mask(m, stack.planes, 2, 0.5, where))

    def test_where_shape_mismatch_rejected(self, rng):
        m = init_model((10, 2, 1), seed=0)
        with pytest.raises(DimensionError, match="shape"):
            threshold_planes(m, random_stack(rng, 4, 5), 0, 0.5,
                             where=np.ones((5, 4), dtype=bool))


def saved_random_stack(rng, tmp_path, h, w):
    """(loaded stack, manifest path) of a ``random_stack`` saved to disk."""
    manifest = save_band_stack(random_stack(rng, h, w), tmp_path)
    return load_band_stack(manifest), manifest


@pytest.mark.usefixtures("block_pixels")
class TestLoadedStackScoring:
    """A loaded stack's masks are those of ``forward_batch`` of its
    upsampled features: they equal ``ref_whole_image_mask`` of its loaded
    planes, bitwise."""

    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    @pytest.mark.parametrize("shape", [(6, BLOCK + 34), (10, BLOCK // 3 - 1),
                                       (50, 700), (2, 2)],
                             ids=["1-row", "3-row", "23-row", "2x2"])
    def test_matches_whole_image_reference(self, rng, tmp_path, layers, seed, scale, shape):
        m = scaled_model(layers, seed, scale)
        stack, _ = saved_random_stack(rng, tmp_path, *shape)
        planes = stack.rows(0, stack.height)  # each built once
        scores = exact_scores(m, stack)
        for out_index in range(m.n_out):
            # Thresholds equal to actual scores put pixels exactly on the
            # boundary, where a one-ulp difference would flip the result.
            picks = scores[..., out_index].reshape(-1)[rng.integers(0, scores[..., 0].size, 2)]
            for thr in [0.5, *picks]:
                got = threshold_planes(m, stack, out_index, thr)
                assert np.array_equal(got, ref_whole_image_mask(m, planes, out_index, thr))

    def test_where_windows_skipped(self, rng, tmp_path, block_scores):
        m = scaled_model((10, 8, 3), 3, 40.0)
        h, w = 12, BLOCK // 3 - 1  # windows of rows 0-2, 3-5, 6-8, 9-11
        stack, _ = saved_random_stack(rng, tmp_path, h, w)
        where = np.zeros((h, w), dtype=bool)
        where[4, 10] = where[11, :] = True
        for thr in (0.2, 0.5, 0.9):
            block_scores.clear()
            got = threshold_planes(m, stack, 2, thr, where=where)
            assert [rows for rows, _ in block_scores] == [(3, 6), (9, 12)]
            assert np.array_equal(got, ref_gather_mask(m, stack.rows(0, h), 2, thr, where))

    def test_screen_never_calls_scaled_rows(self, rng, tmp_path, monkeypatch):
        # The screen reads digital numbers; only the exact pass scales them.
        m = init_model((10, 2, 1), seed=0)
        h, w = 12, BLOCK // 3 - 1  # windows of rows 0-2, 3-5, 6-8, 9-11
        stack, _ = saved_random_stack(rng, tmp_path, h, w)
        scaled = []
        scaled_rows = bandstack._Raster.scaled_rows

        def recording(self, r0, r1):
            scaled.append((r0, r1))
            return scaled_rows(self, r0, r1)

        monkeypatch.setattr(bandstack._Raster, "scaled_rows", recording)
        where = np.zeros((h, w), dtype=bool)
        where[3, 0] = where[8, 2] = True
        net = mlp._float32_net(m, 0)
        for wh in (None, where):
            assert len(list(mlp._float32_scores(net, stack, wh))) == (4 if wh is None else 2)
            # Thresholds beyond every score decide every pixel in float32.
            assert np.array_equal(threshold_planes(m, stack, 0, -1.0, where=wh),
                                  np.ones((h, w), dtype=bool) if wh is None else wh)
            assert threshold_planes(m, stack, 0, 2.0, where=wh).sum() == 0
        assert scaled == []
        # A NaN threshold decides nothing: the exact pass reads every band
        # of every window.
        assert threshold_planes(m, stack, 0, np.nan).sum() == 0
        assert len(scaled) == 4 * len(BandId)

    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS)
    def test_scores_bitwise_equal_to_forward_batch_of_features(self, rng, tmp_path, block_scores,
                                                              layers, seed, scale):
        m = scaled_model(layers, seed, scale)
        h, w = 50, 700
        stack, _ = saved_random_stack(rng, tmp_path, h, w)
        rows, cols = np.indices((h, w)).reshape(2, -1)
        want = forward_batch(m, stack.features(rows, cols))
        for out_index in range(m.n_out):
            thr = want[rng.integers(0, len(want)), out_index]  # a pixel on the boundary
            block_scores.clear()
            got = threshold_planes(m, stack, out_index, thr)
            assert np.array_equal(bits(np.concatenate([y for _, y in block_scores])), bits(want))
            assert np.array_equal(np.asarray(got).reshape(-1), want[:, out_index] >= thr)


def exact_scores(m, stack):
    """(H, W, n_out) exact scores: ``ref_forward_batch`` of the features of
    a stack's planes (of a loaded stack, its upsampled planes)."""
    planes = stack.rows(0, stack.height)
    x = np.stack([planes[b] for b in FEATURE_ORDER], axis=-1)
    return ref_forward_batch(m, x.reshape(-1, m.n_in)).reshape(stack.height, stack.width, -1)


def small_stack(x, tmp, loaded):
    """Stack of the (10, h, w) reflectances ``x``, held in memory or saved
    to ``tmp`` and loaded."""
    planes = dict(zip(BandId, x))
    stack = BandStack(width=x.shape[2], height=x.shape[1], pixel_size=10.0, planes=planes)
    return load_band_stack(save_band_stack(stack, tmp)) if loaded else stack


# Reflectances up to the largest digital number, with exact zeros (and,
# in memory, subnormals) among them.
REFLECTANCES = st.one_of(st.just(0.0), st.floats(0.0, 6.5535))


def assert_within_dy32(m, stack, real):
    """Every window's float32 pre-activations v32 lie within dy32(peak) of
    the real ones, computed from ``real``, the stack's real inputs, and
    ``peak`` bounds every input the window reads."""
    for out_index in range(m.n_out):
        net = mlp._float32_net(m, out_index)
        want = ref_preactivations(m, real, out_index)
        seen = []
        for r0, r1, v, peak in mlp._float32_scores(net, stack):
            seen.append((r0, r1))
            assert peak >= max(np.abs(x).max() for x in stack.rows(r0, r1).values())
            gap = np.abs(v.astype(np.longdouble) - want[r0:r1].reshape(-1))
            assert gap.max() <= net.dy32(peak), (r0, r1)
        assert seen == [(r0, r1) for r0, r1, _ in stack.windows(())]


# Digital numbers over the whole uint16 range, with its ends among them.
DIGITAL_NUMBERS = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))


class TestFloat32Bound:
    """Windows are scored in float32 and decided there when the bounds
    allow; the exact scores decide every other window."""

    @given(model=st.sampled_from(SCORING_MODELS), loaded=st.booleans(),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
           window_rows=st.integers(1, 8), data=st.data())
    def test_float32_scores_within_the_bound(self, model, loaded, shape, window_rows, data):
        h, w = 2 * shape[0], 2 * shape[1]
        x = data.draw(arrays(np.float64, (10, h, w), elements=REFLECTANCES))
        layers, seed, scale = model
        m = scaled_model(layers, seed, scale)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(bandstack, "_BLOCK_PIXELS", window_rows * w)
            stack = small_stack(x, tmp, loaded)
            real = ref_real_planes(Path(tmp) / "manifest.json") if loaded else stack.planes
            assert_within_dy32(m, stack, real)

    @given(model=st.sampled_from(SCORING_MODELS),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
           window_rows=st.integers(1, 8), data=st.data())
    def test_digital_numbers_within_the_bound(self, model, shape, window_rows, data):
        # A loaded stack is screened from its digital numbers, over the
        # whole uint16 range; its masks stay those of the exact scores.
        h, w = 2 * shape[0], 2 * shape[1]
        dn = {b: data.draw(arrays(np.uint16, (h, w) if b.native_resolution_m == 10
                                  else (h // 2, w // 2), elements=DIGITAL_NUMBERS))
              for b in BandId}
        layers, seed, scale = model
        m = scaled_model(layers, seed, scale)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(bandstack, "_BLOCK_PIXELS", window_rows * w)
            path = write_dn_scene(tmp, h, w, lambda b, shape: dn[b])
            stack = load_band_stack(path)
            assert_within_dy32(m, stack, ref_real_planes(path))
            scores = exact_scores(m, stack)
            for out_index in range(m.n_out):
                s = scores[..., out_index]
                for thr in (0.5, s[0, 0], s[-1, -1]):
                    assert np.array_equal(threshold_planes(m, stack, out_index, thr), s >= thr)

    @pytest.mark.parametrize("loaded", [False, True])
    def test_saturated_hidden_units_decide_without_warnings(self, rng, tmp_path, monkeypatch,
                                                            rescored, loaded):
        # Hidden sums far beyond +-89 make float32 exp overflow to inf (the
        # unit reads 0) or underflow to 0 (it reads 1); neither warns, and
        # the masks stay those of the exact scores.
        m = scaled_model((10, 8, 3), 2, 1.0)
        w1, b1 = m.weights[0].copy(), m.biases[0].copy()
        w1[:4] *= 400.0
        b1[:4] *= 400.0
        m = MlpModel(m.layer_sizes, (w1, m.weights[1]), (b1, m.biases[1]))
        h, w = 12, 6
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)  # windows of 3 rows
        stack = small_stack(rng.uniform(0.0, 1.5, size=(10, h, w)), tmp_path, loaded)
        planes = stack.rows(0, h)
        z = np.stack([planes[b] for b in FEATURE_ORDER], axis=-1) @ w1.T + b1
        assert (z[..., :4] > 89).any() and (z[..., :4] < -89).any()
        scores = exact_scores(m, stack)[..., 2]
        flat = np.sort(scores.reshape(-1))
        i = np.argmax(np.diff(flat))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for thr in (0.5, scores[4, 1], scores[11, 5]):
                assert np.array_equal(threshold_planes(m, stack, 2, thr), scores >= thr)
            # Midway across the widest gap between scores, every pixel is
            # decided in float32.
            rescored.clear()
            thr = (flat[i] + flat[i + 1]) / 2
            assert np.array_equal(threshold_planes(m, stack, 2, thr), scores >= thr)
            assert rescored == []

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("layers,seed,scale", SCORING_MODELS[:3])
    def test_threshold_at_an_exact_score_rescores_that_window(self, rng, tmp_path, monkeypatch,
                                                             rescored, loaded, layers, seed,
                                                             scale):
        m = scaled_model(layers, seed, scale)
        h, w = 12, 6
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)  # windows of 3 rows
        stack = small_stack(rng.uniform(0.0, 1.5, size=(10, h, w)), tmp_path, loaded)
        out_index = m.n_out - 1
        scores = exact_scores(m, stack)[..., out_index]
        net = mlp._float32_net(m, out_index)
        # Pixels within e of a threshold may go undecided in float32.
        e = max(2 * net.ds64(peak) + net.dy32(peak)
                for *_, peak in mlp._float32_scores(net, stack))
        # The pixel whose score lies farthest from every other pixel's.
        flat = np.sort(scores.reshape(-1))
        away = np.minimum(np.diff(flat, prepend=-np.inf), np.diff(flat, append=np.inf))
        pick = flat[np.argmax(away)]
        assert away.max() > 2 * e
        r, c = np.argwhere(scores == pick)[0]
        got = np.asarray(threshold_planes(m, stack, out_index, pick))
        assert got[r, c] and np.array_equal(got, scores >= pick)
        assert rescored == [(r - r % 3, r - r % 3 + 3)]
        # A float32 threshold is compared as its float64 value.
        thr32 = np.float32(pick)
        assert np.array_equal(threshold_planes(m, stack, out_index, thr32), scores >= thr32)
        # A threshold midway across the widest gap between scores, and
        # thresholds beyond every score, decide every pixel in float32.
        i = np.argmax(np.diff(flat))
        assert flat[i + 1] - flat[i] > 4 * e
        for thr in ((flat[i] + flat[i + 1]) / 2, -np.inf, -1e300, 2.0, np.inf):
            rescored.clear()
            assert np.array_equal(threshold_planes(m, stack, out_index, thr), scores >= thr)
            assert rescored == []
        # A NaN threshold decides nothing: every window is scored again.
        rescored.clear()
        assert threshold_planes(m, stack, out_index, np.nan).sum() == 0
        assert rescored == [(r0, r0 + 3) for r0 in range(0, h, 3)]

    def test_pixels_outside_where_need_no_decision(self, rng, monkeypatch, rescored):
        m = scaled_model((10, 8, 3), 2, 1.0)
        h, w = 12, 6
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)
        stack = small_stack(rng.uniform(0.0, 1.5, size=(10, h, w)), None, False)
        scores = exact_scores(m, stack)[..., 2]
        where = np.zeros((h, w), dtype=bool)
        where[4, 1] = where[10, :] = True
        thr = scores[4, 2]  # on the threshold, but outside ``where``
        got = threshold_planes(m, stack, 2, thr, where=where)
        assert np.array_equal(got, (scores >= thr) & where)
        assert rescored == []
        where[4, 2] = True
        assert np.array_equal(threshold_planes(m, stack, 2, thr, where=where),
                              (scores >= thr) & where)
        assert rescored == [(3, 6)]

    @pytest.mark.parametrize("where_rows", [None, [0, 7]])
    def test_model_beyond_float32_range_is_scored_exactly(self, rng, monkeypatch, rescored,
                                                          where_rows):
        m = scaled_model((10, 8, 3), 2, 1.0)
        w1 = m.weights[0].copy()
        w1[3, 4] = 1e39
        m = MlpModel(m.layer_sizes, (w1, m.weights[1]), m.biases)
        assert mlp._float32_net(m, 2) is None
        h, w = 12, 6
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)
        stack = small_stack(rng.uniform(0.0, 1.5, size=(10, h, w)), None, False)
        where = None
        if where_rows is not None:
            where = np.zeros((h, w), dtype=bool)
            where[where_rows, 2] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = threshold_planes(m, stack, 2, 0.5, where=where)
        want = exact_scores(m, stack)[..., 2] >= 0.5
        assert np.array_equal(got, want if where is None else want & where)
        rows = range(h) if where is None else where_rows
        assert rescored == sorted({(r - r % 3, r - r % 3 + 3) for r in rows})

    @pytest.mark.parametrize("value", [1e38, 2.0**64 * 1.5, 1e300])
    def test_window_beyond_float32_range_is_scored_exactly(self, rng, monkeypatch, rescored,
                                                           value):
        m = scaled_model((10, 2, 1), 1, 1.0)
        h, w = 12, 6
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 3 * w)
        x = rng.uniform(0.0, 1.5, size=(10, h, w))
        x[4, 7, 5] = value  # B6, in the window of rows 6-8
        stack = small_stack(x, None, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = threshold_planes(m, stack, 0, 0.5)
            sums = [(r0, z is None, peak)
                    for r0, _, z, peak in stack.float32_sums(np.ones((2, 10)))]
        assert np.array_equal(got, exact_scores(m, stack)[..., 0] >= 0.5)
        assert rescored == [(6, 9)]
        assert [(r0, none) for r0, none, _ in sums] == [(0, False), (3, False), (6, True),
                                                        (9, False)]
        assert sums[2][2] == np.inf

    @pytest.mark.parametrize("band", [BandId.B4, BandId.B8A])
    def test_screen_never_scales_a_loaded_band(self, rng, tmp_path, monkeypatch, band):
        # A band's scaled rows are read only by the exact pass.
        m = init_model((10, 8, 3), seed=0)
        stack, _ = saved_random_stack(rng, tmp_path, 12, 6)
        monkeypatch.setattr(bandstack, "_BLOCK_PIXELS", 18)
        raster = stack.planes.rasters[band]

        class DigitalNumbersOnly:
            def dn_rows(self, r0, r1):
                return raster.dn_rows(r0, r1)

            def scaled_rows(self, r0, r1):
                raise AssertionError(f"band {band.value} rows scaled")

        monkeypatch.setitem(stack.planes.rasters, band, DigitalNumbersOnly())
        for thr in (-1.0, 2.0):
            assert threshold_planes(m, stack, 2, thr).sum() == (stack.height * stack.width if thr < 0 else 0)
        with pytest.raises(AssertionError, match=f"band {band.value} rows scaled"):
            threshold_planes(m, stack, 2, np.nan)


class TestLossAndGradient:
    def test_zero_loss_zero_gradients_at_targets(self):
        # with zero parameters every output is exactly 0.5
        m = MlpModel((10, 2, 1), (np.zeros((2, 10)), np.zeros((1, 2))),
                     (np.zeros(2), np.zeros(1)))
        x = np.random.default_rng(0).uniform(0, 1, size=(6, 10))
        t = np.full((6, 1), 0.5)
        mse, grads = loss_and_gradient(m, x, t)
        assert mse == 0.0
        for layer in grads:
            for g in layer:
                assert np.all(g == 0.0)

    @pytest.mark.parametrize("layers", [(10, 2, 1), (10, 8, 3)])
    def test_matches_central_differences(self, rng, layers):
        h = 1e-5
        for seed in range(3):
            m = init_model(layers, seed=seed)
            x = rng.uniform(0, 1.2, size=(8, layers[0]))
            labels = rng.integers(0, max(layers[2], 2), size=8)
            t = _targets(labels, layers[2])
            _, grads = loss_and_gradient(m, x, t)
            for li in range(2):
                for which in (0, 1):
                    g = grads[li][which]
                    arr = (m.weights if which == 0 else m.biases)[li]
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index

                        def loss_at(delta):
                            ws = [w.copy() for w in m.weights]
                            bs = [b.copy() for b in m.biases]
                            (ws if which == 0 else bs)[li][idx] += delta
                            mm = MlpModel(m.layer_sizes, tuple(ws), tuple(bs))
                            return loss_and_gradient(mm, x, t)[0]

                        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
                        rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-6)
                        assert rel < 1e-4

    def test_duplicating_batch_leaves_loss_and_grads(self, rng):
        m = init_model((10, 2, 1), seed=3)
        x = rng.uniform(0, 1, size=(5, 10))
        t = _targets(rng.integers(0, 2, size=5), 1)
        mse1, g1 = loss_and_gradient(m, x, t)
        mse2, g2 = loss_and_gradient(m, np.tile(x, (2, 1)), np.tile(t, (2, 1)))
        assert mse1 == pytest.approx(mse2, abs=1e-15)
        for l1, l2 in zip(g1, g2):
            for a, b in zip(l1, l2):
                assert np.allclose(a, b, atol=1e-15)

    def test_permutation_invariance(self, rng):
        m = init_model((10, 8, 3), seed=4)
        x = rng.uniform(0, 1, size=(7, 10))
        t = _targets(rng.integers(0, 3, size=7), 3)
        perm = rng.permutation(7)
        mse1, g1 = loss_and_gradient(m, x, t)
        mse2, g2 = loss_and_gradient(m, x[perm], t[perm])
        assert mse1 == pytest.approx(mse2, rel=1e-12)
        for l1, l2 in zip(g1, g2):
            for a, b in zip(l1, l2):
                assert np.allclose(a, b, atol=1e-14)

    def test_empty_batch_rejected(self):
        m = init_model((10, 2, 1), seed=0)
        with pytest.raises(ValueError):
            loss_and_gradient(m, np.empty((0, 10)), np.empty((0, 1)))

    def test_targets_out_of_range_rejected(self):
        m = init_model((10, 2, 1), seed=0)
        with pytest.raises(ValueError):
            loss_and_gradient(m, np.zeros((1, 10)), np.array([[1.5]]))


class TestTrain:
    def test_xor_converges(self):
        ok = 0
        for seed in range(6):
            cfg = TrainConfig(max_epochs=5000, target_loss=0.005,
                              learning_rate=2.0, momentum=0.9, seed=seed)
            model, history = train(init_model((2, 2, 1), seed=seed), XOR_X, XOR_Y, cfg)
            y = forward_batch(model, XOR_X)[:, 0]
            if float(np.mean((y - XOR_Y) ** 2)) < 0.01:
                ok += 1
            assert history and all(np.isfinite(history))
        assert ok >= 5

    def test_zero_learning_rate_is_identity(self):
        m = init_model((2, 2, 1), seed=1)
        cfg = TrainConfig(max_epochs=50, target_loss=1e-12, learning_rate=0.0,
                          momentum=0.9, seed=1)
        trained, history = train(m, XOR_X, XOR_Y, cfg)
        assert trained.params_equal(m)
        assert len(set(history)) == 1

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="two classes"):
            train(init_model((2, 2, 1), seed=0), XOR_X, np.zeros(4, dtype=int),
                  TrainConfig())

    @pytest.mark.parametrize("layers,label", [((10, 2, 3), 4), ((10, 2, 3), 3), ((10, 2, 3), -1),
                                              ((10, 2, 1), 2), ((10, 2, 1), 0.5)])
    def test_label_outside_the_net_rejected_before_training(self, monkeypatch, layers, label):
        x = np.random.default_rng(0).uniform(0, 1, size=(12, 10))
        labels = np.array([0, 1] * 5 + [label, 0])
        monkeypatch.setattr(mlp, "_Batch", None)  # no epoch may start
        with pytest.raises(TrainingError, match=f"label {label} is not one of the net's"):
            train(init_model(layers, seed=0), x, labels, TrainConfig(max_epochs=5))

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "target_loss"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    def test_divergence_reports_epoch(self):
        # momentum > 1 makes the velocity grow without bound until the
        # parameters overflow, which must surface as a divergence error
        cfg = TrainConfig(max_epochs=1500, target_loss=1e-9, learning_rate=1.0,
                          momentum=2.0, seed=0)
        with pytest.raises(TrainingError, match="diverged") as info:
            with np.errstate(over="ignore", invalid="ignore"):
                train(init_model((2, 2, 1), seed=0), XOR_X, XOR_Y, cfg)
        assert info.value.epoch is not None

    def test_training_deterministic(self):
        data = np.random.default_rng(5).uniform(0, 1, size=(40, 10))
        labels = (data[:, 0] > 0.5).astype(int)
        cfg = TrainConfig(max_epochs=100, seed=5)
        m1, h1 = train(init_model((10, 2, 1), seed=5), data, labels, cfg)
        m2, h2 = train(init_model((10, 2, 1), seed=5), data, labels, cfg)
        assert m1.params_equal(m2)
        assert h1 == h2

    @pytest.mark.parametrize("case", ["platform", "water", "no validation split"])
    def test_bitwise_equal_to_fresh_array_oracle(self, case):
        if case == "platform":
            layers, data = PLATFORM_LAYERS, default_platform_training_set(seed=3, total=1200)
            cfg = TrainConfig(max_epochs=300, seed=3)
        elif case == "water":
            layers, data = WATER_LAYERS, default_water_training_set(seed=4, n_per_class=200)
            cfg = TrainConfig(max_epochs=200, seed=4)
        else:
            layers, data = PLATFORM_LAYERS, default_platform_training_set(seed=5, total=90)
            cfg = TrainConfig(max_epochs=300, seed=5, split=(0.98, 0.01, 0.01))
            assert len(split_data(data.features, data.labels, cfg)[1][0]) == 0
        m = init_model(layers, seed=7)
        got, history = train(m, data.features, data.labels, cfg)
        want, want_history = ref_train(m, data.features, data.labels, cfg)
        assert history == want_history and len(history) > 10
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(bits(a), bits(b))

    def test_loss_and_gradient_bitwise_equal_to_oracle(self, rng):
        m = scaled_model((10, 8, 3), 3, 4.0)
        x = rng.uniform(0.0, 1.5, size=(500, 10))
        t = _targets(rng.integers(0, 3, size=500), 3)
        mse, grads = loss_and_gradient(m, x, t)
        want_mse, want_grads = ref_loss_grads(m.weights, m.biases, x, t)
        assert mse == want_mse
        for layer, want_layer in zip(grads, want_grads):
            for a, b in zip(layer, want_layer):
                assert np.array_equal(bits(a), bits(b))

    def test_small_dataset_keeps_all_samples_in_train(self):
        (x_tr, _), (x_v, _), (x_te, _) = split_data(XOR_X, XOR_Y, TrainConfig(seed=0))
        assert len(x_tr) == 4 and len(x_v) == 0 and len(x_te) == 0

    def test_split_fractions(self):
        x = np.zeros((100, 10))
        y = np.arange(100) % 2
        (x_tr, _), (x_v, _), (x_te, _) = split_data(x, y, TrainConfig(seed=0))
        assert (len(x_tr), len(x_v), len(x_te)) == (70, 15, 15)

    def test_synthetic_platform_training_error_below_2pct(self, platform_model):
        from raftcensus import default_platform_training_set

        data = default_platform_training_set(seed=1234)
        x_test, y_test = split_data(data.features, data.labels, TrainConfig(seed=1234))[2]
        cm = evaluate_confusion(platform_model, x_test, y_test)
        assert cm.error_rate < 0.02


class TestEvaluateConfusion:
    def test_perfect_classifier(self, platform_model):
        from raftcensus import default_platform_training_set

        data = default_platform_training_set(seed=99, total=40)
        cm = evaluate_confusion(platform_model, data.features, data.labels)
        assert np.trace(cm.counts) == 40
        assert cm.error_rate == 0.0

    def test_constant_zero_binary_net(self):
        m = MlpModel((10, 2, 1), (np.zeros((2, 10)), np.zeros((1, 2))),
                     (np.zeros(2), np.full(1, -50.0)))
        x = np.random.default_rng(0).uniform(0, 1, size=(20, 10))
        labels = np.array([0, 1] * 10)
        cm = evaluate_confusion(m, x, labels)
        assert cm.counts[:, 1].sum() == 0  # everything lands in column 0
        assert cm.error_rate == pytest.approx(0.5)

    def test_row_sums_match_class_counts(self, rng, platform_model):
        x = rng.uniform(0, 0.4, size=(30, 10))
        labels = rng.integers(0, 2, size=30)
        cm = evaluate_confusion(platform_model, x, labels)
        for k in (0, 1):
            assert cm.counts[k].sum() == (labels == k).sum()

    @pytest.mark.parametrize("layers,label", [((10, 2, 1), 2), ((10, 2, 3), 3), ((10, 2, 3), -1)])
    def test_label_outside_the_classes_rejected(self, layers, label):
        x = np.random.default_rng(0).uniform(0, 1, size=(4, 10))
        with pytest.raises(ValueError, match=f"label {label} is not one of the"):
            evaluate_confusion(init_model(layers, seed=0), x, np.array([0, 1, label, 0]))

    def test_empty_set_rejected(self, platform_model):
        with pytest.raises(ValueError):
            evaluate_confusion(platform_model, np.empty((0, 10)), np.empty(0))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        m = init_model((10, 8, 3), seed=17)
        save_model(m, tmp_path / "m.mlp")
        assert load_model(tmp_path / "m.mlp").params_equal(m)

    def test_round_trip_after_training(self, tmp_path, platform_model):
        save_model(platform_model, tmp_path / "p.mlp")
        assert load_model(tmp_path / "p.mlp").params_equal(platform_model)

    def test_truncated_weights_rejected(self, tmp_path):
        m = init_model((10, 2, 1), seed=0)
        save_model(m, tmp_path / "m.mlp")
        lines = (tmp_path / "m.mlp").read_text().splitlines()
        w_line = lines[4].split()
        lines[4] = " ".join(w_line[:-1])
        (tmp_path / "bad.mlp").write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="mismatch"):
            load_model(tmp_path / "bad.mlp")

    def test_features_line_lists_feature_order(self, tmp_path):
        save_model(init_model((10, 2, 1), seed=0), tmp_path / "m.mlp")
        lines = (tmp_path / "m.mlp").read_text().splitlines()
        assert lines[2] == "features B2 B3 B4 B5 B6 B7 B8 B8A B11 B12"
        assert lines[2].split()[1:] == [b.value for b in FEATURE_ORDER]

    @pytest.mark.parametrize("line", [
        "features B2 B3 B4 B5 B6 B7 B8 B8 B11 B12",  # a band missing, one twice
        "features B3 B2 B4 B5 B6 B7 B8 B8A B11 B12",  # permuted
        "features B12 B11 B8A B8 B7 B6 B5 B4 B3 B2",  # reversed
        "features B2 B3 B4 B5 B6 B7 B8 B8A B11",  # nine bands
        "features B2 B3 B4 B5 B6 B7 B8 B8A B11 B12 B1",
    ])
    def test_other_features_line_rejected(self, tmp_path, line):
        m = init_model((10, 2, 1), seed=0)
        save_model(m, tmp_path / "m.mlp")
        lines = (tmp_path / "m.mlp").read_text().splitlines()
        lines[2] = line
        (tmp_path / "bad.mlp").write_text("\n".join(lines) + "\n")
        want = "expected the line 'features B2 B3 B4 B5 B6 B7 B8 B8A B11 B12'"
        with pytest.raises(ModelFormatError, match=want):
            load_model(tmp_path / "bad.mlp")

    def test_unknown_activation_rejected(self, tmp_path):
        m = init_model((10, 2, 1), seed=0)
        save_model(m, tmp_path / "m.mlp")
        text = (tmp_path / "m.mlp").read_text().replace("sigmoid", "relu")
        (tmp_path / "bad.mlp").write_text(text)
        with pytest.raises(ModelFormatError, match="activation"):
            load_model(tmp_path / "bad.mlp")

    @pytest.mark.parametrize("layers", [(10, 0, 3), (0, 2, 1), (10, 2, 0)])
    def test_zero_sized_layer_rejected(self, layers):
        n_in, n_hid, n_out = layers
        with pytest.raises(ModelFormatError, match="at least 1"):
            MlpModel(layers, (np.zeros((n_hid, n_in)), np.zeros((n_out, n_hid))),
                     (np.zeros(n_hid), np.zeros(n_out)))
        with pytest.raises(ModelFormatError, match="at least 1"):
            init_model(layers)

    @pytest.mark.parametrize("layers", [(10, -1, 3), (-2, 2, 1), (10, 2, -5)])
    def test_negative_layer_rejected_before_drawing(self, layers):
        with pytest.raises(ModelFormatError, match=rf"layer sizes \({', '.join(map(str, layers))}\)"):
            init_model(layers)

    def test_not_a_model_file(self, tmp_path):
        (tmp_path / "junk.mlp").write_text("hello\n")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "junk.mlp")
