"""Small multilayer perceptron, written out in full.

One hidden layer, logistic sigmoid on hidden and output units, trained
by full-batch gradient descent with momentum on mean squared error.
The platform classifier uses layers [10, 2, 1]; the water classifier
defaults to [10, 8, 3] with the water class last. A net's inputs are the
ten band reflectances in ``FEATURE_ORDER``, the one band order there is;
a model file's ``features`` line lists it, and ``load_model`` rejects any
other line.

A pixel's exact score is ``forward_batch`` of its features. Each unit
sums its weighted inputs in feature order, in float64, then adds its
bias, so the score depends only on the pixel's features: not on the
batch or window it is scored in, nor on the BLAS library.

A mask pixel (``threshold_planes``) is ``forward_batch`` of its
``BandStack.rows`` features >= thr. Most pixels are decided without that
score, from float32 BLAS matrix products, which are several times
cheaper and whose rounding depends on the BLAS. Each row window
(``BandStack.windows``) is screened in float32 first: a stack of digital
numbers (a DN stack: loaded, or generated in memory) from them, cast
exactly, with first-layer weights divided by DN_SCALE; hidden units as
1 / (1 + exp(-z)), by exp, an addition and a reciprocal in place; and
no output sigmoid, as the screen stops at the output unit's
pre-activation. Proven bounds (``_Float32Net``) on that
pre-activation's float32 error and on the exact score's float64 error
give two cuts, and a pixel whose pre-activation lies beyond either is
decided; a window holding any other pixel, or a value the screen does
not cast (beyond 2^64 or not finite), is scored again by
``forward_batch``, which raises on a non-finite input. So the masks do
not depend on the BLAS either.
Training stays on float64 matrix products, with its work arrays
allocated once per call, not per epoch.

Models are value objects: training copies parameters and never mutates
its input model.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandstack import DN_SCALE, FEATURE_ORDER, BandStack
from .errors import DimensionError, ModelFormatError, TrainingError
from .morphology import BitMask

__all__ = [
    "MlpModel",
    "TrainConfig",
    "ConfusionMatrix",
    "init_model",
    "forward_batch",
    "threshold_planes",
    "loss_and_gradient",
    "train",
    "split_data",
    "evaluate_confusion",
    "save_model",
    "load_model",
]

PLATFORM_LAYERS = (10, 2, 1)
WATER_LAYERS = (10, 8, 3)
WATER_CLASS_INDEX = 3  # 1-based output index of the water class


def _check_layer_sizes(sizes) -> None:
    if min(sizes) < 1:
        raise ModelFormatError(f"layer sizes {tuple(sizes)} must all be at least 1")


def _sigmoid(z: np.ndarray, t: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Logistic function of ``z``, computed in place: ``z`` is overwritten
    and returned; ``t`` and ``pos`` are flat scratch arrays of ``z``'s dtype
    and of bool, of at least ``z.size`` elements.

    Per element this is 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 +
    exp(z)) otherwise, each one correctly rounded division; exp(-|z|) never
    overflows, and NaN stays NaN.
    """
    t = t[: z.size].reshape(z.shape)
    pos = pos[: z.size].reshape(z.shape)
    np.abs(z, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.greater_equal(z, 0.0, out=pos)
    np.add(t, 1.0, out=z)
    np.maximum(t, pos, out=t)  # 1 where z >= 0, as t lies in [0, 1]
    return np.divide(t, z, out=z)


@dataclass(frozen=True)
class MlpModel:
    """Parameters of a one-hidden-layer sigmoid network."""

    layer_sizes: tuple[int, int, int]
    weights: tuple[np.ndarray, np.ndarray]  # per layer, (n_out, n_in)
    biases: tuple[np.ndarray, np.ndarray]  # per layer, (n_out,)

    def __post_init__(self):
        n_in, n_hid, n_out = self.layer_sizes
        _check_layer_sizes(self.layer_sizes)
        shapes = [(n_hid, n_in), (n_out, n_hid)]
        for i, (w, b, shape) in enumerate(zip(self.weights, self.biases, shapes)):
            if w.shape != shape or b.shape != (shape[0],):
                raise ModelFormatError(
                    f"layer {i} parameter shapes {w.shape}/{b.shape} do not "
                    f"match layer sizes {self.layer_sizes}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelFormatError(f"layer {i} has non-finite parameters")

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[2]

    def params_equal(self, other: "MlpModel") -> bool:
        return (
            self.layer_sizes == other.layer_sizes
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings.

    Validation and test sizes are floor(n * fraction), so very small
    datasets keep all samples in the training split. With an empty
    validation split the training loss drives early stopping and
    best-model tracking.
    """

    max_epochs: int = 2000
    target_loss: float = 1e-3
    learning_rate: float = 2.0
    momentum: float = 0.9
    seed: int = 0
    split: tuple[float, float, float] = (0.70, 0.15, 0.15)

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        for name in ("learning_rate", "momentum", "target_loss"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not all(f > 0 for f in self.split):
            raise ValueError("split fractions must be positive")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = samples of true class i predicted as class j."""

    counts: np.ndarray
    class_names: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def error_rate(self) -> float:
        return 1.0 - float(np.trace(self.counts)) / self.total


def init_model(
    layer_sizes: tuple[int, int, int] = PLATFORM_LAYERS,
    seed: int = 0,
) -> MlpModel:
    """Seeded random model with weights and biases uniform in [-0.5, 0.5]."""
    _check_layer_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    n_in, n_hid, n_out = layer_sizes
    w1 = rng.uniform(-0.5, 0.5, size=(n_hid, n_in))
    b1 = rng.uniform(-0.5, 0.5, size=n_hid)
    w2 = rng.uniform(-0.5, 0.5, size=(n_out, n_hid))
    b2 = rng.uniform(-0.5, 0.5, size=n_out)
    return MlpModel(tuple(layer_sizes), (w1, w2), (b1, b2))


def _weighted_sums(w, inputs, out, tmp) -> np.ndarray:
    """out[j] = w[j, 0] x_0 + w[j, 1] x_1 + ... for the equal-length 1-D
    ``inputs`` x_k, summed left to right."""
    for j, acc in enumerate(out):
        np.multiply(inputs[0], w[j, 0], out=acc)
        for k in range(1, len(inputs)):
            acc += np.multiply(inputs[k], w[j, k], out=tmp)
    return out


def _sigmoid_units(z, b, tmp, pos) -> np.ndarray:
    """z[j] = sigmoid(z[j] + b[j]) for each row of ``z``, in place."""
    for acc, bj in zip(z, b):
        acc += bj
        _sigmoid(acc, tmp, pos)
    return z


def forward_batch(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network outputs for an (n, n_in) batch; returns (n, n_out) in (0, 1).

    Without BLAS, each unit sums its weighted inputs in feature order, first
    input first, then adds its bias. A row's outputs do not depend on the
    rest of the batch; they are the exact scores that decide
    ``threshold_planes``' masks.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.n_in:
        raise ValueError(f"expected (n, {m.n_in}) inputs, got shape {x.shape}")
    cols = x.T
    tmp, pos = np.empty(len(x)), np.empty(len(x), dtype=bool)
    for c in cols:
        if not np.isfinite(c, out=pos).all():
            raise ValueError("inputs must be finite")
    z = _weighted_sums(m.weights[0], cols, np.empty((m.layer_sizes[1], len(x))), tmp)
    h = _sigmoid_units(z, m.biases[0], tmp, pos)
    y = _weighted_sums(m.weights[1], h, np.empty((m.n_out, len(x))), tmp)
    return _sigmoid_units(y, m.biases[1], tmp, pos).T.copy()


def threshold_planes(
    m: MlpModel,
    s: BandStack,
    out_index: int,
    thr: float,
    where=None,
) -> BitMask:
    """The (H, W) BitMask of pixels whose output ``out_index`` (0-based) is
    >= thr.

    A mask pixel is ``forward_batch`` of its ``BandStack.rows`` features
    >= thr, so its result depends neither on its window nor on BLAS.

    Exact scores are formed only where they are needed. Every window is
    first scored in float32 by matrix products (``BandStack.float32_sums``,
    then one matrix product for the output unit), up to the output unit's
    pre-activation v32: the output sigmoid is monotone, so it is compared
    with cuts instead (``_Float32Net.cuts``). ``_Float32Net`` bounds
    |v32 - v*| by dy32(M) and |exact score - s*| by ds64(M), with s* =
    sigmoid(v*) the real-valued score and M the window's peak input
    magnitude. A pixel is decided true when v32 >= logit(thr + ds64) +
    dy32 and false when v32 < logit(thr - ds64) - dy32, both cuts rounded
    outward to float32; NaN decides nothing. The rows of every window that
    holds an undecided pixel, or a value beyond 2^64 or not finite, are
    flagged (for a model too large to cast, every row holding a pixel of
    ``where``), and one pass of ``forward_batch`` scores the flagged
    windows; its exact results replace the float32 ones, and a non-finite
    input raises ``ValueError`` there. The float32
    screen computes output ``out_index`` only.

    With an (H, W) ``where``, a BitMask or a 2-D array that is packed into
    one (nonzero is True), windows holding no true pixel are neither read
    nor scored: a row's flag is whether any of its words is nonzero. Only
    pixels in ``where`` need deciding, and each window's decided pixels
    are ANDed with its rows of ``where`` (``BitMask.rows``) and packed into
    the result's words, so no whole-scene bool mask is built.
    """
    flags = None
    if where is not None:
        where = BitMask.pack(where)
        if where.shape != (s.height, s.width):
            raise DimensionError(f"mask shape {where.shape} does not match {(s.height, s.width)}")
        flags = where.words.any(axis=1)
    out = np.zeros((s.height, -(-s.width // 64)), dtype="<u8")
    net = _float32_net(m, out_index)
    if net is None:  # every window that holds a pixel of ``where``
        redo = np.ones(s.height, dtype=bool) if where is None else flags
    else:
        redo = np.zeros(s.height, dtype=bool)
        for r0, r1, v, peak in _float32_scores(net, s, flags):
            inside = None if where is None else where.rows(r0, r1)
            hit = np.empty((r1 - r0, s.width), dtype=bool)
            if v is not None and _decide(v, *net.cuts(thr, peak), hit.reshape(-1),
                                         None if inside is None else inside.reshape(-1)):
                _pack_rows(out, r0, hit, inside)
            else:
                redo[r0:r1] = True
    for r0, r1, block in s.windows(FEATURE_ORDER, redo):
        x = np.stack([block[b].reshape(-1) for b in FEATURE_ORDER])
        hit = (forward_batch(m, x.T)[:, out_index] >= thr).reshape(r1 - r0, s.width)
        _pack_rows(out, r0, hit, None if where is None else where.rows(r0, r1))
    return BitMask(out, s.width)


def _pack_rows(out: np.ndarray, r0: int, hit: np.ndarray, inside) -> None:
    """Pack the bool rows ``hit``, restricted to ``inside`` when given, into
    the words ``out`` from row r0 on."""
    if inside is not None:
        hit &= inside
    out[r0 : r0 + len(hit)] = BitMask.pack(hit).words


def _decide(v: np.ndarray, hi: np.float32, lo: np.float32, hit: np.ndarray, where) -> bool:
    """Set ``hit`` where the float32 pre-activations ``v`` are >= hi; True
    when every one (of the pixels in ``where``, if given) is >= hi or < lo,
    so that the exact scores are on the same side of the threshold."""
    np.greater_equal(v, hi, out=hit)
    decided = np.less(v, lo)
    decided |= hit
    if where is not None:
        decided |= ~where
    return bool(decided.all())


def _float32_ceil(x: float) -> np.float32:
    """The smallest float32 >= x, for x clipped to [-2^100, 2^100] (NaN
    stays NaN). Pre-activations are finite float32s below 2^61 in
    magnitude, as parameter row sums stay below ``_FLOAT32_PARAMS``, so the
    clip changes no comparison with them, and a float32 v has v >= x
    exactly when v >= this bound (and v < x exactly when v < it)."""
    if x == x:  # not NaN
        x = min(max(x, -(2.0**100)), 2.0**100)
    c = np.float32(x)
    return np.nextafter(c, np.float32(np.inf)) if c < x else c


def _logit_bound(p: float, d: float, up: bool) -> float:
    """An upper (``up``) or lower bound, in float64, on logit(q) + d for
    the real q that the float64 ``p`` is the rounding of, where logit(q) =
    log(q / (1 - q)) is -inf for q <= 0 and inf for q >= 1. NaN stays NaN.

    The neighbour of ``p`` outward lies beyond q. From there, log and
    log1p are off by a few ulps, and the subtraction and additions by half
    an ulp each, of magnitudes at most |log p| + |log1p(-p)| + |d|; the pad
    of 2^-40 times that covers them all."""
    p = math.nextafter(p, math.inf if up else -math.inf)
    if not 0.0 < p < 1.0:
        return p if p != p else (math.inf if p >= 1.0 else -math.inf)
    a, b = math.log(p), math.log1p(-p)
    pad = (abs(a) + abs(b) + abs(d)) * 2.0**-40
    return a - b + d + pad if up else a - b + d - pad


# Unit roundoffs and smallest subnormals of float32 and float64.
_U32, _U64 = 2.0**-24, 2.0**-53
_ETA32, _ETA64 = 2.0**-149, 2.0**-1074
_EXP_ULPS = 8  # allowance for np.exp, in units in the last place
# Largest parameter row sum scored in float32: with inputs of magnitude at
# most bandstack's float32 peak (2**64), every float32 sum stays below 2**125.
_FLOAT32_PARAMS = 2.0**60


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u): the relative error bound of n roundings."""
    return n * u / (1 - n * u)


@dataclass(frozen=True)
class _Float32Net:
    """One output unit of a model, as the float32 screen runs it, and the
    bounds dy32(M) = ``alpha32`` * M + ``beta32`` on |v32 - v*| and
    ds64(M) = ``alpha64`` * M + ``beta64`` on |s64 - s*| of a pixel whose
    window inputs have magnitudes at most M.

    The screen sums each hidden unit's negated pre-activation z' = -(w1_j x
    + b1_j) in float32, from the stored negated ``w1`` and ``b1`` (negation
    is exact), takes h_j = 1 / (1 + exp(z')) in three in-place operations,
    and stops at the output pre-activation v32 = w2 h + b2. The exact
    score s64 is ``forward_batch``'s, in float64. Both approximate the
    real-valued computation from the float64 parameters and the real
    inputs x*: a float-plane stack's float64 values, or a DN stack's
    exactly upsampled DN / DN_SCALE (the upsampler is linear, with weights
    that sum to 1). There v* is the output pre-activation and s* =
    sigmoid(v*). For unit roundoff u (u32 = 2^-24, u64 = 2^-53) and
    smallest subnormal eta (2^-149, 2^-1074), each path is bounded term by
    term. Here n = n_in, H = n_hid, w1_j is hidden unit j's weight row and
    w2, b2 the output unit's parameters.

    - Dot products (Higham, Accuracy and Stability of Numerical Algorithms,
      2nd ed., section 3.1): a sum of products in any order, with or without
      FMA, is off by at most gamma_N * sum |terms|, where N counts the
      roundings on a term's path, gamma_N = N u / (1 - N u). This covers any
      BLAS. Float32 hidden sums: N = n + 8 (two roundings of input and
      weight, the n-term sum, the upsampler, the 20 m + 10 m addition and
      the bias). On a float-plane stack the input and the weight are each
      rounded to float32; on a DN stack the DN casts exactly and the
      weight is rounded twice, fl32(fl64(w / DN_SCALE)), off by at most
      u32 + 2 u64 relative, which gamma_N's slack over (1 + u32)^N - 1
      covers. Float64 hidden sums, ``forward_batch`` of ``BandStack.rows``:
      N = n + 6 (fl64(DN / DN_SCALE) of a DN stack's input, the
      upsampler, one product and n - 1 additions, the bias). Output sums:
      N = H + 3 for both.
    - The upsampler: one product and one addition per axis, columns then
      rows, so 4 of those N roundings. In float32 they fall on each hidden
      unit's 20 m sum, in float64 on each 20 m input. Its weights are
      non-negative and sum to 1, so a 20 m term's magnitude stays at most
      |w1_jk| M, and |hidden sum j| <= M |w1_j|_1 + |b1_j|.
    - Underflow: each rounding may instead add an absolute eta, scaled by at
      most a weight or M: 2 N eta (1 + |w1_j|_1 + |b1_j|) (1 + M) per hidden
      sum, 2 (H + 3) eta (1 + |w2|_1 + |b2|) per output sum. In float32,
      eta is taken as DN_SCALE * 2^-149, since a DN stack's rounded
      weight w / DN_SCALE meets DN of up to DN_SCALE * M.
    - Sigmoid slope <= 1/4: an error d in a unit's sum moves its output by at
      most d / 4; hidden outputs lie in [0, 1], so output sums are off by at
      most sum_j |w2_j| (error of h_j) plus their own rounding.
    - np.exp within 8 ulps (relative 16 u, or 8 eta below the normal range);
      with the addition and the division (the screen's reciprocal, or the
      division of ``_sigmoid``), a sigmoid is off by at most 20 u + 8 eta
      beyond the error of its argument. In float32, exp(z') overflows to inf
      for z' above about 88.7, where the unit then reads 0 and its true
      value is below 2^-126: 2^-126 more per float32 hidden unit.

    Hence, with dz_j the hidden-sum bound above, dh_j = 20 u + 8 eta (+
    2^-126 in float32) + dz_j / 4 and dy = output rounding + sum_j |w2_j|
    dh_j, per precision. dy32 is dy(u32), and ds64 = 20 u64 + 8 eta64 +
    dy(u64) / 4; both are linear in M. ``cuts`` compares v32 with
    logit(thr + ds64) + dy32 and logit(thr - ds64) - dy32: v32 at or above
    the first makes s* >= thr + ds64, so s64 >= thr, and v32 below the
    second makes s64 < thr. All four coefficients are raised by a factor
    1 + 2^-30, which covers their own float64 rounding, that of evaluating
    them at M, and a DN stack's peak, max DN / DN_SCALE rounded to
    float64; ``cuts`` rounds the rest outward.
    """

    w1: np.ndarray  # float64 (n_hid, n_in): the negated hidden weights
    b1: np.ndarray  # float32 (n_hid, 1): the negated hidden biases
    w2: np.ndarray  # float32 (1, n_hid): the output unit's weights
    b2: np.float32
    alpha32: float
    beta32: float
    alpha64: float
    beta64: float

    def dy32(self, peak: float) -> float:
        return self.alpha32 * peak + self.beta32

    def ds64(self, peak: float) -> float:
        return self.alpha64 * peak + self.beta64

    def cuts(self, thr: float, peak: float) -> tuple[np.float32, np.float32]:
        """(hi, lo): a float32 pre-activation v32 of a window with this
        ``peak`` decides its pixel's exact score >= thr when v32 >= hi, and
        < thr when v32 < lo. A float32 thr is compared as its float64 value;
        a NaN thr gives NaN cuts, which decide nothing."""
        thr, dy, ds = float(thr), self.dy32(peak), self.ds64(peak)
        return (_float32_ceil(_logit_bound(thr + ds, dy, up=True)),
                _float32_ceil(_logit_bound(thr - ds, -dy, up=False)))


def _float32_net(m: MlpModel, out_index: int) -> _Float32Net | None:
    """``_Float32Net`` of output ``out_index``, or None when a row sum of
    absolute parameters reaches ``_FLOAT32_PARAMS`` (float32 could then
    overflow); nothing is cast before that check."""
    (w1, w2), (b1, b2) = m.weights, m.biases
    w2, b2 = w2[out_index], b2[out_index]
    n, n_hid = w1.shape[1], len(w1)
    l1, ab1, aw2 = np.abs(w1).sum(axis=1), np.abs(b1), np.abs(w2)
    out_sum = float(aw2.sum()) + abs(float(b2))
    if max(float((l1 + ab1).max()), out_sum) >= _FLOAT32_PARAMS:
        return None
    dy = []  # (dy_M, dy_1, sigmoid error) per precision: dy = dy_M M + dy_1
    for u, eta, hidden_n, overflow in ((_U32, _ETA32 * DN_SCALE, n + 8, 2.0**-126),
                                       (_U64, _ETA64, n + 6, 0.0)):
        sig = (4 + 2 * _EXP_ULPS) * u + _EXP_ULPS * eta
        under = 2 * hidden_n * eta * (1 + l1 + ab1)
        dz_m = _gamma(hidden_n, u) * l1 + under  # hidden-sum bound: dz_m M + dz_1
        dz_1 = _gamma(hidden_n, u) * ab1 + under
        dy.append((float(aw2 @ dz_m) / 4,
                   (_gamma(n_hid + 3, u) + 2 * (n_hid + 3) * eta) * (1 + out_sum)
                   + float(aw2 @ (sig + overflow + dz_1 / 4)),
                   sig))
    (dy32_m, dy32_1, _), (dy64_m, dy64_1, sig64) = dy
    safety = 1 + 2.0**-30
    return _Float32Net(
        w1=-w1,
        b1=(-b1).astype(np.float32)[:, None],
        w2=w2.astype(np.float32)[None, :],
        b2=np.float32(b2),
        alpha32=dy32_m * safety,
        beta32=dy32_1 * safety,
        alpha64=dy64_m / 4 * safety,
        beta64=(sig64 + dy64_1 / 4) * safety,
    )


def _float32_scores(net: _Float32Net, s: BandStack, where=None) -> Iterator:
    """Yield ``(r0, r1, v, peak)`` for the windows of
    ``BandStack.float32_sums``: ``v`` is a float32 (n,) array of the net's
    output pre-activation for the window's pixels, or None where the
    window was not cast; ``peak`` is M of its bounds."""
    for r0, r1, z, peak in s.float32_sums(net.w1, where):
        if z is None:
            yield r0, r1, None, peak
            continue
        z = z.reshape(len(z), -1)
        z += net.b1  # z' = -(w1 x + b1)
        with np.errstate(over="ignore"):  # exp(z') = inf: the unit reads 0
            np.exp(z, out=z)
        z += 1.0
        h = np.reciprocal(z, out=z)
        v = net.w2 @ h
        v += net.b2
        yield r0, r1, v[0], peak


def _targets(labels: np.ndarray, n_out: int) -> np.ndarray:
    """Label vector to target matrix: 0/1 column for binary, one-hot else."""
    labels = np.asarray(labels)
    if n_out == 1:
        return labels.astype(np.float64)[:, None]
    t = np.zeros((len(labels), n_out))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def loss_and_gradient(
    m: MlpModel, x: np.ndarray, targets: np.ndarray
) -> tuple[float, tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """Mean squared error and its exact analytic gradient.

    The loss is the mean of (y - t)^2 over samples and output units.
    Returns (mse, ((dW1, db1), (dW2, db2))).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, n_in) array")
    if targets.shape != (x.shape[0], m.n_out):
        raise ValueError(
            f"targets shape {targets.shape} does not match "
            f"({x.shape[0]}, {m.n_out})"
        )
    if (targets < 0).any() or (targets > 1).any():
        raise ValueError("targets must lie in [0, 1]")
    return _Batch(x, targets, m.layer_sizes[1]).loss_grads(m.weights, m.biases)


class _Batch:
    """A fixed batch with the work arrays of its forward and backward passes,
    kept across epochs: every array that grows with the batch is allocated
    once, and each pass computes into them in the order of
    ``loss_and_gradient``'s formulas."""

    def __init__(self, x: np.ndarray, targets: np.ndarray, n_hid: int):
        n, k = targets.shape
        self.x, self.targets = x, targets
        self.h, self.dh = np.empty((n, n_hid)), np.empty((n, n_hid))
        self.y, self.diff, self.dz2 = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
        self.tmp = np.empty(n * max(n_hid, k))
        self.pos = np.empty(n * max(n_hid, k), dtype=bool)

    def forward(self, weights, biases) -> tuple[np.ndarray, np.ndarray]:
        """(h, y): sigmoid(x W1^T + b1) and sigmoid(h W2^T + b2)."""
        h = np.matmul(self.x, weights[0].T, out=self.h)
        h += biases[0]
        _sigmoid(h, self.tmp, self.pos)
        y = np.matmul(h, weights[1].T, out=self.y)
        y += biases[1]
        return h, _sigmoid(y, self.tmp, self.pos)

    def mse(self, weights, biases) -> float:
        _, y = self.forward(weights, biases)
        d = np.subtract(y, self.targets, out=self.diff)
        return float(np.mean(np.square(d, out=d)))

    def loss_grads(self, weights, biases):
        h, y = self.forward(weights, biases)
        n, k = y.shape
        diff = np.subtract(y, self.targets, out=self.diff)
        mse = float(np.mean(np.multiply(diff, diff, out=self.dz2)))

        # d mse / d y = 2 diff / (n k); chain through the sigmoids.
        dz2 = np.multiply(2.0 / (n * k), diff, out=self.dz2)
        dz2 *= y
        dz2 *= np.subtract(1.0, y, out=self.diff)
        dw2 = dz2.T @ h
        db2 = dz2.sum(axis=0)
        dz1 = np.matmul(dz2, weights[1], out=self.dh)
        dz1 *= h
        one_minus_h = self.tmp[: h.size].reshape(h.shape)
        dz1 *= np.subtract(1.0, h, out=one_minus_h)
        dw1 = dz1.T @ self.x
        db1 = dz1.sum(axis=0)
        return mse, ((dw1, db1), (dw2, db2))


def _split_indices(n: int, split: tuple[float, float, float], seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(n * split[1])
    n_test = int(n * split[2])
    n_train = n - n_val - n_test
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def train(
    m: MlpModel, x: np.ndarray, labels: np.ndarray, cfg: TrainConfig
) -> tuple[MlpModel, list[float]]:
    """Train a copy of ``m`` by full-batch gradient descent with momentum.

    Data is shuffled with cfg.seed, then split train/val/test; the test
    split is never touched here and is recoverable via ``split_data``.
    Stops when validation loss reaches cfg.target_loss or after
    cfg.max_epochs, and returns the parameters from the epoch with the
    best validation loss together with the per-epoch training losses.

    Raises TrainingError if a label is not one of the net's classes (0..n_out-1,
    or 0 and 1 for one output), if fewer than two classes are present, or if
    the loss stops being finite (the error carries the epoch index).
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != m.n_in:
        raise ValueError(f"expected (n, {m.n_in}) features, got shape {x.shape}")
    if len(labels) != len(x):
        raise ValueError("features and labels disagree in length")
    k = max(2, m.n_out)
    outside = labels[~np.isin(labels, np.arange(k))]
    if len(outside):
        raise TrainingError(f"label {outside[0]} is not one of the net's {k} classes 0..{k - 1}")
    if len(np.unique(labels)) < 2:
        raise TrainingError("training data must contain at least two classes")

    idx_train, idx_val, _ = _split_indices(len(x), cfg.split, cfg.seed)
    n_hid = m.layer_sizes[1]
    batch = _Batch(x[idx_train], _targets(labels[idx_train], m.n_out), n_hid)
    monitored = batch
    if len(idx_val):
        monitored = _Batch(x[idx_val], _targets(labels[idx_val], m.n_out), n_hid)

    weights = [w.copy() for w in m.weights]
    biases = [b.copy() for b in m.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    def snapshot() -> MlpModel:
        return MlpModel(
            m.layer_sizes,
            (weights[0].copy(), weights[1].copy()),
            (biases[0].copy(), biases[1].copy()),
        )

    def monitored_loss() -> float:
        return monitored.mse(weights, biases)

    def diverged(epoch: int):
        raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)

    history: list[float] = []
    best = snapshot()
    best_val = monitored_loss()
    for epoch in range(cfg.max_epochs):
        loss, grads = batch.loss_grads(weights, biases)
        if not np.isfinite(loss):
            diverged(epoch)
        history.append(loss)
        for layer in range(2):
            dw, db = grads[layer]
            vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * dw
            vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * db
            weights[layer] += vel_w[layer]
            biases[layer] += vel_b[layer]
        if not all(np.isfinite(a).all() for a in weights + biases):
            diverged(epoch)
        val = monitored_loss()
        if not np.isfinite(val):
            diverged(epoch)
        if val < best_val:
            best_val = val
            best = snapshot()
        if val <= cfg.target_loss:
            break
    return best, history


def split_data(
    x: np.ndarray, labels: np.ndarray, cfg: TrainConfig
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The (train, val, test) partition that ``train`` uses for this config."""
    x = np.asarray(x)
    labels = np.asarray(labels)
    parts = _split_indices(len(x), cfg.split, cfg.seed)
    return tuple((x[idx], labels[idx]) for idx in parts)


def evaluate_confusion(
    m: MlpModel,
    x: np.ndarray,
    labels: np.ndarray,
    thr: float = 0.5,
    class_names: tuple[str, ...] = (),
) -> ConfusionMatrix:
    """Confusion matrix: threshold at ``thr`` for binary nets, argmax else."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if len(x) == 0:
        raise ValueError("evaluation set must be non-empty")
    y = forward_batch(m, x)
    if m.n_out == 1:
        pred = (y[:, 0] >= thr).astype(int)
        k = 2
    else:
        pred = np.argmax(y, axis=1)
        k = m.n_out
    outside = labels[~np.isin(labels, np.arange(k))]
    if len(outside):
        raise ValueError(f"label {outside[0]} is not one of the {k} classes 0..{k - 1}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels.astype(int), pred), 1)
    return ConfusionMatrix(counts=counts, class_names=tuple(class_names))


def save_model(m: MlpModel, path) -> None:
    """Write the line-oriented MLPv1 text format.

    Parameters are written with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    lines = ["MLPv1"]
    lines.append("layers " + " ".join(str(s) for s in m.layer_sizes))
    lines.append("features " + " ".join(b.value for b in FEATURE_ORDER))
    lines.append("activation sigmoid")
    for w, b in zip(m.weights, m.biases):
        lines.append("w " + " ".join(format(v, ".17g") for v in w.ravel()))
        lines.append("b " + " ".join(format(v, ".17g") for v in b))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    """Read a model written by ``save_model``; the round trip is exact. Its
    ``features`` line must list the bands of ``FEATURE_ORDER``, as
    ``save_model`` writes it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "MLPv1":
        raise ModelFormatError(f"{path}: not an MLPv1 model file")

    def field_line(i: int, tag: str) -> list[str]:
        if i >= len(lines):
            raise ModelFormatError(f"{path}: truncated (expected '{tag}' line)")
        parts = lines[i].split()
        if not parts or parts[0] != tag:
            raise ModelFormatError(f"{path}: expected '{tag}' line, got {lines[i]!r}")
        return parts[1:]

    try:
        sizes = tuple(int(v) for v in field_line(1, "layers"))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad layer sizes") from exc
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise ModelFormatError(f"{path}: layer sizes must be three positive ints")

    bands = [b.value for b in FEATURE_ORDER]
    if field_line(2, "features") != bands:
        raise ModelFormatError(
            f"{path}: expected the line 'features {' '.join(bands)}', got {lines[2]!r}"
        )

    activation = field_line(3, "activation")
    if activation != ["sigmoid"]:
        raise ModelFormatError(f"{path}: unknown activation tag {activation}")

    shapes = [(sizes[1], sizes[0]), (sizes[2], sizes[1])]
    weights = []
    biases = []
    line_no = 4
    for shape in shapes:
        try:
            wvals = [float(v) for v in field_line(line_no, "w")]
            bvals = [float(v) for v in field_line(line_no + 1, "b")]
        except ValueError as exc:
            raise ModelFormatError(f"{path}: bad parameter value") from exc
        if len(wvals) != shape[0] * shape[1] or len(bvals) != shape[0]:
            raise ModelFormatError(
                f"{path}: parameter count mismatch for layer of shape {shape}"
            )
        weights.append(np.array(wvals).reshape(shape))
        biases.append(np.array(bvals))
        line_no += 2
    if line_no != len(lines):
        raise ModelFormatError(f"{path}: trailing content after parameters")
    return MlpModel(sizes, tuple(weights), tuple(biases))
