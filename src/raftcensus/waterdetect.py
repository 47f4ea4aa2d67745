"""Water masking: NDWI + Otsu thresholding, or an MLP pixel classifier.

Both routes produce a water mask, a bit-packed ``BitMask``, that is then
cleaned with a fixed morphology chain (closing, opening, coastline
erosion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandstack import DN_SCALE, BandId, BandStack
from .errors import DegenerateHistogramError, DimensionError
from .mlp import WATER_CLASS_INDEX, MlpModel, threshold_planes
from .morphology import BitMask, StructElem, closing, erode, opening, square

__all__ = [
    "NdwiOtsu",
    "MlpWater",
    "WaterMethod",
    "compute_ndwi",
    "otsu_threshold",
    "quantize_ndwi",
    "water_mask_ndwi",
    "water_mask_mlp",
    "clean_water_mask",
]

NDWI_BINS = 256
DEFAULT_WATER_THRESHOLD = 0.90
# Default structuring elements of the water-mask cleanup: closing and
# opening, then the coastline erosion.
WATER_SE = square(3)
COAST_ERODE_SE = square(5)


@dataclass(frozen=True)
class NdwiOtsu:
    """Water = NDWI above a global Otsu threshold."""


@dataclass(frozen=True)
class MlpWater:
    """Water = MLP water-class output at or above ``threshold``.

    ``water_class_index`` is 1-based (the water output is "output 3" of
    the default three-class network).
    """

    model: MlpModel
    water_class_index: int = WATER_CLASS_INDEX
    threshold: float = DEFAULT_WATER_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 1 <= self.water_class_index <= self.model.n_out:
            raise ValueError(
                f"water_class_index {self.water_class_index} out of range "
                f"for a {self.model.n_out}-output model"
            )


WaterMethod = NdwiOtsu | MlpWater


def compute_ndwi(green: np.ndarray, nir: np.ndarray) -> np.ndarray:
    """(G - NIR) / (G + NIR), with 0/0 pixels defined as 0.

    Inputs are the green (B3) and NIR (B8) reflectance planes; outputs
    lie in [-1, 1] for non-negative inputs.
    """
    green = np.asarray(green, dtype=np.float64)
    nir = np.asarray(nir, dtype=np.float64)
    if green.shape != nir.shape:
        raise DimensionError(
            f"green {green.shape} and NIR {nir.shape} planes differ in shape"
        )
    total = green + nir
    out = np.zeros_like(total)
    np.divide(green - nir, total, out=out, where=total != 0)
    return out


def otsu_threshold(hist) -> int:
    """Threshold bin maximizing between-class variance over {<=t | >t}.

    Expects 256 non-negative integer counts and returns t in [0, 254];
    ties are broken toward the smallest t. All arithmetic is exact
    (Python integers), so the maximizer is deterministic even for tied
    or nearly tied splits.
    """
    h = np.asarray(hist)
    if h.shape != (NDWI_BINS,):
        raise ValueError(f"histogram must have {NDWI_BINS} bins, got shape {h.shape}")
    if not np.issubdtype(h.dtype, np.integer):
        raise ValueError("histogram counts must be integers")
    if (h < 0).any():
        raise ValueError("histogram counts must be non-negative")
    counts = [int(c) for c in h]
    total = sum(counts)
    if total == 0:
        raise DegenerateHistogramError("empty histogram")
    if sum(1 for c in counts if c > 0) < 2:
        raise DegenerateHistogramError("degenerate histogram: single occupied bin")

    total_sum = sum(i * c for i, c in enumerate(counts))
    # Between-class variance at split t is (s0*n1 - s1*n0)^2 / (n0*n1),
    # up to the constant 1/total^2; compare as exact fractions.
    best_t = -1
    best_num = -1
    best_den = 1
    n0 = 0
    s0 = 0
    for t in range(NDWI_BINS - 1):
        n0 += counts[t]
        s0 += t * counts[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s1 = total_sum - s0
        num = (s0 * n1 - s1 * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_num = num
            best_den = den
            best_t = t
    return best_t


def quantize_ndwi(ndwi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map NDWI values in [-1, 1] linearly onto integer bins 0..255:
    floor((ndwi + 1) * 128), clipped, with NaN in bin 0. The bins are a new
    int64 array, or are written into the integer array ``out``."""
    x = np.asarray(ndwi) + 1.0
    x *= NDWI_BINS / 2.0
    np.floor(x, out=x)
    np.fmax(x, 0, out=x)  # fmax and fmin take the number over a NaN
    np.fmin(x, NDWI_BINS - 1, out=x)
    if out is None:
        return x.astype(np.int64)
    np.copyto(out, x, casting="unsafe")
    return out


def water_mask_ndwi(s: BandStack) -> BitMask:
    """Otsu-thresholded NDWI water mask; true where the NDWI bin exceeds t.

    The NDWI is binned one ``BandStack.windows`` row window at a time,
    straight into the rows of a whole-scene uint8 array, which Otsu's
    threshold t needs; the histogram sums the windows' counts. Then each
    window's bins > t are packed into the words of the BitMask returned,
    so no whole-scene bool mask is built. A stack built from float64 planes
    has its windows binned from their reflectances, by
    ``quantize_ndwi(compute_ndwi(green, nir))``.

    A stack of digital numbers (loaded, or generated in memory by
    ``BandStack.from_reflectance``) has green and NIR reflectances G
    and N divided by 10000, and each of its bins equals that float64
    route's, quantize_ndwi(compute_ndwi(G / 10000, N / 10000)), but is
    computed from G and N (``BandStack.dn_rows``): x = 128 (G - N) / (G +
    N) is divided in float32, where G - N and G + N are exact (both below
    2**24), so the quotient is x correctly rounded, within 2**-18 of it as
    |x| <= 128, and the bin is floor(x) + 128. When x is not an integer it
    lies at least 1 / (G + N) >= 1 / 131070 from one, so the float32
    quotient floors to floor(x), and so does the float64 route, whose
    value is within about 1e-13 of x + 128. When x is an integer (an exact
    ratio such as G = N, G = 3 N, G = 0 or N = 0) the float32 quotient is
    that integer, and when G + N = 0 it is NaN: those pixels, and only
    those, are gathered and binned by the float64 route itself.
    """
    bins = np.empty((s.height, s.width), dtype=np.uint8)
    hist = np.zeros(NDWI_BINS, dtype=np.int64)
    green_nir = (BandId.B3, BandId.B8)
    for r0, r1, _ in s.windows(()):
        out = bins[r0:r1]
        dn = s.dn_rows(r0, r1, green_nir)
        if dn is None:
            block = s.rows(r0, r1, green_nir)
            quantize_ndwi(compute_ndwi(block[BandId.B3], block[BandId.B8]), out=out)
        else:
            _dn_bins(dn[BandId.B3], dn[BandId.B8], out)
        hist += np.bincount(out.reshape(-1), minlength=NDWI_BINS)
    t = otsu_threshold(hist)
    words = np.empty((s.height, -(-s.width // 64)), dtype="<u8")
    for r0, r1, _ in s.windows(()):
        words[r0:r1] = BitMask.pack(bins[r0:r1] > t).words
    return BitMask(words, s.width)


def _dn_bins(green: np.ndarray, nir: np.ndarray, out: np.ndarray) -> None:
    """Write the NDWI bins of the uint16 digital numbers ``green`` and
    ``nir`` into the uint8 array ``out`` of their shape, C-contiguous (see
    ``water_mask_ndwi``)."""
    g = green.astype(np.float32)
    n = nir.astype(np.float32)
    den = g + n
    den *= 1 / (NDWI_BINS // 2)  # (G + N) / 128, exact: a power of two
    x = np.subtract(g, n, out=g)
    with np.errstate(invalid="ignore"):  # 0 / 0, and the cast of its NaN
        x /= den  # 128 (G - N) / (G + N), rounded once
        f = np.floor(x, out=n)
        np.add(f, NDWI_BINS // 2, out=out, casting="unsafe")
        exact = np.flatnonzero(~(f < x))  # integer or NaN quotients
    if len(exact):
        g64 = green.reshape(-1)[exact] / DN_SCALE
        n64 = nir.reshape(-1)[exact] / DN_SCALE
        out.reshape(-1)[exact] = quantize_ndwi(compute_ndwi(g64, n64))


def water_mask_mlp(
    s: BandStack,
    m: MlpModel,
    water_class_index: int = WATER_CLASS_INDEX,
    thr: float = DEFAULT_WATER_THRESHOLD,
) -> BitMask:
    """Per-pixel water mask from an MLP: water output >= thr.

    ``water_class_index`` is 1-based. Pixel features are the ten band
    reflectances in ``FEATURE_ORDER``, the one order every model takes.
    """
    if m.n_in != len(BandId):
        raise ValueError(f"water model must take {len(BandId)} inputs, has {m.n_in}")
    if not 1 <= water_class_index <= m.n_out:
        raise ValueError(
            f"water_class_index {water_class_index} out of range for "
            f"{m.n_out} outputs"
        )
    return threshold_planes(m, s, water_class_index - 1, thr)


def clean_water_mask(
    mask,
    se: StructElem = WATER_SE,
    se_erode: StructElem = COAST_ERODE_SE,
) -> BitMask:
    """Closing, opening, then erosion, in that order, of a BitMask or a
    2-D array; the result is a BitMask.

    The closing fills small dark holes (rafts, boats), the opening
    drops isolated speckle, and the final erosion pulls the mask away
    from the coastline. Defaults: 3x3 square for close/open, 5x5 square
    for the erosion.
    """
    return erode(opening(closing(mask, se), se), se_erode)
