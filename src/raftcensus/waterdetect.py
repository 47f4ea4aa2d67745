"""Water masking: NDWI + Otsu thresholding, or an MLP pixel classifier.

Both routes produce a boolean water mask that is then cleaned with a
fixed morphology chain (closing, opening, coastline erosion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandstack import BandId, BandStack
from .errors import DegenerateHistogramError, DimensionError
from .mlp import WATER_CLASS_INDEX, MlpModel, threshold_planes
from .morphology import StructElem, closing, erode, opening, square

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


def water_mask_ndwi(s: BandStack) -> np.ndarray:
    """Otsu-thresholded NDWI water mask; true where the NDWI bin exceeds t.

    The NDWI is binned one ``BandStack.windows`` row window at a time,
    straight into uint8 rows; the histogram sums the windows' counts.
    """
    bins = np.empty((s.height, s.width), dtype=np.uint8)
    hist = np.zeros(NDWI_BINS, dtype=np.int64)
    for r0, r1, block in s.windows((BandId.B3, BandId.B8)):
        b = quantize_ndwi(compute_ndwi(block[BandId.B3], block[BandId.B8]), out=bins[r0:r1])
        hist += np.bincount(b.reshape(-1), minlength=NDWI_BINS)
    t = otsu_threshold(hist)
    return bins > t


def water_mask_mlp(
    s: BandStack,
    m: MlpModel,
    water_class_index: int = WATER_CLASS_INDEX,
    thr: float = DEFAULT_WATER_THRESHOLD,
) -> np.ndarray:
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
    mask: np.ndarray,
    se: StructElem = WATER_SE,
    se_erode: StructElem = COAST_ERODE_SE,
) -> np.ndarray:
    """Closing, opening, then erosion, in that order.

    The closing fills small dark holes (rafts, boats), the opening
    drops isolated speckle, and the final erosion pulls the mask away
    from the coastline. Defaults: 3x3 square for close/open, 5x5 square
    for the erosion.
    """
    return erode(opening(closing(mask, se), se), se_erode)
