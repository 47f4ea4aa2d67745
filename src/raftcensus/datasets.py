"""Labeled pixel datasets and synthetic labeled scenes.

The synthetic world has three surface classes (land, raft, water) with
per-class mean reflectances loaded from a JSON config; every pixel is
its class mean plus seeded Gaussian noise. Scenes are a land frame
around a water body with small square rafts placed well inside the
water, so the whole detection pipeline can be exercised against exact
ground truth.

Platform training data mirrors the sample-mining procedure: raft
candidates are the dark holes a closing fills in the water mask
(bottom-hat), optionally vetted by a correction mask, balanced with an
equal number of randomly drawn water pixels.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .bandstack import FEATURE_ORDER, BandStack, PIXEL_SIZE_M, GeoRef
from .errors import DatasetError, DimensionError
from .morphology import bottom_hat, square

__all__ = [
    "LabeledPixels",
    "SynthParams",
    "SceneTruth",
    "load_spectra",
    "generate_synthetic_scene",
    "extract_platform_samples",
    "synthetic_pixel_dataset",
    "default_platform_training_set",
    "default_water_training_set",
    "save_labeled_csv",
    "load_labeled_csv",
    "WATER_CLASS_NAMES",
    "PLATFORM_CLASS_NAMES",
    "DEFAULT_NOISE_SIGMA",
    "DEFAULT_TRAINING_TOTAL",
]

# Classes for the two classifiers. The water network's water class is
# deliberately last (1-based index 3).
WATER_CLASS_NAMES = ("land", "raft", "water")
PLATFORM_CLASS_NAMES = ("water", "raft")

DEFAULT_NOISE_SIGMA = 0.005
# Default platform training-set size: half platform pixels, half water.
DEFAULT_TRAINING_TOTAL = 12976

_RAFT_GAP_PX = 4  # min separation between raft bounding boxes
_RAFT_COAST_MARGIN_PX = 6  # min distance from raft to the water edge


@dataclass(frozen=True)
class LabeledPixels:
    """Feature rows (n, 10) in FEATURE_ORDER with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.features) == 0:
            raise DatasetError("labeled dataset is empty")
        if self.features.ndim != 2 or self.features.shape[1] != len(FEATURE_ORDER):
            raise DimensionError(
                f"features must be (n, {len(FEATURE_ORDER)}), got {self.features.shape}"
            )
        if len(self.labels) != len(self.features):
            raise DimensionError("features and labels disagree in length")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DatasetError("label outside class_names range")


@dataclass(frozen=True)
class SynthParams:
    """Synthetic scene layout and noise settings."""

    width: int = 512
    height: int = 512
    raft_count: int = 10
    raft_size_px: int = 2
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    seed: int = 0
    spectra: dict[str, np.ndarray] | None = None
    geo: GeoRef | None = None

    def __post_init__(self):
        if self.raft_size_px not in (2, 3):
            raise ValueError(f"raft_size_px must be 2 or 3, got {self.raft_size_px}")
        if self.raft_count < 0:
            raise ValueError("raft_count must be >= 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.width < 24 or self.height < 24:
            raise ValueError("scene must be at least 24x24 pixels")


@dataclass(frozen=True)
class SceneTruth:
    """Exact per-pixel ground truth for a generated scene."""

    water_mask: np.ndarray  # water-class pixels (rafts excluded)
    raft_mask: np.ndarray
    raft_centroids: tuple[tuple[float, float], ...]  # (row, col) per raft
    class_map: np.ndarray  # 0 land, 1 raft, 2 water (WATER_CLASS_NAMES order)


def load_spectra(path=None) -> dict[str, np.ndarray]:
    """Per-class 10-band mean reflectances from JSON (default: packaged).

    The JSON maps class name to a list of ten reflectances in
    FEATURE_ORDER; keys starting with an underscore are ignored.
    """
    if path is None:
        text = resources.files("raftcensus.data").joinpath("default_spectra.json").read_text()
    else:
        text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"spectra file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"spectra file {path} must hold a JSON object")
    spectra = {}
    for name, values in raw.items():
        if name.startswith("_"):
            continue
        if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
            raise DatasetError(
                f"spectra file {path}: class {name!r} must be a flat list of numbers"
            )
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (len(FEATURE_ORDER),):
            raise DatasetError(
                f"spectra class {name!r} must list {len(FEATURE_ORDER)} values"
            )
        if (arr < 0).any() or not np.isfinite(arr).all():
            raise DatasetError(f"spectra class {name!r} has invalid reflectances")
        spectra[name] = arr
    for required in WATER_CLASS_NAMES:
        if required not in spectra:
            raise DatasetError(f"spectra config lacks class {required!r}")
    return spectra


def _border_width(width: int, height: int) -> int:
    return max(4, min(width, height) // 16)


def _place_rafts(params: SynthParams, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Top-left corners for raft squares, fully inside water, well apart.

    A candidate is kept unless a placed corner lies within ``reach`` rows
    and ``reach`` columns of it. Placed corners are filed in square cells
    ``reach`` wide, so a clashing corner is in the candidate's cell or one
    of the 8 around it, and only those are tested.
    """
    border = _border_width(params.width, params.height)
    size = params.raft_size_px
    reach = size + _RAFT_GAP_PX
    lo_r = border + _RAFT_COAST_MARGIN_PX
    lo_c = border + _RAFT_COAST_MARGIN_PX
    hi_r = params.height - border - _RAFT_COAST_MARGIN_PX - size
    hi_c = params.width - border - _RAFT_COAST_MARGIN_PX - size
    if params.raft_count and (hi_r < lo_r or hi_c < lo_c):
        raise DatasetError("rafts do not fit: water region too small")
    corners: list[tuple[int, int]] = []
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    attempts = 0
    while len(corners) < params.raft_count:
        attempts += 1
        if attempts > 1000 * max(params.raft_count, 1):
            raise DatasetError(
                f"rafts do not fit: placed {len(corners)} of {params.raft_count}"
            )
        r = int(rng.integers(lo_r, hi_r + 1))
        c = int(rng.integers(lo_c, hi_c + 1))
        gr, gc = r // reach, c // reach
        if all(
            abs(r - rr) >= reach or abs(c - cc) >= reach
            for cell_r in (gr - 1, gr, gr + 1)
            for cell_c in (gc - 1, gc, gc + 1)
            for rr, cc in cells.get((cell_r, cell_c), ())
        ):
            corners.append((r, c))
            cells.setdefault((gr, gc), []).append((r, c))
    return corners


def generate_synthetic_scene(params: SynthParams) -> tuple[BandStack, SceneTruth]:
    """Deterministic labeled scene: land frame, water body, raft squares.

    Reflectance is class mean plus Gaussian noise (clipped at zero);
    with noise_sigma 0 every pixel equals its class mean exactly.
    """
    spectra = params.spectra if params.spectra is not None else load_spectra()
    rng = np.random.default_rng(params.seed)
    h, w = params.height, params.width
    border = _border_width(w, h)

    class_map = np.zeros((h, w), dtype=np.int8)  # land
    class_map[border : h - border, border : w - border] = 2  # water

    corners = _place_rafts(params, rng)
    centroids = []
    size = params.raft_size_px
    for r, c in corners:
        class_map[r : r + size, c : c + size] = 1
        centroids.append((r + (size - 1) / 2.0, c + (size - 1) / 2.0))

    means = np.stack([spectra[name] for name in WATER_CLASS_NAMES])  # (3, 10)
    planes = {}
    for i, band in enumerate(FEATURE_ORDER):
        plane = means[class_map, i]
        if params.noise_sigma > 0:
            plane = plane + rng.normal(0.0, params.noise_sigma, size=(h, w))
            plane = np.maximum(plane, 0.0)
        planes[band] = plane
    stack = BandStack(
        width=w, height=h, pixel_size=PIXEL_SIZE_M, planes=planes, geo=params.geo
    )
    truth = SceneTruth(
        water_mask=class_map == 2,
        raft_mask=class_map == 1,
        raft_centroids=tuple(centroids),
        class_map=class_map,
    )
    return stack, truth


def extract_platform_samples(
    s: BandStack,
    water: np.ndarray,
    correction: np.ndarray | None = None,
    seed: int = 0,
) -> LabeledPixels:
    """Mine a balanced platform/water pixel set from a water mask.

    Platform candidates are the bottom-hat of the water mask (the holes
    a 3x3 closing fills), intersected with ``correction`` when given.
    An equal number of water pixels is then drawn uniformly at random
    (seeded) from water-true pixels outside the candidate set. Labels
    follow PLATFORM_CLASS_NAMES: water 0, platform 1.
    """
    water = np.asarray(water).astype(bool, copy=False)
    if water.shape != (s.height, s.width):
        raise DimensionError(
            f"water mask shape {water.shape} does not match stack "
            f"{(s.height, s.width)}"
        )
    candidates = bottom_hat(water, square(3))
    if correction is not None:
        correction = np.asarray(correction).astype(bool, copy=False)
        if correction.shape != water.shape:
            raise DimensionError("correction mask shape does not match water mask")
        candidates &= correction
    cand_rows, cand_cols = np.nonzero(candidates)
    n = len(cand_rows)
    if n == 0:
        raise DatasetError("zero candidates: bottom-hat found no platform pixels")

    pool = water & ~candidates
    pool_rows, pool_cols = np.nonzero(pool)
    if len(pool_rows) < n:
        raise DatasetError(
            f"fewer water pixels ({len(pool_rows)}) than candidates ({n})"
        )
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(pool_rows), size=n, replace=False)
    pick.sort()

    rows = np.concatenate([pool_rows[pick], cand_rows])
    cols = np.concatenate([pool_cols[pick], cand_cols])
    features = s.features(rows, cols)  # one pass over the windows holding samples
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return LabeledPixels(features, labels, PLATFORM_CLASS_NAMES)


def synthetic_pixel_dataset(
    class_names: tuple[str, ...],
    n_per_class: int,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    seed: int = 0,
    spectra: dict[str, np.ndarray] | None = None,
) -> LabeledPixels:
    """Directly sampled pixel features: class mean + Gaussian noise."""
    if n_per_class < 1:
        raise DatasetError("n_per_class must be >= 1")
    if spectra is None:
        spectra = load_spectra()
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for idx, name in enumerate(class_names):
        mean = spectra[name]
        feats = mean + rng.normal(0.0, noise_sigma, size=(n_per_class, len(mean)))
        blocks.append(np.maximum(feats, 0.0))
        labels.append(np.full(n_per_class, idx, dtype=np.int64))
    return LabeledPixels(np.concatenate(blocks), np.concatenate(labels), tuple(class_names))


def default_platform_training_set(
    seed: int = 0,
    total: int = DEFAULT_TRAINING_TOTAL,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    spectra: dict[str, np.ndarray] | None = None,
) -> LabeledPixels:
    """Balanced water/raft set, ``total`` samples (half per class).

    Raft samples get a per-sample dilution of the 20 m bands toward the
    water spectrum: a 2-3 px raft only partially covers native 20 m
    cells, so after upsampling those bands carry anywhere from none to
    all of the raft signal. The 10 m bands stay pure, which keeps the
    classes fully separable.
    """
    if spectra is None:
        spectra = load_spectra()
    n = total // 2
    if n < 1:
        raise DatasetError("total must be >= 2")
    rng = np.random.default_rng(seed)
    water = spectra["water"]
    raft = spectra["raft"]
    coarse = np.array([b.native_resolution_m == 20 for b in FEATURE_ORDER])

    water_feats = water + rng.normal(0.0, noise_sigma, size=(n, len(water)))
    alpha = rng.uniform(0.0, 1.0, size=(n, 1))
    raft_means = np.where(coarse, water + alpha * (raft - water), raft)
    raft_feats = raft_means + rng.normal(0.0, noise_sigma, size=(n, len(raft)))

    features = np.maximum(np.concatenate([water_feats, raft_feats]), 0.0)
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return LabeledPixels(features, labels, PLATFORM_CLASS_NAMES)


def default_water_training_set(
    seed: int = 0,
    n_per_class: int = 4000,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    spectra: dict[str, np.ndarray] | None = None,
) -> LabeledPixels:
    """Three-class land/raft/water set for the water network."""
    return synthetic_pixel_dataset(
        WATER_CLASS_NAMES, n_per_class, noise_sigma, seed, spectra
    )


_CSV_HEADER = [b.value.lower() for b in FEATURE_ORDER] + ["label"]


def save_labeled_csv(data: LabeledPixels, path) -> None:
    """CSV with columns b2..b12,label; floats use shortest exact repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerow(["# classes: " + " ".join(data.class_names)])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_labeled_csv(path) -> LabeledPixels:
    """Read a dataset written by save_labeled_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise DatasetError(f"{path}: unexpected CSV header")
        class_names: tuple[str, ...] = ()
        rows = []
        labels = []
        for rec in reader:
            if rec and rec[0].startswith("# classes:"):
                class_names = tuple(rec[0].split(":", 1)[1].split())
                continue
            if len(rec) != len(_CSV_HEADER):
                raise DatasetError(f"{path}: bad row width {len(rec)}")
            rows.append([float(v) for v in rec[:-1]])
            labels.append(int(rec[-1]))
    if not class_names:
        raise DatasetError(f"{path}: missing class-names comment row")
    return LabeledPixels(
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        class_names,
    )
