"""Labeled pixel datasets and synthetic labeled scenes.

The synthetic world has three surface classes (land, raft, water) with
per-class mean reflectances loaded from a JSON config; every pixel is
its class mean plus seeded Gaussian noise. Scenes are a land frame
around a water body with small square rafts placed well inside the
water, so the whole detection pipeline can be exercised against exact
ground truth. A scene is kept as that layout (``SceneTruth``), never as
a whole-scene class map: it is drawn one band and one row chunk at a
time, each chunk's classes painted from the layout, and quantized to
digital numbers as it is drawn. So ``write_synthetic_scene`` writes one
to disk holding only chunk buffers and the layout, and
``generate_synthetic_scene`` holds the same digital numbers in memory,
11 B/px, with nothing else that grows with the scene's area.

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
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .bandstack import (
    FEATURE_ORDER,
    BandId,
    BandStack,
    GeoRef,
    check_saveable,
    row_chunks,
    write_bands,
    write_pgm16_rows,
)
from .errors import DatasetError, DimensionError
from .morphology import BitMask, bottom_hat, square

__all__ = [
    "LabeledPixels",
    "SynthParams",
    "SceneTruth",
    "load_spectra",
    "generate_synthetic_scene",
    "write_synthetic_scene",
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
        if not np.isfinite(self.features).all():
            raise DatasetError("labeled features must be finite")
        if len(self.labels) != len(self.features):
            raise DimensionError("features and labels disagree in length")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DatasetError("label outside class_names range")


@dataclass(frozen=True)
class SynthParams:
    """Synthetic scene layout and noise settings.

    Width and height must be even, as ``check_saveable`` requires
    (DimensionError): a scene's 20 m bands are held and written at half
    resolution.
    """

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
        check_saveable(self.width, self.height)
        if self.spectra is not None:
            if not isinstance(self.spectra, dict):
                raise DatasetError("SynthParams.spectra must be a dict of class spectra")
            _check_spectra(self.spectra, "SynthParams.spectra")


@dataclass(frozen=True)
class SceneTruth:
    """Exact ground truth for a generated scene: the raft layout it is
    drawn from.

    The scene is land around a water body (a land frame
    ``max(4, min(width, height) // 16)`` px wide), with ``raft_size_px``
    square rafts inside the water whose top-left corners are
    ``raft_corners``, in placement order. Per-pixel classes (0 land,
    1 raft, 2 water: WATER_CLASS_NAMES order) are built from the layout
    when asked for: ``class_rows`` for a band of rows, and ``class_map``,
    ``water_mask`` and ``raft_mask`` (1 B/px each) for the whole scene.
    A truth holds no whole-scene array.
    """

    raft_centroids: tuple[tuple[float, float], ...]  # (row, col) per raft
    height: int
    width: int
    raft_size_px: int
    raft_corners: tuple[tuple[int, int], ...]  # (row, col) top-left per raft

    @cached_property
    def _raft_pixels(self) -> np.ndarray:
        """Flat indices (row * width + col) of every raft pixel, ascending."""
        size = self.raft_size_px
        corners = np.array(self.raft_corners, dtype=np.int64).reshape(-1, 2)
        dr, dc = np.divmod(np.arange(size * size), size)
        return np.sort((corners[:, :1] + dr) * self.width + corners[:, 1:] + dc, axis=None)

    def _paint(self, out: np.ndarray, r0: int, values) -> None:
        """Fill ``out``, a C-ordered (rows, width) array holding scene rows
        r0 onward, with ``values`` = (land, raft, water) by class: land
        everywhere, then the water frame's rows, then the raft pixels among
        them, found by bisecting ``_raft_pixels``."""
        land, raft, water = values
        h, w = self.height, self.width
        r1 = r0 + len(out)
        border = _border_width(w, h)
        top = min(max(border, r0), r1)
        bottom = max(min(h - border, r1), top)
        out.fill(land)
        out[top - r0 : bottom - r0, border : w - border] = water
        pixels = self._raft_pixels
        lo, hi = np.searchsorted(pixels, (r0 * w, r1 * w))
        out.reshape(-1)[pixels[lo:hi] - r0 * w] = raft

    def class_rows(self, r0: int, r1: int) -> np.ndarray:
        """Classes of scene rows r0..r1-1 as an int8 (r1 - r0, width) array."""
        if not 0 <= r0 <= r1 <= self.height:
            raise ValueError(f"rows {r0}..{r1} outside a scene {self.height} high")
        out = np.empty((r1 - r0, self.width), dtype=np.int8)
        self._paint(out, r0, (0, 1, 2))
        return out

    @property
    def class_map(self) -> np.ndarray:
        return self.class_rows(0, self.height)

    @property
    def water_mask(self) -> np.ndarray:  # water-class pixels (rafts excluded)
        return self.class_map == 2

    @property
    def raft_mask(self) -> np.ndarray:
        return self.class_map == 1


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
    return _check_spectra(raw, f"spectra file {path}")


def _check_spectra(raw: dict, source: str) -> dict[str, np.ndarray]:
    """Validated float64 copies of the classes in ``raw`` (underscore keys
    skipped): each a flat sequence of ten finite, non-negative numbers, and
    every one of WATER_CLASS_NAMES present. ``source`` names the input in
    the DatasetError messages."""
    spectra = {}
    for name, values in raw.items():
        if str(name).startswith("_"):
            continue
        if isinstance(values, np.ndarray):
            flat = values.ndim == 1 and values.dtype.kind in "iuf"
        else:
            flat = isinstance(values, (list, tuple)) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            )
        if not flat:
            raise DatasetError(f"{source}: class {name!r} must be a flat list of numbers")
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (len(FEATURE_ORDER),):
            raise DatasetError(
                f"{source}: class {name!r} must list {len(FEATURE_ORDER)} values"
            )
        if (arr < 0).any() or not np.isfinite(arr).all():
            raise DatasetError(f"{source}: class {name!r} has invalid reflectances")
        spectra[name] = arr
    for required in WATER_CLASS_NAMES:
        if required not in spectra:
            raise DatasetError(f"{source} lacks class {required!r}")
    return spectra


def _border_width(width: int, height: int) -> int:
    return max(4, min(width, height) // 16)


def _place_rafts(params: SynthParams, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Top-left corners for raft squares, fully inside water, well apart.

    A candidate is kept unless a placed corner lies within ``reach`` rows
    and ``reach`` columns of it. Placed corners are filed in square cells
    ``reach`` wide, so a clashing corner is in the candidate's cell or one
    of the 8 around it, and only those are tested. Two corners in one
    ``reach`` x ``reach`` block of the corner range would clash, so a count
    above the number of such blocks is rejected before any draw.
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
    most = -(-(hi_r - lo_r + 1) // reach) * -(-(hi_c - lo_c + 1) // reach)
    if params.raft_count > most:
        raise DatasetError(f"rafts do not fit: at most {most} rafts of {size}x{size} px "
                           f"fit this scene, asked for {params.raft_count}")
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


class _SceneDrawer:
    """A scene's layout, and its bands drawn one row chunk at a time from
    the scene's generator.

    A chunk gets its class means painted from the layout (``SceneTruth``),
    then noise sigma * z with z from ``standard_normal`` in C order, then a
    clip at zero. ``Generator.normal(0, sigma)`` computes 0.0 + sigma * z
    from the same stream, and adding 0.0 + sigma * z to a mean gives what
    adding sigma * z does. So drawing the bands in FEATURE_ORDER, each top
    to bottom, gives the values of one whole-plane ``normal`` draw per
    band, bitwise, whatever the chunk heights.
    """

    def __init__(self, params: SynthParams):
        spectra = params.spectra if params.spectra is not None else load_spectra()
        self.rng = np.random.default_rng(params.seed)
        size = params.raft_size_px
        corners = tuple(_place_rafts(params, self.rng))
        self.truth = SceneTruth(
            raft_centroids=tuple((r + (size - 1) / 2.0, c + (size - 1) / 2.0) for r, c in corners),
            height=params.height,
            width=params.width,
            raft_size_px=size,
            raft_corners=corners,
        )
        table = np.stack([spectra[name] for name in WATER_CLASS_NAMES])  # (3, 10)
        self.means = {band: table[:, i] for i, band in enumerate(FEATURE_ORDER)}
        self.sigma = params.noise_sigma

    def draw(self, band: BandId, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of ``band``, drawn into a new array."""
        out = np.empty((r1 - r0, self.truth.width))
        self.truth._paint(out, r0, self.means[band])
        if self.sigma > 0:
            z = self.rng.standard_normal(out.shape)
            try:
                with np.errstate(over="raise"):
                    z *= self.sigma
                    out += z
            except FloatingPointError as exc:
                raise DatasetError(
                    f"noise_sigma {self.sigma} draws reflectances beyond the float64 range"
                ) from exc
            np.maximum(out, 0.0, out=out)
        return out


def generate_synthetic_scene(params: SynthParams) -> tuple[BandStack, SceneTruth]:
    """Deterministic labeled scene: land frame, water body, raft squares.

    The stack holds, in memory, the digital numbers that
    ``write_synthetic_scene`` writes: reflectance is drawn as class mean
    plus Gaussian noise (clipped at zero), in the same row chunks from the
    same generator, and quantized by ``BandStack.from_reflectance`` as
    ``write_bands`` quantizes it. So its census equals the census of the
    written scene loaded, and ``save_band_stack`` of it writes the same
    band files. With noise_sigma 0 a 10 m pixel is its class mean rounded
    to a digital number, and a 20 m cell the mean of its 2x2 block of
    class means, rounded.
    """
    scene = _SceneDrawer(params)
    h, w = params.height, params.width
    stack = BandStack.from_reflectance(
        w, h, lambda band: (scene.draw(band, r0, r1) for r0, r1 in row_chunks(w, h)),
        params.geo,
    )
    return stack, scene.truth


def write_synthetic_scene(params: SynthParams, out_dir) -> tuple[tuple[float, float], ...]:
    """Write the scene of ``generate_synthetic_scene(params)``; returns its
    raft centroids.

    Writes what ``save_band_stack`` writes for that stack, byte for byte,
    plus ``truth_water.pgm`` and ``truth_rafts.pgm`` (65535 on the class,
    0 elsewhere) and ``truth.json``. Bands are drawn and written one at a
    time, one row chunk at a time, and the truth masks one chunk's
    ``SceneTruth.class_rows`` at a time, so memory is the chunk buffers
    plus the raft layout (8 B per raft pixel), whatever the scene's area.
    Every error of the parameters or the raft layout comes before
    ``out_dir`` is created.
    """
    scene = _SceneDrawer(params)
    h, w = params.height, params.width
    chunks = list(row_chunks(w, h))
    out_dir = Path(out_dir)
    write_bands(
        out_dir, w, h,
        lambda band: (scene.draw(band, r0, r1) for r0, r1 in chunks),
        params.geo,
    )
    truth = scene.truth
    on, off = np.uint16(65535), np.uint16(0)
    for name, k in (("truth_water.pgm", 2), ("truth_rafts.pgm", 1)):
        write_pgm16_rows(
            out_dir / name, w, h,
            (np.where(truth.class_rows(r0, r1) == k, on, off) for r0, r1 in chunks),
        )
    payload = {
        "raft_centroids": [[r, c] for r, c in truth.raft_centroids],
        "raft_count": len(truth.raft_centroids),
        "raft_size_px": params.raft_size_px,
        "seed": params.seed,
        "width": w,
        "height": h,
    }
    (out_dir / "truth.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return truth.raft_centroids


def extract_platform_samples(
    s: BandStack,
    water,
    correction=None,
    seed: int = 0,
) -> LabeledPixels:
    """Mine a balanced platform/water pixel set from a water mask (a
    BitMask or a 2-D array, nonzero True; so is ``correction``).

    Platform candidates are the bottom-hat of the water mask (the holes
    a 3x3 closing fills), intersected with ``correction`` when given.
    An equal number of water pixels is then drawn uniformly at random
    (seeded) from water-true pixels outside the candidate set. Labels
    follow PLATFORM_CLASS_NAMES: water 0, platform 1.
    """
    water = BitMask.pack(water)
    if water.shape != (s.height, s.width):
        raise DimensionError(
            f"water mask shape {water.shape} does not match stack "
            f"{(s.height, s.width)}"
        )
    candidates = bottom_hat(water, square(3))
    if correction is not None:
        correction = BitMask.pack(correction)
        if correction.shape != water.shape:
            raise DimensionError("correction mask shape does not match water mask")
        candidates = BitMask(candidates.words & correction.words, water.width)
    cand = candidates.flat_indices()
    n = len(cand)
    if n == 0:
        raise DatasetError("zero candidates: bottom-hat found no platform pixels")

    pool = BitMask(water.words & ~candidates.words, water.width).flat_indices()
    if len(pool) < n:
        raise DatasetError(
            f"fewer water pixels ({len(pool)}) than candidates ({n})"
        )
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(pool), size=n, replace=False)
    pick.sort()

    rows, cols = np.divmod(np.concatenate([pool[pick], cand]), water.width)
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
            where = f"{path}: line {reader.line_num}"
            if len(rec) != len(_CSV_HEADER):
                raise DatasetError(f"{where}: bad row width {len(rec)}")
            try:
                row, label = [float(v) for v in rec[:-1]], int(rec[-1])
            except ValueError as exc:
                raise DatasetError(f"{where}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise DatasetError(f"{where}: features must be finite")
            rows.append(row)
            labels.append(label)
    if not class_names:
        raise DatasetError(f"{path}: missing class-names comment row")
    return LabeledPixels(
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        class_names,
    )
