"""Two-stage census: water mask, platform classification, blob vetting.

Stages, in order: build the water mask (NDWI+Otsu or MLP), clean it
with the fixed morphology chain, classify water pixels with the
platform network, lightly close the platform mask so a raft split by a
missed pixel stays one solid blob, then label, measure, and filter
blobs. Accepted blobs become census records ordered by centroid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

from .bandstack import BandStack
from .blobs import BlobFilter, filter_blobs, label_components
from .errors import DegenerateHistogramError, RaftCensusError
from .mlp import PLATFORM_LAYERS, MlpModel, threshold_planes
from .morphology import BitMask, StructElem, closing, square
from .waterdetect import (
    COAST_ERODE_SE,
    WATER_SE,
    NdwiOtsu,
    WaterMethod,
    clean_water_mask,
    water_mask_mlp,
    water_mask_ndwi,
)

__all__ = [
    "PLATFORM_THRESHOLD_DEFAULT",
    "CensusConfig",
    "CensusRecord",
    "Census",
    "PipelineArtifacts",
    "RejectedBlob",
    "platform_mask",
    "run_pipeline",
    "run_census",
    "census_to_csv",
    "census_to_geojson",
]

PLATFORM_THRESHOLD_DEFAULT = 0.5


@dataclass(frozen=True)
class CensusConfig:
    """Everything run_census needs besides the stack itself."""

    water_method: WaterMethod
    platform_model: MlpModel
    platform_threshold: float = PLATFORM_THRESHOLD_DEFAULT
    water_se: StructElem = WATER_SE
    coast_erode_se: StructElem = COAST_ERODE_SE
    platform_close_se: StructElem = field(default_factory=lambda: square(3))
    blob_filter: BlobFilter = field(default_factory=BlobFilter)

    def __post_init__(self):
        if self.platform_model.layer_sizes != PLATFORM_LAYERS:
            raise ValueError(
                f"platform model must have layers {list(PLATFORM_LAYERS)}, "
                f"got {list(self.platform_model.layer_sizes)}"
            )
        if not 0.0 < self.platform_threshold < 1.0:
            raise ValueError("platform_threshold must be in (0, 1)")

    def digest(self) -> str:
        """Short stable hash of the configuration, models' parameters
        included."""
        h = hashlib.sha256()
        desc = {
            "water_method": _water_method_desc(self.water_method),
            "platform_threshold": self.platform_threshold,
            "water_se": sorted(self.water_se.offsets),
            "coast_erode_se": sorted(self.coast_erode_se.offsets),
            "platform_close_se": sorted(self.platform_close_se.offsets),
            "blob_filter": astuple(self.blob_filter),
        }
        h.update(json.dumps(desc, sort_keys=True).encode())
        for w, b in zip(self.platform_model.weights, self.platform_model.biases):
            h.update(w.tobytes())
            h.update(b.tobytes())
        return h.hexdigest()[:16]


def _water_method_desc(method: WaterMethod):
    if isinstance(method, NdwiOtsu):
        return ["ndwi"]
    desc = ["mlp", method.water_class_index, method.threshold]
    for w, b in zip(method.model.weights, method.model.biases):
        desc.append(hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest()[:16])
    return desc


@dataclass(frozen=True)
class CensusRecord:
    """One accepted platform."""

    id: int
    centroid_px: tuple[float, float]  # (row, col)
    area_px: int
    bbox: tuple[int, int, int, int]  # (r0, c0, r1, c1) inclusive
    centroid_geo: tuple[float, float] | None = None  # (easting, northing)


@dataclass(frozen=True)
class Census:
    records: tuple[CensusRecord, ...]
    count: int
    source: str
    config_digest: str

    def __post_init__(self):
        if self.count != len(self.records):
            raise ValueError("census count must equal number of records")


def platform_mask(s: BandStack, water, cfg: CensusConfig) -> BitMask:
    """Platform pixels: water-true AND platform score >= threshold.

    ``water`` is a BitMask or a 2-D array. ``BandStack.windows`` row
    windows (sized by the stack) without water are neither read nor
    scored; other non-water pixels are scored, then dropped.
    """
    return threshold_planes(
        cfg.platform_model, s, 0, cfg.platform_threshold, where=water
    )


def _build_water_mask(s: BandStack, cfg: CensusConfig) -> BitMask:
    if isinstance(cfg.water_method, NdwiOtsu):
        try:
            return water_mask_ndwi(s)
        except DegenerateHistogramError as exc:
            raise RaftCensusError(f"no water found: {exc}") from exc
    return water_mask_mlp(
        s,
        cfg.water_method.model,
        cfg.water_method.water_class_index,
        cfg.water_method.threshold,
    )


class RejectedBlob(NamedTuple):
    """One labeled blob the filter turned down."""

    centroid: tuple[float, float]  # (row, col)
    area: int
    reason: str  # the first failing criterion in blobs.REJECT_ORDER


@dataclass(frozen=True)
class PipelineArtifacts:
    """Census plus the intermediate masks and the rejected blobs, for
    inspection or rendering.

    The masks are bit-packed (``np.asarray`` unpacks one to bool). Every
    blob labeled in ``platform_mask`` is either a census record or one of
    ``rejected``, which keeps label order.
    """

    water_mask: BitMask  # cleaned
    platform_mask: BitMask  # after the merging closing
    census: Census
    rejected: tuple[RejectedBlob, ...]


def run_census(s: BandStack, cfg: CensusConfig, source: str = "") -> Census:
    """Run the full detection pipeline on one stack."""
    return run_pipeline(s, cfg, source).census


def run_pipeline(s: BandStack, cfg: CensusConfig, source: str = "") -> PipelineArtifacts:
    """Like run_census, but also returns the water and platform masks and
    the blobs the filter rejected."""
    # The raw water mask is freed once cleaned, before scoring and closing.
    cleaned = clean_water_mask(_build_water_mask(s, cfg), cfg.water_se, cfg.coast_erode_se)
    pmask = platform_mask(s, cleaned, cfg)
    pmask = closing(pmask, cfg.platform_close_se)

    accepted, rejected = filter_blobs(label_components(pmask), cfg.blob_filter)

    accepted.sort(key=lambda b: b.centroid)
    records = []
    for i, b in enumerate(accepted, start=1):
        geo = None
        if s.geo is not None:
            geo = (
                s.geo.origin_easting + (b.centroid[1] + 0.5) * s.pixel_size,
                s.geo.origin_northing - (b.centroid[0] + 0.5) * s.pixel_size,
            )
        records.append(
            CensusRecord(
                id=i,
                centroid_px=b.centroid,
                area_px=b.area,
                bbox=b.bbox,
                centroid_geo=geo,
            )
        )
    census = Census(
        records=tuple(records),
        count=len(records),
        source=source,
        config_digest=cfg.digest(),
    )
    return PipelineArtifacts(
        water_mask=cleaned,
        platform_mask=pmask,
        census=census,
        rejected=tuple(RejectedBlob(b.centroid, b.area, reason) for b, reason in rejected),
    )


def census_to_csv(census: Census) -> str:
    """CSV text: id,row,col,area_px and easting,northing when georeferenced."""
    has_geo = any(rec.centroid_geo is not None for rec in census.records)
    header = "id,row,col,area_px" + (",easting,northing" if has_geo else "")
    lines = [header]
    for rec in census.records:
        line = f"{rec.id},{rec.centroid_px[0]!r},{rec.centroid_px[1]!r},{rec.area_px}"
        if has_geo:
            line += f",{rec.centroid_geo[0]!r},{rec.centroid_geo[1]!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# One GeoJSON feature as ``json.dumps(..., indent=2, sort_keys=True)`` lays
# it out inside the collection's "features" list; filled with easting,
# northing, area_px, the four bbox values and id.
_GEOJSON_FEATURE = """\
    {
      "geometry": {
        "coordinates": [
          %s,
          %s
        ],
        "type": "Point"
      },
      "properties": {
        "area_px": %s,
        "bbox": [
          %s,
          %s,
          %s,
          %s
        ],
        "id": %s
      },
      "type": "Feature"
    }"""


def census_to_geojson(census: Census, crs: str | None = None) -> str:
    """GeoJSON FeatureCollection of Point features (easting, northing).

    The text is what ``json.dumps(collection, indent=2, sort_keys=True)``
    gives, byte for byte. Features are filled into a fixed template, since
    that call would run the pure-Python encoder over every feature; their
    coordinates must be finite, so ``float.__repr__`` writes them as
    ``json.dumps`` does and the text holds no NaN or Infinity token.
    """
    features = []
    for rec in census.records:
        if rec.centroid_geo is None:
            raise RaftCensusError(
                "census has records without geographic centroids; "
                "load the stack with a geo block to export GeoJSON"
            )
        easting, northing = rec.centroid_geo
        if not (math.isfinite(easting) and math.isfinite(northing)):
            raise RaftCensusError(
                f"record {rec.id} has a non-finite geographic centroid "
                f"({easting!r}, {northing!r})"
            )
        features.append(
            _GEOJSON_FEATURE
            % (float.__repr__(easting), float.__repr__(northing), rec.area_px, *rec.bbox, rec.id)
        )
    properties = {
        "config_digest": census.config_digest,
        "count": census.count,
        "source": census.source,
        **({"crs": crs} if crs else {}),
    }
    collection = {"features": [], "properties": properties, "type": "FeatureCollection"}
    text = json.dumps(collection, indent=2, sort_keys=True)
    if features:
        listed = ",\n".join(features)
        text = text.replace('"features": []', f'"features": [\n{listed}\n  ]', 1)
    return text + "\n"
