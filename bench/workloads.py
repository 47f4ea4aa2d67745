"""Census benchmark workloads: set-up, one census operation, and its traced replay.

Every workload is a closed loop with one client: after set-up, the same
census operation runs again and again, one at a time, in one process.
The package is driven from outside, through its public functions and
``raftcensus.cli.dispatch``; nothing here reaches into private names.

The traced replay repeats the public stage calls that
``raftcensus.pipeline.run_pipeline`` (and, on the on-disk workload,
``load_band_stack`` and the ``census``/``eval`` commands) make, in the
same order and with the same area pre-gate, wrapping each in a span.
Its outputs must be byte-identical to the untraced operation's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import raftcensus
from raftcensus import (
    BandId,
    BandStack,
    Census,
    CensusConfig,
    CensusRecord,
    GeoRef,
    MlpWater,
    NdwiOtsu,
    SynthParams,
    TrainConfig,
    census_to_csv,
    census_to_geojson,
    clean_water_mask,
    closing,
    compute_features,
    compute_rates,
    default_platform_training_set,
    default_water_training_set,
    evaluate_census,
    filter_blobs,
    generate_synthetic_scene,
    init_model,
    label_components,
    load_model,
    match_centroids,
    platform_mask,
    read_pgm16,
    resample_plane,
    run_census,
    train,
    water_mask_mlp,
    water_mask_ndwi,
)
from raftcensus.bandstack import DN_SCALE, PIXEL_SIZE_M
from raftcensus.blobs import REJECT_ORDER
from raftcensus.cli import dispatch
from raftcensus.evaluation import DEFAULT_MAX_MATCH_DIST, format_report, report_to_json
from raftcensus.mlp import PLATFORM_LAYERS, WATER_LAYERS

# Model training is part of set-up. Its seed is fixed, apart from the
# scene seed, so that every run trains the same nets for the same number
# of epochs and set-up time stays comparable across scene seeds.
TRAIN_SEED = 2024
# Geo block for the on-disk scene: UTM 29N, Ria de Arousa.
ORIGIN = (500000.0, 4680000.0)
CRS = "EPSG:32629"
SOURCE = "scene"
# Acceptance criterion C6: census quality on clean synthetic scenes.
MAX_TFR_PCT = 2.0
MAX_TFA_PCT = 9.0


class Tracer:
    """Spans (name, start, end, parent) and counts of one operation, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its child spans, summed by name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def to_json(self, origin: float) -> dict:
        return {
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": self.counts,
        }


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, read back for checking."""

    outputs: dict[str, bytes]  # every output file or text, by name
    count: int  # the census's own count
    records: int  # records actually emitted
    tfa_pct: float
    tfr_pct: float


@dataclass(frozen=True)
class Workload:
    """Scene and model parameters of one workload."""

    name: str
    why: str
    size: int  # scene is size x size pixels
    rafts: int
    noise_sigma: float
    water: str  # "ndwi" or "mlp"
    on_disk: bool  # files + CLI child processes, or stacks in memory
    gated: bool  # TFA/TFR must meet criterion C6

    @property
    def mpix(self) -> float:
        return self.size * self.size / 1e6

    def setup(self, seed: int, workdir: Path, tr: Tracer):
        if self.on_disk:
            return DiskScene.build(self, seed, workdir, tr)
        return MemoryScene.build(self, seed, tr)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ria_tile",
            why="dense raft field read from disk through the CLI: band load, "
            "platform scoring, 2000 GeoJSON features and TFA/TFR scoring",
            size=2048,
            rafts=2000,
            noise_sigma=0.005,
            water="ndwi",
            on_disk=True,
            gated=True,
        ),
        Workload(
            name="mlp_water_tile",
            why="library route with the water MLP: every pixel through the water "
            "net, water pixels through the platform net; no band load, few blobs",
            size=2048,
            rafts=200,
            noise_sigma=0.005,
            water="mlp",
            on_disk=False,
            gated=True,
        ),
        # Not listed in BENCHMARK.json; run it by hand (with --trace 1) to
        # profile labeling and blob features. Its pure-Python operations
        # follow a shared host's speed swings too closely for run-to-run
        # gating: ten-seed spreads of census_s reached 0.28 of the median.
        Workload(
            name="speckle",
            why="degraded input (noise 0.08) whose platform mask breaks into ~5k "
            "blobs, so labeling and blob features dominate",
            size=512,
            rafts=12,
            noise_sigma=0.08,
            water="ndwi",
            on_disk=False,
            gated=False,
        ),
    )
}


def _train_net(tr: Tracer, layers, data):
    with tr.span("mlp.train"):
        model, history = train(
            init_model(layers, seed=TRAIN_SEED), data.features, data.labels,
            TrainConfig(seed=TRAIN_SEED),
        )
    tr.count("mlp.train_epochs", len(history))
    return model


def _census_traced(tr: Tracer, stack: BandStack, cfg: CensusConfig, source: str) -> Census:
    """run_pipeline's stage calls, in order, each in a span."""
    method = cfg.water_method
    if isinstance(method, NdwiOtsu):
        with tr.span("waterdetect.ndwi_mask"):
            water = water_mask_ndwi(stack)
    else:
        with tr.span("waterdetect.mlp_mask"):
            water = water_mask_mlp(stack, method.model, method.water_class_index, method.threshold)
    with tr.span("waterdetect.clean"):
        cleaned = clean_water_mask(water, cfg.water_se, cfg.coast_erode_se)
    with tr.span("pipeline.platform_mask"):
        flagged = platform_mask(stack, cleaned, cfg)
    with tr.span("morphology.platform_close"):
        pmask = closing(flagged, cfg.platform_close_se)
    with tr.span("blobs.label"):
        blobs = label_components(pmask)
    small = [b for b in blobs if b.area < cfg.blob_filter.max_area]
    with tr.span("blobs.features"):
        featured = [compute_features(b) for b in small]
    with tr.span("blobs.filter"):
        accepted, rejected = filter_blobs(featured, cfg.blob_filter)

    tr.count("waterdetect.water_px_raw", int(water.sum()))
    tr.count("waterdetect.water_px_clean", int(cleaned.sum()))
    tr.count("pipeline.flagged_px", int(flagged.sum()))
    tr.count("blobs.labeled", len(blobs))
    tr.count("blobs.featured", len(small))
    tr.count("blobs.accepted", len(accepted))
    for reason in REJECT_ORDER:
        tr.count(f"blobs.rejected.{reason}", sum(1 for _, r in rejected if r == reason))
    # Blobs skipped by the area pre-gate fail the area criterion too.
    tr.count("blobs.rejected.area", len(blobs) - len(small))

    accepted.sort(key=lambda b: b.centroid)
    records = []
    for i, b in enumerate(accepted, start=1):
        geo = None
        if stack.geo is not None:
            geo = (
                stack.geo.origin_easting + (b.centroid[1] + 0.5) * stack.pixel_size,
                stack.geo.origin_northing - (b.centroid[0] + 0.5) * stack.pixel_size,
            )
        records.append(
            CensusRecord(id=i, centroid_px=b.centroid, area_px=b.area, bbox=b.bbox, centroid_geo=geo)
        )
    return Census(records=tuple(records), count=len(records), source=source, config_digest=cfg.digest())


class MemoryScene:
    """Stack and nets held in memory; the operation is run_census + census_to_csv."""

    def __init__(self, stack: BandStack, truth, cfg: CensusConfig):
        self.stack = stack
        self.truth = truth
        self.cfg = cfg

    @classmethod
    def build(cls, w: Workload, seed: int, tr: Tracer) -> "MemoryScene":
        with tr.span("datasets.synth"):
            stack, truth = generate_synthetic_scene(
                SynthParams(width=w.size, height=w.size, raft_count=w.rafts,
                            noise_sigma=w.noise_sigma, seed=seed)
            )
            platform_data = default_platform_training_set(seed=TRAIN_SEED)
            water_data = default_water_training_set(seed=TRAIN_SEED) if w.water == "mlp" else None
        platform = _train_net(tr, PLATFORM_LAYERS, platform_data)
        water = NdwiOtsu()
        if water_data is not None:
            water = MlpWater(model=_train_net(tr, WATER_LAYERS, water_data))
        return cls(stack, truth, CensusConfig(water_method=water, platform_model=platform))

    def run(self) -> tuple[Census, str]:
        census = run_census(self.stack, self.cfg, source=SOURCE)
        return census, census_to_csv(census)

    def run_traced(self, tr: Tracer) -> tuple[Census, str]:
        census = _census_traced(tr, self.stack, self.cfg, SOURCE)
        with tr.span("pipeline.export"):
            text = census_to_csv(census)
        return census, text

    def outcome(self, result: tuple[Census, str]) -> Outcome:
        census, text = result
        report = evaluate_census(census, self.truth.raft_centroids)
        return Outcome(
            outputs={"csv": text.encode()},
            count=census.count,
            records=len(census.records),
            tfa_pct=report.tfa_percent,
            tfr_pct=report.tfr_percent,
        )


def _cli_child(args: list[str]) -> str:
    """Run one raft-census command in a child process; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(raftcensus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "raftcensus.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"raft-census {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


class DiskScene:
    """Scene files and a platform net on disk, made by the CLI in child processes.

    The operation is the ``census`` command (NDWI route, CSV + GeoJSON)
    followed by ``eval``, both through ``dispatch`` in this process.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.manifest = workdir / "scene" / "manifest.json"
        self.truth = workdir / "scene" / "truth.json"
        self.model = workdir / "platform.json"

    @classmethod
    def build(cls, w: Workload, seed: int, workdir: Path, tr: Tracer) -> "DiskScene":
        scene = cls(workdir)
        with tr.span("datasets.synth"):
            _cli_child(
                ["synth", "--out", str(scene.manifest.parent), "--width", str(w.size),
                 "--height", str(w.size), "--rafts", str(w.rafts),
                 "--noise-sigma", repr(w.noise_sigma), "--seed", str(seed),
                 "--origin", repr(ORIGIN[0]), repr(ORIGIN[1]), "--crs", CRS],
            )
        with tr.span("mlp.train"):
            out = _cli_child(
                ["train-platform", "--synthetic-default", "--seed", str(TRAIN_SEED),
                 "--out", str(scene.model)],
            )
        epochs = re.search(r"(\d+) epochs", out)
        tr.count("mlp.train_epochs", int(epochs.group(1)) if epochs else 0)
        return scene

    def _paths(self, stem: str) -> tuple[Path, Path, Path]:
        return (self.dir / f"{stem}.csv", self.dir / f"{stem}.geojson",
                self.dir / f"{stem}_report.json")

    def run(self) -> str:
        csv, _, report = self._paths("op")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dispatch(["census", "--manifest", str(self.manifest),
                           "--platform-model", str(self.model), "--out", str(csv)])
            if rc == 0:
                rc = dispatch(["eval", "--census", str(csv), "--truth", str(self.truth),
                               "--out", str(report)])
        if rc != 0:
            raise RuntimeError(f"dispatch returned {rc}")
        return "op"

    def run_traced(self, tr: Tracer) -> str:
        csv_path, geojson_path, report_path = self._paths("traced")
        with tr.span("cli.census"):
            stack = self._load_traced(tr)
            cfg = CensusConfig(water_method=NdwiOtsu(), platform_model=load_model(self.model))
            census = _census_traced(tr, stack, cfg, self.manifest.name)
            with tr.span("pipeline.export"):
                csv_text = census_to_csv(census)
                geojson_text = census_to_geojson(census, crs=stack.geo.crs)
            csv_path.write_text(csv_text)
            geojson_path.write_text(geojson_text)
        with tr.span("cli.eval"):
            dets = []
            for line in csv_path.read_text().splitlines()[1:]:
                parts = line.split(",")
                dets.append((int(parts[0]), float(parts[1]), float(parts[2])))
            truth = json.loads(self.truth.read_text())
            centroids = [(float(r), float(c)) for r, c in truth["raft_centroids"]]
            with tr.span("evaluation.eval"):
                matches = match_centroids(dets, centroids, DEFAULT_MAX_MATCH_DIST)
                report = compute_rates(matches, len(dets), len(centroids))
            format_report(report)  # the command prints this; printing is not timed
            report_path.write_text(report_to_json(report))
        tr.count("evaluation.detections", len(dets))
        tr.count("evaluation.truth", len(centroids))
        return "traced"

    def _load_traced(self, tr: Tracer) -> BandStack:
        """load_band_stack's steps: read each PGM, scale, upsample 20 m bands."""
        with tr.span("bandstack.load"):
            manifest = json.loads(self.manifest.read_text())
            planes = {}
            for band in BandId:
                path = self.manifest.parent / manifest["bands"][band.value]
                with tr.span("bandstack.read_pgm16"):
                    dn = read_pgm16(path)
                tr.count("bandstack.bytes_read", path.stat().st_size)
                plane = dn.astype(np.float64) / DN_SCALE
                if band.native_resolution_m == 20:
                    with tr.span("bandstack.resample"):
                        plane = resample_plane(plane, 2)
                planes[band] = plane
            geo = manifest["geo"]
            h, w = planes[BandId.B2].shape
            return BandStack(
                width=w, height=h, pixel_size=PIXEL_SIZE_M, planes=planes,
                geo=GeoRef(float(geo["origin_easting"]), float(geo["origin_northing"]), str(geo["crs"])),
            )

    def outcome(self, stem: str) -> Outcome:
        csv, geojson, report_path = self._paths(stem)
        outputs = {"csv": csv.read_bytes(), "geojson": geojson.read_bytes(),
                   "report": report_path.read_bytes()}
        collection = json.loads(outputs["geojson"])
        rows = [line for line in outputs["csv"].decode().splitlines()[1:] if line]
        if len(collection["features"]) != len(rows):
            raise RuntimeError(f"{len(rows)} CSV rows but {len(collection['features'])} GeoJSON features")
        report = json.loads(outputs["report"])
        return Outcome(
            outputs=outputs,
            count=collection["properties"]["count"],
            records=len(rows),
            tfa_pct=report["tfa_percent"],
            tfr_pct=report["tfr_percent"],
        )
