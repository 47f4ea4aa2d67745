"""raft-census command line interface.

Subcommands cover the full workflow: import/normalize a band stack,
generate synthetic scenes, train the two classifiers, run the census,
score it against ground truth, and render an overlay image. Exit codes:
0 success, 1 usage error, 2 data error.

All randomness is seeded through flags, so identical invocations
produce byte-identical output files. The census is single-threaded;
pixels are scored in row blocks, each unit's sum in one fixed order, so
a score depends neither on its block nor on BLAS (training uses BLAS).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, mlp
from .bandstack import (
    BandId,
    BandStack,
    check_saveable,
    load_band_stack,
    read_pgm16,
    save_band_stack,
    write_pgm16,
)
from .blobs import BlobFilter
from .errors import RaftCensusError
from .evaluation import (
    DEFAULT_MAX_MATCH_DIST,
    compute_rates,
    format_report,
    match_centroids,
    report_to_json,
)
from .pipeline import (
    PLATFORM_THRESHOLD_DEFAULT,
    Census,
    CensusConfig,
    census_to_csv,
    census_to_geojson,
    run_census,
)
from .waterdetect import DEFAULT_WATER_THRESHOLD, MlpWater, NdwiOtsu

__all__ = ["main", "dispatch", "render_overlay"]

_CROSS_COLOR = (255, 255, 0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="raft-census",
        description="Detect mussel-raft platforms in ten-band reflectance stacks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("import", help="validate a manifest and write a normalized 10 m stack")
    p.add_argument("--manifest", required=True, help="input manifest JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--rafts", type=int, default=10)
    p.add_argument("--raft-size", type=int, default=2, choices=(2, 3))
    p.add_argument("--noise-sigma", type=float, default=datasets.DEFAULT_NOISE_SIGMA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectra", help="JSON spectra config (default: built-in)")
    p.add_argument("--origin", nargs=2, type=float, metavar=("EASTING", "NORTHING"),
                   help="geo origin of pixel (0,0) top-left corner, meters")
    p.add_argument("--crs", default="EPSG:32629", help="CRS code for --origin")

    for name, help_text in (
        ("train-platform", "train the binary platform classifier"),
        ("train-water", "train the three-class water classifier"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--data", help="labeled pixel CSV")
        src.add_argument("--synthetic-default", action="store_true",
                         help="use the built-in synthetic training set")
        if name == "train-platform":
            src.add_argument("--manifest",
                             help="mine samples from this scene's NDWI water mask")
            p.add_argument("--correction",
                           help="PGM mask vetting mined candidates (nonzero = keep)")
        p.add_argument("--out", required=True, help="output model file")
        if name == "train-water":
            p.add_argument("--hidden", type=int, default=mlp.WATER_LAYERS[1])
        p.add_argument("--epochs", type=int, default=2000)
        p.add_argument("--lr", type=float, default=2.0)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--target-loss", type=float, default=1e-3)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("census", help="run the platform census on a stack")
    _census_flags(p)
    p.add_argument("--out", required=True, help="output census CSV")

    p = sub.add_parser("eval", help="score a census CSV against truth centroids")
    p.add_argument("--census", required=True, help="census CSV from the census command")
    p.add_argument("--truth", required=True, help="truth JSON with raft_centroids")
    p.add_argument("--max-match-dist", type=float, default=DEFAULT_MAX_MATCH_DIST)
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("render", help="render a PPM overlay of masks and detections")
    _census_flags(p)
    p.add_argument("--out", required=True, help="output PPM path")

    return parser


def _census_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="stack manifest JSON")
    p.add_argument("--platform-model", required=True, help="trained platform MLP file")
    p.add_argument("--water-method", choices=("ndwi", "mlp"), default="ndwi")
    p.add_argument("--water-model", help="trained water MLP (for --water-method mlp)")
    p.add_argument("--water-threshold", type=float, default=DEFAULT_WATER_THRESHOLD)
    p.add_argument("--water-class", type=int, default=mlp.WATER_CLASS_INDEX,
                   help="1-based water output index of the water model")
    p.add_argument("--platform-threshold", type=float, default=PLATFORM_THRESHOLD_DEFAULT)
    p.add_argument("--max-area", type=int, default=BlobFilter.max_area)
    p.add_argument("--max-eqdiam", type=float, default=BlobFilter.max_equivalent_diameter)
    p.add_argument("--min-solidity", type=float, default=BlobFilter.min_solidity)


def _census_config(args) -> CensusConfig:
    platform_model = mlp.load_model(args.platform_model)
    if args.water_method == "mlp":
        if not args.water_model:
            raise _UsageError("--water-method mlp requires --water-model")
        water = MlpWater(
            model=mlp.load_model(args.water_model),
            water_class_index=args.water_class,
            threshold=args.water_threshold,
        )
    else:
        water = NdwiOtsu()
    return CensusConfig(
        water_method=water,
        platform_model=platform_model,
        platform_threshold=args.platform_threshold,
        blob_filter=BlobFilter(
            max_area=args.max_area,
            max_equivalent_diameter=args.max_eqdiam,
            min_solidity=args.min_solidity,
        ),
    )


def _cmd_import(args) -> int:
    stack = load_band_stack(args.manifest)
    manifest = save_band_stack(stack, args.out)
    print(f"imported {stack.width}x{stack.height} stack -> {manifest}")
    return 0


def _cmd_synth(args) -> int:
    geo = None
    if args.origin is not None:
        from .bandstack import GeoRef

        geo = GeoRef(args.origin[0], args.origin[1], args.crs)
    spectra = datasets.load_spectra(args.spectra) if args.spectra else None
    params = datasets.SynthParams(
        width=args.width,
        height=args.height,
        raft_count=args.rafts,
        raft_size_px=args.raft_size,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        spectra=spectra,
        geo=geo,
    )
    check_saveable(params.width, params.height)  # before drawing the whole scene
    stack, truth = datasets.generate_synthetic_scene(params)
    out = Path(args.out)
    save_band_stack(stack, out)
    write_pgm16(out / "truth_water.pgm", truth.water_mask.astype(np.uint16) * 65535)
    write_pgm16(out / "truth_rafts.pgm", truth.raft_mask.astype(np.uint16) * 65535)
    truth_payload = {
        "raft_centroids": [[r, c] for r, c in truth.raft_centroids],
        "raft_count": len(truth.raft_centroids),
        "raft_size_px": args.raft_size,
        "seed": args.seed,
        "width": args.width,
        "height": args.height,
    }
    (out / "truth.json").write_text(json.dumps(truth_payload, indent=2, sort_keys=True) + "\n")
    print(f"synthesized scene with {len(truth.raft_centroids)} rafts -> {out / 'manifest.json'}")
    return 0


def _training_data(args, binary: bool) -> datasets.LabeledPixels:
    if args.data:
        return datasets.load_labeled_csv(args.data)
    if getattr(args, "manifest", None):
        from .waterdetect import water_mask_ndwi

        stack = load_band_stack(args.manifest)
        correction = None
        if args.correction:
            correction = read_pgm16(args.correction) > 0
        return datasets.extract_platform_samples(
            stack, water_mask_ndwi(stack), correction, seed=args.seed
        )
    if binary:
        return datasets.default_platform_training_set(seed=args.seed)
    return datasets.default_water_training_set(seed=args.seed)


def _cmd_train(args, binary: bool) -> int:
    data = _training_data(args, binary)
    layers = mlp.PLATFORM_LAYERS if binary else (10, args.hidden, len(data.class_names))
    model = mlp.init_model(layers, seed=args.seed)
    cfg = mlp.TrainConfig(
        max_epochs=args.epochs,
        target_loss=args.target_loss,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
    )
    trained, history = mlp.train(model, data.features, data.labels, cfg)
    mlp.save_model(trained, args.out)
    x_test, y_test = mlp.split_data(data.features, data.labels, cfg)[2]
    suffix = ""
    if len(x_test):
        cm = mlp.evaluate_confusion(trained, x_test, y_test, class_names=data.class_names)
        suffix = f", held-out error {100 * cm.error_rate:.2f}%"
    print(
        f"trained on {len(data.features)} samples, {len(history)} epochs, "
        f"final loss {history[-1]:.6f}{suffix} -> {args.out}"
    )
    return 0


def _cmd_census(args) -> int:
    stack = load_band_stack(args.manifest)
    cfg = _census_config(args)
    census = run_census(stack, cfg, source=Path(args.manifest).name)
    out = Path(args.out)
    out.write_text(census_to_csv(census))
    message = f"census: {census.count} platforms -> {out}"
    if stack.geo is not None:
        geo_path = out.with_suffix(".geojson")
        geo_path.write_text(census_to_geojson(census, crs=stack.geo.crs))
        message += f" and {geo_path}"
    print(message)
    return 0


def _read_census_csv(path) -> list[tuple[int, float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("id,row,col,area_px"):
        raise RaftCensusError(f"{path}: not a census CSV")
    dets = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            dets.append((int(parts[0]), float(parts[1]), float(parts[2])))
        except (IndexError, ValueError) as exc:
            raise RaftCensusError(f"{path}: line {n}: bad census row {line!r}") from exc
    return dets


def _cmd_eval(args) -> int:
    dets = _read_census_csv(args.census)
    try:
        truth = json.loads(Path(args.truth).read_text())
        centroids = [(float(r), float(c)) for r, c in truth["raft_centroids"]]
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise RaftCensusError(f"cannot read truth file {args.truth}: {exc}") from exc
    matches = match_centroids(dets, centroids, args.max_match_dist)
    report = compute_rates(matches, len(dets), len(centroids))
    sys.stdout.write(format_report(report))
    if args.out:
        Path(args.out).write_text(report_to_json(report))
    return 0


def _cmd_render(args) -> int:
    from .pipeline import run_pipeline

    stack = load_band_stack(args.manifest)
    cfg = _census_config(args)
    result = run_pipeline(stack, cfg, source=Path(args.manifest).name)
    render_overlay(stack, result.water_mask, result.platform_mask, result.census, args.out)
    print(f"rendered overlay with {result.census.count} detections -> {args.out}")
    return 0


def render_overlay(
    stack: BandStack,
    water_mask: np.ndarray | None,
    platform_mask: np.ndarray | None,
    census: Census | None,
    path,
) -> None:
    """Write an 8-bit PPM: green-band grayscale, water tinted blue,
    platform pixels tinted red, census centroids marked with 3x3
    yellow crosses. Pure integer arithmetic, so output bytes are a
    function of the inputs only.
    """
    g = stack.planes[BandId.B3]
    lo, hi = float(g.min()), float(g.max())
    if hi > lo:
        gray = np.rint(255.0 * (g - lo) / (hi - lo)).astype(np.int32)
    else:
        gray = np.zeros_like(g, dtype=np.int32)
    img = np.stack([gray, gray, gray], axis=-1)

    if water_mask is not None:
        wm = np.asarray(water_mask).astype(bool, copy=False)
        img[wm, 0] = gray[wm] // 2
        img[wm, 1] = gray[wm] // 2
        img[wm, 2] = (gray[wm] + 255) // 2
    if platform_mask is not None:
        pm = np.asarray(platform_mask).astype(bool, copy=False)
        img[pm, 0] = (gray[pm] + 255) // 2
        img[pm, 1] = gray[pm] // 2
        img[pm, 2] = gray[pm] // 2
    if census is not None:
        h, w = gray.shape
        for rec in census.records:
            r = int(round(rec.centroid_px[0]))
            c = int(round(rec.centroid_px[1]))
            for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    img[rr, cc] = _CROSS_COLOR

    data = img.astype(np.uint8)
    header = f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def dispatch(argv) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help exits argparse directly
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        handler = {
            "import": _cmd_import,
            "synth": _cmd_synth,
            "train-platform": lambda a: _cmd_train(a, binary=True),
            "train-water": lambda a: _cmd_train(a, binary=False),
            "census": _cmd_census,
            "eval": _cmd_eval,
            "render": _cmd_render,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RaftCensusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
