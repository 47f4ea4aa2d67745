"""raft-census command line interface.

Subcommands cover the full workflow: import/normalize a band stack,
generate synthetic scenes, train the two classifiers, run the census,
score it against ground truth, and render an overlay image. Exit codes:
0 success, 1 usage error, 2 data error.

All randomness is seeded through flags, so identical invocations
produce byte-identical output files. The census is single-threaded;
pixels are scored in row windows, by the rule ``mlp.threshold_planes``
describes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, mlp
from .bandstack import (
    BandId,
    BandStack,
    GeoRef,
    load_band_stack,
    read_manifest,
    read_pgm16,
    save_band_stack,
)
from .blobs import BlobFilter
from .errors import DimensionError, RaftCensusError
from .evaluation import (
    DEFAULT_MAX_MATCH_DIST,
    compute_rates,
    format_report,
    match_centroids,
    report_to_json,
)
from .morphology import BitMask
from .pipeline import (
    PLATFORM_THRESHOLD_DEFAULT,
    Census,
    CensusConfig,
    census_to_csv,
    census_to_geojson,
    run_census,
    run_pipeline,
)
from .waterdetect import DEFAULT_WATER_THRESHOLD, MlpWater, NdwiOtsu, water_mask_ndwi

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
    p.add_argument("--width", type=int, default=datasets.SynthParams.width)
    p.add_argument("--height", type=int, default=datasets.SynthParams.height)
    p.add_argument("--rafts", type=int, default=datasets.SynthParams.raft_count)
    p.add_argument("--raft-size", type=int, choices=(2, 3),
                   default=datasets.SynthParams.raft_size_px)
    p.add_argument("--noise-sigma", type=float, default=datasets.SynthParams.noise_sigma)
    p.add_argument("--seed", type=int, default=datasets.SynthParams.seed)
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
        p.add_argument("--epochs", type=int, default=mlp.TrainConfig.max_epochs)
        p.add_argument("--lr", type=float, default=mlp.TrainConfig.learning_rate)
        p.add_argument("--momentum", type=float, default=mlp.TrainConfig.momentum)
        p.add_argument("--target-loss", type=float, default=mlp.TrainConfig.target_loss)
        p.add_argument("--seed", type=int, default=mlp.TrainConfig.seed)

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


def _check_water_flags(args) -> None:
    """Reject a ``--water-method``/``--water-model`` mismatch, a usage error,
    before any file is read."""
    if args.water_method == "mlp" and not args.water_model:
        raise _UsageError("--water-method mlp requires --water-model")
    if args.water_method != "mlp" and args.water_model:
        raise _UsageError("--water-model requires --water-method mlp")


def _check_out_dir(out, inputs=()) -> list:
    """Reject an output file path that is a directory, lies in a missing
    directory or is one of ``inputs``, (name, path) pairs iterated only once
    the directory checks pass: a data error, before any file is written. An
    output that exists is the same file as an input when both name one
    device and inode (a hard link, too); one that does not yet exist, when
    it resolves to the input's path. Returns the pairs, to check a further
    output."""
    if out is None:
        return []
    out = Path(out)
    if out.is_dir():
        raise RaftCensusError(f"output path {out} is a directory")
    if not out.parent.is_dir():
        raise RaftCensusError(f"output directory {out.parent} does not exist")
    inputs, target = list(inputs), out.resolve()
    for name, path in inputs:
        if Path(path).resolve() == target or _same_file(out, path):
            raise RaftCensusError(f"output path {out} is also the {name} file {path}")
    return inputs


def _same_file(a, b) -> bool:
    """Whether the paths ``a`` and ``b`` both exist and are one file."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _inputs(args):
    """(name, path) of every input file of the command: those its flags
    name and, for a manifest, every band file the manifest names."""
    for flag in ("census", "truth", "data", "correction", "platform_model", "water_model",
                 "manifest"):
        if getattr(args, flag, None):
            yield "--" + flag.replace("_", "-"), getattr(args, flag)
    if getattr(args, "manifest", None):
        for band, path in read_manifest(args.manifest)[1].items():
            yield f"band {band.value}", path


def _census_config(args) -> CensusConfig:
    platform_model = mlp.load_model(args.platform_model)
    if args.water_method == "mlp":
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
    out = Path(args.out)
    centroids = datasets.write_synthetic_scene(params, out)
    print(f"synthesized scene with {len(centroids)} rafts -> {out / 'manifest.json'}")
    return 0


def _training_data(args, binary: bool) -> datasets.LabeledPixels:
    if args.data:
        return datasets.load_labeled_csv(args.data)
    if getattr(args, "manifest", None):
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
    if getattr(args, "correction", None) and not args.manifest:
        raise _UsageError("--correction requires --manifest")
    _check_out_dir(args.out, _inputs(args))
    cfg = mlp.TrainConfig(
        max_epochs=args.epochs,
        target_loss=args.target_loss,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
    )
    data = _training_data(args, binary)
    layers = mlp.PLATFORM_LAYERS if binary else (10, args.hidden, len(data.class_names))
    model = mlp.init_model(layers, seed=args.seed)
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
    _check_water_flags(args)
    inputs = _check_out_dir(args.out, _inputs(args))
    stack = load_band_stack(args.manifest)
    out = Path(args.out)
    geo_path = out.with_suffix(".geojson")
    if stack.geo is not None:  # the GeoJSON goes beside the CSV
        _check_out_dir(geo_path, [("--out", out), *inputs])
    cfg = _census_config(args)
    census = run_census(stack, cfg, source=Path(args.manifest).name)
    out.write_text(census_to_csv(census))
    message = f"census: {census.count} platforms -> {out}"
    if stack.geo is not None:
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
    _check_out_dir(args.out, _inputs(args))
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
    _check_water_flags(args)
    _check_out_dir(args.out, _inputs(args))
    stack = load_band_stack(args.manifest)
    cfg = _census_config(args)
    result = run_pipeline(stack, cfg, source=Path(args.manifest).name)
    render_overlay(stack, result.water_mask, result.platform_mask, result.census, args.out)
    print(f"rendered overlay with {result.census.count} detections -> {args.out}")
    return 0


def render_overlay(
    stack: BandStack,
    water_mask,
    platform_mask,
    census: Census | None,
    path,
) -> None:
    """Write an 8-bit PPM: green-band grayscale, water tinted blue,
    platform pixels tinted red, census centroids marked with 3x3
    yellow crosses. Pure integer arithmetic, so output bytes are a
    function of the inputs only.

    The masks are BitMasks or 2-D arrays (nonzero is True, packed into a
    BitMask), or None. After one pass for B3's range, the image is built
    and written one ``BandStack.windows`` row window at a time, reading
    each mask's rows of that window (``BitMask.rows``); a cross spanning
    two windows is drawn in each.
    """
    lo, hi = np.inf, -np.inf
    for _, _, block in stack.windows((BandId.B3,)):
        g = block[BandId.B3]
        lo, hi = min(lo, float(g.min())), max(hi, float(g.max()))
    h, w = stack.height, stack.width
    masks = [None if m is None else BitMask.pack(m) for m in (water_mask, platform_mask)]
    for mask in masks:
        if mask is not None and mask.shape != (h, w):
            raise DimensionError(f"mask of shape {mask.shape} for a {h}x{w} stack")
    marks = []
    if census is not None:
        for rec in census.records:
            r = int(round(rec.centroid_px[0]))
            c = int(round(rec.centroid_px[1]))
            for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= r + dr < h and 0 <= c + dc < w:
                    marks.append((r + dr, c + dc))
    marks = np.array(marks, dtype=np.int64).reshape(-1, 2)

    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        for r0, r1, block in stack.windows((BandId.B3,)):
            gray = np.zeros((r1 - r0, w), dtype=np.uint8)
            if hi > lo:
                gray[:] = np.rint(255.0 * (block[BandId.B3] - lo) / (hi - lo))
            img = np.stack([gray, gray, gray], axis=-1)
            # Masked copies, not boolean indexing, which would build index arrays.
            half = gray // 2
            tint = gray - half
            tint += 127  # (gray + 255) // 2, within uint8
            for mask, colors in zip(masks, ((half, half, tint), (tint, half, half))):
                if mask is not None:
                    where = mask.rows(r0, r1)
                    for k, value in enumerate(colors):
                        np.copyto(img[..., k], value, where=where)
            here = marks[(marks[:, 0] >= r0) & (marks[:, 0] < r1)]
            img[here[:, 0] - r0, here[:, 1]] = _CROSS_COLOR
            f.write(img)


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
