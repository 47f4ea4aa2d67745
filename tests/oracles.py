"""Independent reference implementations used to cross-check the library.

Everything here is written from the operation definitions, not from the
library code: morphology walks pixel neighborhoods via coordinate sets,
the Otsu reference recomputes between-class variance from prefix sums
with exact integer arithmetic, Euler numbers come from flood-filling
enclosed background, solidity from Qhull half-space containment, and
matching from exhaustive assignment search. The four-gather resampling,
all-pairs matching, flood-fill labeling and per-blob feature references
are the plain formulations the library once used (the feature reference
keeps the library's exact hull, ``_convex_area``, which the Qhull
reference checks), and the pixel-scoring reference is the library's
summation order written over whole arrays; its loaded-stack form sums
each hidden unit's 20 m terms over whole native planes and upsamples the
sums with the four-gather reference. The whole-plane band load and
NDWI mask are the library's former formulations, which scaled and
upsampled every band to a float64 plane up front, and the GeoJSON and
eval-report references are the former ``json.dumps`` exports. Raft
placement tests each candidate against every raft placed so far, and the
band writer reduces 20 m bands with ``mean`` and scales into fresh
arrays, as the library once did. The scene generator gathers class means
into whole float64 planes and draws each band's noise in one ``normal``
call, and ``ref_quantized_scene`` takes those planes through the band
writer's quantization and the loader's scaling and upsampling, which is
what the library's generated stack holds. The PGM reader parses a
whole-file copy, and the overlay renders from B3's whole plane: the
library's former code. The library must match
all of these bit for bit.

The long-double output pre-activations (``ref_preactivations`` of
``ref_real_planes``) are the real-valued computation that the float32
screen's error bounds are stated against, not a bitwise reference.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from raftcensus.bandstack import (
    DN_SCALE,
    FEATURE_ORDER,
    PIXEL_SIZE_M,
    BandId,
    BandStack,
    GeoRef,
    read_pgm16,
    write_pgm16,
)
from raftcensus.blobs import Blob, _convex_area
from raftcensus.datasets import (
    _RAFT_COAST_MARGIN_PX,
    _RAFT_GAP_PX,
    WATER_CLASS_NAMES,
    SceneTruth,
    _border_width,
    load_spectra,
)
from raftcensus.errors import DatasetError, PgmError
from raftcensus.evaluation import MatchPair
from raftcensus.mlp import MlpModel
from raftcensus.waterdetect import NDWI_BINS, compute_ndwi, quantize_ndwi


# --- morphology -----------------------------------------------------------

def ref_erode(m: np.ndarray, offsets) -> np.ndarray:
    """Definition: output true iff every offset neighbor is true."""
    fg = {(int(r), int(c)) for r, c in zip(*np.nonzero(m))}
    out = np.zeros(m.shape, dtype=bool)
    for r, c in fg:
        if all((r + dy, c + dx) in fg for dy, dx in offsets):
            out[r, c] = True
    return out


def ref_dilate(m: np.ndarray, offsets) -> np.ndarray:
    """Definition: output true iff any offset neighbor is true."""
    h, w = m.shape
    out = np.zeros(m.shape, dtype=bool)
    for r, c in zip(*np.nonzero(m)):
        for dy, dx in offsets:
            rr, cc = int(r) - dy, int(c) - dx
            if 0 <= rr < h and 0 <= cc < w:
                out[rr, cc] = True
    return out


def ref_open(m, offsets):
    return ref_dilate(ref_erode(m, offsets), offsets)


def ref_close(m, offsets):
    return ref_erode(ref_dilate(m, offsets), offsets)


def ref_bottom_hat(m, offsets):
    return ref_close(m, offsets) & ~np.asarray(m, dtype=bool)


# --- otsu -----------------------------------------------------------------

def ref_otsu(counts) -> int:
    """Exhaustive scan of all 255 splits with exact integer arithmetic.

    Maximizes w0*w1*(mu0-mu1)^2 = (s0*n1 - s1*n0)^2 / (n0*n1) up to a
    constant; ties resolve to the smallest t.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    n_prefix = list(itertools.accumulate(counts))
    s_prefix = list(itertools.accumulate(i * c for i, c in enumerate(counts)))
    best_t, best_num, best_den = -1, -1, 1
    for t in range(len(counts) - 1):
        n0 = n_prefix[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s0 = s_prefix[t]
        s1 = s_prefix[-1] - s0
        num = (s0 * n1 - s1 * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


# --- connected components / blob features ----------------------------------

def ref_label_partition(m: np.ndarray) -> set[frozenset]:
    """8-connected components as a set of pixel sets, via flood fill."""
    m = np.asarray(m, dtype=bool)
    h, w = m.shape
    seen = np.zeros_like(m)
    parts = set()
    for r0, c0 in zip(*np.nonzero(m)):
        if seen[r0, c0]:
            continue
        stack = [(int(r0), int(c0))]
        seen[r0, c0] = True
        comp = []
        while stack:
            r, c = stack.pop()
            comp.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and m[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
        parts.add(frozenset(comp))
    return parts


def ref_euler(pixels: np.ndarray, bbox) -> int:
    """1 - number of 4-connected background regions not touching the
    padded window border."""
    r0, c0, r1, c1 = bbox
    h, w = r1 - r0 + 3, c1 - c0 + 3
    win = np.zeros((h, w), dtype=bool)
    win[pixels[:, 0] - r0 + 1, pixels[:, 1] - c0 + 1] = True
    bg = ~win
    seen = np.zeros_like(bg)
    holes = 0
    for sr in range(h):
        for sc in range(w):
            if not bg[sr, sc] or seen[sr, sc]:
                continue
            q = deque([(sr, sc)])
            seen[sr, sc] = True
            touches_border = False
            while q:
                r, c = q.popleft()
                if r in (0, h - 1) or c in (0, w - 1):
                    touches_border = True
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bg[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        q.append((rr, cc))
            if not touches_border:
                holes += 1
    return 1 - holes


def ref_convex_area(pixels: np.ndarray, bbox) -> int:
    """Qhull hull of pixel corner points; centers counted by half-space
    containment with a tolerance far below the coordinate granularity."""
    from scipy.spatial import ConvexHull

    corners = set()
    for r, c in pixels:
        for dr in (0, 1):
            for dc in (0, 1):
                corners.add((int(r) + dr, int(c) + dc))
    hull = ConvexHull(np.array(sorted(corners), dtype=float))
    eqs = hull.equations
    r0, c0, r1, c1 = bbox
    count = 0
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            p = np.array([r + 0.5, c + 0.5])
            if np.all(eqs[:, :2] @ p + eqs[:, 2] <= 1e-9):
                count += 1
    return count



# The flood-fill labeling and per-blob feature code the library used
# before it moved to run-length union-find and batched bit-quads, kept
# unchanged; the library must match them field for field.

_NEIGHBORS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def ref_label_components(m: np.ndarray) -> list[Blob]:
    """8-connected components in deterministic row-major label order.

    Labels are dense 1..N, assigned by each component's first pixel in
    row-major scan order. Returned blobs carry pixels, area, centroid,
    and bbox; their geometric features are left unset.
    """
    m = np.asarray(m)
    starts = list(zip(*(a.tolist() for a in np.nonzero(m))))
    # Unreached foreground pixels; a pixel leaves the set when a fill
    # reaches it, so out-of-image neighbours are never members.
    fg = set(starts)
    blobs: list[Blob] = []
    for start in starts:
        if start not in fg:
            continue
        fg.remove(start)
        pixels = [start]
        for r, c in pixels:  # breadth-first: the list grows while it is read
            for dr, dc in _NEIGHBORS8:
                p = (r + dr, c + dc)
                if p in fg:
                    fg.remove(p)
                    pixels.append(p)
        pixels.sort()
        px = np.array(pixels, dtype=np.int64)
        blobs.append(
            Blob(
                label=len(blobs) + 1,
                pixels=px,
                area=len(px),
                centroid=(float(px[:, 0].mean()), float(px[:, 1].mean())),
                bbox=(
                    int(px[:, 0].min()),
                    int(px[:, 1].min()),
                    int(px[:, 0].max()),
                    int(px[:, 1].max()),
                ),
            )
        )
    return blobs


def _ref_window_euler(window: np.ndarray) -> int:
    """Euler number (components - holes) of an 8-connected foreground.

    ``window`` is a bool image whose border rows and columns are empty.
    Bit-quad counting over all its 2x2 windows:
    E = (Q1 - Q3 - 2*Qd) / 4 with Qd the two diagonal patterns.
    """
    p = window.view(np.int8)
    a = p[:-1, :-1]
    b = p[:-1, 1:]
    c = p[1:, :-1]
    d = p[1:, 1:]
    s = a + b + c + d
    q1 = int((s == 1).sum())
    q3 = int((s == 3).sum())
    qd = int((((a == 1) & (d == 1) & (b == 0) & (c == 0)) | ((b == 1) & (c == 1) & (a == 0) & (d == 0))).sum())
    return (q1 - q3 - 2 * qd) // 4


def ref_compute_features(b: Blob) -> Blob:
    """Blob with equivalent_diameter, euler_number, convex_area, solidity,
    measured one blob at a time with an exact hull for every blob."""
    r0, c0, r1, c1 = b.bbox
    # The bbox plus a one-pixel empty margin, as _ref_window_euler needs.
    window = np.zeros((r1 - r0 + 3, c1 - c0 + 3), dtype=bool)
    window[b.pixels[:, 0] - (r0 - 1), b.pixels[:, 1] - (c0 - 1)] = True
    convex_area = _convex_area(b.pixels, b.bbox)
    return replace(
        b,
        equivalent_diameter=math.sqrt(4.0 * b.area / math.pi),
        euler_number=_ref_window_euler(window),
        convex_area=convex_area,
        solidity=b.area / convex_area,
    )


# --- matching ---------------------------------------------------------------

def ref_max_matching_count(detections, truths, max_dist: float) -> int:
    """Maximum-cardinality matching within the gate, by exhaustive search."""
    n, k = len(detections), len(truths)
    ok = [
        [
            math.hypot(d[1] - t[0], d[2] - t[1]) <= max_dist
            for t in truths
        ]
        for d in detections
    ]
    best = 0
    order = list(range(k))
    for r in range(min(n, k), 0, -1):
        if r <= best:
            break
        for dsel in itertools.combinations(range(n), r):
            found = False
            for tperm in itertools.permutations(order, r):
                if all(ok[d][t] for d, t in zip(dsel, tperm)):
                    found = True
                    break
            if found:
                best = r
                break
        if best == r:
            break
    return best


def ref_match_all_pairs(detections, truths, max_dist: float) -> list:
    """Greedy one-to-one matching after the exact test on every pair."""
    pairs = []
    for di, (_, dr, dc) in enumerate(detections):
        for ti, (tr, tc) in enumerate(truths):
            d = math.hypot(dr - tr, dc - tc)
            if d <= max_dist:
                pairs.append((d, di, ti))
    pairs.sort()
    used_det: set[int] = set()
    used_truth: set[int] = set()
    matches = []
    for d, di, ti in pairs:
        if di in used_det or ti in used_truth:
            continue
        used_det.add(di)
        used_truth.add(ti)
        matches.append(MatchPair(detections[di][0], ti, d))
    return matches


# --- interpolation -----------------------------------------------------------

def ref_bilinear(p: np.ndarray, factor: int) -> np.ndarray:
    """Direct per-pixel evaluation of the pixel-center bilinear formula."""
    p = np.asarray(p, dtype=float)
    h, w = p.shape
    out = np.empty((h * factor, w * factor))
    for i in range(h * factor):
        y = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(y))
        y1 = min(y0 + 1, h - 1)
        fy = y - y0
        for j in range(w * factor):
            x = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(x))
            x1 = min(x0 + 1, w - 1)
            fx = x - x0
            out[i, j] = (
                p[y0, x0] * (1 - fy) * (1 - fx)
                + p[y0, x1] * (1 - fy) * fx
                + p[y1, x0] * fy * (1 - fx)
                + p[y1, x1] * fy * fx
            )
    return out


def ref_bilinear_gathers(p: np.ndarray, factor: int, dtype=np.float64) -> np.ndarray:
    """Pixel-center bilinear upsampling from four whole-output gathers, in
    ``dtype`` (float64 or wider)."""
    p = np.asarray(p, dtype=dtype)
    h, w = p.shape

    def axis_coords(n_out, n_in):
        x = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(x).astype(int)
        return lo, np.minimum(lo + 1, n_in - 1), x - lo

    r0, r1, fy = axis_coords(h * factor, h)
    c0, c1, fx = axis_coords(w * factor, w)
    fy = fy[:, None]
    fx = fx[None, :]
    top = p[r0][:, c0] * (1 - fx) + p[r0][:, c1] * fx
    bot = p[r1][:, c0] * (1 - fx) + p[r1][:, c1] * fx
    return top * (1 - fy) + bot * fy


# --- whole-plane band load and NDWI --------------------------------------------

def ref_load_band_stack(manifest_path) -> BandStack:
    """Every band read, divided by DN_SCALE and, for 20 m bands, upsampled
    to a whole float64 plane on load (well-formed manifests only)."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    planes = ref_scaled_planes({
        band: read_pgm16(manifest_path.parent / manifest["bands"][band.value])
        for band in BandId
    })
    geo = manifest.get("geo")
    if geo is not None:
        geo = GeoRef(float(geo["origin_easting"]), float(geo["origin_northing"]), str(geo["crs"]))
    h, w = planes[BandId.B2].shape
    return BandStack(width=w, height=h, pixel_size=PIXEL_SIZE_M, planes=planes, geo=geo)


def ref_scaled_planes(dn: dict) -> dict:
    """Float64 planes on the 10 m grid from each band's digital numbers at
    its native resolution: DN / DN_SCALE, and for 20 m bands that
    upsampled by ``ref_bilinear_gathers``."""
    planes = {}
    for band, x in dn.items():
        x = x.astype(np.float64) / DN_SCALE
        planes[band] = x if band.native_resolution_m == 10 else ref_bilinear_gathers(x, 2)
    return planes


def ref_water_mask_ndwi(s: BandStack) -> np.ndarray:
    """NDWI, bins, histogram and Otsu threshold over whole planes."""
    bins = quantize_ndwi(compute_ndwi(s.planes[BandId.B3], s.planes[BandId.B8]))
    return bins > ref_otsu(np.bincount(bins.ravel(), minlength=NDWI_BINS))


def ref_read_pgm16(path) -> np.ndarray:
    """The whole file read into bytes, the header parsed from them, and
    the raster copied out of them by ``astype``."""
    data = Path(path).read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmError(f"{path}: truncated header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise PgmError(f"{path}: bad header field") from exc
    if width <= 0 or height <= 0:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 65535:
        raise PgmError(f"{path}: maxval must be 65535, got {maxval}")
    pos += 1
    expected = width * height * 2
    raster = memoryview(data)[pos : pos + expected]
    if len(raster) != expected:
        raise PgmError(f"{path}: expected {expected} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=">u2").reshape(height, width).astype(np.uint16)


def ref_render_overlay(stack, water_mask, platform_mask, census, path) -> None:
    """The overlay from B3's whole float plane, with an int32 image."""
    g = stack.rows(0, stack.height, (BandId.B3,))[BandId.B3]
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
                    img[rr, cc] = (255, 255, 0)
    data = img.astype(np.uint8)
    header = f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


# --- export ---------------------------------------------------------------------

def ref_census_to_geojson(census, crs=None) -> str:
    """The census as a FeatureCollection dict, dumped by ``json.dumps``."""
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "Point",
                "coordinates": [rec.centroid_geo[0], rec.centroid_geo[1]],
            },
            "properties": {"id": rec.id, "area_px": rec.area_px, "bbox": list(rec.bbox)},
        }
        for rec in census.records
    ]
    payload = {
        "type": "FeatureCollection",
        "features": features,
        "properties": {
            "count": census.count,
            "source": census.source,
            "config_digest": census.config_digest,
            **({"crs": crs} if crs else {}),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def ref_report_to_json(report) -> str:
    """The eval report as a dict, dumped by ``json.dumps``."""
    payload = {
        "tfa_percent": report.tfa_percent,
        "tfr_percent": report.tfr_percent,
        "true_positives": report.true_positives,
        "false_detections": report.false_detections,
        "missed": report.missed,
        "total_detections": report.total_detections,
        "total_platforms": report.total_platforms,
        "no_detections": report.no_detections,
        "no_platforms": report.no_platforms,
        "matches": [
            {
                "detection_id": m.detection_id,
                "truth_index": m.truth_index,
                "distance_px": m.distance_px,
            }
            for m in report.matches
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def ref_dn_planes(stack: BandStack) -> dict:
    """Each band's digital numbers at its native resolution, uint16: 20 m
    bands reduced by a 2x2 block ``mean``, then every band scaled, rounded
    and clipped into fresh arrays."""
    dn = {}
    for band, plane in stack.rows(0, stack.height, BandId).items():
        if band.native_resolution_m == 20:
            h, w = plane.shape
            plane = plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        dn[band] = np.clip(np.rint(plane * DN_SCALE), 0, 65535).astype(np.uint16)
    return dn


def ref_save_band_stack(stack: BandStack, out_dir) -> None:
    """Band PGMs of ``ref_dn_planes``, and the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bands_entry = {}
    for band, dn in ref_dn_planes(stack).items():
        name = f"{band.value.lower()}.pgm"
        h, w = dn.shape
        header = f"P5\n{w} {h}\n65535\n".encode("ascii")
        (out_dir / name).write_bytes(header + dn.astype(">u2").tobytes())
        bands_entry[band.value] = name
    manifest: dict = {"bands": bands_entry}
    if stack.geo is not None:
        manifest["geo"] = {
            "origin_easting": stack.geo.origin_easting,
            "origin_northing": stack.geo.origin_northing,
            "crs": stack.geo.crs,
        }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- synthetic scenes -------------------------------------------------------

def ref_place_rafts(params, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Raft corners drawn one by one; each candidate is tested against
    every raft placed so far."""
    border = _border_width(params.width, params.height)
    size = params.raft_size_px
    lo_r = border + _RAFT_COAST_MARGIN_PX
    lo_c = border + _RAFT_COAST_MARGIN_PX
    hi_r = params.height - border - _RAFT_COAST_MARGIN_PX - size
    hi_c = params.width - border - _RAFT_COAST_MARGIN_PX - size
    if params.raft_count and (hi_r < lo_r or hi_c < lo_c):
        raise DatasetError("rafts do not fit: water region too small")
    corners: list[tuple[int, int]] = []
    attempts = 0
    while len(corners) < params.raft_count:
        attempts += 1
        if attempts > 1000 * max(params.raft_count, 1):
            raise DatasetError(
                f"rafts do not fit: placed {len(corners)} of {params.raft_count}"
            )
        r = int(rng.integers(lo_r, hi_r + 1))
        c = int(rng.integers(lo_c, hi_c + 1))
        if all(
            abs(r - rr) >= size + _RAFT_GAP_PX or abs(c - cc) >= size + _RAFT_GAP_PX
            for rr, cc in corners
        ):
            corners.append((r, c))
    return corners


def ref_generate_synthetic_scene(params):
    """(stack, truth) with whole float64 planes: class means gathered
    through the class map, then one ``normal`` draw per band, added and
    clipped at zero into fresh planes."""
    spectra = params.spectra if params.spectra is not None else load_spectra()
    rng = np.random.default_rng(params.seed)
    h, w = params.height, params.width
    border = _border_width(w, h)
    class_map = np.zeros((h, w), dtype=np.int8)
    class_map[border : h - border, border : w - border] = 2
    centroids = []
    size = params.raft_size_px
    for r, c in ref_place_rafts(params, rng):
        class_map[r : r + size, c : c + size] = 1
        centroids.append((r + (size - 1) / 2.0, c + (size - 1) / 2.0))
    means = np.stack([spectra[name] for name in WATER_CLASS_NAMES])
    planes = {}
    for i, band in enumerate(BandId):
        plane = means[class_map, i]
        if params.noise_sigma > 0:
            plane = plane + rng.normal(0.0, params.noise_sigma, size=(h, w))
            plane = np.maximum(plane, 0.0)
        planes[band] = plane
    stack = BandStack(width=w, height=h, pixel_size=PIXEL_SIZE_M, planes=planes, geo=params.geo)
    truth = SceneTruth(tuple(centroids), class_map)
    return stack, truth


def ref_quantized_scene(params):
    """(stack, truth): the float64 planes of ``ref_generate_synthetic_scene``
    as its saved and loaded twin reads them, ``ref_scaled_planes`` of
    ``ref_dn_planes``, in a float-plane stack."""
    stack, truth = ref_generate_synthetic_scene(params)
    planes = ref_scaled_planes(ref_dn_planes(stack))
    return replace(stack, planes=planes), truth


def ref_write_synthetic_scene(params, out_dir) -> None:
    """The files of the ``synth`` command: the whole-plane scene saved by
    ``ref_save_band_stack``, whole truth masks, and truth.json."""
    stack, truth = ref_generate_synthetic_scene(params)
    ref_save_band_stack(stack, out_dir)
    out_dir = Path(out_dir)
    for name, mask in (("truth_water.pgm", truth.water_mask), ("truth_rafts.pgm", truth.raft_mask)):
        dn = mask.astype(np.uint16) * 65535
        header = f"P5\n{dn.shape[1]} {dn.shape[0]}\n65535\n".encode("ascii")
        (out_dir / name).write_bytes(header + dn.astype(">u2").tobytes())
    payload = {
        "raft_centroids": [[r, c] for r, c in truth.raft_centroids],
        "raft_count": len(truth.raft_centroids),
        "raft_size_px": params.raft_size_px,
        "seed": params.seed,
        "width": params.width,
        "height": params.height,
    }
    (out_dir / "truth.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- pixel scoring --------------------------------------------------------

def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function split by sign, so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_layer(w, b, a):
    """Sigmoid units over whole columns: ((w_0 a_0 + w_1 a_1) + w_2 a_2 + ...) + b."""
    z = a[:, :1] * w[:, 0]
    for k in range(1, a.shape[1]):
        z = z + a[:, k : k + 1] * w[:, k]
    return ref_sigmoid(z + b)


def ref_forward_batch(m, x: np.ndarray) -> np.ndarray:
    """(n, n_out) network outputs for an (n, n_in) batch.

    Each unit sums its weighted inputs over whole columns, left to right
    in feature order, then adds its bias.
    """
    x = np.asarray(x, dtype=np.float64)
    hidden = _ref_layer(m.weights[0], m.biases[0], x)
    return _ref_layer(m.weights[1], m.biases[1], hidden)


def ref_folded_sums(w: np.ndarray, manifest_path) -> np.ndarray:
    """(len(w), H, W) weighted band sums of a saved stack, from its whole
    native planes divided by DN_SCALE. Sum j adds w[j, k] times band
    FEATURE_ORDER[k]: the 20 m terms, in that order, summed on the 20 m grid
    and upsampled by ``ref_bilinear_gathers``, then the 10 m terms, in order."""
    order = FEATURE_ORDER
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    native = {b: read_pgm16(manifest_path.parent / manifest["bands"][b.value]).astype(np.float64)
              / DN_SCALE for b in order}
    coarse = [k for k, b in enumerate(order) if b.native_resolution_m == 20]
    fine = [k for k, b in enumerate(order) if b.native_resolution_m == 10]
    sums = []
    for wj in w:
        s = native[order[coarse[0]]] * wj[coarse[0]]
        for k in coarse[1:]:
            s = s + native[order[k]] * wj[k]
        z = ref_bilinear_gathers(s, 2)
        for k in fine:
            z = z + native[order[k]] * wj[k]
        sums.append(z)
    return np.stack(sums)


def write_dn_scene(tmp_path, h, w, dn_of) -> Path:
    """Manifest path of ten PGMs at native resolution, written to the
    directory ``tmp_path`` with the DN of ``dn_of(band, shape)``: test
    input for the loaders, not a reference."""
    tmp_path = Path(tmp_path)
    bands = {}
    for b in BandId:
        shape = (h, w) if b.native_resolution_m == 10 else (h // 2, w // 2)
        write_pgm16(tmp_path / f"{b.value}.pgm", dn_of(b, shape))
        bands[b.value] = f"{b.value}.pgm"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"bands": bands}))
    return path


def ref_real_planes(manifest_path) -> dict:
    """Every band of a saved stack as its real inputs on the 10 m grid, up
    to long double rounding: DN / DN_SCALE, and for 20 m bands that
    upsampled by ``ref_bilinear_gathers``, all in long double."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    planes = {}
    for band in BandId:
        dn = read_pgm16(manifest_path.parent / manifest["bands"][band.value])
        x = dn.astype(np.longdouble) / np.longdouble(DN_SCALE)
        planes[band] = x if band.native_resolution_m == 10 else ref_bilinear_gathers(
            x, 2, np.longdouble)
    return planes


def ref_preactivations(m, planes, out_index: int) -> np.ndarray:
    """(H, W) pre-activations w2 h + b2 of output ``out_index``, with h =
    1 / (1 + exp(-(w1 x + b1))), all in long double from ``planes``."""
    x = np.stack([np.asarray(planes[b], dtype=np.longdouble) for b in FEATURE_ORDER], axis=-1)
    with np.errstate(over="ignore"):  # exp(-z) = inf gives h = 0
        h = 1 / (1 + np.exp(-(x @ m.weights[0].T.astype(np.longdouble) + m.biases[0])))
    return h @ m.weights[1][out_index].astype(np.longdouble) + m.biases[1][out_index]


def ref_whole_image_mask(m, planes, out_index: int, thr: float) -> np.ndarray:
    """Score every pixel from one (H * W, n_in) copy of the whole stack."""
    h, w = planes[FEATURE_ORDER[0]].shape
    x = np.stack([planes[b] for b in FEATURE_ORDER], axis=-1).reshape(-1, m.n_in)
    return (ref_forward_batch(m, x)[:, out_index] >= thr).reshape(h, w)


def ref_gather_mask(m, planes, out_index: int, thr: float, where: np.ndarray) -> np.ndarray:
    """Gather the ``where`` pixels, score only them, scatter the hits."""
    out = np.zeros(where.shape, dtype=bool)
    rows, cols = np.nonzero(where)
    if len(rows) == 0:
        return out
    x = np.stack([planes[b][rows, cols] for b in FEATURE_ORDER], axis=1)
    hits = ref_forward_batch(m, x)[:, out_index] >= thr
    out[rows[hits], cols[hits]] = True
    return out


# --- training ---------------------------------------------------------------

def _ref_targets(labels: np.ndarray, n_out: int) -> np.ndarray:
    labels = np.asarray(labels)
    if n_out == 1:
        return labels.astype(np.float64)[:, None]
    t = np.zeros((len(labels), n_out))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def ref_loss_grads(weights, biases, x, targets):
    """MSE and its gradient, every array allocated afresh."""
    w1, w2 = weights
    b1, b2 = biases
    h = ref_sigmoid(x @ w1.T + b1)
    y = ref_sigmoid(h @ w2.T + b2)

    n, k = y.shape
    diff = y - targets
    mse = float(np.mean(diff * diff))

    dz2 = (2.0 / (n * k)) * diff * y * (1.0 - y)
    dw2 = dz2.T @ h
    db2 = dz2.sum(axis=0)
    dh = dz2 @ w2
    dz1 = dh * h * (1.0 - h)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return mse, ((dw1, db1), (dw2, db2))


def _ref_mse(weights, biases, x, targets) -> float:
    h = ref_sigmoid(x @ weights[0].T + biases[0])
    y = ref_sigmoid(h @ weights[1].T + biases[1])
    return float(np.mean((y - targets) ** 2))


def ref_train(m, x, labels, cfg):
    """(best model, training-loss history): full-batch gradient descent with
    momentum on a shuffled train/val/test split, early stop on the
    validation loss (the training loss when the validation split is empty)."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    perm = np.random.default_rng(cfg.seed).permutation(len(x))
    n_val = int(len(x) * cfg.split[1])
    n_test = int(len(x) * cfg.split[2])
    n_train = len(x) - n_val - n_test
    idx_train, idx_val = perm[:n_train], perm[n_train : n_train + n_val]
    x_train = x[idx_train]
    t_train = _ref_targets(labels[idx_train], m.n_out)
    x_val = x[idx_val]
    t_val = _ref_targets(labels[idx_val], m.n_out) if len(idx_val) else None

    weights = [w.copy() for w in m.weights]
    biases = [b.copy() for b in m.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    def snapshot():
        return MlpModel(m.layer_sizes, (weights[0].copy(), weights[1].copy()),
                        (biases[0].copy(), biases[1].copy()))

    def monitored_loss():
        if t_val is None:
            return _ref_mse(weights, biases, x_train, t_train)
        return _ref_mse(weights, biases, x_val, t_val)

    history = []
    best = snapshot()
    best_val = monitored_loss()
    for _ in range(cfg.max_epochs):
        loss, grads = ref_loss_grads(weights, biases, x_train, t_train)
        history.append(loss)
        for layer in range(2):
            dw, db = grads[layer]
            vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * dw
            vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * db
            weights[layer] += vel_w[layer]
            biases[layer] += vel_b[layer]
        val = monitored_loss()
        if val < best_val:
            best_val = val
            best = snapshot()
        if val <= cfg.target_loss:
            break
    return best, history
