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
summation order written over whole arrays. The whole-plane band load and
NDWI mask are the library's former formulations, which scaled and
upsampled every band to a float64 plane up front, and the GeoJSON and
eval-report references are the former ``json.dumps`` exports. Raft
placement tests each candidate against every raft placed so far, and the
band writer reduces 20 m bands with ``mean`` and scales into fresh
arrays, as the library once did. The library must match all of these
bit for bit.
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
    PIXEL_SIZE_M,
    BandId,
    BandStack,
    GeoRef,
    read_pgm16,
    resample_plane,
)
from raftcensus.blobs import Blob, _convex_area
from raftcensus.datasets import _RAFT_COAST_MARGIN_PX, _RAFT_GAP_PX, _border_width
from raftcensus.errors import DatasetError
from raftcensus.evaluation import MatchPair
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


def ref_bilinear_gathers(p: np.ndarray, factor: int) -> np.ndarray:
    """Pixel-center bilinear upsampling from four whole-output gathers."""
    p = np.asarray(p, dtype=np.float64)
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
    planes = {}
    for band in BandId:
        plane = read_pgm16(manifest_path.parent / manifest["bands"][band.value])
        plane = plane.astype(np.float64) / DN_SCALE
        planes[band] = plane if band.native_resolution_m == 10 else resample_plane(plane, 2)
    geo = manifest.get("geo")
    if geo is not None:
        geo = GeoRef(float(geo["origin_easting"]), float(geo["origin_northing"]), str(geo["crs"]))
    h, w = planes[BandId.B2].shape
    return BandStack(width=w, height=h, pixel_size=PIXEL_SIZE_M, planes=planes, geo=geo)


def ref_water_mask_ndwi(s: BandStack) -> np.ndarray:
    """NDWI, bins, histogram and Otsu threshold over whole planes."""
    bins = quantize_ndwi(compute_ndwi(s.planes[BandId.B3], s.planes[BandId.B8]))
    return bins > ref_otsu(np.bincount(bins.ravel(), minlength=NDWI_BINS))


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


def ref_save_band_stack(stack: BandStack, out_dir) -> None:
    """Band PGMs and manifest: 20 m bands reduced by a 2x2 block ``mean``,
    then every band scaled, rounded and clipped into fresh arrays."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bands_entry = {}
    for band in BandId:
        plane = stack.planes[band]
        if band.native_resolution_m == 20:
            h, w = plane.shape
            plane = plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        dn = np.clip(np.rint(plane * DN_SCALE), 0, 65535).astype(np.uint16)
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


# --- pixel scoring --------------------------------------------------------

def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function split by sign, so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward_batch(m, x: np.ndarray) -> np.ndarray:
    """(n, n_out) network outputs for an (n, n_in) batch.

    Each unit sums its weighted inputs over whole columns, left to right
    from the first input, then adds its bias:
    ((w_0 x_0 + w_1 x_1) + w_2 x_2 + ...) + b.
    """
    def layer(w, b, a):
        z = a[:, :1] * w[:, 0]
        for k in range(1, a.shape[1]):
            z = z + a[:, k : k + 1] * w[:, k]
        return ref_sigmoid(z + b)

    x = np.asarray(x, dtype=np.float64)
    return layer(m.weights[1], m.biases[1], layer(m.weights[0], m.biases[0], x))


def ref_whole_image_mask(m, planes, out_index: int, thr: float) -> np.ndarray:
    """Score every pixel from one (H * W, n_in) copy of the whole stack."""
    h, w = planes[m.feature_order[0]].shape
    x = np.stack([planes[b] for b in m.feature_order], axis=-1).reshape(-1, m.n_in)
    return (ref_forward_batch(m, x)[:, out_index] >= thr).reshape(h, w)


def ref_gather_mask(m, planes, out_index: int, thr: float, where: np.ndarray) -> np.ndarray:
    """Gather the ``where`` pixels, score only them, scatter the hits."""
    out = np.zeros(where.shape, dtype=bool)
    rows, cols = np.nonzero(where)
    if len(rows) == 0:
        return out
    x = np.stack([planes[b][rows, cols] for b in m.feature_order], axis=1)
    hits = ref_forward_batch(m, x)[:, out_index] >= thr
    out[rows[hits], cols[hits]] = True
    return out
