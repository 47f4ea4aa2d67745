"""Connected components and the geometric features used to vet them.

Foreground uses 8-connectivity, holes (background) 4-connectivity, the
standard complementary pair. Labeling joins horizontal runs of
foreground pixels with a union-find (Wu, Otoo & Suzuki 2009) and never
builds a label image. Features are measured for a whole list of blobs
at once:

- euler_number: 1 - number of enclosed holes, from per-blob counts of
  2x2 bit-quad patterns for 8-connected foreground (Gray 1971).
- convex_area: pixels whose centers lie inside or on the convex hull of
  the blob's pixel corner points (each pixel a closed unit square). The
  hull test runs in doubled integer coordinates, so it is exact. A blob
  that fills its bbox skips the hull: its convex area is its area.
- solidity: area / convex_area, 1.0 for solid rectangles.
- equivalent_diameter: diameter of the circle with the blob's area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import BitMask

__all__ = [
    "Blob",
    "BlobFilter",
    "REJECT_ORDER",
    "label_components",
    "compute_features",
    "filter_blobs",
]

# Four times the Euler number a 2x2 window adds, by bit pattern (1
# top-left, 2 top-right, 4 bottom-left, 8 bottom-right): +1 for one
# pixel, -1 for three, -2 for a diagonal pair (Gray 1971).
_QUAD_EULER4 = np.array([0, 1, 1, 0, 1, 0, -2, -1, 1, -2, 0, -1, 0, -1, -1, 0])


@dataclass(frozen=True)
class Blob:
    """One connected component; geometric features filled lazily."""

    label: int
    pixels: np.ndarray  # (n, 2) int rows of (row, col), row-major order
    area: int
    centroid: tuple[float, float]  # (row, col)
    bbox: tuple[int, int, int, int]  # (r0, c0, r1, c1), inclusive
    equivalent_diameter: float | None = None
    euler_number: int | None = None
    convex_area: int | None = None
    solidity: float | None = None


@dataclass(frozen=True)
class BlobFilter:
    """Acceptance gate for platform candidates.

    A blob passes when its area and equivalent diameter are below their
    maxima, the Euler number equals ``required_euler`` (no holes), and
    solidity exceeds the minimum.
    """

    max_area: int = 25
    max_equivalent_diameter: float = 6.0
    min_solidity: float = 0.8
    required_euler: int = 1

    def __post_init__(self):
        if self.max_area <= 0:
            raise ValueError("max_area must be positive")
        if not self.max_equivalent_diameter > 0:  # also rejects NaN
            raise ValueError("max_equivalent_diameter must be positive")
        if not 0.0 < self.min_solidity <= 1.0:
            raise ValueError("min_solidity must be in (0, 1]")


REJECT_ORDER = ("area", "equivalent_diameter", "euler", "solidity")


def label_components(m) -> list[Blob]:
    """8-connected components of a BitMask or a 2-D array (nonzero is
    True, packed into a BitMask), in deterministic row-major label order.

    Labels are dense 1..N, assigned by each component's first pixel in
    row-major scan order. Returned blobs carry pixels, area, centroid,
    and bbox; their geometric features are left unset (filter_blobs
    measures the blobs it needs).

    Works on horizontal runs of foreground pixels, never on a label
    image: each run is joined to the runs it 8-touches in the row above
    by a union-find whose root is always the smaller run index, so a
    component's root is its first run in scan order (Wu, Otoo & Suzuki
    2009). Blob statistics are then segment reductions over the pixels
    grouped by label; integer sums are exact, so each centroid equals
    the mean of its pixel coordinates.
    """
    m = BitMask.pack(m)
    flat = m.flat_indices()
    if flat.size == 0:
        return []
    w = m.width
    rows, cols = np.divmod(flat, w)
    # A run starts where the flat index jumps or a row begins.
    run_start = np.flatnonzero((np.diff(flat, prepend=-2) != 1) | (cols == 0))
    run_len = np.diff(run_start, append=flat.size)
    run_end = run_start + run_len - 1
    # A run 8-touches the runs of the row above that end at or after its
    # first column - 1 and start at or before its last column + 1, both
    # bounds clipped to that row; runs are sorted, so these are a range.
    above = (rows[run_start] - 1) * w
    lo = np.searchsorted(flat[run_end], above + np.maximum(cols[run_start] - 1, 0))
    hi = np.searchsorted(flat[run_start], above + np.minimum(cols[run_end] + 1, w - 1),
                         side="right")
    n_touch = np.maximum(hi - lo, 0)
    run = np.repeat(np.arange(len(run_start)), n_touch)
    touched = np.arange(len(run)) - np.repeat(np.cumsum(n_touch) - n_touch - lo, n_touch)

    parent = list(range(len(run_start)))
    for a, b in zip(run.tolist(), touched.tolist()):
        while parent[a] != a:  # find, compressing the path by halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i, p in enumerate(parent):
        parent[i] = parent[p]  # p <= i, so parent[p] is already p's root
    root = np.array(parent)
    # Roots in run order are the components in first-pixel order.
    is_root = root == np.arange(len(root))
    label = np.repeat((np.cumsum(is_root) - 1)[root], run_len)

    order = np.argsort(label, kind="stable")  # blobs in label order, pixels row-major
    area = np.bincount(label)
    start = np.cumsum(area) - area
    pixels = np.stack([rows[order], cols[order]], axis=1)
    row_sum = np.add.reduceat(pixels[:, 0], start)
    col_sum = np.add.reduceat(pixels[:, 1], start)
    bbox = np.stack([
        pixels[start, 0],
        np.minimum.reduceat(pixels[:, 1], start),
        pixels[start + area - 1, 0],
        np.maximum.reduceat(pixels[:, 1], start),
    ], axis=1)
    return [
        Blob(label=i, pixels=pixels[s : s + n], area=n, centroid=(rs / n, cs / n), bbox=tuple(bb))
        for i, s, n, rs, cs, bb in zip(
            range(1, len(area) + 1), start.tolist(), area.tolist(),
            row_sum.tolist(), col_sum.tolist(), bbox.tolist(),
        )
    ]


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    """Z of (a - o) x (b - o) for (row, col) points; positive = left turn."""
    return (a[1] - o[1]) * (b[0] - o[0]) - (a[0] - o[0]) * (b[1] - o[1])


def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain convex hull without collinear or duplicate points.

    Oriented so that interior points see every directed edge with a
    non-negative _cross value.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[tuple[int, int]] = []
        for pt in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], pt) <= 0:
                out.pop()
            out.append(pt)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _convex_area(pixels: np.ndarray, bbox: tuple[int, int, int, int]) -> int:
    """Count pixel centers inside or on the hull of pixel corner points.

    Works in coordinates doubled so corners and centers are integers:
    pixel (r, c) has corners (2r, 2c)..(2r+2, 2c+2) and center
    (2r+1, 2c+1); all tests are exact integer arithmetic. The hull is
    never degenerate because each pixel contributes a full unit square.
    """
    corners = set()
    for r, c in pixels:
        r2, c2 = 2 * int(r), 2 * int(c)
        corners.update(((r2, c2), (r2 + 2, c2), (r2, c2 + 2), (r2 + 2, c2 + 2)))
    hull = _hull(list(corners))
    edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    r0, c0, r1, c1 = bbox
    count = 0
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            center = (2 * r + 1, 2 * c + 1)
            if all(_cross(a, b, center) >= 0 for a, b in edges):
                count += 1
    return count


def _measure(blobs: list[Blob]) -> list[Blob]:
    """compute_features for many blobs at once, in their given order.

    Euler numbers come from one pass over all blobs' 2x2 windows (Gray
    1971). Each window is keyed by its blob and by its top-left corner
    in that blob's bbox grown by a one-pixel margin, so blobs from
    different masks never share a window; summing the bits of a
    window's pixels gives its pattern. Windows without a blob pixel
    add nothing and are never formed. A blob that fills its bbox is a
    rectangle whose hull is the bbox, so its convex area is its area;
    every other blob goes through the exact _convex_area.
    """
    if not blobs:
        return []
    px = np.concatenate([b.pixels for b in blobs])
    r0, c0, r1, c1 = np.array([b.bbox for b in blobs]).T
    owner = np.repeat(np.arange(len(blobs)), [len(b.pixels) for b in blobs])
    # Blob i numbers its windows row by row from the sum of the earlier
    # blobs' window counts, grid_w top-left corners per row (margin
    # included); the window whose top-left pixel is (r, c) has key
    # r * grid_w[i] + c + shift[i].
    grid_w = c1 - c0 + 2
    n_win = (r1 - r0 + 2) * grid_w
    shift = np.cumsum(n_win) - n_win - (r0 - 1) * grid_w - (c0 - 1)
    gw = grid_w[owner]
    key = px[:, 0] * gw + px[:, 1] + shift[owner]
    # A pixel is also top-right (bit 2) of the window one key lower, and so on.
    keys = np.concatenate([key, key - 1, key - gw, key - gw - 1])
    # Any order works; "stable" reuses the one sort kernel the blob stage loads.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    pattern = np.add.reduceat(np.repeat(np.array([1, 2, 4, 8]), len(key))[order], first)
    euler4 = np.bincount(np.tile(owner, 4)[order[first]], weights=_QUAD_EULER4[pattern],
                         minlength=len(blobs))
    box_area = (r1 - r0 + 1) * (c1 - c0 + 1)
    out = []
    for b, e4, box in zip(blobs, euler4.astype(np.int64).tolist(), box_area.tolist()):
        convex_area = box if b.area == box else _convex_area(b.pixels, b.bbox)
        out.append(Blob(
            label=b.label, pixels=b.pixels, area=b.area, centroid=b.centroid, bbox=b.bbox,
            equivalent_diameter=math.sqrt(4.0 * b.area / math.pi),
            euler_number=e4 // 4,
            convex_area=convex_area,
            solidity=b.area / convex_area,
        ))
    return out


def compute_features(b: Blob) -> Blob:
    """Blob with equivalent_diameter, euler_number, convex_area, solidity.

    This is filter_blobs's batch measurement applied to one blob: the
    Euler number from bit-quad counts, and the convex area from the
    exact hull unless the blob fills its bbox (then it is the area).

    For tests and the bench's traced replay; ``filter_blobs`` measures in batches.
    """
    return _measure([b])[0]


def filter_blobs(
    blobs: list[Blob], f: BlobFilter
) -> tuple[list[Blob], list[tuple[Blob, str]]]:
    """Split blobs into accepted and (rejected, reason) lists.

    The reason is the first failing criterion in REJECT_ORDER. The area
    test runs first and needs no features, so only the blobs that pass
    it and carry no features yet are measured, all in one batch (as
    compute_features would); blobs rejected for "area" are returned as
    given.
    """
    blobs = list(blobs)
    todo = [i for i, b in enumerate(blobs) if b.area < f.max_area and b.solidity is None]
    for i, b in zip(todo, _measure([blobs[i] for i in todo])):
        blobs[i] = b
    accepted: list[Blob] = []
    rejected: list[tuple[Blob, str]] = []
    for b in blobs:
        if not b.area < f.max_area:
            rejected.append((b, "area"))
        elif not b.equivalent_diameter < f.max_equivalent_diameter:
            rejected.append((b, "equivalent_diameter"))
        elif b.euler_number != f.required_euler:
            rejected.append((b, "euler"))
        elif not b.solidity > f.min_solidity:
            rejected.append((b, "solidity"))
        else:
            accepted.append(b)
    return accepted, rejected
