"""Connected components and the geometric features used to vet them.

Foreground uses 8-connectivity, holes (background) 4-connectivity, the
standard complementary pair. Features:

- euler_number: 1 - number of enclosed holes, computed with the 2x2
  bit-quad count for 8-connected foreground.
- convex_area: pixels whose centers lie inside or on the convex hull of
  the blob's pixel corner points (each pixel a closed unit square). The
  hull test runs in doubled integer coordinates, so it is exact.
- solidity: area / convex_area, 1.0 for solid rectangles.
- equivalent_diameter: diameter of the circle with the blob's area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError

__all__ = [
    "Blob",
    "BlobFilter",
    "REJECT_ORDER",
    "label_components",
    "compute_features",
    "filter_blobs",
]

_NEIGHBORS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


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


def label_components(m: np.ndarray) -> list[Blob]:
    """8-connected components in deterministic row-major label order.

    Labels are dense 1..N, assigned by each component's first pixel in
    row-major scan order. Returned blobs carry pixels, area, centroid,
    and bbox; their geometric features are left unset (filter_blobs
    measures the blobs it needs).
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {m.shape}")
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


def _euler_number(window: np.ndarray) -> int:
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


def compute_features(b: Blob) -> Blob:
    """Blob with equivalent_diameter, euler_number, convex_area, solidity."""
    r0, c0, r1, c1 = b.bbox
    # The bbox plus a one-pixel empty margin, as _euler_number needs.
    window = np.zeros((r1 - r0 + 3, c1 - c0 + 3), dtype=bool)
    window[b.pixels[:, 0] - (r0 - 1), b.pixels[:, 1] - (c0 - 1)] = True
    convex_area = _convex_area(b.pixels, b.bbox)
    return replace(
        b,
        equivalent_diameter=math.sqrt(4.0 * b.area / math.pi),
        euler_number=_euler_number(window),
        convex_area=convex_area,
        solidity=b.area / convex_area,
    )


def filter_blobs(
    blobs: list[Blob], f: BlobFilter
) -> tuple[list[Blob], list[tuple[Blob, str]]]:
    """Split blobs into accepted and (rejected, reason) lists.

    The reason is the first failing criterion in REJECT_ORDER. The area
    test runs first and needs no features, so only the blobs that pass
    it are measured (with compute_features, unless they already carry
    features); blobs rejected for "area" are returned as given.
    """
    accepted: list[Blob] = []
    rejected: list[tuple[Blob, str]] = []
    for b in blobs:
        if b.area < f.max_area and b.solidity is None:
            b = compute_features(b)
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
