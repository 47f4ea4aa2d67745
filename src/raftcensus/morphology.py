"""Binary mathematical morphology on boolean masks.

All operations treat pixels outside the image as background (False) for
both erosion and dilation neighborhoods, so erode/dilate duality holds
only on the image interior at distance >= the element radius from the
border. Structuring elements are symmetric under negation and always
contain the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "StructElem",
    "square",
    "disk",
    "erode",
    "dilate",
    "opening",
    "closing",
    "bottom_hat",
]


@dataclass(frozen=True)
class StructElem:
    """Structuring element as a set of (dy, dx) offsets around the origin."""

    offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        off = set(self.offsets)
        if (0, 0) not in off:
            raise ValueError("structuring element must contain the origin")
        for dy, dx in off:
            if (-dy, -dx) not in off:
                raise ValueError("structuring element offsets must be symmetric")

    @property
    def radius(self) -> int:
        return max(max(abs(dy), abs(dx)) for dy, dx in self.offsets)


def square(k: int) -> StructElem:
    """k x k square element; k must be odd and >= 1."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"square size must be odd and >= 1, got {k}")
    r = k // 2
    offs = tuple((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1))
    return StructElem(offs)


def disk(r: int) -> StructElem:
    """Disk of integer radius r >= 1: offsets with dy*dy + dx*dx <= r*r."""
    if r < 1:
        raise ValueError(f"disk radius must be >= 1, got {r}")
    offs = tuple(
        (dy, dx)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if dy * dy + dx * dx <= r * r
    )
    return StructElem(offs)


def _as_mask(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {a.shape}")
    return a.astype(bool, copy=False)


def _neighbors(m: np.ndarray, se: StructElem):
    """For each se offset (dy, dx), the view s with s[y, x] = m[y+dy, x+dx],
    False outside the image."""
    h, w = m.shape
    r = se.radius
    p = np.pad(m, r)
    for dy, dx in se.offsets:
        yield p[r + dy : r + dy + h, r + dx : r + dx + w]


def erode(m, se: StructElem) -> np.ndarray:
    """Pixel true iff every se-offset neighbor is true (border = False)."""
    m = _as_mask(m)
    out = np.ones_like(m)
    for s in _neighbors(m, se):
        out &= s
    return out


def dilate(m, se: StructElem) -> np.ndarray:
    """Pixel true iff any se-offset neighbor is true."""
    m = _as_mask(m)
    out = np.zeros_like(m)
    for s in _neighbors(m, se):
        out |= s
    return out


def opening(m, se: StructElem) -> np.ndarray:
    """Erosion followed by dilation; removes features smaller than se."""
    return dilate(erode(m, se), se)


def closing(m, se: StructElem) -> np.ndarray:
    """Dilation followed by erosion; fills gaps smaller than se."""
    return erode(dilate(m, se), se)


def bottom_hat(m, se: StructElem) -> np.ndarray:
    """Pixels added by closing: closing(m) minus m.

    On a water mask this highlights small dark holes (rafts, boats)
    as foreground on an empty background.
    """
    m = _as_mask(m)
    return closing(m, se) & ~m
