"""Binary mathematical morphology on boolean masks with square elements.

A k x k square is separable: erosion (dilation) by it is a 1-D AND (OR)
over k pixels along each row, then the same along each column. Pixels
outside the image count as background (False) in both passes, so
erode/dilate duality holds only on the image interior at distance >= the
element radius from the border.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "StructElem",
    "square",
    "erode",
    "dilate",
    "opening",
    "closing",
    "bottom_hat",
]


@dataclass(frozen=True)
class StructElem:
    """Square structuring element of odd side ``size`` centred on the origin."""

    size: int

    def __post_init__(self):
        size = self.size
        if not isinstance(size, (int, np.integer)) or size < 1 or size % 2 == 0:
            raise ValueError(f"square size must be odd and >= 1, got {size}")

    @property
    def radius(self) -> int:
        return self.size // 2

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """The (dy, dx) offsets the element covers, row by row."""
        r = range(-self.radius, self.radius + 1)
        return tuple((dy, dx) for dy in r for dx in r)


def square(k: int) -> StructElem:
    """k x k square element; k must be odd and >= 1."""
    return StructElem(k)


def _as_mask(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {a.shape}")
    return a.astype(bool, copy=False)


def _square_filter(m, se: StructElem, erode: bool) -> np.ndarray:
    """AND (erode) or OR (dilate) over the se-square around each pixel: a
    1-D pass along rows into a scratch mask, then one along columns (through
    transposed views) into the result. Outside pixels are False."""
    op = np.logical_and if erode else np.logical_or
    m = _as_mask(m)
    rows, out = np.empty_like(m), np.empty_like(m)
    r = se.radius
    for src, dst in ((m, rows), (rows.T, out.T)):
        np.copyto(dst, src)
        for d in range(1, r + 1):
            op(dst[:, d:], src[:, :-d], out=dst[:, d:])
            op(dst[:, :-d], src[:, d:], out=dst[:, :-d])
        if erode:
            dst[:, :r] = False
            dst[:, dst.shape[1] - r :] = False
    return out


def erode(m, se: StructElem) -> np.ndarray:
    """Pixel true iff every pixel of the se-square around it is true
    (border = False)."""
    return _square_filter(m, se, erode=True)


def dilate(m, se: StructElem) -> np.ndarray:
    """Pixel true iff any pixel of the se-square around it is true."""
    return _square_filter(m, se, erode=False)


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
