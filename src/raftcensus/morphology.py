"""Binary mathematical morphology on boolean masks with square elements.

A k x k square is separable: erosion (dilation) by it is a 1-D AND (OR)
over k pixels along each row, then the same along each column. Pixels
outside the image count as background (False) in both passes, so
erode/dilate duality holds only on the image interior at distance >= the
element radius from the border.

Both passes run on bit-packed rows. Each mask row is packed into
little-endian ``uint64`` words, ``ceil(width / 64)`` per row: pixel c of
a row is bit c % 64 of word c // 64, so a word's bits run left to right
from least to most significant (``np.packbits(..., bitorder="little")``,
viewed as ``"<u8"``, which holds on any host). The bits of the last word
past the width are pad bits, and they are zero after every pass: pad
bits read as outside pixels, which are False. The row pass shifts each
row's words by up to the element radius, carrying bits across word
boundaries, and ANDs (erosion) or ORs (dilation) the shifted rows; a
dilation then clears the pad bits it set. The column pass ANDs or ORs
whole word rows. Each public call packs its input once and unpacks its
result once; ``opening``, ``closing`` and ``bottom_hat`` run all their
steps on the words.
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

_WORD = 64


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


def _pack(m) -> tuple[np.ndarray, int]:
    """(words, width): the 2-D mask ``m`` (any nonzero value is True) as
    (height, ceil(width / 64)) little-endian uint64 words, pad bits zero."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {a.shape}")
    packed = np.packbits(a.astype(bool, copy=False), axis=1, bitorder="little")
    pad = -packed.shape[1] % (_WORD // 8)
    if pad:
        packed = np.concatenate([packed, np.zeros((len(packed), pad), np.uint8)], axis=1)
    return np.ascontiguousarray(packed).view("<u8"), a.shape[1]


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    """The (height, width) bool mask of ``words``."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=width,
                         bitorder="little").view(bool)


def _shifted_op(dst: np.ndarray, src: np.ndarray, d: int, op) -> None:
    """dst op= src shifted along rows so that pixel c reads pixel c - d
    (d may be negative); pixels shifted in from outside are False."""
    q, s = divmod(abs(d), _WORD)
    n = src.shape[1]
    q = min(q, n)  # the first (d > 0) or last q words read only outside pixels
    if d > 0:  # bits move toward higher pixels: left shifts
        head, body, carry = dst[:, :q], dst[:, q:], src[:, : n - q]
        shifted = carry << s
        if s:
            shifted[:, 1:] |= carry[:, :-1] >> (_WORD - s)
    else:
        head, body, carry = dst[:, n - q :], dst[:, : n - q], src[:, q:]
        shifted = carry >> s
        if s:
            shifted[:, :-1] |= carry[:, 1:] << (_WORD - s)
    op(body, shifted, out=body)
    if op is np.bitwise_and:
        head[:] = 0


def _filter(words: np.ndarray, width: int, r: int, erode: bool) -> np.ndarray:
    """AND (erode) or OR (dilate) of ``words`` over the (2r + 1)-square
    around each pixel: a row pass into a new array, then a column pass
    into another. Pad bits stay zero; outside pixels are False."""
    op = np.bitwise_and if erode else np.bitwise_or
    rows = words.copy()
    for d in range(1, r + 1):
        _shifted_op(rows, words, d, op)
        _shifted_op(rows, words, -d, op)
    if not erode and width % _WORD:
        rows[:, -1] &= np.uint64((1 << (width % _WORD)) - 1)  # clear the pad bits
    out = rows.copy()
    for d in range(1, r + 1):
        op(out[d:], rows[:-d], out=out[d:])
        op(out[:-d], rows[d:], out=out[:-d])
    if erode:
        out[:r] = 0
        out[len(out) - r :] = 0
    return out


def erode(m, se: StructElem) -> np.ndarray:
    """Pixel true iff every pixel of the se-square around it is true
    (border = False)."""
    words, width = _pack(m)
    return _unpack(_filter(words, width, se.radius, erode=True), width)


def dilate(m, se: StructElem) -> np.ndarray:
    """Pixel true iff any pixel of the se-square around it is true."""
    words, width = _pack(m)
    return _unpack(_filter(words, width, se.radius, erode=False), width)


def opening(m, se: StructElem) -> np.ndarray:
    """Erosion followed by dilation; removes features smaller than se."""
    words, width = _pack(m)
    r = se.radius
    return _unpack(_filter(_filter(words, width, r, True), width, r, False), width)


def _close(words: np.ndarray, width: int, r: int) -> np.ndarray:
    """Dilation, then erosion, of packed ``words`` by the (2r + 1)-square."""
    return _filter(_filter(words, width, r, False), width, r, True)


def closing(m, se: StructElem) -> np.ndarray:
    """Dilation followed by erosion; fills gaps smaller than se."""
    words, width = _pack(m)
    return _unpack(_close(words, width, se.radius), width)


def bottom_hat(m, se: StructElem) -> np.ndarray:
    """Pixels added by closing: closing(m) minus m.

    On a water mask this highlights small dark holes (rafts, boats)
    as foreground on an empty background.
    """
    words, width = _pack(m)
    out = _close(words, width, se.radius)
    out &= ~words
    return _unpack(out, width)
