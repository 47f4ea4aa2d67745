"""Binary mathematical morphology on bit-packed masks with square elements.

The mask type is ``BitMask``: each row packed into little-endian
``uint64`` words, ``ceil(width / 64)`` per row, pixel c of a row at bit
c % 64 of word c // 64, so a word's bits run left to right from least to
most significant (``np.packbits(..., bitorder="little")``, viewed as
``"<u8"``, which holds on any host). The bits of the last word past the
width are pad bits, and they are zero in every BitMask: pad bits read as
outside pixels, which are False. The census passes BitMasks from the
water mask to labeling, so it holds no whole-scene byte mask.

A k x k square is separable: erosion (dilation) by it is a 1-D AND (OR)
over k pixels along each row, then the same along each column. Pixels
outside the image count as background (False) in both passes, so
erode/dilate duality holds only on the image interior at distance >= the
element radius from the border.

Every operator takes a BitMask, or any 2-D array (nonzero is True),
which it packs, and returns a BitMask; it works on the words alone. The
row pass shifts each row's words by up to the element radius, carrying
bits across word boundaries, and ANDs (erosion) or ORs (dilation) the
shifted rows; a dilation then clears the pad bits it set. The column
pass ANDs or ORs whole word rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "BitMask",
    "StructElem",
    "square",
    "erode",
    "dilate",
    "opening",
    "closing",
    "bottom_hat",
]

_WORD = 64
_WORDS = np.dtype("<u8")
_FLAT_WORDS = 4096  # nonzero words that BitMask.flat_indices unpacks at a time
# The number of set bits of each byte value.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> int:
    """The number of set bits of ``words``, by a byte table."""
    return int(np.take(_POPCOUNT, words.view(np.uint8)).sum(dtype=np.int64))


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


@dataclass(frozen=True, eq=False)
class BitMask:
    """A 2-D boolean mask, one bit per pixel.

    ``words`` is a C-contiguous (height, ceil(width / 64)) array of
    little-endian uint64 words, pixel c of a row at bit c % 64 of word
    c // 64, with the pad bits past ``width`` zero. ``np.asarray`` gives
    the bool mask (``to_bool``); ``rows``, ``sum`` and ``flat_indices``
    read it without unpacking the whole of it.
    """

    words: np.ndarray
    width: int

    def __post_init__(self):
        w = self.words
        if not (w.dtype == _WORDS and w.ndim == 2 and w.flags.c_contiguous
                and w.shape[1] == -(-self.width // _WORD)):
            raise DimensionError(f"{w.dtype} words of shape {w.shape} for width {self.width}")

    @classmethod
    def pack(cls, m) -> BitMask:
        """The 2-D mask ``m``, any nonzero value True, packed; a BitMask is
        returned as it is."""
        if isinstance(m, BitMask):
            return m
        a = np.asarray(m)
        if a.ndim != 2:
            raise DimensionError(f"mask must be 2-D, got shape {a.shape}")
        h, w = a.shape
        words = np.zeros((h, -(-w // _WORD)), dtype=_WORDS)
        words.view(np.uint8)[:, : -(-w // 8)] = np.packbits(a.astype(bool, copy=False),
                                                           axis=1, bitorder="little")
        return cls(words, w)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.words), self.width

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 as a new bool array."""
        return np.unpackbits(self.words[r0:r1].view(np.uint8), axis=1, count=self.width,
                             bitorder="little").view(bool)

    def to_bool(self) -> np.ndarray:
        """The whole mask as a new bool array."""
        return self.rows(0, len(self.words))

    def __array__(self, dtype=None, copy=None):
        m = self.to_bool()
        return m if dtype is None else m.astype(dtype)

    def sum(self) -> int:
        """The number of true pixels."""
        return _popcount(self.words)

    def flat_indices(self) -> np.ndarray:
        """The row-major flat indices of the true pixels, ascending. Only
        the nonzero words are unpacked, ``_FLAT_WORDS`` at a time: beside
        the result, whole-mask arrays hold one entry per word."""
        flat = self.words.reshape(-1)
        nz = np.flatnonzero(flat)
        out = np.empty(_popcount(flat[nz]), dtype=np.intp)
        n = 0
        for i in range(0, len(nz), _FLAT_WORDS):
            k = nz[i : i + _FLAT_WORDS]
            at = np.flatnonzero(np.unpackbits(flat[k].view(np.uint8), bitorder="little"))
            row, col = np.divmod(k, self.words.shape[1])
            start = row * self.width + col * _WORD  # the flat index of each word's bit 0
            out[n : n + len(at)] = start[at // _WORD] + at % _WORD
            n += len(at)
        return out


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


def erode(m, se: StructElem) -> BitMask:
    """Pixel true iff every pixel of the se-square around it is true
    (border = False)."""
    b = BitMask.pack(m)
    return BitMask(_filter(b.words, b.width, se.radius, erode=True), b.width)


def dilate(m, se: StructElem) -> BitMask:
    """Pixel true iff any pixel of the se-square around it is true."""
    b = BitMask.pack(m)
    return BitMask(_filter(b.words, b.width, se.radius, erode=False), b.width)


def opening(m, se: StructElem) -> BitMask:
    """Erosion followed by dilation; removes features smaller than se."""
    b = BitMask.pack(m)
    r = se.radius
    return BitMask(_filter(_filter(b.words, b.width, r, True), b.width, r, False), b.width)


def _close(b: BitMask, r: int) -> np.ndarray:
    """The words of the dilation, then erosion, of ``b`` by the (2r + 1)-square."""
    return _filter(_filter(b.words, b.width, r, False), b.width, r, True)


def closing(m, se: StructElem) -> BitMask:
    """Dilation followed by erosion; fills gaps smaller than se."""
    b = BitMask.pack(m)
    return BitMask(_close(b, se.radius), b.width)


def bottom_hat(m, se: StructElem) -> BitMask:
    """Pixels added by closing: closing(m) minus m.

    On a water mask this highlights small dark holes (rafts, boats)
    as foreground on an empty background.
    """
    b = BitMask.pack(m)
    out = _close(b, se.radius)
    out &= ~b.words
    return BitMask(out, b.width)
