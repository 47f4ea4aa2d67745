"""Ten-band reflectance stacks at a uniform 10 m per pixel.

Input format is deliberately plain: one binary 16-bit PGM (P5, maxval
65535, big-endian) per band plus a JSON manifest mapping band names to
file paths. Digital numbers are scaled to reflectance by dividing by
10000; 20 m bands are upsampled x2 to the 10 m grid, bilinearly.

A loaded stack holds no raster: it keeps each band's PGM file open and
reads the digital numbers a row window needs when ``BandStack.rows``
asks for the window, then scales and upsamples them. A census never
builds a whole band, as digital numbers or as float64. There is one x2
upsampler, ``_upsample_rows``, built from fixed quarter and
three-quarter slice sums: the window reader runs it on the input rows
under a window, and ``resample_plane`` on a whole plane, so every window
value is bitwise equal to ``resample_plane`` of the scaled band. Census
stages walk the stack through ``BandStack.windows``, which owns the
window size (``_BLOCK_PIXELS`` pixels per window). A mask pixel is
``mlp.forward_batch`` of its ``BandStack.rows`` features >= thr; most
pixels are decided from a float32 screen, ``BandStack.float32_sums``, in
which a loaded stack reads digital numbers, not reflectances: it casts
them to float32, which is exact, and folds 1 / DN_SCALE into the
weights. It sums the 20 m terms of each unit at native resolution and
upsamples that one sum, not each 20 m band, with the same upsampler.
Every window reads the 20 m rows under it, with their one-row halo,
once. Bands are summed in ``FEATURE_ORDER``, the one order of every
model's inputs. ``BandStack.dn_rows`` hands out the digital numbers of
10 m bands themselves, as read; the NDWI of a loaded stack is binned
from them (``waterdetect.water_mask_ndwi``).

``BandStack.from_reflectance`` builds the in-memory twin of a loaded
stack: it quantizes reflectance row chunks as ``write_bands`` does and
holds each band's digital numbers, at its native resolution, in a
read-only uint16 array (2 B per 10 m pixel, 0.5 B per 10 m pixel for a
20 m band). The band reader reads that array as it reads a file, so such
a stack takes every route a loaded one takes, with the same values.
Only a stack built directly from float64 planes has no digital numbers:
it is read through ``rows``, ``windows`` and ``features`` alone. Its
``dn_rows`` gives None, ``float32_sums`` yields no window for it (so
``mlp.threshold_planes`` scores it exactly), and ``save_band_stack``
refuses it.

Writing goes one band and one row chunk at a time, so no whole plane is
built: ``write_bands`` turns even-height reflectance row chunks
(``row_chunks``) into digital numbers at each band's native resolution
and appends them to the band's PGM, and ``save_band_stack`` copies a
stack's digital numbers unchanged. Each PGM is written to a temporary
file beside it and then renamed over it, so a stack still reading the
old file (``import`` into its own directory) keeps reading the old data.

Manifest schema::

    {
      "bands": {"B2": "b02.pgm", ..., "B12": "b12.pgm"},
      "geo": {"origin_easting": 500000.0,
              "origin_northing": 4680000.0,
              "crs": "EPSG:32629"}          # optional
    }

Relative band paths are resolved against the manifest's directory.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DimensionError, ManifestError, PgmError

__all__ = [
    "BandId",
    "FEATURE_ORDER",
    "GeoRef",
    "BandStack",
    "read_pgm16",
    "write_pgm16",
    "read_manifest",
    "load_band_stack",
    "save_band_stack",
    "check_saveable",
    "row_chunks",
    "write_bands",
    "write_pgm16_rows",
    "resample_plane",
]

DN_SCALE = 10000.0
PIXEL_SIZE_M = 10.0

# Most pixels per row window of a census stage. Each window reads its own
# 20 m rows plus a one-row halo on either side. On a 2-CPU x86 host and a
# 2048-wide scene, 32768 (16 rows) scored and saved a loaded stack as fast
# as or faster than 16384-pixel windows that shared their halos in groups
# of four, and ran the in-memory water net as fast; at 65536 the water
# net's larger window arrays slowed it by about 5%.
_BLOCK_PIXELS = 32768


class BandId(str, Enum):
    """The ten Sentinel-2 bands with 10 m or 20 m native resolution.

    The 60 m bands (B1, B9, B10) are intentionally unrepresentable.
    """

    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    B5 = "B5"
    B6 = "B6"
    B7 = "B7"
    B8 = "B8"
    B8A = "B8A"
    B11 = "B11"
    B12 = "B12"

    @property
    def native_resolution_m(self) -> int:
        return 10 if self in _TEN_METER else 20


_TEN_METER = frozenset({BandId.B2, BandId.B3, BandId.B4, BandId.B8})

# The one band order of every model's inputs; each model file lists it.
FEATURE_ORDER: tuple[BandId, ...] = tuple(BandId)


@dataclass(frozen=True)
class GeoRef:
    """Top-left corner of pixel (0, 0) in a projected CRS, meters."""

    origin_easting: float
    origin_northing: float
    crs: str

    def __post_init__(self):
        if not (math.isfinite(self.origin_easting) and math.isfinite(self.origin_northing)):
            raise ValueError(f"geo origin must be finite, got "
                             f"({self.origin_easting!r}, {self.origin_northing!r})")


@dataclass(frozen=True)
class BandStack:
    """Ten co-registered reflectance planes on a common 10 m grid.

    Every package route builds a stack of digital numbers, with
    ``load_band_stack`` or ``from_reflectance``: ``planes`` holds its
    private band reader, read only through ``rows``, ``windows``,
    ``dn_rows``, ``float32_sums`` and ``features``; a whole band is
    ``rows(0, height, (band,))``. A stack may also be built here from a
    mapping of every band to a float64 plane of shape (height, width),
    row-major, finite and non-negative; such a stack is read through
    ``rows`` alone, gets no float32 screen and cannot be saved. Census
    stages walk a stack through ``windows``, which sets the window size.
    Treat instances as immutable.
    """

    width: int
    height: int
    pixel_size: float
    planes: Mapping[BandId, np.ndarray] | _DnPlanes
    geo: GeoRef | None = None

    def __post_init__(self):
        if not (math.isfinite(self.pixel_size) and self.pixel_size > 0):
            raise ValueError(f"pixel_size must be finite and positive, got {self.pixel_size!r}")
        # _DnPlanes checked its rasters' shapes, and uint16 / DN_SCALE under
        # convex bilinear weights is always finite and non-negative.
        if isinstance(self.planes, _DnPlanes):
            return
        missing = [b.value for b in BandId if b not in self.planes]
        if missing:
            raise ManifestError(f"missing band planes: {', '.join(missing)}")
        for band in BandId:
            plane = self.planes[band]
            if plane.shape != (self.height, self.width):
                raise DimensionError(
                    f"band {band.value} has shape {plane.shape}, "
                    f"expected {(self.height, self.width)}"
                )
            # One min and one max reduction, no plane-sized temporaries; NaN
            # fails every comparison.
            if not (plane.min(initial=0.0) >= 0.0 and plane.max(initial=0.0) < math.inf):
                raise ValueError(f"band {band.value} has non-finite or negative values")

    @classmethod
    def from_reflectance(
        cls,
        width: int,
        height: int,
        band_rows: Callable[[BandId], Iterable[np.ndarray]],
        geo: GeoRef | None = None,
    ) -> BandStack:
        """The stack that ``write_bands(out_dir, width, height, band_rows,
        geo)`` writes and ``load_band_stack`` loads, held in memory.

        ``band_rows`` is ``write_bands``'s: it yields a band's float64
        reflectances on the 10 m grid in row chunks of even height, top to
        bottom, and bands are asked for in ``BandId`` order. Each chunk is
        quantized as ``write_bands`` quantizes it, and the digital numbers
        are kept at the band's native resolution in a read-only uint16
        array: 11 B per 10 m pixel for the ten bands. Dimensions must be
        even, which is checked before ``band_rows`` is called.
        """
        check_saveable(width, height)
        rasters = {}
        for band in BandId:
            f = band.native_resolution_m // 10
            dn = np.empty((height // f, width // f), dtype=np.uint16)
            r = 0
            for chunk in _dn_rows(band, band_rows(band)):
                if chunk.shape[1] != dn.shape[1] or r + len(chunk) > len(dn):
                    raise DimensionError(
                        f"band {band.value}: row chunk of shape {chunk.shape} at row {r} "
                        f"of a {dn.shape[1]}x{len(dn)} raster"
                    )
                dn[r : r + len(chunk)] = chunk
                r += len(chunk)
            if r != len(dn):
                raise DimensionError(f"band {band.value}: {r} rows of a raster {len(dn)} high")
            dn.flags.writeable = False
            rasters[band] = _DnArray(dn)
        return cls(width=width, height=height, pixel_size=PIXEL_SIZE_M,
                   planes=_DnPlanes(rasters), geo=geo)

    def rows(
        self, r0: int, r1: int, bands: Iterable[BandId] = FEATURE_ORDER
    ) -> dict[BandId, np.ndarray]:
        """Float64 (r1 - r0, width) windows of rows r0..r1-1 of ``bands``.

        Float64 planes are sliced, not copied. A stack of digital numbers
        reads them (from its files, or its arrays), divides them by
        DN_SCALE, and upsamples 20 m bands from the input rows under the
        window plus a one-row halo: every value is bitwise equal to
        ``resample_plane`` of the whole scaled band.
        """
        self._check_window(r0, r1)
        if isinstance(self.planes, _DnPlanes):
            return self.planes.window(r0, r1, bands)
        return {b: np.asarray(self.planes[b][r0:r1], dtype=np.float64) for b in bands}

    def dn_rows(
        self, r0: int, r1: int, bands: Iterable[BandId]
    ) -> dict[BandId, np.ndarray] | None:
        """The digital numbers (DN) of rows r0..r1-1 of the 10 m ``bands``
        of a stack of digital numbers, as its band reader holds them:
        (r1 - r0, width) uint16 arrays, for reading only (an array of
        ``from_reflectance`` hands out read-only views of itself). A
        pixel's reflectance in ``rows`` is its DN / DN_SCALE, divided in
        float64.

        A stack built from float64 planes holds reflectances, not digital
        numbers: it gives None, and its reader takes ``rows``. 20 m bands
        have no DN on the 10 m grid (``rows`` upsamples them) and raise
        ValueError.
        """
        self._check_window(r0, r1)
        bands = tuple(bands)
        coarse = [b.value for b in bands if b.native_resolution_m != 10]
        if coarse:
            raise ValueError(f"no 10 m digital numbers for 20 m bands {', '.join(coarse)}")
        if not isinstance(self.planes, _DnPlanes):
            return None
        return {b: self.planes.rasters[b].dn_rows(r0, r1) for b in bands}

    def _check_window(self, r0: int, r1: int) -> None:
        if not 0 <= r0 < r1 <= self.height:
            raise ValueError(f"row window [{r0}, {r1}) is not within [0, {self.height})")

    def windows(self, bands: Iterable[BandId] = FEATURE_ORDER, where=None) -> Iterator:
        """Yield ``(r0, r1, self.rows(r0, r1, bands))`` for consecutive row
        windows of ``_BLOCK_PIXELS // width`` rows (at least one; the last may be
        shorter). A window with no true entry in rows r0..r1-1 of ``where``, an
        (H, W) mask or one flag per row, is skipped unread. With no ``bands``
        nothing is read: the caller reads each window its own way, as
        ``float32_sums`` does."""
        step = max(1, _BLOCK_PIXELS // max(self.width, 1))
        for r0 in range(0, self.height, step):
            r1 = min(r0 + step, self.height)
            if where is None or where[r0:r1].any():
                yield r0, r1, self.rows(r0, r1, bands)

    def float32_sums(
        self, w: np.ndarray, where=None
    ) -> Iterator[tuple[int, int, np.ndarray, float]]:
        """Yield ``(r0, r1, sums, peak)`` for the row windows of ``windows``,
        skipped by ``where`` as there: ``sums`` is a float32 (len(w), r1 - r0,
        width) array whose plane j is the sum over k of w[j, k] times band
        ``FEATURE_ORDER[k]`` on rows r0..r1-1, a new array the caller may
        overwrite. ``peak`` bounds the magnitude of every value read for the
        window, halo rows included. A stack built from float64 planes has no
        digital numbers and yields no window: ``mlp.threshold_planes`` scores
        all of it exactly.

        The products are summed by ``np.matmul``, in whatever order the BLAS
        takes. The digital numbers (DN) are read with the band reader's
        ``dn_rows`` and cast to float32, which is exact; the weights are w /
        DN_SCALE, divided in float64 and rounded to float32, and the peak is
        the window's largest DN / DN_SCALE. The 10 m terms are summed on the
        10 m grid and the 20 m terms on the 20 m grid, one matrix product on
        the native rows under the window plus a one-row halo on either side;
        each plane's 20 m sum is upsampled with the x2 bilinear upsampler, in
        float32 (len(w) planes, not one per 20 m band), and the 10 m product
        is added to that. Each window reads its own rows once; a skipped
        window reads none. So a term of a sum meets at most 16 float32
        roundings (weight twice, to float64 and then to float32, product,
        nine additions with the 20 m + 10 m one among them, two per upsampled
        axis), and every term's magnitude is at most |w[j, k]| * peak:
        ``mlp.threshold_planes`` bounds the error from that.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != len(FEATURE_ORDER):
            raise ValueError(f"weights of shape {w.shape} for {len(FEATURE_ORDER)} bands")
        planes = self.planes
        if not isinstance(planes, _DnPlanes):
            return
        coarse = [k for k, b in enumerate(FEATURE_ORDER) if b.native_resolution_m == 20]
        fine = [k for k in range(len(FEATURE_ORDER)) if k not in coarse]
        w = (w / DN_SCALE).astype(np.float32)
        w_coarse, w_fine = w[:, coarse], w[:, fine]
        for r0, r1, _ in self.windows((), where):
            shape = (r1 - r0, self.width)
            a, b, n = planes.native_rows(r0, r1)
            half = (b + 1 - a, self.width // 2)
            native = [planes.rasters[FEATURE_ORDER[k]].dn_rows(a, b + 1) for k in coarse]
            x32 = _cast32(native, half)
            sums = _upsample_rows((w_coarse @ x32).reshape(len(w), *half), a, n, r0, r1)
            top = x32.max(initial=0)
            x32 = _cast32([planes.rasters[FEATURE_ORDER[k]].dn_rows(r0, r1) for k in fine],
                          shape)
            sums += (w_fine @ x32).reshape(len(w), *shape)
            yield r0, r1, sums, float(max(top, x32.max(initial=0))) / DN_SCALE

    def features(self, rows, cols) -> np.ndarray:
        """N x 10 float64 features of the pixels (rows[i], cols[i]), bands in
        ``FEATURE_ORDER``: a pixel's inputs to an ``mlp`` model.

        Gathered from the ``windows`` that hold a requested row, so a loaded
        stack builds no whole plane; values equal the whole planes', bitwise.
        Coordinates may come in any order and repeat, but not lie outside.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise DimensionError(
                f"pixel rows and cols must be equal-length 1-D, "
                f"got {rows.shape} and {cols.shape}"
            )
        if not ((rows >= 0) & (rows < self.height) & (cols >= 0) & (cols < self.width)).all():
            raise IndexError(f"pixel coordinates outside the {self.height}x{self.width} stack")
        out = np.empty((len(rows), len(FEATURE_ORDER)))
        by_row = np.argsort(rows, kind="stable")
        sorted_rows = rows[by_row]
        held = np.zeros(self.height, dtype=bool)
        held[rows] = True
        for r0, r1, block in self.windows(where=held):
            lo, hi = np.searchsorted(sorted_rows, (r0, r1))
            i = by_row[lo:hi]
            at = (rows[i] - r0, cols[i])
            for j, band in enumerate(FEATURE_ORDER):
                out[i, j] = block[band][at]
        return out


@dataclass(frozen=True)
class _Raster:
    """A band's raster in its open PGM file: ``height`` rows of ``width``
    big-endian uint16 samples from byte ``offset`` on."""

    file: BinaryIO
    path: Path
    offset: int
    height: int
    width: int

    def dn_rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of digital numbers read from the file: a (r1 - r0,
        width) big-endian uint16 view of a new buffer."""
        raw = np.empty((r1 - r0) * self.width * 2, dtype=np.uint8)
        start, done = self.offset + r0 * self.width * 2, 0
        while done < len(raw):
            n = os.preadv(self.file.fileno(), [raw[done:]], start + done)
            if n == 0:
                raise PgmError(
                    f"{self.path}: file ends inside raster rows {r0}..{r1 - 1} "
                    f"({done} of {len(raw)} bytes read)"
                )
            done += n
        return raw.view(">u2").reshape(r1 - r0, self.width)

    def scaled_rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 read from the file and divided by DN_SCALE, float64."""
        return np.divide(self.dn_rows(r0, r1), DN_SCALE, dtype=np.float64)


@dataclass(frozen=True)
class _DnArray:
    """A band's raster held in memory: ``dn``, a read-only (height, width)
    uint16 array of digital numbers."""

    dn: np.ndarray

    @property
    def height(self) -> int:
        return self.dn.shape[0]

    @property
    def width(self) -> int:
        return self.dn.shape[1]

    def dn_rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of digital numbers: a read-only view of ``dn``."""
        return self.dn[r0:r1]

    def scaled_rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 divided by DN_SCALE, float64."""
        return np.divide(self.dn_rows(r0, r1), DN_SCALE, dtype=np.float64)


class _DnPlanes:
    """The band reader of a stack of digital numbers: each band's raster,
    an open PGM file (``_Raster``) or an in-memory array (``_DnArray``),
    read one row window at a time at the band's native resolution.

    ``window`` reads the digital numbers under a row window and builds
    float64 windows on the 10 m grid. Every 10 m raster must have B2's
    shape, and every 20 m raster exactly half of it, which is checked
    here (DimensionError).
    """

    def __init__(self, rasters: dict[BandId, _Raster | _DnArray]):
        ref10 = (rasters[BandId.B2].height, rasters[BandId.B2].width)
        for band, raster in rasters.items():
            shape = (raster.height, raster.width)
            if band.native_resolution_m == 10:
                if shape != ref10:
                    raise DimensionError(
                        f"10 m band {band.value} is {shape[1]}x{shape[0]}, "
                        f"expected {ref10[1]}x{ref10[0]} (as B2)"
                    )
            else:
                want = (ref10[0] // 2, ref10[1] // 2)
                if ref10[0] % 2 or ref10[1] % 2 or shape != want:
                    raise DimensionError(
                        f"20 m band {band.value} is {shape[1]}x{shape[0]}, "
                        f"expected exactly half of the 10 m grid "
                        f"{ref10[1]}x{ref10[0]}"
                    )
        self.rasters = rasters
        self.height, self.width = ref10

    def native_rows(self, r0: int, r1: int) -> tuple[int, int, int]:
        """(a, b, n): the 20 m rows a..b that rows r0..r1-1 of the 10 m grid
        are upsampled from, one-row halo included, of the band's n rows."""
        n = self.rasters[BandId.B5].height
        return max(0, (r0 - 1) // 2), min(n - 1, r1 // 2), n

    def window(self, r0: int, r1: int, bands: Iterable[BandId]) -> dict[BandId, np.ndarray]:
        out = {}
        a, b, n = self.native_rows(r0, r1)
        for band in bands:
            raster = self.rasters[band]
            if band.native_resolution_m == 10:
                out[band] = raster.scaled_rows(r0, r1)
            else:
                out[band] = _upsample_rows(raster.scaled_rows(a, b + 1), a, n, r0, r1)
        return out


def _cast32(xs: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """The ``shape`` uint16 rows of ``xs`` cast to float32, which is exact,
    one per row of a (len(xs), shape[0] * shape[1]) array."""
    x32 = np.empty((len(xs), shape[0] * shape[1]), np.float32)
    for k, x in enumerate(xs):
        np.copyto(x32[k].reshape(shape), x, casting="same_kind")
    return x32


def _upsample_rows(p: np.ndarray, a: int, n: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0..r1-1 of the x2 bilinear upsampling of an ``n``-row plane,
    or of each plane of a (planes, rows, cols) stack, in ``p``'s dtype, from
    ``p``, its rows a, a+1, ..., every row those outputs need. Columns are
    upsampled first, at input height, then rows."""
    cols = np.empty(p.shape[:-1] + (2 * p.shape[-1],), p.dtype)
    _upsample2(p.swapaxes(0, -1), 0, p.shape[-1], cols.swapaxes(0, -1), 0)
    out = np.empty(p.shape[:-2] + (r1 - r0, cols.shape[-1]), p.dtype)
    _upsample2(cols.swapaxes(0, -2), a, n, out.swapaxes(0, -2), r0)
    return out


def _upsample2(p: np.ndarray, a: int, n: int, out: np.ndarray, r0: int) -> None:
    """Write outputs r0..r0+len(out)-1, along axis 0, of the factor-2
    bilinear upsampling of an axis of ``n`` input samples x; ``p`` holds
    x[a], x[a+1], ..., every sample those outputs need.

    Output i is x[lo]*(1 - f) + x[lo+1]*f at input coordinate lo + f =
    (i + 0.5) / 2 - 0.5, clamped to [0, n - 1]. The samples are scaled
    bands or weighted band sums, which can be negative; both cases below
    hold for any finite x. Interior weights are exactly 1/4 and 3/4, so
    slice sums do the formula's own two products and one addition (IEEE
    addition commutes): odd output 2k+1 is x[k]*0.75 + x[k+1]*0.25, even
    output 2k+2 is x[k]*0.25 + x[k+1]*0.75. Outputs 0 and 2n-1 copy x[0]
    and x[n-1], which the formula weights 1 and a neighbour b weights 0.
    b*0 is a zero for finite b, and a*1 + (a zero) == a for every finite a,
    so the copy has the formula's value. The bits differ only when a is
    -0 and b*0 is +0, which the formula gives as +0: the two compare equal.
    """
    r1 = r0 + len(out)
    q = p * 0.25
    t = p * 0.75
    if r0 == 0 < r1:
        out[0] = p[0]
    if r0 < r1 == 2 * n:
        out[-1] = p[-1]
    lo, hi = max(r0, 1), min(r1, 2 * n - 1)  # interior outputs
    for i, first, second in ((lo | 1, t, q), (lo + (lo & 1), q, t)):  # first odd, even
        k, m = (i - 1) // 2 - a, (hi - i + 1) // 2
        if m > 0:
            np.add(first[k : k + m], second[k + 1 : k + 1 + m], out=out[i - r0 :: 2][:m])


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM (P5) with maxval 65535 into a native uint16 array:
    the header is checked by ``_pgm_raster``, the raster read by
    ``_Raster.dn_rows``, as a loaded stack reads it."""
    with open(path, "rb") as f:
        height, width, offset = _pgm_raster(f, path)
        raster = _Raster(f, Path(path), offset, height, width)
        return raster.dn_rows(0, height).astype(np.uint16)


def _pgm_raster(f: BinaryIO, path) -> tuple[int, int, int]:
    """(height, width, raster offset) of the binary PGM open as ``f``, once
    its header is valid (maxval 65535) and the file holds the whole raster.

    The header is read from ``f`` one byte at a time: whitespace and ``#``
    comments separate its four fields, and the single whitespace byte after
    maxval ends it.
    """

    def field() -> bytes:
        token, comment = bytearray(), False
        while c := f.read(1):
            if comment:
                comment = c not in b"\n\r"
            elif c == b"#" and not token:
                comment = True
            elif not c.isspace():
                token += c
            elif token:
                break
        if not token:
            raise PgmError(f"{path}: truncated header")
        return bytes(token)

    magic = field()
    if magic != b"P5":
        raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        width = int(field())
        height = int(field())
        maxval = int(field())
    except ValueError as exc:
        raise PgmError(f"{path}: bad header field") from exc
    if width <= 0 or height <= 0:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 65535:
        raise PgmError(f"{path}: maxval must be 65535, got {maxval}")
    pos = f.tell()
    expected = width * height * 2
    got = min(expected, max(0, f.seek(0, os.SEEK_END) - pos))
    if got != expected:
        raise PgmError(f"{path}: expected {expected} raster bytes, got {got}")
    return height, width, pos


def write_pgm16(path, values: np.ndarray) -> None:
    """Write 2-D samples as binary PGM (P5, maxval 65535, big-endian).

    Samples that are not uint16 must be whole numbers within [0, 65535];
    NaN and fractional values are rejected, not truncated.

    For tests; the package writes its PGMs with ``write_pgm16_rows``.
    """
    a = np.asarray(values)
    if a.ndim != 2:
        raise DimensionError(f"PGM data must be 2-D, got shape {a.shape}")
    if a.dtype != np.uint16:
        # NaN fails both bounds, so it never reaches the cast.
        if not ((a >= 0) & (a <= 65535)).all() or not (a.astype(np.uint16) == a).all():
            raise ValueError("PGM sample values must be whole numbers within [0, 65535]")
    write_pgm16_rows(path, a.shape[1], a.shape[0], (a.astype(">u2", order="C"),))


def write_pgm16_rows(path, width: int, height: int, chunks: Iterable[np.ndarray]) -> None:
    """Write a ``width`` x ``height`` binary PGM (P5, maxval 65535) from
    uint16 row chunks, top to bottom; each chunk is written before the
    next is taken from ``chunks``.

    The file is written under a temporary name in the same directory and
    renamed to ``path`` once complete, so an existing ``path`` is replaced,
    not rewritten: a loaded stack still reading it keeps its data. On an
    error the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        rows = 0
        with open(tmp, "wb") as f:
            f.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
            for chunk in chunks:
                if chunk.dtype.kind != "u" or chunk.dtype.itemsize != 2:
                    raise ValueError(f"PGM row chunks must be uint16, got {chunk.dtype}")
                if chunk.ndim != 2 or chunk.shape[1] != width:
                    raise DimensionError(
                        f"row chunk of shape {chunk.shape} for a PGM {width} wide"
                    )
                f.write(np.ascontiguousarray(chunk, dtype=">u2"))
                rows += len(chunk)
        if rows != height:
            raise DimensionError(f"{path}: wrote {rows} rows of a PGM {height} high")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def resample_plane(p: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a whole plane x2, bilinearly, with the window reader's
    upsampler (``_upsample_rows``); ``factor`` must be 2.

    Pixel centers align: output center (i + 0.5) / 2 maps to input
    coordinate (i + 0.5) / 2 - 0.5, clamped to the valid range so edges
    extend rather than shrink.

    For tests and the bench's traced replay; a census upsamples per window.
    """
    if factor != 2:
        raise ValueError(f"resample factor must be 2, got {factor}")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionError(f"plane must be 2-D, got shape {p.shape}")
    return _upsample_rows(p, 0, len(p), 0, 2 * len(p))


def read_manifest(manifest_path) -> tuple[dict, dict[BandId, Path]]:
    """(manifest, band paths): the manifest's JSON object and the path of
    every band's PGM, relative paths resolved against the manifest's
    directory. No band file is opened."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc

    bands_entry = manifest.get("bands") if isinstance(manifest, dict) else None
    if not isinstance(bands_entry, dict):
        raise ManifestError(f"manifest {manifest_path} lacks a 'bands' object")
    missing = [b.value for b in BandId if b.value not in bands_entry]
    if missing:
        raise ManifestError(f"missing band entries: {', '.join(missing)}")
    paths = {}
    for band in BandId:
        entry = bands_entry[band.value]
        if not isinstance(entry, str):
            raise ManifestError(f"manifest {manifest_path}: band {band.value} is not a path")
        paths[band] = manifest_path.parent / entry  # an absolute entry replaces the parent
    return manifest, paths


def load_band_stack(manifest_path) -> BandStack:
    """Load a ten-band stack described by a manifest.

    Each band's file is opened once, here, and its header and raster size
    are checked on that handle; no raster is read. The stack keeps the
    files open until it is dropped and reads them while in use: ``rows``
    reads the digital numbers under a row window, divides them by 10000
    and brings 20 m bands to the 10 m grid with bilinear resampling. So a
    band file must not shrink while its stack is in use (reading then
    raises ``PgmError``); writers here replace files rather than rewrite
    them, so a stack keeps reading the data it was loaded from. 20 m
    planes must be exactly half the 10 m dimensions.
    """
    manifest, paths = read_manifest(manifest_path)
    with ExitStack() as files:
        rasters: dict[BandId, _Raster] = {}
        for band, band_path in paths.items():
            try:
                f = files.enter_context(open(band_path, "rb"))
                height, width, offset = _pgm_raster(f, band_path)
            except OSError as exc:
                raise ManifestError(f"cannot read band {band.value}: {exc}") from exc
            rasters[band] = _Raster(f, band_path, offset, height, width)
        planes = _DnPlanes(rasters)
        weakref.finalize(planes, files.pop_all().close)  # closes the band files

    geo = None
    geo_entry = manifest.get("geo")
    if geo_entry is not None:
        try:
            geo = GeoRef(
                origin_easting=float(geo_entry["origin_easting"]),
                origin_northing=float(geo_entry["origin_northing"]),
                crs=str(geo_entry["crs"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"manifest geo block is malformed: {exc}") from exc

    return BandStack(width=planes.width, height=planes.height, pixel_size=PIXEL_SIZE_M,
                     planes=planes, geo=geo)


def check_saveable(width: int, height: int) -> None:
    """Raise DimensionError unless ``save_band_stack`` can write a stack of
    this size: 20 m bands are written at half resolution."""
    if width % 2 or height % 2:
        raise DimensionError(
            f"cannot export a {width}x{height} stack: dimensions "
            f"must be even so 20 m bands can be written at half resolution"
        )


def row_chunks(width: int, height: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``(r0, r1)`` over ``height`` rows, in which
    scenes are drawn and written: ``_BLOCK_PIXELS // width`` rows rounded
    down to even, at least 2 (the last range may be shorter). Even heights
    keep the 2x2 blocks of a 20 m band whole."""
    step = max(2, _BLOCK_PIXELS // max(width, 1) // 2 * 2)
    for r0 in range(0, height, step):
        yield r0, min(r0 + step, height)


def write_bands(
    out_dir,
    width: int,
    height: int,
    band_rows: Callable[[BandId], Iterable[np.ndarray]],
    geo: GeoRef | None = None,
) -> Path:
    """Write ten band PGMs plus manifest.json; returns the manifest path.

    ``band_rows(band)`` yields the band's float64 reflectances on the 10 m
    grid as (rows, width) chunks of even height, top to bottom (the ranges
    of ``row_chunks`` will do). Bands are asked for in ``BandId`` order, and
    each chunk is written before the next is asked for, so a caller may
    reuse one buffer. Only chunk-sized buffers are allocated here.

    Bands are written at their native resolutions: 10 m bands as-is, 20 m
    bands reduced to half dimensions by 2x2 block averaging (their manifest
    representation). A block of samples x00 x01 / x10 x11 is written as
    ((x00 + x01) + (x10 + x11)) / 4, the order in which numpy's ``mean``
    over the block sums. Reflectances are converted to digital numbers
    (x10000, rounded half to even, clipped to the 16-bit range). Dimensions
    must be even, which is checked before ``out_dir`` is created.
    ``BandStack.from_reflectance`` holds in memory what this writes.
    """
    return _write_dn_bands(out_dir, width, height,
                           lambda band: _dn_rows(band, band_rows(band)), geo)


def _write_dn_bands(
    out_dir,
    width: int,
    height: int,
    dn_chunks: Callable[[BandId], Iterable[np.ndarray]],
    geo: GeoRef | None,
) -> Path:
    """``write_bands`` from ``dn_chunks(band)``: the band's uint16 digital
    numbers at its native resolution, in row chunks, top to bottom."""
    check_saveable(width, height)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bands_entry = {}
    for band in BandId:
        name = f"{band.value.lower()}.pgm"
        f = 2 if band.native_resolution_m == 20 else 1
        write_pgm16_rows(out_dir / name, width // f, height // f, dn_chunks(band))
        bands_entry[band.value] = name
    manifest: dict = {"bands": bands_entry}
    if geo is not None:
        manifest["geo"] = {
            "origin_easting": geo.origin_easting,
            "origin_northing": geo.origin_northing,
            "crs": geo.crs,
        }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _dn_rows(band: BandId, chunks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Big-endian uint16 digital numbers of reflectance row chunks at the
    band's native resolution (see ``write_bands``)."""
    for p in chunks:
        if band.native_resolution_m == 20:
            if len(p) % 2:
                raise DimensionError(f"band {band.value}: row chunk of odd height {len(p)}")
            x = p[0::2, 0::2] + p[0::2, 1::2]
            x += p[1::2, 0::2] + p[1::2, 1::2]
            x /= 4
            x *= DN_SCALE
        else:
            x = p * DN_SCALE
        np.rint(x, out=x)
        np.clip(x, 0, 65535, out=x)
        yield x.astype(">u2")


def save_band_stack(stack: BandStack, out_dir) -> Path:
    """Write a stack of digital numbers (loaded, or from
    ``BandStack.from_reflectance``) as band PGMs plus manifest.json; returns
    the manifest path.

    Bands are written one at a time, in the row chunks of ``row_chunks``:
    the digital numbers are copied at their native resolution (the band
    reader's ``dn_rows``), so saving is lossless and a save of the saved
    stack gives the same bytes. A stack built from float64 planes holds no
    digital numbers and raises ValueError, before ``out_dir`` is created;
    its reflectances are quantized by ``BandStack.from_reflectance`` or
    written by ``write_bands``.
    """
    if not isinstance(stack.planes, _DnPlanes):
        raise ValueError("save_band_stack writes a stack of digital numbers; quantize "
                         "float64 planes with BandStack.from_reflectance or write_bands")
    w, h = stack.width, stack.height
    rasters = stack.planes.rasters

    def dn_chunks(band: BandId) -> Iterator[np.ndarray]:
        f = band.native_resolution_m // 10
        return (rasters[band].dn_rows(r0 // f, r1 // f) for r0, r1 in row_chunks(w, h))

    return _write_dn_bands(out_dir, w, h, dn_chunks, stack.geo)
