"""Ten-band reflectance stacks at a uniform 10 m per pixel.

Input format is deliberately plain: one binary 16-bit PGM (P5, maxval
65535, big-endian) per band plus a JSON manifest mapping band names to
file paths. Digital numbers are scaled to reflectance by dividing by
10000; 20 m bands are upsampled x2 to the 10 m grid, bilinearly.

A loaded stack keeps each band's uint16 digital numbers at its native
resolution and scales and upsamples them one row window at a time, when
``BandStack.rows`` asks for the window: a census never holds a whole
float64 plane. The window reader upsamples 20 m bands from fixed
quarter and three-quarter slice sums; every value is bitwise equal to
``resample_plane`` of the scaled band. Census stages walk the stack
through ``BandStack.windows``, which owns the window size
(``_BLOCK_PIXELS`` pixels per window).

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
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DimensionError, ManifestError, PgmError

__all__ = [
    "BandId",
    "FEATURE_ORDER",
    "GeoRef",
    "BandStack",
    "read_pgm16",
    "write_pgm16",
    "load_band_stack",
    "save_band_stack",
    "check_saveable",
    "resample_plane",
    "crop",
]

DN_SCALE = 10000.0
PIXEL_SIZE_M = 10.0

# Most pixels per row window of a census stage: small enough that a
# window's activations stay in cache, large enough to keep per-window
# overhead negligible.
_BLOCK_PIXELS = 16384


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

# Fixed classifier feature ordering; serialized with every model.
FEATURE_ORDER: tuple[BandId, ...] = tuple(BandId)


@dataclass(frozen=True)
class GeoRef:
    """Top-left corner of pixel (0, 0) in a projected CRS, meters."""

    origin_easting: float
    origin_northing: float
    crs: str


@dataclass(frozen=True)
class BandStack:
    """Ten co-registered reflectance planes on a common 10 m grid.

    ``planes`` maps every band to a float64 plane of shape (height,
    width), row-major, finite and non-negative. A stack from
    ``load_band_stack`` holds the bands' uint16 digital numbers instead,
    and its ``planes`` builds a band's whole plane on each lookup. Census
    stages walk the stack through ``windows``, which sets the window size,
    and read each window through ``rows``, which only slices in-memory
    planes. Treat instances as immutable.
    """

    width: int
    height: int
    pixel_size: float
    planes: Mapping[BandId, np.ndarray]
    geo: GeoRef | None = None

    def __post_init__(self):
        missing = [b.value for b in BandId if b not in self.planes]
        if missing:
            raise ManifestError(f"missing band planes: {', '.join(missing)}")
        dn = isinstance(self.planes, _DnPlanes)
        for band in BandId:
            shape = self.planes.shape if dn else self.planes[band].shape
            if shape != (self.height, self.width):
                raise DimensionError(
                    f"band {band.value} has shape {shape}, "
                    f"expected {(self.height, self.width)}"
                )
            # uint16 / DN_SCALE under convex bilinear weights is always
            # finite and non-negative: only in-memory planes need checking.
            if dn:
                continue
            plane = self.planes[band]
            if not np.isfinite(plane).all() or (plane < 0).any():
                raise ValueError(f"band {band.value} has non-finite or negative values")

    def rows(
        self, r0: int, r1: int, bands: Iterable[BandId] = FEATURE_ORDER
    ) -> dict[BandId, np.ndarray]:
        """Float64 (r1 - r0, width) windows of rows r0..r1-1 of ``bands``.

        In-memory planes are sliced, not copied. A loaded stack divides
        the digital numbers by DN_SCALE, and upsamples 20 m bands from
        the input rows under the window plus a one-row halo: every value
        is bitwise equal to ``resample_plane`` of the whole scaled band.
        """
        if not 0 <= r0 < r1 <= self.height:
            raise ValueError(f"row window [{r0}, {r1}) is not within [0, {self.height})")
        if isinstance(self.planes, _DnPlanes):
            return self.planes.window(r0, r1, bands)
        return {b: np.asarray(self.planes[b][r0:r1], dtype=np.float64) for b in bands}

    def windows(self, bands: Iterable[BandId] = FEATURE_ORDER, where=None) -> Iterator:
        """Yield ``(r0, r1, self.rows(r0, r1, bands))`` for consecutive row
        windows of ``_BLOCK_PIXELS // width`` rows (at least one; the last may be
        shorter). A window with no true entry in rows r0..r1-1 of ``where``, an
        (H, W) mask or one flag per row, is skipped unread."""
        step = max(1, _BLOCK_PIXELS // max(self.width, 1))
        for r0 in range(0, self.height, step):
            r1 = min(r0 + step, self.height)
            if where is None or where[r0:r1].any():
                yield r0, r1, self.rows(r0, r1, bands)

    def features(self, rows, cols, order: tuple[BandId, ...] = FEATURE_ORDER) -> np.ndarray:
        """N x len(order) float64 features of the pixels (rows[i], cols[i]).

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
        out = np.empty((len(rows), len(order)))
        by_row = np.argsort(rows, kind="stable")
        sorted_rows = rows[by_row]
        held = np.zeros(self.height, dtype=bool)
        held[rows] = True
        for r0, r1, block in self.windows(order, where=held):
            lo, hi = np.searchsorted(sorted_rows, (r0, r1))
            i = by_row[lo:hi]
            at = (rows[i] - r0, cols[i])
            for j, band in enumerate(order):
                out[i, j] = block[band][at]
        return out


class _DnPlanes(Mapping):
    """The planes of a loaded stack, kept as uint16 digital numbers at each
    band's native resolution; 20 m bands are half the 10 m ``shape``.

    ``window`` builds float64 row windows on the 10 m grid. Looking up a
    band builds its whole plane, the window over all rows.
    """

    def __init__(self, dn: dict[BandId, np.ndarray]):
        self.dn = dn
        self.shape = dn[BandId.B2].shape

    def __getitem__(self, band: BandId) -> np.ndarray:
        return self.window(0, self.shape[0], (band,))[band]

    def __contains__(self, band) -> bool:  # Mapping's default would build the plane
        return band in self.dn

    def __iter__(self):
        return iter(self.dn)

    def __len__(self) -> int:
        return len(self.dn)

    def window(self, r0: int, r1: int, bands: Iterable[BandId]) -> dict[BandId, np.ndarray]:
        out = {}
        n = self.shape[0] // 2
        a, b = max(0, (r0 - 1) // 2), min(n - 1, r1 // 2)  # 20 m rows under the window
        for band in bands:
            dn = self.dn[band]
            if band.native_resolution_m == 10:
                p = dn[r0:r1].astype(np.float64)
                p /= DN_SCALE
            else:
                p = dn[a : b + 1].astype(np.float64)
                p /= DN_SCALE
                row = np.empty((len(p), 2 * p.shape[1]))
                _upsample2(p.T, 0, p.shape[1], row.T, 0)  # columns, at input height
                p = np.empty((r1 - r0, row.shape[1]))
                _upsample2(row, a, n, p, r0)
            out[band] = p
        return out


def _upsample2(p: np.ndarray, a: int, n: int, out: np.ndarray, r0: int) -> None:
    """Write outputs r0..r0+len(out)-1, along axis 0, of the factor-2
    bilinear upsampling of an axis of ``n`` input samples x; ``p`` holds
    x[a], x[a+1], ..., every sample those outputs need.

    The interior weights are exactly 1/4 and 3/4, so slice sums replace
    ``_bilinear``'s gathers with the same IEEE operations: odd output 2k+1
    is x[k]*0.75 + x[k+1]*0.25 and even output 2k+2 is x[k]*0.25 +
    x[k+1]*0.75. Outputs 0 and 2n-1 copy x[0] and x[n-1]: ``_bilinear``
    weights those 1 and a neighbour 0, and a*1 + b*0 == a for finite
    a >= +0 and finite b.
    """
    r1 = r0 + len(out)
    q = p * 0.25
    t = p * 0.75
    if r0 == 0:
        out[0] = p[0]
    if r1 == 2 * n:
        out[-1] = p[-1]
    lo, hi = max(r0, 1), min(r1, 2 * n - 1)  # interior outputs
    for i, first, second in ((lo | 1, t, q), (lo + (lo & 1), q, t)):  # first odd, even
        k, m = (i - 1) // 2 - a, (hi - i + 1) // 2
        if m > 0:
            np.add(first[k : k + m], second[k + 1 : k + 1 + m], out=out[i - r0 :: 2][:m])


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM (P5) with maxval 65535 into a uint16 array."""
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
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 2
    raster = memoryview(data)[pos : pos + expected]
    if len(raster) != expected:
        raise PgmError(f"{path}: expected {expected} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=">u2").reshape(height, width).astype(np.uint16)


def write_pgm16(path, values: np.ndarray) -> None:
    """Write 2-D samples as binary PGM (P5, maxval 65535, big-endian).

    Samples that are not uint16 must be whole numbers within [0, 65535];
    NaN and fractional values are rejected, not truncated.
    """
    a = np.asarray(values)
    if a.ndim != 2:
        raise DimensionError(f"PGM data must be 2-D, got shape {a.shape}")
    if a.dtype != np.uint16:
        # NaN fails both bounds, so it never reaches the cast.
        if not ((a >= 0) & (a <= 65535)).all() or not (a.astype(np.uint16) == a).all():
            raise ValueError("PGM sample values must be whole numbers within [0, 65535]")
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        a.astype(">u2").tofile(f)


def _axis_coords(start: int, stop: int, n_in: int, factor: int):
    """Bilinear source coordinates of output indices start..stop-1 along an
    axis of ``n_in`` input samples: (lower index, upper index, fraction)."""
    x = (np.arange(start, stop) + 0.5) / factor - 0.5
    x = np.clip(x, 0.0, n_in - 1.0)
    lo = np.floor(x).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, x - lo


def _bilinear(p: np.ndarray, rows, cols) -> np.ndarray:
    """Samples of ``p`` at ``_axis_coords`` triples ``rows`` and ``cols``.

    Interpolates along columns once at input height, then along rows.
    Each axis gathers into a fresh array and weights it in place, so
    every output element gets a * (1 - f) + b * f in that order.
    """
    r0, r1, fy = rows
    c0, c1, fx = cols
    fy = fy[:, None]
    row = np.take(p, c0, axis=1)
    row *= 1 - fx
    t = np.take(p, c1, axis=1)
    t *= fx
    row += t
    out = np.take(row, r0, axis=0)
    out *= 1 - fy
    t = np.take(row, r1, axis=0)
    t *= fy
    out += t
    return out


def resample_plane(p: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a plane by an integer factor, bilinearly.

    Pixel centers align: output center (i + 0.5) / factor maps to input
    coordinate (i + 0.5) / factor - 0.5, clamped to the valid range so
    edges extend rather than shrink.
    """
    if factor < 1:
        raise ValueError(f"resample factor must be >= 1, got {factor}")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionError(f"plane must be 2-D, got shape {p.shape}")
    if factor == 1:
        return p.copy()
    h, w = p.shape
    return _bilinear(
        p, _axis_coords(0, h * factor, h, factor), _axis_coords(0, w * factor, w, factor)
    )


def load_band_stack(manifest_path) -> BandStack:
    """Load a ten-band stack described by a manifest.

    The stack keeps each band's uint16 digital numbers; ``rows`` divides
    them by 10000 and brings 20 m bands to the 10 m grid with bilinear
    resampling, one row window at a time. 20 m planes must be exactly
    half the 10 m dimensions.
    """
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

    raw: dict[BandId, np.ndarray] = {}
    for band in BandId:
        entry = bands_entry[band.value]
        if not isinstance(entry, str):
            raise ManifestError(f"manifest {manifest_path}: band {band.value} is not a path")
        band_path = Path(entry)
        if not band_path.is_absolute():
            band_path = manifest_path.parent / band_path
        try:
            dn = read_pgm16(band_path)
        except OSError as exc:
            raise ManifestError(f"cannot read band {band.value}: {exc}") from exc
        raw[band] = dn

    ref10 = raw[BandId.B2].shape
    for band in BandId:
        shape = raw[band].shape
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

    return BandStack(
        width=ref10[1],
        height=ref10[0],
        pixel_size=PIXEL_SIZE_M,
        planes=_DnPlanes(raw),
        geo=geo,
    )


def check_saveable(width: int, height: int) -> None:
    """Raise DimensionError unless ``save_band_stack`` can write a stack of
    this size: 20 m bands are written at half resolution."""
    if width % 2 or height % 2:
        raise DimensionError(
            f"cannot export a {width}x{height} stack: dimensions "
            f"must be even so 20 m bands can be written at half resolution"
        )


def save_band_stack(stack: BandStack, out_dir) -> Path:
    """Write a stack as band PGMs plus manifest.json; returns manifest path.

    Bands are written at their native resolutions: 10 m bands as-is,
    20 m bands reduced to half dimensions by 2x2 block averaging (their
    manifest representation). A block of samples x00 x01 / x10 x11 is
    written as ((x00 + x01) + (x10 + x11)) / 4, the order in which numpy's
    ``mean`` over the block sums. Reflectances are converted back to digital
    numbers (x10000, rounded half to even, clipped to the 16-bit range), so
    a save/load round trip quantizes 10 m values to 1e-4 and smooths the
    20 m bands. Stack dimensions must be even.
    """
    check_saveable(stack.width, stack.height)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bands_entry = {}
    for band in BandId:
        p = np.asarray(stack.planes[band], dtype=np.float64)
        if band.native_resolution_m == 20:
            x = p[0::2, 0::2] + p[0::2, 1::2]
            x += p[1::2, 0::2] + p[1::2, 1::2]
            x /= 4
            x *= DN_SCALE
        else:
            x = p * DN_SCALE
        np.rint(x, out=x)
        np.clip(x, 0, 65535, out=x)
        name = f"{band.value.lower()}.pgm"
        write_pgm16(out_dir / name, x.astype(np.uint16))
        bands_entry[band.value] = name
    manifest: dict = {"bands": bands_entry}
    if stack.geo is not None:
        manifest["geo"] = {
            "origin_easting": stack.geo.origin_easting,
            "origin_northing": stack.geo.origin_northing,
            "crs": stack.geo.crs,
        }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def crop(s: BandStack, x0: int, y0: int, w: int, h: int) -> BandStack:
    """Crop all planes to the rectangle (x0, y0, w, h), shifting geo origin."""
    if w < 1 or h < 1:
        raise DimensionError(f"crop size must be positive, got {w}x{h}")
    if x0 < 0 or y0 < 0 or x0 + w > s.width or y0 + h > s.height:
        raise DimensionError(
            f"crop rectangle ({x0},{y0},{w},{h}) exceeds stack bounds "
            f"{s.width}x{s.height}"
        )
    planes = {b: p[:, x0 : x0 + w].copy() for b, p in s.rows(y0, y0 + h).items()}
    geo = s.geo
    if geo is not None:
        geo = replace(
            geo,
            origin_easting=geo.origin_easting + x0 * s.pixel_size,
            origin_northing=geo.origin_northing - y0 * s.pixel_size,
        )
    return BandStack(width=w, height=h, pixel_size=s.pixel_size, planes=planes, geo=geo)
