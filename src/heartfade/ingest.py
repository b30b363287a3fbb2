"""Image and observation ingestion.

Decodes PPM photographs (P3/P6, maxval 255), samples region-mean colours,
parses the observation table into columns in one checked pass (the first
bad row raises as it is read), and builds every heart's delta-E series
against a fresh-paint baseline. Every CSV table is read through one front,
`csv_rows`.
"""

from __future__ import annotations

import csv
import datetime
import io
import operator
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .color import LabColor, LabOffset, srgb_array_to_lab

__all__ = [
    "PixelGrid",
    "Region",
    "ObservationColumns",
    "PpmError",
    "ObservationError",
    "RegionError",
    "parse_ppm",
    "mean_lab_of_region",
    "csv_rows",
    "load_observations",
    "build_series",
]

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_EPOCH = datetime.date(1970, 1, 1)
# the columns a row must reach; source is required in the header, not read
_READ = ("heart_id", "date", "L", "a", "b")
# a PPM token: a comment runs from # to the end of its line, anything else
# to the next whitespace
_PPM_TOKEN = re.compile(rb"#[^\n]*|\S+")


class PpmError(ValueError):
    """Malformed PPM input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ObservationError(ValueError):
    """Malformed observation CSV row or header."""


class RegionError(ValueError):
    """Region outside its grid, or with zero area."""


@dataclass(frozen=True, eq=False)
class PixelGrid:
    """Decoded image: (height, width, 3) uint8 array of sRGB pixels."""

    width: int
    height: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"pixel array shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


@dataclass(frozen=True)
class Region:
    """Rectangular pixel region: top-left (x, y), extents (w, h)."""

    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True)
class ObservationColumns:
    """The observation table as arrays, one entry per data row in file order:
    heart[i] indexes heart_ids (in order of first occurrence), day[i] is days
    since 1970-01-01 (int64), lab[i] the (L, a, b) reading (float64, (n, 3))."""

    heart_ids: list[str]
    heart: np.ndarray = field(repr=False)
    day: np.ndarray = field(repr=False)
    lab: np.ndarray = field(repr=False)

    def __len__(self) -> int:  # the number of data rows
        return len(self.day)


def _ppm_tokens(data: bytes, pos: int = 0) -> Iterator[re.Match]:
    """The PPM tokens of `data` from `pos` on, comments skipped; asked for
    one more, it raises "unexpected end of input"."""
    for tok in _PPM_TOKEN.finditer(data, pos):
        if not tok[0].startswith(b"#"):
            yield tok
    raise PpmError("unexpected end of input", len(data))


def _next_int(tokens: Iterator[re.Match], what: str) -> tuple[int, re.Match]:
    tok = next(tokens)
    try:
        return int(tok[0]), tok
    except ValueError:
        raise PpmError(f"invalid {what} {tok[0]!r}", tok.start()) from None


def parse_ppm(data: bytes) -> PixelGrid:
    """Decode a PPM image (magic P3 or P6, maxval 255)."""
    tokens = _ppm_tokens(data)
    magic = next(tokens)
    if magic[0] not in (b"P3", b"P6"):
        raise PpmError(
            f"unsupported format magic {magic[0]!r}, expected P3 or P6", magic.start()
        )
    width, tok = _next_int(tokens, "width")
    if width < 1:
        raise PpmError(f"width must be positive, got {width}", tok.start())
    height, tok = _next_int(tokens, "height")
    if height < 1:
        raise PpmError(f"height must be positive, got {height}", tok.start())
    maxval, tok = _next_int(tokens, "maxval")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, only 255 accepted", tok.start())

    n = width * height * 3
    pos = tok.end()
    if magic[0] == b"P6":
        # exactly one whitespace byte separates maxval from pixel data
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PpmError("missing whitespace after maxval", pos)
        raw = data[pos + 1 : pos + 1 + n]
        if len(raw) < n:
            raise PpmError(
                f"truncated pixel data: expected {n} bytes, got {len(raw)}",
                pos + 1 + len(raw),
            )
        pixels = np.frombuffer(raw, dtype=np.uint8).copy()
    else:
        pixels = _p3_samples(data, pos, n)
    return PixelGrid(width, height, pixels.reshape(height, width, 3))


def _p3_samples(data: bytes, pos: int, n: int) -> np.ndarray:
    """The n ASCII samples from `pos` on, split in one pass.

    Any raster this cannot decode (too few tokens, a token int() rejects,
    such as a comment, or a value outside 0..255) is walked token by token
    instead, which skips comments and reports the first bad token with its
    offset.
    """
    try:
        pieces = data[pos:].split(maxsplit=n)[:n]
        if len(pieces) == n:
            values = np.fromiter(map(int, pieces), dtype=np.int64, count=n)
            if values.min() >= 0 and values.max() <= 255:
                return values.astype(np.uint8)
    except (ValueError, OverflowError):
        pass
    # values grow with the tokens found, so a header claiming more samples
    # than the file holds allocates nothing up front
    values = []
    tokens = _ppm_tokens(data, pos)
    for i in range(n):
        try:
            v, tok = _next_int(tokens, "sample")
        except PpmError as exc:
            raise PpmError(
                f"truncated pixel data: expected {n} samples, got {i}", exc.offset
            ) from None
        if not 0 <= v <= 255:
            raise PpmError(f"sample {v} outside 0..255", tok.start())
        values.append(v)
    return np.array(values, dtype=np.uint8)


def mean_lab_of_region(grid: PixelGrid, region: Region, offset: LabOffset) -> LabColor:
    """Mean calibrated LAB colour over a rectangular region.

    Pixels are converted to LAB, the offset applied, then averaged per
    channel (averaging happens in LAB, matching the colorimeter workflow).
    """
    if region.w < 1 or region.h < 1:
        raise RegionError(f"region has zero area: {region}")
    if (
        region.x < 0
        or region.y < 0
        or region.x + region.w > grid.width
        or region.y + region.h > grid.height
    ):
        raise RegionError(f"region {region} outside {grid.width}x{grid.height} grid")
    patch = grid.pixels[region.y : region.y + region.h, region.x : region.x + region.w]
    lab = srgb_array_to_lab(patch.reshape(-1, 3))
    lab += np.array([offset.dL, offset.da, offset.db])
    with np.errstate(over="ignore"):  # an offset near the float limit sums to inf
        mean = lab.mean(axis=0)
    if not np.isfinite(mean).all():
        raise RegionError(f"region {region}: calibrated mean LAB is not finite")
    return LabColor(float(mean[0]), float(mean[1]), float(mean[2]))


def csv_rows(
    data: bytes | str,
    columns: Sequence[str],
    error: type[ValueError],
    required: Sequence[str] = (),
) -> Iterator[tuple[str, ...]]:
    """The fields `columns` of each data row of a CSV table, in file order:
    the front every CSV loader shares.

    `data` is UTF-8 text or bytes (a leading BOM is dropped; byte offsets
    count from the first byte); its first line is the header, where the last
    of duplicate names wins, and which must hold `columns` and `required`.
    Blank lines are neither rows nor counted. The iterator raises `error`
    for bytes that do not decode, a missing column, a row too short for one
    of `columns` (row N: missing field(s)) and text csv cannot split.
    """
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
            ) from None
    rows = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        column = {name: j for j, name in enumerate(next(rows, []))}
        missing = [c for c in (*columns, *required) if c not in column]
        if missing:
            raise error(f"missing column(s): {', '.join(missing)}")
        index = [column[c] for c in columns]
        pick = operator.itemgetter(*index)
        for n, row in enumerate(filter(None, rows), start=2):  # row 1: the header
            yield pick(row)  # IndexError on a short row
    except IndexError:
        short = ", ".join(c for c, j in zip(columns, index) if j >= len(row))
        raise error(f"row {n}: missing field(s): {short}") from None
    except csv.Error as exc:
        raise error(str(exc)) from None


def load_observations(csv_bytes: bytes | str) -> ObservationColumns:
    """Parse the observation table into columns in one pass, in file order.

    Header (the first line): heart_id,date,L,a,b,source; source is not
    read. Dates are YYYY-MM-DD, stripped (a month without a day is
    rejected, not guessed at), LAB values what float() reads as finite.
    Blank lines are neither rows nor counted. Hearts are indexed by first
    occurrence, and each distinct date text is converted once.

    The first bad row raises its row-numbered ObservationError as it is
    read, its date checked before its values, as does a row too short for
    a column that is read; text csv cannot split raises it unnumbered.
    """
    rows = csv_rows(csv_bytes, _READ, ObservationError, required=("source",))
    codes: dict[str, int] = {}
    days: dict[str, int] = {}  # date text -> days since 1970-01-01
    epoch = _EPOCH.toordinal()
    heart, day, lab = [], [], []
    for i, (h, d, l_, a_, b_) in enumerate(rows, start=2):
        if d not in days:
            raw = d.strip()
            if not _ISO_DATE.match(raw):
                raise ObservationError(
                    f"row {i}: date {raw!r} is not a full YYYY-MM-DD date"
                )
            try:
                days[d] = datetime.date.fromisoformat(raw).toordinal() - epoch
            except ValueError:
                raise ObservationError(f"row {i}: invalid date {raw!r}") from None
        try:
            x, y, z = float(l_), float(a_), float(b_)
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                raise ValueError("LAB value not finite")
        except ValueError:
            raise ObservationError(
                f"row {i}: non-numeric LAB values ({l_!r}, {a_!r}, {b_!r})"
            ) from None
        heart.append(codes.setdefault(h, len(codes)))
        day.append(days[d])
        lab += x, y, z
    return ObservationColumns(
        list(codes),
        np.array(heart, np.int64),
        np.array(day, np.int64),
        np.array(lab, np.float64).reshape(-1, 3),
    )


def build_series(
    cols: ObservationColumns, baseline: LabColor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every heart's delta-E-vs-day series as flat arrays (heart, day, delta_e).

    Same-date readings of one heart are averaged in LAB (float64 sums
    accumulated in row order, as Python's sum adds them) before the delta
    E is taken. Points run by heart, in order of first occurrence, then by
    date; day counts from the heart's earliest reading. A mean whose sum
    overflowed raises ObservationError, for the first such heart and its
    earliest such date.
    """
    # one key per (heart, date), sorted by heart, then date; `initial`
    # serves an empty table, and any first <= min(day) keys alike
    first = cols.day.min(initial=0)
    span = cols.day.max(initial=0) - first + 1
    keys, group = np.unique(cols.heart * span + (cols.day - first), return_inverse=True)
    sums = np.stack([np.bincount(group, cols.lab[:, j]) for j in range(3)], axis=1)
    mean = sums / np.bincount(group)[:, None]
    heart, day = np.divmod(keys, span)
    bad = np.flatnonzero(~np.isfinite(mean).all(axis=1))
    if len(bad):
        date = _EPOCH + datetime.timedelta(days=int(day[bad[0]] + first))
        raise ObservationError(
            f"heart {cols.heart_ids[heart[bad[0]]]}: mean LAB on {date} is not finite"
        )
    with np.errstate(over="ignore"):  # a square too large for a float is inf
        d = mean - (baseline.L, baseline.a, baseline.b)
        delta = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    # day minus the day of the heart's first point
    return heart, day - day[np.searchsorted(heart, heart)], delta

