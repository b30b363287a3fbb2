"""Image and observation ingestion.

Decodes PPM photographs (P3/P6, maxval 255), samples region-mean colours,
parses observation CSV tables, and builds per-heart delta-E time series
against a fresh-paint baseline.
"""

from __future__ import annotations

import csv
import datetime
import io
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .color import LabColor, LabOffset, SrgbColor, delta_e, srgb_array_to_lab

__all__ = [
    "PixelGrid",
    "Region",
    "Observation",
    "HeartSeries",
    "PpmError",
    "ObservationError",
    "RegionError",
    "parse_ppm",
    "encode_p3",
    "encode_p6",
    "mean_lab_of_region",
    "load_observations",
    "build_series",
]

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class PpmError(ValueError):
    """Malformed PPM input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ObservationError(ValueError):
    """Malformed observation CSV row or header."""


class RegionError(ValueError):
    """Region outside its grid, or with zero area."""


@dataclass(frozen=True)
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

    def pixel(self, x: int, y: int) -> SrgbColor:
        r, g, b = self.pixels[y, x]
        return SrgbColor(int(r), int(g), int(b))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PixelGrid)
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True)
class Region:
    """Rectangular pixel region: top-left (x, y), extents (w, h)."""

    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True, slots=True)
class Observation:
    """One dated, already-calibrated colour reading of one heart."""

    heart_id: str
    date: datetime.date
    lab: LabColor
    source: str = ""


@dataclass(frozen=True)
class HeartSeries:
    """Delta-E trajectory of one heart relative to the fresh-paint baseline.

    points are (day_index, delta_e) pairs, day_index counted from the
    heart's earliest observation, strictly increasing.
    """

    heart_id: str
    baseline: LabColor
    points: tuple[tuple[int, float], ...]


class _Tokens:
    """Whitespace/comment-aware tokenizer over PPM header bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                end = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if end < 0 else end + 1
            else:
                return

    def next_token(self) -> tuple[bytes, int]:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.data) and not self.data[
            self.pos : self.pos + 1
        ].isspace():
            self.pos += 1
        if self.pos == start:
            raise PpmError("unexpected end of input", start)
        return self.data[start : self.pos], start

    def next_int(self, what: str) -> tuple[int, int]:
        tok, start = self.next_token()
        try:
            return int(tok), start
        except ValueError:
            raise PpmError(f"invalid {what} {tok!r}", start) from None


def parse_ppm(data: bytes) -> PixelGrid:
    """Decode a PPM image (magic P3 or P6, maxval 255)."""
    toks = _Tokens(data)
    magic, at = toks.next_token()
    if magic not in (b"P3", b"P6"):
        raise PpmError(f"unsupported format magic {magic!r}, expected P3 or P6", at)
    width, at = toks.next_int("width")
    if width < 1:
        raise PpmError(f"width must be positive, got {width}", at)
    height, at = toks.next_int("height")
    if height < 1:
        raise PpmError(f"height must be positive, got {height}", at)
    maxval, at = toks.next_int("maxval")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, only 255 accepted", at)

    n = width * height * 3
    if magic == b"P6":
        # exactly one whitespace byte separates maxval from pixel data
        if toks.pos >= len(data) or not data[toks.pos : toks.pos + 1].isspace():
            raise PpmError("missing whitespace after maxval", toks.pos)
        start = toks.pos + 1
        raw = data[start : start + n]
        if len(raw) < n:
            raise PpmError(
                f"truncated pixel data: expected {n} bytes, got {len(raw)}",
                start + len(raw),
            )
        pixels = np.frombuffer(raw, dtype=np.uint8).copy()
    else:
        pixels = _p3_samples(toks, n)
    return PixelGrid(width, height, pixels.reshape(height, width, 3))


def _p3_samples(toks: _Tokens, n: int) -> np.ndarray:
    """The n ASCII samples after the header, split in one pass.

    Any raster this cannot decode (too few tokens, a token int() rejects,
    such as a comment, or a value outside 0..255) goes through _walk_samples,
    which decodes comments and reports the first bad token with its offset.
    """
    try:
        pieces = toks.data[toks.pos :].split(maxsplit=n)[:n]
        if len(pieces) == n:
            values = np.fromiter(map(int, pieces), dtype=np.int64, count=n)
            if values.min() >= 0 and values.max() <= 255:
                return values.astype(np.uint8)
    except (ValueError, OverflowError):
        pass
    return _walk_samples(toks, n)


def _walk_samples(toks: _Tokens, n: int) -> np.ndarray:
    # values grow with the tokens found, so a header claiming more samples
    # than the file holds allocates nothing up front
    values = []
    for i in range(n):
        try:
            v, at = toks.next_int("sample")
        except PpmError as exc:
            raise PpmError(
                f"truncated pixel data: expected {n} samples, got {i}", exc.offset
            ) from None
        if not 0 <= v <= 255:
            raise PpmError(f"sample {v} outside 0..255", at)
        values.append(v)
    return np.array(values, dtype=np.uint8)


def encode_p3(grid: PixelGrid) -> bytes:
    """Encode a grid as ASCII PPM (test and demo support)."""
    out = io.StringIO()
    out.write(f"P3\n{grid.width} {grid.height}\n255\n")
    for row in grid.pixels:
        out.write(" ".join(str(int(v)) for v in row.reshape(-1)))
        out.write("\n")
    return out.getvalue().encode("ascii")


def encode_p6(grid: PixelGrid) -> bytes:
    """Encode a grid as binary PPM."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + grid.pixels.astype(np.uint8).tobytes()


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
        raise RegionError(
            f"region {region} outside {grid.width}x{grid.height} grid"
        )
    patch = grid.pixels[
        region.y : region.y + region.h, region.x : region.x + region.w
    ]
    lab = srgb_array_to_lab(patch.reshape(-1, 3))
    lab += np.array([offset.dL, offset.da, offset.db])
    mean = lab.mean(axis=0)
    return LabColor(float(mean[0]), float(mean[1]), float(mean[2]))


def _csv_rows(text: str):
    """The rows of csv.reader over `text`, its csv.Error raised as
    ObservationError."""
    try:
        yield from csv.reader(io.StringIO(text))
    except csv.Error as exc:
        raise ObservationError(str(exc)) from None


def load_observations(csv_bytes: bytes | str) -> list[Observation]:
    """Parse the observation table.

    Expected header: heart_id,date,L,a,b,source with ISO dates
    (YYYY-MM-DD). Imprecisely dated rows (e.g. a month without a day) are
    rejected rather than guessed at. Raises ObservationError, also where
    the csv module cannot split the text (a bare carriage return in an
    unquoted field, a field over its size limit), with csv's message.
    """
    text = csv_bytes
    if isinstance(csv_bytes, bytes):
        try:
            text = csv_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ObservationError(
                f"not UTF-8: byte 0x{csv_bytes[exc.start]:02x} at offset {exc.start}"
            ) from None
    reader = _csv_rows(text)
    header = next(reader, [])
    # the last of duplicate header names wins, as with csv.DictReader
    column = {name: j for j, name in enumerate(header)}
    required = ["heart_id", "date", "L", "a", "b", "source"]
    missing = [c for c in required if c not in column]
    if missing:
        raise ObservationError(f"missing column(s): {', '.join(missing)}")
    cols = [column[c] for c in required]
    pick = operator.itemgetter(*cols)
    width = max(cols) + 1

    observations = []
    i = 1
    for row in reader:
        if not row:
            continue  # blank lines are neither rows nor counted
        i += 1
        if len(row) < width:
            row = row + [None] * (width - len(row))
        heart_id, raw_date, L, a, b, source = pick(row)
        raw_date = (raw_date or "").strip()
        if not _ISO_DATE.match(raw_date):
            raise ObservationError(
                f"row {i}: date {raw_date!r} is not a full YYYY-MM-DD date"
            )
        try:
            date = datetime.date.fromisoformat(raw_date)
        except ValueError:
            raise ObservationError(f"row {i}: invalid date {raw_date!r}") from None
        try:
            lab = LabColor(float(L), float(a), float(b))
        except (TypeError, ValueError):
            raise ObservationError(
                f"row {i}: non-numeric LAB values ({L!r}, {a!r}, {b!r})"
            ) from None
        observations.append(Observation(heart_id, date, lab, source or ""))
    return observations


def build_series(
    obs: list[Observation], baseline: LabColor
) -> list[HeartSeries]:
    """Group observations by heart and derive delta-E-vs-day series.

    Same-date observations of one heart are averaged in LAB before the
    delta E is taken. Hearts appear in order of first occurrence.
    """
    by_heart: dict[str, list[Observation]] = {}
    for o in obs:
        by_heart.setdefault(o.heart_id, []).append(o)

    series = []
    for heart_id, readings in by_heart.items():
        by_date: dict[datetime.date, list[LabColor]] = {}
        for o in readings:
            by_date.setdefault(o.date, []).append(o.lab)
        first = min(by_date)
        points = []
        for date in sorted(by_date):
            labs = by_date[date]
            try:
                mean = LabColor(
                    sum(c.L for c in labs) / len(labs),
                    sum(c.a for c in labs) / len(labs),
                    sum(c.b for c in labs) / len(labs),
                )
            except ValueError:  # a sum overflowed to infinity
                raise ObservationError(
                    f"heart {heart_id}: mean LAB on {date} is not finite"
                ) from None
            points.append(((date - first).days, delta_e(mean, baseline)))
        series.append(HeartSeries(heart_id, baseline, tuple(points)))
    return series
