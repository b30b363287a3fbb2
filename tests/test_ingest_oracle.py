"""The ingest parsers against reference oracles.

The oracles are the parsers that `parse_ppm` and `load_observations`
replaced: a token-by-token walk over the P3 raster and a `csv.DictReader`
loop over the observation table. For every input, fuzzed or named, the
library must return what the oracle returns, or raise the same error with
the same message (and, for PPM, the same byte offset). The oracle's rows
are compared with `load_observations`' columns in the columns' layout.
"""

import csv
import datetime
import io
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heartfade.color import LabColor
from heartfade.ingest import (
    _ISO_DATE,
    ObservationError,
    PixelGrid,
    PpmError,
    load_observations,
    parse_ppm,
)

EPOCH = datetime.date(1970, 1, 1)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class OracleTokens:
    """Whitespace/comment-aware tokenizer over PPM bytes."""

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


def oracle_parse_ppm(data: bytes) -> PixelGrid:
    """Sample-by-sample decoder. Samples are collected in a list rather than
    a preallocated array, so a header claiming a huge raster is reported as
    truncated instead of exhausting memory; messages are unchanged."""
    toks = OracleTokens(data)
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
        if toks.pos >= len(data) or not data[toks.pos : toks.pos + 1].isspace():
            raise PpmError("missing whitespace after maxval", toks.pos)
        start = toks.pos + 1
        raw = data[start : start + n]
        if len(raw) < n:
            raise PpmError(
                f"truncated pixel data: expected {n} bytes, got {len(raw)}",
                start + len(raw),
            )
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    else:
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
        pixels = np.array(values, dtype=np.uint8).reshape(height, width, 3)
    return PixelGrid(width, height, pixels.copy())


class Observation(NamedTuple):
    """One dated colour reading of one heart, as the oracle returns it."""

    heart_id: str
    date: datetime.date
    lab: LabColor
    source: str


def oracle_load_observations(csv_bytes) -> list[Observation]:
    """Row-by-row parse through csv.DictReader. A row too short for a
    column that is read (DictReader fills it with None) is rejected; one
    short only by `source` is not."""
    text = csv_bytes
    if isinstance(csv_bytes, bytes):
        text = csv_bytes.decode("utf-8")
    # a leading BOM is not part of the header, in bytes or text
    reader = csv.DictReader(io.StringIO(text.removeprefix("\ufeff")))
    required = ["heart_id", "date", "L", "a", "b", "source"]
    header = reader.fieldnames or []
    missing = [c for c in required if c not in header]
    if missing:
        raise ObservationError(f"missing column(s): {', '.join(missing)}")

    observations = []
    for i, row in enumerate(reader, start=2):
        short = [c for c in required[:5] if row[c] is None]
        if short:
            raise ObservationError(f"row {i}: missing field(s): {', '.join(short)}")
        raw_date = row["date"].strip()
        if not _ISO_DATE.match(raw_date):
            raise ObservationError(
                f"row {i}: date {raw_date!r} is not a full YYYY-MM-DD date"
            )
        try:
            date = datetime.date.fromisoformat(raw_date)
        except ValueError:
            raise ObservationError(f"row {i}: invalid date {raw_date!r}") from None
        try:
            lab = LabColor(float(row["L"]), float(row["a"]), float(row["b"]))
        except (TypeError, ValueError):
            raise ObservationError(
                f"row {i}: non-numeric LAB values "
                f"({row['L']!r}, {row['a']!r}, {row['b']!r})"
            ) from None
        observations.append(
            Observation(row["heart_id"], date, lab, row["source"] or "")
        )
    return observations


def ppm_outcome(parse, data):
    try:
        grid = parse(data)
    except PpmError as exc:
        return ("PpmError", str(exc), exc.offset)
    except Exception as exc:  # any other failure must match too
        return (type(exc).__name__, str(exc))
    return ("ok", grid.width, grid.height, grid.pixels.dtype.str, grid.pixels.tobytes())


def as_columns(observations):
    """The oracle's rows in the layout of ObservationColumns, as lists."""
    ids = list(dict.fromkeys(o.heart_id for o in observations))
    return (
        ids,
        [ids.index(o.heart_id) for o in observations],
        [(o.date - EPOCH).days for o in observations],
        [[o.lab.L, o.lab.a, o.lab.b] for o in observations],
    )


def columns_outcome(data):
    try:
        cols = load_observations(data)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    assert cols.heart.dtype == np.int64 and cols.day.dtype == np.int64
    assert cols.lab.dtype == np.float64 and cols.lab.shape == (len(cols), 3)
    return ("ok", (cols.heart_ids, cols.heart.tolist(), cols.day.tolist(), cols.lab.tolist()))


def oracle_outcome(data):
    try:
        return ("ok", as_columns(typed_oracle_load_observations(data)))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def assert_ppm_matches(data):
    assert ppm_outcome(parse_ppm, data) == ppm_outcome(oracle_parse_ppm, data)


def typed_oracle_load_observations(data):
    """The old parser with its csv.Error and UnicodeDecodeError typed as
    load_observations types them: ObservationError, csv's message and the
    offset of the first byte that is not UTF-8."""
    try:
        return oracle_load_observations(data)
    except csv.Error as exc:
        raise ObservationError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ObservationError(
            f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def assert_observations_match(data):
    assert columns_outcome(data) == oracle_outcome(data)


# --- PPM -------------------------------------------------------------------

SEPARATORS = [
    b" ",
    b"\n",
    b"\t",
    b"\r\n",
    b"\x0b",
    b"\x0c",
    b" \n\t ",
    b" # a comment\n",
    b"\n#\n",
    b" #1 2 3\n",
    b"#",  # glued to both neighbours: inside a token, not a comment
]
ODD_SAMPLES = [
    b"+7",
    b"007",
    b"1_0",
    b"-0",
    b"-1",
    b"256",
    b"0x1f",
    b"1e2",
    b"7.0",
    b"#",
    b"#7",
    b"12#3",
    b"x",
    b"\xff",
    b"\x1c7",
    b"7\xa0",
    "٣".encode(),
    b"9" * 5000,
]
ODD_DIMENSIONS = [b"0", b"-1", b"+2", b"02", b"x", b"1_0", b"100000", b"10" * 12]


@st.composite
def ppm_bytes(draw):
    magic = draw(st.sampled_from([b"P3"] * 8 + [b"P6", b"P5", b"p3", b"P3x"]))
    dims = [
        draw(
            st.one_of(
                st.integers(1, 3).map(lambda v: str(v).encode()),
                st.sampled_from(ODD_DIMENSIONS),
            )
        )
        for _ in range(2)
    ]
    maxval = draw(st.sampled_from([b"255"] * 6 + [b"254", b"0255", b"+255"]))
    try:
        n = int(dims[0]) * int(dims[1]) * 3
    except ValueError:
        n = 3
    count = draw(st.integers(0, min(max(n, 0), 30) + 3))
    sample = st.one_of(
        st.integers(0, 255).map(lambda v: str(v).encode()),
        st.integers(-400, 700).map(lambda v: str(v).encode()),
        st.integers(2**62, 2**80).map(lambda v: str(v).encode()),
        st.sampled_from(ODD_SAMPLES),
    )
    tokens = [magic, *dims, maxval] + [draw(sample) for _ in range(count)]
    sep = st.sampled_from(SEPARATORS[:1] * 6 + SEPARATORS)
    out = draw(st.sampled_from([b"", b"\n", b" # lead\n"]))
    for tok in tokens:
        out += tok + draw(sep)
    return out + draw(st.sampled_from([b"", b"\n", b" junk", b"# tail", b"\x00\x01"]))


@FUZZ
@given(ppm_bytes())
def test_parse_ppm_matches_oracle_fuzzed(data):
    assert_ppm_matches(data)


@FUZZ
@given(st.binary(max_size=40).map(lambda b: b"P3 2 1 255 " + b))
def test_parse_ppm_matches_oracle_on_raw_bytes(data):
    assert_ppm_matches(data)


@pytest.mark.parametrize(
    "data",
    [
        b"P3 1 1 255 1 2 3",
        b"P3\n1 1\n255\n+7 007 1_0\n",
        b"P3 1 1 255 10 # comment 99\n 20 30",
        b"P3 1 1 255 1\x0b2\x0c3",
        b"P3 1 1 255 1 2 3 trailing garbage #",
        b"P3 1 1 255 1 2",
        b"P3 1 1 255 1 2 300",
        b"P3 1 1 255 1 -2 3",
        b"P3 1 1 255 1 2 " + str(2**64).encode(),
        b"P3 1 1 255 1 2 " + b"9" * 5000,
        b"P3 1 1 255 1 2#3 4",
        b"P3 100000 100000 255 1 2 3",
        b"P3 " + b"9" * 30 + b" 1 255 1 2 3",
        b"P6 1 1 255 abc",
        b"P6 2 1 255\nabc",
    ],
)
def test_parse_ppm_matches_oracle_named(data):
    assert_ppm_matches(data)


# --- observations ----------------------------------------------------------

REQUIRED = ["heart_id", "date", "L", "a", "b", "source"]
JUNK = st.sampled_from(
    [
        "",
        " ",
        "x",
        "nan",
        "inf",
        "-1e3",
        "1_0",
        "a,b",
        'say "hi"',
        "two\nlines",
        "2021-09",
        "2021-02-30",
        " 2021-09-02 ",
        "٣",
    ]
)


# one field's values by column name, built once; any other column, OTHER
LAB_VALUE = st.floats(-200, 200).map(repr)
FIELDS = {
    "date": st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31)).map(
        datetime.date.isoformat
    ),
    "L": LAB_VALUE,
    "a": LAB_VALUE,
    "b": LAB_VALUE,
}
OTHER = st.sampled_from(["h1", "h2", "heart_3", "photo", "survey", ""])


@st.composite
def observation_csv(draw):
    header = list(draw(st.permutations(REQUIRED)))
    for extra in draw(st.lists(st.sampled_from(REQUIRED + ["extra", "L ", ""]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(REQUIRED)))
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append([])  # blank line
            continue
        row = [draw(FIELDS.get(name, OTHER)) for name in header]
        if kind == 1:
            row = row[: draw(st.integers(1, len(row)))]
        elif kind == 2:
            row += draw(st.lists(JUNK, min_size=1, max_size=2))
        elif kind == 3:
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(
        out,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\r\n", "\n"])),
    )
    writer.writerows(rows)
    return out.getvalue()


@FUZZ
@given(observation_csv())
def test_load_observations_matches_oracle_fuzzed(text):
    assert_observations_match(text)
    assert_observations_match(text.encode("utf-8"))


@FUZZ
@given(st.text(alphabet='heart_id,dateLabsource"\n\r 0123456789-.', max_size=120))
def test_load_observations_matches_oracle_on_raw_text(text):
    assert_observations_match("heart_id,date,L,a,b,source\n" + text)
    assert_observations_match(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "heart_id,date,L,a,b,source\n\nh1,2021-09-02,1,2,3,x\n\nh1,2021-09,1,2,3,x\n",
        "heart_id,date,L,a,b,source\nh1,2021-09-02,1,2\n",
        "heart_id,date,L,a,b,source\nh1,2021-09-02,1,2,3\n",
        "heart_id,date,L,a,b,source,extra\nh1,2021-09-02,1,2,3,x,y,z\n",
        "heart_id,date,L,a,b,source,L\nh1,2021-09-02,1,2,3,x,7\n",
        "heart_id,date,L,a,b,source,L\nh1,2021-09-02,1,2,3,x\n",
        'heart_id,date,L,a,b,source\n"h,1"," 2021-09-02 ","1","2","3","a ""b"""\n',
        'heart_id,date,L,a,b,source\nh1,2021-09-02,1,2,3,"two\nlines"\nh2,2021-09-03,x,2,3,s\n',
        "heart_id,date,L,a,b,source\nh1,2021-09-02,nan,2,3,x\n",
        # a date text seen before converts from its first row; a bad date
        # or value on a later row is still reported at that row
        "heart_id,date,L,a,b,source\nh1,2021-09-02,1,2,3,x\nh2,2021-09-02,1,2,3,x\n"
        "h1,2021-09-02,4,5,6,x\nh1,2021-02-30,1,2,3,x\n",
        "heart_id,date,L,a,b,source\nh1,2021-09-02,1,2,3,x\nh2,2021-09-02,1,2,3,x\n"
        "h1,0000-01-01,1,2,3,x\n",
        "heart_id,date,L,a,b,source\nh1,2021-09-02,1,2,3,x\nh2,2021-09-02,1,x,3,x\n",
        "heart_id,date,L,a,b,source\nh1, 2021-09-02 ,1,2,3,x\nh2,2021-09-02,4,5,6,x\n",
    ],
)
def test_load_observations_matches_oracle_named(text):
    assert_observations_match(text)
