"""The columnar `rate` path against the per-heart path it replaced.

The oracles are the previous implementations, kept here as they were:
the `csv.DictReader` parse of `test_ingest_oracle`, `build_series` (a dict
of hearts, a dict of dates, Python sums of the same-date readings and
`color.delta_e`), `fit_line` through `np.polyfit`, `estimate_heart_rate`
and the loop of `cmd_rate` over the series. For every table, fuzzed or
named, `heartfade rate` must give the oracle's exit
code and stderr line or, on success, the same hearts in the same order,
the same `n_points` and excluded list, and slopes within 1e-9, the
tolerance of acceptance criterion 2. Where a heart's delta E exceeds
1,000 (huge readings such as 1e100), rounding grows with it, and the
bound is 1e-12 of the heart's largest delta E: for a 1e100 outlier the
closed form can give an exact 0 where `np.polyfit` gives -3.5e82.

`load_observations` must give the DictReader oracle's error and message
or its rows, and `build_series` the oracle's series or its error.
"""

import contextlib
import csv
import datetime
import io
import json
import math
import tempfile
import unicodedata
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heartfade.cli import main
from heartfade.color import LabColor, delta_e
from heartfade.ingest import ObservationError, build_series, load_observations
from heartfade.rates import InsufficientDataError, LineFit, Window
from test_ingest_oracle import assert_observations_match, typed_oracle_load_observations

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
BASELINE = LabColor(49.3, 46.3, 20.5)
BASELINE_ARG = "49.3,46.3,20.5"


# --- oracles: the per-heart path as it was ----------------------------------


class Series(NamedTuple):
    """One heart's (day, delta_e) points, days from its first reading."""

    heart_id: str
    points: tuple[tuple[int, float], ...]


def oracle_build_series(obs, baseline):
    by_heart = {}
    for o in obs:
        by_heart.setdefault(o.heart_id, []).append(o)

    series = []
    for heart_id, readings in by_heart.items():
        by_date = {}
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
        series.append(Series(heart_id, tuple(points)))
    return series


def oracle_fit_line(points):
    if len(points) < 2:
        raise InsufficientDataError(f"need >= 2 points, got {len(points)}")
    t = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if np.all(t == t[0]):
        raise InsufficientDataError("all t values identical")

    # polyfit on a non-finite y warns; the finiteness check rejects the fit
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        slope, intercept = np.polyfit(t, y, 1)
        residuals = y - (slope * t + intercept)
        ss_res = float(residuals @ residuals)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not np.isfinite([slope, intercept, r2]).all():
        raise InsufficientDataError("fit is not finite: values too large")
    return LineFit(float(slope), float(intercept), r2, len(points))


def oracle_estimate_heart_rate(series, window):
    points = [
        (float(day), de)
        for day, de in series.points
        if window.start_day <= day <= window.end_day
    ]
    days = {p[0] for p in points}
    if len(points) < 2 or len(days) < 2:
        raise InsufficientDataError(
            f"heart {series.heart_id}: {len(points)} usable point(s) in "
            f"window [{window.start_day}, {window.end_day}]"
        )
    return oracle_fit_line(points)


def one_line(message):
    """An error line as the CLI prints it: each control character (Cc),
    and U+2028/U+2029, as the escape ascii() gives it."""
    return "".join(
        ascii(c)[1:-1] if unicodedata.category(c) == "Cc" or c in "\u2028\u2029" else c
        for c in message
    )


def oracle_rate(obs_path, obs_bytes, windows):
    """(exit code, stderr, {heart: (slope, n, tolerance)} in order,
    excluded)."""
    try:
        obs = typed_oracle_load_observations(obs_bytes)
        series = oracle_build_series(obs, BASELINE)
    except ObservationError as exc:
        return 2, one_line(f"heartfade rate: {obs_path}: {exc}") + "\n", None, None
    fits, excluded = {}, []
    for s in series:
        if s.heart_id not in windows:
            excluded.append({"heart_id": s.heart_id, "reason": "no window supplied"})
            continue
        try:
            fit = oracle_estimate_heart_rate(s, windows[s.heart_id])
        except InsufficientDataError as exc:
            excluded.append({"heart_id": s.heart_id, "reason": str(exc)})
            continue
        w = windows[s.heart_id]
        scale = max(abs(de) for day, de in s.points if w.start_day <= day <= w.end_day)
        fits[s.heart_id] = (fit.slope, fit.n, max(1e-9, 1e-12 * scale))
    if not fits:
        return 2, "heartfade rate: no fittable hearts\n", None, None
    return 0, "", fits, excluded


def run_rate(obs_bytes, windows):
    """`heartfade rate --format csv` on the table and windows, as (exit
    code, stderr, {heart: (slope, n)} in output order, excluded), and the
    oracle's result. The CSV stdout gives the order of the hearts
    (rates.json sorts its keys); rates.json gives the excluded list."""
    with tempfile.TemporaryDirectory() as tmp:
        obs, win, out_dir = Path(tmp) / "obs.csv", Path(tmp) / "win.json", Path(tmp) / "out"
        obs.write_bytes(obs_bytes)
        win.write_text(
            json.dumps({h: {"start_day": w.start_day, "end_day": w.end_day} for h, w in windows.items()})
        )
        out, err = io.StringIO(), io.StringIO()
        argv = ["rate", str(obs), str(win), "--baseline-lab", BASELINE_ARG, "--format", "csv"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", str(out_dir)])
        expected = oracle_rate(str(obs), obs_bytes, windows)
        if rc != 0:
            return (rc, err.getvalue(), None, None), expected
        doc = json.loads((out_dir / "rates.json").read_text(), parse_constant=reject_constant)
    header, *rows = csv.reader(io.StringIO(out.getvalue()))
    assert header == ["heart_id", "slope_delta_e_per_day", "intercept", "r2", "n_points"]
    fits = {row[0]: (float(row[1]), int(row[4])) for row in rows}
    assert {h: (f["slope_delta_e_per_day"], f["n_points"]) for h, f in doc["hearts"].items()} == fits
    return (rc, err.getvalue(), fits, doc["excluded"]), expected


def reject_constant(name):
    raise ValueError(f"rates.json holds the non-JSON constant {name}")


def assert_rate_matches(obs_bytes, windows):
    (rc, err, fits, excluded), (o_rc, o_err, o_fits, o_excluded) = run_rate(
        obs_bytes, windows
    )
    assert (rc, err) == (o_rc, o_err)
    if rc != 0:
        return
    assert excluded == o_excluded
    assert list(fits) == list(o_fits)
    for heart, (slope, n) in fits.items():
        o_slope, o_n, tolerance = o_fits[heart]
        assert n == o_n
        assert abs(slope - o_slope) <= tolerance, (slope, o_slope)


def assert_series_match(text):
    """build_series gives the oracle's series (delta E to 1e-15) or its
    error and message."""
    try:
        obs = typed_oracle_load_observations(text)
    except ObservationError:
        return
    cols = load_observations(text)
    try:
        expected = oracle_build_series(obs, BASELINE)
    except ObservationError as exc:
        with pytest.raises(ObservationError) as raised:
            build_series(cols, BASELINE)
        assert str(raised.value) == str(exc)
        return
    heart, day, delta = build_series(cols, BASELINE)
    got = [
        Series(heart_id, tuple(zip(day[heart == i].tolist(), delta[heart == i].tolist())))
        for i, heart_id in enumerate(cols.heart_ids)
    ]
    assert [s.heart_id for s in got] == [s.heart_id for s in expected]
    assert heart.tolist() == sorted(heart.tolist())  # points run by heart
    for s, o in zip(got, expected):
        assert [d for d, _ in s.points] == [d for d, _ in o.points]
        for (_, e), (_, o_e) in zip(s.points, o.points):
            assert e == o_e or math.isclose(e, o_e, rel_tol=1e-15)


# --- tables -----------------------------------------------------------------

REQUIRED = ["heart_id", "date", "L", "a", "b", "source"]
IDS = ["h1", "h2", "h3", "a,b", 'say "hi"', "two\nlines"]
# dates and values the oracle accepts, though not in their plain form: a
# padded date is stripped before it is read
KEPT_DATES = [" 2021-01-05 "]
KEPT_VALUES = [
    "1_0",
    " 1.5 ",
    "٣",
    "1e100",  # a large but finite delta E
    "1e200",  # delta E overflows to inf: the heart's fit is not finite
    "1.7e308",  # two same-date readings overflow their sum
    "-1.7e308",
]
# rejected with a row-numbered error
BAD_DATES = ["0000-01-01", "2021-02-30", "2021-13-01", "٢٠٢١-01-05", "2021-1-05", "2021-01", ""]
BAD_VALUES = ["inf", "-inf", "nan", "x", ""]


# one field's values by column name, built once; heart_id draws from its
# table's ids, any other column from OTHER
LAB_VALUE = st.one_of(st.floats(0, 100).map(repr), st.integers(-50, 150).map(str))
FIELDS = {
    # few distinct dates, so same-date repeats are common
    "date": st.integers(0, 12).map(
        lambda d: (datetime.date(2021, 1, 1) + datetime.timedelta(days=d)).isoformat()
    ),
    "L": LAB_VALUE,
    "a": LAB_VALUE,
    "b": LAB_VALUE,
}
OTHER = st.sampled_from(["photo", "survey", ""])


def columns(header, *names):
    """Indexes of the named columns, or of the first column if none."""
    return [j for j, name in enumerate(header) if name in names] or [0]


@st.composite
def observation_table(draw):
    header = list(draw(st.permutations(REQUIRED)))
    for extra in draw(st.lists(st.sampled_from(REQUIRED + ["extra", ""]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(REQUIRED)))
    # rows the walk rejects in one table of four, so most tables get fitted
    bad = draw(st.integers(0, 3)) == 0
    # a few hearts each, so most have points enough to fit
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    fields = {**FIELDS, "heart_id": st.sampled_from(ids)}  # built once per table
    rows = [header]
    for _ in range(draw(st.integers(6, 24))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            rows.append([])  # blank line
            continue
        row = [draw(fields.get(name, OTHER)) for name in header]
        if kind == 1:
            row += ["x", "y"][: draw(st.integers(1, 2))]  # extra fields
        elif kind == 2:
            row[draw(st.sampled_from(columns(header, "date")))] = draw(
                st.sampled_from(BAD_DATES if bad else KEPT_DATES)
            )
        elif kind == 3:
            row[draw(st.sampled_from(columns(header, "L", "a", "b")))] = draw(
                st.sampled_from(BAD_VALUES + KEPT_VALUES if bad else KEPT_VALUES)
            )
        elif kind == 4 and bad:
            row = row[: draw(st.integers(1, len(row)))]  # short row
        elif kind == 5 and rows[-1]:
            row = list(rows[-1])  # a repeat: same heart, date and reading
        rows.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return out.getvalue()


HUGE = st.sampled_from([-(10**30), 10**30])


@st.composite
def windows_for(draw):
    missing = draw(st.sets(st.sampled_from(IDS), max_size=1))
    windows = {}
    for heart in IDS:
        if heart in missing:
            continue
        # mostly wide enough to hold points; some cut them, some are huge
        start = draw(st.one_of(st.integers(-3, 3), HUGE))
        end = draw(st.one_of(st.integers(4, 15), HUGE))
        windows[heart] = Window(min(start, end), max(start, end))
    return windows


TABLE_HEAD = "heart_id,date,L,a,b,source\n"
ALL_WINDOWS = {h: Window(0, 400) for h in IDS}


@FUZZ
@given(observation_table(), windows_for())
@example(TABLE_HEAD + "h1,2021-01-01,1.7e308,0,0,x\nh1,2021-01-01,1.7e308,0,0,x\n", {})
@example(  # the error names a heart whose id holds a line break
    TABLE_HEAD + '"a\nb",2021-01-01,1.7e308,0,0,x\n"a\nb",2021-01-01,1.7e308,0,0,x\n', {}
)
@example(
    TABLE_HEAD
    + "h2,2021-01-03,1,0,0,x\nh1,2021-01-02,1.7e308,0,0,x\nh1,2021-01-02,1.7e308,0,0,x\n"
    + "h2,2021-01-01,1.7e308,0,0,x\nh2,2021-01-01,1.7e308,0,0,x\n",
    ALL_WINDOWS,
)
@example(
    TABLE_HEAD + "h1,2021-01-01,50,46,20,x\nh1,2021-01-09,1e200,46,20,x\n"
    "h2,2021-01-01,50,46,20,x\nh2,2021-01-05,55,46,20,x\n",
    ALL_WINDOWS,
)
@example(TABLE_HEAD + "h1,2021-01-05,50,46,20,x\nh1,2021-01-01,60,46,20,x\n", {})
@example(  # constant delta E: r2 is 1 by definition
    TABLE_HEAD + "h1,2021-01-01,50,46,20,x\nh1,2021-01-05,50,46,20,x\n", ALL_WINDOWS
)
@example(  # a 1e100 outlier at the mean day: the exact slope is 0
    TABLE_HEAD
    + "".join(f"h1,2021-01-{d:02d},0,0,0,x\n" for d in (1, 5, 8, 10, 11))
    + "h1,2021-01-07,1e100,0,0,x\n",
    ALL_WINDOWS,
)
def test_rate_matches_oracle_fuzzed(text, windows):
    assert_rate_matches(text.encode("utf-8"), windows)


@FUZZ
@given(observation_table())
def test_columns_and_series_match_oracles_fuzzed(text):
    assert_observations_match(text)
    assert_observations_match(text.encode("utf-8"))
    assert_series_match(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        TABLE_HEAD,
        TABLE_HEAD + "\n\nh1,2021-01-02,1,2,3,x\n\nh1,2021-01-01,1,2,3,x\n",
        TABLE_HEAD + "h1,2021-01-02,1,2,3\n",  # short by the source only
        TABLE_HEAD + "h1,2021-01-02,1,2\n",  # short by b: "row 2: missing field(s): b"
        # short by the id: "row 2: missing field(s): heart_id", no longer a None id
        "date,L,a,b,source,heart_id\n2021-01-02,1,2,3\n",
        "heart_id,date,L,a,b,source,L\nh1,2021-01-02,1,2,3,x,7\n",
        TABLE_HEAD + "h1,0000-01-01,1,2,3,x\n",
        TABLE_HEAD + "h1,2021-02-30,1,2,3,x\n",
        TABLE_HEAD + "h1,٢٠٢١-01-01,1,2,3,x\n",
        TABLE_HEAD + "h1, 2021-01-02 ,1_0, 1.5 ,3,x\n",
        TABLE_HEAD + "h1,2021-01-02,inf,2,3,x\n",
        TABLE_HEAD + "h1,2021-01-02,nan,2,3,x\n",
        TABLE_HEAD + "h1,2021-01-02,٣,2,3,x\n",
        TABLE_HEAD + '"a\rb",2021-01-02,1,2,3,x\n',
        TABLE_HEAD + "h1,2021-01-02,1,2,3,x\r0\n",
        TABLE_HEAD + "h1,2021-01-02,1.7e308,2,3,x\nh1,2021-01-02,1.7e308,2,3,x\n",
        b"heart_id,date,L,a,b,source\nh\xff,2021-01-02,1,2,3,x\n",
    ],
)
def test_columns_and_series_match_oracles_named(text):
    assert_observations_match(text)
    assert_series_match(text)


