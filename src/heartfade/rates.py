"""Per-heart fading-rate regression and population aggregation.

Each heart's delta-E-vs-day series is fitted with ordinary least squares
over a user-selected window; per-heart slopes are then pooled into a
population mean rate with its sample standard deviation. Every fit, of one
line or of all hearts at once, goes through one closed-form kernel, and
every window through estimate_rates (estimate_heart_rate: one heart).
Windows are read from their JSON document by load_windows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LineFit",
    "Window",
    "AggregateRate",
    "InsufficientDataError",
    "load_windows",
    "fit_line",
    "estimate_heart_rate",
    "estimate_rates",
    "aggregate_rates",
]


class InsufficientDataError(ValueError):
    """Too few (or degenerate) points to fit; the heart must be excluded."""


@dataclass(frozen=True)
class LineFit:
    slope: float  # delta E per day
    intercept: float  # delta E at day 0
    r2: float
    n: int


@dataclass(frozen=True)
class Window:
    """Inclusive day-index bounds of the regression period."""

    start_day: int
    end_day: int

    def __post_init__(self):
        if self.start_day > self.end_day:
            raise ValueError(f"window start {self.start_day} after end {self.end_day}")


@dataclass(frozen=True)
class AggregateRate:
    mean_k: float  # delta E per day
    sd_k: float  # sample standard deviation (n-1)
    rel_err: float  # sd_k / mean_k
    n_hearts: int


def load_windows(data: bytes | str) -> dict[str, Window]:
    """The windows document, a leading BOM dropped: a JSON object of
    heart_id -> {"start_day": int, "end_day": int}. The days must be JSON
    integers, not floats, bools or strings. Any fault raises
    ValueError("invalid windows document: ...")."""

    def window(heart: str, w: dict) -> Window:
        for name in ("start_day", "end_day"):
            if type(w[name]) is not int:
                got = json.dumps(w[name])
                raise TypeError(f"heart {heart}: {name} must be an integer, got {got}")
        return Window(w["start_day"], w["end_day"])

    if isinstance(data, str):  # json.loads drops a BOM only from bytes
        data = data.removeprefix("\ufeff")
    try:
        doc = json.loads(data)
        if not isinstance(doc, dict):
            raise TypeError("expected an object of heart_id: window")
        return {heart: window(heart, w) for heart, w in doc.items()}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"invalid windows document: {exc}") from None


_NOT_FINITE = "fit is not finite: values too large"
_ONE_DAY = "all t values identical"


def _ols(group: np.ndarray, t: np.ndarray, y: np.ndarray, n_groups: int):
    """Closed-form least squares of y on t within each group: the lists
    (n, slope, intercept, r2), one entry per group.

    Sums are centred on each group's means and accumulated in float64, in
    point order (np.bincount). r2 = 1 - SS_res/SS_tot, defined as 1 for an
    exact fit to constant data. Fewer than 2 points, a single t or values
    too large give values that are not finite.
    """

    def total(w):
        return np.bincount(group, w, minlength=n_groups)

    with np.errstate(all="ignore"):
        n = np.bincount(group, minlength=n_groups)
        t_mean, y_mean = total(t) / n, total(y) / n
        tc, yc = t - t_mean[group], y - y_mean[group]
        slope = total(tc * yc) / total(tc * tc)
        intercept = y_mean - slope * t_mean
        residuals = y - (slope[group] * t + intercept[group])
        ss_res, ss_tot = total(residuals * residuals), total(yc * yc)
        r2 = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
    return [a.tolist() for a in (n, slope, intercept, r2)]


def fit_line(points: list[tuple[float, float]]) -> LineFit:
    """Ordinary least squares of y on t: `_ols` over one group."""
    if len(points) < 2:
        raise InsufficientDataError(f"need >= 2 points, got {len(points)}")
    t = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if np.all(t == t[0]):
        raise InsufficientDataError(_ONE_DAY)
    n, *fit = (v[0] for v in _ols(np.zeros(len(t), np.intp), t, y, 1))
    if not all(map(math.isfinite, fit)):
        raise InsufficientDataError(_NOT_FINITE)
    return LineFit(*fit, n)


def estimate_heart_rate(heart_id: str, points: list, window: Window) -> LineFit:
    """Fit one heart's (day, delta_e) points over its window:
    estimate_rates for that heart alone. The reason it would be excluded is
    raised as InsufficientDataError."""
    day, delta_e = np.array(points, np.float64).reshape(-1, 2).T
    heart = np.zeros(len(day), np.int64)
    fits, excluded = estimate_rates([heart_id], heart, day, delta_e, {heart_id: window})
    if excluded:
        raise InsufficientDataError(excluded[heart_id])
    return fits[heart_id]


def estimate_rates(
    heart_ids: list[str],
    heart: np.ndarray,
    day: np.ndarray,
    delta_e: np.ndarray,
    windows: dict[str, Window],
) -> tuple[dict[str, LineFit], dict[str, str]]:
    """Fit every heart over its window in one pass of `_ols`.

    Takes the flat series of ingest.build_series (point i belongs to
    heart_ids[heart[i]]). Returns the fits and the reasons hearts were
    excluded, each keyed by heart id in the order of heart_ids: first
    occurrence. A heart whose in-window points all fall on one day is
    excluded as fit_line would reject it.
    """
    # days lie in [0, end): a bound clipped to [-1, end] compares alike and
    # fits int64; a heart without a window gets [1, 0], which holds no day
    end = int(day.max(initial=0)) + 1
    bounds = [(1, 0)] * len(heart_ids)
    for i, heart_id in enumerate(heart_ids):
        if heart_id in windows:
            w = windows[heart_id]
            bounds[i] = tuple(min(max(b, -1), end) for b in (w.start_day, w.end_day))
    lo, hi = np.array(bounds, np.int64).reshape(-1, 2).T
    keep = (lo[heart] <= day) & (day <= hi[heart])
    heart, day, n_hearts = heart[keep], day[keep].astype(float), len(heart_ids)
    # a heart's days vary when any differs from one of them, whichever
    some_day = np.zeros(n_hearts)
    some_day[heart] = day
    varied = np.bincount(heart, day != some_day[heart], minlength=n_hearts)
    fits, excluded = {}, {}
    for heart_id, varies, n, *fit in zip(
        heart_ids, varied.tolist(), *_ols(heart, day, delta_e[keep], n_hearts)
    ):
        if heart_id not in windows:
            excluded[heart_id] = "no window supplied"
        elif n < 2:
            w = windows[heart_id]
            excluded[heart_id] = (
                f"heart {heart_id}: {n} usable point(s) in "
                f"window [{w.start_day}, {w.end_day}]"
            )
        elif not varies:
            excluded[heart_id] = _ONE_DAY
        elif not all(map(math.isfinite, fit)):
            excluded[heart_id] = _NOT_FINITE
        else:
            fits[heart_id] = LineFit(*fit, n)
    return fits, excluded


def aggregate_rates(fits: list[LineFit]) -> AggregateRate:
    """Population mean and sample sd of per-heart slopes."""
    if not fits:
        raise InsufficientDataError("no fits to aggregate")
    slopes = np.array([f.slope for f in fits], dtype=np.float64)
    mean_k = float(slopes.mean())
    sd_k = float(slopes.std(ddof=1)) if len(slopes) > 1 else 0.0
    rel_err = sd_k / mean_k if mean_k > 0 else float("nan")
    return AggregateRate(mean_k, sd_k, rel_err, len(fits))
