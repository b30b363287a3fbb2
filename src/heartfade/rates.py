"""Per-heart fading-rate regression and population aggregation.

Each heart's delta-E-vs-day series is fitted with ordinary least squares
over a user-selected window; per-heart slopes are then pooled into a
population mean rate with its sample standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import HeartSeries

__all__ = [
    "LineFit",
    "Window",
    "AggregateRate",
    "InsufficientDataError",
    "fit_line",
    "estimate_heart_rate",
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


def fit_line(points: list[tuple[float, float]]) -> LineFit:
    """Ordinary least squares of y on t.

    r2 = 1 - SS_res/SS_tot, defined as 1 for an exact fit to constant data.
    """
    if len(points) < 2:
        raise InsufficientDataError(f"need >= 2 points, got {len(points)}")
    t = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if np.all(t == t[0]):
        raise InsufficientDataError("all t values identical")

    slope, intercept = np.polyfit(t, y, 1)
    # values too large give inf or NaN here; the finiteness check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - (slope * t + intercept)
        ss_res = float(residuals @ residuals)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if not np.isfinite([slope, intercept, r2]).all():
        raise InsufficientDataError("fit is not finite: values too large")
    return LineFit(float(slope), float(intercept), r2, len(points))


def estimate_heart_rate(series: HeartSeries, window: Window) -> LineFit:
    """Fit the fading rate over the in-window portion of a series."""
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
    return fit_line(points)


def aggregate_rates(fits: list[LineFit]) -> AggregateRate:
    """Population mean and sample sd of per-heart slopes."""
    if not fits:
        raise InsufficientDataError("no fits to aggregate")
    slopes = np.array([f.slope for f in fits], dtype=np.float64)
    mean_k = float(slopes.mean())
    sd_k = float(slopes.std(ddof=1)) if len(slopes) > 1 else 0.0
    rel_err = sd_k / mean_k if mean_k > 0 else float("nan")
    return AggregateRate(mean_k, sd_k, rel_err, len(fits))
