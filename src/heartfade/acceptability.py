"""Public acceptability of fading.

Fits a two-parameter logistic curve mapping delta E to the fraction of
observers agreeing that repainting is needed, and inverts it to obtain
action thresholds. The fit is a deterministic grid-then-refine weighted
least squares so repeated runs give identical parameters.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurveyPoint",
    "AcceptabilityCurve",
    "FitError",
    "fit_acceptability",
    "fit_objective",
    "predict_agreement",
    "threshold_for_agreement",
    "load_survey",
]

_M_RANGE = (0.0, 100.0)
_S_RANGE = (1e-6, 50.0)
_MAX_RESPONDENTS = 2**53  # the largest count a float64 weight holds exactly


class FitError(ValueError):
    """Insufficient or degenerate survey points."""


@dataclass(frozen=True)
class SurveyPoint:
    delta_e: float
    frac_agree: float  # fraction answering Agree / Strongly agree
    n_respondents: int = 1

    def __post_init__(self):
        if not 0 <= self.delta_e < math.inf:
            raise ValueError(f"delta_e must be finite and >= 0, got {self.delta_e}")
        if not 0.0 <= self.frac_agree <= 1.0:
            raise ValueError(f"frac_agree must be in [0, 1], got {self.frac_agree}")
        # the fit weights points by n_respondents as a float64
        if not 1 <= self.n_respondents <= _MAX_RESPONDENTS:
            raise ValueError(
                f"n_respondents must be in [1, 2**53], got {self.n_respondents}"
            )


@dataclass(frozen=True)
class AcceptabilityCurve:
    """Logistic p(dE) = 1 / (1 + exp(-(dE - m) / s)); strictly increasing."""

    m: float  # midpoint: delta E at 50% agreement
    s: float  # scale, > 0

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"scale must be positive, got {self.s}")


def predict_agreement(curve: AcceptabilityCurve, delta_e: float) -> float:
    """Fraction of observers agreeing repainting is needed at this delta E."""
    try:
        return 1.0 / (1.0 + math.exp(-(delta_e - curve.m) / curve.s))
    except OverflowError:  # far below the midpoint of a steep curve
        return 0.0


def threshold_for_agreement(curve: AcceptabilityCurve, frac: float) -> float:
    """Delta E at which the given agreement fraction is reached (exact
    logistic inverse)."""
    if not 0.0 < frac < 1.0:
        raise ValueError(f"fraction must be strictly inside (0, 1), got {frac}")
    return curve.m + curve.s * math.log(frac / (1.0 - frac))


def fit_objective(
    curve: AcceptabilityCurve, points: list[SurveyPoint]
) -> float:
    """Weighted sum of squared residuals of the curve against the points."""
    de = np.array([p.delta_e for p in points])
    frac = np.array([p.frac_agree for p in points])
    w = np.array([p.n_respondents for p in points], dtype=np.float64)
    with np.errstate(over="ignore"):  # far below the midpoint: 1/(1+inf) = 0
        pred = 1.0 / (1.0 + np.exp(-(de - curve.m) / curve.s))
    return float(np.sum(w * (pred - frac) ** 2))


def _grid_objective(
    m: np.ndarray, s: np.ndarray, de: np.ndarray, frac: np.ndarray, w: np.ndarray
) -> np.ndarray:
    # m, s broadcast to a parameter grid; points on the last axis
    with np.errstate(over="ignore"):  # far below the midpoint: 1/(1+inf) = 0
        pred = 1.0 / (1.0 + np.exp(-(de - m[..., None]) / s[..., None]))
    return np.sum(w * (pred - frac) ** 2, axis=-1)


def fit_acceptability(points: list[SurveyPoint]) -> AcceptabilityCurve:
    """Weighted least-squares logistic fit over (m, s).

    Deterministic: a coarse grid over m in [0, 100], s in (0, 50] followed
    by repeated local grid refinement around the incumbent best.
    """
    if len(points) < 3:
        raise FitError(f"need >= 3 survey points, got {len(points)}")
    de = np.array([p.delta_e for p in points], dtype=np.float64)
    frac = np.array([p.frac_agree for p in points], dtype=np.float64)
    w = np.array([p.n_respondents for p in points], dtype=np.float64)
    if np.unique(de).size < 2:
        raise FitError("need at least two distinct delta_e values")
    if np.all(frac == frac[0]):
        raise FitError("all frac_agree values equal; curve is unidentified")

    m_grid = np.linspace(_M_RANGE[0], _M_RANGE[1], 101)
    s_grid = np.linspace(0.25, _S_RANGE[1], 100)
    mm, ss = np.meshgrid(m_grid, s_grid, indexing="ij")
    obj = _grid_objective(mm, ss, de, frac, w)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    best_m, best_s = float(mm[i, j]), float(ss[i, j])
    half_m = float(m_grid[1] - m_grid[0])
    half_s = float(s_grid[1] - s_grid[0])

    for _ in range(40):
        m_grid = np.clip(
            np.linspace(best_m - half_m, best_m + half_m, 21), *_M_RANGE
        )
        s_grid = np.clip(
            np.linspace(best_s - half_s, best_s + half_s, 21), *_S_RANGE
        )
        mm, ss = np.meshgrid(m_grid, s_grid, indexing="ij")
        obj = _grid_objective(mm, ss, de, frac, w)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        best_m, best_s = float(mm[i, j]), float(ss[i, j])
        half_m *= 0.6
        half_s *= 0.6

    return AcceptabilityCurve(best_m, best_s)


def load_survey(csv_bytes: bytes | str) -> list[SurveyPoint]:
    """Parse the survey table (header: delta_e,frac_agree,n_respondents)."""
    text = csv_bytes
    if isinstance(csv_bytes, bytes):
        try:
            text = csv_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FitError(
                f"not UTF-8: byte 0x{csv_bytes[exc.start]:02x} at offset {exc.start}"
            ) from None
    reader = csv.DictReader(io.StringIO(text))
    try:
        header = reader.fieldnames or []
        rows = list(reader)
    except csv.Error as exc:
        raise FitError(str(exc)) from None
    required = ["delta_e", "frac_agree", "n_respondents"]
    missing = [c for c in required if c not in header]
    if missing:
        raise FitError(f"missing column(s): {', '.join(missing)}")
    out = []
    for i, row in enumerate(rows, start=2):
        try:
            out.append(
                SurveyPoint(
                    float(row["delta_e"]),
                    float(row["frac_agree"]),
                    int(row["n_respondents"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise FitError(f"row {i}: {exc}") from None
    return out
