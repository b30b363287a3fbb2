import math
from importlib import resources

import numpy as np
import pytest

from heartfade.acceptability import (
    _M_RANGE,
    _S_RANGE,
    AcceptabilityCurve,
    FitError,
    SurveyPoint,
    fit_acceptability,
    fit_objective,
    load_survey,
    predict_agreement,
    threshold_for_agreement,
)


def logistic_points(m, s, des, n=100):
    return [
        SurveyPoint(de, 1.0 / (1.0 + math.exp(-(de - m) / s)), n) for de in des
    ]


def oracle_objective(m, s, points):
    """The weighted sum of squares written out for one (m, s)."""
    de = np.array([p.delta_e for p in points])
    frac = np.array([p.frac_agree for p in points])
    w = np.array([p.n_respondents for p in points], dtype=np.float64)
    with np.errstate(over="ignore"):
        pred = 1.0 / (1.0 + np.exp(-(de - m) / s))
    return float(np.sum(w * (pred - frac) ** 2))


def oracle_fit(points):
    """The grid search as a coarse-grid step, then 40 separate refinements."""
    de, frac, w = (
        np.array([getattr(p, f) for p in points], dtype=np.float64)
        for f in ("delta_e", "frac_agree", "n_respondents")
    )

    def best(m_grid, s_grid):
        mm, ss = np.meshgrid(m_grid, s_grid, indexing="ij")
        with np.errstate(over="ignore"):
            pred = 1.0 / (1.0 + np.exp(-(de - mm[..., None]) / ss[..., None]))
        obj = np.sum(w * (pred - frac) ** 2, axis=-1)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        return float(mm[i, j]), float(ss[i, j])

    m_grid = np.linspace(_M_RANGE[0], _M_RANGE[1], 101)
    s_grid = np.linspace(0.25, _S_RANGE[1], 100)
    m, s = best(m_grid, s_grid)
    half_m, half_s = float(m_grid[1] - m_grid[0]), float(s_grid[1] - s_grid[0])
    for _ in range(40):
        m, s = best(
            np.clip(np.linspace(m - half_m, m + half_m, 21), *_M_RANGE),
            np.clip(np.linspace(s - half_s, s + half_s, 21), *_S_RANGE),
        )
        half_m *= 0.6
        half_s *= 0.6
    return m, s


ANCHORS = load_survey(
    resources.files("heartfade").joinpath("data/acceptability_anchors.csv").read_bytes()
)


class TestFit:
    @pytest.mark.parametrize(
        "points",
        [
            ANCHORS,
            logistic_points(25.0, 4.0, range(5, 50, 5)),
            [SurveyPoint(d, f, n) for d, f, n in [(0, 0, 1), (3, 0.9, 7), (9, 0.2, 3)]],
        ],
        ids=["anchors", "logistic", "noisy"],
    )
    def test_bit_equal_to_oracle(self, points):
        curve = fit_acceptability(points)
        assert (curve.m, curve.s) == oracle_fit(points)
        assert fit_objective(curve, points) == oracle_objective(curve.m, curve.s, points)

    def test_recovers_known_curve(self):
        points = logistic_points(25.0, 4.0, range(5, 50, 5))
        curve = fit_acceptability(points)
        assert curve.m == pytest.approx(25.0, rel=0.01)
        assert curve.s == pytest.approx(4.0, rel=0.01)

    def test_refit_own_samples(self):
        curve = AcceptabilityCurve(31.7, 6.2)
        dense = [
            SurveyPoint(de, predict_agreement(curve, de), 50)
            for de in range(0, 80, 2)
        ]
        refit = fit_acceptability(dense)
        assert refit.m == pytest.approx(curve.m, rel=0.001)
        assert refit.s == pytest.approx(curve.s, rel=0.001)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_acceptability(logistic_points(25, 4, [10, 30]))

    def test_degenerate_points(self):
        with pytest.raises(FitError):
            fit_acceptability([SurveyPoint(10, 0.5), SurveyPoint(10, 0.6), SurveyPoint(10, 0.7)])
        with pytest.raises(FitError):
            fit_acceptability(
                [SurveyPoint(10, 0.5), SurveyPoint(20, 0.5), SurveyPoint(30, 0.5)]
            )

    def test_weight_duplication_invariance(self):
        base = logistic_points(25.0, 4.0, range(5, 50, 5), n=100)
        # perturb so the fit is not exact, making weights actually matter
        perturbed = [
            SurveyPoint(p.delta_e, min(1.0, p.frac_agree + 0.02 * (-1) ** i), 100)
            for i, p in enumerate(base)
        ]
        split = []
        for p in perturbed:
            split.append(SurveyPoint(p.delta_e, p.frac_agree, 60))
            split.append(SurveyPoint(p.delta_e, p.frac_agree, 40))
        a = fit_acceptability(perturbed)
        b = fit_acceptability(split)
        assert a.m == pytest.approx(b.m, rel=1e-6)
        assert a.s == pytest.approx(b.s, rel=1e-6)

    def test_anchor_set_hits_20pct_at_30(self):
        from importlib import resources

        data = (
            resources.files("heartfade").joinpath("data/acceptability_anchors.csv")
        ).read_bytes()
        points = load_survey(data)
        curve = fit_acceptability(points)
        residual = math.sqrt(fit_objective(curve, points) / sum(p.n_respondents for p in points))
        assert abs(predict_agreement(curve, 30.0) - 0.20) <= max(residual, 0.01)
        assert threshold_for_agreement(curve, 0.2) == pytest.approx(30.0, abs=1.0)
        # near-zero agreement while fading is below the perceptible band
        assert predict_agreement(curve, 10.0) < 0.02
        assert predict_agreement(curve, 20.0) < 0.06


class TestPredictAndInvert:
    curve = AcceptabilityCurve(25.0, 4.0)

    def test_midpoint(self):
        assert predict_agreement(self.curve, 25.0) == pytest.approx(0.5)

    def test_saturation(self):
        assert predict_agreement(self.curve, 25.0 + 20 * 4.0) > 0.999

    def test_strictly_increasing_in_unit_interval(self):
        values = [predict_agreement(self.curve, x) for x in range(0, 120, 3)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_inverse_pair(self):
        for x in (1.0, 10.0, 25.0, 42.0, 77.0):
            frac = predict_agreement(self.curve, x)
            assert threshold_for_agreement(self.curve, frac) == pytest.approx(
                x, abs=1e-9
            )

    def test_threshold_at_half_is_midpoint(self):
        assert threshold_for_agreement(self.curve, 0.5) == pytest.approx(25.0)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            threshold_for_agreement(self.curve, 0.0)
        with pytest.raises(ValueError):
            threshold_for_agreement(self.curve, 1.0)


class TestLoadSurvey:
    def test_valid(self):
        pts = load_survey("delta_e,frac_agree,n_respondents\n10,0.05,150\n")
        assert pts == [SurveyPoint(10.0, 0.05, 150)]

    def test_missing_column(self):
        with pytest.raises(FitError, match="missing column"):
            load_survey("delta_e,frac_agree\n10,0.05\n")

    def test_bad_row(self):
        with pytest.raises(FitError, match="row 2"):
            load_survey("delta_e,frac_agree,n_respondents\n10,high,150\n")

    def test_short_row_names_its_missing_field(self):
        with pytest.raises(FitError) as exc:
            load_survey("delta_e,frac_agree,n_respondents\n10,0.05\n")
        assert str(exc.value) == "row 2: missing field(s): n_respondents"

    def test_blank_line_skipped_and_not_counted(self):
        header = "delta_e,frac_agree,n_respondents\n"
        pts = load_survey(header + "\n10,0.05,150\n\n")
        assert pts == [SurveyPoint(10.0, 0.05, 150)]
        with pytest.raises(FitError, match="^row 3: "):
            load_survey(header + "\n10,0.05,150\n\n20,high,150\n")

    def test_utf8_bom_is_dropped(self):
        text = "delta_e,frac_agree,n_respondents\n10,0.05,150\n"
        assert load_survey(b"\xef\xbb\xbf" + text.encode()) == load_survey(text)
        with pytest.raises(FitError) as exc:
            load_survey(b"\xef\xbb\xbf" + text.encode() + b"\xc3")
        assert str(exc.value) == f"not UTF-8: byte 0xc3 at offset {3 + len(text)}"

    def test_utf8_bom_is_dropped_from_text(self):
        text = "delta_e,frac_agree,n_respondents\n10,0.05,150\n"
        assert load_survey("\ufeff" + text) == load_survey(text)

    def test_last_of_duplicate_headers_wins(self):
        text = "delta_e,frac_agree,n_respondents,frac_agree\n10,x,150,0.05\n"
        pts = load_survey(text)
        assert pts == [SurveyPoint(10.0, 0.05, 150)]
