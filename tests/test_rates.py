import numpy as np
import pytest

from heartfade.rates import (
    InsufficientDataError,
    Window,
    aggregate_rates,
    estimate_heart_rate,
    estimate_rates,
    fit_line,
    load_windows,
)


def ols_oracle(t, y):
    """Closed-form OLS slope/intercept, independent of the implementation."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    tc = t - t.mean()
    slope = float(tc @ (y - y.mean()) / (tc @ tc))
    return slope, float(y.mean() - slope * t.mean())


class TestFitLine:
    def test_exact_line(self):
        points = [(t, 0.041 * t + 2.0) for t in range(0, 300, 30)]
        fit = fit_line(points)
        assert fit.slope == pytest.approx(0.041, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n == len(points)

    def test_two_points_interpolate(self):
        fit = fit_line([(0, 1.0), (10, 2.0)])
        assert fit.slope == pytest.approx(0.1)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_noisy_data_against_oracle(self):
        rng = np.random.default_rng(17)
        t = np.arange(50, dtype=float)
        y = 0.04 * t + rng.normal(0, 1.0, size=50)
        fit = fit_line(list(zip(t, y)))
        slope, intercept = ols_oracle(t, y)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        # slope within 3 standard errors of the generator slope
        resid = y - (slope * t + intercept)
        se = np.sqrt(resid @ resid / 48 / np.sum((t - t.mean()) ** 2))
        assert abs(fit.slope - 0.04) < 3 * se

    def test_rejects_degenerate_input(self):
        with pytest.raises(InsufficientDataError):
            fit_line([(0, 1.0)])
        with pytest.raises(InsufficientDataError):
            fit_line([(5, 1.0), (5, 2.0), (5, 3.0)])

    def test_point_order_invariance(self):
        rng = np.random.default_rng(23)
        points = [(float(t), float(rng.uniform(0, 20))) for t in range(20)]
        shuffled = list(points)
        rng.shuffle(shuffled)
        a, b = fit_line(points), fit_line(shuffled)
        assert a.slope == pytest.approx(b.slope, abs=1e-12)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-12)

    def test_time_shift_and_y_scale(self):
        rng = np.random.default_rng(29)
        t = np.arange(30, dtype=float)
        y = 0.05 * t + rng.normal(0, 0.5, size=30)
        base = fit_line(list(zip(t, y)))
        shifted = fit_line(list(zip(t + 100.0, y)))
        assert shifted.slope == pytest.approx(base.slope, abs=1e-9)
        assert shifted.intercept == pytest.approx(
            base.intercept - base.slope * 100.0, abs=1e-9
        )
        scaled = fit_line(list(zip(t, 3.0 * y)))
        assert scaled.slope == pytest.approx(3.0 * base.slope, abs=1e-9)
        assert scaled.r2 == pytest.approx(base.r2, abs=1e-9)


class TestEstimateHeartRate:
    def test_window_covering_all_matches_fit_line(self):
        points = [(t, 0.04 * t) for t in range(0, 100, 10)]
        fit = estimate_heart_rate("h1", points, Window(0, 90))
        direct = fit_line([(float(t), y) for t, y in points])
        assert fit == direct

    def test_window_with_one_point_errors(self):
        points = [(t, 0.04 * t) for t in range(0, 100, 10)]
        with pytest.raises(InsufficientDataError) as raised:
            estimate_heart_rate("h1", points, Window(85, 95))
        # the reason estimate_rates records for the heart
        assert str(raised.value) == "heart h1: 1 usable point(s) in window [85, 95]"
        days = np.arange(0, 100, 10)
        _, excluded = estimate_rates(
            ["h1"], np.zeros(10, np.int64), days, 0.04 * days, {"h1": Window(85, 95)}
        )
        assert excluded == {"h1": str(raised.value)}

    def test_points_on_one_day_in_window(self):
        # two in-window points share day 0: the reason is the one fit_line
        # gives, not that the fit overflowed
        points = [(0, 1.0), (0, 2.0), (5, 3.0)]
        with pytest.raises(InsufficientDataError, match="^all t values identical$"):
            estimate_heart_rate("h1", points, Window(0, 3))
        with pytest.raises(InsufficientDataError, match="^all t values identical$"):
            fit_line([(0, 1.0), (0, 2.0)])
        # days whose mean rounds away from them (3 x 0.1) still count as one
        with pytest.raises(InsufficientDataError, match="^all t values identical$"):
            estimate_heart_rate("h1", [(0.1, 1.0), (0.1, 2.0), (0.1, 3)], Window(0, 1))
        # with two days in the window the same points fit, and a fit that
        # overflows on distinct days keeps its own reason
        assert estimate_heart_rate("h1", points, Window(0, 5)).n == 3
        huge = [(0, 1e300), (1, -1e300), (2, 1e300)]
        with pytest.raises(InsufficientDataError, match="values too large"):
            estimate_heart_rate("h1", huge, Window(0, 2))

    def test_piecewise_series_recovers_window_slope(self):
        inside = [(t, 0.0351 * t) for t in range(0, 200, 20)]
        flat = [(t, 0.0351 * 180) for t in range(220, 400, 20)]
        fit = estimate_heart_rate("h1", inside + flat, Window(0, 199))
        assert fit.slope == pytest.approx(0.0351, abs=1e-9)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Window(10, 5)


class TestAggregateRates:
    def test_single_fit(self):
        fit = fit_line([(0, 2.0), (100, 2.0 + 0.041 * 100)])
        agg = aggregate_rates([fit])
        assert agg.mean_k == pytest.approx(0.041)
        assert agg.sd_k == 0.0
        assert agg.rel_err == 0.0
        assert agg.n_hearts == 1

    def test_two_slope_sample_sd(self):
        fits = [
            fit_line([(0, 0.0), (100, s * 100)]) for s in (0.036, 0.046)
        ]
        agg = aggregate_rates(fits)
        assert agg.mean_k == pytest.approx(0.041)
        assert agg.sd_k == pytest.approx(0.0070710678, abs=1e-9)

    def test_identical_fits_zero_sd(self):
        fit = fit_line([(0, 0.0), (10, 0.41)])
        agg = aggregate_rates([fit] * 5)
        assert agg.sd_k == 0.0

    def test_empty_list(self):
        with pytest.raises(InsufficientDataError):
            aggregate_rates([])


class TestLoadWindows:
    @pytest.mark.parametrize("bom", ["\ufeff", b"\xef\xbb\xbf"], ids=["text", "bytes"])
    def test_utf8_bom_is_dropped(self, bom):
        text = '{"h1": {"start_day": 0, "end_day": 350}}'
        doc = bom + (text if isinstance(bom, str) else text.encode())
        assert load_windows(doc) == load_windows(text) == {"h1": Window(0, 350)}
