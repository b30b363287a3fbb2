"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline)."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import heartfade.simulate as simulate
from heartfade.acceptability import (
    AcceptabilityCurve,
    SurveyPoint,
    fit_acceptability,
    predict_agreement,
    threshold_for_agreement,
)
from heartfade.cli import main
from heartfade.color import LabColor, SrgbColor, delta_e, lab_array_to_srgb, srgb_array_to_lab, srgb_to_lab
from heartfade.rates import aggregate_rates, fit_line, LineFit
from heartfade.simulate import (
    SimConfig,
    Strategy,
    paint1_config,
    paint2_config,
    run_simulation,
    sweep_fractions,
)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_01_colour_fidelity():
    start = time.monotonic()
    lab = srgb_to_lab(SrgbColor(194, 80, 85))
    err = delta_e(lab, LabColor(49.3, 46.3, 20.5))
    assert err < 2.0

    rng = np.random.default_rng(42)
    rgb = rng.integers(0, 256, size=(10_000, 3))
    back, clamped = lab_array_to_srgb(srgb_array_to_lab(rgb))
    worst = int(np.max(np.abs(back - rgb)))
    assert not clamped.any()
    assert worst <= 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"fresh paint dE={err:.3f}, 10k roundtrip worst dev {worst}, {elapsed:.3f}s")


def test_02_regression_oracle():
    start = time.monotonic()
    exact = fit_line([(t, 0.041 * t + 2.0) for t in range(0, 400, 25)])
    assert exact.slope == pytest.approx(0.041, abs=1e-9)
    assert exact.intercept == pytest.approx(2.0, abs=1e-9)
    assert exact.r2 == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        t = np.sort(rng.uniform(0, 500, size=n))
        y = rng.uniform(0.01, 0.08) * t + rng.normal(0, 1.0, size=n)
        fit = fit_line(list(zip(t, y)))
        tc = t - t.mean()
        slope = float(tc @ (y - y.mean()) / (tc @ tc))
        worst = max(worst, abs(fit.slope - slope))
    assert worst < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"1000 noisy datasets, worst slope dev {worst:.2e}, {elapsed:.3f}s")


def test_03_aggregate_rate_bookkeeping():
    # seven slopes constructed before the build: endpoints at the observed
    # extremes, interior symmetric so mean=0.041 and sample sd=0.0052
    mid = (7 * 0.041 - 0.0351 - 0.0496) / 5
    ss_rest = 6 * 0.0052**2 - (0.0351 - 0.041) ** 2 - (0.0496 - 0.041) ** 2
    d = math.sqrt((ss_rest - 5 * (mid - 0.041) ** 2) / 4)
    slopes = [0.0351, 0.0496, mid + d, mid - d, mid + d, mid - d, mid]
    assert min(slopes) >= 0.0351 and max(slopes) <= 0.0496

    fits = [LineFit(s, 0.0, 1.0, 8) for s in slopes]
    agg = aggregate_rates(fits)
    assert agg.mean_k == pytest.approx(0.041, abs=1e-12)
    assert agg.sd_k == pytest.approx(0.0052, abs=1e-12)
    assert agg.rel_err == pytest.approx(0.127, abs=0.001)
    report(3, f"mean {agg.mean_k:.4f}, sd {agg.sd_k:.4f}, rel_err {agg.rel_err:.4f}")


def test_04_baseline_lifetime():
    start = time.monotonic()
    cfg = replace(paint1_config(), horizon_days=457, replicates=100)
    res = run_simulation(cfg)
    final = res.frac_by_rep[:, -1]
    assert res.days[-1] == 457
    assert np.all(final == 1.0), f"{np.sum(final < 1.0)} replicate(s) below 100%"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"all 100 replicates at 100% by day 457, {elapsed:.1f}s")


def test_05_strategy_ordering_and_stationary_oracle():
    start = time.monotonic()
    base = replace(paint1_config(), replicates=50)
    rows = sweep_fractions(base, [0.05], horizon_days=1095)
    frac = {r.strategy: r.frac_needing_repaint_at_horizon for r in rows}
    assert frac[Strategy.GREEDY_B] <= frac[Strategy.THRESHOLD_C] <= frac[Strategy.RANDOM_A]

    oracle_cfg = SimConfig(
        k_mean=0.041,
        k_sd=0.0,
        initial_spread_max=0.0,
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=0.05,
        horizon_days=1095,
        replicates=50,
    )
    res = run_simulation(oracle_cfg)
    closed_form = 0.95 ** math.ceil(10.0 / (7 * 0.041))
    dev = abs(float(res.mean_frac[-1]) - closed_form)
    assert dev < 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        5,
        f"B {frac[Strategy.GREEDY_B]:.3f} <= C {frac[Strategy.THRESHOLD_C]:.3f} "
        f"<= A {frac[Strategy.RANDOM_A]:.3f}; stationary dev {dev:.3f}, {elapsed:.1f}s",
    )


def test_06_repaint_conservation():
    checked = []
    for f in (0.03, 0.1):
        for strategy in (Strategy.RANDOM_A, Strategy.GREEDY_B):
            cfg = replace(
                paint1_config(),
                strategy=strategy,
                repaint_fraction_weekly=f,
                n_agents=200,
                horizon_days=365,
                replicates=10,
            )
            res = run_simulation(cfg)
            expected = round(f * cfg.n_agents) * (cfg.horizon_days // 7)
            assert np.all(res.cum_repaints_by_rep[:, -1] == expected)
            checked.append((f, strategy.value, expected))
    report(6, f"exact totals for {checked}")


def test_07_paint2_stabilization():
    start = time.monotonic()
    cfg = replace(
        paint2_config(), strategy=Strategy.THRESHOLD_C, repaint_fraction_weekly=0.01
    )
    managed = run_simulation(cfg)
    baseline = run_simulation(paint2_config())
    at_6000 = managed.frac_at(6000)
    at_4000 = managed.frac_at(4000)
    base_6000 = baseline.frac_at(6000)
    assert abs(at_6000 - at_4000) < 0.05
    assert at_6000 < 0.5 * base_6000
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        7,
        f"managed {at_4000:.3f}@4000 -> {at_6000:.3f}@6000 vs baseline "
        f"{base_6000:.3f}, {elapsed:.1f}s",
    )


def test_08_acceptability_recovery():
    truth = AcceptabilityCurve(25.0, 4.0)
    points = [
        SurveyPoint(de, predict_agreement(truth, de), 100) for de in range(5, 50, 5)
    ]
    curve = fit_acceptability(points)
    assert curve.m == pytest.approx(25.0, rel=0.01)
    assert curve.s == pytest.approx(4.0, rel=0.01)

    worst = 0.0
    for x in np.linspace(0.5, 80.0, 40):
        frac = predict_agreement(curve, float(x))
        worst = max(worst, abs(threshold_for_agreement(curve, frac) - x))
    assert worst < 1e-9
    report(8, f"recovered m={curve.m:.4f}, s={curve.s:.4f}; inverse dev {worst:.1e}")


def test_09_determinism(tmp_path, monkeypatch):
    presets = [
        ["simulate", "--preset", "paint1-baseline"],
        ["simulate", "--preset", "paint2-1pct"],
        ["sweep", "--preset", "paint1-5pct"],
    ]
    for preset in presets:
        snapshots = []
        for run in ("a", "b"):
            out = tmp_path / f"{preset[-1]}-{run}"
            rc = main(preset + ["--seed", "42", "--out", str(out)])
            assert rc == 0
            snapshots.append(
                sorted((p.name, p.read_bytes()) for p in out.iterdir())
            )
        assert snapshots[0] == snapshots[1], f"{preset} not byte-identical"

    cfg = replace(
        paint1_config(),
        strategy=Strategy.RANDOM_A,
        repaint_fraction_weekly=0.05,
        horizon_days=700,
        replicates=20,
    )
    whole = run_simulation(cfg)  # all 20 replicates in one block
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", 3 * cfg.n_agents)
    blocked = run_simulation(cfg)  # blocks of 3 replicates
    assert np.array_equal(whole.frac_by_rep, blocked.frac_by_rep)
    assert np.array_equal(whole.cum_repaints_by_rep, blocked.cum_repaints_by_rep)
    report(9, "3 presets byte-identical across reruns; one block == 7 blocks")
