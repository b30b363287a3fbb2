"""Fading-rate estimation walkthrough: per-heart delta-E time series,
windowed OLS fits, and the population aggregate.

Uses the bundled synthetic dataset (7 hearts on exact lines with slopes
averaging 0.041 dE/day, plus one heart with too little data).

Run: python3 demos/02_fading_rates.py
"""

from importlib import resources

from heartfade import (
    LabColor,
    aggregate_rates,
    build_series,
    estimate_rates,
    load_observations,
    load_windows,
)

data = resources.files("heartfade") / "data"
observations = load_observations((data / "synthetic_observations.csv").read_bytes())
windows = load_windows((data / "synthetic_windows.json").read_bytes())
baseline = LabColor(49.3, 46.3, 20.5)  # fresh paint

# flat arrays: point i is day[i], delta_e[i] of heart_ids[heart[i]]
heart, day, delta_e = build_series(observations, baseline)
n_hearts = len(observations.heart_ids)
print(f"{len(observations)} observations -> {n_hearts} heart series\n")

fits, excluded = estimate_rates(observations.heart_ids, heart, day, delta_e, windows)
for heart_id in observations.heart_ids:
    if heart_id in excluded:
        print(f"{heart_id}: excluded ({excluded[heart_id]})")
        continue
    fit = fits[heart_id]
    print(
        f"{heart_id}: slope {fit.slope:.4f} dE/day over {fit.n} points "
        f"(r2={fit.r2:.3f})"
    )

agg = aggregate_rates(list(fits.values()))
print(
    f"\npopulation rate: {agg.mean_k:.4f} +/- {agg.sd_k:.4f} dE/day "
    f"({agg.rel_err:.1%} relative) from {agg.n_hearts} hearts"
)
print(f"days to cross the perception threshold (dE 10): {10 / agg.mean_k:.0f}")
