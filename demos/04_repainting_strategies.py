"""Lifetime-simulation walkthrough: baseline fading, the three repainting
strategies, and the decision sweep over weekly repaint fractions.

Run: python3 demos/04_repainting_strategies.py
"""

from dataclasses import replace

from heartfade import (
    Strategy,
    paint1_config,
    paint2_config,
    run_simulation,
    sweep_fractions,
)

# --- no intervention with the original fast-fading paint ----------------
baseline = replace(paint1_config(), horizon_days=600, replicates=50)
res = run_simulation(baseline)
first_full = next(d for d, f in zip(res.days, res.mean_frac) if f == 1.0)
print(
    "baseline (0.041 dE/day): every heart past the perception threshold "
    f"by day {first_full} (~{first_full / 30.4:.0f} months)"
)

# --- the three strategies at 5% repainted weekly, 3-year horizon --------
print("\nstrategies at 5%/week after 3 years (fraction needing repaint):")
for strategy in (Strategy.RANDOM_A, Strategy.GREEDY_B, Strategy.THRESHOLD_C):
    cfg = replace(
        paint1_config(),
        strategy=strategy,
        repaint_fraction_weekly=0.05,
        horizon_days=1095,
        replicates=50,
    )
    r = run_simulation(cfg)
    print(
        f"  {strategy.value:12s}: {r.mean_frac[-1]:6.1%} "
        f"[{r.lo_frac[-1]:.1%}, {r.hi_frac[-1]:.1%}], "
        f"{r.mean_cum_repaints[-1]:.0f} repaints/1000 agents"
    )

# --- decision sweep: which weekly fraction is enough? -------------------
print("\nsweep over weekly fractions (3-year horizon, greedy strategy column):")
rows = sweep_fractions(
    replace(paint1_config(), replicates=20),
    [0.0, 0.01, 0.05, 0.1, 0.2],
    horizon_days=1095,
)
print("  fraction  strategy      needing-repaint  total-repaints")
for row in rows:
    print(
        f"  {row.repaint_fraction_weekly:8.2f}  {row.strategy.value:12s}"
        f"  {row.frac_needing_repaint_at_horizon:14.1%}"
        f"  {row.total_repaints_at_horizon:14.0f}"
    )

# --- the premium paint: ~0.5 dE/year ------------------------------------
managed = replace(
    paint2_config(), strategy=Strategy.THRESHOLD_C, repaint_fraction_weekly=0.01
)
r = run_simulation(managed)
print(
    f"\npremium paint, 1%/week threshold repainting, ~16 years: "
    f"{r.mean_frac[-1]:.1%} needing repaint "
    f"(baseline would be {run_simulation(paint2_config()).mean_frac[-1]:.1%})"
)
