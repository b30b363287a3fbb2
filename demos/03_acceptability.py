"""Acceptability-curve walkthrough: fit the logistic agreement curve to
the bundled anchor survey data and invert it into repainting thresholds.

The bundled CSV is a RECONSTRUCTED anchor set: it encodes only the
qualitative survey facts (near-zero agreement at low fading, ~20% of
observers wanting a repaint at delta E 30), not raw responses.

Run: python3 demos/03_acceptability.py
"""

from importlib import resources

from heartfade import (
    fit_acceptability,
    load_survey,
    predict_agreement,
    threshold_for_agreement,
)

data = resources.files("heartfade") / "data"
points = load_survey((data / "acceptability_anchors.csv").read_bytes())
curve = fit_acceptability(points)
print(f"fitted logistic: midpoint m={curve.m:.1f} dE, scale s={curve.s:.2f}")

print("\nagreement that repainting is needed:")
for de in range(0, 55, 5):
    frac = predict_agreement(curve, de)
    bar = "#" * round(frac * 40)
    print(f"  dE {de:2d}: {frac:6.1%} {bar}")

print("\naction thresholds:")
for frac in (0.05, 0.2, 0.5):
    print(
        f"  repaint before dE {threshold_for_agreement(curve, frac):5.1f} "
        f"to keep agreement under {frac:.0%}"
    )
