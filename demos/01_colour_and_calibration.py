"""Colour handling walkthrough: sRGB <-> CIELAB, delta E, and single-patch
calibration of a photograph against a known reference colour.

Run: python3 demos/01_colour_and_calibration.py
"""

import numpy as np

from heartfade import (
    LabColor,
    LabOffset,
    Region,
    SrgbColor,
    delta_e,
    derive_calibration,
    lab_array_to_srgb,
    lab_to_srgb,
    mean_lab_of_region,
    parse_ppm,
    srgb_array_to_lab,
    srgb_to_lab,
)

# A freshly painted heart measures roughly RGB (194, 80, 85).
fresh_rgb = SrgbColor(194, 80, 85)
fresh_lab = srgb_to_lab(fresh_rgb)
print(f"fresh paint {fresh_rgb} -> L*={fresh_lab.L:.1f} a*={fresh_lab.a:.1f} b*={fresh_lab.b:.1f}")

# Fading shows up as a delta E (CIE76) from the fresh value. A side-by-side
# perceptibility limit is around delta E 2-3; the simulation counts a heart
# as needing repainting above delta E 10.
faded = LabColor(fresh_lab.L + 8, fresh_lab.a - 6, fresh_lab.b)
print(f"example faded colour is dE {delta_e(fresh_lab, faded):.1f} from fresh")
rgb, clamped = lab_to_srgb(faded)
print(f"rendered back to sRGB: {rgb} (clamped={clamped})")

# --- calibration against the black reference board ---------------------
# Build a tiny synthetic photo: a dark board patch next to a heart patch,
# then distort the whole scene with a uniform LAB colour-balance error.
pixels = np.zeros((8, 16, 3), dtype=np.uint8)
pixels[:, :8] = (30, 30, 32)  # board
pixels[:, 8:] = (194, 80, 85)  # heart
scene = srgb_array_to_lab(pixels)
scene += np.array([5.0, -3.0, 2.0])  # camera colour-balance error
distorted, _ = lab_array_to_srgb(scene)
photo = parse_ppm(b"P6\n16 8\n255\n" + distorted.astype(np.uint8).tobytes())

board_region = Region(0, 0, 8, 8)
heart_region = Region(8, 0, 8, 8)
board_reference = srgb_to_lab(SrgbColor(30, 30, 32))  # colorimeter reading

observed_board = mean_lab_of_region(photo, board_region, LabOffset(0, 0, 0))
offset = derive_calibration(observed_board, board_reference)
print(f"\nderived offset: dL={offset.dL:+.2f} da={offset.da:+.2f} db={offset.db:+.2f}")

raw = mean_lab_of_region(photo, heart_region, LabOffset(0, 0, 0))
calibrated = mean_lab_of_region(photo, heart_region, offset)
print(f"heart region uncalibrated: dE {delta_e(raw, fresh_lab):.2f} from fresh")
print(f"heart region calibrated:   dE {delta_e(calibrated, fresh_lab):.2f} from fresh")
