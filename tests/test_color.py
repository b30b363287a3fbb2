import math

import numpy as np
import pytest

from heartfade.color import (
    LabColor,
    LabOffset,
    SrgbColor,
    apply_calibration,
    delta_e,
    derive_calibration,
    lab_array_to_srgb,
    lab_to_srgb,
    srgb_array_to_lab,
    srgb_to_lab,
)

FRESH_PAINT_RGB = SrgbColor(194, 80, 85)
FRESH_PAINT_LAB = LabColor(49.3, 46.3, 20.5)


def test_fresh_paint_reference():
    lab = srgb_to_lab(FRESH_PAINT_RGB)
    assert delta_e(lab, FRESH_PAINT_LAB) < 2.0


def test_white_and_black():
    white = srgb_to_lab(SrgbColor(255, 255, 255))
    assert white.L == pytest.approx(100.0, abs=1e-3)
    assert white.a == pytest.approx(0.0, abs=1e-3)
    assert white.b == pytest.approx(0.0, abs=1e-3)
    black = srgb_to_lab(SrgbColor(0, 0, 0))
    assert (black.L, black.a, black.b) == (0.0, 0.0, 0.0)


def test_channel_validation():
    with pytest.raises(ValueError):
        SrgbColor(-1, 0, 0)
    with pytest.raises(ValueError):
        SrgbColor(0, 256, 0)
    with pytest.raises(ValueError):
        LabColor(float("nan"), 0, 0)
    with pytest.raises(ValueError, match="non-finite offset components"):
        LabOffset(math.inf, 0, 0)


def test_lab_to_srgb_white_roundtrip():
    rgb, clamped = lab_to_srgb(LabColor(100.0, 0.0, 0.0))
    assert rgb == SrgbColor(255, 255, 255)
    assert not clamped


def test_lab_to_srgb_fresh_paint():
    rgb, clamped = lab_to_srgb(FRESH_PAINT_LAB)
    assert not clamped
    assert abs(rgb.r - 194) <= 1
    assert abs(rgb.g - 80) <= 1
    assert abs(rgb.b - 85) <= 1


def test_out_of_gamut_is_flagged():
    # no 8-bit sRGB triple maps near (50, 200, 0): check via the forward
    # transform over a coarse full-cube sweep
    grid = np.stack(
        np.meshgrid(*(np.arange(0, 256, 5),) * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    labs = srgb_array_to_lab(grid)
    target = np.array([50.0, 200.0, 0.0])
    nearest = np.min(np.linalg.norm(labs - target, axis=1))
    assert nearest > 10.0
    _, clamped = lab_to_srgb(LabColor(50.0, 200.0, 0.0))
    assert clamped


def test_full_roundtrip_sweep():
    rng = np.random.default_rng(2021)
    rgb = rng.integers(0, 256, size=(10_000, 3))
    lab = srgb_array_to_lab(rgb)
    back, clamped = lab_array_to_srgb(lab)
    assert not clamped.any()
    assert np.max(np.abs(back - rgb)) <= 1


def test_delta_e_basic():
    x = LabColor(50, 0, 0)
    assert delta_e(x, x) == 0.0
    assert delta_e(x, LabColor(60, 0, 0)) == pytest.approx(10.0)
    assert delta_e(
        LabColor(49.3, 46.3, 20.5), LabColor(52.3, 42.3, 20.5)
    ) == pytest.approx(5.0)


def test_delta_e_metric_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y, z = (
            LabColor(*(rng.uniform(-50, 120, size=3))) for _ in range(3)
        )
        assert delta_e(x, y) == delta_e(y, x)
        assert delta_e(x, y) >= 0.0
        assert delta_e(x, z) <= delta_e(x, y) + delta_e(y, z) + 1e-12


def test_monotone_lightness_on_greys():
    greys = [srgb_to_lab(SrgbColor(v, v, v)).L for v in range(256)]
    assert all(b > a for a, b in zip(greys, greys[1:]))


def test_calibration_derive_apply_inverse():
    obs = LabColor(20, 2, 2)
    ref = LabColor(16, 0, 0)
    off = derive_calibration(obs, ref)
    assert (off.dL, off.da, off.db) == (-4, -2, -2)
    assert derive_calibration(obs, obs) == LabOffset(0, 0, 0)

    rng = np.random.default_rng(11)
    for _ in range(100):
        o = LabColor(*rng.uniform(-30, 110, size=3))
        r = LabColor(*rng.uniform(-30, 110, size=3))
        back = apply_calibration(o, derive_calibration(o, r))
        assert delta_e(back, r) < 1e-9


def test_calibration_composition_and_translation_invariance():
    assert apply_calibration(LabColor(10, 10, 10), LabOffset(-4, -2, -2)) == LabColor(
        6, 8, 8
    )
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = LabColor(*rng.uniform(0, 100, size=3))
        d = LabColor(*rng.uniform(0, 100, size=3))
        o1 = LabOffset(*rng.uniform(-5, 5, size=3))
        o2 = LabOffset(*rng.uniform(-5, 5, size=3))
        lhs = apply_calibration(apply_calibration(c, o1), o2)
        summed = LabOffset(o1.dL + o2.dL, o1.da + o2.da, o1.db + o2.db)
        rhs = apply_calibration(c, summed)
        assert delta_e(lhs, rhs) < 1e-9
        # same offset on both colours preserves their distance
        assert math.isclose(
            delta_e(apply_calibration(c, o1), apply_calibration(d, o1)),
            delta_e(c, d),
            rel_tol=0,
            abs_tol=1e-9,
        )
