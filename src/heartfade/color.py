"""sRGB / CIELAB colour handling: conversion, CIE76 delta E, and
single-patch calibration offsets.

All conversions assume the D65 white point, 2-degree observer and the
standard sRGB primaries and transfer function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SrgbColor",
    "LabColor",
    "LabOffset",
    "srgb_to_lab",
    "lab_to_srgb",
    "delta_e",
    "derive_calibration",
    "apply_calibration",
    "srgb_array_to_lab",
    "lab_array_to_srgb",
]

# sRGB -> XYZ (D65), Y of white = 1
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_XYZ_TO_RGB = np.linalg.inv(_RGB_TO_XYZ)
# D65 white as produced by the matrix itself, so RGB(1,1,1) maps exactly
# to L=100 and back (nominally (0.95047, 1.0, 1.08883))
_WHITE = _RGB_TO_XYZ @ np.ones(3)

_EPS = (6.0 / 29.0) ** 3
_DELTA = 6.0 / 29.0


@dataclass(frozen=True)
class SrgbColor:
    """8-bit sRGB-encoded colour."""

    r: int
    g: int
    b: int

    def __post_init__(self):
        for name in ("r", "g", "b"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v <= 255:
                raise ValueError(f"channel {name}={v!r} outside 0..255")


@dataclass(frozen=True, slots=True)
class LabColor:
    """CIELAB colour: L* lightness, a* green-red, b* blue-yellow."""

    L: float
    a: float
    b: float

    def __post_init__(self):
        if not (
            math.isfinite(self.L) and math.isfinite(self.a) and math.isfinite(self.b)
        ):
            raise ValueError(f"non-finite LAB components: {self}")


@dataclass(frozen=True)
class LabOffset:
    """Additive per-channel LAB correction from a calibration patch."""

    dL: float
    da: float
    db: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dL, self.da, self.db)):
            raise ValueError(f"non-finite offset components: {self}")

    def __add__(self, other: "LabOffset") -> "LabOffset":
        return LabOffset(self.dL + other.dL, self.da + other.da, self.db + other.db)


def srgb_array_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Vectorised sRGB (0..255, shape (..., 3)) to CIELAB (shape (..., 3))."""
    c = np.asarray(rgb, dtype=np.float64) / 255.0
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T
    t = xyz / _WHITE
    f = np.where(t > _EPS, np.cbrt(t), t / (3.0 * _DELTA**2) + 4.0 / 29.0)
    lab = np.empty_like(f)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def lab_array_to_srgb(lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised CIELAB to 8-bit sRGB.

    Returns (rgb, clamped) where rgb has shape (..., 3) with integer
    channels and clamped is a boolean array marking colours whose linear
    channels fell outside [0, 1] before encoding.
    """
    lab = np.asarray(lab, dtype=np.float64)
    fy = (lab[..., 0] + 16.0) / 116.0
    fx = fy + lab[..., 1] / 500.0
    fz = fy - lab[..., 2] / 200.0
    f = np.stack([fx, fy, fz], axis=-1)
    t = np.where(f > _DELTA, f**3, 3.0 * _DELTA**2 * (f - 4.0 / 29.0))
    xyz = t * _WHITE
    linear = xyz @ _XYZ_TO_RGB.T
    # tolerance absorbs roundtrip noise at the gamut boundary (pure black/white)
    clamped = np.any((linear < -1e-9) | (linear > 1 + 1e-9), axis=-1)
    linear = np.clip(linear, 0.0, 1.0)
    encoded = np.where(
        linear <= 0.0031308,
        12.92 * linear,
        1.055 * linear ** (1.0 / 2.4) - 0.055,
    )
    rgb = np.rint(encoded * 255.0).astype(np.int64)
    return rgb, clamped


def srgb_to_lab(c: SrgbColor) -> LabColor:
    """Convert one 8-bit sRGB colour to CIELAB (D65)."""
    lab = srgb_array_to_lab(np.array([c.r, c.g, c.b], dtype=np.float64))
    return LabColor(float(lab[0]), float(lab[1]), float(lab[2]))


def lab_to_srgb(c: LabColor) -> tuple[SrgbColor, bool]:
    """Convert CIELAB to 8-bit sRGB; flags out-of-gamut inputs.

    Out-of-gamut linear channels are clamped to [0, 1] before encoding
    and the returned flag is True.
    """
    rgb, clamped = lab_array_to_srgb(np.array([c.L, c.a, c.b]))
    return SrgbColor(int(rgb[0]), int(rgb[1]), int(rgb[2])), bool(clamped)


def delta_e(x: LabColor, y: LabColor) -> float:
    """CIE76 colour difference: Euclidean distance in LAB."""
    return math.sqrt((x.L - y.L) ** 2 + (x.a - y.a) ** 2 + (x.b - y.b) ** 2)


def derive_calibration(observed_board: LabColor, reference_board: LabColor) -> LabOffset:
    """Per-channel additive offset that maps the observed patch onto its
    known reference value."""
    return LabOffset(
        reference_board.L - observed_board.L,
        reference_board.a - observed_board.a,
        reference_board.b - observed_board.b,
    )


def apply_calibration(c: LabColor, off: LabOffset) -> LabColor:
    """Apply an additive calibration offset to a colour."""
    return LabColor(c.L + off.dL, c.a + off.da, c.b + off.db)
