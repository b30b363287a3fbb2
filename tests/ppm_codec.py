"""PPM writers and a pixel reader for tests: the package only decodes."""

import io

import numpy as np

from heartfade.color import SrgbColor
from heartfade.ingest import PixelGrid


def encode_p3(grid: PixelGrid) -> bytes:
    """Encode a grid as ASCII PPM."""
    out = io.StringIO()
    out.write(f"P3\n{grid.width} {grid.height}\n255\n")
    for row in grid.pixels:
        out.write(" ".join(str(int(v)) for v in row.reshape(-1)))
        out.write("\n")
    return out.getvalue().encode("ascii")


def encode_p6(grid: PixelGrid) -> bytes:
    """Encode a grid as binary PPM."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + grid.pixels.astype(np.uint8).tobytes()


def pixel(grid: PixelGrid, x: int, y: int) -> SrgbColor:
    """The colour of the pixel at column x, row y."""
    r, g, b = grid.pixels[y, x]
    return SrgbColor(int(r), int(g), int(b))
