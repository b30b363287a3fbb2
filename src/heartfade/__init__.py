"""heartfade: fading-rate estimation and repainting-strategy simulation
for painted memorial hearts.

The root exports each module's `__all__`, where every public name is listed
once, next to its definition."""

__version__ = "0.2.0"

from .acceptability import *
from .color import *
from .ingest import *
from .rates import *
from .simulate import *
