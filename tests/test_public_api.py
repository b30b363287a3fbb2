"""The package root's public names are the modules' `__all__` lists.

Each name is listed once, in the `__all__` of the module that defines it,
and the root re-exports exactly those names plus `__version__`.
"""

import importlib
import types
from collections import Counter

import heartfade

MODULES = [
    importlib.import_module(f"heartfade.{name}")
    for name in ("acceptability", "color", "ingest", "rates", "simulate")
]


def test_every_listed_name_resolves_in_its_module():
    for module in MODULES:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module
        assert len(set(module.__all__)) == len(module.__all__), module


def test_no_name_is_listed_in_two_modules():
    counts = Counter(n for module in MODULES for n in set(module.__all__))
    assert [n for n, c in counts.items() if c > 1] == []


def test_root_exports_exactly_the_union_of_the_lists():
    public = {
        name
        for name, value in vars(heartfade).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {n for module in MODULES for n in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(heartfade, name) is getattr(module, name), name
    assert isinstance(heartfade.__version__, str)


# the engine's step functions and their helpers: internal, not exported
ENGINE = (
    "Population",
    "init_population",
    "advance_day",
    "repaint_event",
    "derive_stream_seed",
    "weekly_capacity",
)


def test_engine_step_functions_are_not_exported():
    assert [n for n in ENGINE if hasattr(heartfade, n)] == []
    assert [n for module in MODULES for n in module.__all__ if n in ENGINE] == []


def test_engine_step_functions_stay_module_level():
    """bench/tracing.py wraps these by name in heartfade.simulate."""
    simulate = importlib.import_module("heartfade.simulate")
    for name in ("init_population", "advance_day", "repaint_event"):
        assert callable(getattr(simulate, name)), name
