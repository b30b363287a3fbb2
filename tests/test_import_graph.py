"""The import graph the text front exists for, read from the source.

`_text` is a stdlib-only leaf: it imports no heartfade module. `simulate`
and `rates` read their JSON documents through it and import nothing from
`ingest`, so a simulation never needs the ingestion module. The imports are
read with `ast`: at run time the package root star-imports every module, so
`sys.modules` cannot tell who imports whom.
"""

import ast
import sys
from pathlib import Path

import heartfade

PACKAGE = Path(heartfade.__file__).parent


def imports(module):
    """The absolute names of what heartfade/<module>.py imports, anywhere in
    the file: `from . import x` gives heartfade.x, `from .x import y` gives
    heartfade.x."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = ".".join(filter(None, ["heartfade", node.module]))
            if node.module is None:
                names.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                names.add(base)
    return names


def test_text_front_is_a_stdlib_leaf():
    found = imports("_text")
    assert found, "no import read"
    assert {n.partition(".")[0] for n in found} <= sys.stdlib_module_names, found


def test_simulate_and_rates_read_json_without_ingest():
    for module in ("simulate", "rates"):
        found = imports(module)
        assert "heartfade._text" in found, module  # the reader sees the edge
        assert "heartfade.ingest" not in found, module


def test_reader_resolves_relative_imports():
    assert {"heartfade._text", "heartfade.color"} <= imports("ingest")
    assert {"heartfade.__version__", "heartfade.simulate"} <= imports("cli")


def test_no_process_pool():
    # the package forks its workers itself (simulate._forked)
    for path in PACKAGE.glob("*.py"):
        found = {n.partition(".")[0] for n in imports(path.stem)}
        assert not {"multiprocessing", "concurrent"} & found, path.name
