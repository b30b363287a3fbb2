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


def sites(name):
    """(module, top-level definition) of each use of `name` under heartfade,
    as an attribute (`os.fork`), a bare name, an imported alias, a
    parameter or a keyword argument."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                used = (
                    getattr(node, "attr", None) == name
                    or getattr(node, "id", None) == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)
                    or isinstance(node, (ast.arg, ast.keyword)) and node.arg == name
                )
                if used:
                    found.append((path.stem, getattr(top, "name", None)))
    return found


def test_one_fork_helper():
    # every parallel run forks, and ends with its parent, in simulate._forked
    for name in ("fork", "prctl"):
        assert sites(name) == [("simulate", "_forked")], name


def test_only_the_sweep_forks():
    # a simulation steps every replicate in its calling process
    assert sites("_forked") == [("simulate", "sweep_fractions")]


def test_only_a_sweep_row_counts_at_the_horizon_only():
    # _simulate_block's parameter, forwarded by _trajectories, is passed by
    # _summary alone: run_simulation and the CLI record every day's count
    found = set(sites("horizon_only"))
    blocks = {("simulate", "_simulate_block"), ("simulate", "_trajectories")}
    assert found == blocks | {("simulate", "_summary")}


def test_sites_sees_each_form():
    assert ("simulate", "_forked") in sites("getppid")  # os.getppid()
    assert ("simulate", None) in sites("numpy")  # import numpy as np
    assert ("simulate", "sweep_fractions") in sites("_forked")  # a bare name
    assert sites("root").count(("simulate", "_cpus")) == 2  # a parameter and its use
    assert sites("closefd") == [("simulate", "_forked")]  # a keyword argument
