"""Golden gate: the preset outputs at --seed 42 are pinned by sha256.

The digests were taken from the per-day, per-replicate engine. Any change
to the simulation engine must reproduce them byte for byte; an output may
change only on purpose, with new digests recorded alongside the reason.
"""

import hashlib

import pytest

from heartfade.cli import main

GOLDEN = {
    ("simulate", "paint1-baseline"): {
        "result.csv": "35c8c590d521c1f33b85df6aba50c4850e42087400348d1465a662ff6dd2a446",
        "summary.json": "9e28fc4ab00152da1940f06bfee33eb5424760fb65cb67392424d71ab3dced4e",
    },
    ("simulate", "paint2-1pct"): {
        "result.csv": "616a66d12faa8626c1d4e309fc234e05c6d07907929c903af0401aca2fcd21d9",
        "summary.json": "c95833ffb20ab40553642a21c15f2892672519e2167fc4029d82187ff4366dea",
    },
    ("sweep", "paint1-5pct"): {
        "sweep.csv": "8ea5775e7a13d9ef9833992d2ea2c6794ab7ab58d38308725c8354384dfde866",
    },
}


@pytest.mark.parametrize("command,preset", sorted(GOLDEN))
def test_preset_outputs_match_golden_digests(tmp_path, command, preset):
    out = tmp_path / preset
    assert main([command, "--preset", preset, "--seed", "42", "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN[(command, preset)]
    }
    assert digests == GOLDEN[(command, preset)]
