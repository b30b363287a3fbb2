"""Golden gate: the preset outputs at --seed 42 are pinned by sha256.

The digests were taken from the per-day, per-replicate engine. Any change
to the simulation engine must reproduce them byte for byte; an output may
change only on purpose, with new digests recorded alongside the reason.

Re-pinned on purpose once, in version 0.2.0: a forced pick (a row with no
more candidates than capacity) no longer calls `Generator.choice`, so a
THRESHOLD_C row that has a forced week before a week over capacity draws
from a different point of its stream. Only two `sweep.csv` rows moved,
both within Monte Carlo error: `0.01,threshold_c` (fraction 0.646200 ->
0.646840) and `0.05,threshold_c` (0.010740 -> 0.011740, repaints
4161.38 -> 4160.58). Week-stepped fading changed no byte, and the
`simulate` digests are the originals. A preset run reads no input file,
so its manifest.json is pinned too; it records the tool version, so a new
version re-pins the three manifests.
"""

import hashlib
from importlib import resources

import numpy as np
import pytest

from heartfade.cli import main

GOLDEN = {
    ("simulate", "paint1-baseline"): {
        "result.csv": "35c8c590d521c1f33b85df6aba50c4850e42087400348d1465a662ff6dd2a446",
        "summary.json": "9e28fc4ab00152da1940f06bfee33eb5424760fb65cb67392424d71ab3dced4e",
        "manifest.json": "3facc4c4e8bb79f8d22e915940b911a028176e2dc6d002fd80ff4e96c66fc6be",
    },
    ("simulate", "paint2-1pct"): {
        "result.csv": "616a66d12faa8626c1d4e309fc234e05c6d07907929c903af0401aca2fcd21d9",
        "summary.json": "c95833ffb20ab40553642a21c15f2892672519e2167fc4029d82187ff4366dea",
        "manifest.json": "2c840042a4d967bbb168d5598e315ed1d47b5e1c9090814f92ea528d7e04d4f4",
    },
    ("sweep", "paint1-5pct"): {
        "sweep.csv": "83b35bf9ec34b19edea95bd6fc3d0c406b417296985e4763165f82e6b962accf",
        "manifest.json": "f4fee584c40c9568793c510e432fef93b0cf8e0d230f24ad15b39123085ad478",
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


# rates.json of `rate` on the bundled table and windows
RATE_GOLDEN = "21c2a6b41c74b1e6c26ecb3e284aa018d68264ba93c92bd0b6ca4cf001b0d5a7"


def test_rate_output_matches_golden_digest(tmp_path):
    """`rate` on the bundled synthetic data, pinned when the fits moved to
    one closed-form least-squares pass over all hearts.

    That change moved the last digits of the printed slopes, intercepts and
    r2 against the former per-heart `np.polyfit` (slopes by at most 2.1e-17
    here). The digest keeps any later drift, of parsing, grouping or
    fitting, deliberate.
    """
    data = resources.files("heartfade").joinpath("data")
    argv = [
        "rate",
        str(data / "synthetic_observations.csv"),
        str(data / "synthetic_windows.json"),
        "--baseline-lab",
        "49.3,46.3,20.5",
        "--seed",
        "42",
        "--out",
        str(tmp_path),
    ]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "rates.json").read_bytes()).hexdigest()
    assert digest == RATE_GOLDEN


def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _bundled(name: str) -> str:
    return str(resources.files("heartfade").joinpath(f"data/{name}"))


# Output bytes that the command tail routes (stdout and files other than
# manifest.json, which holds input paths), pinned before that tail was
# shared by all commands. Keys: (command, --format, stdout or file name).
TAIL_GOLDEN = {
    ("calibrate", "csv", "stdout"): (
        "9d71a801c84e552eb57aeaced268e4da28ae2cf6b38cfc33cb77f98204421bc0"
    ),
    ("calibrate", "json", "stdout"): (
        "35d6b35e26f28fbe821d5067b6ad4f1d02b9eb7195c7e8310229b67f8632ab3c"
    ),
    ("calibrate", "csv", "calibrated.csv"): (
        "9d71a801c84e552eb57aeaced268e4da28ae2cf6b38cfc33cb77f98204421bc0"
    ),
    ("acceptability", "csv", "stdout"): (
        "4f0b36581b784c5b80529e384e76de71442cf60ad07f315c5763b51f7ec1da89"
    ),
    ("acceptability", "csv", "acceptability.json"): (
        "b630e9f5f9dc9e2916283cab292d1e1b92ef7bd2aaff1e11cd3de62deff647ff"
    ),
    ("rate", "csv", "stdout"): (
        "be1c45340784028c1689fd5b70cd2b6b222e2840450532d6ebe6686ebe156510"
    ),
}


def _calibrate_argv(tmp_path) -> list[str]:
    """`calibrate` on a deterministic 16x8 P6 image: a patterned board and
    two heart regions, one with an id that CSV must quote."""
    pixels = (np.arange(8 * 16 * 3, dtype=np.int64) * 37 % 251).astype(np.uint8)
    image = tmp_path / "wall.ppm"
    image.write_bytes(b"P6\n16 8\n255\n" + pixels.tobytes())
    return [
        "calibrate",
        str(image),
        "--board-region",
        "0,0,4,8",
        "--reference-lab",
        "16,0.5,-1",
        "--heart-region",
        "h1:4,0,6,4",
        "--heart-region",
        'h"2,b:8,2,8,6',
    ]


TAIL_ARGV = {
    "calibrate": _calibrate_argv,
    "acceptability": lambda tmp_path: [
        "acceptability",
        _bundled("acceptability_anchors.csv"),
        "--threshold",
        "0.3",
    ],
    "rate": lambda tmp_path: [
        "rate",
        _bundled("synthetic_observations.csv"),
        _bundled("synthetic_windows.json"),
        "--baseline-lab",
        "49.3,46.3,20.5",
    ],
}


@pytest.mark.parametrize("command,fmt,name", sorted(TAIL_GOLDEN))
def test_printed_and_written_outputs_match_golden_digests(
    tmp_path, capsys, command, fmt, name
):
    out = tmp_path / "out"
    argv = TAIL_ARGV[command](tmp_path) + ["--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    data = capsys.readouterr().out if name == "stdout" else (out / name).read_bytes()
    assert _digest(data) == TAIL_GOLDEN[(command, fmt, name)]
