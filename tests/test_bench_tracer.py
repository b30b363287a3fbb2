"""The benchmark's tracer (bench/tracing.py) still fits the package.

The tracer wraps heartfade functions by name and reads their results (the
row count of `load_observations` is `len()` of what it returns). Each test
runs one heartfade command with the tracer installed, in a subprocess so
that the wrapping does not leak into other tests, and checks that the
stages it knows are reached through those names: the `rate` stages, the
simulation steps, and every file written under --out.
"""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys

sys.path[:0] = sys.argv[1:3]
import heartfade.cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = heartfade.cli.main(json.loads(sys.argv[3]))
print(json.dumps({"rc": rc, "metrics": tracer.metrics()}))
"""


def traced(argv: list[str]) -> dict:
    """The tracer's metrics for `heartfade ARGV`, which must exit 0."""
    proc = subprocess.run(
        [
            sys.executable,
            "-B",
            "-c",
            SCRIPT,
            str(ROOT / "src"),
            str(ROOT / "bench"),
            json.dumps(argv),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    return result["metrics"]


def test_tracer_wraps_the_rate_stages():
    data = resources.files("heartfade") / "data"
    metrics = traced(
        [
            "rate",
            str(data / "synthetic_observations.csv"),
            str(data / "synthetic_windows.json"),
            "--baseline-lab",
            "49.3,46.3,20.5",
        ]
    )
    assert metrics["ingest.load_observations.rows"] == 57
    assert metrics["ingest.build_series.calls"] == 1


def test_tracer_wraps_the_simulation_and_its_writes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "k_mean": 0.041,
                "k_sd": 0.0052,
                "n_agents": 20,
                "horizon_days": 30,
                "replicates": 3,
                "strategy": "random_a",
                "repaint_fraction_weekly": 0.1,
            }
        )
    )
    out = tmp_path / "out"
    metrics = traced(["simulate", str(config), "--out", str(out)])
    written = sorted(p.name for p in out.iterdir())
    assert written == ["manifest.json", "result.csv", "summary.json"]
    assert metrics["cli.OutputSet.write_text.calls"] == len(written)
    assert metrics["simulate.init_population.calls"] == 3
    assert metrics["simulate.advance_day.calls"] == 5  # 4 weeks and 2 days
    assert metrics["simulate.repaint_event.calls"] == 4


def test_tracer_wraps_the_calibrate_writes(tmp_path):
    image = tmp_path / "wall.ppm"
    image.write_bytes(b"P6\n2 1\n255\n" + bytes([30, 30, 32, 194, 80, 85]))
    out = tmp_path / "out"
    argv = ["calibrate", str(image), "--board-region", "0,0,1,1"]
    argv += ["--reference-lab", "16,0,0", "--heart-region", "h1:1,0,1,1"]
    metrics = traced(argv + ["--out", str(out)])
    written = sorted(p.name for p in out.iterdir())
    assert written == ["calibrated.csv", "manifest.json"]
    assert metrics["cli.OutputSet.write_text.calls"] == len(written)
    assert metrics["ingest.parse_ppm.p6.calls"] == 1
