"""The benchmark's tracer (bench/tracing.py) still fits the package.

The tracer wraps heartfade functions by name and reads their results (the
row count of `load_observations` is `len()` of what it returns). This runs
`heartfade rate` on the bundled data with the tracer installed, in a
subprocess so that the wrapping does not leak into other tests, and checks
that the `rate` stages it knows are reached through those names.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
from importlib import resources

sys.path[:0] = sys.argv[1:3]
import heartfade.cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
data = resources.files("heartfade") / "data"
argv = [
    "rate",
    str(data / "synthetic_observations.csv"),
    str(data / "synthetic_windows.json"),
    "--baseline-lab",
    "49.3,46.3,20.5",
]
with contextlib.redirect_stdout(io.StringIO()):
    rc = heartfade.cli.main(argv)
print(json.dumps({"rc": rc, "metrics": tracer.metrics()}))
"""


def test_tracer_wraps_the_rate_stages():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    metrics = result["metrics"]
    assert metrics["ingest.load_observations.rows"] == 57
    assert metrics["ingest.build_series.calls"] == 1
