"""Run one pass of a workload in this fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the heartfade source directory, the working directory, the
CLI commands (argv lists), where to write each command's stdout, whether
to trace, and where to write the result. The commands run one after the
other through `heartfade.cli.main`, in-process; `wall_s` covers exactly
that loop. Importing heartfade and installing the tracer happen before it,
writing the captured stdout and the result after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy

    import heartfade.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"heartfade imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    os.chdir(spec["cwd"])
    captured = []
    start = time.perf_counter()
    for i, argv in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        captured.append((code, out.getvalue(), err.getvalue()))
    wall_s = time.perf_counter() - start

    for path, (_, stdout, _) in zip(spec["stdout_files"], captured):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(stdout)
    result = {
        "wall_s": wall_s,
        "exit_codes": [c[0] for c in captured],
        "stderr": [c[2][-2000:] for c in captured],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
