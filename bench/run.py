"""heartfade benchmark: end-to-end and per-layer figures for the CLI.

Run one workload:

    python3 bench/run.py --workload sim-long --seed 1 --seconds 30 --trace 0

Compare two sets of recorded runs (see --record):

    python3 bench/run.py --compare base.jsonl new.jsonl

A run measures set-up time in fresh interpreters, generates the workload's
inputs from --seed in a temporary directory under .bench_work/, then runs
passes of the workload's commands for about --seconds seconds. Each pass is
a fresh child process (bench/child.py) that calls heartfade.cli.main once
per command, one command after the other: a closed loop with one client,
default --workers, BLAS pinned to one thread. Outputs are checked after
each pass, outside the timed span. With --trace 1, every second pass runs
with heartfade's public functions wrapped (bench/tracing.py) and the run
reports per-layer figures instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed
(commands run, and those that exited non-zero or failed a check) and the
metrics named in BENCHMARK.json. The lines before it are the readable
report. The run fails, printing no result, if heartfade cannot be imported
from src/ or if it changed any file of the checkout (hidden top-level
entries such as .bench_work/ aside).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import heartfade.cli\n"
    "heartfade.cli.build_parser()\n"
    "print(time.monotonic())\n"
    "print(heartfade.cli.__file__)\n"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file of the checkout, leaving out hidden
    top-level entries (.git, .bench_work, build directories)."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if Path(dirpath) == root:
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            filenames = [f for f in filenames if not f.startswith(".")]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.lstat()
            files[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return files


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    # bytecode is cached, as for an installed package, but under the run's
    # directory so nothing is written into the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(work: Path, env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until heartfade.cli is
    imported and its parser built."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"cannot import heartfade.cli from {SRC}: {last}")
    ready, module_file = proc.stdout.splitlines()[:2]
    if SRC not in Path(module_file).resolve().parents:
        raise BenchError(f"heartfade.cli imported from {module_file}, not {SRC}")
    return float(ready) - start


def tree_digest(path: Path, extra: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    h.update(b"stdout\0" + extra.read_bytes())
    return h.hexdigest()


def out_dir_of(argv: list[str]) -> str:
    return next(a.split("=", 1)[1] for a in argv if a.startswith("--out="))


def run_pass(workload, work: Path, env, k: int, traced: bool) -> dict:
    out = f"out/p{k}"
    commands = workload.commands(out)
    spec = {
        "src": str(SRC),
        "cwd": str(work),
        "commands": commands,
        "trace": traced,
        "stdout_files": [str(work / out / f"stdout-{i}.txt") for i in range(len(commands))],
        "result": str(work / f"result-{k}.json"),
    }
    spec_path = work / f"spec-{k}.json"
    spec_path.write_text(json.dumps(spec))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass {k} did not complete:\n{proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    result["elapsed_s"] = time.monotonic() - start
    result["traced"] = traced

    errors = workload.check(out)
    result["digests"] = []
    for i, argv in enumerate(commands):
        code = result["exit_codes"][i]
        if code != 0:
            errors[i].insert(0, f"exit code {code}: {result['stderr'][i].strip()[-300:]}")
        result["digests"].append(
            tree_digest(work / out_dir_of(argv), Path(spec["stdout_files"][i]))
            if (work / out_dir_of(argv)).is_dir()
            else None
        )
    result["errors"] = errors
    if not any(errors):
        result["work"] = workload.work_done(out)
    shutil.rmtree(work / out)
    return result


def run_passes(workload, work: Path, env, seconds: float, trace: bool):
    """A warm-up pass, which fills caches and is checked but not timed,
    then at least two timed passes (with --trace 1, untraced and traced in
    turn), then further passes while the next one is expected to end
    within `seconds` of the start. Set-up probes run before each timed
    pass, so that they sample the machine over the whole run.

    Returns (timed passes, all passes, set-up times)."""
    start = time.monotonic()
    passes = [run_pass(workload, work, env, 0, False)]
    setup = []
    while True:
        setup += [probe_setup(work, env) for _ in range(SETUP_PROBES_PER_PASS)]
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, work, env, len(passes), traced))
        if len(passes) < 3:
            continue
        next_traced = trace and len(passes) % 2 == 0
        expected = statistics.median(
            p["elapsed_s"] for p in passes[1:] if p["traced"] == next_traced
        )
        if time.monotonic() - start + expected > seconds:
            return passes[1:], passes, setup


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu0_cache": caches,
    }


def summarise(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def evaluate(args, spec, passes, setup) -> tuple[dict, dict]:
    """(metrics reported on the result line, extra figures for the report)."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wall = [p["wall_s"] for p in plain]
    figures = {
        "wall_s": summarise(wall),
        "setup_s": summarise(setup),
        "peak_rss_mib": summarise([p["peak_rss_mib"] for p in plain]),
    }
    work = next((p["work"] for p in passes if "work" in p), {})
    for amount, name, unit in (
        ("agent_days", "agent_days_per_s", "1/s"),
        ("input_mb", "input_mb_per_s", "MB/s"),
    ):
        if amount in work:
            figures[name] = summarise([work[amount] / w for w in wall])
            units[name] = unit
    if traced:
        layers = [dict(p["layers"]) for p in traced]
        for p, layer in zip(traced, layers):
            layer["trace.overhead_s"] = p["wall_s"] - figures["wall_s"]["value"]
        for m in spec["per_layer"]:
            figures[m["name"]] = summarise([layer.get(m["name"], 0.0) for layer in layers])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": figures[m["name"]]["value"], "unit": m["unit"]} for m in wanted
    }
    return metrics, {name: dict(f, unit=units[name]) for name, f in figures.items()}


def report(args, spec, workload, passes, figures, attempted, failed, env_info):
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    plain = sum(not p["traced"] for p in passes[1:])
    print(f"workload {args.workload} (seed {args.seed}): {why}")
    print(
        f"machine: nproc={env_info['nproc']} python={env_info['python']} "
        f"numpy={env_info['numpy']} cache={env_info['cpu0_cache']}"
    )
    for name, value in workload.sizes().items():
        print(f"input {name} = {value:g}")
    print(
        f"passes: 1 warm-up, {plain} untraced, {len(passes) - 1 - plain} traced; "
        f"{len(passes[0]['exit_codes'])} commands per pass, one client, closed loop"
    )
    for name, f in figures.items():
        print(
            f"{name:42s} {f['value']:14.6g} {f['unit']:6s} "
            f"(median of {len(f['samples'])}, q1 {f['q1']:.6g}, q3 {f['q3']:.6g})"
        )
    print(f"failed_frac {failed / attempted:g} ({failed} of {attempted} commands attempted)")
    for p in passes:
        for i, errors in enumerate(p["errors"]):
            for e in errors:
                print(f"FAILED command {i}: {e}")
    if args.trace:
        layer_s = {n: f["value"] for n, f in figures.items() if n.startswith("layer.")}
        top = max(layer_s, key=layer_s.get)
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        print(
            f"largest self time: {top.split('.')[1]} ({layer_s[top]:.4g} s of "
            f"{traced_wall:.4g} s traced); tracing overhead "
            f"{figures['trace.overhead_s']['value']:.4g} s over "
            f"{figures['wall_s']['value']:.4g} s untraced"
        )
        return top.split(".")[1]
    return None


def run(args, spec) -> int:
    before = snapshot(ROOT)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        env = child_env(work)
        probe_setup(work, env)  # fills the bytecode cache; not counted
        workload = WORKLOADS[args.workload](args.seed, work)
        timed, passes, setup = run_passes(workload, work, env, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    changed = sorted(set(before.items()) ^ set(snapshot(ROOT).items()))
    if changed:
        raise BenchError(f"the run changed the checkout: {sorted({c[0] for c in changed})}")

    # outputs of every pass must match the first pass byte for byte
    first = passes[0]["digests"]
    for p in passes[1:]:
        for i, digest in enumerate(p["digests"]):
            if digest != first[i] and not p["errors"][i]:
                p["errors"][i].append("outputs differ from the first pass with the same seed")
    attempted = sum(len(p["errors"]) for p in passes)
    failed = sum(1 for p in passes for e in p["errors"] if e)

    metrics, figures = evaluate(args, spec, timed, setup)
    env_info = dict(machine(), numpy=passes[0]["numpy"])
    top = report(args, spec, workload, passes, figures, attempted, failed, env_info)
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "machine": env_info,
            "inputs": workload.sizes(),
            "attempted": attempted,
            "failed": failed,
            "figures": figures,
            "largest_self_time_layer": top,
            "spans": next((p["spans"] for p in reversed(passes) if p["traced"]), []),
        }
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _load_records(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else None


def compare(base_path: str, new_path: str, spec) -> int:
    """Median of the new runs against the median of the base runs, per
    workload and metric. A metric worse by more than its bound is
    REGRESSED; one whose base runs spread wider than the bound is
    unresolved unless every new run beats every base run."""
    base, new = _load_records(base_path), _load_records(new_path)
    regressed = False
    print(f"{'workload':15s} {'metric':42s} {'base':>12s} {'new':>12s} {'change':>8s}  status")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            name = m["name"]
            b = [r["figures"][name] for r in base.get(w, []) if name in r["figures"]]
            n = [r["figures"][name] for r in new.get(w, []) if name in r["figures"]]
            if not b or not n:
                continue
            b_values = [f["value"] for f in b]
            n_values = [f["value"] for f in n]
            b_med, n_med = statistics.median(b_values), statistics.median(n_values)
            sign = 1 if m["better"] == "lower" else -1
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            status = ""
            if "bound" in m:
                # one base run: fall back on the spread of its own samples
                spread = _spread(b_values if len(b) > 1 else b[0]["samples"])
                all_better = all(sign * (x - y) < 0 for x in n_values for y in b_values)
                if sign * change > m["bound"]:
                    status = "REGRESSED"
                    regressed = True
                elif (spread is None or spread > m["bound"]) and not all_better:
                    status = "unresolved"
                else:
                    status = "ok"
            print(f"{w:15s} {name:42s} {b_med:12.6g} {n_med:12.6g} {change:+8.1%}  {status}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="append this run's figures to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.compare:
            return compare(*args.compare, spec)
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return run(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
