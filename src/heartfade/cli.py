"""Command-line front end.

Subcommands: calibrate, rate, acceptability, simulate, sweep. Every run is
deterministic given its inputs and --seed. `_load` alone reads an input
file: it keeps the bytes and hands them to the format's loader, whose
ValueError becomes one line prefixed with the path. A subcommand only
computes and returns (printed, files, config); `main` prints, then writes
the files under --out with a manifest recording the sha256 digest of
every input and every file written, the resolved configuration and the
seed, as one set: a command that fails leaves the files already under
--out as they were. The manifest is moved in last, so one whose output
digests match the files beside it marks a complete set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .acceptability import (
    fit_acceptability,
    fit_objective,
    load_survey,
    predict_agreement,
    threshold_for_agreement,
)
from .color import LabColor, LabOffset, derive_calibration
from .ingest import (
    Region,
    RegionError,
    build_series,
    load_observations,
    mean_lab_of_region,
    parse_ppm,
)
from .rates import aggregate_rates, estimate_rates, load_windows
from .simulate import (
    ConfigError,
    SimConfig,
    Strategy,
    paint1_config,
    paint2_config,
    run_simulation,
    sweep_fractions,
)

EXIT_INPUT_ERROR = 2

# a preset is a (frozen, checked) config; --seed (and, for sweep,
# --horizon) replace its fields as they do a config file's
SIMULATE_PRESETS = {
    "paint1-baseline": paint1_config(),
    "paint2-1pct": replace(
        paint2_config(), strategy=Strategy.THRESHOLD_C, repaint_fraction_weekly=0.01
    ),
}

SWEEP_PRESETS = {
    # decision sweep over repaint fractions for the fast-fading paint,
    # summarised at --horizon's default, the 3-year horizon
    "paint1-5pct": replace(paint1_config(), replicates=50),
}
# the fractions a sweep preset runs when --fractions is not given
SWEEP_PRESET_FRACTIONS = {"paint1-5pct": [0.0, 0.01, 0.05, 0.1, 0.2]}


class CliError(Exception):
    """Bad input: `main` prints it, as it does a ConfigError, and exits 2."""


def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a digest, hex-encoded.

    Manifests use sha256_hex; bench/tracing.py still wraps this function.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def sha256_hex(data: bytes) -> str:
    """sha256 digest, hex-encoded: the manifest's digest of each input
    and output."""
    # imported here, not at the top: hashlib loads OpenSSL (+3.4 MiB RSS,
    # ~5 ms), which a command that writes no manifest skips
    import hashlib

    return hashlib.sha256(data).hexdigest()


class OutputSet:
    """Writes one command's files into a directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_bytes(text.encode())  # the UTF-8 bytes the manifest digests
        _fsync(path)
        return path


def _fsync(*paths: Path) -> None:
    """fsync each file or directory in `paths` through a descriptor of its own."""
    for p in paths:
        fd = os.open(p, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _emit(out_dir: Path, files: dict[str, str]) -> None:
    """Write `files` (name -> text) into `out_dir` as one set, in order.

    Every file is first written into a temporary directory inside
    `out_dir` (the same file system, so each move is a rename), then each
    is moved in with os.replace. A failure while writing leaves the files
    already in `out_dir` as they were; a failed move names its file under
    `out_dir`. The temporary directory is removed either way, and so is
    any left in `out_dir` by a command killed before it could remove its
    own. `main` puts manifest.json last, so it is moved in only once every
    file it digests is in place and on disk (fsync); `out_dir` is synced
    again after it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob(".heartfade-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staged = OutputSet(Path(tempfile.mkdtemp(prefix=".heartfade-", dir=out_dir)))
    try:
        for name, text in files.items():
            staged.write_text(name, text)
        *_, last = files
        for name in files:
            if name == last:  # what it vouches for reaches the disk first
                _fsync(staged.out_dir, out_dir)
            try:
                os.replace(staged.out_dir / name, out_dir / name)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(out_dir / name)) from None
        _fsync(out_dir)
    finally:
        shutil.rmtree(staged.out_dir, ignore_errors=True)


def _load(inputs: dict[str, bytes], path: str, parse):
    """`parse` of the bytes of the input file at `path`: the one read of an
    input file. The bytes are kept in `inputs` for the manifest; a
    ValueError `parse` raises becomes a CliError prefixed with the path."""
    p = Path(path)
    if not p.is_file():
        raise CliError(f"input file not found: {path}")
    inputs[path] = data = p.read_bytes()
    try:
        return parse(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


# each comma-separated option type: (field type, expected form, error name)
_TUPLES = {
    LabColor: (float, "L,a,b triple", "LAB triple"),
    Region: (int, "x,y,w,h region", "region"),
}


def _parse_tuple(text: str, cls: type):
    convert, form, name = _TUPLES[cls]
    parts = text.split(",")
    if len(parts) != form.count(",") + 1:
        raise CliError(f"expected {form}, got {text!r}")
    try:
        return cls(*map(convert, parts))
    except ValueError as exc:
        raise CliError(f"bad {name} {text!r}: {exc}") from None


def _csv_text(rows) -> str:
    """`rows` as CSV lines ending in \\n, fields quoted where they need it.

    Each row is written with the terminator \\r\\n, then cut to \\n: csv
    quotes a field holding one of the terminator's characters, and on
    Python 3.11 not one holding a bare \\r otherwise, which csv.reader then
    cannot read back.
    """
    # writerow returns what the file's write returns, here the row's text
    write_row = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    return "".join(write_row(row)[:-2] + "\n" for row in rows)


def _manifest(
    command: str, config: dict, inputs: dict[str, bytes], seed: int, files: dict
) -> str:
    doc = {
        "command": command,
        "config": config,
        "digest": "sha256",
        "inputs": {name: sha256_hex(data) for name, data in inputs.items()},
        "master_seed": seed,
        "outputs": {name: sha256_hex(text.encode()) for name, text in files.items()},
        "tool_version": __version__,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_calibrate(args, inputs: dict[str, bytes]) -> tuple:
    grid = _load(inputs, args.image, parse_ppm)
    board = _parse_tuple(args.board_region, Region)
    reference = _parse_tuple(args.reference_lab, LabColor)

    try:
        observed = mean_lab_of_region(grid, board, LabOffset(0, 0, 0))
        offset = derive_calibration(observed, reference)
        rows = [["region_id", "L", "a", "b"]]
        records = []
        for spec in args.heart_region:
            region_id, _, coords = spec.partition(":")
            if not coords:
                raise CliError(f"expected ID:x,y,w,h heart region, got {spec!r}")
            lab = mean_lab_of_region(grid, _parse_tuple(coords, Region), offset)
            # round(v, 4) is the float that f"{v:.4f}" prints, and prints alike
            L, a, b = (round(v, 4) for v in (lab.L, lab.a, lab.b))
            rows.append([region_id, f"{L:.4f}", f"{a:.4f}", f"{b:.4f}"])
            records.append({"region_id": region_id, "L": L, "a": a, "b": b})
    except RegionError as exc:
        raise CliError(str(exc)) from None

    printed = csv_text = _csv_text(rows)
    if args.format == "json":
        printed = json.dumps(records, indent=2) + "\n"
    config = {
        "board_region": args.board_region,
        "reference_lab": args.reference_lab,
        "heart_regions": args.heart_region,
        "offset": [offset.dL, offset.da, offset.db],
    }
    return printed, {"calibrated.csv": csv_text}, config


def cmd_rate(args, inputs: dict[str, bytes]) -> tuple:
    baseline = _parse_tuple(args.baseline_lab, LabColor)

    def series(data: bytes) -> tuple:
        cols = load_observations(data)
        return cols.heart_ids, *build_series(cols, baseline)

    heart_ids, heart, day, delta_e = _load(inputs, args.observations, series)
    windows = _load(inputs, args.windows, load_windows)
    fits, excluded = estimate_rates(heart_ids, heart, day, delta_e, windows)
    if not fits:
        raise CliError("no fittable hearts")

    agg = aggregate_rates(list(fits.values()))
    doc = {
        "hearts": {
            heart: {
                "slope_delta_e_per_day": f.slope,
                "intercept": f.intercept,
                "r2": f.r2,
                "n_points": f.n,
            }
            for heart, f in fits.items()
        },
        "aggregate": {
            "mean_k_delta_e_per_day": agg.mean_k,
            "sd_k_delta_e_per_day": agg.sd_k,
            # undefined (NaN) where mean_k <= 0: null, as JSON has no NaN
            "rel_err": agg.rel_err if math.isfinite(agg.rel_err) else None,
            "n_hearts": agg.n_hearts,
        },
        "excluded": [{"heart_id": h, "reason": r} for h, r in excluded.items()],
    }
    text = printed = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        rows = [["heart_id", "slope_delta_e_per_day", "intercept", "r2", "n_points"]]
        for heart, f in fits.items():
            rows.append([heart, repr(f.slope), repr(f.intercept), repr(f.r2), f.n])
        printed = _csv_text(rows)
    return printed, {"rates.json": text}, {"baseline_lab": args.baseline_lab}


def cmd_acceptability(args, inputs: dict[str, bytes]) -> tuple:
    def fitted(data: bytes) -> tuple:
        points = load_survey(data)
        return points, fit_acceptability(points)

    points, curve = _load(inputs, args.survey, fitted)

    fracs = args.threshold if args.threshold else [0.2, 0.5]
    try:
        thresholds = {str(frac): threshold_for_agreement(curve, frac) for frac in fracs}
    except ValueError as exc:
        raise CliError(f"--threshold: {exc}") from None
    doc = {
        "midpoint_m": curve.m,
        "scale_s": curve.s,
        "objective": fit_objective(curve, points),
        "agreement_at_delta_e_30": predict_agreement(curve, 30.0),
        "thresholds": thresholds,
    }
    text = printed = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        rows = [["key", "value"]] + [
            [k, v] for k, v in doc.items() if not isinstance(v, dict)
        ]
        rows += [[f"threshold_{k}", v] for k, v in thresholds.items()]
        printed = _csv_text(rows)
    return printed, {"acceptability.json": text}, {"thresholds": fracs}


def _load_sim_config(args, inputs: dict, presets: dict, **fields) -> SimConfig:
    """The run's config: --preset or a JSON config file (read into
    `inputs`) supplies the fields; `fields` and --seed (as master_seed)
    replace them, and only the config so built is checked.
    """
    fields["master_seed"] = args.seed
    if args.preset:
        if args.config:
            raise CliError("give either a config file or --preset, not both")
        return replace(presets[args.preset], **fields)
    if not args.config:
        raise CliError("a config file or --preset is required")
    return _load(inputs, args.config, lambda data: SimConfig.from_json(data, **fields))


def cmd_simulate(args, inputs: dict[str, bytes]) -> tuple:
    cfg = _load_sim_config(args, inputs, SIMULATE_PRESETS)
    result = run_simulation(cfg)
    files = {
        "result.csv": _csv_text(result.csv_rows()),
        "summary.json": json.dumps(result.summary(), indent=2, sort_keys=True) + "\n",
    }
    return "", files, cfg.to_dict()


def cmd_sweep(args, inputs: dict[str, bytes]) -> tuple:
    cfg = _load_sim_config(args, inputs, SWEEP_PRESETS, horizon_days=args.horizon)
    fractions = args.fractions
    if fractions is None:
        fractions = SWEEP_PRESET_FRACTIONS.get(args.preset)
    if not fractions:
        raise CliError("no sweep fractions given (use --fractions)")
    header = "repaint_fraction_weekly,strategy,frac_needing_repaint,total_repaints"
    table = [header.split(",")]
    for row in sweep_fractions(cfg, fractions):
        frac = f"{row.frac_needing_repaint_at_horizon:.6f}"
        repaints = f"{row.total_repaints_at_horizon:.4f}"
        table.append([row.repaint_fraction_weekly, row.strategy.value, frac, repaints])
    config = {**cfg.to_dict(), "fractions": list(fractions)}
    return "", {"sweep.csv": _csv_text(table)}, config


def _fraction_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fraction list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    # calibrate, rate and acceptability print their results in --format and
    # write files only given --out; simulate and sweep always write them
    printing = argparse.ArgumentParser(add_help=False, parents=[common])
    printing.add_argument("--format", choices=["csv", "json"], help="stdout format")
    printing.add_argument(
        "--out", help="write the files and manifest.json here (default: print only)"
    )
    writing = argparse.ArgumentParser(add_help=False, parents=[common])
    writing.add_argument(
        "--out", default=".", help="write the files and manifest.json here (default: .)"
    )

    parser = argparse.ArgumentParser(
        prog="heartfade",
        description="Fading-rate estimation and repainting-strategy simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate", parents=[printing], help="calibrated region means from a PPM image"
    )
    p.add_argument("image", help="PPM image (P3 or P6, maxval 255)")
    p.add_argument("--board-region", required=True, metavar="X,Y,W,H")
    p.add_argument("--reference-lab", required=True, metavar="L,A,B")
    p.add_argument(
        "--heart-region",
        action="append",
        required=True,
        metavar="ID:X,Y,W,H",
        help="repeatable",
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "rate", parents=[printing], help="per-heart fading rates and the aggregate"
    )
    p.add_argument("observations", help="CSV: heart_id,date,L,a,b,source")
    p.add_argument("windows", help="JSON: heart_id -> {start_day, end_day}")
    p.add_argument("--baseline-lab", required=True, metavar="L,A,B")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser(
        "acceptability", parents=[printing], help="fit the repaint-agreement curve"
    )
    p.add_argument("survey", help="CSV: delta_e,frac_agree,n_respondents")
    p.add_argument(
        "--threshold",
        type=float,
        action="append",
        default=None,
        help="agreement fractions to invert (repeatable; default 0.2 and 0.5)",
    )
    p.set_defaults(func=cmd_acceptability)

    p = sub.add_parser("simulate", parents=[writing], help="run one simulation")
    p.add_argument("config", nargs="?", help="JSON config mirroring SimConfig")
    p.add_argument("--preset", choices=sorted(SIMULATE_PRESETS), default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[writing], help="fraction-by-strategy decision sweep"
    )
    p.add_argument("config", nargs="?", help="JSON base config")
    p.add_argument("--preset", choices=sorted(SWEEP_PRESETS), default=None)
    p.add_argument("--fractions", type=_fraction_list, default=None)
    p.add_argument("--horizon", type=int, default=1095)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: write its files and manifest.json into any --out
    as one set, then print what it returns. Bad input, or an --out that
    cannot take the files, prints one line instead, with exit code 2."""
    args = build_parser().parse_args(argv)
    inputs: dict[str, bytes] = {}  # path -> bytes, filled by _load
    try:
        printed, files, config = args.func(args, inputs)
        if args.out is not None:
            manifest = _manifest(args.command, config, inputs, args.seed, files)
            files["manifest.json"] = manifest  # last: moved in after the files
            _emit(Path(args.out), files)
    except (CliError, ConfigError, OSError) as exc:
        print(f"heartfade {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(printed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
