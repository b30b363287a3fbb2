"""Command-line front end.

Subcommands: calibrate, rate, acceptability, simulate, sweep. Every run is
deterministic given its inputs and --seed; runs that write files also emit
a manifest recording the sha256 digest of every input, the resolved
configuration and the seed. On failure, partially written outputs are removed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .acceptability import (
    FitError,
    fit_acceptability,
    fit_objective,
    load_survey,
    predict_agreement,
    threshold_for_agreement,
)
from .color import LabColor, LabOffset, derive_calibration
from .ingest import (
    ObservationError,
    PpmError,
    Region,
    RegionError,
    build_series,
    load_observations,
    mean_lab_of_region,
    parse_ppm,
)
from .rates import InsufficientDataError, Window, aggregate_rates, estimate_heart_rate
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

SIMULATE_PRESETS = {
    "paint1-baseline": {"config": lambda: paint1_config()},
    "paint2-1pct": {
        "config": lambda: replace(
            paint2_config(), strategy=Strategy.THRESHOLD_C, repaint_fraction_weekly=0.01
        )
    },
}

SWEEP_PRESETS = {
    # decision sweep over repaint fractions for the fast-fading paint,
    # summarised at the 3-year horizon
    "paint1-5pct": {
        "config": lambda: replace(paint1_config(), replicates=50),
        "fractions": [0.0, 0.01, 0.05, 0.1, 0.2],
        "horizon": 1095,
    },
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT_ERROR):
        super().__init__(message)
        self.code = code


def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a digest, hex-encoded.

    Manifests use sha256_hex; bench/tracing.py still wraps this function.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def sha256_hex(data: bytes) -> str:
    """sha256 digest, hex-encoded: the manifest's digest of each input."""
    # imported here, not at the top: hashlib loads OpenSSL (+3.4 MiB RSS,
    # ~5 ms), which commands with no input file, such as the presets, skip
    import hashlib

    return hashlib.sha256(data).hexdigest()


class OutputSet:
    """Tracks files written by one command so failures leave nothing behind."""

    def __init__(self, out_dir: Path | None):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        assert self.out_dir is not None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_text(text)
        self.paths.append(path)
        return path

    def discard(self):
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _read_bytes(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"input file not found: {path}")
    return p.read_bytes()


def _parse_lab(text: str) -> LabColor:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"expected L,a,b triple, got {text!r}")
    try:
        return LabColor(*(float(v) for v in parts))
    except ValueError as exc:
        raise CliError(f"bad LAB triple {text!r}: {exc}") from None


def _parse_region(text: str) -> Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"expected x,y,w,h region, got {text!r}")
    try:
        return Region(*(int(v) for v in parts))
    except ValueError as exc:
        raise CliError(f"bad region {text!r}: {exc}") from None


def _manifest(
    command: str, config: dict, inputs: dict[str, bytes], seed: int
) -> str:
    doc = {
        "command": command,
        "config": config,
        "digest": "sha256",
        "inputs": {name: sha256_hex(data) for name, data in inputs.items()},
        "master_seed": seed,
        "tool_version": __version__,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_calibrate(args) -> int:
    image_bytes = _read_bytes(args.image)
    try:
        grid = parse_ppm(image_bytes)
    except PpmError as exc:
        raise CliError(f"{args.image}: {exc}") from None
    board = _parse_region(args.board_region)
    reference = _parse_lab(args.reference_lab)

    try:
        observed = mean_lab_of_region(grid, board, LabOffset(0, 0, 0))
        offset = derive_calibration(observed, reference)
        lines = ["region_id,L,a,b"]
        for spec in args.heart_region:
            region_id, _, coords = spec.partition(":")
            if not coords:
                raise CliError(f"expected ID:x,y,w,h heart region, got {spec!r}")
            lab = mean_lab_of_region(grid, _parse_region(coords), offset)
            lines.append(f"{region_id},{lab.L:.4f},{lab.a:.4f},{lab.b:.4f}")
    except RegionError as exc:
        raise CliError(str(exc)) from None

    csv_text = "\n".join(lines) + "\n"
    if args.format == "json":
        records = []
        for line in lines[1:]:
            region_id, L, a, b = line.split(",")
            records.append(
                {"region_id": region_id, "L": float(L), "a": float(a), "b": float(b)}
            )
        sys.stdout.write(json.dumps(records, indent=2) + "\n")
    else:
        sys.stdout.write(csv_text)
    if args.out:
        outputs = OutputSet(Path(args.out))
        try:
            outputs.write_text("calibrated.csv", csv_text)
            outputs.write_text(
                "manifest.json",
                _manifest(
                    "calibrate",
                    {
                        "board_region": args.board_region,
                        "reference_lab": args.reference_lab,
                        "heart_regions": args.heart_region,
                        "offset": [offset.dL, offset.da, offset.db],
                    },
                    {args.image: image_bytes},
                    args.seed,
                ),
            )
        except Exception:
            outputs.discard()
            raise
    return 0


def cmd_rate(args) -> int:
    obs_bytes = _read_bytes(args.observations)
    windows_bytes = _read_bytes(args.windows)
    baseline = _parse_lab(args.baseline_lab)
    try:
        observations = load_observations(obs_bytes)
    except (ObservationError, csv.Error) as exc:
        raise CliError(f"{args.observations}: {exc}") from None
    try:
        windows_doc = json.loads(windows_bytes)
        if not isinstance(windows_doc, dict):
            raise TypeError("expected an object of heart_id: window")
        windows = {
            heart: Window(int(w["start_day"]), int(w["end_day"]))
            for heart, w in windows_doc.items()
        }
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # OverflowError is int() of an infinite day such as 1e400
        raise CliError(f"{args.windows}: invalid windows document: {exc}") from None

    try:
        series = build_series(observations, baseline)
    except ObservationError as exc:
        raise CliError(f"{args.observations}: {exc}") from None
    fits = {}
    excluded = []
    for s in series:
        if s.heart_id not in windows:
            excluded.append({"heart_id": s.heart_id, "reason": "no window supplied"})
            continue
        try:
            fits[s.heart_id] = estimate_heart_rate(s, windows[s.heart_id])
        except InsufficientDataError as exc:
            excluded.append({"heart_id": s.heart_id, "reason": str(exc)})
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
            "rel_err": agg.rel_err,
            "n_hearts": agg.n_hearts,
        },
        "excluded": excluded,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        lines = ["heart_id,slope_delta_e_per_day,intercept,r2,n_points"]
        for heart, f in fits.items():
            lines.append(f"{heart},{f.slope!r},{f.intercept!r},{f.r2!r},{f.n}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(text)
    if args.out:
        outputs = OutputSet(Path(args.out))
        try:
            outputs.write_text("rates.json", text)
            outputs.write_text(
                "manifest.json",
                _manifest(
                    "rate",
                    {"baseline_lab": args.baseline_lab},
                    {args.observations: obs_bytes, args.windows: windows_bytes},
                    args.seed,
                ),
            )
        except Exception:
            outputs.discard()
            raise
    return 0


def cmd_acceptability(args) -> int:
    survey_bytes = _read_bytes(args.survey)
    try:
        points = load_survey(survey_bytes)
        curve = fit_acceptability(points)
    except FitError as exc:
        raise CliError(f"{args.survey}: {exc}") from None

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
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        lines = ["key,value"] + [
            f"{k},{v}" for k, v in doc.items() if not isinstance(v, dict)
        ]
        lines += [f"threshold_{k},{v}" for k, v in thresholds.items()]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(text)
    if args.out:
        outputs = OutputSet(Path(args.out))
        try:
            outputs.write_text("acceptability.json", text)
            outputs.write_text(
                "manifest.json",
                _manifest(
                    "acceptability",
                    {"thresholds": fracs},
                    {args.survey: survey_bytes},
                    args.seed,
                ),
            )
        except Exception:
            outputs.discard()
            raise
    return 0


def _load_sim_config(args, presets: dict) -> tuple[SimConfig, dict[str, bytes], dict]:
    """The base config from --preset or a JSON config file, the inputs to
    digest, and the preset's entry ({} for a config file)."""
    if args.preset:
        if args.config:
            raise CliError("give either a config file or --preset, not both")
        if args.preset not in presets:
            raise CliError(
                f"unknown preset {args.preset!r}; "
                f"available: {', '.join(sorted(presets))}"
            )
        preset = presets[args.preset]
        return preset["config"](), {}, preset
    if not args.config:
        raise CliError("a config file or --preset is required")
    raw = _read_bytes(args.config)
    try:
        return SimConfig.from_json(raw), {args.config: raw}, {}
    except ConfigError as exc:
        raise CliError(f"{args.config}: {exc}") from None


def cmd_simulate(args) -> int:
    cfg, inputs, _ = _load_sim_config(args, SIMULATE_PRESETS)
    cfg = replace(cfg, master_seed=args.seed)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise CliError(str(exc)) from None
    result = run_simulation(cfg, workers=args.workers)

    outputs = OutputSet(Path(args.out or "."))
    try:
        outputs.write_text("result.csv", "\n".join(result.csv_rows()) + "\n")
        outputs.write_text(
            "summary.json",
            json.dumps(result.summary(), indent=2, sort_keys=True) + "\n",
        )
        outputs.write_text(
            "manifest.json", _manifest("simulate", cfg.to_dict(), inputs, args.seed)
        )
    except Exception:
        outputs.discard()
        raise
    return 0


def cmd_sweep(args) -> int:
    cfg, inputs, preset = _load_sim_config(args, SWEEP_PRESETS)
    fractions = preset.get("fractions", args.fractions)
    horizon = preset.get("horizon", args.horizon)
    if not fractions:
        raise CliError("no sweep fractions given (use --fractions)")
    cfg = replace(cfg, master_seed=args.seed)

    try:
        rows = sweep_fractions(cfg, fractions, horizon_days=horizon, workers=args.workers)
    except ConfigError as exc:
        raise CliError(str(exc)) from None

    lines = ["repaint_fraction_weekly,strategy,frac_needing_repaint,total_repaints"]
    for row in rows:
        lines.append(
            f"{row.repaint_fraction_weekly},{row.strategy.value},"
            f"{row.frac_needing_repaint_at_horizon:.6f},"
            f"{row.total_repaints_at_horizon:.4f}"
        )
    csv_text = "\n".join(lines) + "\n"

    outputs = OutputSet(Path(args.out or "."))
    try:
        outputs.write_text("sweep.csv", csv_text)
        outputs.write_text(
            "manifest.json",
            _manifest(
                "sweep",
                {
                    **cfg.to_dict(),
                    "fractions": list(fractions),
                    "horizon_days": horizon,
                },
                inputs,
                args.seed,
            ),
        )
    except Exception:
        outputs.discard()
        raise
    return 0


def _fraction_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fraction list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    common.add_argument(
        "--out",
        default=None,
        help="output directory (simulate and sweep default to the current one)",
    )
    common.add_argument(
        "--format", choices=["csv", "json"], default=None, help="stdout format"
    )

    parser = argparse.ArgumentParser(
        prog="heartfade",
        description="Fading-rate estimation and repainting-strategy simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate", parents=[common], help="calibrated region means from a PPM image"
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
        "rate", parents=[common], help="per-heart fading rates and the aggregate"
    )
    p.add_argument("observations", help="CSV: heart_id,date,L,a,b,source")
    p.add_argument("windows", help="JSON: heart_id -> {start_day, end_day}")
    p.add_argument("--baseline-lab", required=True, metavar="L,A,B")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser(
        "acceptability", parents=[common], help="fit the repaint-agreement curve"
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

    p = sub.add_parser("simulate", parents=[common], help="run one simulation")
    p.add_argument("config", nargs="?", help="JSON config mirroring SimConfig")
    p.add_argument("--preset", choices=sorted(SIMULATE_PRESETS), default=None)
    p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[common], help="fraction-by-strategy decision sweep"
    )
    p.add_argument("config", nargs="?", help="JSON base config")
    p.add_argument("--preset", choices=sorted(SWEEP_PRESETS), default=None)
    p.add_argument("--fractions", type=_fraction_list, default=None)
    p.add_argument("--horizon", type=int, default=1095)
    p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"heartfade {args.command}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
