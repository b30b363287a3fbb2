"""The benchmark's workloads: their CLI commands, seeded inputs and output
checks.

Every workload is a list of heartfade CLI commands run one after the other
by a single client. Inputs are generated from the workload seed, and the
checks compare outputs with what the generator put in, so they do not
depend on how heartfade computes its results (nor on which digest its
manifest uses).
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import re
from pathlib import Path

import numpy as np

_HEX_DIGEST = re.compile(r"^[0-9a-f]{8,}$")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _check_manifest(path: Path, command: str, inputs: list[str], seed: int) -> list[str]:
    doc = json.loads(path.read_text())
    errors = []
    if doc.get("command") != command:
        errors.append(f"manifest command {doc.get('command')!r}, expected {command!r}")
    if doc.get("master_seed") != seed:
        errors.append(f"manifest seed {doc.get('master_seed')!r}, expected {seed}")
    digests = doc.get("inputs")
    if not isinstance(digests, dict) or sorted(digests) != sorted(inputs):
        errors.append(f"manifest inputs {digests!r}, expected entries for {inputs}")
    else:
        errors += [
            f"manifest digest of {name} is not hex: {value!r}"
            for name, value in digests.items()
            if not (isinstance(value, str) and _HEX_DIGEST.match(value))
        ]
    return errors


def _recorded_days(horizon: int) -> list[int]:
    days = list(range(0, horizon + 1, 7))
    if days[-1] != horizon:
        days.append(horizon)
    return days


def _guarded(check):
    """Run one command's check; an unreadable output is a failed check."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"could not check outputs: {type(exc).__name__}: {exc}"]


class Workload:
    """One closed-loop workload. Paths in commands are relative to the
    run's working directory `work`; `out` is a pass's output prefix."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def commands(self, out: str) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: str) -> list[list[str]]:
        """Errors found in each command's outputs, one list per command."""
        raise NotImplementedError

    def work_done(self, out: str) -> dict[str, float]:
        """Amount of work in one pass, named by its unit."""
        raise NotImplementedError

    def sizes(self) -> dict[str, float]:
        return {}


class _Simulation(Workload):
    """Shared checks for `simulate` and `sweep` outputs."""

    def _check_simulate(self, out_dir: Path) -> list[str]:
        errors = _check_manifest(out_dir / "manifest.json", "simulate", [], self.seed)
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        rows = _read_csv(out_dir / "result.csv")
        if [int(r["day"]) for r in rows] != _recorded_days(config["horizon_days"]):
            errors.append("result.csv days are not weekly plus the horizon")
        for r in rows:
            fracs = [float(r[c]) for c in ("mean_frac_above", "lo_frac_above", "hi_frac_above")]
            if not all(0.0 <= f <= 1.0 for f in fracs):
                errors.append(f"result.csv day {r['day']}: fraction outside [0, 1]")
                break
        summary = json.loads((out_dir / "summary.json").read_text())
        if summary.get("final_day") != config["horizon_days"]:
            errors.append(f"summary.json final_day {summary.get('final_day')!r}")
        return errors

    def _check_sweep(self, out_dir: Path) -> list[str]:
        errors = _check_manifest(out_dir / "manifest.json", "sweep", [], self.seed)
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        n_agents, horizon = config["n_agents"], config["horizon_days"]
        rows = _read_csv(out_dir / "sweep.csv")
        if len(rows) != 3 * len(config["fractions"]):
            errors.append(f"sweep.csv has {len(rows)} rows for {config['fractions']}")
        for r in rows:
            f = float(r["repaint_fraction_weekly"])
            if not 0.0 <= float(r["frac_needing_repaint"]) <= 1.0:
                errors.append(f"sweep.csv {f} {r['strategy']}: fraction outside [0, 1]")
            if r["strategy"] in ("random_a", "greedy_b"):
                expected = round(f * n_agents) * (horizon // 7)
                if float(r["total_repaints"]) != expected:
                    errors.append(
                        f"sweep.csv {f} {r['strategy']}: total_repaints "
                        f"{r['total_repaints']}, conservation requires {expected}"
                    )
        return errors

    @staticmethod
    def _agent_days(manifest: Path, runs: int = 1) -> float:
        config = json.loads(manifest.read_text())["config"]
        return runs * config["replicates"] * config["n_agents"] * config["horizon_days"]


class SimLong(_Simulation):
    """Both long-horizon presets: stepping dominates, selection is light."""

    name = "sim-long"
    PRESETS = ("paint1-baseline", "paint2-1pct")

    def commands(self, out):
        return [
            ["simulate", "--preset", p, f"--seed={self.seed}", f"--out={out}/{p}"]
            for p in self.PRESETS
        ]

    def check(self, out):
        return [
            _guarded(lambda p=p: self._check_simulate(self.work / out / p))
            for p in self.PRESETS
        ]

    def work_done(self, out):
        return {
            "agent_days": sum(
                self._agent_days(self.work / out / p / "manifest.json") for p in self.PRESETS
            )
        }


class SweepDecision(_Simulation):
    """The 15-run decision sweep: selection dominates, runs are short."""

    name = "sweep-decision"

    def commands(self, out):
        return [["sweep", "--preset", "paint1-5pct", f"--seed={self.seed}", f"--out={out}/sweep"]]

    def check(self, out):
        return [_guarded(lambda: self._check_sweep(self.work / out / "sweep"))]

    def work_done(self, out):
        out_dir = self.work / out / "sweep"
        runs = len(_read_csv(out_dir / "sweep.csv"))
        return {"agent_days": self._agent_days(out_dir / "manifest.json", runs)}


# sRGB -> XYZ (D65) and the D65 white, written out independently of
# heartfade.color so the calibration check does not test the code with itself
_RGB_TO_XYZ = (
    (0.4124564, 0.3575761, 0.1804375),
    (0.2126729, 0.7151522, 0.0721750),
    (0.0193339, 0.1191920, 0.9503041),
)
_D65 = (0.95047, 1.0, 1.08883)


def srgb_to_lab(rgb) -> tuple[float, float, float]:
    srgb = [v / 255 for v in rgb]
    lin = [c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4 for c in srgb]
    xyz = [sum(m * c for m, c in zip(row, lin)) / w for row, w in zip(_RGB_TO_XYZ, _D65)]
    f = [t ** (1 / 3) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29 for t in xyz]
    return (116 * f[1] - 16, 500 * (f[0] - f[1]), 200 * (f[1] - f[2]))


def _lab_arg(lab) -> str:
    return ",".join(repr(float(v)) for v in lab)


class FieldIngest(Workload):
    """Photos, an observation table and a survey through the measurement
    pipeline: digest, P6 and P3 decoding, region means, CSV parsing and
    the two fits."""

    name = "field-ingest"
    P6_PHOTOS = 3
    P6_SIZE = (1600, 1200)  # 1.92 MP, 5.76 MB each
    P6_HEARTS = 100
    P3_SIZE = (250, 240)  # 0.06 MP
    P3_HEARTS = 10
    HEARTS = 1000
    DATES = 30
    SURVEY_POINTS = 40
    # calibrated colours are written with 4 decimals, so 0.01 leaves room
    # only for rounding and the white-point difference
    MAX_DELTA_E = 0.01
    SLOPE_TOLERANCE = 1e-9
    FIT_TOLERANCE = 0.01

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng([seed, 0x4846])
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        # (relative path, calibrate arguments, expected LAB per heart id)
        self.photos = [
            self._photo(rng, f"inputs/wall_{i}.ppm", self.P6_SIZE, self.P6_HEARTS, 60, 40)
            for i in range(self.P6_PHOTOS)
        ]
        self.photos.append(
            self._photo(rng, "inputs/wall_p3.ppm", self.P3_SIZE, self.P3_HEARTS, 30, 16)
        )
        self._observations(rng)
        self._survey(rng)
        self.input_bytes = {
            rel: (work / rel).stat().st_size
            for rel in [p[0] for p in self.photos]
            + [self.observations, self.windows, self.survey]
        }

    def _photo(self, rng, rel, size, hearts, board, side):
        """A wall photo: noisy background, a uniform reference board and
        `hearts` uniform square patches; P3 if the name says so, else P6."""
        width, height = size
        pixels = rng.integers(60, 200, size=(height, width, 3), dtype=np.uint8)
        board_rgb = rng.integers(90, 170, size=3)
        pixels[10 : 10 + board, 10 : 10 + board] = board_rgb
        offset = rng.uniform(-3.0, 3.0, size=3)
        reference = np.add(srgb_to_lab(board_rgb), offset)
        columns = (width - 10) // (side + 8)
        regions, expected = [], {}
        for j in range(hearts):
            x = 10 + (j % columns) * (side + 8)
            y = 20 + board + (j // columns) * (side + 8)
            if y + side > height:
                raise ValueError(f"{hearts} hearts do not fit in a {width}x{height} photo")
            rgb = rng.integers((140, 40, 50), (240, 140, 150))
            pixels[y : y + side, x : x + side] = rgb
            regions.append(f"--heart-region=h{j}:{x},{y},{side},{side}")
            expected[f"h{j}"] = np.add(srgb_to_lab(rgb), offset)
        if "p3" in rel:
            rows = (" ".join(map(str, row.reshape(-1).tolist())) for row in pixels)
            data = f"P3\n{width} {height}\n255\n".encode() + "\n".join(rows).encode() + b"\n"
        else:
            data = f"P6\n{width} {height}\n255\n".encode() + pixels.tobytes()
        (self.work / rel).write_bytes(data)
        args = [
            f"--board-region=10,10,{board},{board}",
            f"--reference-lab={_lab_arg(reference)}",
            *regions,
        ]
        return rel, args, expected

    def _observations(self, rng):
        self.baseline = rng.uniform((45.0, 40.0, 15.0), (55.0, 50.0, 25.0))
        self.slopes = {}
        rows = []
        first_day = datetime.date(2020, 1, 1)
        for h in range(self.HEARTS):
            heart = f"heart_{h:04d}"
            slope, intercept = rng.uniform(0.02, 0.06), rng.uniform(0.5, 3.0)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            start = first_day + datetime.timedelta(days=int(rng.integers(0, 60)))
            later = rng.choice(np.arange(1, 720), self.DATES - 1, replace=False)
            days = [0] + sorted(later.tolist())
            for day in days:
                lab = (self.baseline + direction * (intercept + slope * day)).tolist()
                rows.append((start + datetime.timedelta(days=day), heart, lab))
            self.slopes[heart] = float(slope)
        # observed once only: rate must exclude it
        self.under_observed = "heart_single"
        rows.append((first_day, self.under_observed, (self.baseline + 1.0).tolist()))
        rows.sort(key=lambda r: (r[0], r[1]))
        lines = ["heart_id,date,L,a,b,source"] + [
            f"{heart},{date.isoformat()},{lab[0]!r},{lab[1]!r},{lab[2]!r},photo"
            for date, heart, lab in rows
        ]
        self.observation_rows = len(rows)
        self.observations = "inputs/observations.csv"
        (self.work / self.observations).write_text("\n".join(lines) + "\n")
        self.windows = "inputs/windows.json"
        windows = {
            h: {"start_day": 0, "end_day": 800} for h in [*self.slopes, self.under_observed]
        }
        (self.work / self.windows).write_text(json.dumps(windows))

    def _survey(self, rng):
        self.m, self.s = float(rng.uniform(20.0, 40.0)), float(rng.uniform(3.0, 8.0))
        delta_e = np.sort(rng.uniform(0.0, 80.0, self.SURVEY_POINTS))
        respondents = rng.integers(20, 200, self.SURVEY_POINTS)
        lines = ["delta_e,frac_agree,n_respondents"] + [
            f"{d!r},{1.0 / (1.0 + math.exp(-(d - self.m) / self.s))!r},{n}"
            for d, n in zip(delta_e.tolist(), respondents.tolist())
        ]
        self.survey = "inputs/survey.csv"
        (self.work / self.survey).write_text("\n".join(lines) + "\n")

    def commands(self, out):
        seed = f"--seed={self.seed}"
        calibrate = [
            ["calibrate", rel, *args, seed, f"--out={out}/calibrate-{i}"]
            for i, (rel, args, _) in enumerate(self.photos)
        ]
        return calibrate + [
            [
                "rate",
                self.observations,
                self.windows,
                f"--baseline-lab={_lab_arg(self.baseline)}",
                seed,
                f"--out={out}/rate",
            ],
            ["acceptability", self.survey, seed, f"--out={out}/acceptability"],
        ]

    def check(self, out):
        base = self.work / out
        checks = [
            lambda i=i, photo=photo: self._check_calibrate(base / f"calibrate-{i}", *photo)
            for i, photo in enumerate(self.photos)
        ]
        checks.append(lambda: self._check_rate(base / "rate"))
        checks.append(lambda: self._check_acceptability(base / "acceptability"))
        return [_guarded(c) for c in checks]

    def _check_calibrate(self, out_dir, rel, _args, expected):
        errors = _check_manifest(out_dir / "manifest.json", "calibrate", [rel], self.seed)
        rows = _read_csv(out_dir / "calibrated.csv")
        if [r["region_id"] for r in rows] != list(expected):
            return errors + ["calibrated.csv does not list every heart region in order"]
        for r in rows:
            got = (float(r["L"]), float(r["a"]), float(r["b"]))
            err = math.dist(got, expected[r["region_id"]])
            if err > self.MAX_DELTA_E:
                errors.append(f"{rel} {r['region_id']}: calibrated colour off by dE {err:.4f}")
                break
        return errors

    def _check_rate(self, out_dir):
        errors = _check_manifest(
            out_dir / "manifest.json", "rate", [self.observations, self.windows], self.seed
        )
        doc = json.loads((out_dir / "rates.json").read_text())
        hearts = doc["hearts"]
        if sorted(hearts) != sorted(self.slopes):
            errors.append(f"rates.json fits {len(hearts)} hearts, expected {len(self.slopes)}")
        worst = max(
            (
                abs(hearts[h]["slope_delta_e_per_day"] - k)
                for h, k in self.slopes.items()
                if h in hearts
            ),
            default=0.0,
        )
        if worst > self.SLOPE_TOLERANCE:
            errors.append(f"rates.json slope off by {worst:.3g}")
        if [e["heart_id"] for e in doc["excluded"]] != [self.under_observed]:
            errors.append(f"rates.json excluded {doc['excluded']!r}")
        mean = sum(self.slopes.values()) / len(self.slopes)
        if abs(doc["aggregate"]["mean_k_delta_e_per_day"] - mean) > self.SLOPE_TOLERANCE:
            errors.append("rates.json aggregate mean differs from the generated mean")
        return errors

    def _check_acceptability(self, out_dir):
        errors = _check_manifest(
            out_dir / "manifest.json", "acceptability", [self.survey], self.seed
        )
        doc = json.loads((out_dir / "acceptability.json").read_text())
        for key, true in (("midpoint_m", self.m), ("scale_s", self.s)):
            if abs(doc[key] - true) > self.FIT_TOLERANCE * true:
                errors.append(f"acceptability.json {key} {doc[key]!r}, generated {true!r}")
        return errors

    def work_done(self, out):
        return {"input_mb": sum(self.input_bytes.values()) / 1e6}

    def sizes(self):
        p6_bytes = [self.input_bytes[p[0]] for p in self.photos[: self.P6_PHOTOS]]
        return {
            "p6_photos": self.P6_PHOTOS,
            "p6_mpix_each": self.P6_SIZE[0] * self.P6_SIZE[1] / 1e6,
            "p6_mb_total": sum(p6_bytes) / 1e6,
            "p6_heart_regions_each": self.P6_HEARTS,
            "p3_mpix": self.P3_SIZE[0] * self.P3_SIZE[1] / 1e6,
            "p3_mb": self.input_bytes["inputs/wall_p3.ppm"] / 1e6,
            "observation_rows": self.observation_rows,
            "observations_mb": self.input_bytes[self.observations] / 1e6,
            "survey_rows": self.SURVEY_POINTS,
            "input_mb_total": sum(self.input_bytes.values()) / 1e6,
        }


WORKLOADS = {w.name: w for w in (SimLong, SweepDecision, FieldIngest)}
