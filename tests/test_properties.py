"""Property tests of the survey, windows and config parsers and of the CLI on
arbitrary input bytes and arguments.

Each parser either returns a result or raises its own typed error. Each
command returns 0 or 2 and never raises; when it returns 2 it prints one
line to stderr and leaves nothing under --out. Where argparse itself
rejects an argument (its SystemExit 2 and usage message), that is
accepted too.
"""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heartfade.acceptability import FitError, SurveyPoint, load_survey
from heartfade.cli import main
from heartfade.ingest import PixelGrid
from heartfade.rates import Window, load_windows
from heartfade.simulate import ConfigError, SimConfig, Strategy, run_simulation
from ppm_codec import encode_p6

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**3), 10**3),
    st.integers().map(lambda i: i * 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def mutated(draw, text: str):
    """`text` encoded, with up to three single-byte edits: a byte
    replaced, inserted or deleted."""
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif at < len(data):
            if kind == "replace":
                data[at] = draw(st.integers(0, 255))
            else:
                del data[at]
    return bytes(data)


@st.composite
def csv_bytes(draw, header, cells, max_rows):
    """A CSV document: the header, then up to `max_rows` rows of cells."""
    rows = [",".join(header)]
    for _ in range(draw(st.integers(0, max_rows))):
        rows.append(",".join(draw(c) for c in cells))
    return ("\n".join(rows) + "\n").encode()


GOOD_SURVEY = "delta_e,frac_agree,n_respondents\n5,0.05,40\n20,0.3,40\n40,0.8,40\n"
# well-formed surveys whose values reach the fit: delta E of any magnitude
# or infinite, counts past what a float64 weight holds
extreme_survey_bytes = csv_bytes(
    ["delta_e", "frac_agree", "n_respondents"],
    [
        st.floats(min_value=0).map(repr),
        st.floats(0, 1).map(repr),
        st.one_of(st.integers(1, 50), st.integers(10**300, 10**330)).map(str),
    ],
    6,
)
survey_bytes = st.one_of(
    st.binary(max_size=120), mutated(GOOD_SURVEY), extreme_survey_bytes
)

CONFIG_FIELDS = sorted(SimConfig.__dataclass_fields__)
SMALL_CONFIG = {
    "k_mean": 0.2,
    "k_sd": 0.04,
    "n_agents": 12,
    "horizon_days": 30,
    "replicates": 2,
    "strategy": "threshold_c",
    "repaint_fraction_weekly": 0.25,
}

config_bytes = st.one_of(
    st.binary(max_size=120),
    st.dictionaries(
        st.sampled_from(CONFIG_FIELDS + ["junk", "a\nb"]), SCALARS, max_size=4
    ).map(lambda d: json.dumps(d).encode()),
    mutated(json.dumps(SMALL_CONFIG)),
)

GOOD_OBS = (
    "heart_id,date,L,a,b,source\n"
    "h1,2021-05-01,49.3,46.3,20.5,x\n"
    "h1,2021-05-11,50.3,46.3,20.5,x\n"
    "h1,2021-05-21,51.3,46.3,20.5,x\n"
)
GOOD_WINDOWS = '{"h1": {"start_day": 0, "end_day": 30}}'
# well-formed tables whose LAB values, of any finite magnitude, reach the fit
LAB_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)
extreme_observation_bytes = csv_bytes(
    ["heart_id", "date", "L", "a", "b", "source"],
    [
        st.sampled_from(["h1", "h2"]),
        st.sampled_from(["2021-05-01", "2021-05-11", "2021-05-21"]),
        LAB_CELL,
        LAB_CELL,
        LAB_CELL,
        st.just("x"),
    ],
    6,
)
observation_bytes = st.one_of(st.binary(max_size=120), mutated(GOOD_OBS))
windows_bytes = st.one_of(
    st.binary(max_size=60),
    SCALARS.map(json.dumps).map(str.encode),
    st.dictionaries(
        st.sampled_from(["h1", "h2"]),
        st.one_of(
            SCALARS,
            st.dictionaries(st.sampled_from(["start_day", "end_day"]), SCALARS),
        ),
        max_size=2,
    ).map(lambda d: json.dumps(d).encode()),
    mutated(GOOD_WINDOWS),
)


@FUZZ
@given(survey_bytes)
def test_load_survey_returns_points_or_fit_error(data):
    try:
        points = load_survey(data)
    except FitError:
        return
    assert all(type(p) is SurveyPoint for p in points)


@FUZZ
@given(windows_bytes)
def test_load_windows_returns_windows_or_value_error(data):
    try:
        windows = load_windows(data)
    except ValueError as exc:
        assert str(exc).startswith("invalid windows document: ")
        return
    for heart, w in windows.items():
        assert type(heart) is str and type(w) is Window
        assert type(w.start_day) is int and type(w.end_day) is int


@FUZZ
@given(config_bytes)
def test_config_from_json_returns_config_or_config_error(data):
    try:
        cfg = SimConfig.from_json(data)
    except ConfigError:
        return
    assert replace(cfg) == cfg  # builds it again, and so checks it again


def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# small runs whose other fields take any value SimConfig accepts, the float
# limits included
small_configs = st.builds(
    SimConfig,
    k_mean=finite(min_value=0, max_value=1000, exclude_min=True),
    k_sd=finite(min_value=0, max_value=1000),
    n_agents=st.integers(1, 8),
    horizon_days=st.integers(1, 40),
    initial_spread_max=finite(min_value=0),
    perception_threshold=finite(),
    strategy=st.sampled_from(Strategy),
    repaint_fraction_weekly=finite(min_value=0, max_value=1),
    replicates=st.integers(1, 3),
    master_seed=st.integers(),
    uncertainty_mode=st.sampled_from(["montecarlo", "envelope"]),
)


@FUZZ
@given(small_configs)
@example(SimConfig(k_mean=1000, k_sd=1000, horizon_days=40, replicates=2))
def test_every_valid_config_simulates_without_warnings(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_simulation(cfg)


@FUZZ
@given(small_configs)
def test_config_json_roundtrip(cfg):
    assert SimConfig.from_json(json.dumps(cfg.to_dict())) == cfg


def run_cli(command, inputs, extra=()):
    """Run `command` on the given {name: bytes} files in a fresh temp dir;
    returns (exit code, stderr, files under --out)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = []
        for name, data in inputs.items():
            (root / name).write_bytes(data)
            paths.append(str(root / name))
        out = root / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, *paths, *extra, "--out", str(out)])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return rc, err.getvalue(), written


def assert_clean_exit(rc, err, written):
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1, err
        assert written == []
    else:
        assert written


@FUZZ
@given(observation_bytes, windows_bytes)
def test_rate_cli_exits_0_or_2(obs, windows):
    result = run_cli(
        "rate", {"obs.csv": obs, "win.json": windows}, ["--baseline-lab", "49.3,46.3,20.5"]
    )
    assert_clean_exit(*result)


@FUZZ
@given(extreme_observation_bytes)
# a square in the delta E overflows; a same-date mean overflows
@example(GOOD_OBS.replace("51.3", "1e200").encode())
@example((GOOD_OBS + "h1,2021-05-21,1e308,46.3,20.5,x\n").replace("51.3", "1e308").encode())
def test_rate_cli_on_extreme_lab_values_exits_0_or_2(obs):
    windows = b'{"h1": {"start_day": 0, "end_day": 30}, "h2": {"start_day": 0, "end_day": 30}}'
    result = run_cli(
        "rate", {"obs.csv": obs, "win.json": windows}, ["--baseline-lab", "49.3,46.3,20.5"]
    )
    assert_clean_exit(*result)


@FUZZ
@given(survey_bytes)
# agreement far below the midpoint of a steep fitted curve; a weight past
# float64; a NaN delta E
@example(b"delta_e,frac_agree,n_respondents\n0,0,1\n0,1e-308,1\n1,0,1\n")
@example(GOOD_SURVEY.replace("40\n", "1" + "0" * 320 + "\n", 1).encode())
@example(GOOD_SURVEY.replace("5,", "nan,").encode())
def test_acceptability_cli_exits_0_or_2(survey):
    assert_clean_exit(*run_cli("acceptability", {"survey.csv": survey}))


@FUZZ
@given(st.one_of(st.binary(max_size=120), mutated(json.dumps(SMALL_CONFIG))))
# a population no block can hold; outputs too large to allocate or finish
@example(b'{"k_mean": 0.04, "n_agents": 1000000000000000000000000000000}')
@example(b'{"k_mean": 0.04, "replicates": 100000000000}')
def test_simulate_cli_exits_0_or_2(config):
    assert_clean_exit(*run_cli("simulate", {"config.json": config}))


def assert_clean_exit_or_usage_error(command, inputs, extra):
    """assert_clean_exit on run_cli, unless argparse itself rejects the
    arguments (SystemExit 2)."""
    try:
        result = run_cli(command, inputs, extra)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert_clean_exit(*result)


NUMBER_TEXT = st.one_of(
    st.integers(-3, 12).map(str), st.floats().map(repr), st.text(max_size=4)
)


def comma_list(items, min_size, max_size):
    return st.lists(items, min_size=min_size, max_size=max_size).map(",".join)


# regions inside the 8x4 test image, or arbitrary comma-separated text
REGION_TEXT = st.one_of(
    st.tuples(
        st.integers(0, 4), st.integers(0, 2), st.integers(1, 4), st.integers(1, 2)
    ).map(lambda r: ",".join(map(str, r))),
    comma_list(NUMBER_TEXT, 3, 5),
)
LAB_TEXT = st.one_of(
    st.tuples(*[st.floats(-100, 100)] * 3).map(lambda c: ",".join(map(repr, c))),
    comma_list(NUMBER_TEXT, 2, 4),
)
# ids that need quoting in CSV; a ":" ends the id, so the rest is coordinates
REGION_ID = st.text(st.sampled_from(list('ab ,:"\n')), max_size=5)
CALIBRATE_IMAGE = encode_p6(PixelGrid(8, 4, np.full((4, 8, 3), 90, dtype=np.uint8)))


@FUZZ
@given(
    REGION_TEXT,
    LAB_TEXT,
    st.lists(st.tuples(REGION_ID, REGION_TEXT), min_size=1, max_size=3),
)
@example("0,0,4,4", "16,0,0", [('a,"b"\n', "4,0,4,4"), ("", "0,0,8,4")])
def test_calibrate_cli_exits_0_or_2(board, reference, hearts):
    extra = [f"--board-region={board}", f"--reference-lab={reference}"]
    extra += [f"--heart-region={region_id}:{coords}" for region_id, coords in hearts]
    assert_clean_exit_or_usage_error("calibrate", {"wall.ppm": CALIBRATE_IMAGE}, extra)


FRACTION_TEXT = comma_list(
    st.one_of(
        st.floats(0, 1).map(repr),
        st.sampled_from(["0", "1", " 0.5"]),
        st.floats().map(repr),
        st.text(max_size=3),
    ),
    0,
    2,
)


@settings(FUZZ, max_examples=30)
@given(FRACTION_TEXT, st.integers(-2, 30))
@example("0.5", 14)
@example("0.1", 10**12)  # recorded days past the output cap
def test_sweep_preset_cli_exits_0_or_2(fractions, horizon):
    extra = ["--preset=paint1-5pct", f"--fractions={fractions}", f"--horizon={horizon}"]
    assert_clean_exit_or_usage_error("sweep", {}, extra)


@FUZZ
@given(
    st.one_of(
        st.just(json.dumps(SMALL_CONFIG).encode()),
        st.binary(max_size=60),
        mutated(json.dumps(SMALL_CONFIG)),
    ),
    FRACTION_TEXT,
    st.integers(-2, 400).map(str),
)
@example(json.dumps(SMALL_CONFIG).encode(), "0.25", "10**12")  # not an integer
@example(json.dumps(SMALL_CONFIG).encode(), "0.25", str(10**12))
def test_sweep_config_cli_exits_0_or_2(config, fractions, horizon):
    extra = [f"--fractions={fractions}", f"--horizon={horizon}"]
    assert_clean_exit_or_usage_error("sweep", {"config.json": config}, extra)
