"""Property tests of the survey and config parsers and of the CLI on
arbitrary input bytes.

Each parser either returns a result or raises its own typed error. Each
command returns 0 or 2 and never raises; when it returns 2 it prints one
line to stderr and leaves nothing under --out.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heartfade.acceptability import FitError, SurveyPoint, load_survey
from heartfade.cli import main
from heartfade.simulate import ConfigError, SimConfig

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
@given(config_bytes)
def test_config_from_json_returns_config_or_config_error(data):
    try:
        cfg = SimConfig.from_json(data)
    except ConfigError:
        return
    cfg.validate()


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
