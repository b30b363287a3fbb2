import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import heartfade.cli
from heartfade.cli import fnv1a64, main, sha256_hex
from heartfade.color import LabColor, srgb_to_lab, SrgbColor
from heartfade.ingest import PixelGrid, encode_p6


BASELINE = "49.3,46.3,20.5"


def data_path(name):
    return resources.files("heartfade").joinpath(f"data/{name}")


def write_test_image(path, shift=0):
    """4x4 board patch (dark) on the left, fresh-paint patch on the right.

    shift adds a uniform sRGB offset to fake a miscalibrated camera.
    """
    pixels = np.zeros((4, 8, 3), dtype=np.uint8)
    pixels[:, :4] = np.clip(np.array([30, 30, 32]) + shift, 0, 255)
    pixels[:, 4:] = np.clip(np.array([194, 80, 85]) + shift, 0, 255)
    grid = PixelGrid(8, 4, pixels)
    path.write_bytes(encode_p6(grid))
    return grid


class TestCalibrate:
    def test_zero_offset_when_board_matches(self, tmp_path, capsys):
        img = tmp_path / "wall.ppm"
        write_test_image(img)
        board_lab = srgb_to_lab(SrgbColor(30, 30, 32))
        rc = main(
            [
                "calibrate",
                str(img),
                "--board-region",
                "0,0,4,4",
                "--reference-lab",
                f"{board_lab.L},{board_lab.a},{board_lab.b}",
                "--heart-region",
                "h1:4,0,4,4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "region_id,L,a,b"
        _, L, a, b = out[1].split(",")
        fresh = srgb_to_lab(SrgbColor(194, 80, 85))
        assert float(L) == pytest.approx(fresh.L, abs=1e-3)
        assert float(a) == pytest.approx(fresh.a, abs=1e-3)

    def test_shifted_image_recovers_unshifted_means(self, tmp_path, capsys):
        from heartfade.color import lab_array_to_srgb, srgb_array_to_lab

        img0 = tmp_path / "ref.ppm"
        img1 = tmp_path / "shifted.ppm"
        grid = write_test_image(img0)
        # same scene under a uniform LAB colour-balance shift
        shifted_lab = srgb_array_to_lab(grid.pixels) + np.array([4.0, -2.0, 1.5])
        shifted_rgb, clamped = lab_array_to_srgb(shifted_lab)
        assert not clamped.any()
        img1.write_bytes(
            encode_p6(PixelGrid(8, 4, shifted_rgb.astype(np.uint8)))
        )
        board_lab = srgb_to_lab(SrgbColor(30, 30, 32))
        args = [
            "--board-region",
            "0,0,4,4",
            "--reference-lab",
            f"{board_lab.L},{board_lab.a},{board_lab.b}",
            "--heart-region",
            "h1:4,0,4,4",
        ]
        assert main(["calibrate", str(img0)] + args) == 0
        raw = capsys.readouterr().out.splitlines()[1]
        assert main(["calibrate", str(img1)] + args) == 0
        calibrated = capsys.readouterr().out.splitlines()[1]
        lab_raw = LabColor(*(float(v) for v in raw.split(",")[1:]))
        lab_cal = LabColor(*(float(v) for v in calibrated.split(",")[1:]))
        from heartfade.color import delta_e

        assert delta_e(lab_raw, lab_cal) < 0.5

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "calibrate",
                str(tmp_path / "nope.ppm"),
                "--board-region",
                "0,0,1,1",
                "--reference-lab",
                "16,0,0",
                "--heart-region",
                "h1:0,0,1,1",
            ]
        )
        assert rc == 2
        assert "nope.ppm" in capsys.readouterr().err

    def test_p3_header_claiming_more_samples_than_held(self, tmp_path, capsys):
        img = tmp_path / "huge.ppm"
        img.write_bytes(b"P3 100000 100000 255 1 2 3")
        out = tmp_path / "out"
        rc = main(
            [
                "calibrate",
                str(img),
                "--board-region",
                "0,0,1,1",
                "--reference-lab",
                "16,0,0",
                "--heart-region",
                "h1:0,0,1,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "truncated pixel data: expected 30000000000 samples, got 3" in err
        assert not out.exists()

    def test_out_of_bounds_region_fails(self, tmp_path, capsys):
        img = tmp_path / "wall.ppm"
        write_test_image(img)
        rc = main(
            [
                "calibrate",
                str(img),
                "--board-region",
                "0,0,99,99",
                "--reference-lab",
                "16,0,0",
                "--heart-region",
                "h1:0,0,1,1",
            ]
        )
        assert rc == 2


class TestRate:
    def run_bundled(self, capsys, tmp_path=None, extra=()):
        rc = main(
            [
                "rate",
                str(data_path("synthetic_observations.csv")),
                str(data_path("synthetic_windows.json")),
                "--baseline-lab",
                BASELINE,
                *extra,
            ]
        )
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_bundled_dataset_aggregate(self, capsys):
        doc = self.run_bundled(capsys)
        assert doc["aggregate"]["mean_k_delta_e_per_day"] == pytest.approx(
            0.041, abs=1e-9
        )
        assert doc["aggregate"]["sd_k_delta_e_per_day"] == pytest.approx(
            0.0052, abs=1e-9
        )
        assert doc["aggregate"]["n_hearts"] == 7
        assert len(doc["hearts"]) == 7
        for fit in doc["hearts"].values():
            assert fit["r2"] == pytest.approx(1.0, abs=1e-9)

    def test_excluded_heart_reported(self, capsys):
        doc = self.run_bundled(capsys)
        assert [e["heart_id"] for e in doc["excluded"]] == ["heart_8"]

    def test_no_fittable_hearts(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "heart_id,date,L,a,b,source\n"
            "h1,2021-05-01,49.3,46.3,20.5,x\n"
            "h2,2021-05-01,50.3,46.3,20.5,x\n"
        )
        win = tmp_path / "win.json"
        win.write_text('{"h1": {"start_day": 0, "end_day": 10}, "h2": {"start_day": 0, "end_day": 10}}')
        rc = main(["rate", str(obs), str(win), "--baseline-lab", BASELINE])
        assert rc == 2
        assert "no fittable hearts" in capsys.readouterr().err


class TestAcceptabilityCommand:
    def test_bundled_anchors(self, capsys):
        rc = main(["acceptability", str(data_path("acceptability_anchors.csv"))])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement_at_delta_e_30"] == pytest.approx(0.20, abs=0.01)
        assert doc["thresholds"]["0.2"] == pytest.approx(30.0, abs=1.0)

    @pytest.mark.parametrize("frac", ["1.5", "1", "0", "-0.2", "nan"])
    def test_threshold_outside_unit_interval_exit_2(self, tmp_path, capsys, frac):
        out = tmp_path / "out"
        rc = main(
            [
                "acceptability",
                str(data_path("acceptability_anchors.csv")),
                "--threshold",
                "0.5",
                "--threshold",
                frac,
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--threshold" in captured.err and "(0, 1)" in captured.err
        assert not out.exists()


class TestSimulateCommand:
    CONFIG = {
        "k_mean": 0.041,
        "k_sd": 0.0052,
        "n_agents": 100,
        "horizon_days": 200,
        "replicates": 5,
        "strategy": "random_a",
        "repaint_fraction_weekly": 0.1,
    }

    def test_outputs_and_manifest(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), "--out", str(out), "--seed", "7"])
        assert rc == 0
        assert (out / "result.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["mean_frac_above_threshold"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["digest"] == "sha256"
        assert manifest["inputs"][str(cfg)] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        header = (out / "result.csv").read_text().splitlines()[0]
        assert header == "day,mean_frac_above,lo_frac_above,hi_frac_above,cum_repaints"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            outs.append(
                [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
            )
        assert outs[0] == outs[1]

    def test_failed_write_leaves_previous_outputs(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        before = [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
        write_text = heartfade.cli.OutputSet.write_text

        def fail_on_manifest(self, name, text):
            if name == "manifest.json":
                raise OSError("disk full")
            return write_text(self, name, text)

        monkeypatch.setattr(heartfade.cli.OutputSet, "write_text", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            main(["simulate", str(cfg), "--out", str(out), "--seed", "2"])
        assert [(p.name, p.read_bytes()) for p in sorted(out.iterdir())] == before

    def test_invalid_config_field_message(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k_mean": -1}')
        rc = main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "k_mean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k_sd", float("nan")),
            ("perception_threshold", float("nan")),
            ("k_mean", float("inf")),
            ("horizon_days", 10.5),
            ("n_agents", "10"),
            ("replicates", True),
        ],
    )
    def test_invalid_value_exit_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**self.CONFIG, field: value}))
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err
        assert not out.exists()

    def test_preset_unknown(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "paint9"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({"k_mean": 0.041, "k_sd": 0.0052, "n_agents": 60, "replicates": 3})
        )
        out = tmp_path / "out"
        rc = main(
            [
                "sweep",
                str(cfg),
                "--fractions",
                "0,0.1",
                "--horizon",
                "100",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "repaint_fraction_weekly,strategy,frac_needing_repaint,total_repaints"
        )
        assert len(lines) == 1 + 2 * 3

    def test_missing_fractions(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k_mean": 0.041}')
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "fractions" in capsys.readouterr().err


def test_only_simulate_and_sweep_default_to_cwd(tmp_path, monkeypatch, capsys):
    img = tmp_path / "wall.ppm"
    write_test_image(img)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TestSimulateCommand.CONFIG))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    no_out = [
        [
            "calibrate",
            str(img),
            "--board-region",
            "0,0,4,4",
            "--reference-lab",
            "16,0,0",
            "--heart-region",
            "h1:4,0,4,4",
        ],
        [
            "rate",
            str(data_path("synthetic_observations.csv")),
            str(data_path("synthetic_windows.json")),
            "--baseline-lab",
            BASELINE,
        ],
        ["acceptability", str(data_path("acceptability_anchors.csv"))],
    ]
    for argv in no_out:
        assert main(argv) == 0
        assert list(cwd.iterdir()) == [], argv[0]

    assert main(["simulate", str(cfg)]) == 0
    names = sorted(p.name for p in cwd.iterdir())
    assert names == ["manifest.json", "result.csv", "summary.json"]
    assert main(["sweep", str(cfg), "--fractions", "0.1", "--horizon", "30"]) == 0
    assert (cwd / "sweep.csv").is_file()
    capsys.readouterr()


def test_sha256_hex_known_vectors():
    # FIPS 180-2 examples
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256_hex(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq") == (
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    )


def test_cli_import_does_not_load_hashlib():
    # hashlib (OpenSSL) is loaded on the first digest, not at start-up
    code = (
        "import sys, heartfade.cli; heartfade.cli.build_parser(); "
        "print('hashlib' in sys.modules)"
    )
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_fnv1a64_known_vectors():
    # reference values of the 64-bit FNV-1a test suite
    assert fnv1a64(b"") == "cbf29ce484222325"
    assert fnv1a64(b"a") == "af63dc4c8601ec8c"
    assert fnv1a64(b"foobar") == "85944171f73967e8"


GOOD_OBS = "heart_id,date,L,a,b,source\nh1,2021-05-01,49.3,46.3,20.5,x\n"
GOOD_WINDOWS = '{"h1": {"start_day": 0, "end_day": 10}}'


@pytest.mark.parametrize(
    "command,files,message",
    [
        (
            "rate",
            {"obs.csv": b"heart_id,date,L,a,b,source\nh\xff1,2021-05-01,1,2,3,x\n",
             "win.json": GOOD_WINDOWS.encode()},
            "obs.csv: not UTF-8: byte 0xff at offset 28",
        ),
        (
            "acceptability",
            {"survey.csv": b"delta_e,frac_agree,n_respondents\n1\xff,0.2,3\n"},
            "survey.csv: not UTF-8: byte 0xff at offset 34",
        ),
        (
            "simulate",
            {"config.json": b'{"k_mean": \xff}'},
            "config.json: config is not utf-8 text: byte 0xff at offset 11",
        ),
        (
            "simulate",
            {"config.json": b'\xef\xbb\xbf{"k_mean": \xff}'},
            "config.json: config is not utf-8 text: byte 0xff at offset 14",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b"[]"},
            "win.json: invalid windows document: expected an object",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"h1": {"start_day": 1e400, "end_day": 2}}'},
            "win.json: invalid windows document: cannot convert float infinity",
        ),
        (
            "rate",
            {"obs.csv": b"heart_id,date,L,a,b,source\rh1,2021-05-01,1,2,3,x\r",
             "win.json": GOOD_WINDOWS.encode()},
            "obs.csv: new-line character seen in unquoted field",
        ),
        (
            "acceptability",
            {"survey.csv": b"delta_e,frac_agree,n_respondents\r1,0.2,3\r"},
            "survey.csv: new-line character seen in unquoted field",
        ),
    ],
    ids=["rate-utf8", "acceptability-utf8", "simulate-utf8", "simulate-utf8-bom",
         "rate-windows-list", "rate-windows-overflow", "rate-bare-cr",
         "acceptability-bare-cr"],
)
def test_malformed_input_one_line_exit_2(tmp_path, capsys, command, files, message):
    paths = []
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        paths.append(str(tmp_path / name))
    extra = ["--baseline-lab", BASELINE] if command == "rate" else []
    out = tmp_path / "out"
    rc = main([command, *paths, *extra, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not out.exists()
