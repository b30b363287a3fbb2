import csv
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import heartfade.cli
import heartfade.simulate as simulate
from heartfade.cli import fnv1a64, main, sha256_hex
from heartfade.color import LabColor, srgb_to_lab, SrgbColor
from heartfade.ingest import PixelGrid
from ppm_codec import encode_p6


BASELINE = "49.3,46.3,20.5"


def data_path(name):
    return resources.files("heartfade").joinpath(f"data/{name}")


def vouches(out):
    """Whether out/manifest.json digests exactly the other files in `out`."""
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name: p for p in out.iterdir() if p.name != "manifest.json"}
    digests = {name: sha256_hex(p.read_bytes()) for name, p in files.items()}
    return manifest["outputs"] == digests


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

    @pytest.mark.parametrize("reference", ["1e308,0,0", "1e307,0,0"])
    def test_calibrated_mean_overflow_exit_2(self, tmp_path, capsys, reference):
        # a reference near the float limit makes the offset sum to inf over
        # the region's 100 pixels
        img = tmp_path / "wall.ppm"
        pixels = np.full((20, 20, 3), 200, dtype=np.uint8)
        img.write_bytes(encode_p6(PixelGrid(20, 20, pixels)))
        out = tmp_path / "out"
        rc = main(
            [
                "calibrate",
                str(img),
                "--board-region",
                "0,0,10,10",
                f"--reference-lab={reference}",
                "--heart-region",
                "h:10,10,10,10",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "heartfade calibrate: region Region(x=10, y=10, w=10, h=10): "
            "calibrated mean LAB is not finite\n"
        )
        assert not out.exists()


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

    def test_rel_err_null_when_mean_rate_not_positive(self, tmp_path, capsys):
        # the heart moves toward the baseline: slope and mean_k below 0
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "heart_id,date,L,a,b,source\n"
            "h1,2021-05-01,59.3,46.3,20.5,x\n"
            "h1,2021-05-11,54.3,46.3,20.5,x\n"
        )
        win = tmp_path / "win.json"
        win.write_text('{"h1": {"start_day": 0, "end_day": 10}}')
        out = tmp_path / "out"
        argv = ["rate", str(obs), str(win), "--baseline-lab", BASELINE, "--out", str(out)]
        assert main(argv) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        written = json.loads((out / "rates.json").read_text(), parse_constant=reject)
        assert printed == written
        assert written["aggregate"]["mean_k_delta_e_per_day"] == pytest.approx(-0.5)
        assert written["aggregate"]["rel_err"] is None

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
        assert sorted(manifest["outputs"]) == ["result.csv", "summary.json"]
        assert vouches(out)

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

    def test_failed_write_leaves_previous_outputs(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        capsys.readouterr()
        before = [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
        write_text = heartfade.cli.OutputSet.write_text

        def fail_on_manifest(self, name, text):
            if name == "manifest.json":
                raise OSError("disk full")
            return write_text(self, name, text)

        monkeypatch.setattr(heartfade.cli.OutputSet, "write_text", fail_on_manifest)
        assert main(["simulate", str(cfg), "--out", str(out), "--seed", "2"]) == 2
        assert capsys.readouterr() == ("", "heartfade simulate: disk full\n")
        assert [(p.name, p.read_bytes()) for p in sorted(out.iterdir())] == before

    def test_failed_move_leaves_no_vouching_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        """A move that fails after the first leaves a new result.csv beside
        the old files; the old manifest then no longer matches them, and
        the line names the file under --out."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        capsys.readouterr()
        assert vouches(out)
        manifest = (out / "manifest.json").read_bytes()
        replace = os.replace
        moves = []

        def fail_after_first(src, dst):
            moves.append(Path(dst).name)
            if len(moves) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_after_first)
        assert main(["simulate", str(cfg), "--out", str(out), "--seed", "2"]) == 2
        assert moves == ["result.csv", "summary.json"]
        assert capsys.readouterr() == (
            "",
            "heartfade simulate: [Errno 28] No space left on device: "
            f"'{out / 'summary.json'}'\n",
        )
        assert (out / "manifest.json").read_bytes() == manifest
        assert not vouches(out)
        assert not list(out.glob(".heartfade-*"))

    def test_outputs_synced_before_manifest_moves_in(self, tmp_path, monkeypatch):
        """Every staged output, the staging directory and --out are synced
        before manifest.json is moved in, and --out once more after it.
        This checks the order of the calls; it cannot simulate a power cut."""
        out = tmp_path / "out"
        events, opened = [], {}
        open_, fsync, replace = os.open, os.fsync, os.replace

        def record_open(path, flags, *args, **kwargs):
            fd = open_(path, flags, *args, **kwargs)
            opened[fd] = Path(path)
            return fd

        def record_fsync(fd):
            events.append(("fsync", opened[fd]))
            fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", Path(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "open", record_open)
        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        assert main(["simulate", "--preset", "paint1-baseline", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "result.csv", "summary.json"]
        last = max(i for i, (kind, _) in enumerate(events) if kind == "replace")
        staging = events[last][1].parent
        assert events[last][1].name == "manifest.json"
        synced = {path for kind, path in events[:last] if kind == "fsync"}
        assert synced == {staging / n for n in names} | {staging, out}
        assert events[last - 2 : last] == [("fsync", staging), ("fsync", out)]
        assert events[last + 1 :] == [("fsync", out)]

    def test_stale_staging_directory_is_removed(self, tmp_path):
        """A staging directory left by a killed command is removed by the
        next command writing the same --out."""
        out = tmp_path / "out"
        (out / ".heartfade-old").mkdir(parents=True)
        (out / ".heartfade-old" / "summary.json").write_text("{}")
        assert main(["simulate", "--preset", "paint1-baseline", "--out", str(out)]) == 0
        assert not list(out.glob(".heartfade-*"))
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json",
            "result.csv",
            "summary.json",
        ]
        assert vouches(out)

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

    @pytest.mark.parametrize(
        "rates,message",
        [
            ({"k_mean": 1e308}, "k_mean must be in (0, 1000], got 1e+308"),
            ({"k_mean": 0.041, "k_sd": 1e308}, "k_sd must be in [0, 1000], got 1e+308"),
        ],
    )
    def test_rate_near_the_float_limit_exit_2(self, tmp_path, capsys, rates, message):
        # a week's fading, k·7, would overflow to inf
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({**rates, "n_agents": 5, "horizon_days": 20, "replicates": 2})
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"heartfade simulate: {cfg}: {message}\n"
        assert not out.exists()

    def test_work_over_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # 2**9 x 2**20 x 2**12 agent-days, over the cap of 2**40: rejected
        # before it runs, and never run should the check be lost
        monkeypatch.setattr(
            heartfade.cli, "run_simulation", lambda cfg: pytest.fail("config ran")
        )
        cfg = tmp_path / "config.json"
        big = {"replicates": 2**9, "n_agents": 2**20, "horizon_days": 2**12}
        cfg.write_text(json.dumps({**self.CONFIG, **big}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"heartfade simulate: {cfg}: replicates x n_agents x horizon_days "
            "must be <= 1099511627776, got 512 x 1048576 x 4096\n"
        )
        assert not out.exists()

    def test_preset_unknown(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "paint9"])
        assert exc.value.code == 2

    def test_a_failed_run_writes_no_file(self, tmp_path, monkeypatch):
        # a block that fails is not bad input: its error reaches the caller
        # as raised, no file is written, and the run forked nothing
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("simulate forked"))
        parent = os.getpid()

        def fail(cfg, streams, *rest):
            assert os.getpid() == parent
            raise KeyError("the first block's rows")

        monkeypatch.setattr(simulate, "_simulate_block", fail)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(KeyError, match="the first block's rows"):
            main(["simulate", str(cfg), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_a_killed_simulate_leaves_no_process(self, tmp_path):
        # the simulate process steps its own rows, with two usable CPUs: the
        # stalled block names the killed process itself, and nothing outlives it
        code = (
            "import os, sys, time\n"
            "import heartfade.simulate as simulate\n"
            "from heartfade.cli import main\n"
            "def stall(cfg, streams, *rest):\n"
            "    os.write(1, b'%d\\n' % os.getpid())\n"
            "    time.sleep(60)\n"
            "simulate._simulate_block = stall\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"main(['simulate', '--preset', 'paint2-1pct', '--out', {str(tmp_path)!r}])\n"
        )
        pid, named = _kill_stalled(code, 1)
        assert named == [pid]
        assert _left_running(named) == []


def _running(pid):
    """Whether process `pid` exists and is not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _kill_stalled(code, count):
    """Run `python -c code` until it has written `count` lines, each a pid,
    then SIGKILL it; returns its pid and those lines' pids."""
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    watchdog = threading.Timer(30, proc.kill)  # a process that never reports
    watchdog.start()
    try:
        named = [int(proc.stdout.readline()) for _ in range(count)]
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    return proc.pid, named


def _left_running(pids):
    """Those of `pids` still running 10 s from now, or as soon as none is;
    each is killed, so that none outlives the test."""
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


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

    def test_sweep_workers_are_reaped(self, tmp_path, monkeypatch):
        # a sweep leaves no worker running; one whose worker dies fails with
        # no file written and no worker left either
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["sweep", "--preset", "paint1-5pct", "--horizon", "14", "--fractions", "0.1,0.5"]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, not even a zombie

        parent = os.getpid()

        def die(cfg):
            if os.getpid() == parent:  # exiting here would end the test session
                raise AssertionError("the cell ran in the sweep's own process")
            os._exit(3)

        monkeypatch.setattr(simulate, "_summary", die)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(RuntimeError, match="^a sweep worker ended without its results$"):
            main(argv + ["--out", str(out)])
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_end_with_a_killed_sweep(self):
        # SIGKILL leaves the sweep's process no time to stop its workers;
        # they end with it instead of waiting on their task queue for good.
        # Each worker names itself in one write, as both share the pipe
        code = (
            "import os, time\n"
            "import heartfade.simulate as simulate\n"
            "def stall(cfg):\n"
            "    os.write(1, b'%d\\n' % os.getpid())\n"
            "    time.sleep(60)\n"
            "simulate._summary = stall\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "simulate.sweep_fractions(simulate.SimConfig(k_mean=0.041), [0.1])\n"
        )
        pid, workers = _kill_stalled(code, 2)
        assert pid not in workers, "a cell ran in the sweep's own process"
        assert _left_running(workers) == []

    def test_preset_takes_horizon_and_fractions_flags(self, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", "--preset", "paint1-5pct", "--horizon", "14", "--fractions", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in (out / "sweep.csv").read_text().splitlines()]
        assert rows[1:] == [["0.5", "random_a"], ["0.5", "greedy_b"], ["0.5", "threshold_c"]]
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["horizon_days"], config["fractions"]) == (14, [0.5])
        assert config["replicates"] == 50  # the preset's own value

    def test_preset_horizon_is_validated(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--preset", "paint1-5pct", "--horizon", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "horizon_days must be >= 1" in err
        assert not out.exists()

    def test_config_validated_at_the_flag_horizon(self, tmp_path, capsys):
        # at its own 6000 days this config would exceed the output-cell cap
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k_mean": 0.041, "replicates": 20000, "n_agents": 1}')
        out = tmp_path / "out"
        argv = ["sweep", str(cfg), "--horizon", "30", "--fractions", "0.1"]
        assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["horizon_days"], config["replicates"]) == (30, 20000)

    def test_missing_fractions(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"k_mean": 0.041}')
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "fractions" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--format", "json"]])
@pytest.mark.parametrize(
    "command", [["simulate", "--preset", "paint1-baseline"], ["sweep", "--preset", "paint1-5pct"]]
)
def test_removed_flags_are_usage_errors(tmp_path, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + flag + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


class TestCsvIds:
    """Ids holding a comma, a quote, a newline or a bare carriage return are
    quoted in CSV output."""

    IDS = ["a,b", 'say "hi"', "two\nlines", "a\rb", "h1"]

    def test_calibrate(self, tmp_path, capsys):
        img = tmp_path / "wall.ppm"
        write_test_image(img)
        argv = ["calibrate", str(img), "--board-region", "0,0,4,4", "--reference-lab", "16,0,0"]
        for region_id in self.IDS:
            argv += ["--heart-region", f"{region_id}:4,0,4,4"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        written = list(csv.reader(io.StringIO((out / "calibrated.csv").read_bytes().decode())))
        assert printed == written
        assert [row[0] for row in written] == ["region_id", *self.IDS]
        assert {len(row) for row in written} == {4}

        assert main(argv + ["--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["region_id"] for r in records] == self.IDS
        assert [[f"{r[c]:.4f}" for c in "Lab"] for r in records] == [
            row[1:] for row in written[1:]
        ]

    def test_rate(self, tmp_path, capsys):
        buf = io.StringIO()
        # quoted, so that the input holds "a\rb" readably whatever the
        # writer's own rule for a bare \r
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["heart_id", "date", "L", "a", "b", "source"])
        for heart in self.IDS:
            for day, L in (("01", 49.3), ("11", 50.3), ("21", 51.3)):
                writer.writerow([heart, f"2021-05-{day}", L, 46.3, 20.5, "x"])
        obs = tmp_path / "obs.csv"
        obs.write_text(buf.getvalue())
        win = tmp_path / "win.json"
        win.write_text(json.dumps({h: {"start_day": 0, "end_day": 30} for h in self.IDS}))
        argv = ["rate", str(obs), str(win), "--baseline-lab", BASELINE, "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in rows] == ["heart_id", *self.IDS]
        assert {len(row) for row in rows} == {5}


def _calibrate_argv(tmp_path):
    img = tmp_path / "wall.ppm"
    write_test_image(img)
    region = ["--board-region", "0,0,4,4", "--reference-lab", "16,0,0"]
    return ["calibrate", str(img), *region, "--heart-region", "h1:4,0,4,4"]


def _config_path(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TestSimulateCommand.CONFIG))
    return str(cfg)


@pytest.mark.parametrize(
    "argv,n_inputs",
    [
        (_calibrate_argv, 1),
        (
            lambda tmp_path: [
                "rate",
                str(data_path("synthetic_observations.csv")),
                str(data_path("synthetic_windows.json")),
                "--baseline-lab",
                BASELINE,
            ],
            2,
        ),
        (
            lambda tmp_path: ["acceptability", str(data_path("acceptability_anchors.csv"))],
            1,
        ),
        (lambda tmp_path: ["simulate", _config_path(tmp_path)], 1),
        (lambda tmp_path: ["simulate", "--preset", "paint1-baseline"], 0),
        (lambda tmp_path: ["sweep", _config_path(tmp_path), "--fractions", "0.1"], 1),
        (lambda tmp_path: ["sweep", "--preset", "paint1-5pct", "--horizon", "30"], 0),
    ],
    ids=[
        "calibrate", "rate", "acceptability", "simulate-config", "simulate-preset",
        "sweep-config", "sweep-preset",
    ],
)
def test_manifest_inputs_are_the_input_files_named(tmp_path, capsys, argv, n_inputs):
    # the manifest digests every input path on the command line, and nothing else
    argv = argv(tmp_path)
    named = [a for a in argv[1:] if Path(a).is_file()]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert len(named) == n_inputs
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in named}
    assert inputs == digests


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize(
    "argv",
    [_calibrate_argv, lambda tmp_path: ["simulate", _config_path(tmp_path)]],
    ids=["calibrate", "simulate"],
)
def test_out_that_is_a_file_exit_2(tmp_path, capsys, argv, below):
    argv = argv(tmp_path)
    blocker = tmp_path / "f"
    blocker.write_bytes(b"not a directory")
    before = sorted(tmp_path.iterdir())
    out = blocker / "sub" if below else blocker
    assert main([*argv, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith(f"heartfade {argv[0]}: ") and err.count("\n") == 1, err
    assert str(blocker) in err
    assert blocker.read_bytes() == b"not a directory"
    assert sorted(tmp_path.iterdir()) == before


def test_out_file_name_taken_by_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert main(["simulate", _config_path(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"heartfade simulate: [Errno 21] Is a directory: '{out / 'summary.json'}'\n"
    )
    # the staging directory is gone; result.csv, moved in before the
    # failure, stays, and no manifest vouches for it
    assert not list(out.glob(".heartfade-*"))
    assert (out / "summary.json").is_dir()
    assert sorted(p.name for p in out.iterdir()) == ["result.csv", "summary.json"]


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


def test_every_fork_has_one_thread(tmp_path):
    # a forked child holds only the thread that forked it, so each fork of
    # a parallel sweep has no other thread; a simulate forks nothing
    argvs = [
        ["sweep", "--preset", "paint1-5pct", "--horizon", "30", "--fractions", "0.1"],
        ["simulate", "--preset", "paint1-baseline"],
    ]
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in argvs]
    code = (
        "import os, threading\n"
        "from heartfade.cli import main\n"
        "threads, fork = [], os.fork\n"
        "os.fork = lambda: threads.append(threading.active_count()) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert [main(argv) for argv in {argvs!r}] == [0, 0]\n"
        "print(threads)"
    )
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[1, 1]"  # the two sweep workers


def test_runs_do_not_load_numpy_ma(tmp_path):
    # np.percentile and np.unique import numpy.ma on first use (about 1.3
    # MiB); a Monte Carlo simulate, a sweep and acceptability call neither,
    # unless numpy already loads it on import (numpy 1.x does). No run
    # loads concurrent.futures or multiprocessing (17-27 ms): neither a
    # simulate, which forks nothing, nor a sweep that forks workers for
    # its cells.
    # The last sweep sees one usable CPU, so all three strategies run in
    # this process, where a numpy.ma import would show in sys.modules
    cfg = tmp_path / "config.json"
    config = dict(
        k_mean=0.05,
        n_agents=200,
        horizon_days=200,
        perception_threshold=5.0,
        strategy="threshold_c",
        repaint_fraction_weekly=0.05,
        replicates=20,
    )
    cfg.write_text(json.dumps(config))
    sweep = ["--fractions", "0.05,0.2", "--horizon", "200"]
    argvs = [
        ["simulate", str(cfg), "--out", str(tmp_path / "sim")],
        ["acceptability", str(data_path("acceptability_anchors.csv"))],
        ["sweep", str(cfg), *sweep, "--out", str(tmp_path / "sweep")],
    ]
    code = (
        "import sys, numpy\n"
        "on_import = 'numpy.ma' in sys.modules\n"
        "from heartfade.cli import main\n"
        f"assert [main(argv) for argv in {argvs[:2]!r}] == [0, 0]\n"
        "import os\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert main({argvs[0][:-1] + [str(tmp_path / 'two-cpus')]!r}) == 0\n"
        "assert forks == [], forks\n"
        f"assert main({argvs[2][:-1] + [str(tmp_path / 'parallel')]!r}) == 0\n"
        "assert forks == [1, 1], forks\n"
        "pool = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "assert not pool, pool\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        f"assert main({argvs[2]!r}) == 0\n"
        "print('numpy.ma', on_import, 'numpy.ma' in sys.modules)"
    )
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    _, on_import, loaded = out.stdout.splitlines()[-1].split()
    assert on_import == "True" or loaded == "False"


def test_only_a_process_that_simulates_loads_numpy_random():
    # numpy.random (about 5 MiB) is loaded by the process that steps a run,
    # and not by _forked: a parallel sweep's own process, which only waits,
    # never loads it, while run_simulation forks nothing and loads it here.
    # Each fork records whether it is loaded at that moment
    code = (
        "import os, sys\n"
        "import heartfade.simulate as simulate\n"
        "loaded, fork = [], os.fork\n"
        "os.fork = lambda: loaded.append('numpy.random' in sys.modules) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cfg = simulate.SimConfig(k_mean=0.041, n_agents=50, replicates=4, horizon_days=60)\n"
        "assert len(simulate.sweep_fractions(cfg, [0.1])) == 3\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
        "simulate.run_simulation(cfg)\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "[False, False] False",
        "[False, False] True",
    ]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_one_cpu_sweep_imports_no_fork_machinery():
    # a process held to one CPU runs its sweep's runs itself, so _forked
    # returns before it imports select and signal
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import heartfade.simulate as simulate\n"
        "cfg = simulate.SimConfig(k_mean=0.041, n_agents=5, replicates=2, horizon_days=30)\n"
        "assert len(simulate.sweep_fractions(cfg, [0.1])) == 3\n"
        "print(sorted({'select', 'signal'} & set(sys.modules)))\n"
    )
    src = str(Path(heartfade.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
            "config.json: invalid JSON config: not UTF-8: byte 0xff at offset 11",
        ),
        (
            "simulate",
            {"config.json": b'\xef\xbb\xbf{"k_mean": \xff}'},
            "config.json: invalid JSON config: not UTF-8: byte 0xff at offset 14",
        ),
        (
            "simulate",
            {"config.json": '\ufeff{"k_mean": 0.04}'.encode("utf-16-le")},
            "config.json: invalid JSON config: not UTF-8: byte 0xff at offset 0",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b"[]"},
            "win.json: invalid windows document: expected an object",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b'{"h\xff1": {}}'},
            "win.json: invalid windows document: not UTF-8: byte 0xff at offset 3",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b'\xef\xbb\xbf{"h\xff1": {}}'},
            "win.json: invalid windows document: not UTF-8: byte 0xff at offset 6",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": ("\ufeff" + GOOD_WINDOWS).encode("utf-16-le")},
            "win.json: invalid windows document: not UTF-8: byte 0xff at offset 0",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b'{"h1": 5}'},
            "win.json: invalid windows document: heart h1: window must be an "
            "object, got 5",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b'{"h1": [0, 1]}'},
            "win.json: invalid windows document: heart h1: window must be an "
            "object, got [0, 1]",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(), "win.json": b'{"h1": {"start_day": 0}}'},
            "win.json: invalid windows document: heart h1: end_day is missing",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"h1": {"start_day": 1e400, "end_day": 2}}'},
            "win.json: invalid windows document: heart h1: start_day must be an "
            "integer, got Infinity",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"h1": {"start_day": 0.9, "end_day": 350.9}}'},
            "win.json: invalid windows document: heart h1: start_day must be an "
            "integer, got 0.9",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"h1": {"start_day": true, "end_day": "300"}}'},
            "win.json: invalid windows document: heart h1: start_day must be an "
            "integer, got true",
        ),
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"h1": {"start_day": 0, "end_day": "300"}}'},
            'win.json: invalid windows document: heart h1: end_day must be an '
            'integer, got "300"',
        ),
        (
            "rate",
            {"obs.csv": b"date,L,a,b,source,heart_id\n2021-01-01,1,2,3\n",
             "win.json": GOOD_WINDOWS.encode()},
            "obs.csv: row 2: missing field(s): heart_id",
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
        # a line break in a message is printed as its escape
        (
            "rate",
            {"obs.csv": GOOD_OBS.encode(),
             "win.json": b'{"a\\nb": {"start_day": 0.5, "end_day": 3}}'},
            "win.json: invalid windows document: heart a\\nb: start_day must be an "
            "integer, got 0.5",
        ),
        (
            "rate",
            {"missing\n.csv": None, "win.json": GOOD_WINDOWS.encode()},
            "missing\\n.csv",
        ),
        (
            "rate",
            {"obs.csv": b'heart_id,date,L,a,b,source\n"a\nb",2021-05-01,1e308,0,0,x\n'
                        b'"a\nb",2021-05-01,1e308,0,0,x\n',
             "win.json": GOOD_WINDOWS.encode()},
            "obs.csv: heart a\\nb: mean LAB on 2021-05-01 is not finite",
        ),
        (
            "simulate --preset paint1-baseline",
            {"config.json": b'{"k_mean": 0.04}'},
            "give either a config file or --preset, not both",
        ),
        ("sweep", {}, "a config file or --preset is required"),
        (
            "calibrate --board-region 0,0,1,1 --reference-lab 50,0,0 "
            "--heart-region 1,1,2,2",
            {"wall.ppm": b"P3 1 1 255 1 2 3"},
            "expected ID:x,y,w,h heart region, got '1,1,2,2'",
        ),
    ],
    ids=["rate-utf8", "acceptability-utf8", "simulate-utf8", "simulate-utf8-bom",
         "simulate-utf16", "rate-windows-list", "rate-windows-utf8",
         "rate-windows-utf8-bom", "rate-windows-utf16", "rate-windows-int",
         "rate-windows-array", "rate-windows-no-end", "rate-windows-overflow",
         "rate-windows-float", "rate-windows-bool", "rate-windows-string",
         "rate-short-row", "rate-bare-cr", "acceptability-bare-cr",
         "rate-windows-newline-key", "rate-missing-newline-name",
         "rate-newline-heart-inf", "simulate-config-and-preset",
         "sweep-no-config", "calibrate-heart-region-no-id"],
)
def test_malformed_input_one_line_exit_2(tmp_path, capsys, command, files, message):
    """`command`, with its flags after the files; a file given as None is
    named but not written."""
    command, *flags = command.split()
    paths = []
    for name, data in files.items():
        if data is not None:
            (tmp_path / name).write_bytes(data)
        paths.append(str(tmp_path / name))
    extra = ["--baseline-lab", BASELINE] if command == "rate" else []
    out = tmp_path / "out"
    rc = main([command, *paths, *flags, *extra, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err, err
    assert not out.exists()
