import datetime

import numpy as np
import pytest

from heartfade.color import LabColor, LabOffset, delta_e, srgb_to_lab, SrgbColor
from heartfade.ingest import (
    ObservationError,
    PixelGrid,
    PpmError,
    Region,
    RegionError,
    build_series,
    load_observations,
    mean_lab_of_region,
    parse_ppm,
)
from ppm_codec import encode_p3, encode_p6, pixel

ZERO = LabOffset(0, 0, 0)
BASELINE = LabColor(49.3, 46.3, 20.5)
EPOCH = datetime.date(1970, 1, 1)


def uniform_grid(w, h, rgb):
    pixels = np.tile(np.array(rgb, dtype=np.uint8), (h, w, 1))
    return PixelGrid(w, h, pixels)


class TestParsePpm:
    def test_p3_single_pixel(self):
        grid = parse_ppm(b"P3 1 1 255 194 80 85")
        assert (grid.width, grid.height) == (1, 1)
        assert pixel(grid, 0, 0) == SrgbColor(194, 80, 85)

    def test_p6_matches_p3(self):
        p3 = b"P3\n2 2\n255\n1 2 3 4 5 6 7 8 9 10 11 12\n"
        p6 = b"P6\n2 2\n255\n" + bytes(range(1, 13))
        assert np.array_equal(parse_ppm(p3).pixels, parse_ppm(p6).pixels)

    def test_comments_in_header(self):
        data = b"P3 # ascii\n# size follows\n1 1\n255\n10 20 30\n"
        assert pixel(parse_ppm(data), 0, 0) == SrgbColor(10, 20, 30)

    def test_greyscale_magic_rejected(self):
        with pytest.raises(PpmError, match="unsupported format"):
            parse_ppm(b"P5 1 1 255 0")

    def test_bad_maxval(self):
        with pytest.raises(PpmError, match="maxval"):
            parse_ppm(b"P3 1 1 65535 0 0 0")

    def test_truncated_binary_reports_offset(self):
        data = b"P6\n2 1\n255\nABC"
        with pytest.raises(PpmError, match="truncated") as exc:
            parse_ppm(data)
        assert exc.value.offset == len(data)

    def test_truncated_ascii(self):
        with pytest.raises(PpmError, match="truncated"):
            parse_ppm(b"P3 2 1 255 1 2 3")

    def test_header_claiming_more_samples_than_held(self):
        data = b"P3 100000 100000 255 1 2 3"
        with pytest.raises(PpmError) as exc:
            parse_ppm(data)
        assert str(exc.value) == (
            f"truncated pixel data: expected 30000000000 samples, got 3 "
            f"(byte offset {len(data)})"
        )

    def test_comments_in_raster(self):
        data = b"P3 1 1 255\n10 # 99 99\n20\n#\n30 # end"
        assert pixel(parse_ppm(data), 0, 0) == SrgbColor(10, 20, 30)

    def test_bad_sample_reports_its_offset(self):
        data = b"P3 1 1 255 1 +2 256 7"
        with pytest.raises(PpmError, match="sample 256 outside") as exc:
            parse_ppm(data)
        assert exc.value.offset == data.index(b"256")

    def test_roundtrip_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w, h = rng.integers(1, 9, size=2)
            pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            grid = PixelGrid(int(w), int(h), pixels)
            assert np.array_equal(parse_ppm(encode_p3(grid)).pixels, grid.pixels)
            assert np.array_equal(parse_ppm(encode_p6(grid)).pixels, grid.pixels)


class TestRegionMean:
    def test_uniform_fresh_paint(self):
        grid = uniform_grid(4, 4, (194, 80, 85))
        lab = mean_lab_of_region(grid, Region(0, 0, 4, 4), ZERO)
        assert delta_e(lab, BASELINE) < 2.0

    def test_zero_area_region(self):
        grid = uniform_grid(4, 4, (10, 10, 10))
        with pytest.raises(RegionError, match="zero area"):
            mean_lab_of_region(grid, Region(0, 0, 0, 2), ZERO)

    def test_out_of_bounds_region(self):
        grid = uniform_grid(4, 4, (10, 10, 10))
        with pytest.raises(RegionError, match="outside"):
            mean_lab_of_region(grid, Region(2, 2, 4, 4), ZERO)

    def test_half_and_half_mean(self):
        pixels = np.zeros((2, 2, 3), dtype=np.uint8)
        pixels[:, 0] = (200, 40, 40)
        pixels[:, 1] = (90, 120, 200)
        grid = PixelGrid(2, 2, pixels)
        got = mean_lab_of_region(grid, Region(0, 0, 2, 2), ZERO)
        a = srgb_to_lab(SrgbColor(200, 40, 40))
        b = srgb_to_lab(SrgbColor(90, 120, 200))
        expected = LabColor((a.L + b.L) / 2, (a.a + b.a) / 2, (a.b + b.b) / 2)
        assert delta_e(got, expected) < 1e-9

    def test_single_pixel_equals_conversion_plus_offset(self):
        grid = uniform_grid(3, 3, (120, 30, 60))
        off = LabOffset(1.5, -2.0, 0.5)
        got = mean_lab_of_region(grid, Region(1, 1, 1, 1), off)
        base = srgb_to_lab(SrgbColor(120, 30, 60))
        assert got.L == pytest.approx(base.L + 1.5)
        assert got.a == pytest.approx(base.a - 2.0)
        assert got.b == pytest.approx(base.b + 0.5)


class TestLoadObservations:
    def test_single_row(self):
        cols = load_observations(
            "heart_id,date,L,a,b,source\nh1,2021-09-02,49.3,46.3,20.5,instagram\n"
        )
        assert len(cols) == 1
        assert cols.heart_ids == ["h1"] and cols.heart.tolist() == [0]
        assert cols.day.tolist() == [(datetime.date(2021, 9, 2) - EPOCH).days]
        assert cols.lab.tolist() == [[49.3, 46.3, 20.5]]

    def test_month_only_date_rejected(self):
        with pytest.raises(ObservationError, match="row 2"):
            load_observations("heart_id,date,L,a,b,source\nh1,2021-09,49,46,20,x\n")

    def test_header_only(self):
        cols = load_observations("heart_id,date,L,a,b,source\n")
        assert len(cols) == 0 and cols.heart_ids == []
        assert cols.lab.shape == (0, 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a row too short for a column that is read; blank lines are not rows
            ("date,L,a,b,source,heart_id\n2021-01-01,1,2,3\n", "row 2: missing field(s): heart_id"),
            ("heart_id,date,L,a,b,source\nh1,2021-01-01,1,2\n", "row 2: missing field(s): b"),
            ("heart_id,date,L,a,b,source\n\nh1,2021-01-01,1,2,3\nh1\n", "row 3: missing field(s): date, L, a, b"),
            # row 2's date comes before its value and the rows after it
            ("heart_id,date,L,a,b,source\nh1,2021-9-1,x,2,3,s\nh1\n", "row 2: date '2021-9-1' is not a full YYYY-MM-DD date"),
        ],
    )
    def test_first_bad_row_reported(self, text, message):
        with pytest.raises(ObservationError) as raised:
            load_observations(text)
        assert str(raised.value) == message

    def test_missing_column(self):
        with pytest.raises(ObservationError, match="missing column"):
            load_observations("heart_id,date,L,a,b\nh1,2021-09-02,49,46,20\n")

    def test_non_numeric_lab(self):
        with pytest.raises(ObservationError, match="non-numeric"):
            load_observations("heart_id,date,L,a,b,source\nh1,2021-09-02,x,46,20,s\n")

    def test_utf8_bom_is_dropped(self):
        """A spreadsheet's "CSV UTF-8" export starts with a BOM."""
        text = "heart_id,date,L,a,b,source\nh1,2021-09-02,49.3,46.3,20.5,x\n"
        got = load_observations(b"\xef\xbb\xbf" + text.encode())
        want = load_observations(text)
        assert got.heart_ids == want.heart_ids == ["h1"]
        for name in ("heart", "day", "lab"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_utf8_bom_is_dropped_from_text(self):
        """A BOM file read as text (encoding="utf-8") keeps its U+FEFF."""
        text = "heart_id,date,L,a,b,source\nh1,2021-09-02,49.3,46.3,20.5,x\n"
        got, want = load_observations("\ufeff" + text), load_observations(text)
        assert got.heart_ids == want.heart_ids == ["h1"]
        for name in ("heart", "day", "lab"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_not_utf8_after_bom_counts_from_first_byte(self):
        with pytest.raises(ObservationError) as raised:
            load_observations(b"\xef\xbb\xbfheart_id\xff")
        assert str(raised.value) == "not UTF-8: byte 0xff at offset 11"

    @pytest.mark.parametrize(
        "data",
        [
            b"heart_id,date,L,a,b\r0",  # a bare carriage return in the header
            b"heart_id,date,L,a,b,source\nh1," + b"x" * 200_000 + b"\n",  # oversized
        ],
    )
    def test_text_csv_cannot_split_is_observation_error(self, data):
        with pytest.raises(ObservationError, match="field|new-line"):
            load_observations(data)


def obs(heart, date, L, a=46.3, b=20.5):
    return f"{heart},{date},{L!r},{a!r},{b!r},photo\n"


def series_of(rows):
    """build_series over a table of `obs` rows, as {heart_id: [(day, delta_e)]}
    in order of first occurrence."""
    cols = load_observations("heart_id,date,L,a,b,source\n" + "".join(rows))
    heart, day, delta = build_series(cols, BASELINE)
    assert heart.tolist() == sorted(heart.tolist())
    return {
        heart_id: list(zip(day[heart == i].tolist(), delta[heart == i].tolist()))
        for i, heart_id in enumerate(cols.heart_ids)
    }


class TestBuildSeries:
    def test_single_observation_at_baseline(self):
        assert series_of([obs("h1", "2021-05-01", 49.3)]) == {"h1": [(0, 0.0)]}

    def test_lightness_shift_is_delta_e(self):
        series = series_of([obs("h1", "2021-05-01", 59.3)])
        assert series["h1"][0] == (0, pytest.approx(10.0))

    def test_interleaved_hearts_sorted(self):
        rows = [
            obs("h1", "2021-06-01", 50.0),
            obs("h2", "2021-05-01", 51.0),
            obs("h1", "2021-05-10", 49.5),
            obs("h2", "2021-07-01", 52.0),
        ]
        series = series_of(rows)
        assert list(series) == ["h1", "h2"]
        for points in series.values():
            days = [d for d, _ in points]
            assert days[0] == 0
            assert days == sorted(days)

    def test_same_date_merged_in_lab(self):
        rows = [obs("h1", "2021-05-01", 49.3), obs("h1", "2021-05-01", 59.3)]
        # LAB mean is L=54.3 -> delta E 5, not the mean of the delta Es
        assert series_of(rows) == {"h1": [(0, pytest.approx(5.0))]}

    def test_point_count_never_exceeds_input(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(60):
            day = int(rng.integers(0, 10))
            rows.append(obs("h1", f"2021-05-{day + 1:02d}", float(rng.uniform(45, 60))))
        assert sum(map(len, series_of(rows).values())) <= len(rows)

    def test_empty_input(self):
        assert series_of([]) == {}
