"""Tests for manifest-driven ingestion and block reduction."""

import logging
import tracemalloc
import warnings

import numpy as np
import pytest

from vibgraph import data as dt, pipeline


def write_manifest(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    path.write_text("file,channel,fault_class,load_tag\n"
                    + "\n".join(rows) + "\n")
    return str(path)


def write_csv(tmp_path, name, values, n_cols=1):
    path = tmp_path / name
    lines = []
    for v in np.atleast_2d(np.asarray(values, float).reshape(-1, n_cols)):
        lines.append(",".join(repr(float(x)) for x in v))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReadManifest:
    def test_parses_entries(self, tmp_path):
        path = write_manifest(tmp_path, ["a.csv,0,3,loadA", "b.bin,1,0,loadB"])
        entries = dt.read_manifest(path)
        assert len(entries) == 2
        assert entries[0].file == "a.csv"
        assert entries[0].fault_class == 3
        assert entries[1].channel == 1
        assert entries[1].load_tag == "loadB"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file,fault_class\na.csv,0\n")
        with pytest.raises(ValueError):
            dt.read_manifest(str(path))

    def test_class_range_validated(self, tmp_path):
        path = write_manifest(tmp_path, ["a.csv,0,10,loadA"])
        with pytest.raises(ValueError):
            dt.read_manifest(path, n_classes=10)

    def test_empty_manifest_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [])
        with pytest.raises(ValueError):
            dt.read_manifest(path)

    def test_unnamed_column_may_stay_empty(self, tmp_path):
        # a trailing comma on the header adds a column with no name
        path = tmp_path / "manifest.csv"
        path.write_text("file,channel,fault_class,load_tag,\na.csv,0,1,loadA\n")
        assert dt.read_manifest(str(path))[0].load_tag == "loadA"

    @pytest.mark.parametrize("row, says", [
        ("short_row", "no value for channel, fault_class, load_tag"),
        ("a.csv,0,1", "no value for load_tag"),
        ("a.csv,,1,loadA", "no value for channel"),
        ("a.csv,-1,1,loadA", "channel must be >= 0, got -1"),
        ("a.csv,x,1,loadA", "channel must be an integer, got 'x'"),
        ("a.csv,0,1.5,loadA", "fault_class must be an integer, got '1.5'"),
        ("a.csv,0,1," + "x" * 131073, "field larger than field limit (131072)"),
    ], ids=["one_field", "no_load_tag", "empty_channel", "negative_channel",
            "channel_not_integer", "class_not_integer", "field_over_csv_limit"])
    def test_bad_row_names_its_line(self, tmp_path, row, says):
        path = write_manifest(tmp_path, ["good.csv,0,1,loadA", row])
        with pytest.raises(ValueError) as info:
            dt.read_manifest(path)
        message = str(info.value)
        assert message == f"{path}:3: {says}" and "\n" not in message


def load(tmp_path, rows, block=1, reducer="mean"):
    """load_series over a manifest of ``rows``; block 1 with the mean keeps
    every sample as read."""
    path = write_manifest(tmp_path, rows)
    return dt.load_series(str(tmp_path), dt.read_manifest(path), block, reducer)


class TestLoadRecordings:
    """load_series reading one recording."""

    def test_csv_channel_selection(self, tmp_path):
        write_csv(tmp_path, "two.csv", np.arange(8.0), n_cols=2)
        series = load(tmp_path, ["two.csv,1,0,loadA"])
        np.testing.assert_array_equal(series["loadA"].samples, [1.0, 3.0, 5.0, 7.0])

    def test_binary_little_endian_float64(self, tmp_path):
        values = np.array([1.5, -2.25, 3.0])
        (tmp_path / "x.bin").write_bytes(values.astype("<f8").tobytes())
        series = load(tmp_path, ["x.bin,0,1,loadA"])
        np.testing.assert_array_equal(series["loadA"].samples, values)

    @pytest.mark.parametrize("ext", [".bin", ".f64", ".raw"])
    def test_binary_tofile_round_trip(self, tmp_path, ext):
        values = np.random.default_rng(0).normal(size=37)
        values.astype("<f8").tofile(tmp_path / f"x{ext}")
        series = load(tmp_path, [f"x{ext},0,1,loadA"])
        np.testing.assert_array_equal(series["loadA"].samples, values)

    def test_binary_partial_sample_rejected(self, tmp_path):
        # np.fromfile would drop the 3 stray bytes and read 3 samples
        binary = tmp_path / "x.bin"
        binary.write_bytes(np.array([1.5, -2.25, 3.0]).astype("<f8").tobytes() + b"abc")
        with pytest.raises(ValueError) as info:
            load(tmp_path, ["x.bin,0,1,loadA"])
        assert str(info.value) == (f"{binary}: 27 bytes is not a whole number "
                                   "of 8-byte float64 samples")

    def test_binary_channel_other_than_zero_rejected(self, tmp_path):
        binary = tmp_path / "x.bin"
        np.arange(4.0).tofile(binary)
        with pytest.raises(ValueError) as info:
            load(tmp_path, ["x.bin,1,1,loadA"])
        assert str(info.value) == (f"{binary}: a binary recording holds one "
                                   "channel, so channel must be 0, got 1")

    def test_nan_dropped_and_logged(self, tmp_path, caplog):
        write_csv(tmp_path, "n.csv", [1.0, np.nan, 3.0])
        with caplog.at_level(logging.INFO, logger="vibgraph"):
            series = load(tmp_path, ["n.csv,0,0,loadA"])
        np.testing.assert_array_equal(series["loadA"].samples, [1.0, 3.0])
        assert [r.message for r in caplog.records] == [
            "NaN removal: dropped 1 of 3 samples from n.csv"]

    def test_empty_after_nan_removal_rejected(self, tmp_path):
        write_csv(tmp_path, "n.csv", [np.nan, np.nan])
        with pytest.raises(ValueError) as info:
            load(tmp_path, ["n.csv,0,0,loadA"])
        assert str(info.value) == "n.csv: empty after NaN removal"

    @pytest.mark.parametrize("name", ["a.bin", "a.csv"])
    def test_file_without_samples_rejected(self, tmp_path, name):
        (tmp_path / name).write_bytes(b"")
        with pytest.raises(ValueError) as info:
            load(tmp_path, [f"{name},0,0,loadA"])
        assert str(info.value) == f"{name}: holds no samples"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path, ["ghost.csv,0,0,loadA"])

    def test_unparsable_value(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1.0\noops\n")
        with pytest.raises(ValueError):
            load(tmp_path, ["bad.csv,0,0,loadA"])


class TestBlockReduce:
    def test_rms_default(self):
        out = dt.block_reduce(np.array([3.0, 4.0, 0.0, 0.0]), block=2)
        np.testing.assert_allclose(out, [np.sqrt(12.5), 0.0])

    def test_mean_reducer(self):
        out = dt.block_reduce(np.array([1.0, 3.0, 5.0, 7.0]), block=2, reducer="mean")
        np.testing.assert_array_equal(out, [2.0, 6.0])

    def test_first_reducer(self):
        samples = np.array([1.0, 3.0, 5.0, 7.0])
        out = dt.block_reduce(samples, block=2, reducer="first")
        np.testing.assert_array_equal(out, [1.0, 5.0])
        assert not np.shares_memory(out, samples)

    def test_remainder_dropped(self):
        out = dt.block_reduce(np.arange(7.0), block=3, reducer="mean")
        np.testing.assert_array_equal(out, [1.0, 4.0])

    def test_labels_carry_fault_class(self, tmp_path):
        write_csv(tmp_path, "a.csv", np.arange(5.0))
        series = load(tmp_path, ["a.csv,0,5,loadA"], block=2)
        np.testing.assert_array_equal(series["loadA"].labels, [5, 5])

    def test_short_recording_rejected(self):
        with pytest.raises(ValueError):
            dt.block_reduce(np.array([1.0]), block=1024)

    def test_unknown_reducer(self):
        with pytest.raises(ValueError):
            dt.block_reduce(np.arange(4.0), block=2, reducer="max")

    @pytest.mark.parametrize("samples, says", [
        ([1.0, np.inf, 2.0, 3.0], "holds an infinite sample; preprocess first"),
        ([1e200, 1e200, 2.0, 3.0],
         "the rms of a 2-sample block overflows float64; preprocess first"),
    ], ids=["infinite_sample", "overflow"])
    def test_non_finite_block_names_its_file(self, tmp_path, samples, says):
        np.array(samples).tofile(tmp_path / "a.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy prints no RuntimeWarning
            with pytest.raises(ValueError) as info:
                load(tmp_path, ["a.bin,0,0,loadA"], block=2, reducer="rms")
        assert str(info.value) == f"a.bin: {says}"


class TestAssembleDataset:
    """load_series assembling each load's series."""

    ROWS = [f"{load}_{cls}.csv,0,{cls},{load}"
            for load in ("loadA", "loadB") for cls in (0, 1)]

    def write_recordings(self, tmp_path):
        for row in self.ROWS:
            cls = int(row.split(",")[2])
            write_csv(tmp_path, row.split(",")[0], np.arange(4.0) + cls)

    def test_per_load_series(self, tmp_path):
        self.write_recordings(tmp_path)
        series = load(tmp_path, self.ROWS, block=2)
        assert list(series) == ["loadA", "loadB"]
        assert len(series["loadA"]) == 4           # two recordings x two blocks
        np.testing.assert_array_equal(series["loadA"].samples, [0.5, 2.5, 1.5, 3.5])
        np.testing.assert_array_equal(series["loadA"].labels, [0, 0, 1, 1])
        assert series["loadB"].source_id == "loadB"

    def test_missing_class_in_one_load_rejected(self, tmp_path):
        self.write_recordings(tmp_path)
        with pytest.raises(ValueError) as info:
            load(tmp_path, self.ROWS[:-1], block=2)    # loadB lost class 1
        assert str(info.value) == "load 'loadB' has zero recordings for classes [1]"

    def test_class_gap_refused_before_any_read(self, tmp_path, monkeypatch):
        def no_reading(path, channel):
            raise AssertionError(f"read {path}")
        monkeypatch.setattr(dt, "_read_samples", no_reading)
        with pytest.raises(ValueError, match="zero recordings for classes"):
            load(tmp_path, self.ROWS[:-1], block=2)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dt.load_series(str(tmp_path), [])


@pytest.mark.parametrize("reducer", ["rms", "mean", "first"])
def test_one_raw_recording_held_at_a_time(tmp_path, reducer):
    n_samples = 200_000
    rows = []
    for i in range(6):
        load_tag, cls = f"load{i % 2}", i // 2
        np.random.default_rng(i).normal(size=n_samples).tofile(tmp_path / f"r{i}.bin")
        rows.append(f"r{i}.bin,0,{cls},{load_tag}")
    write_manifest(tmp_path, rows)
    cfg = dict(pipeline.DEFAULT_CONFIG, data_dir=str(tmp_path), block_size=1024,
               reducer=reducer)
    tracemalloc.start()
    try:
        series = pipeline.load_series_by_load(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(s) for s in series.values()] == [3 * (n_samples // 1024)] * 2
    assert peak < 3 * n_samples * 8
