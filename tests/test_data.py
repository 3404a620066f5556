"""Tests for manifest-driven ingestion and block reduction."""

import numpy as np
import pytest

from vibgraph import data as dt


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


class TestLoadRecordings:
    def test_csv_channel_selection(self, tmp_path):
        write_csv(tmp_path, "two.csv", np.arange(8.0), n_cols=2)
        path = write_manifest(tmp_path, ["two.csv,1,0,loadA"])
        recs = dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        np.testing.assert_array_equal(recs[0].samples, [1.0, 3.0, 5.0, 7.0])

    def test_binary_little_endian_float64(self, tmp_path):
        values = np.array([1.5, -2.25, 3.0])
        (tmp_path / "x.bin").write_bytes(values.astype("<f8").tobytes())
        path = write_manifest(tmp_path, ["x.bin,0,1,loadA"])
        recs = dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        np.testing.assert_array_equal(recs[0].samples, values)

    @pytest.mark.parametrize("ext", [".bin", ".f64", ".raw"])
    def test_binary_tofile_round_trip(self, tmp_path, ext):
        values = np.random.default_rng(0).normal(size=37)
        values.astype("<f8").tofile(tmp_path / f"x{ext}")
        path = write_manifest(tmp_path, [f"x{ext},0,1,loadA"])
        recs = dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        np.testing.assert_array_equal(recs[0].samples, values)

    def test_binary_partial_sample_rejected(self, tmp_path):
        # np.fromfile would drop the 3 stray bytes and read 3 samples
        binary = tmp_path / "x.bin"
        binary.write_bytes(np.array([1.5, -2.25, 3.0]).astype("<f8").tobytes() + b"abc")
        path = write_manifest(tmp_path, ["x.bin,0,1,loadA"])
        with pytest.raises(ValueError) as info:
            dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        assert str(info.value) == (f"{binary}: 27 bytes is not a whole number "
                                   "of 8-byte float64 samples")

    def test_binary_channel_other_than_zero_rejected(self, tmp_path):
        binary = tmp_path / "x.bin"
        np.arange(4.0).tofile(binary)
        path = write_manifest(tmp_path, ["x.bin,1,1,loadA"])
        with pytest.raises(ValueError) as info:
            dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        assert str(info.value) == (f"{binary}: a binary recording holds one "
                                   "channel, so channel must be 0, got 1")

    def test_nan_dropped_and_logged(self, tmp_path, caplog):
        write_csv(tmp_path, "n.csv", [1.0, np.nan, 3.0])
        path = write_manifest(tmp_path, ["n.csv,0,0,loadA"])
        import logging
        with caplog.at_level(logging.INFO, logger="vibgraph"):
            recs = dt.load_recordings(str(tmp_path), dt.read_manifest(path))
        np.testing.assert_array_equal(recs[0].samples, [1.0, 3.0])
        assert any("NaN" in r.message for r in caplog.records)

    def test_missing_file(self, tmp_path):
        path = write_manifest(tmp_path, ["ghost.csv,0,0,loadA"])
        with pytest.raises(FileNotFoundError):
            dt.load_recordings(str(tmp_path), dt.read_manifest(path))

    def test_unparsable_value(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1.0\noops\n")
        path = write_manifest(tmp_path, ["bad.csv,0,0,loadA"])
        with pytest.raises(ValueError):
            dt.load_recordings(str(tmp_path), dt.read_manifest(path))


class TestBlockReduce:
    def rec(self, samples, fault_class=2):
        return dt.RawRecording(samples=samples, fault_class=fault_class,
                               load_tag="loadA")

    def test_rms_default(self):
        out = dt.block_reduce(self.rec([3.0, 4.0, 0.0, 0.0]), block=2)
        np.testing.assert_allclose(out.samples,
                                   [np.sqrt(12.5), 0.0])

    def test_mean_reducer(self):
        out = dt.block_reduce(self.rec([1.0, 3.0, 5.0, 7.0]), block=2,
                              reducer="mean")
        np.testing.assert_array_equal(out.samples, [2.0, 6.0])

    def test_first_reducer(self):
        out = dt.block_reduce(self.rec([1.0, 3.0, 5.0, 7.0]), block=2,
                              reducer="first")
        np.testing.assert_array_equal(out.samples, [1.0, 5.0])

    def test_remainder_dropped(self):
        out = dt.block_reduce(self.rec(np.arange(7.0)), block=3, reducer="mean")
        assert len(out) == 2

    def test_labels_carry_fault_class(self):
        out = dt.block_reduce(self.rec(np.arange(4.0), fault_class=5), block=2)
        np.testing.assert_array_equal(out.labels, [5, 5])

    def test_short_recording_rejected(self):
        with pytest.raises(ValueError):
            dt.block_reduce(self.rec([1.0]), block=1024)

    def test_unknown_reducer(self):
        with pytest.raises(ValueError):
            dt.block_reduce(self.rec(np.arange(4.0)), block=2, reducer="max")


class TestAssembleDataset:
    def recs(self):
        out = []
        for load in ("loadA", "loadB"):
            for cls in (0, 1):
                out.append(dt.RawRecording(samples=np.arange(4.0) + cls,
                                           fault_class=cls, load_tag=load))
        return out

    def test_per_load_series(self):
        series = dt.assemble_dataset(self.recs(), block=2, reducer="mean")
        assert set(series) == {"loadA", "loadB"}
        assert len(series["loadA"]) == 4           # two recordings x two blocks
        np.testing.assert_array_equal(series["loadA"].labels, [0, 0, 1, 1])

    def test_missing_class_in_one_load_rejected(self):
        recs = self.recs()[:-1]    # loadB lost class 1
        with pytest.raises(ValueError):
            dt.assemble_dataset(recs, block=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dt.assemble_dataset([])
