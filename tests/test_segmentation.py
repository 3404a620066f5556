"""Tests for entropy computation, window selection, and segmentation.

Entropy values are checked against hand-computable histograms; window
selection is checked against a brute-force re-implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibgraph import segmentation as seg


def series(samples, labels=None):
    samples = np.asarray(samples, dtype=np.float64)
    if labels is None:
        labels = np.zeros(len(samples), dtype=np.int64)
    return seg.TimeSeries(samples=samples, labels=labels)


class TestTimeSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            seg.TimeSeries(samples=np.zeros(3), labels=np.zeros(2, dtype=int))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or inf"):
            series([1.0, bad])

    def test_len(self):
        assert len(series([1.0, 2.0, 3.0])) == 3


class TestShannonEntropy:
    def test_constant_is_zero(self):
        assert seg.shannon_entropy([2.0] * 10, 4) == 0.0

    def test_uniform_two_bins(self):
        # 5 values in each of 2 bins: H = ln 2
        vals = [0.0] * 5 + [1.0] * 5
        assert seg.shannon_entropy(vals, 2) == pytest.approx(math.log(2))

    def test_skewed_two_bins(self):
        # 1 low vs 9 high: H = -(0.1 ln 0.1 + 0.9 ln 0.9)
        vals = [0.0] + [1.0] * 9
        expect = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
        assert seg.shannon_entropy(vals, 2) == pytest.approx(expect)

    def test_matches_histogram_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.normal(size=50)
            bins = int(rng.integers(2, 12))
            counts, _ = np.histogram(vals, bins=bins,
                                     range=(vals.min(), vals.max()))
            p = counts[counts > 0] / counts.sum()
            assert seg.shannon_entropy(vals, bins) == pytest.approx(
                -(p * np.log(p)).sum())

    def test_max_is_log_bins(self):
        rng = np.random.default_rng(1)
        vals = rng.random(10000)
        h = seg.shannon_entropy(vals, 8)
        assert h <= math.log(8) + 1e-12
        assert h > 0.99 * math.log(8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            seg.shannon_entropy([], 2)


@st.composite
def windows_and_bins(draw):
    """An m x w matrix of windows and a bin count. The values are normal,
    integers (which tie), constant rows mixed with normal ones, or on the bin
    edges and one ulp either side of them, where np.histogram's index
    corrections decide the bin."""
    m, w, bins = draw(st.integers(1, 30)), draw(st.integers(2, 140)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "constant", "edges"]))
    if kind == "integer":
        V = rng.integers(-3, 4, size=(m, w)).astype(float)
    elif kind == "edges":
        V = np.empty((m, w))
        for row in V:
            lo, hi = np.sort(rng.normal(size=2) * 10.0 ** rng.integers(-3, 4))
            edges = np.linspace(lo, hi, bins + 1)
            pool = np.concatenate([edges, np.nextafter(edges, np.inf),
                                   np.nextafter(edges, -np.inf)])
            row[:] = rng.choice(pool[(pool >= lo) & (pool <= hi)], w)
            row[:2] = lo, hi
    else:
        V = rng.normal(size=(m, w)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    if kind == "constant":
        V[rng.random(m) < 0.5] = draw(st.floats(-10, 10))
    return V, bins


class TestWindowEntropies:
    """The batched histogram must give shannon_entropy's value for every row
    exactly, not approximately: select_window's argmax and the feature
    column both depend on the last bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(windows_and_bins())
    def test_equals_scalar_bit_for_bit(self, case):
        V, bins = case
        want = np.array([seg.shannon_entropy(row, bins) for row in V])
        got = seg.window_entropies(V, bins)
        assert got.tobytes() == want.tobytes()

    def test_select_window_scores_do_not_depend_on_the_chunk(self, monkeypatch):
        # 4 to 22 windows per candidate in chunks of 3: boundaries inside
        s = series(np.random.default_rng(5).normal(size=90))
        whole = seg.select_window(s, [5, 10, 20, 64], step=4).scores
        monkeypatch.setattr(seg, "_ROW_CHUNK", 3)
        assert seg.select_window(s, [5, 10, 20, 64], step=4).scores == whole

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError, match="empty segment"):
            seg.window_entropies(np.zeros((3, 0)), 2)

    def test_too_narrow_range_rejected_like_histogram(self):
        # a range of one ulp cannot hold 3 bins; np.histogram refuses it too,
        # in words that name neither the window nor the setting
        row = [1.0, np.nextafter(1.0, 2.0)]
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(row, bins=3, range=(min(row), max(row)))
        message = ("a window of 2 samples spans too narrow a range for "
                   "bin_count = 3 equal-width entropy bins")
        with pytest.raises(ValueError, match=message) as scalar:
            seg.shannon_entropy(row, 3)
        with pytest.raises(ValueError, match=message) as batched:
            seg.window_entropies(np.array([[0.0, 1.0], row]), 3)
        assert str(batched.value) == str(scalar.value)

    def test_bin_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="bin_count"):
            seg.window_entropies(np.ones((3, 4)), 0)
        with pytest.raises(ValueError, match="bin_count"):
            seg.average_entropy(series(np.arange(8.0)), 4, bin_count=0)


class TestDefaultBinCount:
    def test_sqrt_rule(self):
        assert seg.default_bin_count(16) == 4
        assert seg.default_bin_count(17) == 5

    def test_floor_of_two(self):
        assert seg.default_bin_count(2) == 2


class TestAverageEntropy:
    def test_single_window(self):
        s = series([0.0, 0.0, 1.0, 1.0])
        expect = seg.shannon_entropy(s.samples, seg.default_bin_count(4))
        assert seg.average_entropy(s, 4) == pytest.approx(expect)

    def test_mean_over_sliding_windows(self):
        s = series([0.0, 1.0, 0.0, 1.0, 5.0])
        w, bins = 3, 2
        expect = np.mean([seg.shannon_entropy(s.samples[i:i + 3], bins)
                          for i in range(3)])
        assert seg.average_entropy(s, w, step=1, bin_count=bins) == pytest.approx(expect)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            seg.average_entropy(series([1.0, 2.0]), 3)


class TestSelectWindow:
    def brute_force(self, s, candidates, step=1, bin_count=None):
        best_w, best_score = None, -np.inf
        for w in sorted(set(candidates)):
            bc = bin_count if bin_count is not None else seg.default_bin_count(w)
            ents = []
            for i in range(0, len(s) - w + 1, step):
                ents.append(seg.shannon_entropy(s.samples[i:i + w], bc))
            score = np.mean(ents) / math.log(w)
            if score > best_score:
                best_w, best_score = w, score
        return best_w

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            s = series(rng.normal(size=200))
            sel = seg.select_window(s, [4, 8, 16, 32])
            assert sel.w_star == self.brute_force(s, [4, 8, 16, 32])

    def test_tie_breaks_to_smallest(self):
        # constant series: every candidate scores 0, smallest must win
        sel = seg.select_window(series([1.0] * 50), [8, 4, 16])
        assert sel.w_star == 4

    def test_candidates_deduplicated_and_sorted(self):
        sel = seg.select_window(series(np.arange(50.0)), [8, 4, 8, 4])
        assert sel.candidates == [4, 8]

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            seg.select_window(series(np.arange(50.0)), [1, 4])

    def test_rejects_oversized_candidate(self):
        with pytest.raises(ValueError):
            seg.select_window(series(np.arange(10.0)), [4, 64])


class TestWindows:
    def test_rows_are_strided_slices(self):
        np.testing.assert_array_equal(seg.windows(np.arange(7.0), 3, 2),
                                      [[0, 1, 2], [2, 3, 4], [4, 5, 6]])

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            seg.windows(np.arange(7.0), 3, 0)


class TestSegment:
    def test_counts_and_starts(self):
        s = series(np.arange(10.0))
        values, starts, labels = seg.segment(s, 4, 2)
        assert starts.tolist() == [0, 2, 4, 6]
        assert values.shape == (4, 4) and labels.shape == (4,)
        np.testing.assert_array_equal(values[1], [2.0, 3.0, 4.0, 5.0])

    def test_majority_label(self):
        labels = np.array([0, 0, 1, 1, 1, 2])
        s = series(np.zeros(6), labels)
        _, _, out = seg.segment(s, 6, 6)
        assert out.tolist() == [1]

    def test_label_tie_lowest_class(self):
        labels = np.array([2, 2, 1, 1])
        s = series(np.zeros(4), labels)
        assert seg.segment(s, 4, 4)[2].tolist() == [1]

    def test_values_are_copies(self):
        s = series(np.arange(6.0))
        values, _, _ = seg.segment(s, 3, 3)
        values[0, 0] = 99.0
        assert s.samples[0] == 0.0


class TestDefaultStride:
    def test_half_rounded_up(self):
        assert seg.default_stride(5) == 3
        assert seg.default_stride(8) == 4
