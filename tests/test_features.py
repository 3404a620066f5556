"""Tests for the 10-dim segment feature vector and min-max scaling.

Statistical moments are checked on closed-form cases; the periodogram
features against a direct DFT of a pure tone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibgraph import features as ft
from vibgraph.segmentation import shannon_entropy, default_bin_count


class TestStatFeatures:
    def test_constant_segment(self):
        mean, std, skew, kurt = ft.stat_features([3.0] * 8)
        assert (mean, std, skew, kurt) == (3.0, 0.0, 0.0, 0.0)

    def test_population_std(self):
        # population (not sample) std: sqrt(mean of squared deviations)
        _, std, _, _ = ft.stat_features([0.0, 2.0])
        assert std == pytest.approx(1.0)

    def test_symmetric_has_zero_skew(self):
        _, _, skew, _ = ft.stat_features([-2.0, -1.0, 1.0, 2.0])
        assert skew == pytest.approx(0.0, abs=1e-12)

    def test_two_point_kurtosis(self):
        # symmetric two-point distribution has kurtosis exactly 1 (non-excess)
        _, _, _, kurt = ft.stat_features([-1.0, 1.0, -1.0, 1.0])
        assert kurt == pytest.approx(1.0)

    def test_gaussian_kurtosis_near_three(self):
        vals = np.random.default_rng(0).standard_normal(200000)
        _, _, _, kurt = ft.stat_features(vals)
        assert kurt == pytest.approx(3.0, abs=0.05)

    def test_moment_oracle(self):
        vals = np.random.default_rng(1).normal(2.0, 3.0, size=100)
        mean, std, skew, kurt = ft.stat_features(vals)
        c = vals - vals.mean()
        sigma = np.sqrt((c ** 2).mean())
        assert mean == pytest.approx(vals.mean())
        assert std == pytest.approx(sigma)
        assert skew == pytest.approx((c ** 3).mean() / sigma ** 3)
        assert kurt == pytest.approx((c ** 4).mean() / sigma ** 4)


class TestTemporalFeatures:
    def test_linear_ramp(self):
        d1, d2 = ft.temporal_features([0.0, 2.0, 4.0, 6.0])
        assert d1 == pytest.approx(2.0)
        assert d2 == pytest.approx(0.0)

    def test_quadratic(self):
        vals = np.arange(6.0) ** 2
        d1, d2 = ft.temporal_features(vals)
        assert d1 == pytest.approx(np.diff(vals).mean())
        assert d2 == pytest.approx(2.0)


class TestPsdTop3:
    def test_pure_tone_amplitude(self):
        # A*sin at an exact bin: periodogram peak = (A*w/2)^2 / w = A^2 w / 4
        w, A, k = 64, 2.0, 8
        tone = A * np.sin(2 * np.pi * k * np.arange(w) / w)
        p1, p2, p3 = ft.psd_top3(tone)
        assert p1 == pytest.approx(A ** 2 * w / 4, rel=1e-9)
        assert p2 == pytest.approx(0.0, abs=1e-18)
        assert p3 == pytest.approx(0.0, abs=1e-18)

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        p = ft.psd_top3(rng.normal(size=50))
        assert p[0] >= p[1] >= p[2]

    def test_dc_excluded(self):
        # huge offset must not leak into the spectral features
        w = 32
        base = np.sin(2 * np.pi * 4 * np.arange(w) / w)
        a = ft.psd_top3(base)
        b = ft.psd_top3(base + 1000.0)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_short_segment_pads_zeros(self):
        # w=4 -> rfft gives 3 bins, 2 after dropping DC -> third amp is 0
        p = ft.psd_top3([0.0, 1.0, 0.0, -1.0])
        assert p[2] == 0.0


def per_window_row(values, bin_count):
    """The feature row of one window from numpy scalars: ``std ** 3`` on a
    numpy float64 is C pow, and the entropy is shannon_entropy's.
    feature_matrix must match it bit for bit, since graph files embed the
    features and perfbench pins their sha256."""
    values = np.asarray(values, dtype=np.float64)
    w = values.size
    mean = values.mean()
    centered = values - mean
    std = np.sqrt((centered ** 2).mean())
    if std == 0:
        moments = [mean, 0.0, 0.0, 0.0]
    else:
        moments = [mean, std, (centered ** 3).mean() / std ** 3,
                   (centered ** 4).mean() / std ** 4]
    d1 = np.diff(values)
    psd = ((np.abs(np.fft.rfft(values - values.mean())) ** 2) / w)[1:]
    top = np.sort(psd)[::-1][:3]
    amps = np.zeros(3)
    amps[:top.size] = top
    return np.array(moments + [shannon_entropy(values, bin_count),
                               d1.mean(), np.diff(d1).mean(), *amps])


@st.composite
def window_matrices(draw):
    """An m x w matrix of normal, integer-valued, constant or large-offset
    windows; constant rows are mixed into the other kinds too."""
    m, w = draw(st.integers(1, 12)), draw(st.integers(4, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "constant", "offset"]))
    if kind == "integer":
        V = rng.integers(-3, 4, size=(m, w)).astype(float)
    elif kind == "constant":
        V = np.repeat(rng.normal(size=(m, 1)) * 10.0 ** rng.integers(-3, 4), w, axis=1)
    else:
        V = rng.normal(size=(m, w)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
        if kind == "offset":
            V += draw(st.sampled_from([1e3, 1e9, -1e9]))
    V[rng.random(m) < 0.2] = draw(st.floats(-10, 10))
    return V


class TestSegmentFeatures:
    def test_layout_matches_parts(self):
        vals = np.random.default_rng(3).normal(size=40)
        row = ft.feature_matrix(vals[None])[0]
        assert row.shape == (ft.FEATURE_DIM,)
        assert tuple(row[0:4]) == ft.stat_features(vals)
        assert row[4] == shannon_entropy(vals, default_bin_count(40))
        assert tuple(row[5:7]) == ft.temporal_features(vals)
        assert tuple(row[7:10]) == ft.psd_top3(vals)

    def test_matrix_stacks_rows(self):
        rng = np.random.default_rng(0)
        # normal windows, integer windows (values on bin edges), a constant one
        values = np.vstack([rng.normal(size=(4, 20)),
                            rng.integers(-2, 3, size=(3, 20)), np.full((1, 20), 0.5)])
        M = ft.feature_matrix(values)
        assert M.shape == (8, 10)
        np.testing.assert_array_equal(M, [ft.feature_matrix(row[None])[0] for row in values])
        np.testing.assert_array_equal(M[-1, 1:4], 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(window_matrices())
    def test_equals_per_window_rows_bit_for_bit(self, V):
        bins = default_bin_count(V.shape[1])
        want = np.array([per_window_row(row, bins) for row in V])
        got = ft.feature_matrix(V)
        # a constant window of tiny values (|x| < 1e-90 or so) has sigma**3
        # underflow to 0 and a NaN skewness, in both
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()      # tells -0.0 from 0.0 too

    @pytest.mark.parametrize("fn, least", [(ft.stat_features, 2),
                                           (ft.temporal_features, 3),
                                           (ft.psd_top3, 4)])
    def test_length_checked_on_last_axis(self, fn, least):
        with pytest.raises(ValueError, match=f"needs at least {least} samples"):
            fn(np.zeros((50, least - 1)))
        assert all(np.shape(v) == (50,) for v in fn(np.ones((50, least))))


class TestMinMaxScaler:
    def test_normalizes_to_unit_interval(self):
        M = np.random.default_rng(4).normal(size=(30, 5)) * 10
        N, scaler = ft.minmax_normalize(M)
        np.testing.assert_allclose(N.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(N.max(axis=0), 1.0, atol=1e-12)

    def test_constant_column_half(self):
        M = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
        N, _ = ft.minmax_normalize(M)
        np.testing.assert_array_equal(N[:, 1], 0.5)

    def test_round_trip_serialization(self):
        M = np.random.default_rng(5).normal(size=(10, 3))
        N, scaler = ft.minmax_normalize(M)
        clone = json.loads(json.dumps(scaler))
        held_out = np.random.default_rng(6).normal(size=(4, 3))
        np.testing.assert_array_equal(ft.minmax_scale(held_out, **scaler),
                                      ft.minmax_scale(held_out, **clone))
        np.testing.assert_array_equal(ft.minmax_scale(M, **clone), N)

    def test_held_out_can_exceed_range(self):
        _, scaler = ft.minmax_normalize(np.array([[0.0], [1.0]]))
        out = ft.minmax_scale(np.array([[2.0]]), **scaler)
        assert out[0, 0] == 2.0

    def test_scaler_is_a_plain_json_object(self):
        M = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
        _, scaler = ft.minmax_normalize(M)
        assert json.loads(json.dumps(scaler)) == scaler
        assert scaler == {"col_min": [0.0, 7.0], "col_max": [3.0, 7.0]}
