"""Per-segment node features (10-dim) and min-max normalization of the matrix.

Layout of each row: [mean, std, skewness, kurtosis, entropy, avg_first_diff,
avg_second_diff, psd_amp_1, psd_amp_2, psd_amp_3].
"""

from __future__ import annotations

import numpy as np

from .segmentation import default_bin_count, shannon_entropy, window_entropies

FEATURE_NAMES = (
    "mean", "std_dev", "skewness", "kurtosis", "entropy_nats",
    "avg_first_diff", "avg_second_diff", "psd_amp_1", "psd_amp_2", "psd_amp_3",
)
FEATURE_DIM = len(FEATURE_NAMES)


def stat_features(values) -> tuple[float, float, float, float]:
    """Population mean/std plus skewness m3/sigma^3 and non-excess kurtosis m4/sigma^4.

    A zero-variance segment gets skewness = kurtosis = 0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("stat_features needs at least 2 samples")
    mean = values.mean()
    centered = values - mean
    var = (centered ** 2).mean()
    std = np.sqrt(var)
    if std == 0:
        return float(mean), 0.0, 0.0, 0.0
    skew = (centered ** 3).mean() / std ** 3
    kurt = (centered ** 4).mean() / std ** 4
    return float(mean), float(std), float(skew), float(kurt)


def temporal_features(values) -> tuple[float, float]:
    """Average first and second differences of the segment."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 3:
        raise ValueError("temporal_features needs at least 3 samples")
    d1 = np.diff(values)
    d2 = np.diff(d1)
    return float(d1.mean()), float(d2.mean())


def psd_top3(values) -> tuple[float, float, float]:
    """Three largest periodogram values (descending) of the mean-removed segment.

    The DC bin is excluded (the mean is already a feature); pads with zeros
    when fewer than three positive-frequency bins exist.
    """
    values = np.asarray(values, dtype=np.float64)
    w = values.size
    if w < 4:
        raise ValueError("psd_top3 needs at least 4 samples")
    spectrum = np.fft.rfft(values - values.mean())
    psd = (np.abs(spectrum) ** 2) / w
    psd = psd[1:]   # drop DC
    top = np.sort(psd)[::-1][:3]
    out = np.zeros(3)
    out[:top.size] = top
    return float(out[0]), float(out[1]), float(out[2])


def segment_features(values, bin_count: int | None = None) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if bin_count is None:
        bin_count = default_bin_count(values.size)
    return _feature_row(values, shannon_entropy(values, bin_count))


def _feature_row(values, entropy: float) -> np.ndarray:
    row = np.empty(FEATURE_DIM)
    row[0:4] = stat_features(values)
    row[4] = entropy
    row[5:7] = temporal_features(values)
    row[7:10] = psd_top3(values)
    return row


def feature_matrix(values, bin_count: int | None = None) -> np.ndarray:
    """Feature rows of the m x w window matrix, one row per window: m x 10.
    The entropy column comes from one batched histogram of all windows."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("feature_matrix: no segments")
    if bin_count is None:
        bin_count = default_bin_count(values.shape[1])
    entropies = window_entropies(values, bin_count)
    return np.vstack([_feature_row(row, h) for row, h in zip(values, entropies)])


class MinMaxScaler:
    """Per-column min-max scaling to [0, 1]; constant columns map to 0.5."""

    def __init__(self, col_min, col_max):
        self.col_min = np.asarray(col_min, dtype=np.float64)
        self.col_max = np.asarray(col_max, dtype=np.float64)

    @classmethod
    def fit(cls, matrix) -> "MinMaxScaler":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            raise ValueError("cannot fit scaler on empty matrix")
        return cls(matrix.min(axis=0), matrix.max(axis=0))

    def transform(self, matrix) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        span = self.col_max - self.col_min
        out = np.empty_like(matrix)
        const = span == 0
        out[:, const] = 0.5
        out[:, ~const] = (matrix[:, ~const] - self.col_min[~const]) / span[~const]
        return out

    def to_dict(self):
        """The constructor's arguments, as JSON lists."""
        return {"col_min": self.col_min.tolist(), "col_max": self.col_max.tolist()}


def minmax_normalize(matrix) -> tuple[np.ndarray, MinMaxScaler]:
    """Scale each column to [0, 1] and return the scaler for held-out reuse."""
    scaler = MinMaxScaler.fit(matrix)
    return scaler.transform(matrix), scaler
