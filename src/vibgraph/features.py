"""Per-segment node features (10-dim) and min-max normalization of the matrix.

Layout of each row: [mean, std, skewness, kurtosis, entropy, avg_first_diff,
avg_second_diff, psd_amp_1, psd_amp_2, psd_amp_3].
"""

from __future__ import annotations

import numpy as np

from .segmentation import default_bin_count, window_entropies

FEATURE_NAMES = (
    "mean", "std_dev", "skewness", "kurtosis", "entropy_nats",
    "avg_first_diff", "avg_second_diff", "psd_amp_1", "psd_amp_2", "psd_amp_3",
)
FEATURE_DIM = len(FEATURE_NAMES)


def stat_features(values):
    """Population mean/std plus skewness m3/sigma^3 and non-excess kurtosis
    m4/sigma^4 over the last axis: four values for one window, four m-vectors
    for an m x w matrix.

    A zero-variance window gets skewness = kurtosis = 0.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape[-1] < 2:
        raise ValueError("stat_features needs at least 2 samples")
    mean = values.mean(axis=-1)
    centered = values - mean[..., None]
    std = np.sqrt((centered ** 2).mean(axis=-1))
    flat = std == 0
    sigma = np.where(flat, 1.0, std)
    # np.float_power is C pow; array ``**`` takes a SIMD loop that differs in
    # the last bit on about 5% of values, which would change graph files.
    skew, kurt = (np.where(flat, 0.0, (centered ** k).mean(axis=-1)
                           / np.float_power(sigma, k)) for k in (3, 4))
    return mean, std, skew, kurt


def temporal_features(values):
    """Average first and second differences over the last axis."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape[-1] < 3:
        raise ValueError("temporal_features needs at least 3 samples")
    d1 = np.diff(values)
    return d1.mean(axis=-1), np.diff(d1).mean(axis=-1)


def psd_top3(values):
    """Three largest periodogram values (descending) of the mean-removed
    window, over the last axis.

    The DC bin is excluded (the mean is already a feature); pads with zeros
    when fewer than three positive-frequency bins exist.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    w = values.shape[-1]
    if w < 4:
        raise ValueError("psd_top3 needs at least 4 samples")
    spectrum = np.fft.rfft(values - values.mean(axis=-1)[..., None])
    psd = (np.abs(spectrum[..., 1:]) ** 2) / w     # drop DC
    desc = np.sort(psd)[..., :-4:-1]
    top = np.zeros(psd.shape[:-1] + (3,))
    top[..., :desc.shape[-1]] = desc
    return top[..., 0], top[..., 1], top[..., 2]


def feature_matrix(values, bin_count: int | None = None) -> np.ndarray:
    """Feature rows of the m x w window matrix, one row per window: m x 10.
    Each column is computed for all windows at once; the entropy column
    comes from one batched histogram."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("feature_matrix: no segments")
    if bin_count is None:
        bin_count = default_bin_count(values.shape[1])
    entropies = window_entropies(values, bin_count)
    return np.column_stack((*stat_features(values), entropies,
                            *temporal_features(values), *psd_top3(values)))


def minmax_scale(matrix, col_min, col_max) -> np.ndarray:
    """Map each column to (x - col_min) / (col_max - col_min); a constant
    column (col_max == col_min) maps to 0.5."""
    matrix = np.asarray(matrix, dtype=np.float64)
    col_min, col_max = np.asarray(col_min, np.float64), np.asarray(col_max, np.float64)
    span = col_max - col_min
    out = np.empty_like(matrix)
    const = span == 0
    out[:, const] = 0.5
    out[:, ~const] = (matrix[:, ~const] - col_min[~const]) / span[~const]
    return out


def minmax_normalize(matrix) -> tuple[np.ndarray, dict]:
    """Scale each column to [0, 1]; also return the scaler, the JSON object
    ``{"col_min": [...], "col_max": [...]}`` held-out data is scaled by."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        raise ValueError("cannot fit scaler on empty matrix")
    col_min, col_max = matrix.min(axis=0), matrix.max(axis=0)
    return (minmax_scale(matrix, col_min, col_max),
            {"col_min": col_min.tolist(), "col_max": col_max.tolist()})
