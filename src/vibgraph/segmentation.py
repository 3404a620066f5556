"""Entropy-driven window selection and overlapping segmentation of labeled series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_ROW_CHUNK = 1024           # windows per batched entropy histogram, bounds its temporaries


@dataclass
class TimeSeries:
    """One channel of preprocessed vibration samples with per-sample labels."""

    samples: np.ndarray
    labels: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 1 or self.labels.ndim != 1:
            raise ValueError("samples and labels must be 1-D")
        if len(self.samples) != len(self.labels):
            raise ValueError(
                f"samples ({len(self.samples)}) and labels ({len(self.labels)}) "
                "must have equal length")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain NaN or inf; preprocess first")

    def __len__(self):
        return len(self.samples)


@dataclass
class WindowSelection:
    w_star: int
    candidates: list = field(default_factory=list)
    scores: list = field(default_factory=list)


def default_bin_count(w: int) -> int:
    return max(2, math.ceil(math.sqrt(w)))


def shannon_entropy(values, bin_count: int) -> float:
    """Shannon entropy in nats of an equal-width histogram over [min, max].

    A constant segment occupies a single bin and has zero entropy.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("shannon_entropy: empty segment")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = values.min(), values.max()
    if lo == hi:
        return 0.0
    _bin_edges(lo, hi, bin_count, values.size)      # refuses a range too narrow
    counts, _ = np.histogram(values, bins=bin_count, range=(lo, hi))
    p = counts[counts > 0] / values.size
    return float(-(p * np.log(p)).sum())


def window_entropies(V, bin_count: int) -> np.ndarray:
    """``shannon_entropy(row, bin_count)`` of each row of the m x w matrix
    ``V``, bit for bit, computed ``_ROW_CHUNK`` rows at a time."""
    V = np.asarray(V, dtype=np.float64)
    if V.shape[1] == 0:
        raise ValueError("shannon_entropy: empty segment")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    H = np.zeros(len(V))
    for i in range(0, len(V), _ROW_CHUNK):
        rows = V[i:i + _ROW_CHUNK]
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        spread = lo != hi               # a constant window keeps entropy 0
        if spread.any():
            H[i:i + _ROW_CHUNK][spread] = _spread_entropies(
                rows[spread], lo[spread], hi[spread], bin_count)
    return H


def _bin_edges(lo, hi, b, w):
    """np.histogram's ``b + 1`` equal-width edges over [lo, hi], one row per
    window when lo and hi are arrays. A range too few floats wide for ``b``
    distinct edges, where np.histogram gives up, raises a ValueError that
    names the window length ``w`` and the bin count."""
    edges = np.linspace(lo, hi, b + 1, axis=-1)
    if (edges[..., :-1] >= edges[..., 1:]).any():
        raise ValueError(f"a window of {w} samples spans too narrow a range for "
                         f"bin_count = {b} equal-width entropy bins")
    return edges


def _spread_entropies(V, lo, hi, b):
    """np.histogram's equal-width path for every row of V at once: the same
    edges, bin indices and ±1 edge corrections, then one bincount."""
    if not (np.isfinite(lo) & np.isfinite(hi)).all():
        raise ValueError("window values must be finite")
    r, w = V.shape
    edges = _bin_edges(lo, hi, b, w)
    idx = (((V - lo[:, None]) / (hi - lo)[:, None]) * b).astype(np.intp)
    idx[idx == b] -= 1
    idx -= V < np.take_along_axis(edges, idx, axis=1)
    idx += (V >= np.take_along_axis(edges, idx + 1, axis=1)) & (idx != b - 1)
    counts = np.bincount((idx + b * np.arange(r)[:, None]).ravel(),
                         minlength=r * b).reshape(r, b)
    # Sum p log p over the non-empty bins in bin order, rows with k of them
    # as one (rows, k) array: numpy's pairwise sum then groups the terms as
    # it does for one row; zero padding would regroup them from k >= 8 on.
    k = np.count_nonzero(counts, axis=1)
    H = np.empty(r)
    for n in np.unique(k):
        c = counts[k == n]
        p = c[c > 0].reshape(-1, n) / w
        H[k == n] = -(p * np.log(p)).sum(axis=1)
    return H


def windows(x: np.ndarray, w: int, step: int) -> np.ndarray:
    """Read-only view of the windows ``x[i:i + w]`` for i = 0, step, 2*step, ...
    as the rows of one matrix."""
    n = len(x)
    if w > n:
        raise ValueError(f"window {w} exceeds series length {n}")
    if step < 1:
        raise ValueError("step must be >= 1")
    return np.lib.stride_tricks.sliding_window_view(x, w)[::step]


def average_entropy(series: TimeSeries, w: int, step: int = 1,
                    bin_count: int | None = None) -> float:
    """Mean segment entropy over all windows of size ``w`` at the given stride."""
    if bin_count is None:
        bin_count = default_bin_count(w)
    return float(np.mean(window_entropies(windows(series.samples, w, step), bin_count)))


def select_window(series: TimeSeries, candidates, step: int = 1,
                  bin_count: int | None = None) -> WindowSelection:
    """Pick the window size maximizing mean entropy normalized by ln(w).

    Ties break toward the smallest window (cheaper downstream DTW).
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("empty candidate set")
    for c in candidates:
        if c < 2:
            raise ValueError(f"candidate window {c} < 2 (ln w must be positive)")
        if c > len(series):
            raise ValueError(f"candidate window {c} exceeds series length {len(series)}")
    scores = [average_entropy(series, w, step, bin_count) / math.log(w)
              for w in candidates]
    best = int(np.argmax(scores))   # argmax takes the first max: smallest window
    return WindowSelection(w_star=candidates[best], candidates=candidates,
                           scores=scores)


def window_labels(labels: np.ndarray, w: int, step: int) -> np.ndarray:
    """Most frequent class id of each window of ``labels``; ties go to the
    lowest id. Each window is sorted, and the first position at which a run
    of equal ids reaches the longest run length ends the lowest such id."""
    L = np.sort(windows(labels, w, step), axis=1)
    pos = np.arange(w)
    new_run = np.ones(L.shape, dtype=bool)
    new_run[:, 1:] = L[:, 1:] != L[:, :-1]
    run_start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    last = np.argmax(pos - run_start, axis=1)
    return L[np.arange(len(L)), last]


def segment(series: TimeSeries, w: int,
            step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the series into overlapping windows of size ``w`` at stride ``step``.

    Returns ``(values, starts, labels)``: the m x w matrix of windows (a
    copy), the start index of each window and its majority label.
    """
    values = windows(series.samples, w, step).copy()
    starts = np.arange(len(values)) * step
    return values, starts, window_labels(series.labels, w, step)


def default_stride(w_star: int) -> int:
    return math.ceil(w_star / 2)


DEFAULT_CANDIDATES = (5, 10, 15, 20, 25, 30, 40, 50, 64, 100, 128)
