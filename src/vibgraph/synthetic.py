"""Synthetic labeled vibration-like series for tests and demos.

Three sinusoid families with distinct periods plus Gaussian noise, laid out
in interleaved per-class chunks so overlapping segments stay mostly pure.
"""

from __future__ import annotations

import os

import numpy as np

from .checks import atomic_write_text
from .segmentation import TimeSeries

DEFAULT_PERIODS = (20.0, 6.0, 3.0)


def _noisy_sinusoid(rng, chunk_len, period, amplitude, noise):
    """One chunk: a random phase is drawn first, then the Gaussian noise."""
    phase = rng.uniform(0, 2 * np.pi)
    x = amplitude * np.sin(2 * np.pi * np.arange(chunk_len) / period + phase)
    return x + noise * amplitude * rng.standard_normal(chunk_len)


def make_sinusoid_series(n_chunks_per_class=8, chunk_len=200,
                         periods=DEFAULT_PERIODS, noise=0.1, amplitude=1.0,
                         seed=0, source_id="synthetic") -> TimeSeries:
    """Interleaved chunks of noisy sinusoids, one frequency per class."""
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for _ in range(n_chunks_per_class):
        for cls, period in enumerate(periods):
            samples.append(_noisy_sinusoid(rng, chunk_len, period, amplitude, noise))
            labels.append(np.full(chunk_len, cls, dtype=np.int64))
    return TimeSeries(samples=np.concatenate(samples),
                      labels=np.concatenate(labels), source_id=source_id)


def write_synthetic_load_files(out_dir, loads=("loadA", "loadB", "loadC"),
                               n_chunks_per_class=4, chunk_len=150,
                               periods=DEFAULT_PERIODS, noise=0.1, seed=0):
    """CSV recordings plus a manifest for CLI-level tests and demos.

    Each load gets one single-channel CSV file per (class, chunk); loads
    differ by amplitude scale, mimicking different motor loads. Pair with
    ``block_size = 1`` and the ``mean`` reducer so the written samples pass
    through ingestion unchanged.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = ["file,channel,fault_class,load_tag"]
    for li, load in enumerate(loads):
        amplitude = 1.0 + 0.25 * li
        for cls, period in enumerate(periods):
            for chunk in range(n_chunks_per_class):
                x = _noisy_sinusoid(rng, chunk_len, period, amplitude, noise)
                name = f"{load}_c{cls}_{chunk}.csv"
                atomic_write_text(os.path.join(out_dir, name),
                                  "\n".join(repr(float(v)) for v in x) + "\n")
                rows.append(f"{name},0,{cls},{load}")
    manifest_path = os.path.join(out_dir, "manifest.csv")
    atomic_write_text(manifest_path, "\n".join(rows) + "\n")
    return manifest_path
