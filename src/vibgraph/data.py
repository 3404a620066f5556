"""Dataset ingestion: manifest-driven loading of per-load labeled series, with
1024-step block reduction."""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from .segmentation import TimeSeries

log = logging.getLogger("vibgraph")

BINARY_EXTENSIONS = {".bin", ".f64", ".raw"}

# defaults of the ingestion settings; pipeline.DEFAULT_CONFIG takes them from here
DEFAULT_N_CLASSES = 10
DEFAULT_SAMPLING_RATE = 48000.0
DEFAULT_BLOCK = 1024
DEFAULT_REDUCER = "rms"


@dataclass
class ManifestEntry:
    file: str
    channel: int
    fault_class: int
    load_tag: str


def read_manifest(path: str,
                  n_classes: int = DEFAULT_N_CLASSES) -> list[ManifestEntry]:
    """Parse the `file,channel,fault_class,load_tag` manifest CSV."""
    entries = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            required = {"file", "channel", "fault_class", "load_tag"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"manifest {path} must have header columns {sorted(required)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                empty = [key for key in reader.fieldnames
                         if key and not (row[key] or "").strip()]
                if empty:
                    raise ValueError(f"{where}: no value for {', '.join(empty)}")
                channel = _int_field(where, row, "channel")
                fault_class = _int_field(where, row, "fault_class")
                if channel < 0:
                    raise ValueError(f"{where}: channel must be >= 0, got {channel}")
                if not 0 <= fault_class < n_classes:
                    raise ValueError(
                        f"{where}: fault_class {fault_class} outside [0, {n_classes})")
                entries.append(ManifestEntry(file=row["file"], channel=channel,
                                             fault_class=fault_class,
                                             load_tag=row["load_tag"]))
        except csv.Error as exc:    # e.g. a field beyond csv.field_size_limit()
            raise ValueError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if not entries:
        raise ValueError(f"manifest {path} lists no recordings")
    return entries


def _int_field(where: str, row: dict, key: str) -> int:
    try:
        return int(row[key])
    except ValueError:
        raise ValueError(f"{where}: {key} must be an integer, got {row[key]!r}") from None


def _read_samples(path: str, channel: int) -> np.ndarray:
    ext = os.path.splitext(path)[1].lower()
    if ext in BINARY_EXTENSIONS:
        if channel != 0:
            raise ValueError(f"{path}: a binary recording holds one channel, "
                             f"so channel must be 0, got {channel}")
        size = os.path.getsize(path)
        if size % 8:
            raise ValueError(f"{path}: {size} bytes is not a whole number of "
                             "8-byte float64 samples")
        return np.fromfile(path, dtype="<f8")
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cols = line.split(",")
            if channel >= len(cols):
                raise ValueError(f"{path}:{lineno}: no column {channel}")
            token = cols[channel].strip()
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable value {token!r}") from exc
    return np.asarray(values, dtype=np.float64)


REDUCERS = {
    "rms": lambda blocks: np.sqrt((blocks ** 2).mean(axis=1)),
    "mean": lambda blocks: blocks.mean(axis=1),
    "first": lambda blocks: blocks[:, 0].copy(),    # a view keeps the whole recording alive
}


def block_reduce(samples: np.ndarray, block: int = DEFAULT_BLOCK,
                 reducer: str = DEFAULT_REDUCER) -> np.ndarray:
    """One value per full ``block`` of samples; the trailing remainder is dropped.

    Default reducer is RMS, which preserves the vibration energy per block. A
    block that overflows float64 reduces to inf or NaN without a numpy warning.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    n_blocks = samples.size // block
    if n_blocks == 0:
        raise ValueError(
            f"recording of {samples.size} samples is shorter than "
            f"one block of {block}")
    if reducer not in REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}; choose from {sorted(REDUCERS)}")
    with np.errstate(all="ignore"):
        return REDUCERS[reducer](samples[:n_blocks * block].reshape(n_blocks, block))


def load_series(data_dir: str, manifest: list[ManifestEntry], block: int = DEFAULT_BLOCK,
                reducer: str = DEFAULT_REDUCER) -> dict[str, TimeSeries]:
    """Per-load labeled series: the block-reduced recordings of each load,
    concatenated in manifest order. Loads come in the order the manifest first
    names them.

    Every load must cover every fault class seen anywhere in the manifest;
    that is checked before any file is read. Recordings are then read one at
    a time, so one raw recording is held at once.
    """
    if not manifest:
        raise ValueError("no recordings to load")
    classes = {}
    for entry in manifest:
        classes.setdefault(entry.load_tag, set()).add(entry.fault_class)
    all_classes = sorted(set().union(*classes.values()))
    for load_tag, present in classes.items():
        missing = [c for c in all_classes if c not in present]
        if missing:
            raise ValueError(
                f"load {load_tag!r} has zero recordings for classes {missing}")

    samples, labels = {}, {}
    for entry in manifest:
        piece = _reduced_recording(data_dir, entry, block, reducer)
        samples.setdefault(entry.load_tag, []).append(piece)
        labels.setdefault(entry.load_tag, []).append(np.full(piece.size, entry.fault_class))
    return {load_tag: TimeSeries(samples=np.concatenate(samples[load_tag]),
                                 labels=np.concatenate(labels[load_tag]), source_id=load_tag)
            for load_tag in samples}


def _reduced_recording(data_dir: str, entry: ManifestEntry, block: int,
                       reducer: str) -> np.ndarray:
    """One manifest row's samples, NaN samples dropped with a logged count,
    block-reduced. The raw samples are freed on return."""
    path = os.path.join(data_dir, entry.file)
    if not os.path.exists(path):
        raise FileNotFoundError(f"recording file not found: {path}")
    samples = _read_samples(path, entry.channel)
    if samples.size == 0:
        raise ValueError(f"{entry.file}: holds no samples")
    nan_mask = np.isnan(samples)
    if nan_mask.any():
        log.info("NaN removal: dropped %d of %d samples from %s",
                 int(nan_mask.sum()), samples.size, entry.file)
        samples = samples[~nan_mask]
        if samples.size == 0:
            raise ValueError(f"{entry.file}: empty after NaN removal")
    reduced = block_reduce(samples, block, reducer)
    if not np.isfinite(reduced).all():
        if np.isinf(samples).any():
            raise ValueError(f"{entry.file}: holds an infinite sample; preprocess first")
        raise ValueError(f"{entry.file}: the {reducer} of a {block}-sample block overflows "
                         "float64; preprocess first")
    return reduced
