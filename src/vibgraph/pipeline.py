"""Pipeline configuration and orchestration: series -> graph -> trained model
-> evaluation reports. The CLI is a thin wrapper over these functions."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tomllib
from dataclasses import asdict

import numpy as np

from . import gae, stats
from .data import (DEFAULT_BLOCK, DEFAULT_N_CLASSES, DEFAULT_REDUCER,
                   DEFAULT_SAMPLING_RATE, REDUCERS, assemble_dataset,
                   load_recordings, read_manifest)
from .checks import (atomic_write_text, check_bounds, is_finite_number, numbers, read_json,
                     write_json)
from .ensemble import (BASE_KINDS, DEFAULT_HYPERPARAMS, EnsembleModel, check_hyperparams,
                       fit_ensemble, load_ensemble, save_ensemble)
from .features import feature_matrix, minmax_normalize, minmax_scale
from .gae import SPLIT_KEYS, GaeConfig, TrainedGAE
from .graph import (DEFAULT_PAIR_BUDGET, FaultGraph, build_graph, check_pair_budget,
                    load_graph, pairwise_distances, save_graph, threshold_from_percentile)
from .segmentation import (DEFAULT_CANDIDATES, default_stride, segment,
                           select_window, TimeSeries)

_GAE_DEFAULTS = asdict(GaeConfig())
# GaeConfig fields the config sets by name: input_dim follows the feature
# layout, and split_fractions is set as SPLIT_KEYS
_GAE_KEYS = [k for k in _GAE_DEFAULTS if k not in ("input_dim", "split_fractions")]

# A setting that another module consumes takes its default from that module.
DEFAULT_CONFIG = {
    # graph construction
    "candidate_windows": list(DEFAULT_CANDIDATES),
    "bin_count": 0,            # 0 -> max(2, ceil(sqrt(w)))
    "entropy_step": 1,         # stride of the window-scan entropy average
    "stride": 0,               # segmentation stride; 0 -> ceil(w*/2)
    "theta_percentile": 20.0,
    "pair_budget": DEFAULT_PAIR_BUDGET,
    # ingestion
    "block_size": DEFAULT_BLOCK,
    "reducer": DEFAULT_REDUCER,
    "sampling_rate": DEFAULT_SAMPLING_RATE,    # range-checked and hashed; no stage reads it
    "n_classes": DEFAULT_N_CLASSES,
    "manifest": "manifest.csv",
    "data_dir": ".",
    # model; its seed also seeds the ensemble
    **{k: _GAE_DEFAULTS[k] for k in _GAE_KEYS},
    **dict(zip(SPLIT_KEYS, _GAE_DEFAULTS["split_fractions"])),
    # ensemble
    **DEFAULT_HYPERPARAMS,
}


class ConfigError(ValueError):
    pass


def _typed(key, value):
    """``value`` as the setting ``key`` takes it: an int is accepted for a
    float setting; any other type than the default's is a ConfigError."""
    if key not in DEFAULT_CONFIG:
        raise ConfigError(f"unknown config key {key!r}")
    default = DEFAULT_CONFIG[key]
    if isinstance(default, float) and type(value) is int:
        if not is_finite_number(value):
            raise ConfigError(f"{key} must be finite")
        value = float(value)
    if type(value) is not type(default):
        raise ConfigError(f"key {key!r} expects {type(default).__name__}")
    return value


# a key whose value opens with a nested list or table: `key = [[`, `key = [{`, ...
_NESTED = re.compile(r"^\s*([\w-]+)\s*=\s*[\[{]\s*[\[{]", re.M)


def parse_config_text(text: str) -> dict:
    """Flat TOML config of `key = value` lines; unknown keys and tables rejected."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML: {exc}") from None
    except RecursionError:      # tomllib recurses into each nested bracket
        nested = _NESTED.search(text)
        raise ConfigError(f"{nested[1] if nested else 'a value'} nests too deeply; "
                          "config lists hold scalars") from None
    cfg = dict(DEFAULT_CONFIG)
    for key, value in doc.items():
        if isinstance(value, dict):
            raise ConfigError(f"{key!r} is a table; the config is flat `key = value` lines")
        cfg[key] = _typed(key, value)
    return cfg


# (setting, comparison, bound) for the graph and ingestion settings; a stride
# or bin_count of 0 means "derive it from w*"
_BOUNDS = [("theta_percentile", ">", 0), ("theta_percentile", "<=", 100),
           ("pair_budget", ">=", 1), ("entropy_step", ">=", 1), ("stride", ">=", 0),
           ("bin_count", ">=", 0), ("block_size", ">=", 1), ("n_classes", ">=", 2),
           ("sampling_rate", ">", 0)]


def _check_settings(cfg):
    """Raise a one-line ConfigError naming the first setting out of range:
    graph and ingestion settings here, model and ensemble settings by the
    checks of the modules that consume them."""
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    try:
        check_bounds(cfg, _BOUNDS)
        windows = cfg["candidate_windows"]
        if not windows or not all(type(w) is int and w >= 2 for w in windows):
            raise ValueError("candidate_windows must be a non-empty list of integers "
                             f">= 2, got {windows!r}")
        if cfg["reducer"] not in REDUCERS:
            raise ValueError(f"reducer must be one of {sorted(REDUCERS)}, "
                             f"got {cfg['reducer']!r}")
        gae_config_from(cfg)
        check_hyperparams({k: cfg[k] for k in DEFAULT_HYPERPARAMS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then the config file, then the non-None overrides; every
    setting is range-checked before any data file is read."""
    if path is None:
        cfg = dict(DEFAULT_CONFIG)
    else:
        with open(path) as fh:
            cfg = parse_config_text(fh.read())
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = _typed(key, value)
    _check_settings(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def gae_config_from(cfg: dict) -> GaeConfig:
    return GaeConfig(**{k: cfg[k] for k in _GAE_KEYS},
                     split_fractions=tuple(cfg[k] for k in SPLIT_KEYS)).validate()


# ---------------------------------------------------------------------------
# pipeline stages


def build_graph_from_series(series: TimeSeries, cfg: dict):
    """select_window -> segment -> features -> normalize -> threshold -> graph.

    Returns (FaultGraph, WindowSelection). The graph meta embeds the scaler,
    segment values, config hash, and seed so downstream stages can re-use
    the training normalization and recompute DTW products.
    """
    bin_count = cfg["bin_count"] or None
    sel = select_window(series, cfg["candidate_windows"],
                        step=cfg["entropy_step"], bin_count=bin_count)
    w_star = sel.w_star
    step = cfg["stride"] or default_stride(w_star)
    values, starts, labels = segment(series, w_star, step)
    check_pair_budget(len(values), cfg["pair_budget"])    # refused before the features

    with np.errstate(invalid="ignore", over="ignore"):   # reported below, by window
        raw = feature_matrix(values, bin_count)
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():       # moments of tiny or huge samples under- or overflow
        k = int(np.argmax(bad))
        raise ValueError(f"window {k} (start {starts[k]}) gives non-finite node "
                         "features; rescale the samples")
    normalized, scaler = minmax_normalize(raw)

    distances = pairwise_distances(values, cfg["pair_budget"])
    theta = threshold_from_percentile(distances, cfg["theta_percentile"])

    meta = {
        "w_star": w_star,
        "step": step,
        "theta_percentile": cfg["theta_percentile"],
        "source_id": series.source_id,
        "scaler": scaler,
        "segments": values.tolist(),
        "segment_starts": starts.tolist(),
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
    }
    graph = build_graph(normalized, labels, theta, distances, meta)
    return graph, sel


def save_window_scores(sel, path: str, cfg: dict) -> None:
    lines = [f"# config_hash={config_hash(cfg)} seed={cfg['seed']}",
             "window,normalized_entropy"]
    for w, score in zip(sel.candidates, sel.scores):
        lines.append(f"{w},{score!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


MODEL_FILE = "model.json"
ENSEMBLE_FILE = "ensemble.json"
CURVES_FILE = "loss_curves.csv"
TRAIN_REPORT_FILE = "train_report.json"


def train_on_graph(graph: FaultGraph, cfg: dict):
    """Train the GAE, then fit the soft-voting ensemble on its H2 embedding.

    Returns (TrainedGAE, EnsembleModel, train_report dict). The ensemble is
    fitted on the training split only; the report carries metrics for all
    three splits of the training graph.
    """
    model = gae.train(graph, gae_config_from(cfg))
    H2 = gae.embed(graph, model)
    labels = graph.node_labels
    tr = model.split["train"]

    ens = fit_ensemble(H2[tr], labels[tr], {k: cfg[k] for k in DEFAULT_HYPERPARAMS},
                       seed=cfg["seed"])

    source = graph.meta.get("source_id", "")
    splits = _split_reports(model.split, labels, ens.predict(H2), int(labels.max()) + 1,
                            source, source)
    report = {"config_hash": config_hash(cfg), "seed": cfg["seed"],
              "train_source": source, "scaler": graph.meta.get("scaler"),
              "splits": splits}
    return model, ens, report


def _split_reports(split, labels, pred, n_classes, train_source, test_source):
    """The report of each non-empty split, sliced from ``labels`` and
    ``pred``, which hold one entry per graph node; a split node past the
    graph's last node is refused."""
    reports = {}
    for name, idx in split.items():
        if len(idx) == 0:
            continue
        if idx.max() >= len(labels):
            raise ValueError(f"model split {name} holds node {int(idx.max())}, but "
                             f"the graph has {len(labels)} nodes")
        reports[name] = stats.evaluation_report(labels[idx], pred[idx], n_classes,
                                                train_source, test_source)
    return reports


def save_model_dir(out_dir: str, model: TrainedGAE, ens: EnsembleModel,
                   report: dict, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    model.diagnostics["config_hash"] = config_hash(cfg)
    gae.save_model(model, os.path.join(out_dir, MODEL_FILE))
    gae.save_loss_curves(model, os.path.join(out_dir, CURVES_FILE))
    save_ensemble(ens, os.path.join(out_dir, ENSEMBLE_FILE))
    write_json(os.path.join(out_dir, TRAIN_REPORT_FILE), report)


def _scaler(doc, whose, width):
    """The checked ``(col_min, col_max)`` arrays of the scaler a JSON object
    describes: ``width`` finite numbers each, no ``col_min`` above its ``col_max``."""
    doc = doc if isinstance(doc, dict) else {}
    col_min, col_max = numbers(
        [doc.get("col_min"), doc.get("col_max")], f"{whose} scaler must hold col_min and "
        f"col_max, two equal-length lists of finite numbers", shape=(2, None), finite=True)
    if len(col_min) != width:
        raise ValueError(f"{whose} scaler has {len(col_min)} columns, but the graph has "
                         f"{width} feature columns")
    swapped = np.flatnonzero(col_min > col_max)
    if swapped.size:
        k = swapped[0]
        raise ValueError(f"{whose} scaler column {k} has col_min {col_min[k]} > col_max "
                         f"{col_max[k]}")
    return col_min, col_max


def load_model_dir(model_dir: str):
    """The model, ensemble and train report a model directory holds; an
    ensemble fitted on embeddings of another width than the model's H2 is
    refused."""
    model = gae.load_model(os.path.join(model_dir, MODEL_FILE))
    ens = load_ensemble(os.path.join(model_dir, ENSEMBLE_FILE))
    width = len(ens.bases[BASE_KINDS.index("feed_forward_net")]["W1"])
    if width != model.config.hidden_dim:
        raise ValueError(f"{model_dir}: {ENSEMBLE_FILE} takes {width}-wide embeddings, "
                         f"but {MODEL_FILE} has hidden_dim {model.config.hidden_dim}")
    path = os.path.join(model_dir, TRAIN_REPORT_FILE)
    report = read_json(path)
    if not isinstance(report, dict):
        raise ValueError(f"{path}: the train report must be a JSON object")
    return model, ens, report


def _renormalized_features(graph: FaultGraph, train_scaler: dict) -> np.ndarray:
    """Map the graph's features into the training scaler's [0,1] frame.

    Graph files store features normalized by their own scaler; recovering the
    raw values and re-applying the training scaler makes cross-dataset
    embeddings comparable. When the scalers are identical the stored features
    are reused bit-for-bit. Either scaler must be as wide as the features.
    """
    own = graph.meta.get("scaler")
    width = graph.node_features.shape[1]
    own_min, own_max = _scaler(own, "graph", width)
    train = _scaler(train_scaler, "training", width)
    if own == train_scaler:
        return graph.node_features
    span = own_max - own_min
    raw = graph.node_features * span + own_min
    const = span == 0
    raw[:, const] = own_min[const]
    return minmax_scale(raw, *train)


def evaluate_on_graph(model: TrainedGAE, ens: EnsembleModel,
                      train_meta: dict, graph: FaultGraph, cfg: dict):
    """Cross-dataset evaluation of a trained model on any graph file."""
    features = _renormalized_features(graph, train_meta["scaler"])
    eval_graph = FaultGraph(features, graph.node_labels, graph.edges, graph.meta)
    H2 = gae.embed(eval_graph, model)
    labels = graph.node_labels
    if labels.max() >= ens.n_classes:
        raise ValueError(
            f"graph contains class {int(labels.max())} unseen during training")
    pred = ens.predict(H2)
    train_source = train_meta.get("source_id", "")
    test_source = graph.meta.get("source_id", "")
    report = stats.evaluation_report(labels, pred, ens.n_classes, train_source, test_source)
    doc = dict(report, config_hash=config_hash(cfg), seed=cfg["seed"])
    # per-split breakdown when evaluating the model's own training graph
    if graph.meta.get("source_id") == train_meta.get("source_id") and model.split:
        doc["splits"] = _split_reports(model.split, labels, pred, ens.n_classes,
                                       train_source, test_source)
    return report, doc


def load_series_by_load(cfg: dict) -> dict[str, TimeSeries]:
    manifest = read_manifest(os.path.join(cfg["data_dir"], cfg["manifest"]),
                             cfg["n_classes"])
    recordings = load_recordings(cfg["data_dir"], manifest)
    return assemble_dataset(recordings, cfg["block_size"], cfg["reducer"])


def cross_eval(cfg: dict, out_dir: str, loads: list[str] | None = None) -> dict:
    """Full train->test matrix over the manifest's load tags.

    Trains one model per load, evaluates it on every load, writes one report
    file per (train, test) pair plus a summary with mean/std F1 per model and
    pairwise paired t-tests between the models' per-class F1 vectors.
    """
    repeated = sorted({t for t in loads or () if loads.count(t) > 1})
    if repeated:
        raise ValueError(f"loads {repeated} given more than once")
    series = load_series_by_load(cfg)
    tags = loads or sorted(series)
    missing = [t for t in tags if t not in series]
    if missing:
        raise ValueError(f"loads {missing} not present in the manifest")

    os.makedirs(out_dir, exist_ok=True)
    graphs = {}
    for tag in tags:
        graph, sel = build_graph_from_series(series[tag], cfg)
        graphs[tag] = graph
        save_graph(graph, os.path.join(out_dir, f"graph_{tag}.json"))
        save_window_scores(sel, os.path.join(out_dir, f"window_scores_{tag}.csv"), cfg)

    f1_vectors = {}     # train tag -> concatenated per-class F1 over all test tags
    reports = []
    summary = {"config_hash": config_hash(cfg), "seed": cfg["seed"],
               "reports": {}, "f1_summary": {}, "paired_tests": {}}
    for train_tag in tags:
        model, ens, train_report = train_on_graph(graphs[train_tag], cfg)
        save_model_dir(os.path.join(out_dir, f"model_{train_tag}"), model, ens,
                       train_report, cfg)
        per_test_f1 = []
        for test_tag in tags:
            report, doc = evaluate_on_graph(model, ens, graphs[train_tag].meta,
                                            graphs[test_tag], cfg)
            name = f"report_{train_tag}_to_{test_tag}.json"
            write_json(os.path.join(out_dir, name), doc)
            summary["reports"][f"{train_tag}->{test_tag}"] = {
                "file": name, "macro_f1": report["macro_f1"],
                "accuracy": report["accuracy"]}
            reports.append(report)
            per_test_f1.append(report["f1"])
        f1_vectors[train_tag] = np.concatenate(per_test_f1)
        mean, std = stats.f1_summary(per_test_f1)
        summary["f1_summary"][train_tag] = {"mean": mean, "std": std}

    summary["paired_tests"] = {f"{a} vs {b}": stats.paired_ttest(f1_vectors[a], f1_vectors[b])
                               for i, a in enumerate(tags) for b in tags[i + 1:]}

    write_json(os.path.join(out_dir, "summary.json"), summary)
    atomic_write_text(os.path.join(out_dir, "summary.md"),
                      stats.render_markdown_report(reports))
    return summary
