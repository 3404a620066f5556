"""vibgraph benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload reference --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``. Each workload is a sequence of single-process library
calls that mirror the CLI commands ``build-graph``, ``train`` and
``evaluate``. A run sets its inputs up from ``--seed`` (three times, the
median counts towards ``setup_s``), runs one untimed warm-up pass, then
repeats whole passes of commands until ``--seconds`` is spent, checking every
command's output. ``--trace 1`` alternates untraced passes with traced ones
and reports per-layer metrics from the traced passes. See README.md beside
this file. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full result, with the
machine facts, every sample and (traced) every span, is written to
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_run"
EXPECTED_FILE = BENCH_DIR / "expected.json"
SETUP_REPEATS = 3
BLAS_THREADS = 1
DTW_SPOT_CHECKS = 8       # edges and non-edges each, re-derived per built graph
CURVE_RTOL = 1e-9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    On a shared 2-core host, a 300x300 matmul probe with two OpenBLAS
    threads was 12% faster in the median but had tenfold outliers whenever
    the second core was busy; one thread keeps pass times steadier.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


class ProgramMissing(RuntimeError):
    pass


IMPORTS = "import numpy, vibgraph, vibgraph.pipeline, vibgraph.synthetic"


def import_program() -> None:
    """Import vibgraph from this checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        exec(IMPORTS, {})
    except ImportError as exc:
        raise ProgramMissing(f"cannot import vibgraph from {src}: {exc}") from exc
    import vibgraph
    if Path(vibgraph.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"vibgraph was imported from {vibgraph.__file__}, "
                             f"not from {src}")


def time_fresh_imports(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing vibgraph, as each CLI
    command pays it; one child process at a time, each waited for."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {IMPORTS}"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# small helpers


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_mb(path: Path) -> float:
    if path.is_file():
        return path.stat().st_size / 1e6
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def reference_dtw(a, b) -> float:
    """Full-window DTW with |a_k - b_l| cost, written independently of
    vibgraph.graph; every cell is one add of a min, so results are exact."""
    prev = [0.0] + [math.inf] * len(b)
    for x in a:
        cur = [math.inf]
        for j, y in enumerate(b, start=1):
            cur.append(abs(x - y) + min(prev[j], cur[j - 1], prev[j - 1]))
        prev = cur
    return prev[-1]


def report_values(doc: dict) -> dict:
    keep = ("precision", "recall", "f1", "accuracy")
    return {k: doc[k] for k in keep}


# ---------------------------------------------------------------------------
# a run: command timing, output checks, expected values


class Run:
    """Times commands and checks their outputs against the recorded values
    for this workload and seed. A key with no recorded value takes its first
    observation as the expected value, so later passes must repeat it.

    Only untraced commands run while ``timed`` is set add timing samples;
    a traced command's time is read from its ``cmd.*`` span instead.
    """

    def __init__(self, expected: dict):
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.unrecorded: set[str] = set()
        self.first_seen: dict = {}
        self.tracer = None
        self.timed = True

    def command(self, metric, fn, check):
        """Run one command; its time joins ``metric``'s samples. Returns the
        command's result, or None when it raised or its check failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.span(f"cmd.{metric}"):
                    out = fn()
            dt = time.perf_counter() - t0
            problems = check(out)
        except Exception as exc:    # raising, or a check that raised on its output
            self.failed += 1
            self.problems.append(f"{metric}: raised {type(exc).__name__}: {exc}")
            return None
        if self.timed and self.tracer is None:
            self.samples.setdefault(metric, []).append(dt)
        if problems:
            self.failed += 1
            self.problems.extend(f"{metric}: {p}" for p in problems)
            return None
        return out

    def expect(self, key, observed, close=None) -> list[str]:
        if key not in self.expected:
            self.unrecorded.add(key)
            self.expected[key] = observed
            return []
        want = self.expected[key]
        ok = close(observed, want) if close else observed == want
        return [] if ok else [f"{key} differs from the expected value"]

    def repeat(self, key, observed) -> None:
        """Require ``observed`` to equal this run's first observation of
        ``key``; never compared with recorded values."""
        first = self.first_seen.setdefault(key, observed)
        if observed != first:
            self.problems.append(f"{key}: {observed} differs from {first} "
                                 f"earlier in this run")

    def guarded(self, label, fn):
        """Run a benchmark-side probe of the program; if it raises, that is
        a failed check (``correct`` false), not a crash. None on failure."""
        try:
            return fn()
        except Exception as exc:
            self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None


def curves_close(got, want) -> bool:
    if set(got) != set(want):
        return False
    for name in want:
        a, b = got[name], want[name]
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not abs(x - y) <= CURVE_RTOL * max(abs(x), abs(y)):
                return False
    return True


def graph_counts(graph, path, series_len, cfg) -> dict:
    """Exact counts of the work a graph build does, derived from its inputs
    and outputs."""
    m = graph.num_nodes
    w = graph.meta["w_star"]
    pairs = m * (m - 1) // 2
    scanned = sum(len(range(0, series_len - c + 1, cfg["entropy_step"]))
                  for c in sorted(set(cfg["candidate_windows"])))
    return {"nodes": m, "edges": len(graph.edges), "w_star": w,
            "dtw_pairs": pairs, "dtw_cells": pairs * w * w,
            "windows_scanned": scanned, "samples": series_len,
            "file_bytes": os.path.getsize(path)}


def check_graph(run, key, graph, path, series_len, cfg, w_star, nodes=None):
    problems = run.expect(f"{key}.sha256", sha256_file(path))
    counts = graph_counts(graph, path, series_len, cfg)
    problems += run.expect(f"{key}.counts", counts)
    if w_star is not None and counts["w_star"] != w_star:
        problems.append(f"{key}: w*={counts['w_star']}, expected {w_star}")
    if nodes is not None and counts["nodes"] != nodes:
        problems.append(f"{key}: {counts['nodes']} nodes, expected {nodes}")
    # re-derive a few edge weights and non-edges with an independent DTW
    segs, theta = graph.meta["segments"], graph.meta["theta"]
    edges = graph.edges
    for k in range(0, len(edges), max(1, len(edges) // DTW_SPOT_CHECKS)):
        i, j, wt = edges[k]
        d = reference_dtw(segs[i], segs[j])
        if wt != 1.0 / (1.0 + d):
            problems.append(f"{key}: edge ({i},{j}) weight {wt} != 1/(1+{d})")
    linked = {(i, j) for i, j, _ in edges}
    m = graph.num_nodes
    for k in range(DTW_SPOT_CHECKS):
        i, j = (k * 7919) % m, (k * 104729 + 1) % m
        i, j = min(i, j), max(i, j)
        if i != j and (i, j) not in linked:
            if not reference_dtw(segs[i], segs[j]) >= theta:
                problems.append(f"{key}: pair ({i},{j}) is below theta but unlinked")
    return problems, counts


# ---------------------------------------------------------------------------
# commands, mirroring vibgraph.cli


def build_graph_cmd(series, cfg, out: Path):
    """build-graph: series -> graph file plus window-score file."""
    from vibgraph import pipeline
    graph, sel = pipeline.build_graph_from_series(series, cfg)
    pipeline.save_graph(graph, str(out))
    pipeline.save_window_scores(sel, str(out.with_suffix("")) + "_window_scores.csv", cfg)
    return graph


def build_graph_from_files_cmd(cfg, load, out: Path):
    """build-graph --load: manifest -> series of one load -> graph file.
    Also returns the samples read, which are those of every load."""
    from vibgraph import pipeline
    by_load = pipeline.load_series_by_load(cfg)
    series = by_load[load]
    read = sum(len(s) for s in by_load.values())
    return series, build_graph_cmd(series, cfg, out), read


def train_cmd(graph_path: Path, cfg, model_dir: Path):
    """train: graph file -> model directory."""
    from vibgraph import graph as graph_mod, pipeline
    graph = graph_mod.load_graph(str(graph_path))
    model, ens, report = pipeline.train_on_graph(graph, cfg)
    pipeline.save_model_dir(str(model_dir), model, ens, report, cfg)
    return model, report


def evaluate_cmd(model_dir: Path, graph_path: Path, cfg, out: Path):
    """evaluate: model directory + graph file -> report file."""
    from vibgraph import graph as graph_mod, pipeline
    from vibgraph.graph import atomic_write_text
    model, ens, train_report = pipeline.load_model_dir(str(model_dir))
    graph = graph_mod.load_graph(str(graph_path))
    train_meta = {"scaler": train_report["scaler"],
                  "source_id": train_report.get("train_source", "")}
    _, doc = pipeline.evaluate_on_graph(model, ens, train_meta, graph, cfg)
    atomic_write_text(str(out), json.dumps(doc, indent=1, sort_keys=True))
    return doc


def check_train(run, out, state):
    model, report = out
    state["macro_f1"] = report["splits"]["test"]["macro_f1"]
    problems = run.expect("train.report", {name: report_values(rep) for name, rep
                                           in sorted(report["splits"].items())})
    problems += run.expect("train.curves", model.curves, curves_close)
    diag = model.diagnostics
    if not diag["max_attention_rowsum_dev"] <= 1e-12:
        problems.append(f"attention row-sum deviation {diag['max_attention_rowsum_dev']}")
    if not diag["min_kl"] >= -1e-12:
        problems.append(f"min KL {diag['min_kl']} < -1e-12")
    return problems


def check_evaluate(run, doc):
    vals = report_values(doc)
    vals["splits"] = {k: report_values(v) for k, v in sorted(doc.get("splits", {}).items())}
    return run.expect("evaluate.report", vals)


def forward_tape_counts(graph_path: Path, model):
    """Ops and computed output bytes of one forward_loss, via ``ad.Tape``.
    These count work, not output: they are checked to repeat within a run,
    never against recorded values."""
    import numpy as np
    from vibgraph import autodiff as ad, gae, graph as graph_mod
    graph = graph_mod.load_graph(str(graph_path))
    eps = np.zeros((graph.num_nodes, model.config.latent_dim))
    row_mask = np.zeros(graph.num_nodes)
    row_mask[model.split["train"]] = 1.0
    with ad.Tape() as tape:
        gae.forward_loss(graph, model.params, model.config, eps, row_mask)
    return [len(tape.ops), sum(out.values.nbytes for _, _, out in tape.ops)]


# ---------------------------------------------------------------------------
# workloads


def descent_cfg(**overrides):
    """The acceptance suite's DESCENT_CFG plus per-workload overrides."""
    from vibgraph import pipeline
    return dict(pipeline.DEFAULT_CONFIG, **dict(
        dict(candidate_windows=[8, 16, 32], stride=8, learning_rate=0.02,
             n_classes=3), **overrides))


TINY_ENSEMBLE = dict(rf_trees=5, gb_rounds=3, xgb_rounds=3, mlp_epochs=20,
                     cv_folds=2)


class SeriesWorkload:
    """build-graph from an in-memory series, then train, then evaluate.

    With ``build_in_setup`` the graph is built once per set-up (and timed as
    a build-graph command), and each pass runs only train and evaluate.
    """

    def __init__(self, name, series_args, cfg, w_star, nodes=None,
                 build_in_setup=False):
        self.name, self.series_args, self.cfg = name, series_args, cfg
        self.w_star, self.nodes = w_star, nodes
        self.build_in_setup = build_in_setup

    def inputs(self, seed):
        from vibgraph.synthetic import make_sinusoid_series
        return make_sinusoid_series(seed=seed, **self.series_args)

    def input_digest(self, seed, work: Path):
        s = self.inputs(seed)
        return hashlib.sha256(s.samples.tobytes() + s.labels.tobytes()).hexdigest()

    def setup(self, run, seed, work: Path):
        state = {"series": self.inputs(seed), "graph_path": work / "graph.json"}
        if self.build_in_setup:
            self._build(run, state)
        return state

    def _build(self, run, state):
        series, path = state["series"], state["graph_path"]

        def check(graph):
            problems, counts = check_graph(run, "graph", graph, path, len(series),
                                           self.cfg, self.w_star, self.nodes)
            state["counts"] = [counts]
            return problems
        return run.command("build_graph_s",
                           lambda: build_graph_cmd(series, self.cfg, path),
                           check) is not None

    def graph_counts_for(self, seed, work: Path):
        """Counts of the graph built from ``seed``'s inputs, untimed."""
        series, path = self.inputs(seed), work / "graph.json"
        graph = build_graph_cmd(series, self.cfg, path)
        return graph_counts(graph, path, len(series), self.cfg)

    def run_pass(self, run, state, work: Path):
        if not self.build_in_setup and not self._build(run, state):
            return False
        model_dir, report_path = work / "model", work / "report.json"
        trained = run.command("train_s",
                              lambda: train_cmd(state["graph_path"], self.cfg, model_dir),
                              lambda out: check_train(run, out, state))
        if trained is None:
            return False
        state["model"] = trained[0]
        state["model_dir"] = model_dir
        doc = run.command("evaluate_s",
                          lambda: evaluate_cmd(model_dir, state["graph_path"],
                                               self.cfg, report_path),
                          lambda d: check_evaluate(run, d))
        return doc is not None


class LoadFilesWorkload:
    """build-graph only, one command per load, from CSV recordings on disk."""

    loads = ("a", "b", "c")
    w_star = 5

    def __init__(self, name, file_args):
        self.name, self.file_args = name, file_args

    def _cfg(self):
        # data_dir is relative (commands run inside the set-up directory):
        # the graph file embeds a hash of the config, so an absolute path
        # would make graph bytes depend on where the checkout lives
        from vibgraph import pipeline
        return dict(pipeline.DEFAULT_CONFIG, block_size=1, reducer="mean",
                    n_classes=3, data_dir="data")

    def _write(self, seed, data: Path):
        from vibgraph.synthetic import write_synthetic_load_files
        write_synthetic_load_files(str(data), loads=self.loads, seed=seed,
                                   **self.file_args)

    def input_digest(self, seed, work: Path):
        data = work / f"digest_{seed}"
        self._write(seed, data)
        h = hashlib.sha256()
        for path in sorted(data.iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        shutil.rmtree(data)
        return h.hexdigest()

    def setup(self, run, seed, work: Path):
        self._write(seed, work / "data")
        return {"cfg": self._cfg(), "dir": work}

    def run_pass(self, run, state, work: Path):
        cwd = os.getcwd()
        os.chdir(state["dir"])
        try:
            return self._run_pass(run, state, work)
        finally:
            os.chdir(cwd)

    def _run_pass(self, run, state, work: Path):
        cfg = state["cfg"]
        state["counts"], state["samples_read"] = [], 0
        for load in self.loads:
            path = work / f"graph_{load}.json"

            def check(out, load=load, path=path):
                series, graph, read = out
                problems, counts = check_graph(run, f"graph_{load}", graph, path,
                                               len(series), cfg, self.w_star)
                state["counts"].append(counts)
                state["samples_read"] += read
                return problems
            if run.command("build_graph_s",
                           lambda load=load, path=path:
                           build_graph_from_files_cmd(cfg, load, path),
                           check) is None:
                return False
        return True

    def graph_counts_for(self, seed, work: Path):
        """Counts of the first load's graph built from ``seed``'s files,
        untimed."""
        self._write(seed, work / "data")
        cwd = os.getcwd()
        os.chdir(work)
        try:
            cfg, path = self._cfg(), work / "graph.json"
            series, graph, _ = build_graph_from_files_cmd(cfg, self.loads[0], path)
            return graph_counts(graph, path, len(series), cfg)
        finally:
            os.chdir(cwd)


def make_workloads():
    return {
        # The ROADMAP fixture's shape (w*=32, ~20% density, dense GAE,
        # tree-heavy ensemble) on 3 of its 8 chunks per class, with 10 epochs
        # and a smaller ensemble, so that several passes fit in one run. The
        # window is fixed at 32: from [8, 16, 32] most seeds pick w*=8, and
        # the seed must not change the workload's shape.
        "reference": SeriesWorkload(
            "reference", dict(n_chunks_per_class=3),
            descent_cfg(candidate_windows=[32], epochs=10, rf_trees=25,
                        gb_rounds=10, xgb_rounds=10, mlp_epochs=100, cv_folds=3),
            w_star=32, nodes=222),
        # The ROADMAP fixture itself (DESCENT_CFG, 50 epochs, default
        # ensemble). One pass takes minutes, so it is not registered in
        # BENCHMARK.json. Run it with --seed 3, which gives 597 nodes and
        # w*=32, to reproduce the ROADMAP Baseline table.
        "reference-full": SeriesWorkload(
            "reference-full", dict(n_chunks_per_class=8), descent_cfg(),
            w_star=None),
        # Tiny windows (w*=5 of 11 candidates): entropy scan, JSON write and
        # the Python edge loop dominate; no GAE or ensemble runs.
        "graph-build": LoadFilesWorkload(
            "graph-build", dict(n_chunks_per_class=4, chunk_len=150)),
        # A large graph at ~2% density: dense m x m attention dominates train.
        "sparse-gae": SeriesWorkload(
            "sparse-gae", dict(n_chunks_per_class=8, chunk_len=200),
            dict(descent_cfg(candidate_windows=[16], theta_percentile=2.0,
                             epochs=6), **TINY_ENSEMBLE),
            w_star=16, nodes=599, build_in_setup=True),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

SPAN_TIMES = {      # metric -> span name; summed durations of the wrapped calls
    "cmd.build_graph_s": "cmd.build_graph_s",
    "cmd.train_s": "cmd.train_s",
    "cmd.evaluate_s": "cmd.evaluate_s",
    "segmentation.select_window_s": "segmentation.select_window",
    "segmentation.segment_s": "segmentation.segment",
    "features.feature_matrix_s": "features.feature_matrix",
    "data.load_series_s": "data.load_series",
    "graph.pairwise_distances_s": "graph.pairwise_distances",
    "graph.build_graph_s": "graph.build_graph",
    "graph.save_graph_s": "graph.save_graph",
    "graph.load_graph_s": "graph.load_graph",
    "gae.train_s": "gae.train",
    "gae.forward_loss_s": "gae.forward_loss",
    "gae.gat_layer_s": "gae.gat_layer",
    "gae.transformer_conv_layer_s": "gae.transformer_conv_layer",
    "gae.embed_s": "gae.embed",
    "autodiff.masked_neighbor_softmax_s": "autodiff.masked_neighbor_softmax",
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.adam_step_s": "autodiff.adam_step",
    "ensemble.fit_ensemble_s": "ensemble.fit_ensemble",
    "ensemble.random_forest_s": "ensemble.random_forest",
    "ensemble.gradient_boosting_s": "ensemble.gradient_boosting",
    "ensemble.regularized_boosting_s": "ensemble.regularized_boosting",
    "ensemble.mlp_s": "ensemble.mlp",
    "ensemble.weights_s": "ensemble.weights",
    "ensemble.predict_s": "ensemble.predict",
    "stats.evaluation_report_s": "stats.evaluation_report",
    "pipeline.save_model_dir_s": "pipeline.save_model_dir",
    "pipeline.load_model_dir_s": "pipeline.load_model_dir",
}
LEARNERS = ("ensemble.random_forest", "ensemble.gradient_boosting",
            "ensemble.regularized_boosting", "ensemble.mlp")


def epoch_times(spans):
    """One sample per GAE epoch: forward_loss start to the next adam_step end."""
    out, start = [], None
    for sp in spans:                    # spans are in call order
        if sp.name == "gae.forward_loss" and start is None:
            start = sp.start
        elif sp.name == "autodiff.adam_step" and start is not None:
            out.append(sp.end - start)
            start = None
    return out


def counts_summary(state, tape, cfg) -> dict:
    graphs = state.get("counts", [])
    m = sum(c["nodes"] for c in graphs)
    e = sum(c["edges"] for c in graphs)
    possible = sum(c["nodes"] * (c["nodes"] - 1) for c in graphs)
    out = {
        "nodes": m, "edges": e, "density": 2 * e / possible if possible else 0.0,
        "w_star": max((c["w_star"] for c in graphs), default=0),
        "dtw_pairs": sum(c["dtw_pairs"] for c in graphs),
        "dtw_cells": sum(c["dtw_cells"] for c in graphs),
        "windows_scanned": sum(c["windows_scanned"] for c in graphs),
        "samples_read": state.get("samples_read", 0),
        "file_bytes": sum(c["file_bytes"] for c in graphs),
        "base_fits": 0, "forward_ops": 0, "forward_out_bytes": 0,
    }
    if tape is not None:
        from vibgraph import ensemble
        out["base_fits"] = len(ensemble.BASE_KINDS) * (cfg["cv_folds"] + 1)
        out["forward_ops"], out["forward_out_bytes"] = tape
    return out


def layer_metrics(spans, marks, state, counts) -> dict:
    times = {}
    for sp in spans:
        times[sp.name] = times.get(sp.name, 0.0) + (sp.end - sp.start)
    out = {metric: times.get(name, 0.0) for metric, name in SPAN_TIMES.items()}
    m, e = counts["nodes"], counts["edges"]
    dtw_s = out["graph.pairwise_distances_s"]
    epochs = epoch_times(spans)
    trained = state.get("model") is not None
    out.update({
        "cmd.macro_f1": state.get("macro_f1", 0.0),
        "segmentation.windows_scanned": counts["windows_scanned"],
        "segmentation.w_star": counts["w_star"],
        "features.rows": m,
        "data.samples_read": counts["samples_read"],
        "graph.dtw_pairs": counts["dtw_pairs"],
        "graph.dtw_cells": counts["dtw_cells"],
        "graph.dtw_cells_per_s": counts["dtw_cells"] / dtw_s if dtw_s else 0.0,
        "graph.nodes": m,
        "graph.edges": e,
        "graph.density": counts["density"],
        "graph.file_mb": counts["file_bytes"] / 1e6,
        "gae.epoch_s": statistics.median(epochs) if epochs else 0.0,
        "gae.mask_fill": (2 * e + m) / (m * m) if trained else 0.0,
        "gae.rss_hwm_mb": max(marks.values(), default=0) / 1024.0,
        "autodiff.forward_ops": counts["forward_ops"],
        "autodiff.forward_out_mb": counts["forward_out_bytes"] / 1e6,
        "ensemble.base_fits": sum(1 for sp in spans if sp.name in LEARNERS),
        "pipeline.model_dir_mb": tree_mb(state["model_dir"]) if trained else 0.0,
    })
    return out, epochs


def baseline_rows(spans, state, counts) -> list[tuple[str, float]]:
    """The ROADMAP Baseline table's rows, in its order, from one traced pass."""
    def total(name):
        return sum(sp.end - sp.start for sp in spans if sp.name == name)

    def first(name):
        return next((sp.end - sp.start for sp in spans if sp.name == name), 0.0)

    def last(name):
        return ([0.0] + [sp.end - sp.start for sp in spans if sp.name == name])[-1]
    model = state["model"]
    n_train = len(model.split["train"])
    rows = [("select_window", total("segmentation.select_window")),
            ("features", total("features.feature_matrix")),
            (f"all-pairs DTW ({counts['dtw_pairs']} pairs)",
             total("graph.pairwise_distances")),
            ("build_graph", total("graph.build_graph")),
            (f"GAE train, {model.config.epochs} epochs", total("gae.train")),
            ("embed", first("gae.embed")),
            (f"fit_ensemble ({n_train}x{model.config.hidden_dim})",
             total("ensemble.fit_ensemble"))]
    short = {"ensemble.random_forest": "rf", "ensemble.gradient_boosting": "gb",
             "ensemble.regularized_boosting": "xgb", "ensemble.mlp": "mlp"}
    rows += [(f"one full-data fit: {short[n]}", last(n)) for n in LEARNERS]
    return rows


# ---------------------------------------------------------------------------
# machine facts


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": nproc(), "cpu_count": os.cpu_count(),
            "mem_total_gb": round(mem / 2**30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": blas_threads, "machine": platform.machine(),
            "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# the run


def measure(wl, run, seed, seconds, trace, work: Path):
    from tracing import Tracer, traced_targets
    work.mkdir(parents=True)
    if wl.input_digest(seed, work) == wl.input_digest(seed + 1, work):
        run.problems.append(f"seed {seed} and {seed + 1} give identical inputs")

    setup_times, state = [], None
    for k in range(SETUP_REPEATS):
        sub = work / f"setup{k}"
        sub.mkdir()
        t0 = time.perf_counter()
        state = wl.setup(run, seed, sub)
        setup_times.append(time.perf_counter() - t0)
    pass_dir = sub / "pass"
    pass_dir.mkdir()

    # pass 0 warms caches and allocator up: checked, but not timed
    untraced, traced, traced_runs = [], [], []
    peak_rss = 0.0
    targets = traced_targets() if trace else None
    t_start = time.perf_counter()
    for k in itertools.count():
        tracer = Tracer(targets) if trace and k % 2 == 0 and k else None
        run.tracer, run.timed = tracer, k > 0
        t0 = time.perf_counter()
        if tracer is None:
            ok = wl.run_pass(run, state, pass_dir)
        else:
            with tracer:
                ok = wl.run_pass(run, state, pass_dir)
        dt = time.perf_counter() - t0
        run.tracer = None
        if not ok:
            break
        if state.get("model") is not None:     # untimed; must repeat each pass
            tape = run.guarded("forward_loss under ad.Tape", lambda: forward_tape_counts(
                state["graph_path"], state["model"]))
            if tape is not None:
                run.repeat("forward_loss.tape_counts", tape)
        if tracer is not None:
            traced.append(dt)
            traced_runs.append((tracer, dict(state)))
        elif k:
            untraced.append(dt)
        if k == 1:
            # RSS creeps up pass after pass, so the high-water mark is taken
            # at a fixed point: set-up, warm-up and one timed pass
            peak_rss = rss_mb()
        enough = untraced and (traced or not trace)
        if enough and time.perf_counter() - t_start + dt > seconds:
            break

    # counts must change with the seed: build seed + 1's (first) graph
    if state.get("counts"):
        nxt = work / "next_seed"
        nxt.mkdir()
        counts = run.guarded(f"graph of seed {seed + 1}",
                             lambda: wl.graph_counts_for(seed + 1, nxt))
        if counts is not None and counts == state["counts"][0]:
            run.problems.append(f"seed {seed} and {seed + 1} give identical "
                                f"graph counts {counts}")
    tape = run.first_seen.get("forward_loss.tape_counts")
    return {"setup_times": setup_times, "untraced": untraced, "traced": traced,
            "traced_runs": traced_runs, "state": state, "tape": tape,
            "peak_rss_mb": peak_rss}


def fmt_timing(name, values, unit="s"):
    line = f"  {name:<34} median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    line += f"  p{t[0]} {t[1]:.6g} {unit}" if t else "  (no tail percentile: n<11)"
    return line + f"  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = make_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    expected = {}
    if EXPECTED_FILE.is_file():
        expected = json.loads(EXPECTED_FILE.read_text()).get(
            args.workload, {}).get(str(args.seed), {})
    run = Run(expected)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        res = measure(wl, run, args.seed, args.seconds, args.trace, work)
        import_times = [] if args.trace else time_fresh_imports(SETUP_REPEATS)
        return report(args, wl, run, res, import_times, blas_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, wl, run, res, import_times, blas_threads) -> int:
    from tracing import self_times
    facts = machine_facts(blas_threads)
    state = res["state"]
    counts = counts_summary(state, res["tape"], getattr(wl, "cfg", None))
    untraced = res["untraced"]
    setup_s = statistics.median(import_times or [0.0]) + statistics.median(res["setup_times"])

    print(f"vibgraph benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(untraced)}+{len(res['traced'])} traced")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("counts: " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in counts.items()))
    print("end to end (untraced):")
    if import_times:
        print(f"  {'setup_s':<34} {setup_s:.6g} s  (median of {len(import_times)} fresh "
              f"imports + median of {len(res['setup_times'])} input set-ups)")
    samples = {"run_s": untraced, **run.samples}
    for name in ("run_s", "build_graph_s", "train_s", "evaluate_s"):
        if samples.get(name):
            print(fmt_timing(name, samples[name]))
    peak = res["peak_rss_mb"]
    print(f"  {'peak_rss_mb':<34} {peak:.6g} MB")
    if "macro_f1" in state:
        print(f"  {'macro_f1':<34} {state['macro_f1']:.6g}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_frac':<34} {fail_frac:.6g}  ({run.failed} of {run.attempted} commands)")

    layers, spans_out = {}, []
    if args.trace and res["traced_runs"]:
        per_pass, epochs, baseline = [], [], []
        for tracer, st in res["traced_runs"]:
            vals, ep = layer_metrics(tracer.spans, tracer.marks, st, counts)
            per_pass.append(vals)
            epochs += ep
            rows = wl.name.startswith("reference") and run.guarded(
                "ROADMAP Baseline rows", lambda: baseline_rows(tracer.spans, st, counts))
            if rows:
                baseline.append(rows)
            spans_out.append([vars(sp) for sp in tracer.spans])
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        if any(p["ensemble.base_fits"] != counts["base_fits"] for p in per_pass):
            run.problems.append("traced learner fits differ from 4 x (cv_folds + 1)")
        t = tail(epochs)
        layers["gae.epoch_tail_s"] = t[1] if t else (max(epochs) if epochs else 0.0)
        layers["trace.run_s"] = statistics.median(res["traced"])
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(untraced)

        missing = res["traced_runs"][0][0].missing
        if missing:
            print("not traced, no longer in the program: " + " ".join(missing))
        print(f"per layer (traced, median of {len(per_pass)} passes):")
        for k, v in layers.items():
            print(f"  {k:<34} {v:.6g}")
        if epochs:
            print(fmt_timing("gae.epoch_s (all traced epochs)", epochs))
        print("self time per span (mean per traced pass): calls total_s self_s")
        n = len(res["traced_runs"])
        agg = {}
        for tracer, _ in res["traced_runs"]:
            for name, (c, tot, own) in self_times(tracer.spans).items():
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += c
                a[1] += tot
                a[2] += own
        for name, (c, tot, own) in sorted(agg.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<34} {c / n:8.1f} {tot / n:10.4f} {own / n:10.4f}")
        if baseline:
            print("ROADMAP Baseline rows (traced, median over passes):")
            for i, (label, _) in enumerate(baseline[0]):
                print(f"  {label:<40} {statistics.median(b[i][1] for b in baseline):.4g} s")
            print(f"  {'tracing overhead (traced - untraced run_s)':<40} "
                  f"{layers['trace.overhead_s']:.4g} s")

    recorded = "recorded" if not run.unrecorded else \
        "not recorded: checked for determinism, DTW spot checks and invariants only"
    print(f"checks: outputs for seed {args.seed} {recorded}")
    for p in run.problems:
        print(f"  FAILED {p}")

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(untraced) if untraced else 0.0, "s"),
        "build_graph_s": (statistics.median(run.samples.get("build_graph_s", [0.0])), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    units = {k: unit_of(k) for k in layers}
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    correct = not run.problems and run.failed == 0 and bool(untraced)

    WORK_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "counts": counts,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "setup_times": res["setup_times"],
        "import_times": import_times, "samples": samples, "traced_pass_s": res["traced"],
        "metrics": metrics, "spans": spans_out}, indent=1))
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "cells/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in ("graph.density", "gae.mask_fill", "cmd.macro_f1"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
