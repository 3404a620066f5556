"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 pair budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import pipeline, stats
from .checks import atomic_write_text, is_finite_number, json_text, write_json
from .graph import PairBudgetError, load_graph, pairwise_distances, save_graph

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _read_f1_csv(path):
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            for tok in line.split(","):
                tok = tok.strip()
                if tok:
                    try:
                        values.append(float(tok))
                    except ValueError:
                        raise ValueError(f"{path}: F1 value {tok!r} is not a number") from None
                    if not is_finite_number(values[-1]):
                        raise ValueError(f"{path}: F1 value {tok!r} is not finite")
    if not values:
        raise ValueError(f"{path}: no F1 values found")
    return np.asarray(values)


def cmd_build_graph(args):
    cfg = pipeline.load_config(args.config, {
        "manifest": args.manifest, "data_dir": args.data_dir, "seed": args.seed})
    series = pipeline.load_series_by_load(cfg)
    if args.load not in series:
        raise ValueError(f"load {args.load!r} not in manifest "
                         f"(available: {sorted(series)})")
    graph, sel = pipeline.build_graph_from_series(series[args.load], cfg)
    save_graph(graph, args.out)
    scores_path = os.path.splitext(args.out)[0] + "_window_scores.csv"
    pipeline.save_window_scores(sel, scores_path, cfg)
    print(f"graph: {graph.num_nodes} nodes, {len(graph.edges)} edges, "
          f"w*={graph.meta['w_star']} -> {args.out}")


def cmd_train(args):
    cfg = pipeline.load_config(args.config, {"seed": args.seed})
    graph = load_graph(args.graph)
    model, ens, report = pipeline.train_on_graph(graph, cfg)
    pipeline.save_model_dir(args.out, model, ens, report, cfg)
    final = model.curves["train"][-1] if model.curves["train"] else float("nan")
    print(f"trained {cfg['epochs']} epochs, final train L_rec={final:.5f} "
          f"-> {args.out}")


def cmd_evaluate(args):
    cfg = pipeline.load_config(args.config, {"seed": args.seed})
    model, ens, train_report = pipeline.load_model_dir(args.model)
    graph = load_graph(args.graph)
    train_meta = {"scaler": train_report.get("scaler"),
                  "source_id": train_report.get("train_source", "")}
    report, doc = pipeline.evaluate_on_graph(model, ens, train_meta, graph, cfg)
    write_json(args.out, doc)
    print(f"accuracy={report['accuracy']:.4f} macro_f1={report['macro_f1']:.4f} "
          f"-> {args.out}")


def cmd_cross_eval(args):
    cfg = pipeline.load_config(args.config, {
        "manifest": args.manifest, "data_dir": args.data_dir, "seed": args.seed})
    summary = pipeline.cross_eval(cfg, args.out, args.loads)
    for pair, rec in summary["reports"].items():
        print(f"{pair}: macro_f1={rec['macro_f1']:.4f}")
    print(f"summary -> {args.out}/summary.json")


def cmd_compare(args):
    a = _read_f1_csv(args.f1_a)
    b = _read_f1_csv(args.f1_b)
    text = json_text({"paired_t": stats.paired_ttest(a, b),
                      "wilcoxon": stats.wilcoxon_signed_rank(a, b)})
    if args.out:
        atomic_write_text(args.out, text)
    print(text)


def cmd_dtw_heatmap(args):
    cfg = pipeline.load_config(args.config)
    graph = load_graph(args.graph)
    seg_values = graph.meta.get("segments")
    if seg_values is None:
        raise ValueError(f"{args.graph}: meta carries no segment values")
    D = pairwise_distances(seg_values, cfg["pair_budget"])
    lines = [",".join(repr(float(x)) for x in row) for row in D]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"{D.shape[0]}x{D.shape[1]} distance matrix -> {args.out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vibgraph",
        description="DTW-similarity graphs + variational graph autoencoder "
                    "for vibration fault diagnosis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("build-graph", help="build the fault graph for one load")
    common(p)
    p.add_argument("--load", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--data-dir", dest="data_dir", default=None)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train GAE + ensemble on a graph file")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on a graph")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cross-eval", help="full train->test matrix over loads")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--data-dir", dest="data_dir", default=None)
    p.add_argument("--loads", nargs="*", default=None)
    p.set_defaults(func=cmd_cross_eval)

    p = sub.add_parser("compare", help="paired t + Wilcoxon between F1 vectors")
    p.add_argument("--f1-a", dest="f1_a", required=True)
    p.add_argument("--f1-b", dest="f1_b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dtw-heatmap", help="pairwise DTW distance matrix CSV")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dtw_heatmap)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except PairBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
