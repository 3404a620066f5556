"""Benchmark-side tracing: wrappers around the public functions of each
vibgraph module, recording spans in memory.

Nothing under ``src/`` is edited. Each wrapper is installed on the module
attribute that the caller looks the name up in (``vibgraph.pipeline``
imports most stage functions by name, so they are patched there) and
returns the callee's result unchanged, so output checks hold on a traced
pass exactly as on an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None     # id of the enclosing span, None for a command
    root: int              # id of the command span this call belongs to


def traced_targets():
    """(owner object, attribute, span name) for every wrapped function.

    Layer names are the vibgraph module names; the span name's prefix is the
    layer that owns the function, not the module it is patched in.
    """
    from vibgraph import autodiff, ensemble, gae, graph, pipeline, stats
    return [
        (pipeline, "load_series_by_load", "data.load_series"),
        (pipeline, "select_window", "segmentation.select_window"),
        (pipeline, "segment", "segmentation.segment"),
        (pipeline, "feature_matrix", "features.feature_matrix"),
        (pipeline, "pairwise_distances", "graph.pairwise_distances"),
        (pipeline, "build_graph", "graph.build_graph"),
        (pipeline, "save_graph", "graph.save_graph"),
        (graph, "load_graph", "graph.load_graph"),
        (pipeline, "fit_ensemble", "ensemble.fit_ensemble"),
        (pipeline, "save_model_dir", "pipeline.save_model_dir"),
        (pipeline, "load_model_dir", "pipeline.load_model_dir"),
        (gae, "train", "gae.train"),
        (gae, "embed", "gae.embed"),
        (gae, "forward_loss", "gae.forward_loss"),
        (gae, "gat_layer", "gae.gat_layer"),
        (gae, "transformer_conv_layer", "gae.transformer_conv_layer"),
        (autodiff, "masked_neighbor_softmax", "autodiff.masked_neighbor_softmax"),
        (autodiff, "backward", "autodiff.backward"),
        (autodiff, "adam_step", "autodiff.adam_step"),
        (ensemble, "train_random_forest", "ensemble.random_forest"),
        (ensemble, "train_gradient_boosting", "ensemble.gradient_boosting"),
        (ensemble, "train_regularized_boosting", "ensemble.regularized_boosting"),
        (ensemble, "train_mlp_classifier", "ensemble.mlp"),
        (ensemble, "fit_ensemble_weights", "ensemble.weights"),
        (ensemble.EnsembleModel, "predict", "ensemble.predict"),
        (stats, "evaluation_report", "stats.evaluation_report"),
    ]


class Tracer:
    """Collects spans while installed; ``with tracer:`` patches and restores."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.marks: dict[int, int] = {}     # span id -> ru_maxrss (kB) at exit
        self._stack: list[Span] = []
        self._saved = []
        self.missing: list[str] = []        # targets the program no longer has

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body; nested spans get it as parent."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                  end=0.0, parent=parent.id if parent else None,
                  root=parent.root if parent else len(self.spans))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if name == "gae.train":
                self.marks[sp.id] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for owner, attr, name in self.targets:
            original = owner.__dict__.get(attr)
            if original is None:    # renamed or removed: its layer reads 0
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans):
    """name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0.0) + (sp.end - sp.start)
    out = {}
    for sp in spans:
        calls, total, own = out.get(sp.name, (0, 0.0, 0.0))
        dur = sp.end - sp.start
        out[sp.name] = (calls + 1, total + dur, own + dur - child.get(sp.id, 0.0))
    return out
