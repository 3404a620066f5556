"""Pairwise DTW distances between segments and weighted fault-graph construction."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# atomic_write_text stays importable from here, where perfbench/run.py finds it
from .checks import atomic_write_text, numbers, read_json, write_json

DEFAULT_PAIR_BUDGET = 2_000_000
_PAIR_CHUNK = 4096          # pairs per batched DTW call, bounds its w x w cost cube


def dtw_distance(a, b) -> float:
    """Classic dynamic-programming DTW with |a_k - b_l| local cost, full window."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("dtw_distance: empty input sequence")
    n, m = a.size, b.size
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    cost = np.abs(a[:, None] - b[None, :])
    for i in range(1, n + 1):
        row = cost[i - 1]
        prev = D[i - 1]
        cur = D[i]
        for j in range(1, m + 1):
            cur[j] = row[j - 1] + min(prev[j], cur[j - 1], prev[j - 1])
    return float(D[n, m])


def similarity(distance):
    """Edge weight 1/(1 + D), elementwise, strictly decreasing in D, range (0, 1]."""
    if np.any(np.asarray(distance) < 0):
        raise ValueError("distance must be non-negative")
    return 1.0 / (1.0 + distance)


class PairBudgetError(RuntimeError):
    pass


def _batched_dtw_equal_length(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """DTW distances for P aligned pairs of equal-length sequences.

    A, B have shape (P, w). The DP runs over the w x w grid with the pair
    axis vectorized and stored last, so each cell update reads and writes
    contiguous P-vectors; per cell it takes the same minima in the same
    order as ``dtw_distance``, so the results are bit-identical to it.
    """
    P, w = A.shape
    At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
    cost = At[:, None, :] - Bt[None, :, :]
    np.abs(cost, out=cost)
    D = np.full((w + 1, w + 1, P), np.inf)
    D[0, 0] = 0.0
    t = np.empty(P)
    for i in range(1, w + 1):
        c, prev, cur = cost[i - 1], D[i - 1], D[i]
        for j in range(1, w + 1):
            np.minimum(prev[j], cur[j - 1], out=t)
            np.minimum(t, prev[j - 1], out=t)
            np.add(c[j - 1], t, out=cur[j])
    return D[w, w]


def pairwise_distances(values, max_pairs_budget: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """All-pairs DTW distances between the rows of an m x w window matrix, as
    the symmetric m x m matrix with a zero diagonal. Fails loudly if the pair
    count exceeds the budget rather than silently subsampling."""
    values = numbers(values, "pairwise_distances needs an m x w matrix: windows of one "
                     "length", shape=(None, None)).astype(np.float64, copy=False)
    m = len(values)
    if m < 2:
        raise ValueError("pairwise_distances needs at least 2 segments")
    n_pairs = m * (m - 1) // 2
    if n_pairs > max_pairs_budget:
        raise PairBudgetError(
            f"{n_pairs} segment pairs exceed the budget of {max_pairs_budget}; "
            "raise the segmentation stride or cap the segment count")

    D = np.zeros((m, m))
    ii, jj = np.triu_indices(m, k=1)
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        i, j = ii[lo:lo + _PAIR_CHUNK], jj[lo:lo + _PAIR_CHUNK]
        D[i, j] = D[j, i] = _batched_dtw_equal_length(values[i], values[j])
    return D


def threshold_from_percentile(D, pct: float) -> float:
    """Edge threshold as a percentile (linear interpolation) of the m(m-1)/2
    distances above the diagonal of the m x m matrix ``D``."""
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("threshold_from_percentile needs a square distance matrix")
    if len(D) < 2:
        raise ValueError("no distances to take a percentile of")
    return float(np.percentile(D[np.triu_indices(len(D), k=1)], pct))


Neighbors = namedtuple("Neighbors", "indptr rows cols perm")


@dataclass
class FaultGraph:
    """Weighted similarity graph over segments.

    ``edges`` holds (i, j, weight) with i < j and weight = 1/(1+D). ``meta``
    records construction parameters (w_star, step, theta, source_id, scaler).
    """

    node_features: np.ndarray
    node_labels: np.ndarray
    edges: list
    meta: dict = field(default_factory=dict)
    _neighbors: Neighbors | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    def neighbors(self) -> Neighbors:
        """CSR view of ``edges``, built on first use: symmetric, with self-loops,
        columns ascending within each row. Entry e links ``rows[e]`` to
        ``cols[e]``, row i holds entries ``indptr[i]:indptr[i+1]``, and
        ``perm[e]`` is the entry linking ``cols[e]`` to ``rows[e]``."""
        if self._neighbors is None:
            m = self.num_nodes
            i, j = np.array([e[:2] for e in self.edges], dtype=np.int64).reshape(-1, 2).T
            keys = np.unique(np.concatenate([i * m + j, j * m + i, np.arange(m) * (m + 1)]))
            rows, cols = np.divmod(keys, m)
            self._neighbors = Neighbors(np.searchsorted(rows, np.arange(m + 1)), rows, cols,
                                        np.searchsorted(keys, cols * m + rows))
        return self._neighbors

    def degrees(self) -> np.ndarray:
        """Number of neighbours of each node, self excluded."""
        return np.diff(self.neighbors().indptr) - 1


def build_graph(features, labels, theta: float, D, meta: dict | None = None) -> FaultGraph:
    """Connect every segment pair whose entry in the m x m DTW distance
    matrix ``D`` is strictly below ``theta``.

    Nodes left isolated by the threshold get one fallback edge to their
    nearest DTW neighbor so message passing reaches every node.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = features.shape[0]
    if m < 2:
        raise ValueError("build_graph needs at least 2 segments")
    D = np.asarray(D, dtype=np.float64)
    if m != len(labels) or D.shape != (m, m):
        raise ValueError(
            f"row counts disagree: {m} feature rows, {len(labels)} labels, "
            f"distance matrix of shape {D.shape}")

    linked = D < theta
    np.fill_diagonal(linked, False)
    # fallback for isolated nodes: one edge to the nearest DTW neighbor
    isolated = np.flatnonzero(~linked.any(axis=1))
    rows = D[isolated]
    rows[np.arange(len(isolated)), isolated] = np.inf
    nearest = np.argmin(rows, axis=1)
    linked[isolated, nearest] = linked[nearest, isolated] = True
    i, j = np.nonzero(np.triu(linked, 1))
    edges = list(zip(i.tolist(), j.tolist(), similarity(D[i, j]).tolist()))
    return FaultGraph(node_features=features, node_labels=labels, edges=edges,
                      meta=dict(meta or {}, theta=float(theta)))


# ---------------------------------------------------------------------------
# graph file format (JSON, one file per graph)


def save_graph(graph: FaultGraph, path: str) -> None:
    write_json(path, {"meta": graph.meta, "features": graph.node_features.tolist(),
                      "labels": graph.node_labels.tolist(), "edges": graph.edges})


def load_graph(path: str) -> FaultGraph:
    """Read a graph file; one that no stage could use raises ValueError."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not {"features", "labels", "edges"} <= doc.keys():
        raise ValueError(f"{path}: need a JSON object with features, labels and edges")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta must be a JSON object")
    features = numbers(doc["features"], f"{path}: features must be a finite 2-D matrix",
                       shape=(None, None), finite=True).astype(np.float64, copy=False)
    m = len(features)
    one_label = f"{path}: need one integer label >= 0 for each of {m} nodes"
    labels = numbers(doc["labels"], one_label, shape=(m,))
    if labels.dtype.kind != "i" or (labels < 0).any():
        raise ValueError(one_label)
    edges = doc["edges"] if doc["edges"] != [] else np.empty((0, 3))
    edges = numbers(edges, f"{path}: edges must be [i, j, weight] triples",
                    shape=(None, 3)).astype(np.float64, copy=False)
    lo, hi, weight = edges.T
    if ((lo < 0) | (lo >= hi) | (hi >= m) | (lo % 1 != 0) | (hi % 1 != 0)).any():
        raise ValueError(f"{path}: edge indices must satisfy 0 <= i < j < {m}")
    if len(np.unique(lo * m + hi)) < len(edges):
        raise ValueError(f"{path}: each node pair may carry one edge only")
    if not ((weight > 0) & (weight <= 1)).all():
        raise ValueError(f"{path}: edge weights must lie in (0, 1]")
    return FaultGraph(
        node_features=features,
        node_labels=labels.astype(np.int64),
        edges=list(zip(lo.astype(np.int64).tolist(),
                       hi.astype(np.int64).tolist(), weight.tolist())),
        meta=meta,
    )
