"""Pairwise DTW distances between segments and weighted fault-graph construction."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# atomic_write_text stays importable from here, where perfbench/run.py finds it
from .checks import atomic_write_text, numbers, read_json, write_json

DEFAULT_PAIR_BUDGET = 2_000_000
_CHUNK_CELLS = 24_576       # w x pairs per batched DTW chunk, keeps its buffers in L2


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


def _dtw_work(w: int, P: int):
    """Scratch for ``_batched_dtw_equal_length`` on up to P pairs of length w:
    three (w+1, P) DP diagonals as one array, and two (w, P) scratch rows."""
    return np.empty((3, w + 1, P)), np.empty((w, P)), np.empty((w, P))


def _batched_dtw_equal_length(A: np.ndarray, B: np.ndarray, work=None) -> np.ndarray:
    """DTW distances for P aligned pairs of equal-length sequences.

    A, B have shape (P, w). The DP runs over the anti-diagonals i + j = s of
    the w x w grid, whose cells do not wait on each other: five numpy calls
    per diagonal, on P-vectors (pair axis last). Three rotating (w+1, P)
    buffers hold the last three diagonals, indexed by grid row i. B is read
    with its steps reversed, so a diagonal's cost is the difference of two
    row slices of ``A.T`` and ``B.T[::-1]``, read without a copy when their
    rows are contiguous, as ``pairwise_distances`` passes them. Per cell it
    takes the same minima in the same order as ``dtw_distance``, so the
    results are bit-identical to it.

    ``work``, from ``_dtw_work(w, P')`` with P' >= P, is used instead of new
    scratch, so that a run of calls allocates no DP buffers; the result is
    then a view into ``work``, overwritten by the next call that uses it.
    """
    P, w = A.shape
    At, Br = A.T, B.T[::-1]
    E, c, t = (x[..., :P] for x in (work or _dtw_work(w, P)))
    E.fill(np.inf)                  # rows of a diagonal off the grid: DP border
    E[0, 0] = 0.0
    for s in range(2, 2 * w + 1):
        lo, hi = max(1, s - w), min(w, s - 1)     # grid rows i on diagonal s
        cost, best = c[:hi - lo + 1], t[:hi - lo + 1]
        np.subtract(At[lo - 1:hi], Br[w - s + lo:w - s + hi + 1], out=cost)
        np.abs(cost, out=cost)
        up_left, diag = E[(s - 1) % 3], E[(s - 2) % 3]
        np.minimum(up_left[lo - 1:hi], up_left[lo:hi + 1], out=best)
        np.minimum(best, diag[lo - 1:hi], out=best)
        if s == 3:
            E[0, 0] = np.inf        # diagonal 0's buffer now holds diagonal 3
        np.add(cost, best, out=E[s % 3, lo:hi + 1])
    return E[2 * w % 3, w]


def check_pair_budget(m: int, max_pairs_budget: int) -> int:
    """The m(m-1)/2 DTW pairs of m segments; PairBudgetError above the budget."""
    n_pairs = m * (m - 1) // 2
    if n_pairs > max_pairs_budget:
        raise PairBudgetError(
            f"{n_pairs} segment pairs exceed the budget of {max_pairs_budget}; "
            "raise the segmentation stride or cap the segment count")
    return n_pairs


def pairwise_distances(values, max_pairs_budget: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """All-pairs DTW distances between the rows of an m x w window matrix, as
    the symmetric m x m matrix with a zero diagonal. Fails loudly if the pair
    count exceeds the budget rather than silently subsampling."""
    values = numbers(values, "pairwise_distances needs an m x w matrix: windows of one "
                     "length", shape=(None, None)).astype(np.float64, copy=False)
    m, w = values.shape
    if m < 2:
        raise ValueError("pairwise_distances needs at least 2 segments")
    if w == 0:
        raise ValueError("pairwise_distances: empty windows")
    # a nan or inf sample makes nan or inf distances (inf - inf is nan)
    if not np.isfinite(values).all():
        raise ValueError("pairwise_distances: windows must hold finite values")
    n_pairs = check_pair_budget(m, max_pairs_budget)

    D = np.zeros((m, m))
    ii, jj = np.triu_indices(m, k=1)
    # One set of chunk buffers, filled in place. A chunk allocates nothing, so
    # its time does not hang on whether malloc kept the last chunk's pages or
    # gave them back to the operating system, to be faulted in again. A
    # chunk's longest diagonal holds about _CHUNK_CELLS cells (w per pair), so
    # that its buffers stay in a core's L2 cache at every w.
    VT = np.ascontiguousarray(values.T)
    VR = VT[::-1].copy()            # steps reversed, for the second window of a pair
    P = min(n_pairs, max(1, _CHUNK_CELLS // w))
    At, Br = np.empty(w * P), np.empty(w * P)       # flat: a short chunk's (w, n) is contiguous
    work = _dtw_work(w, P)
    for lo in range(0, n_pairs, P):
        i, j = ii[lo:lo + P], jj[lo:lo + P]
        a, b = At[:w * len(i)].reshape(w, -1), Br[:w * len(i)].reshape(w, -1)
        # mode "raise" would gather into a temporary copy of out
        np.take(VT, i, axis=1, out=a, mode="clip")
        np.take(VR, j, axis=1, out=b, mode="clip")
        D[i, j] = D[j, i] = _batched_dtw_equal_length(a.T, b[::-1].T, work)
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
    write_json(path, {"meta": graph.meta, "features": graph.node_features,
                      "labels": graph.node_labels, "edges": graph.edges})


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
