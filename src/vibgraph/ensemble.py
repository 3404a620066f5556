"""Weighted soft-voting ensemble over node embeddings.

Four base classifiers (random forest, first-order gradient boosting,
second-order boosting with L2 leaf regularization, and a small feed-forward
net on the autodiff engine) are combined by simplex weights fitted on
out-of-fold predictions by exhaustive grid search. A fitted base learner is
its state: the JSON object ensemble.json holds under ``bases[kind]``.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checks import (atomic_write_text, check_bounds, exact_keys, is_finite_number,
                     numbers, read_json)

ENSEMBLE_FORMAT_VERSION = 1

PROB_CLIP = 1e-12
WEIGHT_GRID_RESOLUTION = 20     # fit_ensemble_weights' simplex grid steps by 1/20


def cross_entropy(probs, labels) -> float:
    """Mean negative log-probability of the true class, probabilities clipped."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    p_true = np.clip(probs[np.arange(len(labels)), labels], PROB_CLIP, 1.0)
    return float(-np.log(p_true).mean())


def _check_labels(labels):
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("training requires at least 2 classes")
    return labels, int(labels.max()) + 1


# ---------------------------------------------------------------------------
# decision trees


# A tree is the nested dict ensemble.json holds: a leaf {"value": v}, v a list
# of class frequencies (forest) or one score (boosters), or a split
# {"feature", "threshold", "left", "right"} sending x[feature] <= threshold left.


def _tree_apply(tree, X, width):
    out = np.empty((len(X), width)) if width > 1 else np.empty(len(X))
    stack = [(tree, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if "value" in node:
            out[idx] = node["value"]
            continue
        go_left = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["left"], idx[go_left]))
        stack.append((node["right"], idx[~go_left]))
    return out


def _gini_gain(left, right, nl, nr, total, n):
    """Gini impurity decrease; ``left``/``right`` hold class counts on the
    last axis."""
    gini_l = 1.0 - ((left / nl[..., None]) ** 2).sum(axis=-1)
    gini_r = 1.0 - ((right / nr[..., None]) ** 2).sum(axis=-1)
    parent = 1.0 - ((total / n) ** 2).sum()
    return parent - (nl * gini_l + nr * gini_r) / n


def _sse_gain(left, right, nl, nr, total, n):
    """Sum-of-squares reduction; ``left``/``right`` are target sums per split."""
    return left ** 2 / nl + right ** 2 / nr - total ** 2 / n


def _scan_sorted(X, Y, order, feat_ids, total, gain, min_gain):
    """Best split over a node whose rows of ``X`` are listed in ``order``,
    column j sorted stably by feature ``feat_ids[j]``; ``total`` is the
    node's sum of ``Y``. The gain of every boundary of every feature is one
    (n-1) x F grid, -inf where equal values would be parted."""
    n = len(order)
    if n < 2:
        return None
    xs = X[order, feat_ids]
    left = np.cumsum(Y[order], axis=0)[:-1]       # split between i and i+1
    nl = np.arange(1.0, n)[:, None]
    g = gain(left, total - left, nl, n - nl, total, n)
    g[xs[:-1] >= xs[1:]] = -np.inf
    at = g.argmax(axis=0)                         # first boundary per feature
    col_best = g[at, np.arange(len(feat_ids))]
    j = int(np.argmax(col_best))                  # earliest feature wins ties
    if not col_best[j] > min_gain:
        return None
    i = at[j]
    return int(feat_ids[j]), 0.5 * (xs[i, j] + xs[i + 1, j]), float(col_best[j])


def _best_split(X, Y, feat_ids, gain, min_gain):
    """Best (feature, midpoint threshold, gain) over ``feat_ids`` gaining more
    than ``min_gain``, else None. Each feature is scanned in stable sorted
    order with running sums of ``Y``; the first boundary of a feature and an
    earlier feature win ties."""
    feat_ids = np.asarray(feat_ids, dtype=np.int64)
    order = np.argsort(X[:, feat_ids], axis=0, kind="stable")
    return _scan_sorted(X, Y, order, feat_ids, Y.sum(axis=0), gain, min_gain)


def _presorted_split(X, gain, min_gain):
    """``split(Y, rows)``, equal to ``_best_split`` of ``X[rows]`` and
    ``Y[rows]`` over every feature for ascending ``rows``, from one stable
    sort of each feature of ``X``: a node's rows filtered out of that sort
    keep the order a stable sort of the node alone gives them."""
    presorted = np.argsort(X.T, axis=1, kind="stable")        # d x n
    feat_ids = np.arange(X.shape[1])

    def split(Y, rows):
        in_node = np.zeros(len(X), dtype=bool)
        in_node[rows] = True
        order = presorted[in_node[presorted]].reshape(len(feat_ids), -1).T
        # the total is summed in row order, as _best_split sums it
        return _scan_sorted(X, Y, order, feat_ids, Y[rows].sum(axis=0), gain, min_gain)
    return split


def _grow_tree(X, rows, depth, max_depth, split, leaf):
    """Grow over ``rows`` of ``X``, depth first and left before right; a node
    is a ``leaf(rows)`` at ``max_depth``, below two rows, or where
    ``split(rows)`` is None."""
    found = None if depth >= max_depth or len(rows) < 2 else split(rows)
    if found is None:
        return {"value": leaf(rows)}
    feature, threshold = int(found[0]), float(found[1])
    go_left = X[rows, feature] <= threshold
    return {"feature": feature, "threshold": threshold,
            "left": _grow_tree(X, rows[go_left], depth + 1, max_depth, split, leaf),
            "right": _grow_tree(X, rows[~go_left], depth + 1, max_depth, split, leaf)}


# ---------------------------------------------------------------------------
# base classifiers


# defaults of the ensemble settings; pipeline.DEFAULT_CONFIG takes them from here,
# and so do the signature defaults of the train_* functions below
DEFAULT_HYPERPARAMS = {
    "rf_trees": 100, "rf_depth": 8,
    "gb_rounds": 100, "gb_lr": 0.1, "gb_depth": 3,
    "xgb_rounds": 100, "xgb_lr": 0.1, "xgb_depth": 3, "xgb_l2": 1.0,
    "mlp_hidden": 32, "mlp_epochs": 200, "mlp_lr": 1e-2,
    "cv_folds": 5,
}
_HP = DEFAULT_HYPERPARAMS

_HP_BOUNDS = [("rf_trees", ">=", 1), ("rf_depth", ">=", 0),
              ("gb_rounds", ">=", 0), ("gb_lr", ">", 0), ("gb_depth", ">=", 0),
              ("xgb_rounds", ">=", 0), ("xgb_lr", ">", 0), ("xgb_depth", ">=", 0),
              ("xgb_l2", ">=", 0), ("mlp_hidden", ">=", 1), ("mlp_epochs", ">=", 0),
              ("mlp_lr", ">", 0), ("cv_folds", ">=", 2)]


def check_hyperparams(hp):
    """Raise ValueError naming the first setting out of its _HP_BOUNDS range."""
    check_bounds(hp, _HP_BOUNDS)


def train_random_forest(X, labels, n_trees=_HP["rf_trees"],
                        max_depth=_HP["rf_depth"], seed=0) -> dict:
    """Bagged CART trees: Gini splits over sqrt(d) features drawn per node,
    bootstrap rows. The state is ``{n_classes, trees}``, a leaf holding the
    class frequencies of its rows; the forest averages them."""
    X = np.asarray(X, dtype=np.float64)
    labels, C = _check_labels(labels)
    onehot = np.eye(C)[labels]
    rng = np.random.default_rng(seed)
    n_sub = max(1, int(np.sqrt(X.shape[1])))

    def leaf(rows):
        counts = onehot[rows].sum(axis=0)
        return (counts / counts.sum()).tolist()

    def split(rows):
        counts = onehot[rows].sum(axis=0)
        if counts.max() == counts.sum():      # pure node
            return None
        feat_ids = rng.choice(X.shape[1], size=n_sub, replace=False)
        return _best_split(X[rows], onehot[rows], feat_ids, _gini_gain, -1e-12)

    # each tree's rows are its bootstrap sample, drawn with repetition
    trees = [_grow_tree(X, rng.integers(0, len(X), size=len(X)), 0, max_depth,
                        split, leaf)
             for _ in range(n_trees)]
    return {"n_classes": C, "trees": trees}


def _forest_proba(state, X):
    acc = np.zeros((len(X), state["n_classes"]))
    for tree in state["trees"]:
        acc += _tree_apply(tree, X, state["n_classes"])
    return acc / len(state["trees"])


def _train_boosting(X, labels, n_rounds, learning_rate, depth, l2_leaf=None):
    """Newton leaves when ``l2_leaf`` is given, first-order leaves otherwise."""
    X = np.asarray(X, dtype=np.float64)
    labels, C = _check_labels(labels)
    onehot = np.eye(C)[labels]
    prior = np.log(np.clip(onehot.mean(axis=0), PROB_CLIP, 1.0))
    trees = []
    scores = np.tile(prior, (len(X), 1))
    all_rows = np.arange(len(X))
    scan = _presorted_split(X, _sse_gain, 1e-12)
    for _ in range(n_rounds):
        p = ad.softmax(scores)
        round_trees = []
        for c in range(C):
            residual = onehot[:, c] - p[:, c]       # negative gradient
            g = p[:, c] - onehot[:, c]
            h = p[:, c] * (1.0 - p[:, c])

            def mean_leaf(rows):
                return float(residual[rows].mean())

            def newton_leaf(rows):
                return float(-g[rows].sum() / (h[rows].sum() + l2_leaf))

            tree = _grow_tree(X, all_rows, 0, depth, partial(scan, residual),
                              mean_leaf if l2_leaf is None else newton_leaf)
            round_trees.append(tree)
            scores[:, c] += learning_rate * _tree_apply(tree, X, 1)
        trees.append(round_trees)
    return {"n_classes": C, "learning_rate": learning_rate,
            "prior_scores": prior.tolist(), "trees": trees}


def train_gradient_boosting(X, labels, n_rounds=_HP["gb_rounds"],
                            learning_rate=_HP["gb_lr"],
                            depth=_HP["gb_depth"]) -> dict:
    """One-vs-all additive trees on softmax cross-entropy from log class
    priors: each round fits, per class, a tree of mean-residual leaves to
    ``onehot - p``. The state is ``{n_classes, learning_rate, prior_scores,
    trees}``, ``trees`` a list of rounds of ``n_classes`` trees each."""
    return _train_boosting(X, labels, n_rounds, learning_rate, depth)


def train_regularized_boosting(X, labels, n_rounds=_HP["xgb_rounds"],
                               learning_rate=_HP["xgb_lr"],
                               depth=_HP["xgb_depth"],
                               l2_leaf=_HP["xgb_l2"]) -> dict:
    """``train_gradient_boosting`` with Newton leaves ``-sum(g)/(sum(h) +
    l2_leaf)`` from per-sample gradients ``g = p - onehot`` and Hessians
    ``h = p(1 - p)``; the state has the same keys."""
    return _train_boosting(X, labels, n_rounds, learning_rate, depth, l2_leaf)


def _boosting_proba(state, X):
    scores = np.tile(np.asarray(state["prior_scores"], dtype=np.float64), (len(X), 1))
    for round_trees in state["trees"]:
        for c, tree in enumerate(round_trees):
            scores[:, c] += state["learning_rate"] * _tree_apply(tree, X, 1)
    return ad.softmax(scores)


def mlp_loss(params, X_arr, onehot):
    """Cross-entropy of the MLP as an autodiff scalar (also used by grad tests)."""
    W1, b1, W2, b2 = params
    X = Tensor(X_arr)
    H = ad.relu(ad.add(ad.matmul(X, W1), b1))
    logits = ad.add(ad.matmul(H, W2), b2)
    probs = ad.row_softmax(logits)
    safe = ad.add(probs, Tensor(np.full(probs.shape, PROB_CLIP)))
    picked = ad.mul(ad.log(safe), Tensor(onehot))
    return ad.scalar_mul(ad.tsum(picked), -1.0 / len(X_arr))


def train_mlp_classifier(X, labels, hidden=_HP["mlp_hidden"],
                         epochs=_HP["mlp_epochs"], lr=_HP["mlp_lr"],
                         seed=0) -> dict:
    """Single-hidden-layer ReLU softmax classifier trained full-batch with
    Adam on the autodiff engine. The state is ``{n_classes, W1, b1, W2, b2}``,
    weights as lists of rows: d x hidden, 1 x hidden, hidden x C and 1 x C."""
    X = np.asarray(X, dtype=np.float64)
    labels, C = _check_labels(labels)
    onehot = np.eye(C)[labels]
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    scale1 = np.sqrt(2.0 / d)
    scale2 = np.sqrt(2.0 / hidden)
    W1 = Tensor(rng.normal(0, scale1, (d, hidden)), requires_grad=True)
    b1 = Tensor(np.zeros((1, hidden)), requires_grad=True)
    W2 = Tensor(rng.normal(0, scale2, (hidden, C)), requires_grad=True)
    b2 = Tensor(np.zeros((1, C)), requires_grad=True)
    params = (W1, b1, W2, b2)
    opt = ad.AdamState(params, lr=lr)
    for _ in range(epochs):
        loss = mlp_loss(params, X, onehot)
        ad.backward(loss)
        ad.adam_step(opt)
    return {"n_classes": C, "W1": W1.values.tolist(), "b1": b1.values.tolist(),
            "W2": W2.values.tolist(), "b2": b2.values.tolist()}


def _mlp_proba(state, X):
    W1, b1, W2, b2 = (np.asarray(state[k], dtype=np.float64)
                      for k in ("W1", "b1", "W2", "b2"))
    H = np.maximum(X @ W1 + b1, 0.0)
    return ad.softmax(H @ W2 + b2)


# ---------------------------------------------------------------------------
# soft-voting ensemble


# each base learner's prediction from its state, in mixing-weight order
_PROBA = {"random_forest": _forest_proba,
          "gradient_boosting": _boosting_proba,
          "regularized_boosting": _boosting_proba,
          "feed_forward_net": _mlp_proba}
BASE_KINDS = tuple(_PROBA)


def predict_base(kind, state, X) -> np.ndarray:
    """Class probabilities on the rows of ``X`` of the base learner ``kind``."""
    return _PROBA[kind](state, np.asarray(X, dtype=np.float64))


def _simplex_grid(resolution):
    """All weight vectors on the 4-simplex with coordinates k/resolution."""
    grid = []
    for a in range(resolution + 1):
        for b in range(resolution + 1 - a):
            for c in range(resolution + 1 - a - b):
                d = resolution - a - b - c
                grid.append((a / resolution, b / resolution,
                             c / resolution, d / resolution))
    return np.asarray(grid)


def _weight_entropy(w):
    p = w[w > 0]
    return float(-(p * np.log(p)).sum())


def fit_ensemble_weights(base_probs, labels) -> np.ndarray:
    """Grid search on the 4-simplex minimizing out-of-fold cross-entropy.

    ``base_probs`` is a sequence of four n x C out-of-fold probability
    matrices (no leakage). Ties break toward the maximum-entropy (most
    uniform) weight vector.
    """
    if len(base_probs) != len(BASE_KINDS):
        raise ValueError(f"expected {len(BASE_KINDS)} probability matrices")
    labels = np.asarray(labels, dtype=np.int64)
    stack = np.stack([np.asarray(p, dtype=np.float64) for p in base_probs])
    n = stack.shape[1]
    p_true = np.clip(stack[:, np.arange(n), labels], PROB_CLIP, 1.0)  # 4 x n

    grid = _simplex_grid(WEIGHT_GRID_RESOLUTION)
    mixed = np.clip(grid @ p_true, PROB_CLIP, 1.0)     # grid x n
    ce = -np.log(mixed).mean(axis=1)
    lo = ce.min()
    tied = np.flatnonzero(ce <= lo + 1e-12 * (1.0 + abs(lo)))
    best = tied[int(np.argmax([_weight_entropy(grid[k]) for k in tied]))]
    return grid[best]


class EnsembleModel:
    """The four fitted base learners' states, in BASE_KINDS order, and simplex weights."""

    def __init__(self, bases, weights, n_classes):
        if len(bases) != len(BASE_KINDS):
            raise ValueError("ensemble needs exactly four base classifiers")
        weights = numbers(weights, f"weights must be {len(BASE_KINDS)} numbers",
                          shape=(len(BASE_KINDS),)).astype(np.float64)
        if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be non-negative and sum to 1")
        self.bases = list(bases)
        self.weights = weights
        self.n_classes = n_classes

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((len(X), self.n_classes))
        for w, kind, state in zip(self.weights, BASE_KINDS, self.bases):
            probs = predict_base(kind, state, X)
            if probs.shape[1] != self.n_classes:
                raise ValueError(
                    f"base classifier emitted {probs.shape[1]} columns, "
                    f"expected {self.n_classes}")
            out += w * probs
        return out

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def _train_bases(X, labels, hp, seed):
    return [
        train_random_forest(X, labels, hp["rf_trees"], hp["rf_depth"], seed),
        train_gradient_boosting(X, labels, hp["gb_rounds"], hp["gb_lr"],
                                hp["gb_depth"]),
        train_regularized_boosting(X, labels, hp["xgb_rounds"], hp["xgb_lr"],
                                   hp["xgb_depth"], hp["xgb_l2"]),
        train_mlp_classifier(X, labels, hp["mlp_hidden"], hp["mlp_epochs"],
                             hp["mlp_lr"], seed),
    ]


def stratified_folds(labels, n_folds, rng):
    """Class-balanced fold assignment; every fold must contain every class."""
    labels = np.asarray(labels)
    assign = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        if len(idx) < n_folds:
            raise ValueError(
                f"class {cls} has {len(idx)} samples, fewer than {n_folds} folds")
        assign[idx] = np.arange(len(idx)) % n_folds
    return assign


def fit_ensemble(X, labels, hyperparams=None, seed=0) -> EnsembleModel:
    """Cross-validated weight fitting followed by a full-data refit of the bases."""
    hp = dict(DEFAULT_HYPERPARAMS, **(hyperparams or {}))
    check_hyperparams(hp)
    X = np.asarray(X, dtype=np.float64)
    labels, C = _check_labels(labels)
    rng = np.random.default_rng(seed)
    assign = stratified_folds(labels, hp["cv_folds"], rng)

    oof = [np.zeros((len(X), C)) for _ in BASE_KINDS]
    for fold in range(hp["cv_folds"]):
        tr = assign != fold
        te = ~tr
        bases = _train_bases(X[tr], labels[tr], hp, seed)
        for probs, kind, state in zip(oof, BASE_KINDS, bases):
            probs[te] = predict_base(kind, state, X[te])

    weights = fit_ensemble_weights(oof, labels)
    bases = _train_bases(X, labels, hp, seed)
    model = EnsembleModel(bases, weights, C)
    model.oof_probs = oof
    return model


# ---------------------------------------------------------------------------
# serialization


def save_ensemble(model: EnsembleModel, path: str) -> None:
    doc = {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "n_classes": model.n_classes,
        "weights": model.weights.tolist(),
        "bases": dict(zip(BASE_KINDS, model.bases)),
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def _check_tree(tree, where, d, width):
    """Every node a leaf or a split on a feature in [0, d) at a finite
    threshold; a leaf holds ``width`` finite numbers, or one when None."""
    stack = [tree]
    while stack:
        node = stack.pop()
        keys = set(node) if isinstance(node, dict) else None
        if keys == {"value"}:
            v = node["value"]
            if not (is_finite_number(v) if width is None else isinstance(v, list)
                    and len(v) == width and all(map(is_finite_number, v))):
                holds = ("one finite number" if width is None
                         else f"{width} finite numbers")
                raise ValueError(f"{where} leaf must hold {holds}, got {v!r}")
        elif keys == {"feature", "threshold", "left", "right"}:
            f, t = node["feature"], node["threshold"]
            if type(f) is not int or not 0 <= f < d:
                raise ValueError(f"{where} split feature must be an integer in "
                                 f"[0, {d}), got {f!r}")
            if not is_finite_number(t):
                raise ValueError(f"{where} split threshold must be finite, got {t!r}")
            stack += [node["left"], node["right"]]
        else:
            raise ValueError(f"{where} node must be a leaf {{value}} or a split "
                             f"{{feature, threshold, left, right}}")


# the keys of each base learner's state, in BASE_KINDS order
_BOOSTING_KEYS = {"n_classes", "learning_rate", "prior_scores", "trees"}
_STATE_KEYS = {"random_forest": {"n_classes", "trees"},
               "gradient_boosting": _BOOSTING_KEYS, "regularized_boosting": _BOOSTING_KEYS,
               "feed_forward_net": {"n_classes", "W1", "b1", "W2", "b2"}}


def _check_ensemble_doc(doc):
    """Raise a one-line ValueError for the first fault in a loaded
    ensemble.json, so that only a consistent state is predicted from."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != ENSEMBLE_FORMAT_VERSION:
        raise ValueError(f"unsupported ensemble format {version}")
    C = doc.get("n_classes")
    if type(C) is not int or C < 2:
        raise ValueError(f"ensemble n_classes must be an integer >= 2, got {C!r}")
    bases = exact_keys(doc.get("bases"), BASE_KINDS,
                       f"ensemble bases must be exactly {list(BASE_KINDS)}")
    for kind, keys in _STATE_KEYS.items():
        s = bases[kind]
        if not isinstance(s, dict) or set(s) != keys:
            raise ValueError(f"{kind} state keys must be {sorted(keys)}, got "
                             f"{sorted(s) if isinstance(s, dict) else s!r}")
        if type(s["n_classes"]) is not int or s["n_classes"] != C:
            raise ValueError(f"{kind} n_classes must be the ensemble's {C}, "
                             f"got {s['n_classes']!r}")

    mlp = bases["feed_forward_net"]
    d, h = numbers(mlp["W1"], "feed_forward_net W1 must be a matrix of finite numbers",
                   shape=(None, None), finite=True).shape
    for name, (rows, cols) in (("b1", (1, h)), ("W2", (h, C)), ("b2", (1, C))):
        numbers(mlp[name], f"feed_forward_net {name} must be a {rows} x {cols} matrix "
                f"of finite numbers", shape=(rows, cols), finite=True)

    forest = bases["random_forest"]["trees"]
    if not isinstance(forest, list) or not forest:
        raise ValueError("random_forest trees must be a non-empty list")
    for i, tree in enumerate(forest):
        _check_tree(tree, f"random_forest tree {i}", d, C)
    for kind in ("gradient_boosting", "regularized_boosting"):
        s = bases[kind]
        lr = s["learning_rate"]
        if not (is_finite_number(lr) and lr > 0):
            raise ValueError(f"{kind} learning_rate must be finite and > 0, got {lr!r}")
        numbers(s["prior_scores"], f"{kind} prior_scores must be {C} finite numbers",
                shape=(C,), finite=True)
        if not isinstance(s["trees"], list):
            raise ValueError(f"{kind} trees must be a list of rounds")
        for r, round_trees in enumerate(s["trees"]):
            if not isinstance(round_trees, list) or len(round_trees) != C:
                raise ValueError(f"{kind} round {r} must hold {C} trees")
            for c, tree in enumerate(round_trees):
                _check_tree(tree, f"{kind} round {r} tree {c}", d, None)


def load_ensemble(path: str) -> EnsembleModel:
    doc = read_json(path)
    _check_ensemble_doc(doc)
    bases = [doc["bases"][kind] for kind in BASE_KINDS]
    return EnsembleModel(bases, doc["weights"], doc["n_classes"])
