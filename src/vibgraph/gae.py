"""Variational graph autoencoder: multi-head graph attention + neighbor
transformer encoder, reparameterized latent space, and sigmoid feature decoder.

All learnable parameters live in a flat name -> Tensor dict so checkpoints
are a simple stable-name map. An attention layer holds one matrix per
projection, head k in column block k. Multi-head outputs are averaged (hidden
width 64 is not divisible by 10 heads, so concatenation cannot produce it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checks import (atomic_write_text, check_bounds, exact_keys, numbers, read_json,
                     write_json)
from .features import FEATURE_DIM
from .graph import FaultGraph, Neighbors

LEAKY_SLOPE = 0.2       # negative slope of the GAT attention-score LeakyReLU
SPLIT_KEYS = ("train_frac", "val_frac", "test_frac")   # config names of split_fractions
GAT_PARAMS = ("W", "a_src", "a_dst")
TR_PARAMS = ("Wq", "Wk", "Wv")
# (setting, comparison, bound) of GaeConfig, a split fraction by its SPLIT_KEYS name
_BOUNDS = [("input_dim", ">", 0), ("hidden_dim", ">", 0), ("latent_dim", ">", 0),
           ("num_gat_layers", ">", 0), ("num_transformer_layers", ">", 0),
           ("gat_heads", ">", 0), ("transformer_heads", ">", 0), ("learning_rate", ">", 0),
           ("kl_weight", ">=", 0), ("epochs", ">=", 0), ("seed", ">=", 0),
           ("train_frac", ">=", 0), ("val_frac", ">=", 0), ("test_frac", ">=", 0)]


@dataclass
class GaeConfig:
    """Model settings; these defaults are the ones pipeline.DEFAULT_CONFIG uses."""

    input_dim: int = FEATURE_DIM
    hidden_dim: int = 64
    latent_dim: int = 10
    num_gat_layers: int = 3
    num_transformer_layers: int = 2
    gat_heads: int = 10
    transformer_heads: int = 5
    kl_weight: float = 0.1
    epochs: int = 50
    learning_rate: float = 1e-3
    seed: int = 0
    split_fractions: tuple = (0.7, 0.15, 0.15)

    def validate(self):
        """Raise a one-line ValueError naming the first setting out of range:
        three split fractions, then the _BOUNDS of each setting, then split
        fractions summing to 1."""
        if len(self.split_fractions) != len(SPLIT_KEYS):
            raise ValueError(f"split_fractions must hold {len(SPLIT_KEYS)} numbers, "
                             f"got {self.split_fractions!r}")
        check_bounds(dict(vars(self), **dict(zip(SPLIT_KEYS, self.split_fractions))),
                     _BOUNDS)
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        return self


@dataclass
class TrainedGAE:
    params: dict                      # name -> Tensor
    config: GaeConfig
    curves: dict = field(default_factory=lambda: {"train": [], "val": [], "test": []})
    split: dict = field(default_factory=dict)          # "train"/"val"/"test" -> node index arrays
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parameters


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def param_shapes(config: GaeConfig) -> dict:
    """Name -> shape of every parameter, in ``init_params`` order."""
    h, z = config.hidden_dim, config.latent_dim
    shapes = {}
    for layer in range(config.num_gat_layers):
        d_in = config.input_dim if layer == 0 else h
        shapes[f"gat{layer}.W"] = (d_in, config.gat_heads * h)
        shapes[f"gat{layer}.a_src"] = shapes[f"gat{layer}.a_dst"] = (h, config.gat_heads)
    for layer in range(config.num_transformer_layers):
        for w in TR_PARAMS:
            shapes[f"tr{layer}.{w}"] = (h, config.transformer_heads * h)
    shapes.update({"head.W_mu": (h, z), "head.W_sigma": (h, z),
                   "dec.W1": (z, h), "dec.W2": (h, config.input_dim)})
    return shapes


def init_params(config: GaeConfig, rng: np.random.Generator) -> dict:
    """Xavier-uniform weight matrices, drawn one head block at a time (a
    transformer head as q, k, v); attention vectors start at zero."""
    h = config.hidden_dim
    p = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    for layer in range(config.num_gat_layers):
        W = p[f"gat{layer}.W"]
        for k in range(config.gat_heads):
            W[:, k * h:(k + 1) * h] = _xavier(rng, W.shape[0], h)
    for layer in range(config.num_transformer_layers):
        for k in range(config.transformer_heads):
            for w in TR_PARAMS:
                p[f"tr{layer}.{w}"][:, k * h:(k + 1) * h] = _xavier(rng, h, h)
    for name in ("head.W_mu", "head.W_sigma", "dec.W1", "dec.W2"):
        p[name] = _xavier(rng, *p[name].shape)
    return {name: Tensor(values, requires_grad=True) for name, values in p.items()}


# ---------------------------------------------------------------------------
# layers


def gat_layer(H: Tensor, nbrs: Neighbors, W: Tensor, a_src: Tensor, a_dst: Tensor):
    """One multi-head graph-attention layer over the entries of ``nbrs``;
    head k reads column k of the attention vectors and column block k of W.

    Per head: e_ij = LeakyReLU(a_src.(W x_i) + a_dst.(W x_j)), softmax over
    the (self-loop-inclusive) neighborhood, ReLU of the attention-weighted
    sum of projected neighbors. Returns (mean-over-heads output, attention
    with one row per entry and one column per head).
    """
    return ad.gat_layer(H, nbrs, W, a_src, a_dst, LEAKY_SLOPE)


def transformer_conv_layer(H: Tensor, nbrs: Neighbors, Wq: Tensor, Wk: Tensor,
                           Wv: Tensor):
    """Neighbor-restricted scaled dot-product attention with ELU output; each
    head projects to the input width, head k from column block k."""
    d_h = Wq.shape[0]
    return ad.transformer_layer(H, nbrs, Wq, Wk, Wv, Wq.shape[1] // d_h, 1.0 / np.sqrt(d_h))


def encode(graph: FaultGraph, params: dict, config: GaeConfig):
    """Run the encoder stack; returns (mu, logvar, H2, per-layer attention)."""
    if graph.node_features.shape[1] != config.input_dim:
        raise ValueError(
            f"graph feature dim {graph.node_features.shape[1]} does not match "
            f"config input_dim {config.input_dim}")
    nbrs = graph.neighbors()
    H = Tensor(graph.node_features)
    attns = []
    for layer in range(config.num_gat_layers):
        H, A = gat_layer(H, nbrs, *(params[f"gat{layer}.{k}"] for k in GAT_PARAMS))
        attns.append(A)
    for layer in range(config.num_transformer_layers):
        H, A = transformer_conv_layer(H, nbrs,
                                      *(params[f"tr{layer}.{k}"] for k in TR_PARAMS))
        attns.append(A)
    mu = ad.matmul(H, params["head.W_mu"])
    logvar = ad.matmul(H, params["head.W_sigma"])
    return mu, logvar, H, attns


def reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray) -> Tensor:
    """Z = mu + exp(logvar / 2) * eps with a caller-supplied standard-normal draw."""
    if eps.shape != mu.shape or mu.shape != logvar.shape:
        raise ad.ShapeError(
            f"reparameterize got mu {mu.shape}, logvar {logvar.shape}, eps {eps.shape}")
    std = ad.exp(ad.scalar_mul(logvar, 0.5))
    return ad.add(mu, ad.mul(std, Tensor(eps)))


def decode(Z: Tensor, params: dict) -> Tensor:
    """Two-layer decoder ending in a sigmoid to match the [0,1] feature range."""
    H = ad.relu(ad.matmul(Z, params["dec.W1"]))
    return ad.sigmoid(ad.matmul(H, params["dec.W2"]))


def gae_loss(X: Tensor, X_hat: Tensor, mu: Tensor, logvar: Tensor,
             kl_weight: float, row_mask: np.ndarray | None = None):
    """Total loss L_rec + lambda * L_KL, optionally restricted to masked rows.

    Returns (L, L_rec, L_KL) as scalar tensors. L_rec averages squared
    reconstruction error per node; L_KL is the Gaussian KL to N(0, I).
    """
    if X.shape != X_hat.shape or mu.shape != logvar.shape:
        raise ad.ShapeError(
            f"gae_loss got X {X.shape}, X_hat {X_hat.shape}, mu {mu.shape}, "
            f"logvar {logvar.shape}")
    m = X.shape[0]
    # no mask is a mask of ones: x * 1.0 is exact, so the loss and its
    # gradients are those of the unmasked sums bit for bit
    mask = np.ones(m) if row_mask is None else row_mask
    col = Tensor(np.asarray(mask, dtype=np.float64).reshape(m, 1))
    n_rows = int(col.values.sum())

    sq = ad.mul(ad.square(ad.sub(X, X_hat)), col)
    L_rec = ad.scalar_mul(ad.tsum(sq), 1.0 / n_rows)

    ones = Tensor(np.ones(mu.shape))
    inner = ad.sub(ad.sub(ad.add(ones, logvar), ad.square(mu)), ad.exp(logvar))
    L_KL = ad.scalar_mul(ad.tsum(ad.mul(inner, col)), -0.5 / n_rows)

    L = ad.add(L_rec, ad.scalar_mul(L_KL, kl_weight))
    return L, L_rec, L_KL


def forward_loss(graph: FaultGraph, params: dict, config: GaeConfig,
                 eps: np.ndarray, row_mask: np.ndarray | None = None):
    """Full forward pass and loss; returns tensors plus attention matrices."""
    X = Tensor(graph.node_features)
    mu, logvar, H2, attns = encode(graph, params, config)
    Z = reparameterize(mu, logvar, eps)
    X_hat = decode(Z, params)
    L, L_rec, L_KL = gae_loss(X, X_hat, mu, logvar, config.kl_weight, row_mask)
    return {"L": L, "L_rec": L_rec, "L_KL": L_KL, "mu": mu, "logvar": logvar,
            "H2": H2, "X_hat": X_hat, "attns": attns}


# ---------------------------------------------------------------------------
# training


def stratified_split(labels, fractions, rng: np.random.Generator):
    """Per-class shuffled split into train/val/test index arrays."""
    labels = np.asarray(labels)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n = len(idx)
        n_tr = int(round(fractions[0] * n))
        n_va = int(round(fractions[1] * n))
        train.extend(idx[:n_tr])
        val.extend(idx[n_tr:n_tr + n_va])
        test.extend(idx[n_tr + n_va:])
        if n_tr == 0:
            raise ValueError(f"class {cls} absent from the training split")
    return tuple(np.sort(np.array(idx, dtype=np.int64)) for idx in (train, val, test))


def _rec_loss_rows(X, X_hat, rows):
    if len(rows) == 0:
        return float("nan")
    diff = X[rows] - X_hat[rows]
    return float((diff ** 2).sum() / len(rows))


def train(graph: FaultGraph, config: GaeConfig) -> TrainedGAE:
    """Full-graph training with Adam; records train/val/test reconstruction
    curves per epoch and attention/KL diagnostics."""
    config.validate()
    if graph.num_nodes < 10:
        raise ValueError("training needs at least 10 nodes")
    rng = np.random.default_rng(config.seed)
    tr_idx, va_idx, te_idx = stratified_split(graph.node_labels,
                                              config.split_fractions, rng)
    params = init_params(config, rng)
    opt = ad.AdamState(list(params.values()), lr=config.learning_rate)

    m = graph.num_nodes
    row_mask = np.zeros(m)
    row_mask[tr_idx] = 1.0
    X = graph.node_features
    curves = {"train": [], "val": [], "test": []}
    max_attn_dev = 0.0
    min_kl = np.inf

    for _ in range(config.epochs):
        eps = rng.standard_normal((m, config.latent_dim))
        out = forward_loss(graph, params, config, eps, row_mask)

        for A in out["attns"]:
            # each head's attention over each neighborhood must sum to 1
            dev = np.abs(ad.row_sum(A.values, graph.neighbors()) - 1.0).max()
            max_attn_dev = max(max_attn_dev, float(dev))
        min_kl = min(min_kl, out["L_KL"].item())

        for name, rows in zip(curves, (tr_idx, va_idx, te_idx)):
            curves[name].append(_rec_loss_rows(X, out["X_hat"].values, rows))

        ad.backward(out["L"])
        ad.adam_step(opt)

    return TrainedGAE(
        params=params, config=config, curves=curves,
        split={"train": tr_idx, "val": va_idx, "test": te_idx},
        diagnostics={"max_attention_rowsum_dev": max_attn_dev,
                     "min_kl": min_kl if config.epochs else None},
    )


def embed(graph: FaultGraph, model: TrainedGAE) -> np.ndarray:
    """Deterministic encoder forward; returns the m x hidden_dim H2 embedding.
    It runs on detached views of the parameters, so no op keeps its inputs."""
    params = {name: Tensor(t.values) for name, t in model.params.items()}
    _, _, H2, _ = encode(graph, params, model.config)
    return H2.values


# ---------------------------------------------------------------------------
# checkpoint + curves I/O


def save_model(model: TrainedGAE, path: str) -> None:
    doc = {
        "config": asdict(model.config),
        "params": {name: {"shape": list(t.shape), "values": t.values.ravel()}
                   for name, t in model.params.items()},
        "curves": model.curves,
        "split": model.split,
        "diagnostics": model.diagnostics,
    }
    write_json(path, doc)


def load_model(path: str) -> TrainedGAE:
    """Read a checkpoint; one whose config or parameters do not match
    ``GaeConfig`` and ``param_shapes`` raises a one-line ValueError. The
    training curves and diagnostics it stores are not read back: nothing
    uses them after a load, so the model keeps their empty defaults."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not {"config", "params"} <= doc.keys():
        raise ValueError(f"{path}: need a JSON object with config and params")
    cfg, recs = doc["config"], doc["params"] if isinstance(doc["params"], dict) else {}
    defaults = asdict(GaeConfig())
    exact_keys(cfg, defaults, f"{path}: config keys must be GaeConfig's fields")
    for key, default in defaults.items():
        wrong = f"{path}: config {key} has the wrong type or is not finite"
        value = numbers(cfg[key], wrong, shape=np.shape(default), finite=True)
        if type(default) is int and value.dtype.kind != "i":
            raise ValueError(wrong)
    config = GaeConfig(**dict(cfg, split_fractions=tuple(cfg["split_fractions"]))).validate()
    if len(recs) < 3 * (config.num_gat_layers + config.num_transformer_layers):
        # refused before param_shapes would list every one of a huge layer count
        raise ValueError(f"{path}: parameter names must be those of the config, 3 per layer")
    shapes = param_shapes(config)
    exact_keys(recs, shapes, f"{path}: parameter names must be those of the config")
    params = {}
    for name, shape in shapes.items():
        rec, wrong = recs[name], f"{path}: parameter {name} must have shape {list(shape)}"
        if not (isinstance(rec, dict) and rec.get("shape") == list(shape)):
            raise ValueError(wrong)
        values = numbers(rec.get("values"), wrong, shape=(math.prod(shape),))
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name} holds non-finite values")
        params[name] = Tensor(values.astype(np.float64, copy=False).reshape(shape),
                              requires_grad=True)
    split = doc.get("split", {})
    if not (isinstance(split, dict) and split.keys() <= {"train", "val", "test"} and all(
            isinstance(v, list) and all(type(i) is int and 0 <= i < 2 ** 63 for i in v)
            for v in split.values())):
        raise ValueError(f"{path}: split must map train/val/test to lists of integers >= 0")
    return TrainedGAE(params=params, config=config,
                      split={k: np.asarray(v, dtype=np.int64) for k, v in split.items()})


def save_loss_curves(model: TrainedGAE, path: str) -> None:
    rows = ["epoch,train_rec,val_rec,test_rec"]
    for e, (tr, va, te) in enumerate(zip(model.curves["train"],
                                         model.curves["val"],
                                         model.curves["test"]), start=1):
        rows.append(f"{e},{tr!r},{va!r},{te!r}")
    atomic_write_text(path, "\n".join(rows) + "\n")
