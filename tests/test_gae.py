"""Tests for the variational graph autoencoder.

Layer math is checked against direct numpy re-computation; the full loss
gradient against central differences; training for descent and recorded
diagnostics.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibgraph import autodiff as ad
from vibgraph import gae
from vibgraph.autodiff import Tensor
from vibgraph.graph import FaultGraph


def small_config(**kw):
    base = dict(input_dim=4, hidden_dim=6, latent_dim=3, num_gat_layers=1,
                num_transformer_layers=1, gat_heads=2, transformer_heads=2,
                epochs=5, seed=0)
    base.update(kw)
    return gae.GaeConfig(**base)


def ring_graph(m=12, dim=4, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((m, dim))
    labels = np.arange(m) % n_classes
    edges = [(i, (i + 1) % m, 0.5) for i in range(m - 1)] + [(0, m - 1, 0.5)]
    edges = sorted((min(i, j), max(i, j), w) for i, j, w in edges)
    return FaultGraph(node_features=X, node_labels=labels, edges=edges)


def dense_mask(graph):
    """Boolean m x m adjacency of ``graph.edges``, both ways, with self-loops."""
    mask = np.eye(graph.num_nodes, dtype=bool)
    for i, j, _ in graph.edges:
        mask[i, j] = mask[j, i] = True
    return mask


def dense_attention(nbrs, A):
    """Per-head m x m matrices of attention ``A`` held one row per entry."""
    m = len(nbrs.indptr) - 1
    out = np.zeros((A.shape[1], m, m))
    out[:, nbrs.rows, nbrs.cols] = A.T
    return list(out)


def masked_softmax(S, mask):
    """Row softmax over the True entries of ``mask``; 0 elsewhere."""
    Sz = np.where(mask, S, -np.inf)
    Sz -= Sz.max(axis=1, keepdims=True)
    A = np.where(mask, np.exp(Sz), 0.0)
    return A / A.sum(axis=1, keepdims=True)


def numpy_gat(X, mask, W, a_src, a_dst):
    """GAT recomputed one head (column block) at a time; returns the
    mean-over-heads output and the per-head attention matrices."""
    heads = a_src.shape[1]
    h = W.shape[1] // heads
    outs, attns = [], []
    for k in range(heads):
        XW = X @ W[:, k * h:(k + 1) * h]
        E = (XW @ a_src[:, [k]]) + (XW @ a_dst[:, [k]]).T
        A = masked_softmax(np.where(E > 0, E, 0.2 * E), mask)
        outs.append(np.maximum(A @ XW, 0.0))
        attns.append(A)
    return np.mean(outs, axis=0), attns


def numpy_transformer(X, mask, Wq, Wk, Wv):
    """TransformerConv recomputed one head (column block) at a time; returns
    the mean-over-heads output and the per-head attention matrices."""
    h = Wq.shape[0]
    outs, attns = [], []
    for k in range(Wq.shape[1] // h):
        Q, K, V = (X @ P[:, k * h:(k + 1) * h] for P in (Wq, Wk, Wv))
        A = masked_softmax((Q @ K.T) / np.sqrt(h), mask)
        H = A @ V
        outs.append(np.where(H > 0, H, np.exp(np.minimum(H, 0)) - 1.0))
        attns.append(A)
    return np.mean(outs, axis=0), attns


def numpy_gat_grads(X, mask, W, a_src, a_dst, G):
    """Gradients of sum(G * numpy_gat output) with respect to X, W, a_src and
    a_dst, by the chain rule written out one head at a time."""
    heads = a_src.shape[1]
    h = W.shape[1] // heads
    dX, dW, da_src, da_dst = (np.zeros_like(x) for x in (X, W, a_src, a_dst))
    for k in range(heads):
        blk = slice(k * h, (k + 1) * h)
        XW = X @ W[:, blk]
        E = (XW @ a_src[:, [k]]) + (XW @ a_dst[:, [k]]).T
        A = masked_softmax(np.where(E > 0, E, 0.2 * E), mask)
        dP = G / heads * (A @ XW > 0)
        dA = dP @ XW.T
        dE = A * (dA - (dA * A).sum(axis=1, keepdims=True)) * np.where(E > 0, 1.0, 0.2)
        du, dv = dE.sum(axis=1), dE.sum(axis=0)
        dXW = A.T @ dP + np.outer(du, a_src[:, k]) + np.outer(dv, a_dst[:, k])
        da_src[:, k], da_dst[:, k] = XW.T @ du, XW.T @ dv
        dW[:, blk] = X.T @ dXW
        dX += dXW @ W[:, blk].T
    return dX, dW, da_src, da_dst


def numpy_transformer_grads(X, mask, Wq, Wk, Wv, G):
    """Gradients of sum(G * numpy_transformer output) with respect to X, Wq,
    Wk and Wv, by the chain rule written out one head at a time."""
    h = Wq.shape[0]
    heads = Wq.shape[1] // h
    dX, dWq, dWk, dWv = (np.zeros_like(x) for x in (X, Wq, Wk, Wv))
    for k in range(heads):
        blk = slice(k * h, (k + 1) * h)
        Q, K, V = (X @ P[:, blk] for P in (Wq, Wk, Wv))
        A = masked_softmax((Q @ K.T) / np.sqrt(h), mask)
        H = A @ V
        dH = G / heads * np.where(H > 0, 1.0, np.exp(np.minimum(H, 0)))
        dA = dH @ V.T
        dS = A * (dA - (dA * A).sum(axis=1, keepdims=True)) / np.sqrt(h)
        for P, dP, dWp in ((Wq, dS @ K, dWq), (Wk, dS.T @ Q, dWk), (Wv, A.T @ dH, dWv)):
            dWp[:, blk] = X.T @ dP
            dX += dP @ P[:, blk].T
    return dX, dWq, dWk, dWv


def gat_params(p, layer=0):
    return [p[f"gat{layer}.{k}"] for k in gae.GAT_PARAMS]


class TestConfig:
    def test_defaults_match_architecture(self):
        c = gae.GaeConfig()
        assert (c.num_gat_layers, c.gat_heads) == (3, 10)
        assert (c.num_transformer_layers, c.transformer_heads) == (2, 5)
        assert (c.input_dim, c.hidden_dim, c.latent_dim) == (10, 64, 10)
        assert c.kl_weight == 0.1 and c.epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=0).validate()
        with pytest.raises(ValueError):
            small_config(kl_weight=-0.1).validate()
        with pytest.raises(ValueError):
            small_config(split_fractions=(0.5, 0.2, 0.2)).validate()

    @pytest.mark.parametrize("setting, message", [
        (dict(learning_rate=-1.0), "learning_rate must be > 0, got -1.0"),
        (dict(learning_rate=0.0), "learning_rate must be > 0, got 0.0"),
        (dict(epochs=-1), "epochs must be >= 0, got -1"),
        (dict(split_fractions=(1.2, -0.1, -0.1)), "val_frac must be >= 0, got -0.1"),
    ])
    def test_out_of_range_named(self, setting, message):
        with pytest.raises(ValueError) as exc:
            small_config(**setting).validate()
        assert str(exc.value) == message


class TestInitParams:
    def test_parameter_inventory(self):
        c = small_config()
        p = gae.init_params(c, np.random.default_rng(0))
        assert len(p) == c.num_gat_layers * 3 + c.num_transformer_layers * 3 + 4
        assert p["gat0.W"].shape == (4, 2 * 6)
        assert p["gat0.a_src"].shape == (6, 2)
        assert p["tr0.Wq"].shape == (6, 2 * 6)
        assert p["head.W_mu"].shape == (6, 3)
        assert p["dec.W1"].shape == (3, 6)
        assert all(t.requires_grad for t in p.values())
        assert {k: t.shape for k, t in p.items()} == gae.param_shapes(c)
        assert len(gae.init_params(gae.GaeConfig(), np.random.default_rng(0))) == 19

    def test_attention_vectors_start_zero(self):
        p = gae.init_params(small_config(), np.random.default_rng(0))
        assert not p["gat0.a_src"].values.any()
        assert not p["gat0.a_dst"].values.any()

    def test_head_blocks_follow_the_per_head_draw_order(self):
        # GAT heads in turn, then per transformer head q, k, v, then the rest
        c = small_config(num_gat_layers=2, num_transformer_layers=2,
                         gat_heads=3, transformer_heads=3)
        p = gae.init_params(c, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        h = c.hidden_dim
        for layer in range(2):
            d_in = c.input_dim if layer == 0 else h
            for k in range(3):
                np.testing.assert_array_equal(p[f"gat{layer}.W"].values[:, k * h:(k + 1) * h],
                                              gae._xavier(rng, d_in, h))
        for layer in range(2):
            for k in range(3):
                for w in ("Wq", "Wk", "Wv"):
                    np.testing.assert_array_equal(
                        p[f"tr{layer}.{w}"].values[:, k * h:(k + 1) * h],
                        gae._xavier(rng, h, h))
        for name, shape in [("head.W_mu", (h, 3)), ("head.W_sigma", (h, 3)),
                            ("dec.W1", (3, h)), ("dec.W2", (h, 4))]:
            np.testing.assert_array_equal(p[name].values, gae._xavier(rng, *shape))


class TestGatLayer:
    def test_uniform_attention_at_zero_vectors(self):
        # zero attention vectors -> all scores equal -> uniform over neighborhood
        g = ring_graph()
        c = small_config()
        p = gae.init_params(c, np.random.default_rng(1))
        nbrs = g.neighbors()
        out, A = gae.gat_layer(Tensor(g.node_features), nbrs, *gat_params(p))
        assert A.shape == (len(nbrs.rows), c.gat_heads)
        expect = 1.0 / np.diff(nbrs.indptr)[nbrs.rows]
        np.testing.assert_allclose(A.values, np.tile(expect[:, None], c.gat_heads),
                                   atol=1e-12)

    def test_matches_numpy_recomputation(self):
        rng = np.random.default_rng(2)
        g = ring_graph(m=8)
        mask, nbrs = dense_mask(g), g.neighbors()
        for heads in (1, 3):
            W, a_src, a_dst = (rng.normal(size=s)
                               for s in ((4, 6 * heads), (6, heads), (6, heads)))
            out, A = gae.gat_layer(Tensor(g.node_features), nbrs,
                                   Tensor(W), Tensor(a_src), Tensor(a_dst))
            expect, expect_attns = numpy_gat(g.node_features, mask, W, a_src, a_dst)
            assert A.shape == (len(nbrs.rows), heads)
            for Ak, Bk in zip(dense_attention(nbrs, A.values), expect_attns):
                np.testing.assert_allclose(Ak, Bk, atol=1e-12)
            np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_rows_sum_to_one(self):
        g = ring_graph()
        c = small_config()
        p = gae.init_params(c, np.random.default_rng(3))
        nbrs = g.neighbors()
        _, A = gae.gat_layer(Tensor(g.node_features), nbrs, *gat_params(p))
        np.testing.assert_allclose(ad.row_sum(A.values, nbrs), 1.0, atol=1e-12)


class TestTransformerLayer:
    def test_matches_numpy_recomputation(self):
        rng = np.random.default_rng(4)
        g = ring_graph(m=8, dim=6)
        mask, nbrs = dense_mask(g), g.neighbors()
        for heads in (1, 3):
            Wq, Wk, Wv = (rng.normal(size=(6, 6 * heads)) for _ in range(3))
            out, A = gae.transformer_conv_layer(Tensor(g.node_features), nbrs,
                                                Tensor(Wq), Tensor(Wk), Tensor(Wv))
            expect, expect_attns = numpy_transformer(g.node_features, mask, Wq, Wk, Wv)
            assert A.shape == (len(nbrs.rows), heads)
            for Ak, Bk in zip(dense_attention(nbrs, A.values), expect_attns):
                np.testing.assert_allclose(Ak, Bk, atol=1e-12)
            np.testing.assert_allclose(out.values, expect, atol=1e-12)


class TestSparseMatchesDense:
    """The edge-list layers against the dense oracles on random graphs, with
    isolated nodes: outputs and the gradients of a random linear read-out."""

    @staticmethod
    def random_graph(m, density, seed):
        rng = np.random.default_rng(seed)
        linked = np.triu(rng.random((m, m)) < density, 1)
        isolated = rng.random(m) < 0.2
        linked[isolated] = linked[:, isolated] = False
        edges = [(i, j, 0.5) for i, j in zip(*np.nonzero(linked))]
        return FaultGraph(node_features=rng.random((m, 4)),
                          node_labels=np.zeros(m, dtype=np.int64), edges=edges), rng

    @staticmethod
    def check(layer, oracle, grads_oracle, graph, weights, G):
        X = Tensor(graph.node_features, requires_grad=True)
        params = [Tensor(w, requires_grad=True) for w in weights]
        out, _ = layer(X, graph.neighbors(), *params)
        expect, _ = oracle(graph.node_features, dense_mask(graph), *weights)
        np.testing.assert_allclose(out.values, expect, rtol=0, atol=1e-12)
        ad.backward(ad.tsum(ad.mul(out, Tensor(G))))
        expect = grads_oracle(graph.node_features, dense_mask(graph), *weights, G)
        for t, e in zip([X, *params], expect):
            np.testing.assert_allclose(t.grad, e, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 30), density=st.floats(0.0, 1.0),
           heads=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_gat_layer(self, m, density, heads, seed):
        g, rng = self.random_graph(m, density, seed)
        weights = [rng.normal(size=s) for s in ((4, 5 * heads), (5, heads), (5, heads))]
        self.check(gae.gat_layer, numpy_gat, numpy_gat_grads, g, weights,
                   rng.normal(size=(m, 5)))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 30), density=st.floats(0.0, 1.0),
           heads=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_transformer_conv_layer(self, m, density, heads, seed):
        g, rng = self.random_graph(m, density, seed)
        weights = [rng.normal(size=(4, 4 * heads)) for _ in range(3)]
        self.check(gae.transformer_conv_layer, numpy_transformer,
                   numpy_transformer_grads, g, weights, rng.normal(size=(m, 4)))


class TestEncodeDecode:
    def test_shapes(self):
        g = ring_graph()
        c = small_config()
        p = gae.init_params(c, np.random.default_rng(5))
        mu, logvar, H2, attns = gae.encode(g, p, c)
        assert mu.shape == logvar.shape == (12, 3)
        assert H2.shape == (12, 6)
        nnz = len(g.neighbors().rows)
        assert [A.shape for A in attns] == [(nnz, c.gat_heads), (nnz, c.transformer_heads)]
        X_hat = gae.decode(Tensor(np.zeros((12, 3))), p)
        assert X_hat.shape == (12, 4)

    def test_dim_mismatch_rejected(self):
        g = ring_graph(dim=5)
        c = small_config()
        p = gae.init_params(c, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gae.encode(g, p, c)

    def test_decoder_output_in_unit_interval(self):
        p = gae.init_params(small_config(), np.random.default_rng(6))
        Z = Tensor(np.random.default_rng(7).normal(size=(5, 3)) * 10)
        X_hat = gae.decode(Z, p).values
        assert (X_hat > 0).all() and (X_hat < 1).all()


class TestReparameterize:
    def test_formula(self):
        mu = Tensor([[1.0, -1.0]])
        logvar = Tensor([[0.0, np.log(4.0)]])
        eps = np.array([[0.5, 0.5]])
        Z = gae.reparameterize(mu, logvar, eps)
        np.testing.assert_allclose(Z.values, [[1.5, 0.0]])

    def test_zero_eps_returns_mu(self):
        mu = Tensor(np.random.default_rng(8).normal(size=(3, 2)))
        Z = gae.reparameterize(mu, Tensor(np.zeros((3, 2))), np.zeros((3, 2)))
        np.testing.assert_array_equal(Z.values, mu.values)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            gae.reparameterize(Tensor(np.zeros((2, 2))),
                               Tensor(np.zeros((2, 2))), np.zeros((3, 2)))


class TestLoss:
    def test_perfect_reconstruction_at_prior_is_zero(self):
        X = Tensor(np.random.default_rng(9).random((4, 3)))
        mu = Tensor(np.zeros((4, 2)))
        logvar = Tensor(np.zeros((4, 2)))
        L, L_rec, L_KL = gae.gae_loss(X, X, mu, logvar, 0.1)
        assert L.item() == L_rec.item() == L_KL.item() == 0.0

    def test_rec_term_oracle(self):
        rng = np.random.default_rng(10)
        X, X_hat = rng.random((5, 3)), rng.random((5, 3))
        _, L_rec, _ = gae.gae_loss(Tensor(X), Tensor(X_hat),
                                   Tensor(np.zeros((5, 2))),
                                   Tensor(np.zeros((5, 2))), 0.1)
        assert L_rec.item() == pytest.approx(((X - X_hat) ** 2).sum() / 5)

    def test_kl_term_oracle(self):
        rng = np.random.default_rng(11)
        mu, logvar = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        X = Tensor(np.zeros((6, 3)))
        _, _, L_KL = gae.gae_loss(X, X, Tensor(mu), Tensor(logvar), 0.1)
        expect = -0.5 / 6 * (1 + logvar - mu ** 2 - np.exp(logvar)).sum()
        assert L_KL.item() == pytest.approx(expect)

    def test_kl_nonnegative_over_random_inputs(self):
        rng = np.random.default_rng(12)
        X = Tensor(np.zeros((4, 2)))
        for _ in range(50):
            mu, logvar = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            _, _, L_KL = gae.gae_loss(X, X, Tensor(mu), Tensor(logvar), 0.1)
            assert L_KL.item() >= -1e-12

    def test_row_mask_restricts_loss(self):
        rng = np.random.default_rng(13)
        X, X_hat = rng.random((4, 3)), rng.random((4, 3))
        mu, logvar = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        row_mask = np.array([1.0, 0.0, 1.0, 0.0])
        _, L_rec, L_KL = gae.gae_loss(Tensor(X), Tensor(X_hat), Tensor(mu),
                                      Tensor(logvar), 0.1, row_mask)
        rows = [0, 2]
        assert L_rec.item() == pytest.approx(
            ((X[rows] - X_hat[rows]) ** 2).sum() / 2)
        expect_kl = -0.5 / 2 * (1 + logvar[rows] - mu[rows] ** 2
                                - np.exp(logvar[rows])).sum()
        assert L_KL.item() == pytest.approx(expect_kl)

    def test_total_combines_with_weight(self):
        rng = np.random.default_rng(14)
        X, X_hat = rng.random((3, 2)), rng.random((3, 2))
        mu, logvar = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        L, L_rec, L_KL = gae.gae_loss(Tensor(X), Tensor(X_hat), Tensor(mu),
                                      Tensor(logvar), 0.3)
        assert L.item() == pytest.approx(L_rec.item() + 0.3 * L_KL.item())


class TestGradientIntegrity:
    def test_full_loss_grad_check(self):
        """Central-difference check of every parameter group on a small graph."""
        g = ring_graph(m=6, n_classes=3, seed=20)
        c = small_config(seed=20)
        rng = np.random.default_rng(21)
        params = gae.init_params(c, rng)
        # move attention vectors off zero so the leaky-relu kink is avoided
        for name, t in params.items():
            if ".a_" in name:
                t.values = rng.normal(size=t.shape) * 0.3
        eps = rng.standard_normal((6, c.latent_dim))

        worst = 0.0
        for name, t in params.items():
            def f(v, name=name):
                return gae.forward_loss(g, params, c, eps)["L"]
            worst = max(worst, ad.grad_check(f, t))
        assert worst < 1e-4


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        labels = np.repeat([0, 1, 2], 20)
        rng = np.random.default_rng(22)
        tr, va, te = gae.stratified_split(labels, (0.7, 0.15, 0.15), rng)
        allidx = np.sort(np.concatenate([tr, va, te]))
        np.testing.assert_array_equal(allidx, np.arange(60))
        for cls in range(3):
            assert (labels[tr] == cls).sum() == 14
            assert (labels[va] == cls).sum() == 3
            assert (labels[te] == cls).sum() == 3

    def test_deterministic_given_seed(self):
        labels = np.repeat([0, 1], 15)
        a = gae.stratified_split(labels, (0.7, 0.15, 0.15),
                                 np.random.default_rng(5))
        b = gae.stratified_split(labels, (0.7, 0.15, 0.15),
                                 np.random.default_rng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_empty_train_class_rejected(self):
        with pytest.raises(ValueError):
            gae.stratified_split([0, 1], (0.34, 0.33, 0.33),
                                 np.random.default_rng(0))


class TestTraining:
    def cluster_graph(self, seed=0):
        # 3 clusters of 10 nodes with tight intra-cluster features and edges
        rng = np.random.default_rng(seed)
        centers = np.array([[0.1] * 4, [0.5] * 4, [0.9] * 4])
        X = np.vstack([c + 0.02 * rng.normal(size=(10, 4)) for c in centers])
        labels = np.repeat([0, 1, 2], 10)
        edges = []
        for c in range(3):
            base = 10 * c
            for i in range(10):
                for j in range(i + 1, 10):
                    edges.append((base + i, base + j, 0.9))
        return FaultGraph(node_features=np.clip(X, 0, 1), node_labels=labels,
                          edges=edges)

    def test_loss_descends(self):
        g = self.cluster_graph()
        model = gae.train(g, small_config(epochs=30, learning_rate=0.02))
        assert model.curves["train"][-1] < model.curves["train"][0]

    def test_curves_have_epoch_length(self):
        model = gae.train(self.cluster_graph(), small_config(epochs=7))
        assert all(len(model.curves[k]) == 7 for k in ("train", "val", "test"))

    def test_diagnostics_recorded(self):
        model = gae.train(self.cluster_graph(), small_config(epochs=5))
        assert model.diagnostics["max_attention_rowsum_dev"] < 1e-12
        assert model.diagnostics["min_kl"] >= -1e-12

    def test_deterministic_given_seed(self):
        g = self.cluster_graph()
        m1 = gae.train(g, small_config(epochs=4, seed=9))
        m2 = gae.train(g, small_config(epochs=4, seed=9))
        assert m1.curves == m2.curves

    def test_embed_shape_and_determinism(self):
        g = self.cluster_graph()
        model = gae.train(g, small_config(epochs=3))
        H2 = gae.embed(g, model)
        assert H2.shape == (30, 6)
        np.testing.assert_array_equal(H2, gae.embed(g, model))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            gae.train(ring_graph(m=6), small_config())


class TestModelIO:
    def test_checkpoint_round_trip(self, tmp_path):
        g = TestTraining().cluster_graph()
        model = gae.train(g, small_config(epochs=3))
        path = str(tmp_path / "model.json")
        gae.save_model(model, path)
        loaded = gae.load_model(path)
        assert loaded.config == model.config
        for name, t in model.params.items():
            np.testing.assert_array_equal(loaded.params[name].values, t.values)
        np.testing.assert_array_equal(gae.embed(g, loaded), gae.embed(g, model))

    def test_checkpoint_bytes_are_indented_json(self, tmp_path):
        model = gae.train(TestTraining().cluster_graph(), small_config(epochs=3))
        path = tmp_path / "model.json"
        gae.save_model(model, str(path))
        doc = {"config": asdict(model.config),
               "params": {name: {"shape": list(t.shape), "values": t.values.ravel().tolist()}
                          for name, t in model.params.items()},
               "curves": model.curves,
               "split": {k: np.asarray(v).tolist() for k, v in model.split.items()},
               "diagnostics": model.diagnostics}
        assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True)

    def test_curves_csv(self, tmp_path):
        g = TestTraining().cluster_graph()
        model = gae.train(g, small_config(epochs=3))
        path = tmp_path / "curves.csv"
        gae.save_loss_curves(model, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_rec,val_rec,test_rec"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == model.curves["train"][0]
