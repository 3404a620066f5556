"""Tests for the base classifiers and the weighted soft-voting ensemble.

Split quality is checked against exhaustive threshold enumeration; ensemble
weight search against the simplex-corner containment argument (the best mix
can never be worse than the best single base).
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibgraph import autodiff as ad
from vibgraph import ensemble as en


def blobs(n_per=30, centers=((0, 0), (3, 3), (0, 3)), spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(np.asarray(center) + spread * rng.normal(size=(n_per, 2)))
        y.extend([c] * n_per)
    return np.vstack(X), np.asarray(y)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.eye(3)[[0, 1, 2]]
        assert en.cross_entropy(probs, [0, 1, 2]) == pytest.approx(0.0)

    def test_uniform_prediction(self):
        probs = np.full((4, 2), 0.5)
        assert en.cross_entropy(probs, [0, 1, 0, 1]) == pytest.approx(np.log(2))

    def test_zero_probability_clipped(self):
        probs = np.array([[1.0, 0.0]])
        assert en.cross_entropy(probs, [1]) == pytest.approx(-np.log(1e-12))


class TestGiniSplit:
    def brute_force(self, X, y, C):
        onehot = np.eye(C)[y]
        n = len(X)
        parent = 1.0 - ((onehot.sum(0) / n) ** 2).sum()
        best = (None, None, -np.inf)
        for f in range(X.shape[1]):
            for t in np.unique(X[:, f])[:-1]:
                left = X[:, f] <= t
                nl, nr = left.sum(), n - left.sum()
                gl = 1.0 - ((onehot[left].sum(0) / nl) ** 2).sum()
                gr = 1.0 - ((onehot[~left].sum(0) / nr) ** 2).sum()
                gain = parent - (nl * gl + nr * gr) / n
                if gain > best[2]:
                    best = (f, t, gain)
        return best

    def test_gain_matches_exhaustive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.integers(0, 6, size=(25, 3)).astype(float)
            y = rng.integers(0, 3, size=25)
            onehot = np.eye(3)[y]
            got = en._best_split(X, onehot, range(3), en._gini_gain, -1e-12)
            want = self.brute_force(X, y, 3)
            if got is None:
                assert want[2] <= 0
            else:
                assert got[2] == pytest.approx(want[2])

    def test_pure_node_no_split_needed(self):
        X = np.random.default_rng(2).random((10, 2))
        onehot = np.eye(2)[np.zeros(10, dtype=int)]
        split = en._best_split(X, onehot, range(2), en._gini_gain, -1e-12)
        assert split is None or split[2] <= 1e-12


class TestSseSplit:
    @staticmethod
    def sse(v):
        return ((v - v.mean()) ** 2).sum() if len(v) else 0.0

    def reduction(self, X, target, f, t):
        left = X[:, f] <= t
        return self.sse(target) - self.sse(target[left]) - self.sse(target[~left])

    def test_gain_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.integers(0, 6, size=(25, 3)).astype(float)
            target = rng.normal(size=25)
            want = max(self.reduction(X, target, f, t) for f in range(3)
                       for t in np.unique(X[:, f])[:-1])
            f, t, gain = en._best_split(X, target, range(3), en._sse_gain, 1e-12)
            assert gain == pytest.approx(want)
            assert self.reduction(X, target, f, t) == pytest.approx(want)

    def test_obvious_step_function(self):
        X = np.arange(10.0).reshape(-1, 1)
        target = np.where(X[:, 0] < 5, 0.0, 10.0)
        f, t, gain = en._best_split(X, target, range(1), en._sse_gain, 1e-12)
        assert f == 0 and 4.0 < t < 5.0

    def test_constant_target_no_gain(self):
        X = np.arange(6.0).reshape(-1, 1)
        split = en._best_split(X, np.ones(6), range(1), en._sse_gain, 1e-12)
        assert split is None


def loop_gini_gain(left, right, nl, nr, total, n):
    gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
    parent = 1.0 - ((total / n) ** 2).sum()
    return parent - (nl * gini_l + nr * gini_r) / n


def loop_best_split(X, Y, feat_ids, gain, min_gain):
    """The split scan as one argsort and one gain vector per feature, the
    reference the whole-matrix scan must reproduce exactly."""
    n = len(X)
    total = Y.sum(axis=0)
    best = (None, 0.0, min_gain)
    for f in feat_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum = np.cumsum(Y[order], axis=0)
        valid = np.flatnonzero(xs[:-1] < xs[1:])
        if len(valid) == 0:
            continue
        nl = (valid + 1).astype(np.float64)
        left = cum[valid]
        g = gain(left, total - left, nl, n - nl, total, n)
        k = int(np.argmax(g))
        if g[k] > best[2]:
            best = (f, 0.5 * (xs[valid[k]] + xs[valid[k] + 1]), float(g[k]))
    return best if best[0] is not None else None


@st.composite
def split_problems(draw):
    """A node: n rows (bootstrap-style repeats, integer features that tie
    gains, or normal ones), a 1-D target or a one-hot one of C classes, and a
    shuffled subset of features."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    classes = draw(st.sampled_from([None, 2, 3, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 4)), (n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    if draw(st.booleans()):                                  # repeated rows
        X = X[rng.integers(0, max(1, n // 2), n)]
    if classes is None:
        Y = (rng.integers(-2, 3, n).astype(float) if draw(st.booleans())
             else rng.normal(size=n))
        gain, min_gain = en._sse_gain, 1e-12
    else:
        Y = np.eye(classes)[rng.integers(0, classes, n)]
        gain, min_gain = en._gini_gain, -1e-12
    feat_ids = rng.permutation(d)[:draw(st.integers(1, d))]
    return X, Y, feat_ids, gain, min_gain


def oracle_gain(gain):
    return loop_gini_gain if gain is en._gini_gain else gain


class TestWholeMatrixScan:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_per_feature_loop(self, problem):
        X, Y, feat_ids, gain, min_gain = problem
        got = en._best_split(X, Y, feat_ids, gain, min_gain)
        want = loop_best_split(X, Y, feat_ids, oracle_gain(gain), min_gain)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(split_problems(), st.integers(0, 2 ** 32 - 1))
    def test_presorted_node_scan_matches_node_sort(self, problem, seed):
        X, Y, _, gain, min_gain = problem
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(len(X), size=rng.integers(1, len(X) + 1),
                                  replace=False))
        got = en._presorted_split(X, gain, min_gain)(Y, rows)
        assert got == en._best_split(X[rows], Y[rows], range(X.shape[1]), gain,
                                     min_gain)


class TestTreeStatesPinned:
    # sha256 of json.dumps(state, sort_keys=True), recorded before the forest
    # and the boosters shared one split scan and one grower. Integer features
    # tie many gains, so split tie-breaking and leaf arithmetic must stay as
    # they were: scoring Gini as a multi-output SSE changes the forest here,
    # and a Newton leaf written as sum(residual)/(sum(h)+l2) flips the sign of
    # a zero leaf in the regularized booster.
    PINNED = {
        "random_forest":
            "be4667232fc8192fb3d6ae6e4e7ecbbc4ff7e28192cb53894e9e4478dfc215e9",
        "gradient_boosting":
            "5163c7f40192452bd56b50ea0aff98ef40ed11e4e55d30713941108c3699bc43",
        "regularized_boosting":
            "7ba6fd755819ea379807030e44a1224b2ce34701618b147cf29ffb488bab1ee0",
    }

    # the same three learners on normal features, recorded before the split
    # scan ran over all features of a node at once
    PINNED_NORMAL = {
        "random_forest":
            "6cd1c94cb3dc13db7b3ca1f01766892ee9565e944adf71bd5dea790679792e01",
        "gradient_boosting":
            "ab0e8671e09fc2a56f38499c4cb16c2b21e8762e051f29eaf2f437cc7fa8577f",
        "regularized_boosting":
            "990b78f7c02e889516038c03ba3cd62c41850891af36649b6ccdec024586e00f",
    }

    @staticmethod
    def state_hashes(X, y, seed):
        states = [en.train_random_forest(X, y, n_trees=20, seed=seed),
                  en.train_gradient_boosting(X, y, n_rounds=8),
                  en.train_regularized_boosting(X, y, n_rounds=8)]
        return {kind: hashlib.sha256(
                    json.dumps(state, sort_keys=True).encode()).hexdigest()
                for kind, state in zip(en.BASE_KINDS, states)}

    def test_states_unchanged(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 5, (150, 8)).astype(float)
        y = rng.integers(0, 10, 150)
        assert self.state_hashes(X, y, seed=1) == self.PINNED

    def test_normal_feature_states_unchanged(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 8))
        y = rng.integers(0, 3, 150)
        assert self.state_hashes(X, y, seed=2) == self.PINNED_NORMAL


class TestRandomForest:
    def test_separable_data_high_accuracy(self):
        X, y = blobs()
        state = en.train_random_forest(X, y, n_trees=30, max_depth=6)
        assert (en.predict_base("random_forest", state, X).argmax(1) == y).mean() > 0.95

    def test_probabilities_valid(self):
        X, y = blobs(seed=3)
        state = en.train_random_forest(X, y, n_trees=10)
        P = en.predict_base("random_forest", state, X)
        assert (P >= 0).all()
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        X, y = blobs(seed=4)
        a = en.predict_base("random_forest", en.train_random_forest(X, y, n_trees=5, seed=7), X)
        b = en.predict_base("random_forest", en.train_random_forest(X, y, n_trees=5, seed=7), X)
        np.testing.assert_array_equal(a, b)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            en.train_random_forest(np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestBoosting:
    def test_prior_is_log_class_frequency(self):
        X, y = blobs(n_per=20, seed=5)
        state = en.train_gradient_boosting(X, y, n_rounds=1)
        np.testing.assert_allclose(state["prior_scores"], np.log(np.full(3, 1 / 3)))

    def test_training_reduces_cross_entropy(self):
        X, y = blobs(seed=6)
        few = en.train_gradient_boosting(X, y, n_rounds=2)
        many = en.train_gradient_boosting(X, y, n_rounds=40)
        assert en.cross_entropy(en.predict_base("gradient_boosting", many, X), y) \
            < en.cross_entropy(en.predict_base("gradient_boosting", few, X), y)

    def test_newton_mode_also_learns(self):
        X, y = blobs(seed=7)
        state = en.train_regularized_boosting(X, y, n_rounds=40)
        probs = en.predict_base("regularized_boosting", state, X)
        assert (probs.argmax(1) == y).mean() > 0.95

    def test_l2_shrinks_leaf_values(self):
        # a heavily regularized model stays closer to the prior
        X, y = blobs(n_per=10, seed=8)
        soft = en.train_regularized_boosting(X, y, n_rounds=5, l2_leaf=1000.0)
        hard = en.train_regularized_boosting(X, y, n_rounds=5, l2_leaf=0.001)
        prior_probs = ad.softmax(np.tile(soft["prior_scores"], (len(X), 1)))
        dev_soft = np.abs(en.predict_base("regularized_boosting", soft, X)
                          - prior_probs).max()
        dev_hard = np.abs(en.predict_base("regularized_boosting", hard, X)
                          - prior_probs).max()
        assert dev_soft < dev_hard


class TestMlp:
    def test_learns_separable_data(self):
        X, y = blobs(seed=9)
        state = en.train_mlp_classifier(X, y, hidden=16, epochs=150)
        assert (en.predict_base("feed_forward_net", state, X).argmax(1) == y).mean() > 0.95

    def test_loss_gradient_matches_finite_differences(self):
        from gradcheck import grad_check
        from vibgraph.autodiff import Tensor
        rng = np.random.default_rng(10)
        X = rng.normal(size=(8, 3))
        onehot = np.eye(2)[rng.integers(0, 2, size=8)]
        W1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b1 = Tensor(np.zeros((1, 4)), requires_grad=True)
        W2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b2 = Tensor(np.zeros((1, 2)), requires_grad=True)
        params = (W1, b1, W2, b2)
        for p in params:
            err = grad_check(lambda v: en.mlp_loss(params, X, onehot), p)
            assert err < 1e-6


class TestSimplexGrid:
    def test_size_and_validity(self):
        grid = en._simplex_grid(20)
        assert len(grid) == 1771          # C(23, 3) compositions of 20 into 4
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert (grid >= 0).all()

    def test_contains_corners(self):
        grid = en._simplex_grid(20)
        for corner in np.eye(4):
            assert (grid == corner).all(axis=1).any()


class TestFitWeights:
    def test_picks_the_only_good_base(self):
        rng = np.random.default_rng(11)
        n, C = 60, 3
        labels = rng.integers(0, C, size=n)
        good = np.full((n, C), 0.05)
        good[np.arange(n), labels] = 0.9
        bad = np.full((n, C), 1.0 / C)
        noise = rng.dirichlet(np.ones(C), size=n)
        w = en.fit_ensemble_weights([good, bad, bad.copy(), noise], labels)
        assert w[0] > 0.8

    def test_never_worse_than_best_single_base(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            n, C = 40, 3
            labels = rng.integers(0, C, size=n)
            probs = [rng.dirichlet(np.ones(C), size=n) for _ in range(4)]
            w = en.fit_ensemble_weights(probs, labels)
            mixed = sum(wk * p for wk, p in zip(w, probs))
            best_single = min(en.cross_entropy(p, labels) for p in probs)
            assert en.cross_entropy(mixed, labels) <= best_single + 1e-12

    def test_tie_breaks_to_uniform(self):
        # four identical bases: every grid point ties, uniform wins on entropy
        n, C = 20, 2
        labels = np.zeros(n, dtype=int)
        p = np.full((n, C), 0.5)
        w = en.fit_ensemble_weights([p, p.copy(), p.copy(), p.copy()], labels)
        np.testing.assert_allclose(w, 0.25)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            en.fit_ensemble_weights([np.ones((2, 2))], [0, 1])


class TestEnsembleModel:
    def test_weights_validated(self):
        bases = [{"n_classes": 2, "trees": []}] * 4
        with pytest.raises(ValueError):
            en.EnsembleModel(bases, [0.5, 0.5, 0.5, -0.5], 2)
        with pytest.raises(ValueError):
            en.EnsembleModel(bases, [0.3, 0.3, 0.3, 0.3], 2)

    def test_fit_predict_round_trip(self, tmp_path):
        X, y = blobs(n_per=20, seed=13)
        hp = {"rf_trees": 10, "gb_rounds": 10, "xgb_rounds": 10,
              "mlp_epochs": 50, "cv_folds": 3}
        model = en.fit_ensemble(X, y, hp, seed=0)
        assert (model.predict(X) == y).mean() > 0.9
        # each base is the state its train_* function returned: JSON as it stands
        for state in model.bases:
            assert json.loads(json.dumps(state)) == state

        path = tmp_path / "ens.json"
        en.save_ensemble(model, str(path))
        loaded = en.load_ensemble(str(path))
        assert loaded.bases == model.bases
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_allclose(loaded.predict_proba(X),
                                   model.predict_proba(X), atol=1e-12)
        # saving what was loaded writes the same bytes
        again = tmp_path / "again.json"
        en.save_ensemble(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_must_be_the_integer(self, tmp_path, version):
        hp = dict(rf_trees=2, rf_depth=2, gb_rounds=2, gb_depth=1, xgb_rounds=2,
                  xgb_depth=1, mlp_hidden=3, mlp_epochs=2, cv_folds=2)
        X, y = blobs(n_per=4, seed=15)
        path = tmp_path / "ens.json"
        en.save_ensemble(en.fit_ensemble(X, y, hp, seed=0), str(path))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1 and en.load_ensemble(str(path))
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported ensemble format"):
            en.load_ensemble(str(path))

    def test_oof_dominance(self):
        X, y = blobs(n_per=15, seed=14, spread=1.5)
        hp = {"rf_trees": 10, "gb_rounds": 10, "xgb_rounds": 10,
              "mlp_epochs": 50, "cv_folds": 3}
        model = en.fit_ensemble(X, y, hp, seed=1)
        mixed = sum(w * p for w, p in zip(model.weights, model.oof_probs))
        ce_mixed = en.cross_entropy(mixed, y)
        for p in model.oof_probs:
            assert ce_mixed <= en.cross_entropy(p, y) + 1e-12


class TestHyperparamRanges:
    @pytest.mark.parametrize("key, value", [
        ("cv_folds", 0), ("rf_trees", 0), ("mlp_hidden", 0), ("gb_lr", -1.0)])
    def test_out_of_range_rejected(self, key, value):
        X, y = blobs(n_per=10, seed=15)
        with pytest.raises(ValueError, match=f"^{key} must be"):
            en.fit_ensemble(X, y, {key: value})


class TestStratifiedFolds:
    def test_every_fold_has_every_class(self):
        labels = np.repeat([0, 1, 2], 10)
        assign = en.stratified_folds(labels, 5, np.random.default_rng(0))
        for fold in range(5):
            assert set(labels[assign == fold]) == {0, 1, 2}

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            en.stratified_folds([0, 0, 1, 1], 3, np.random.default_rng(0))
