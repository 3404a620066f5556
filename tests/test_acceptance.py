"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line (run with `pytest -s` to see them inline).

A criterion that fails is implemented as specified and left red rather
than weakened; the Tests section of README.md records which ones fail and
the measured cause.
"""

import itertools
import time

import numpy as np
import pytest

from vibgraph import ensemble as en
from vibgraph import gae, pipeline, stats, synthetic
from vibgraph.graph import FaultGraph, dtw_distance
from vibgraph.segmentation import TimeSeries, default_bin_count, \
    select_window, shannon_entropy

from fixtures import PER_CLASS_F1, PUBLISHED_PAIRED_T, THREE_HP_RUNS
from gradcheck import grad_check


def _verdict(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {tag}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: published paired-t reproduction


ROUNDING_HALF_WIDTH = 0.005    # the F1 tables are rounded to two decimals
MEAN_DIFF_HALF_WIDTH = 0.0005  # published mean differences: three decimals
T_BAND_DRAWS = 1500
T_BAND_SEED = 1


def _t_band(a, b, mean_diff, rng):
    """Central 95% of paired-t over tables that round to `a` and `b`.

    Each entry is drawn uniformly from its rounding cell, capped at 1.0
    since F1 <= 1; only tables whose mean difference rounds to the
    published `mean_diff` are kept. Every kept table goes through
    `stats.paired_ttest` itself.
    """
    def draw(x):
        return rng.uniform(x - ROUNDING_HALF_WIDTH,
                           np.minimum(x + ROUNDING_HALF_WIDTH, 1.0),
                           size=(T_BAND_DRAWS, len(x)))

    A, B = draw(a), draw(b)
    keep = np.abs((A - B).mean(axis=1) - mean_diff) < MEAN_DIFF_HALF_WIDTH
    ts = [stats.paired_ttest(x, y)["t_statistic"] for x, y in zip(A[keep], B[keep])]
    return np.percentile(ts, [2.5, 97.5])


def test_criterion_01_paired_t_reproduction():
    # the published tests ran on unrounded F1 tables (see tests/fixtures.py),
    # so each number is checked at the precision the rounded table fixes it
    t0 = time.perf_counter()
    rng = np.random.default_rng(T_BAND_SEED)
    f1 = {k: np.asarray(PER_CLASS_F1[k])
          for k in ("proposed", "cnn", "rnn", "gru")}
    invalid = [k for k, v in f1.items() if not ((v >= 0) & (v <= 1)).all()]
    if invalid:
        _verdict(1, False, "per-class F1 tables lie in [0, 1]",
                 ", ".join(invalid))
    a = f1["proposed"]
    problems, bands = [], []
    for name in ("cnn", "rnn", "gru"):
        b = f1[name]
        r = stats.paired_ttest(a, b)
        pub = PUBLISHED_PAIRED_T[name]
        diff = r["mean_difference"]
        if abs(diff - pub["mean_diff"]) > MEAN_DIFF_HALF_WIDTH:
            problems.append(f"{name} mean diff={diff:.4f} "
                            f"vs {pub['mean_diff']}")
        if abs(r["p_value_one_sided"] - pub["p"]) > 0.005:
            problems.append(f"{name} p={r['p_value_one_sided']:.4f} "
                            f"vs {pub['p']}")
        lo, hi = _t_band(a, b, pub["mean_diff"], rng)
        bands.append(f"{name} t={pub['t']} in [{lo:.3f}, {hi:.3f}]")
        if not lo <= pub["t"] <= hi:
            problems.append(f"{name} t={pub['t']} outside "
                            f"[{lo:.3f}, {hi:.3f}] "
                            f"(rounded table gives {r['t_statistic']:.4f})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _verdict(1, not problems, "paired-t statistics match published values "
             "within the rounding of their inputs",
             "; ".join(problems or bands + [f"{elapsed:.2f}s"]))


# ---------------------------------------------------------------------------
# criterion 2: F1 summary of the three published 3 Hp runs


def test_criterion_02_f1_summary():
    mean, std = stats.f1_summary(THREE_HP_RUNS)
    ok = abs(mean - 0.995) <= 0.002
    _verdict(2, ok, "f1_summary of the three published runs near 0.995",
             f"mean={mean:.5f} std={std:.5f}")


# ---------------------------------------------------------------------------
# criterion 3: gradient integrity of the full model loss


def test_criterion_03_gradient_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    X = rng.random((6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    edges = [(0, 1, 0.9), (2, 3, 0.9), (4, 5, 0.9), (1, 2, 0.5), (3, 4, 0.5)]
    graph = FaultGraph(node_features=X, node_labels=labels, edges=edges)
    config = gae.GaeConfig(input_dim=4, hidden_dim=6, latent_dim=3,
                           num_gat_layers=3, num_transformer_layers=2,
                           gat_heads=2, transformer_heads=2, seed=30)
    params = gae.init_params(config, rng)
    for name, t in params.items():
        # attention vectors off zero, away from the leaky-relu kink
        if ".a_" in name:
            t.values = rng.normal(size=t.shape) * 0.3
    eps = rng.standard_normal((6, config.latent_dim))

    worst = 0.0
    for t in params.values():
        def f(v):
            return gae.forward_loss(graph, params, config, eps)["L"]
        worst = max(worst, grad_check(f, t))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _verdict(3, ok, "full-model gradients match finite differences",
             f"max rel err={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: DTW equals exhaustive warping-path enumeration


def _paths(n, m):
    """All monotone warping paths through an n x m grid, as flat cell indices."""
    out = []

    def walk(i, j, acc):
        acc = acc + [i * m + j]
        if i == n - 1 and j == m - 1:
            out.append(acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, [])
    return out


def _path_matrix(n, m):
    paths = _paths(n, m)
    M = np.zeros((n * m, len(paths)))
    for p, path in enumerate(paths):
        for cell in path:
            M[cell, p] += 1.0
    return M


def test_criterion_04_dtw_oracle_equivalence():
    values = (0.0, 1.0, 2.0)
    seqs = {n: np.array(list(itertools.product(values, repeat=n)))
            for n in range(1, 7)}
    mismatches = 0
    total = 0
    for n in range(1, 7):
        for m in range(n, 7):
            A, B = seqs[n], seqs[m]
            if n == m:
                ii, jj = np.triu_indices(len(A))
            else:
                ii, jj = map(np.ravel, np.meshgrid(np.arange(len(A)),
                                                   np.arange(len(B)),
                                                   indexing="ij"))
            M = _path_matrix(n, m)
            batch = 20000
            for lo in range(0, len(ii), batch):
                ai, bj = ii[lo:lo + batch], jj[lo:lo + batch]
                cost = np.abs(A[ai][:, :, None] - B[bj][:, None, :])
                oracle = (cost.reshape(len(ai), -1) @ M).min(axis=1)
                got = np.array([dtw_distance(A[i], B[j])
                                for i, j in zip(ai, bj)])
                mismatches += int((got != oracle).sum())
                total += len(ai)
    _verdict(4, mismatches == 0,
             "dtw_distance equals path enumeration on the full product space",
             f"{total} pairs, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# criterion 5: window selection equals a brute-force oracle


def test_criterion_05_window_selection_oracle():
    import math
    candidates = (4, 8, 16, 32)
    rng = np.random.default_rng(50)
    agree = 0
    for trial in range(50):
        # mix of tonal and noise-like series so different windows win
        t = np.arange(500)
        period = rng.uniform(3, 40)
        x = rng.uniform(0.2, 2.0) * np.sin(2 * np.pi * t / period) \
            + rng.uniform(0.05, 1.0) * rng.standard_normal(500)
        series = TimeSeries(samples=x, labels=np.zeros(500, dtype=np.int64))

        best_w, best_score = None, -np.inf
        for w in candidates:
            bc = default_bin_count(w)
            ents = [shannon_entropy(x[i:i + w], bc)
                    for i in range(0, 500 - w + 1)]
            score = float(np.mean(ents)) / math.log(w)
            if score > best_score:      # first max wins: smallest window
                best_w, best_score = w, score
        got = select_window(series, candidates).w_star
        agree += int(got == best_w)
    _verdict(5, agree == 50, "select_window matches the brute-force oracle",
             f"{agree}/50 agree")


# ---------------------------------------------------------------------------
# criteria 6 + 9 share one training run on the synthetic 3-class dataset


DESCENT_CFG = dict(pipeline.DEFAULT_CONFIG,
                   candidate_windows=[8, 16, 32], stride=8,
                   learning_rate=0.02, n_classes=3)


@pytest.fixture(scope="module")
def descent_run():
    series = synthetic.make_sinusoid_series(seed=3)   # 3 classes, 10% noise
    t0 = time.perf_counter()
    graph, _ = pipeline.build_graph_from_series(series, DESCENT_CFG)
    model = gae.train(graph, pipeline.gae_config_from(DESCENT_CFG))
    elapsed = time.perf_counter() - t0
    return graph, model, elapsed


def test_criterion_06_training_descent(descent_run):
    graph, model, elapsed = descent_run
    tr = model.curves["train"]
    ratio = tr[-1] / tr[0]
    ok = (550 <= graph.num_nodes <= 650 and len(tr) == 50
          and ratio < 0.25 and elapsed < 300.0)
    _verdict(6, ok, "50 epochs cut train reconstruction below 25% of epoch 1",
             f"{graph.num_nodes} nodes, epoch1={tr[0]:.3f}, "
             f"epoch50={tr[-1]:.3f}, ratio={ratio:.3f}, {elapsed:.0f}s")


def test_criterion_09_attention_and_kl(descent_run):
    _, model, _ = descent_run
    dev = model.diagnostics["max_attention_rowsum_dev"]
    min_kl = model.diagnostics["min_kl"]
    ok = dev <= 1e-12 and min_kl >= -1e-12
    _verdict(9, ok, "attention rows sum to 1 and KL stays non-negative",
             f"max rowsum dev={dev:.2e}, min KL={min_kl:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end synthetic classification


def test_criterion_07_end_to_end_classification(descent_run):
    graph, _, _ = descent_run
    cfg = dict(DESCENT_CFG, rf_trees=30, gb_rounds=30, xgb_rounds=30,
               mlp_epochs=100)
    scores = []
    for seed in (0, 1, 2):
        _, _, report = pipeline.train_on_graph(graph, dict(cfg, seed=seed))
        scores.append(report["splits"]["test"]["macro_f1"])
    ok = all(s >= 0.95 for s in scores)
    _verdict(7, ok, "held-out macro F1 >= 0.95 across 3 seeds",
             "f1=" + ", ".join(f"{s:.3f}" for s in scores))


# ---------------------------------------------------------------------------
# criterion 8: ensemble weights dominate every base classifier


def test_criterion_08_ensemble_dominance():
    hp = {"rf_trees": 10, "gb_rounds": 10, "xgb_rounds": 10,
          "mlp_epochs": 50, "cv_folds": 3}
    worst_margin = np.inf
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        centers = rng.normal(size=(3, 4)) * 2.0
        X = np.vstack([c + rng.normal(size=(20, 4)) for c in centers])
        y = np.repeat(np.arange(3), 20)
        model = en.fit_ensemble(X, y, hp, seed=seed)
        mixed = sum(w * p for w, p in zip(model.weights, model.oof_probs))
        ce_mixed = en.cross_entropy(mixed, y)
        ce_bases = [en.cross_entropy(p, y) for p in model.oof_probs]
        worst_margin = min(worst_margin, min(ce_bases) - ce_mixed)
    ok = worst_margin >= -1e-12
    _verdict(8, ok, "fitted weights never lose to a single base classifier",
             f"worst margin={worst_margin:.2e}")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical cross-eval reports under a fixed seed


def test_criterion_10_determinism(tmp_path):
    data_dir = tmp_path / "data"
    synthetic.write_synthetic_load_files(str(data_dir), loads=("a", "b"),
                                         n_chunks_per_class=4, chunk_len=150)
    cfg = dict(pipeline.DEFAULT_CONFIG,
               candidate_windows=[8, 16], stride=16, block_size=1,
               reducer="mean", n_classes=3, hidden_dim=8, latent_dim=4,
               num_gat_layers=1, num_transformer_layers=1, gat_heads=2,
               transformer_heads=2, epochs=3, learning_rate=0.01,
               rf_trees=5, gb_rounds=5, xgb_rounds=5, mlp_epochs=20,
               cv_folds=3, data_dir=str(data_dir), seed=7)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    s1 = pipeline.cross_eval(dict(cfg), str(out1))
    s2 = pipeline.cross_eval(dict(cfg), str(out2))

    names = [rec["file"] for rec in s1["reports"].values()]
    names += ["summary.json", "summary.md"]
    differing = [n for n in names
                 if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    _verdict(10, not differing, "repeated cross-eval reports byte-identical",
             f"{len(names)} files" + (f"; differ: {differing}" if differing
                                      else ""))


# ---------------------------------------------------------------------------
# criterion 11: exact Wilcoxon p equals full sign enumeration


def test_criterion_11_wilcoxon_exactness():
    from scipy.stats import rankdata
    rng = np.random.default_rng(110)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(3, 11))
        d = rng.integers(-6, 7, size=n).astype(float)
        if not d.any():
            d[0] = float(rng.integers(1, 7))
        got = stats.wilcoxon_signed_rank(d, np.zeros(n))
        nz = d[d != 0]
        ranks = rankdata(np.abs(nz))
        w_obs = min(ranks[nz > 0].sum(), ranks[nz < 0].sum())
        count = sum(1 for signs in itertools.product((0, 1), repeat=len(nz))
                    if sum(r for r, s in zip(ranks, signs) if s)
                    <= w_obs + 1e-9)
        expect = min(1.0, 2.0 * count / 2 ** len(nz))
        if abs(got["p_value"] - expect) > 1e-12:
            mismatches += 1
    _verdict(11, mismatches == 0,
             "exact signed-rank p equals full 2^n enumeration",
             f"100 vectors, {mismatches} mismatches")
