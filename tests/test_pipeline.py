"""Tests for config parsing and the series -> graph -> model -> report pipeline."""

import json

import numpy as np
import pytest

from vibgraph import pipeline as pl
from vibgraph import stats, synthetic
from vibgraph.graph import load_graph


def fast_cfg(**kw):
    cfg = dict(pl.DEFAULT_CONFIG,
               candidate_windows=[8, 16], stride=16,
               hidden_dim=8, latent_dim=4, num_gat_layers=1,
               num_transformer_layers=1, gat_heads=2, transformer_heads=2,
               epochs=3, learning_rate=0.01, n_classes=3,
               rf_trees=5, gb_rounds=5, xgb_rounds=5, mlp_epochs=20,
               cv_folds=3)
    cfg.update(kw)
    return cfg


def small_series(seed=0):
    return synthetic.make_sinusoid_series(n_chunks_per_class=4, chunk_len=150,
                                          seed=seed)


class TestConfigParsing:
    def test_defaults_when_no_file(self):
        assert pl.load_config(None) == pl.DEFAULT_CONFIG

    def test_parses_types(self):
        text = ("theta_percentile = 10\n"
                "reducer = \"mean\"\n"
                "candidate_windows = [4, 8]\n"
                "epochs = 7\n"
                "# comment line\n")
        cfg = pl.parse_config_text(text)
        assert cfg["theta_percentile"] == 10.0
        assert cfg["reducer"] == "mean"
        assert cfg["candidate_windows"] == [4, 8]
        assert cfg["epochs"] == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(pl.ConfigError):
            pl.parse_config_text("not_a_key = 1\n")

    def test_wrong_type_rejected(self):
        with pytest.raises(pl.ConfigError):
            pl.parse_config_text("epochs = \"fifty\"\n")

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(pl.ConfigError, match="learning_rate must be finite"):
            pl.parse_config_text("learning_rate = 1" + "0" * 400 + "\n")

    def test_nested_list_is_a_config_error(self, tmp_path):
        # lists do not nest, so deep brackets cannot exhaust the parser's stack
        path = tmp_path / "c.toml"
        path.write_text("candidate_windows = " + "[" * 2000 + "8" + "]" * 2000 + "\n")
        with pytest.raises(pl.ConfigError, match="candidate_windows"):
            pl.load_config(str(path))

    def test_malformed_line_rejected(self):
        with pytest.raises(pl.ConfigError):
            pl.parse_config_text("epochs 50\n")

    def test_hash_inside_a_string_is_not_a_comment(self):
        cfg = pl.parse_config_text('data_dir = "/data/run#2"  # comment\n')
        assert cfg["data_dir"] == "/data/run#2"

    def test_text_after_a_string_rejected(self):
        with pytest.raises(pl.ConfigError, match="invalid TOML"):
            pl.parse_config_text('manifest = "a.csv" extra\n')

    def test_bare_string_rejected(self):
        with pytest.raises(pl.ConfigError, match="invalid TOML"):
            pl.parse_config_text("reducer = mean\n")

    def test_key_set_twice_rejected(self):
        with pytest.raises(pl.ConfigError, match="invalid TOML"):
            pl.parse_config_text("epochs = 5\nepochs = 6\n")

    @pytest.mark.parametrize("text", ["[gae]\nepochs = 5\n", "gae.epochs = 5\n",
                                      "epochs = {value = 5}\n"])
    def test_tables_rejected(self, text):
        with pytest.raises(pl.ConfigError, match="is a table"):
            pl.parse_config_text(text)

    def test_overrides_applied(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("epochs = 5\n")
        cfg = pl.load_config(str(path), {"seed": 3, "manifest": None})
        assert cfg["epochs"] == 5
        assert cfg["seed"] == 3
        assert cfg["manifest"] == pl.DEFAULT_CONFIG["manifest"]

    def test_hash_stable_and_sensitive(self):
        a = pl.config_hash(pl.DEFAULT_CONFIG)
        b = pl.config_hash(dict(pl.DEFAULT_CONFIG))
        c = pl.config_hash(dict(pl.DEFAULT_CONFIG, seed=1))
        assert a == b != c
        assert len(a) == 16
        # every graph file embeds this hash of the defaults
        assert a == "2a605233cff124f2"


class TestGaeConfigFrom:
    def test_maps_fields(self):
        gc = pl.gae_config_from(fast_cfg())
        assert gc.hidden_dim == 8
        assert gc.split_fractions == (0.7, 0.15, 0.15)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            pl.gae_config_from(fast_cfg(train_frac=0.9))


class TestBuildGraphFromSeries:
    def test_meta_and_shapes(self):
        cfg = fast_cfg()
        graph, sel = pl.build_graph_from_series(small_series(), cfg)
        assert graph.meta["w_star"] == sel.w_star
        assert graph.meta["step"] == 16
        assert graph.meta["config_hash"] == pl.config_hash(cfg)
        assert graph.node_features.shape[1] == 10
        assert graph.node_features.min() >= 0.0
        assert graph.node_features.max() <= 1.0
        assert len(graph.meta["segments"]) == graph.num_nodes
        assert graph.degrees().min() >= 1

    def test_deterministic(self):
        cfg = fast_cfg()
        g1, _ = pl.build_graph_from_series(small_series(), cfg)
        g2, _ = pl.build_graph_from_series(small_series(), cfg)
        np.testing.assert_array_equal(g1.node_features, g2.node_features)
        assert g1.edges == g2.edges

    def test_window_scores_file(self, tmp_path):
        cfg = fast_cfg()
        _, sel = pl.build_graph_from_series(small_series(), cfg)
        path = tmp_path / "scores.csv"
        pl.save_window_scores(sel, str(path), cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "window,normalized_entropy"
        assert len(lines) == 2 + len(sel.candidates)


class TestTrainEvaluate:
    def test_round_trip_through_model_dir(self, tmp_path):
        cfg = fast_cfg()
        graph, _ = pl.build_graph_from_series(small_series(), cfg)
        model, ens, report = pl.train_on_graph(graph, cfg)
        assert "train" in report["splits"]
        assert report["scaler"] == graph.meta["scaler"]

        out = str(tmp_path / "model")
        pl.save_model_dir(out, model, ens, report, cfg)
        model2, ens2, report2 = pl.load_model_dir(out)
        assert report2["config_hash"] == report["config_hash"]

        rep_a, doc_a = pl.evaluate_on_graph(model, ens, graph.meta, graph, cfg)
        rep_b, doc_b = pl.evaluate_on_graph(model2, ens2, graph.meta, graph, cfg)
        assert doc_a["macro_f1"] == pytest.approx(doc_b["macro_f1"], abs=1e-12)
        assert doc_a["splits"] == report["splits"]    # same-source evaluation

    def test_cross_source_uses_train_scaler(self):
        cfg = fast_cfg()
        g_train, _ = pl.build_graph_from_series(small_series(0), cfg)
        other = synthetic.make_sinusoid_series(n_chunks_per_class=4,
                                               chunk_len=150, amplitude=2.0,
                                               seed=1, source_id="other")
        g_test, _ = pl.build_graph_from_series(other, cfg)
        model, ens, _ = pl.train_on_graph(g_train, cfg)
        rep, doc = pl.evaluate_on_graph(model, ens, g_train.meta, g_test, cfg)
        assert doc["test_source"] == "other"
        assert "splits" not in doc
        assert 0.0 <= rep["accuracy"] <= 1.0

    def test_missing_scaler_rejected(self):
        cfg = fast_cfg()
        graph, _ = pl.build_graph_from_series(small_series(), cfg)
        model, ens, _ = pl.train_on_graph(graph, cfg)
        with pytest.raises(ValueError):
            pl.evaluate_on_graph(model, ens, {"scaler": None}, graph, cfg)


class TestRenormalize:
    def test_identical_scaler_bit_exact(self):
        cfg = fast_cfg()
        graph, _ = pl.build_graph_from_series(small_series(), cfg)
        out = pl._renormalized_features(graph, graph.meta["scaler"])
        assert out is graph.node_features

    def test_different_scaler_recovers_raw(self):
        cfg = fast_cfg()
        graph, _ = pl.build_graph_from_series(small_series(), cfg)
        own = graph.meta["scaler"]
        shifted = {"col_min": (np.asarray(own["col_min"]) - 1.0).tolist(),
                   "col_max": (np.asarray(own["col_max"]) + 1.0).tolist()}
        out = pl._renormalized_features(graph, shifted)
        # invert the shifted scaler: should give back the original raw values
        span = np.asarray(shifted["col_max"]) - np.asarray(shifted["col_min"])
        raw = out * span + np.asarray(shifted["col_min"])
        own_span = np.asarray(own["col_max"]) - np.asarray(own["col_min"])
        raw_own = graph.node_features * own_span + np.asarray(own["col_min"])
        np.testing.assert_allclose(raw, raw_own, atol=1e-9)


class TestCrossEval:
    def test_writes_full_matrix(self, tmp_path):
        data_dir = tmp_path / "data"
        synthetic.write_synthetic_load_files(str(data_dir), loads=("a", "b"),
                                             n_chunks_per_class=4, chunk_len=150)
        cfg = fast_cfg(data_dir=str(data_dir), block_size=1, reducer="mean")
        out = str(tmp_path / "out")
        summary = pl.cross_eval(cfg, out)
        assert set(summary["reports"]) == {"a->a", "a->b", "b->a", "b->b"}
        assert set(summary["f1_summary"]) == {"a", "b"}
        assert "a vs b" in summary["paired_tests"]
        f1 = {t: np.concatenate([json.load(open(f"{out}/report_{t}_to_{u}.json"))["f1"]
                                 for u in ("a", "b")]) for t in ("a", "b")}
        assert summary["paired_tests"] == {"a vs b": stats.paired_ttest(f1["a"], f1["b"])}
        assert json.load(open(f"{out}/summary.json"))["paired_tests"] \
            == summary["paired_tests"]
        for rec in summary["reports"].values():
            doc = json.load(open(f"{out}/{rec['file']}"))
            assert doc["macro_f1"] == pytest.approx(rec["macro_f1"])
        assert (tmp_path / "out" / "summary.md").exists()
        g = load_graph(f"{out}/graph_a.json")
        assert g.num_nodes > 10

    def test_unknown_load_rejected(self, tmp_path):
        data_dir = tmp_path / "data"
        synthetic.write_synthetic_load_files(str(data_dir), loads=("a",),
                                             n_chunks_per_class=4, chunk_len=150)
        cfg = fast_cfg(data_dir=str(data_dir), block_size=1, reducer="mean")
        with pytest.raises(ValueError):
            pl.cross_eval(cfg, str(tmp_path / "out"), loads=["a", "zz"])
