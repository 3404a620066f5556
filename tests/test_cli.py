"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vibgraph import cli, gae, graph as graph_mod, pipeline, stats, synthetic
from vibgraph.checks import json_text

FAST_CONFIG = """
candidate_windows = [8, 16]
stride = 16
block_size = 1
reducer = "mean"
n_classes = 3
hidden_dim = 8
latent_dim = 4
num_gat_layers = 1
num_transformer_layers = 1
gat_heads = 2
transformer_heads = 2
epochs = 3
learning_rate = 0.01
rf_trees = 5
gb_rounds = 5
xgb_rounds = 5
mlp_epochs = 20
cv_folds = 3
"""


def config_text(data_dir, line=""):
    """FAST_CONFIG with ``data_dir`` and one more ``key = value`` line, which
    replaces FAST_CONFIG's own line for that key: TOML refuses a key set twice."""
    key = line.partition("=")[0].strip()
    kept = [ln for ln in FAST_CONFIG.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(kept + [f'data_dir = "{data_dir}"', line]) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    synthetic.write_synthetic_load_files(str(data_dir), loads=("a", "b"),
                                         n_chunks_per_class=4, chunk_len=150)
    config = root / "config.toml"
    config.write_text(config_text(data_dir))
    return {"root": root, "config": str(config), "data_dir": str(data_dir)}


@pytest.fixture(scope="module")
def built(workspace):
    """Graph + trained model shared by the downstream command tests."""
    root = workspace["root"]
    graph = str(root / "graph_a.json")
    rc = cli.main(["build-graph", "--config", workspace["config"],
                   "--load", "a", "--out", graph])
    assert rc == 0
    model = str(root / "model_a")
    rc = cli.main(["train", "--config", workspace["config"],
                   "--graph", graph, "--out", model])
    assert rc == 0
    return {"graph": graph, "model": model}


# one out-of-range graph or ingestion setting and the start of its message
BAD_SETTINGS = [
    ("theta_percentile = 150", "theta_percentile must be <= 100, got 150.0"),
    ("theta_percentile = 0", "theta_percentile must be > 0, got 0.0"),
    ("pair_budget = 0", "pair_budget must be >= 1, got 0"),
    ("candidate_windows = []", "candidate_windows must be a non-empty list"),
    ("candidate_windows = [1, 8]", "candidate_windows must be a non-empty list"),
    ("entropy_step = 0", "entropy_step must be >= 1, got 0"),
    ("stride = -1", "stride must be >= 0, got -1"),
    ("bin_count = -2", "bin_count must be >= 0, got -2"),
    ("block_size = 0", "block_size must be >= 1, got 0"),
    ("n_classes = 1", "n_classes must be >= 2, got 1"),
    ("sampling_rate = 0", "sampling_rate must be > 0, got 0.0"),
    ('reducer = "median"', "reducer must be one of ['first', 'mean', 'rms']"),
    ("learning_rate = inf", "learning_rate must be finite, got inf"),
    ("kl_weight = inf", "kl_weight must be finite, got inf"),
    ("gb_lr = inf", "gb_lr must be finite, got inf"),
    ("mlp_lr = inf", "mlp_lr must be finite, got inf"),
    ("xgb_l2 = inf", "xgb_l2 must be finite, got inf"),
    ("theta_percentile = nan", "theta_percentile must be finite, got nan"),
    ("kl_weight = true", "key 'kl_weight' expects float"),
]


class TestBuildGraph:
    def test_outputs_graph_and_scores(self, workspace, built):
        assert json.load(open(built["graph"]))["meta"]["w_star"] in (8, 16)
        scores = built["graph"].rsplit(".", 1)[0] + "_window_scores.csv"
        assert "window,normalized_entropy" in open(scores).read()

    def test_scores_stay_beside_a_graph_in_a_dotted_directory(self, workspace, tmp_path,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v1").mkdir()
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--load", "a", "--out", "runs.v1/graph"])
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == ["runs.v1"]
        assert sorted(os.listdir(tmp_path / "runs.v1")) == ["graph", "graph_window_scores.csv"]

    def test_unknown_load_is_validation_error(self, workspace, capsys):
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--load", "nope", "--out", "/tmp/x.json"])
        assert rc == cli.EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_is_io_error(self, workspace, tmp_path):
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--data-dir", str(tmp_path), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        assert rc == cli.EXIT_IO

    @pytest.mark.parametrize("line, message", BAD_SETTINGS,
                             ids=[line.replace(" ", "") for line, _ in BAD_SETTINGS])
    def test_bad_setting_fails_before_reading_data(self, workspace, tmp_path, capsys,
                                                   monkeypatch, line, message):
        config = tmp_path / "bad.toml"
        config.write_text(config_text(workspace["data_dir"], line))

        def no_reading(*args, **kwargs):
            raise AssertionError("data files were read under an invalid config")

        monkeypatch.setattr(pipeline, "load_series_by_load", no_reading)
        rc = cli.main(["build-graph", "--config", str(config), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_infinite_sample_is_validation_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data_dir"], data)
        recording = data / "a_c1_2.csv"
        lines = recording.read_text().splitlines()
        lines[7] = "inf"
        recording.write_text("\n".join(lines) + "\n")
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--data-dir", str(data), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: samples contain NaN or inf; preprocess first\n")
        assert not (tmp_path / "g.json").exists()

    def test_near_constant_window_is_validation_error(self, workspace, tmp_path,
                                                      capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data_dir"], data)
        one_ulp_apart = [repr(1.0), repr(float(np.nextafter(1.0, 2.0)))]
        (data / "a_c1_2.csv").write_text("\n".join(one_ulp_apart * 75) + "\n")
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--data-dir", str(data), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: a window of 8 samples spans too narrow a range for "
            "bin_count = 3 equal-width entropy bins\n")
        assert not (tmp_path / "g.json").exists()

    def test_non_finite_features_are_validation_error(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        # near 1e-100 the window's sigma**4 underflows to 0, and kurtosis is 0/0
        x = 1e-100 * (1 + 1e-3 * np.random.default_rng(0).standard_normal(400))
        (tmp_path / "tiny.csv").write_text("\n".join(map(repr, x.tolist())) + "\n")
        (tmp_path / "manifest.csv").write_text(
            "file,channel,fault_class,load_tag\ntiny.csv,0,0,t\n")

        def no_dtw(*args, **kwargs):
            raise AssertionError("DTW ran on windows with non-finite features")

        monkeypatch.setattr(pipeline, "pairwise_distances", no_dtw)
        rc = cli.main(["build-graph", "--config", workspace["config"],
                       "--data-dir", str(tmp_path), "--load", "t",
                       "--out", str(tmp_path / "g.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: window 0 (start 0) gives non-finite node features; "
            "rescale the samples\n")
        assert not (tmp_path / "g.json").exists()

    def test_pair_budget_exit_code(self, workspace, tmp_path):
        config = tmp_path / "tight.toml"
        config.write_text(config_text(workspace["data_dir"], "pair_budget = 10"))
        rc = cli.main(["build-graph", "--config", str(config), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        assert rc == cli.EXIT_BUDGET

    def test_pair_budget_refused_before_features(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        config = tmp_path / "tight.toml"
        config.write_text(config_text(workspace["data_dir"], "pair_budget = 1"))

        def no_features(*args, **kwargs):
            raise AssertionError("features were computed past the pair budget")

        monkeypatch.setattr(pipeline, "feature_matrix", no_features)
        rc = cli.main(["build-graph", "--config", str(config), "--load", "a",
                       "--out", str(tmp_path / "g.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BUDGET
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(" segment pairs exceed the budget of 1; raise the "
                            "segmentation stride or cap the segment count\n")
        assert not (tmp_path / "g.json").exists()


class TestTrain:
    def test_model_dir_contents(self, built):
        import os
        names = sorted(os.listdir(built["model"]))
        assert names == ["ensemble.json", "loss_curves.csv", "model.json",
                         "train_report.json"]
        report = json.load(open(f"{built['model']}/train_report.json"))
        assert "splits" in report and report["scaler"] is not None

    def test_bad_graph_path_is_io_error(self, workspace, tmp_path):
        rc = cli.main(["train", "--config", workspace["config"],
                       "--graph", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "m")])
        assert rc == cli.EXIT_IO

    @pytest.mark.parametrize("breaks, says", [
        (lambda doc: doc["edges"].append([0, len(doc["labels"]) + 5, 0.5]),
         "0 <= i < j"),
        (lambda doc: doc["features"][3].__setitem__(2, float("nan")), "finite"),
        (lambda doc: doc.pop("labels"), "need a JSON object"),
        (lambda doc: doc.__setitem__("meta", []), "meta must be a JSON object"),
    ], ids=["out_of_range_edge", "nan_feature", "missing_labels", "meta_not_object"])
    def test_malformed_graph_is_validation_error(self, workspace, built,
                                                 tmp_path, capsys, breaks, says):
        doc = json.load(open(built["graph"]))
        breaks(doc)
        graph = tmp_path / "broken.json"
        graph.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", workspace["config"],
                       "--graph", str(graph), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error:") and err.count("\n") == 1 and says in err

    def test_bad_ensemble_setting_fails_before_training(self, workspace, built,
                                                        tmp_path, capsys,
                                                        monkeypatch):
        config = tmp_path / "bad.toml"
        config.write_text(config_text(workspace["data_dir"], "cv_folds = 0"))

        def no_training(*args, **kwargs):
            raise AssertionError("the GAE trained on an invalid config")

        monkeypatch.setattr(gae, "train", no_training)
        rc = cli.main(["train", "--config", str(config), "--graph", built["graph"],
                       "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err == "error: cv_folds must be >= 2, got 0\n"

    def test_bad_gae_setting_fails_before_training(self, workspace, built, tmp_path,
                                                   capsys, monkeypatch):
        config = tmp_path / "bad.toml"
        config.write_text(config_text(workspace["data_dir"], "learning_rate = -1.0"))

        def no_training(*args, **kwargs):
            raise AssertionError("the GAE trained on an invalid config")

        monkeypatch.setattr(gae, "train", no_training)
        rc = cli.main(["train", "--config", str(config), "--graph", built["graph"],
                       "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err == "error: learning_rate must be > 0, got -1.0\n"


class TestEvaluate:
    def test_report_written(self, workspace, built, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", built["model"], "--graph", built["graph"],
                       "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert set(doc) >= {"confusion", "f1", "macro_f1", "accuracy"}
        assert len(doc["f1"]) == 3

    def test_report_without_scaler_is_validation_error(self, workspace, built,
                                                       tmp_path):
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        report = json.load(open(model / "train_report.json"))
        del report["scaler"]
        (model / "train_report.json").write_text(json.dumps(report))
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", str(model), "--graph", built["graph"],
                       "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("mutate, message", [
        (lambda report: [report], "the train report must be a JSON object"),
        (lambda report: dict(report, scaler={"col_min": [0], "col_max": [1]}),
         "training scaler has 1 columns, but the graph has 10 feature columns"),
        (lambda report: dict(report, scaler={"col_min": [0.0] * 10}),
         "training scaler must hold col_min and col_max, two equal-length lists"),
        (lambda report: dict(report, scaler={"col_min": [0.0] * 10,
                                             "col_max": [float("nan")] * 10}),
         "training scaler must hold col_min and col_max, two equal-length lists"),
    ], ids=["list_report", "narrow_scaler", "missing_col_max", "nan_col_max"])
    def test_malformed_train_report_is_validation_error(self, workspace, built,
                                                        tmp_path, capsys, mutate,
                                                        message):
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        report = json.loads((model / "train_report.json").read_text())
        (model / "train_report.json").write_text(json.dumps(mutate(report)))
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", str(model), "--graph", built["graph"],
                       "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("whose", ["training", "graph"])
    def test_swapped_scaler_is_validation_error(self, workspace, built, tmp_path, capsys,
                                                whose):
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        graph = tmp_path / "graph.json"
        shutil.copy(built["graph"], graph)
        path = model / "train_report.json" if whose == "training" else graph
        doc = json.loads(path.read_text())
        scaler = doc["scaler"] if whose == "training" else doc["meta"]["scaler"]
        lo, hi = scaler["col_min"], scaler["col_max"]
        scaler["col_min"], scaler["col_max"] = hi, lo
        path.write_text(json.dumps(doc))
        k = next(i for i in range(len(lo)) if lo[i] < hi[i])
        rc = cli.main(["evaluate", "--config", workspace["config"], "--model", str(model),
                       "--graph", str(graph), "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {whose} scaler column {k} has col_min "
                                           f"{hi[k]} > col_max {lo[k]}\n")
        assert not (tmp_path / "report.json").exists()

    def test_narrow_graph_scaler_is_validation_error(self, workspace, built,
                                                     tmp_path, capsys):
        doc = json.load(open(built["graph"]))
        doc["meta"]["scaler"] = {"col_min": [0.0] * 3, "col_max": [1.0] * 3}
        graph = tmp_path / "narrow.json"
        graph.write_text(json.dumps(doc))
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", built["model"], "--graph", str(graph),
                       "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: graph scaler has 3 columns, but the graph has 10 feature columns\n")


def per_head_layout(doc):
    """The checkpoint layout that stored every attention head under its own name."""
    h, params = doc["config"]["hidden_dim"], {}
    for name, rec in doc["params"].items():
        layer, kind = name.split(".")
        if not layer.startswith(("gat", "tr")):
            params[name] = rec
            continue
        values = np.asarray(rec["values"]).reshape(rec["shape"])
        width = 1 if kind.startswith("a_") else h
        for k in range(values.shape[1] // width):
            block = values[:, k * width:(k + 1) * width]
            params[f"{layer}.head{k}.{kind}"] = {"shape": list(block.shape),
                                                 "values": block.ravel().tolist()}
    doc["params"] = params


def transposed_weight(doc):
    rec = doc["params"]["gat0.W"]
    rec["shape"] = rec["shape"][::-1]


def nan_weight(doc):
    doc["params"]["dec.W2"]["values"][0] = float("nan")


def forest_node(doc, leaf):
    """The first leaf (or split) met walking the first forest tree depth first."""
    stack = [doc["bases"]["random_forest"]["trees"][0]]
    while True:
        node = stack.pop()
        if ("value" in node) == leaf:
            return node
        stack += [node["right"], node["left"]]


class TestModelFile:
    """A model.json or ensemble.json that does not fit its own config exits 2
    with one line."""

    @pytest.mark.parametrize("mutate, message", [
        (per_head_layout, "parameter names must be those of the config (unknown "
                          "['gat0.head0.W', 'gat0.head0.a_dst'], missing ['gat0.W', "
                          "'gat0.a_dst'])"),
        (lambda doc: doc["config"].update(leaky_slope=0.2),
         "config keys must be GaeConfig's fields (unknown ['leaky_slope'], missing [])"),
        (lambda doc: doc["config"].update(gat_heads=2.0), "config gat_heads has the wrong type"),
        (transposed_weight, "parameter gat0.W must have shape"),
        (nan_weight, "parameter dec.W2 holds non-finite values"),
        (lambda doc: doc["split"].update(test=[-1]),
         "split must map train/val/test to lists of integers >= 0"),
        (lambda doc: doc["split"].update(test=[100000]),
         "model split test holds node 100000, but the graph has"),
        (lambda doc: doc["params"]["dec.W2"].update(
            values=[str(v) for v in doc["params"]["dec.W2"]["values"]]),
         "parameter dec.W2 must have shape"),
        (lambda doc: doc["params"]["dec.W2"]["values"].__setitem__(0, True),
         "parameter dec.W2 must have shape"),
        (lambda doc: doc["config"].update(learning_rate=float("inf")),
         "config learning_rate has the wrong type or is not finite"),
        (lambda doc: doc["config"].update(kl_weight=float("inf")),
         "config kl_weight has the wrong type or is not finite"),
        (lambda doc: doc["config"].update(num_gat_layers=10 ** 5),
         "parameter names must be those of the config, 3 per layer"),
    ], ids=["per_head_layout", "unknown_config_key", "float_head_count",
            "wrong_shape", "nan_value", "negative_split_index", "split_index_past_graph",
            "string_values", "boolean_value", "infinite_learning_rate",
            "infinite_kl_weight", "huge_layer_count"])
    def test_mismatched_model_is_validation_error(self, workspace, built, tmp_path,
                                                  capsys, mutate, message):
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        doc = json.loads((model / "model.json").read_text())
        mutate(doc)
        (model / "model.json").write_text(json.dumps(doc))
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", str(model), "--graph", built["graph"],
                       "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("stored", [
        {"curves": 5}, {"diagnostics": [1]}, {"curves": None, "diagnostics": "x"}],
        ids=["curves_number", "diagnostics_list", "both_junk"])
    def test_stored_curves_and_diagnostics_are_not_read(self, workspace, built,
                                                        tmp_path, stored):
        def evaluate(model_dir, name):
            out = tmp_path / name
            rc = cli.main(["evaluate", "--config", workspace["config"],
                           "--model", str(model_dir), "--graph", built["graph"],
                           "--out", str(out)])
            assert rc == 0
            return out.read_bytes()

        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        doc = json.loads((model / "model.json").read_text())
        (model / "model.json").write_text(json.dumps(dict(doc, **stored)))
        assert evaluate(model, "junk.json") == evaluate(built["model"], "original.json")

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: forest_node(doc, leaf=False).update(feature=999),
         "random_forest tree 0 split feature must be an integer in [0, 8), got 999"),
        (lambda doc: forest_node(doc, leaf=True).update(value=[1.0]),
         "random_forest tree 0 leaf must hold 3 finite numbers, got [1.0]"),
        (lambda doc: forest_node(doc, leaf=False).update(threshold=float("nan")),
         "random_forest tree 0 split threshold must be finite, got nan"),
        (lambda doc: doc.update(n_classes="3"),
         "ensemble n_classes must be an integer >= 2, got '3'"),
        (lambda doc: doc["bases"]["random_forest"].pop("trees"),
         "random_forest state keys must be ['n_classes', 'trees'], got ['n_classes']"),
    ], ids=["feature_out_of_range", "short_forest_leaf", "nan_threshold",
            "string_class_count", "missing_trees"])
    def test_malformed_ensemble_is_validation_error(self, workspace, built, tmp_path,
                                                    capsys, mutate, message):
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        doc = json.loads((model / "ensemble.json").read_text())
        mutate(doc)
        (model / "ensemble.json").write_text(json.dumps(doc))
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", str(model), "--graph", built["graph"],
                       "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err == f"error: {message}\n"

    def test_ensemble_of_another_width_is_validation_error(self, workspace, built,
                                                           tmp_path, capsys):
        config = tmp_path / "wide.toml"
        config.write_text(config_text(workspace["data_dir"], "hidden_dim = 16"))
        wide = tmp_path / "wide"
        assert cli.main(["train", "--config", str(config), "--graph", built["graph"],
                         "--out", str(wide)]) == 0
        model = tmp_path / "model"
        shutil.copytree(built["model"], model)
        shutil.copy(wide / "ensemble.json", model / "ensemble.json")
        rc = cli.main(["evaluate", "--config", workspace["config"],
                       "--model", str(model), "--graph", built["graph"],
                       "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {model}: ensemble.json takes 16-wide "
                                           "embeddings, but model.json has hidden_dim 8\n")


@pytest.mark.parametrize("text", ["[" * 100000, "{"], ids=["deeply_nested", "truncated"])
@pytest.mark.parametrize("command, name", [
    ("train", "graph.json"), ("evaluate", "model.json"),
    ("evaluate", "ensemble.json"), ("evaluate", "train_report.json")])
def test_unreadable_json_names_the_file(workspace, built, tmp_path, capsys, command,
                                        name, text):
    """Every JSON file a command reads exits 2 with one line naming it when it
    does not parse, however deep its nesting."""
    model = tmp_path / "model"
    shutil.copytree(built["model"], model)
    graph = tmp_path / "graph.json"
    shutil.copy(built["graph"], graph)
    broken = graph if name == "graph.json" else model / name
    broken.write_text(text)
    rc = cli.main([command, "--config", workspace["config"], "--graph", str(graph),
                   "--model" if command == "evaluate" else "--out", str(model)]
                  + (["--out", str(tmp_path / "report.json")] if command == "evaluate"
                     else []))
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1 and str(broken) in err


class TestCrossEval:
    def test_full_matrix(self, workspace, tmp_path):
        out = str(tmp_path / "xeval")
        rc = cli.main(["cross-eval", "--config", workspace["config"],
                       "--out", out])
        assert rc == 0
        summary = json.load(open(f"{out}/summary.json"))
        assert set(summary["reports"]) == {"a->a", "a->b", "b->a", "b->b"}

    @pytest.mark.parametrize("line, message", [
        ("cv_folds = 0", "cv_folds must be >= 2, got 0"),
        ("learning_rate = -1.0", "learning_rate must be > 0, got -1.0"),
        ("seed = -1", "seed must be >= 0, got -1"),
    ], ids=["cv_folds", "learning_rate", "seed"])
    def test_bad_setting_fails_before_building_graphs(self, workspace, tmp_path, capsys,
                                                      monkeypatch, line, message):
        config = tmp_path / "bad.toml"
        config.write_text(config_text(workspace["data_dir"], line))

        def no_reading(*args, **kwargs):
            raise AssertionError("data files were read under an invalid config")

        monkeypatch.setattr(pipeline, "load_series_by_load", no_reading)
        out = tmp_path / "xeval"
        rc = cli.main(["cross-eval", "--config", str(config), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_repeated_load_fails_before_reading_data(self, workspace, tmp_path, capsys,
                                                     monkeypatch):
        def no_reading(*args, **kwargs):
            raise AssertionError("data files were read for a repeated load")

        monkeypatch.setattr(pipeline, "load_series_by_load", no_reading)
        out = tmp_path / "xeval"
        rc = cli.main(["cross-eval", "--config", workspace["config"], "--out", str(out),
                       "--loads", "a", "b", "a"])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: loads ['a'] given more than once\n"
        assert not out.exists()


class TestCompare:
    def test_outputs_both_tests(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1.0, 1.0, 0.99, 0.98, 1.0, 0.97, 0.99, 1.0\n")
        b.write_text("0.9, 0.85, 0.93, 1.0, 0.95, 0.9, 0.97, 0.8\n")
        out = str(tmp_path / "cmp.json")
        rc = cli.main(["compare", "--f1-a", str(a), "--f1-b", str(b),
                       "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["paired_t"]["t_statistic"] > 0
        assert doc["wilcoxon"]["method"] == "exact"

    def test_file_holds_both_test_results(self, tmp_path, capsys):
        fa, fb = [0.99, 0.97, 1.0, 0.95, 0.98], [0.9, 0.95, 0.97, 0.8, 1.0]
        (tmp_path / "a.csv").write_text(", ".join(map(str, fa)) + "\n")
        (tmp_path / "b.csv").write_text(", ".join(map(str, fb)) + "\n")
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", "--f1-a", str(tmp_path / "a.csv"),
                       "--f1-b", str(tmp_path / "b.csv"), "--out", str(out)])
        assert rc == 0
        want = json_text({"paired_t": stats.paired_ttest(fa, fb),
                          "wilcoxon": stats.wilcoxon_signed_rank(fa, fb)})
        assert out.read_text() == want
        assert capsys.readouterr().out == want + "\n"
        doc = json.loads(want)
        assert doc["paired_t"]["p_value_one_sided"] == pytest.approx(
            doc["paired_t"]["p_value"] / 2)
        assert set(doc["wilcoxon"]) == {"W", "p_value", "significant_at_0_05", "w_plus",
                                        "w_minus", "n", "method"}

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_validation_error(self, tmp_path, capsys, token):
        a = tmp_path / "a.csv"
        a.write_text(f"0.9, {token}, 0.8\n")
        b = tmp_path / "b.csv"
        b.write_text("0.8, 0.7, 0.6\n")
        rc = cli.main(["compare", "--f1-a", str(a), "--f1-b", str(b)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {a}: F1 value {token!r} is not finite\n")

    def test_non_numeric_value_is_validation_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0.9, x, 0.8\n")
        b = tmp_path / "b.csv"
        b.write_text("0.8, 0.7, 0.6\n")
        rc = cli.main(["compare", "--f1-a", str(a), "--f1-b", str(b)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {a}: F1 value 'x' is not a number\n"

    def test_empty_file_is_validation_error(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("# only a comment\n")
        b = tmp_path / "b.csv"
        b.write_text("1.0\n")
        rc = cli.main(["compare", "--f1-a", str(a), "--f1-b", str(b)])
        assert rc == cli.EXIT_VALIDATION


class TestDtwHeatmap:
    def test_matrix_dimensions(self, built, tmp_path):
        out = str(tmp_path / "heat.csv")
        rc = cli.main(["dtw-heatmap", "--graph", built["graph"], "--out", out])
        assert rc == 0
        rows = [r.split(",") for r in open(out).read().strip().splitlines()]
        n = json.load(open(built["graph"]))["meta"]
        m = len(n["segments"])
        assert len(rows) == m and len(rows[0]) == m
        M = np.asarray(rows, dtype=float)
        np.testing.assert_array_equal(np.diag(M), 0.0)
        np.testing.assert_array_equal(M, M.T)

    def test_ragged_segments_are_validation_error(self, built, tmp_path, capsys):
        doc = json.load(open(built["graph"]))
        doc["meta"]["segments"][1].append(0.0)
        graph = tmp_path / "ragged.json"
        graph.write_text(json.dumps(doc))
        rc = cli.main(["dtw-heatmap", "--graph", str(graph),
                       "--out", str(tmp_path / "heat.csv")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "m x w matrix" in err

    @pytest.mark.parametrize("bad, message", [("nan", "finite values"),
                                              ("empty", "empty windows")])
    def test_unusable_segments_are_validation_error(self, built, tmp_path, capsys,
                                                    bad, message):
        # json writes nan as NaN and reads it back; neither it nor empty
        # windows may reach the DTW kernel
        doc = json.load(open(built["graph"]))
        segs = doc["meta"]["segments"]
        if bad == "nan":
            segs[1][0] = float("nan")
        else:
            doc["meta"]["segments"] = [[] for _ in segs]
        graph = tmp_path / "bad.json"
        graph.write_text(json.dumps(doc))
        out = tmp_path / "heat.csv"
        rc = cli.main(["dtw-heatmap", "--graph", str(graph), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_config_pair_budget_refused_before_dtw(self, built, workspace, tmp_path, capsys,
                                                   monkeypatch):
        config = tmp_path / "tight.toml"
        config.write_text(config_text(workspace["data_dir"], "pair_budget = 10"))

        def no_dtw(*args, **kwargs):
            raise AssertionError("DTW ran past the pair budget")

        monkeypatch.setattr(graph_mod, "_batched_dtw_equal_length", no_dtw)
        out = tmp_path / "heat.csv"
        rc = cli.main(["dtw-heatmap", "--config", str(config), "--graph", built["graph"],
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BUDGET
        m = len(json.load(open(built["graph"]))["meta"]["segments"])
        assert err == (f"error: {m * (m - 1) // 2} segment pairs exceed the budget of 10; "
                       "raise the segmentation stride or cap the segment count\n")
        assert not out.exists()


def test_import_leaves_scipy_unloaded():
    """build-graph never needs scipy, so importing the package and the CLI
    must not load it; scipy.sparse and scipy.stats load at their first use."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, vibgraph, vibgraph.pipeline, vibgraph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n"
