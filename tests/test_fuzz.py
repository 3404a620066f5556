"""Property tests for the boundaries that read files from outside: a graph
file, a config file, a manifest, ensemble.json and model.json either load
into something every stage can use or are refused with the one error type
the command line maps to exit 2."""

import copy
import functools
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from vibgraph import data as dt
from vibgraph import ensemble as en
from vibgraph import gae
from vibgraph import graph as gr
from vibgraph import pipeline as pl

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)

# near-valid values, so that the checks past the first one are reached too
matrices = st.integers(0, 4).flatmap(
    lambda d: st.lists(st.lists(st.floats(), min_size=d, max_size=d), max_size=4))
graph_docs = st.fixed_dictionaries({
    "features": json_values | matrices,
    "labels": json_values | st.lists(st.integers(-1, 3), max_size=4),
    "edges": json_values | st.lists(
        st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.floats()).map(list),
        max_size=4),
    "meta": json_values | st.dictionaries(st.text(max_size=3), json_values, max_size=3),
})


def write_temp(text, suffix):
    fd, path = tempfile.mkstemp(suffix=suffix)
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    return path


@FUZZ
@given(doc=graph_docs)
def test_load_graph_returns_a_graph_or_raises_value_error(doc):
    path = write_temp(json.dumps(doc), ".json")
    try:
        graph = gr.load_graph(path)
    except ValueError as exc:
        assert path in str(exc) and "\n" not in str(exc)
    else:
        assert isinstance(graph, gr.FaultGraph) and isinstance(graph.meta, dict)
        assert graph.node_labels.shape == (graph.num_nodes,)
    finally:
        os.unlink(path)


raw_values = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "true", "false", "[]", '"mean"',
                     "1" + "0" * 400]),
    st.lists(st.integers(-2, 40), max_size=3).map(lambda xs: f"[{', '.join(map(str, xs))}]"),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
)
config_lines = st.lists(
    st.tuples(st.sampled_from(sorted(pl.DEFAULT_CONFIG)), raw_values), max_size=4)


@FUZZ
@given(lines=config_lines)
def test_load_config_returns_finite_settings_or_raises_config_error(lines):
    path = write_temp("".join(f"{key} = {raw}\n" for key, raw in lines), ".toml")
    try:
        cfg = pl.load_config(path)
    except pl.ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert all(math.isfinite(v) for v in cfg.values() if isinstance(v, float))
    finally:
        os.unlink(path)


override_values = (json_values | st.floats() | st.integers()
                   | st.lists(st.integers(-2, 40), max_size=3))
overrides = st.dictionaries(
    st.sampled_from(sorted(pl.DEFAULT_CONFIG)) | st.text(max_size=3), override_values, max_size=4)


@FUZZ
@given(over=overrides)
def test_load_config_overrides_return_finite_settings_or_raise_config_error(over):
    try:
        cfg = pl.load_config(None, over)
    except pl.ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert all(math.isfinite(v) for v in cfg.values() if isinstance(v, float))
        for key, value in cfg.items():
            assert type(value) is type(pl.DEFAULT_CONFIG[key])


manifest_fields = st.sampled_from(["a.csv", "0", "1", "2", "-1", "x", "", " 2 ", "1_0",
                                   "9" * 5000, '"', '"a,b"', '"1\n2"']) | st.text(max_size=4)
manifest_ints = st.integers(-1, 3).map(str) | manifest_fields
manifest_rows = st.lists(st.one_of(
    st.lists(manifest_fields, min_size=3, max_size=5),
    st.tuples(st.text(min_size=1, max_size=3), manifest_ints, manifest_ints,
              st.text(min_size=1, max_size=3)),
).map(",".join), max_size=4)
manifest_texts = st.one_of(
    st.text(max_size=30),
    st.tuples(st.permutations(["file", "channel", "fault_class", "load_tag"]),
              manifest_rows, st.sampled_from(["\n", "\r\n"])).map(
        lambda t: t[2].join([",".join(t[0]), *t[1]])),
)


@FUZZ
@given(text=manifest_texts)
def test_read_manifest_returns_entries_or_raises_value_error(text):
    path = write_temp(text, ".csv")
    try:
        entries = dt.read_manifest(path, n_classes=3)
    except ValueError as exc:
        assert "\n" not in str(exc)
    else:
        assert entries
        for e in entries:
            assert type(e.channel) is int and e.channel >= 0
            assert type(e.fault_class) is int and 0 <= e.fault_class < 3
            assert isinstance(e.file, str) and isinstance(e.load_tag, str)
    finally:
        os.unlink(path)


DROP = object()     # a mutation that deletes the key or list item
replacements = (json_values | st.just(DROP) | st.sampled_from(
    [float("nan"), float("inf"), 10 ** 400, 2 ** 64, -1, 0, 1, 2, True, "1", [], {}]))


def node_paths(doc, path=()):
    """The key path of every value inside ``doc``, ``doc`` itself first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key in (sorted(doc) if isinstance(doc, dict) else range(len(doc))):
            yield from node_paths(doc[key], path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values replaced, each at a path drawn from
    all of them, so that deeply nested values are reached as often as the
    top-level ones."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        value = draw(replacements)
        if not path:
            doc = None if value is DROP else value
            continue
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def saved_doc(save, obj):
    """The JSON document that ``save`` writes for ``obj``."""
    path = write_temp("", ".json")
    save(obj, path)
    with open(path) as fh:
        doc = json.load(fh)
    os.unlink(path)
    return doc


@functools.cache
def tiny_ensemble():
    rng = np.random.default_rng(0)
    hp = dict(rf_trees=2, rf_depth=2, gb_rounds=2, gb_depth=1, xgb_rounds=2,
              xgb_depth=1, mlp_hidden=3, mlp_epochs=2, cv_folds=2)
    return saved_doc(en.save_ensemble,
                     en.fit_ensemble(rng.random((12, 3)), np.arange(12) % 3, hp))


@FUZZ
@given(data=st.data())
def test_load_ensemble_returns_a_model_or_raises_value_error(data):
    path = write_temp(json.dumps(data.draw(mutated(tiny_ensemble()))), ".json")
    try:
        model = en.load_ensemble(path)
    except ValueError as exc:
        assert "\n" not in str(exc)
    else:
        mlp = model.bases[en.BASE_KINDS.index("feed_forward_net")]
        with np.errstate(all="ignore"):
            probs = model.predict_proba(np.zeros((2, len(mlp["W1"]))))
        assert probs.shape == (2, model.n_classes)
    finally:
        os.unlink(path)


def tiny_graph():
    rng = np.random.default_rng(1)
    return gr.FaultGraph(node_features=rng.random((12, 4)),
                         node_labels=np.arange(12) % 2,
                         edges=[(i, i + 1, 0.5) for i in range(11)])


@functools.cache
def tiny_model():
    config = gae.GaeConfig(input_dim=4, hidden_dim=3, latent_dim=2, num_gat_layers=1,
                           num_transformer_layers=1, gat_heads=2,
                           transformer_heads=1, epochs=1)
    return saved_doc(gae.save_model, gae.train(tiny_graph(), config))


@FUZZ
@given(data=st.data())
def test_load_model_returns_a_model_or_raises_value_error(data):
    path = write_temp(json.dumps(data.draw(mutated(tiny_model()))), ".json")
    try:
        model = gae.load_model(path)
    except ValueError as exc:
        assert "\n" not in str(exc)
    else:
        with np.errstate(all="ignore"):
            H2 = gae.embed(tiny_graph(), model)
        assert H2.shape == (12, model.config.hidden_dim)
    finally:
        os.unlink(path)
