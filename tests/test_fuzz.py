"""Property tests for the boundaries that read files from outside: a graph
file and a config file either load into something every stage can use or
are refused with the one error type the command line maps to exit 2."""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

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
