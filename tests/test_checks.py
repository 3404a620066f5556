"""Tests for the JSON writer every output file goes through: its text must be
``json.dumps(doc, indent=1, sort_keys=True)`` byte for byte, and its files
must get the mode a plain ``open(path, "w")`` gives."""

import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibgraph import checks

numbers = (st.integers(-2**70, 2**70)
           | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -2.5e-308, -0.0]))
scalars = (numbers | st.booleans() | st.none()
           | st.text(st.sampled_from('ab", []{}\\\né'), max_size=5)
           | st.sampled_from([", ", "], [", "[", "{", '"']))
# what json.dumps refuses, so that the writer must refuse it the same way
unserialisable = st.sampled_from([object(), {1, 2}, 1j, b"x"])
any_keys = (st.text(max_size=3) | st.integers(-3, 3) | st.floats(-2, 2)
            | st.booleans() | st.none())
rows = st.lists(st.lists(numbers | st.booleans() | st.none(), max_size=4), max_size=4)
json_values = st.recursive(
    scalars | rows | st.lists(rows, max_size=3)
    | st.lists(scalars, max_size=5).map(tuple),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.dictionaries(any_keys, inner, max_size=3)),
    max_leaves=20)


def outcome(dump, doc):
    """The text ``dump(doc)`` returns, or the class of what it raises."""
    try:
        return dump(doc)
    except TypeError as exc:
        return type(exc)


def old_dump(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=json_values)
def test_text_is_json_dumps_indent_1_sorted(doc):
    assert outcome(checks.json_text, doc) == outcome(old_dump, doc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=json_values, bad=unserialisable, where=st.integers(0, 2))
def test_unserialisable_value_raises_type_error(doc, bad, where):
    doc = [[doc, bad], {"k": bad}, (1.5, [bad])][where]
    assert outcome(checks.json_text, doc) is TypeError
    assert outcome(old_dump, doc) is TypeError


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [[], [1]], [1, [[2]]], [[[2]], 5, [1]], [[1, [2]], [3]],
    [[1, 2], [3]], [(1, 2), (3, 4)], [["], [", 1]], {"a": {2: [1], 10: {}}},
    {"a": 1, 2: 3}, [[[1.0, 2.0], [3.0]], [[4.0]]], "x", None, 2**70,
])
def test_layout_edge_cases(doc):
    assert outcome(checks.json_text, doc) == outcome(old_dump, doc)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_file_mode_honours_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        checks.write_json(str(tmp_path / "doc.json"), {"a": [1, 2]})
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "doc.json").st_mode) == mode
    assert stat.S_IMODE(os.stat(plain).st_mode) == mode
    assert (tmp_path / "doc.json").read_text() == old_dump({"a": [1, 2]})


def written(doc):
    """The bytes ``write_json(doc)`` leaves in a fresh directory, or the class
    of what it raises; either way the directory holds nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        try:
            checks.write_json(path, doc)
        except TypeError as exc:
            assert os.listdir(tmp) == []
            return type(exc)
        assert os.listdir(tmp) == ["doc.json"]
        with open(path) as fh:
            return fh.read()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=json_values)
def test_written_bytes_are_json_dumps_indent_1_sorted(doc):
    assert written(doc) == outcome(old_dump, doc)


def as_lists(doc):
    """``doc`` with every numpy array replaced by its ``tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_lists(x) for x in doc]
    return doc


@pytest.mark.parametrize("doc", [
    np.array([0.1, -2.5e-308, 5e-324, 1e300]), np.array([[1.5, math.nan], [math.inf, -0.0]]),
    np.arange(6).reshape(2, 3), np.array([]), np.zeros((2, 0)), np.array(True),
    {"values": np.linspace(0, 1, 7), "shape": [7], "split": {"train": np.array([3, 1])}},
    [np.array([1.0]), [np.array([2.0, 3.0])], {"a": np.array([[1, 2]])}],
    {"a": [], "b": [[]], "c": {}, "d": np.array([])},
    {2: np.array([1.0, 2.0]), 10: [], -1: {"k": np.array([3])}},
    {"a": {True: np.array([[0.5]]), False: []}},
])
def test_arrays_empty_lists_and_other_keys(doc):
    assert checks.json_text(doc) == written(doc) == old_dump(as_lists(doc))


def test_value_failing_mid_write_leaves_no_file(tmp_path):
    # "a" sorts first, so its text is written before "b" is reached and fails
    doc = {"a": np.arange(10000.0), "b": [object()]}
    with pytest.raises(TypeError):
        checks.write_json(str(tmp_path / "doc.json"), doc)
    assert list(tmp_path.iterdir()) == []
