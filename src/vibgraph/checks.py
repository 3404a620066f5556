"""Checks for the JSON files read from outside: graph files, model.json,
ensemble.json and train_report.json. Each raises a one-line ValueError."""

import json
import sys
from itertools import chain

import numpy as np


def read_json(path):
    """The JSON document in ``path``; a malformed or too deeply nested file
    raises a one-line ValueError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def is_finite_number(x) -> bool:
    """Whether ``x`` is an int or a float, not a bool, and finite as a float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def numbers(value, message, shape=None, finite=False) -> np.ndarray:
    """``value``, JSON numbers nested to any depth, as an array. ``shape`` is
    the shape it must have, None taking any length; ``finite`` refuses inf and
    nan. Ragged rows, strings, booleans or null raise ValueError(message)."""
    try:
        arr = np.asarray(value)
    except ValueError:          # ragged rows, or nested deeper than numpy allows
        raise ValueError(message) from None
    leaves = [value] if isinstance(value, list) else []
    for _ in range(arr.ndim):
        leaves = chain.from_iterable(leaves)
    if (arr.dtype.kind not in "iuf"
            or shape is not None and (len(shape) != arr.ndim or any(
                n not in (None, k) for n, k in zip(shape, arr.shape)))
            or finite and not np.isfinite(arr).all()
            or bool in set(map(type, leaves))):     # a list mixing in true reads it as 1
        raise ValueError(message)
    return arr


def exact_keys(doc, expected, message):
    """``doc`` if it is a JSON object with exactly the keys ``expected``, else
    ValueError(message) followed by up to two unknown and missing keys."""
    keys = set(doc) if isinstance(doc, dict) else set()
    if keys != set(expected):
        raise ValueError(f"{message} (unknown {sorted(keys - set(expected))[:2]}, "
                         f"missing {sorted(set(expected) - keys)[:2]})")
    return doc
