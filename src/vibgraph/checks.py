"""JSON files in and out: one atomic, indented writer for every file the
program writes, and checks for the files read from outside (graph files,
model.json, ensemble.json and train_report.json), each raising a one-line
ValueError."""

import json
import operator
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


def _tolist(obj):
    """What json.dumps's ``default`` gets: an array is written as its list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(sort_keys=True, default=_tolist).encode   # no indent: the C encoder


def atomic_write_text(path, text):
    """Write-temp-then-rename so readers never see a partial file. The file
    gets the mode ``open(path, "w")`` gives, 0666 less the umask. ``text`` is
    a string or an iterable of strings, written one after another."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc):
    """Write ``json_text(doc)`` to ``path`` atomically, one piece at a time:
    each value of a dict is laid out and written before the next, so the
    whole text, or all of a dict's arrays as lists, is never held at once."""
    atomic_write_text(path, _pieces(doc, "\n"))


def json_text(doc) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte, where a
    numpy array may stand for a list and reads as its ``tolist()``.

    Any indent sends ``json.dumps`` to its pure-Python encoder. Here each list
    is encoded once by the C encoder; one of scalars, or of rows of scalars,
    is re-laid into the indented layout by ``str.replace``, and anything else
    is laid out item by item."""
    return "".join(_pieces(doc, "\n"))


def _pieces(obj, nl):
    """``obj`` laid out as by ``json_text`` at the depth whose line breaks are
    ``nl``, a newline and one space per level, in pieces: a dict with string
    keys yields each key, then its value's pieces."""
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        inner = nl + " "
        for k, key in enumerate(sorted(obj)):
            yield ("," if k else "{") + inner + encode_basestring_ascii(key) + ": "
            yield from _pieces(obj[key], inner)
        yield nl + "}"
    else:
        yield _indented(obj, nl)


def _indented(obj, nl):
    """``obj`` laid out as ``_pieces`` lays it out, in one string."""
    inner = nl + " "
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        if all(isinstance(key, str) for key in obj):
            return "".join(_pieces(obj, nl))
        # json.dumps converts or refuses other keys, after sorting them
        return json.dumps(obj, indent=1, sort_keys=True, default=_tolist).replace("\n", nl)
    text = _encode(obj)
    if not isinstance(obj, (list, tuple)) or not obj:
        return text
    if '"' not in text and "{" not in text and "[]" not in text:
        # Numbers, true, false and null only, so every ", " separates items
        # and every "[" opens a non-empty list.
        n = len(obj)
        if text.count("[") == 1:
            return "[" + inner + text[1:-1].replace(", ", "," + inner) + nl + "]"
        if text.count("[") == n + 1 and text.count("], [") == n - 1:
            # n nested lists with n - 1 adjacent pairs ("], [") can only all
            # be items of one list, obj itself: obj is n rows of scalars.
            row = inner + " "
            return ("[" + inner + "[" + row
                    + text[2:-2].replace("], [", inner + "]," + inner + "[" + row)
                                .replace(", ", "," + row)
                    + inner + "]" + nl + "]")
    return "[" + inner + ("," + inner).join(_indented(x, inner) for x in obj) + nl + "]"


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


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check_bounds(values, bounds):
    """Raise ValueError for the first ``(key, op, bound)`` of ``bounds``, op
    one of ">", ">=" and "<=", that ``values[key]`` does not meet."""
    for key, op, bound in bounds:
        if not _COMPARE[op](values[key], bound):
            raise ValueError(f"{key} must be {op} {bound}, got {values[key]!r}")


def exact_keys(doc, expected, message):
    """``doc`` if it is a JSON object with exactly the keys ``expected``, else
    ValueError(message) followed by up to two unknown and missing keys."""
    keys = set(doc) if isinstance(doc, dict) else set()
    if keys != set(expected):
        raise ValueError(f"{message} (unknown {sorted(keys - set(expected))[:2]}, "
                         f"missing {sorted(set(expected) - keys)[:2]})")
    return doc
