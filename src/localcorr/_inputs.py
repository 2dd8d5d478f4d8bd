"""One reader and one type policy for snapshot, recipe and center files.

A number is a JSON integer or float, never a bool, a string or an integer
too large for a float; ``NaN`` and ``Infinity`` pass here and fail in the
domain objects.  Counts and seeds, in files and configs, are integers in
the int64 range: numpy integers pass, bools and integral floats do not.
A count whose float64 arrays have more bytes than numpy can describe fails
before anything is allocated.
"""
from __future__ import annotations

import json
import math
import reprlib
import sys

import numpy as np


def read_json(path, error):
    """The JSON value in ``path``; malformed JSON (an integer literal past
    Python's digit limit too) raises ``error`` naming the file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc


_INT64 = np.iinfo(np.int64)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(is_number, value))


def is_number_rows(value) -> bool:
    return isinstance(value, list) and all(map(is_numbers, value))


def is_integer(value) -> bool:
    """A count or seed: an integer that a numpy int64 holds."""
    return _is_int(value) and _INT64.min <= value <= _INT64.max


_MAX_BYTES = np.iinfo(np.intp).max


def check_describable(shape, what: str, error) -> None:
    """Raise ``error`` when a float64 array of ``shape`` has more bytes than
    numpy's ``intp`` holds, which numpy refuses at once; ``what`` names the
    count that asked for it, e.g. ``"n_samples = 4611686018427387904"``."""
    if math.prod(shape) * 8 > _MAX_BYTES:
        raise error(f"{what} needs a float64 array of shape {tuple(shape)}, "
                    f"more than numpy can describe")


#: ``(test, description)`` kinds for ``read_field``
NUMBER = (is_number, "a number")
NUMBERS = (is_numbers, "a list of numbers")
INTEGER = (is_integer, "an integer in the int64 range")
TEXT = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "an object")


def read_field(obj: dict, path: str, kind, error):
    """The value under the last key of ``path`` in ``obj``, of JSON type ``kind``.

    A missing or ill-typed value raises ``error`` naming the whole path,
    e.g. ``assets[0].spot``.
    """
    key = path.rsplit(".", 1)[-1]
    if key not in obj:
        raise error(f"missing field {path}")
    test, expected = kind
    if not test(obj[key]):
        raise error(f"{path} must be {expected}, got {reprlib.repr(obj[key])}")
    return obj[key]
