"""``json_ready``'s array fast path writes the same JSON bytes as the element walk.

The walk (``json_ready`` on ``array.tolist()``, a plain list) is the
reference: arrays of bools, ints and finite floats skip it, and the wire
bytes must not change either way.
"""

import json

import numpy as np
import pytest

from repro.utils.jsonsafe import json_ready

ARRAYS = {
    "nan_and_inf": np.array([[1.5, np.nan], [np.inf, -np.inf]]),
    "finite_float": np.array([[0.1, 2.0, -3.25], [1e300, -1e-300, 7.0]]),
    "negative_zero": np.array([-0.0, 0.0, -1.0]),
    "float32": np.array([0.1, np.nan, 2.5], dtype=np.float32),
    "int": np.arange(-3, 3, dtype=np.int64).reshape(2, 3),
    "uint": np.array([0, 7, 255], dtype=np.uint8),
    "bool": np.array([True, False, True]),
    "zero_d_float": np.array(2.5),
    "zero_d_nan": np.array(np.nan),
    "zero_d_int": np.array(7),
    "empty": np.zeros((0, 3)),
    "empty_int": np.zeros(0, dtype=np.int64),
}


def _dumps(value, **kwargs):
    return json.dumps(value, **kwargs).encode("utf-8")


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_strict_bytes_match_element_walk(name):
    array = ARRAYS[name]
    fast = json_ready({"a": array}, nan_to_none=True)
    walked = json_ready({"a": array.tolist()}, nan_to_none=True)
    assert _dumps(fast, allow_nan=False) == _dumps(walked, allow_nan=False)


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_lenient_bytes_match_element_walk(name):
    array = ARRAYS[name]
    assert _dumps(json_ready(array)) == _dumps(json_ready(array.tolist()))


def test_non_finite_become_null_in_strict_mode():
    out = json_ready(ARRAYS["nan_and_inf"], nan_to_none=True)
    assert out == [[1.5, None], [None, None]]
    assert json_ready(ARRAYS["zero_d_nan"], nan_to_none=True) is None

