"""Deep coercion of ops/metrics structures into JSON-native types.

Every ops surface in the repo — :meth:`StreamFleet.snapshot`,
:attr:`InferenceServer.stats`, :attr:`ModelPool.stats`, cache stats — promises
a ``json.dumps``-safe dict.  NumPy scalars leak into such dicts easily (a
counter incremented with ``array[i]``, a mean computed by a reduction), and
``json.dumps`` rejects ``np.int64`` outright while ``np.float64`` merely
happens to work because it subclasses :class:`float`.  :func:`json_ready`
walks a structure once and coerces everything to native Python types at the
source, so the promise holds by construction instead of by audit.

The HTTP gateway additionally needs *strict* JSON (RFC 8259 has no ``NaN``
token); ``nan_to_none=True`` maps non-finite floats to ``None`` for that
boundary while the in-process snapshots keep their NaNs.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["json_ready"]


def _coerce_float(value: float, nan_to_none: bool) -> Any:
    value = float(value)
    if nan_to_none and not math.isfinite(value):
        return None
    return value


def json_ready(value: Any, nan_to_none: bool = False) -> Any:
    """Return ``value`` rebuilt from JSON-native types only.

    Handles nested dicts / lists / tuples, NumPy arrays (to nested lists) and
    NumPy scalars (to the matching Python scalar).  Dict keys are coerced the
    same way when they are NumPy scalars; anything unrecognized falls back to
    ``str`` so an exotic object can never poison a whole snapshot.
    """
    if value is None or isinstance(value, (str, bool, int)) and not isinstance(value, np.generic):
        return value
    if isinstance(value, float):
        return _coerce_float(value, nan_to_none)
    if isinstance(value, np.generic):
        item = value.item()
        if isinstance(item, float):
            return _coerce_float(item, nan_to_none)
        return item
    if isinstance(value, np.ndarray):
        # ``tolist`` already yields native bools, ints and floats; only
        # non-finite floats bound for strict JSON need the element walk.
        kind = value.dtype.kind
        if kind in "biu" or (kind == "f" and (not nan_to_none or np.isfinite(value).all())):
            return value.tolist()
        return json_ready(value.tolist(), nan_to_none=nan_to_none)
    if isinstance(value, dict):
        return {
            json_ready(key, nan_to_none=nan_to_none): json_ready(item, nan_to_none=nan_to_none)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_ready(item, nan_to_none=nan_to_none) for item in value]
    return str(value)
