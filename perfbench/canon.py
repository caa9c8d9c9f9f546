"""Canonical digests of simulated outputs.

A cell's outputs are nested dicts and lists holding Python and numpy
scalars, sometimes keyed by floats (price bands, time buckets).  JSON
alone cannot digest them stably: numpy scalars are not serializable,
float keys become lossy strings, and dict order leaks.  ``canonical``
maps any such value to plain JSON data with every float written by
``repr`` (exact round-trip), keys stringified the same way and sorted,
tuples as lists and sets sorted; ``digest`` hashes that.
"""

import hashlib
import json
import math
import numbers


def _float(value):
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def _key(key):
    if isinstance(key, bool):
        return repr(key)
    if isinstance(key, numbers.Integral):
        return str(int(key))
    if isinstance(key, numbers.Real):
        return "f:" + _float(key)
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "t:" + json.dumps([_key(k) for k in key])
    raise TypeError(f"cannot canonicalize key of type {type(key).__name__}")


def canonical(value):
    """Plain-JSON stand-in for ``value``; floats as exact repr strings."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return {"f": _float(value)}
    if isinstance(value, dict):
        items = [(_key(k), canonical(v)) for k, v in value.items()]
        if len({k for k, _ in items}) != len(items):
            raise ValueError("distinct keys collide after canonicalization")
        return dict(sorted(items))
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=json.dumps)
    if hasattr(value, "tolist"):  # numpy arrays and 0-d scalars
        return canonical(value.tolist())
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(value):
    """sha256 hex digest of ``canonical(value)``."""
    text = json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
