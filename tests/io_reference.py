"""Slow reference for dumps_canonical in decayspace.io.

This is the recursive dispatch that the flat encoder replaced, kept
verbatim: each value appends its fragments to one shared parts list,
and the text is joined at the end. The differential tests compare the
encoder against it for identical text and identical TypeError cases.
"""

import json

import numpy as np


def _canon_fragment(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            parts.append('"nan"')
        elif np.isinf(x):
            parts.append('"inf"' if x > 0 else '"-inf"')
        else:
            parts.append(format(x, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if k:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _canon_fragment(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        for k, item in enumerate(seq):
            if k:
                parts.append(",")
            _canon_fragment(item, parts)
        parts.append("]")
    else:
        raise TypeError("cannot serialize %r canonically" % type(obj))


def dumps_canonical(obj):
    """Deterministic JSON text for a report-like object."""
    parts = []
    _canon_fragment(obj, parts)
    return "".join(parts)
