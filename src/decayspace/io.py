"""File formats and canonical JSON serialization.

Spaces travel as JSON ({"mode", "n", "f", optional "labels"}) or as a
bare CSV decay matrix (node-space). Link systems are JSON with an
inline space or a path to one, a link list, SINR parameters and a
power assignment. Graphs are JSON {"n", "edges"}.

Reports are serialized canonically so identical runs produce
identical bytes: keys sorted, floats printed with repr-faithful 17
significant digits, non-finite floats as the strings "inf", "-inf"
and "nan" (JSON has no literals for them). Timing always sits in one
top-level key that determinism comparisons strip.

One encoder (_encode) turns every value into its canonical text,
reports and the dense decay tables of input files alike, and every
float's text comes from one rule (_float_text and its format _DIGITS).
save_space and save_system hand the decay matrix and explicit power
levels over as arrays, and a float array is formatted once per
distinct value, a chunk of finite values per % call: the texts go into
a fixed-width byte table and each row is joined from it. A symmetric
table holds about half as many distinct values as entries.
One writer saves every file and one reader parses every JSON file.
"""

import json
import math
import os

import numpy as np

from .spaces import DecaySpace, NODE_SPACE, _whole
from .links import LinkSystem, PowerAssignment, SinrParams


def _read_doc(path):
    # the one JSON file reader behind load_space, load_system and load_graph
    with open(path) as fh:
        return json.load(fh)


def _write_doc(doc, path):
    # the one file writer: canonical text and a closing newline
    with open(path, "w") as fh:
        fh.write(dumps_canonical(doc))
        fh.write("\n")


def _space_doc(space, form):
    # form gives a float array's document form: nested lists, or the array itself to save
    out = {"mode": space.mode, "n": space.n, "f": form(space.f)}
    if space.labels is not None:
        out["labels"] = list(space.labels)
    return out


def space_to_dict(space):
    return _space_doc(space, np.ndarray.tolist)


def _space_fields(obj):
    """(f, mode, labels) of a space document, before the axioms are checked."""
    if not isinstance(obj, dict):
        raise ValueError("space document must be a JSON object")
    for key in ("mode", "n", "f"):
        if key not in obj:
            raise ValueError("space document missing %r" % key)
    f = np.array(obj["f"], dtype=float)
    if f.ndim != 2 or f.shape != (_whole("n", obj["n"]),) * 2:
        raise ValueError("decay matrix shape does not match n=%s" % obj["n"])
    return f, obj["mode"], obj.get("labels")


def _read_space(path):
    """(f, mode, labels) of a .json or .csv space file, before the axioms are checked."""
    if path.endswith(".csv"):
        return np.loadtxt(path, delimiter=",", ndmin=2), NODE_SPACE, None
    return _space_fields(_read_doc(path))


def space_from_dict(obj):
    return DecaySpace(*_space_fields(obj))


def load_space(path):
    """Read a space from .json or .csv (CSV means a node-space matrix)."""
    return DecaySpace(*_read_space(path))


def save_space(space, path):
    _write_doc(_space_doc(space, np.asarray), path)


def _system_doc(sys, form):
    out = {
        "space": _space_doc(sys.space, form),
        "beta": sys.params.beta,
        "noise": sys.params.noise,
    }
    if sys.links is not None:
        out["links"] = [list(l) for l in sys.links]
    if sys.power.kind == "uniform":
        out["power"] = {"kind": "uniform", "level": sys.power.value}
    else:
        out["power"] = {"kind": "explicit", "levels": form(sys.power.value)}
    return out


def system_to_dict(sys):
    return _system_doc(sys, np.ndarray.tolist)


def system_from_dict(obj, base_dir="."):
    if not isinstance(obj, dict):
        raise ValueError("system document must be a JSON object")
    if "space" not in obj:
        raise ValueError("system document missing 'space'")
    raw_space = obj["space"]
    if isinstance(raw_space, str):
        space = load_space(os.path.join(base_dir, raw_space))
    else:
        space = space_from_dict(raw_space)
    links = obj.get("links")
    if links is not None:
        for k, pair in enumerate(links):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError("system document link %d is not a [sender, receiver] pair" % k)
    params = SinrParams(beta=obj.get("beta", 1.0), noise=obj.get("noise", 0.0))
    power = obj.get("power", {"kind": "uniform", "level": 1.0})
    if power.get("kind") == "uniform":
        pw = PowerAssignment.uniform(power.get("level", 1.0))
    elif power.get("kind") == "explicit":
        if "levels" not in power:
            raise ValueError("explicit power missing 'levels'")
        pw = PowerAssignment.explicit(power["levels"])
    else:
        raise ValueError("unknown power kind %r" % power.get("kind"))
    return LinkSystem(space, links=links, params=params, power=pw)


def load_system(path):
    return system_from_dict(_read_doc(path), base_dir=os.path.dirname(os.path.abspath(path)))


def save_system(sys, path):
    _write_doc(_system_doc(sys, np.asarray), path)


def load_graph(path):
    obj = _read_doc(path)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph document needs 'n' and 'edges'")
    n = _whole("n", obj["n"])
    edges = [(_whole("edge endpoint", i), _whole("edge endpoint", j)) for i, j in obj["edges"]]
    return n, edges


# the one float rule: a finite value in 17 significant digits, any other as a JSON string
_DIGITS = "%.17g"


def _float_text(x):
    return _DIGITS % x if math.isfinite(x) else '"%r"' % x


# distinct values formatted by one % call and one list assignment into the text table
_CHUNK = 4096


def _array_rows(table, index):
    # rows of a float array: each entry's text looked up by its index into the table
    if index.ndim == 1:
        return b"[" + b",".join(table[index].tolist()) + b"]"
    return b"[" + b",".join([_array_rows(table, row) for row in index]) + b"]"


def _float_array_text(a):
    """A float array's text, each distinct value formatted once.

    Values are told apart by bit pattern, which keeps 0.0 and -0.0 apart.
    -1.2345678901234567e-308 is the longest text, 24 bytes, so the table
    of texts is a fixed-width S24 array.
    """
    # a longdouble past float64 reads inf and a signalling NaN nan, as float() gives them
    with np.errstate(over="ignore", invalid="ignore"):
        bits = np.ascontiguousarray(a, np.float64).view(np.int64).ravel()
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.ones(len(bits), bool)  # the first of each run of equal bits
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    index = np.empty_like(order)
    index[order] = np.cumsum(first) - 1
    values = ordered[first].view(np.float64)
    table = np.empty(len(values), "S24")
    for k in range(0, len(values), _CHUNK):
        chunk = values[k:k + _CHUNK].tolist()
        table[k:k + _CHUNK] = (",".join([_DIGITS] * len(chunk)) % tuple(chunk)).split(",")
    for i in np.flatnonzero(~np.isfinite(values)):
        table[i] = _float_text(values[i].item())
    return _array_rows(table, index.reshape(a.shape)).decode("ascii")


def _encode(obj):
    # one path for every value; floats lead, as they fill the decay tables
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        return _float_array_text(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(map(_encode, seq)) + "]"
    if isinstance(obj, dict):
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("canonical JSON keys must be strings")
        return "{" + ",".join(json.dumps(k) + ":" + _encode(obj[k]) for k in keys) + "}"
    raise TypeError("cannot serialize %r canonically" % type(obj))


def dumps_canonical(obj):
    """Deterministic JSON text for a report-like object."""
    return _encode(obj)


def strip_timing(report):
    """Copy of a report dict without its top-level timing key."""
    return {k: v for k, v in report.items() if k != "timing"}
