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

One encoder (_encode) turns every value into its canonical text on a
single path, reports and the dense decay tables of input files alike.
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


def space_to_dict(space):
    out = {"mode": space.mode, "n": space.n, "f": space.f.tolist()}
    if space.labels is not None:
        out["labels"] = list(space.labels)
    return out


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
    _write_doc(space_to_dict(space), path)


def system_to_dict(sys):
    out = {
        "space": space_to_dict(sys.space),
        "beta": sys.params.beta,
        "noise": sys.params.noise,
    }
    if sys.links is not None:
        out["links"] = [list(l) for l in sys.links]
    if sys.power.kind == "uniform":
        out["power"] = {"kind": "uniform", "level": sys.power.value}
    else:
        out["power"] = {"kind": "explicit", "levels": sys.power.value.tolist()}
    return out


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
    _write_doc(system_to_dict(sys), path)


def load_graph(path):
    obj = _read_doc(path)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph document needs 'n' and 'edges'")
    n = _whole("n", obj["n"])
    edges = [(_whole("edge endpoint", i), _whole("edge endpoint", j)) for i, j in obj["edges"]]
    return n, edges


def _encode(obj):
    # one path for every value; floats lead, as they fill the decay tables
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else '"%r"' % x
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
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
