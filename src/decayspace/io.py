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
The encoder hands its text to a sink piece by piece: the file's write
when a file is saved, so that no file's whole text is ever held, and a
list that dumps_canonical joins for a report.

save_space and save_system hand the decay matrix and explicit power
levels over as arrays, and a float array is formatted once per
distinct value, a chunk of finite values per % call: the entries are
sorted by bit pattern, each run of equal bits gets one row of a
fixed-width byte table of texts, and a symmetric table holds about half
as many distinct values as entries. The sort need not be stable: the
table is ordered by bit pattern and a run's entries all point to its
one row, so the order inside a run changes no byte. The array's text
then goes to the sink a block of rows at a time (spaces._row_blocks,
about 2**18 entries a block), each row joined from the table, so the
writer holds the table, one index per entry and one block's text.
One writer saves every file and one reader parses every JSON file.
"""

import json
import math
import os

import numpy as np

from .spaces import DecaySpace, NODE_SPACE, _pairs, _row_blocks, _whole
from .links import LinkSystem, PowerAssignment, SinrParams


def _read_doc(path):
    # the one JSON file reader behind load_space, load_system and load_graph
    with open(path) as fh:
        return json.load(fh)


def _write_doc(doc, path):
    # the one file writer: canonical text, streamed, and a closing newline;
    # a write that fails part-way leaves no file (a device such as /dev/null stays)
    fh = open(path, "w")
    try:
        with fh:
            _encode(doc, fh.write)
            fh.write("\n")
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


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
    params = SinrParams(beta=obj.get("beta", 1.0), noise=obj.get("noise", 0.0))
    power = obj.get("power", {"kind": "uniform", "level": 1.0})
    if not isinstance(power, dict):
        raise ValueError("'power' must be a JSON object, got %r" % (power,))
    if power.get("kind") == "uniform":
        pw = PowerAssignment.uniform(power.get("level", 1.0))
    elif power.get("kind") == "explicit":
        if "levels" not in power:
            raise ValueError("explicit power missing 'levels'")
        pw = PowerAssignment.explicit(power["levels"])
    else:
        raise ValueError("unknown power kind %r" % power.get("kind"))
    return LinkSystem(space, links=obj.get("links"), params=params, power=pw)


def load_system(path):
    return system_from_dict(_read_doc(path), base_dir=os.path.dirname(os.path.abspath(path)))


def save_system(sys, path):
    _write_doc(_system_doc(sys, np.asarray), path)


def load_graph(path):
    """(n, edges) of a graph file: n >= 1 nodes, edges as (i, j) pairs by spaces._pairs."""
    obj = _read_doc(path)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph document needs 'n' and 'edges'")
    n = _whole("n", obj["n"], "[1, inf)")
    return n, _pairs("edge", obj["edges"], n)


# the one float rule: a finite value in 17 significant digits, any other as a JSON string
_DIGITS = "%.17g"


def _float_text(x):
    return _DIGITS % x if math.isfinite(x) else '"%r"' % x


# distinct values formatted by one % call and one list assignment into the text table
_CHUNK = 4096


def _text_table(a):
    """(table, index) of a float array: its distinct values' texts, and each entry's row in it.

    Values are told apart by bit pattern, which keeps 0.0 and -0.0 apart.
    -1.2345678901234567e-308 is the longest text, 24 bytes, so the table
    of texts is a fixed-width S24 array.
    """
    # a longdouble past float64 reads inf and a signalling NaN nan, as float() gives them
    with np.errstate(over="ignore", invalid="ignore"):
        bits = np.ascontiguousarray(a, np.float64).view(np.int64).ravel()
    order = np.argsort(bits)  # unstable: see the module docstring
    ordered = bits[order]
    first = np.ones(len(bits), bool)  # the first of each run of equal bits
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first].view(np.float64)
    rank = np.cumsum(first, out=ordered)  # ordered's buffer, no longer needed
    rank -= 1
    index = np.empty_like(order)
    index[order] = rank
    del order, ordered, rank
    table = np.empty(len(values), "S24")
    for k in range(0, len(values), _CHUNK):
        chunk = values[k:k + _CHUNK].tolist()
        table[k:k + _CHUNK] = (",".join([_DIGITS] * len(chunk)) % tuple(chunk)).split(",")
    for i in np.flatnonzero(~np.isfinite(values)):
        table[i] = _float_text(values[i].item())
    return table, index.reshape(a.shape)


def _array_rows(table, index):
    # rows of a float array: each entry's text looked up by its index into the table
    if index.ndim == 1:
        return b"[" + b",".join(table[index].tolist()) + b"]"
    return b"[" + b",".join([_array_rows(table, row) for row in index]) + b"]"


def _block_text(table, block):
    # the items of a block of rows of a float array, comma-joined; rows come from a
    # generator, so that their list is gone before the decode copies the block's text
    items = table[block].tolist() if block.ndim == 1 else (_array_rows(table, r) for r in block)
    return b",".join(items).decode("ascii")


def _float_array(a, put):
    """Put a float array's text, each distinct value formatted once, a block of rows at a time."""
    table, index = _text_table(a)
    put("[")
    for x0, x1 in _row_blocks(len(index), max(1, math.prod(a.shape[1:]))):
        if x0:
            put(",")
        put(_block_text(table, index[x0:x1]))
    put("]")


def _encode(obj, put):
    # one path for every value, its text handed to put piece by piece; floats lead,
    # as they fill the decay tables
    if isinstance(obj, (float, np.floating)):
        put(_float_text(float(obj)))
    elif obj is None or isinstance(obj, (bool, str)):
        put(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        put(str(int(obj)))
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f":
        _float_array(obj, put)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        put("[")
        for k, item in enumerate(obj.tolist() if isinstance(obj, np.ndarray) else obj):
            if k:
                put(",")
            _encode(item, put)
        put("]")
    elif isinstance(obj, dict):
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("canonical JSON keys must be strings")
        put("{")
        for k, key in enumerate(keys):
            put(("," if k else "") + json.dumps(key) + ":")
            _encode(obj[key], put)
        put("}")
    else:
        raise TypeError("cannot serialize %r canonically" % type(obj))


def dumps_canonical(obj):
    """Deterministic JSON text for a report-like object."""
    parts = []
    _encode(obj, parts.append)
    return "".join(parts)


def strip_timing(report):
    """Copy of a report dict without its top-level timing key."""
    return {k: v for k, v in report.items() if k != "timing"}
