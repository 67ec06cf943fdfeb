"""File formats and the canonical JSON used for deterministic reports."""

import errno
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import io_reference as ref
import decayspace.io as dio
from decayspace import (
    DecaySpace,
    LinkSystem,
    PowerAssignment,
    SinrParams,
    dumps_canonical,
    gen_euclidean,
    load_graph,
    load_space,
    load_system,
    random_link_system,
    random_points,
    save_space,
    save_system,
    space_from_dict,
    space_to_dict,
    strip_timing,
    system_from_dict,
    system_to_dict,
)
from decayspace.cli import main


def small_space():
    f = np.array([[0.0, 0.1, 2.0], [0.1, 0.0, 1.0 / 3.0], [2.0, 1.0 / 3.0, 0.0]])
    return DecaySpace(f, labels=["a", "b", "c"])


def test_space_json_round_trip(tmp_path):
    sp = small_space()
    path = str(tmp_path / "space.json")
    save_space(sp, path)
    back = load_space(path)
    assert np.array_equal(back.f, sp.f)  # 17 digit floats survive exactly
    assert back.labels == ["a", "b", "c"]
    assert back.mode == sp.mode


def test_space_csv_round_trip(tmp_path):
    sp = gen_euclidean(np.random.default_rng(4).uniform(size=(5, 2)), 2.0)
    path = str(tmp_path / "space.csv")
    np.savetxt(path, sp.f, delimiter=",")
    back = load_space(path)
    assert back.mode == "node-space"
    assert np.allclose(back.f, sp.f, rtol=0, atol=0)


def test_space_from_dict_errors():
    with pytest.raises(ValueError):
        space_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        space_from_dict({"mode": "node-space", "n": 2})
    with pytest.raises(ValueError):
        space_from_dict({"mode": "node-space", "n": 3, "f": [[0.0, 1.0], [1.0, 0.0]]})


def test_system_round_trip(tmp_path):
    sp = gen_euclidean([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]], 2.0)
    sys = LinkSystem(
        sp,
        links=[(0, 1), (2, 3)],
        params=SinrParams(beta=2.0, noise=0.01),
        power=PowerAssignment.explicit([1.0, 2.0]),
    )
    path = str(tmp_path / "system.json")
    save_system(sys, path)
    back = load_system(path)
    assert np.array_equal(back.space.f, sp.f)
    assert back.links == [(0, 1), (2, 3)]
    assert back.params.beta == 2.0 and back.params.noise == 0.01
    assert back.power.kind == "explicit"
    assert np.array_equal(back.power.value, [1.0, 2.0])


def test_saved_system_has_the_powers_in_memory(tmp_path):
    # a write into the levels once changed the saved file but not the system
    power = PowerAssignment.explicit([1.0, 2.0])
    sys = LinkSystem(DecaySpace(np.array([[1.0, 3.0], [3.0, 1.0]]), mode="link-gain"), power=power)
    with pytest.raises(ValueError, match="read-only"):
        power.value[0] = 5.0
    path = str(tmp_path / "system.json")
    save_system(sys, path)
    assert np.array_equal(load_system(path).powers(), sys.powers())
    assert np.array_equal(sys.powers(), [1.0, 2.0])


def test_system_defaults_and_uniform_power():
    sp = space_to_dict(small_space())
    sys = system_from_dict({"space": sp, "links": [[0, 1]]})
    assert sys.params.beta == 1.0 and sys.params.noise == 0.0
    assert sys.power.kind == "uniform" and sys.power.value == 1.0
    with pytest.raises(ValueError):
        system_from_dict({"space": sp, "links": [[0, 1]], "power": {"kind": "odd"}})
    with pytest.raises(ValueError):
        system_from_dict({"links": [[0, 1]]})
    with pytest.raises(ValueError):
        system_from_dict([1])


def test_system_space_by_path(tmp_path):
    save_space(small_space(), str(tmp_path / "shared.json"))
    doc = {"space": "shared.json", "links": [[0, 1], [1, 2]]}
    sys = system_from_dict(doc, base_dir=str(tmp_path))
    assert sys.space.n == 3 and sys.links == [(0, 1), (1, 2)]

    syspath = tmp_path / "sys.json"
    syspath.write_text(json.dumps(doc))
    again = load_system(str(syspath))  # resolves relative to its own file
    assert np.array_equal(again.space.f, sys.space.f)


def test_load_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    assert load_graph(str(path)) == (4, [(0, 1), (2, 3)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4}))
    with pytest.raises(ValueError):
        load_graph(str(bad))
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_graph(str(bad))
    # edges read the node-pair rule of links and generators, in [0, n)
    for n, edges, why in ((4, [[0, 4]], r"'node' must lie in \[0, 4\), got 4"),
                          (4, [[-1, 2]], r"'node' must lie in \[0, 4\), got -1"),
                          (4, [[0, 1], [2, 2]], "edge 1 joins node 2 to itself"),
                          (4, [[0, 1, 2]], "edge 0 is not a pair of nodes"),
                          (0, [], r"'n' must lie in \[1, inf\), got 0")):
        bad.write_text(json.dumps({"n": n, "edges": edges}))
        with pytest.raises(ValueError, match=why):
            load_graph(str(bad))


def test_canonical_json_basics():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps_canonical([True, False, None]) == "[true,false,null]"
    assert dumps_canonical(0.5) == "0.5"
    assert dumps_canonical(float("nan")) == '"nan"'
    assert dumps_canonical(float("inf")) == '"inf"'
    assert dumps_canonical(float("-inf")) == '"-inf"'
    assert dumps_canonical(np.int64(5)) == "5"
    assert dumps_canonical(np.float64(0.25)) == "0.25"
    assert dumps_canonical(np.array([1.0, 2.0])) == "[1,2]"
    assert dumps_canonical(-0.0) == "-0"
    assert dumps_canonical(5e-324) == "4.9406564584124654e-324"
    assert dumps_canonical(-1e300) == "-1.0000000000000001e+300"
    assert dumps_canonical(np.float32(0.1)) == "0.10000000149011612"
    assert dumps_canonical((1, [np.float32("-inf")])) == '[1,["-inf"]]'
    assert dumps_canonical(np.array([-1.2345678901234567e-308, -0.0, 0.0])) == (
        "[-1.2345678901234567e-308,-0,0]")  # the longest text, and both zeros
    assert dumps_canonical(np.array([np.longdouble("1e4000")])) == '["inf"]'
    signalling = np.array([0x7F800001], dtype=np.uint32).view(np.float32)
    assert dumps_canonical(signalling) == dumps_canonical(signalling.tolist()) == '["nan"]'


_FLOATS = st.one_of(
    st.floats(),  # nan, inf and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1e300, -1e300]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
)
# 0.0 and -0.0, and NaNs of either sign with quiet, signalling and full payloads
_BITS = np.array([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                  0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
)
# identity, transpose, every other row and a reversed last axis: views that are not C-contiguous
_VIEWS = [lambda a: a, lambda a: a.T, lambda a: a[::2], lambda a: a[..., ::-1]]


@st.composite
def _float_arrays(draw):
    # free values, or a small pool (zeros and NaN payloads among it) so that entries collide
    pool = draw(st.one_of(st.none(), st.lists(st.one_of(_FLOATS, st.sampled_from(_BITS)),
                                             min_size=1, max_size=3)))
    shape = draw(_SHAPES)
    value = _FLOATS if pool is None else st.sampled_from(pool)
    a = np.array(draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape))),
                 dtype=np.float64).reshape(shape)
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        a = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)  # a mirrored table
    with np.errstate(over="ignore", invalid="ignore"):
        a = a.astype(draw(st.sampled_from([np.float64, np.float32, np.float16, np.longdouble])))
    return draw(st.sampled_from(_VIEWS))(a)


_ARRAYS = _float_arrays()
# a few values, and non-string keys, that both encoders must refuse
_EXOTIC = st.sampled_from([np.bool_(True), {1, 2}, b"x", np.array(2.5), {1: 0.5}])
_DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
              st.text(max_size=3), _FLOATS, _ARRAYS, _EXOTIC),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=24,
)


def _canonical_or_type_error(dumps, obj):
    try:
        return dumps(obj)
    except TypeError:
        return TypeError


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_canonical_json_matches_the_recursive_reference(doc):
    want = _canonical_or_type_error(ref.dumps_canonical, doc)
    assert _canonical_or_type_error(dumps_canonical, doc) == want


def test_encoding_a_float_table_leaves_no_cycle():
    table = np.random.default_rng(5).random((64, 64))
    gc.collect()
    dumps_canonical({"f": table})
    assert gc.collect() == 0


def test_saved_system_bytes_match_the_reference(tmp_path):
    explicit = LinkSystem(small_space(), links=[(0, 1), (2, 1)],
                          power=PowerAssignment.explicit([1.0, 2.0 / 3.0]))
    for sys in (random_link_system(250, 40003, alpha=3.0, box=6.0), explicit):
        path = tmp_path / "system.json"
        save_system(sys, str(path))
        assert path.read_text() == ref.dumps_canonical(system_to_dict(sys)) + "\n"


def test_saved_tables_of_several_row_blocks_match_the_reference(tmp_path):
    # 600 rows of 600 entries span two row blocks, and so does a flat array of 300000
    rng = np.random.default_rng(6)
    symmetric = gen_euclidean(random_points(600, 6), 3.0)
    skew = rng.uniform(0.5, 2.0, size=(600, 600))
    np.fill_diagonal(skew, 0.0)
    asymmetric = DecaySpace(skew)
    path = tmp_path / "table.json"
    for sp in (symmetric, asymmetric):
        save_space(sp, str(path))
        assert path.read_text() == ref.dumps_canonical(space_to_dict(sp)) + "\n"
    # few distinct values, both zeros and both infinities, in a table and a flat array
    pool = np.array([-0.0, 0.0, math.inf, -math.inf, 0.1, 1.0 / 3.0, 5e-324])
    doc = {"f": rng.choice(pool, size=(640, 640)), "v": rng.choice(pool, size=300000)}
    dio._write_doc(doc, str(path))
    assert path.read_text() == ref.dumps_canonical(doc) + "\n"


def test_saving_a_space_peaks_below_eight_times_its_table(tmp_path):
    sp = gen_euclidean(random_points(400, 1), 3.0)
    tracemalloc.start()
    try:
        save_space(sp, str(tmp_path / "space.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * sp.f.nbytes


def test_a_write_that_fails_part_way_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the disk fills after the first row block of a 600-node table
    block_text, calls = dio._block_text, []

    def full_after_one_block(table, block):
        calls.append(len(block))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return block_text(table, block)

    monkeypatch.setattr(dio, "_block_text", full_after_one_block)
    path = tmp_path / "space.json"
    with pytest.raises(OSError, match="No space left"):
        save_space(gen_euclidean(random_points(600, 2), 3.0), str(path))
    assert len(calls) == 2 and not path.exists()
    calls.clear()
    code = main(["generate", "--family", "euclidean", "--params", '{"n": 600, "alpha": 3}',
                 "--seed", "1", "--out", str(path)])
    assert code == 2 and len(calls) == 2 and not path.exists()
    assert "No space left" in capsys.readouterr().err


# documents that json.loads gives back equal: no NaN, no infinity and no -0.0
_PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 12, 10 ** 12),
              st.floats(allow_nan=False, allow_infinity=False).filter(
                  lambda x: not (x == 0.0 and math.copysign(1.0, x) < 0)),
              st.text(max_size=10)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=12,
)


@settings(deadline=None, max_examples=80)
@given(_PLAIN)
@example({"xs": [0.1, 1.0 / 3.0, 2.0 ** -40], "n": 3, "name": "probe"})
def test_canonical_json_round_trips_floats(obj):
    text = dumps_canonical(obj)
    back = json.loads(text)
    assert back == obj
    assert dumps_canonical(back) == text


def _reversed(obj):
    # the same document with the keys of every dict inserted in reverse order
    if isinstance(obj, dict):
        return {key: _reversed(obj[key]) for key in reversed(obj)}
    return obj


@settings(deadline=None, max_examples=50)
@given(st.dictionaries(st.text(max_size=6), st.integers(-5, 5)))
@example({"one": 1, "two": {"x": [1.5], "y": None}})
def test_canonical_json_is_order_invariant(doc):
    assert dumps_canonical(doc) == dumps_canonical(_reversed(doc))


def test_canonical_json_rejects_exotic_objects():
    with pytest.raises(TypeError):
        dumps_canonical({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps_canonical({"a": {2, 3}})
    with pytest.raises(TypeError):
        dumps_canonical({"flag": np.bool_(True)})
    with pytest.raises(TypeError):
        dumps_canonical([np.array(1.5)])  # a 0-d array is not a sequence


def test_strip_timing_is_shallow():
    rep = {"a": 1, "timing": {"seconds": 2.0}, "inner": {"timing": "keep"}}
    out = strip_timing(rep)
    assert out == {"a": 1, "inner": {"timing": "keep"}}
    assert "timing" in rep  # original untouched
