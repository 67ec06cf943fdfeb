"""The exact independent-set engine: depth, bitmask rows and the search floor."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decayspace import fading_parameter, gen_star
from decayspace import search
from decayspace.search import (
    _branch, _neighbor_masks, max_independent_set, max_weight_independent_set,
)


def test_exact_search_depth_is_not_recursion_bound():
    n = 1200  # a recursive search would need one frame per vertex
    members, exact = max_independent_set(np.zeros((n, n), dtype=bool), exact_limit=n)
    assert exact and members == tuple(range(n))


def _per_row_masks(conflict):
    # the row-by-row build that the stacked word build replaced
    adj = conflict | conflict.T
    np.fill_diagonal(adj, False)
    rows = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_stacked_masks_match_per_row_build(n):
    rng = np.random.default_rng(n)
    stack = rng.random((3, n, n)) < [[[0.0]], [[0.3]], [[1.0]]]
    want = [_per_row_masks(c) for c in stack]
    assert _neighbor_masks(stack) == want
    assert [_neighbor_masks(c) for c in stack] == want
    assert all(m < 1 << n for masks in want for m in masks)


def test_floor_keeps_least_witness_and_reports_no_improvement():
    # a 5-cycle plus a pendant: several maximum sets, the least one must win
    conflict = np.zeros((6, 6), dtype=bool)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)]:
        conflict[a, b] = True
    masks, ones = _neighbor_masks(conflict), [1.0] * 6
    members, exact = max_independent_set(conflict)
    assert exact and members == (0, 2, 5)
    for floor in (0.0, 1.0, 2.0):
        assert _branch(masks, ones, floor) == (0b100101, 3.0)
    assert _branch(masks, ones, 3.0) == (0, 3.0)
    assert _branch(masks, ones, 7.0) == (0, 7.0)
    # weighted, the search reaches a leaf {0} that only ties the floor
    diamond = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]:
        diamond[a, b] = True
    masks, w = _neighbor_masks(diamond), [2.0, 1.0, 2.0, 1.0]
    assert _branch(masks, w, 0.0) == _branch(masks, w, 1.0) == (0b1, 2.0)
    assert _branch(masks, w, 2.0) == (0, 2.0)


def _brute_branch(conflict, w, floor, max_size=None):
    # every independent set, in the include-first order the engine walks:
    # at the first vertex where two sets differ, the one holding it comes first
    n = len(w)
    rows = [sum(1 << b for b in range(n) if conflict[a, b] and a != b) for a in range(n)]
    sets = [s for s in range(1 << n)
            if not any(s >> a & 1 and rows[a] & s for a in range(n))
            and (max_size is None or bin(s).count("1") <= max_size)]
    sets.sort(key=lambda s: [0 if s >> v & 1 else 1 for v in range(n)])
    # summed in index order, as the engine adds weights along a path
    val = lambda s: sum(w[v] for v in range(n) if s >> v & 1)
    better = [(val(s), s) for s in sets if val(s) > floor]
    if not better:
        return 0, floor
    top = max(v for v, _ in better)
    return next(s for v, s in better if v == top), float(top)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 12))
@example(132, 11)  # its integer-weight search reaches a later leaf that only ties the best
def test_independent_set_searches_match_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    conflict = rng.random((n, n)) < 0.45
    conflict |= conflict.T
    np.fill_diagonal(conflict, False)
    mask, _ = _brute_branch(conflict, [1.0] * n, 0.0)
    assert max_independent_set(conflict) == (search._members(mask), True)
    # integer weights tie often; fading_parameter searches 1/f weights
    for w in (rng.integers(1, 9, size=n).astype(float), 1.0 / rng.uniform(0.5, 10.0, size=n)):
        mask, value = _brute_branch(conflict, w, 0.0)
        assert max_weight_independent_set(w, conflict) == (search._members(mask), value, True)


def _random_graphs():
    # unit, small-integer, real and tied real weights up to 14 vertices;
    # the ties are equal non-unit weights planted on random vertices
    rng = np.random.default_rng(7)
    for k in range(56):
        n = 1 + k % 14
        conflict = rng.random((n, n)) < (0.1, 0.3, 0.6)[k % 3]
        kind = k % 4
        if kind == 0:
            w = [1.0] * n
        elif kind == 1:
            w = [float(x) for x in rng.integers(1, 4, n)]
        else:
            w = rng.uniform(0.1, 3.0, n)
            if kind == 3:
                w[rng.random(n) < 0.5] = w[0] / 3.0
            w = w.tolist()
        yield conflict, w


def test_branch_without_load_cap_matches_include_first_enumeration():
    for conflict, w in _random_graphs():
        masks = _neighbor_masks(conflict)
        for floor in (0.0, 1.0, 2.5):
            want = _brute_branch(conflict | conflict.T, w, floor)
            assert _branch(masks, w, floor) == want
            assert _branch(masks, w, floor, loads=np.zeros((len(w), len(w)))) == want
            # a prefix of the masks carries bits of the vertices left out, as
            # a ball prefix does, and the weights may run past it
            want = _brute_branch((conflict | conflict.T)[:-1, :-1], w[:-1], floor)
            assert _branch(masks[:-1], w, floor) == want


def test_load_cap_that_rejects_every_vertex_leaves_the_floor():
    for conflict, w in _random_graphs():
        masks = _neighbor_masks(conflict)
        for floor, over in ((0.0, 2.0), (1.5, 2.0), (0.0, np.nan)):  # a NaN load is over
            assert _branch(masks, w, floor, loads=np.diag([over] * len(w))) == (0, floor)


def test_load_cap_is_an_extra_conflict_and_bounds_the_set_size():
    rng = np.random.default_rng(11)
    for conflict, w in _random_graphs():
        n, masks = len(w), _neighbor_masks(conflict)
        later = np.triu(rng.random((n, n)) < 0.3, 1)  # including v overloads the u > v in row v
        wider = _neighbor_masks(conflict | later)
        assert _branch(masks, w, 0.0, loads=2.0 * later) == _branch(wider, w, 0.0)
        # pairs loading each other by 2, 1 or 0.5 cap a set at 1, 2 or 3 vertices: the first
        # such independent set, or under real weights the heaviest (rank space remaps avail)
        for cap, load in ((1, 2.0), (2, 1.0), (3, 0.5)):
            for weights in ([1.0] * n, w):
                want = _brute_branch(conflict | conflict.T, weights, 0.0, max_size=cap)
                assert _branch(masks, weights, 0.0, loads=load * (1.0 - np.eye(n))) == want


def test_equal_weight_ties_keep_the_star_witness():
    # the hub and the stray of a 6-leaf star hear six leaves of equal
    # weight, and a leaf hears the hub, then the lighter stray, then the
    # other leaves: the rank space reorders a leaf's candidates and breaks
    # the ties among equal leaves by index
    rep = fading_parameter(gen_star(6, 0.5), 36.0)
    assert rep.exact and rep.gamma == 6.000000000000001
    assert rep.witness_set == (2, 3, 4, 5, 6, 7)
    assert rep.per_node[0] == 5.917808219178082 and rep.per_node[2] == 3.5000000000000004


def test_prune_allows_for_float_sums_in_another_order():
    # summed in index order, {0, 1, 2} weighs 0.9 and {1, 2, 3}
    # 0.9000000000000001; a bound that ignored the rounding of its own sum
    # would tie them at 0.9 and prune the heavier set
    conflict = np.zeros((4, 4), dtype=bool)
    conflict[0, 3] = True
    assert max_weight_independent_set([0.3, 0.2, 0.4, 0.3], conflict) == (
        (1, 2, 3), 0.9000000000000001, True)


def test_greedy_floor_saves_bound_evaluations_and_keeps_the_witness(monkeypatch):
    # the public search starts from a floor just below its greedy set,
    # where a floor-0 run must first climb to it
    rng = np.random.default_rng(3)
    conflict = rng.random((28, 28)) < 0.2
    w = rng.uniform(0.1, 3.0, 28).tolist()
    calls = []
    cover = search._cover
    monkeypatch.setattr(search, "_cover", lambda *a: calls.append(1) or cover(*a))
    members, value, exact = max_weight_independent_set(w, conflict, exact_limit=28)
    warm = len(calls)
    calls.clear()
    mask, cold_value = _branch(_neighbor_masks(conflict), w, 0.0)
    assert exact and members == search._members(mask) and value == cold_value
    assert 0 < warm < len(calls)
