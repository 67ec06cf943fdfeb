"""The exact independent-set engine: depth, bitmask rows and the search floor."""

import numpy as np
import pytest

from decayspace.search import _branch, _neighbor_masks, max_independent_set


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
    sets = [s for s in range(1 << n)
            if not any(conflict[a, b] for a in range(n) for b in range(a) if s >> a & s >> b & 1)
            and (max_size is None or bin(s).count("1") <= max_size)]
    sets.sort(key=lambda s: [0 if s >> v & 1 else 1 for v in range(n)])
    val = lambda s: sum(w[v] for v in range(n) if s >> v & 1)
    better = [s for s in sets if val(s) > floor]
    if not better:
        return 0, floor
    pick = max(better, key=lambda s: (val(s), -better.index(s)))
    return pick, float(val(pick))


def _random_graphs():
    rng = np.random.default_rng(7)
    for k in range(40):
        n = 1 + k % 10
        conflict = rng.random((n, n)) < (0.1, 0.3, 0.6)[k % 3]
        w = [1.0] * n if k % 2 else [float(x) for x in rng.integers(1, 4, n)]
        yield conflict, w


def test_branch_without_hook_matches_include_first_enumeration():
    passthrough = lambda v, chosen, avail, state: (avail, state)
    for conflict, w in _random_graphs():
        masks = _neighbor_masks(conflict)
        for floor in (0.0, 1.0, 2.5):
            want = _brute_branch(conflict | conflict.T, w, floor)
            assert _branch(masks, w, floor) == want
            assert _branch(masks, w, floor, admit=None) == want
            assert _branch(masks, w, floor, admit=passthrough, state=0) == want


def test_hook_that_rejects_everything_leaves_the_floor():
    reject = lambda v, chosen, avail, state: None
    for conflict, w in _random_graphs():
        masks = _neighbor_masks(conflict)
        for floor in (0.0, 1.5):
            assert _branch(masks, w, floor, admit=reject) == (0, floor)


def test_narrowing_hook_is_an_extra_conflict_and_state_rides_the_stack():
    rng = np.random.default_rng(11)
    for conflict, w in _random_graphs():
        n = len(w)
        later = np.triu(rng.random((n, n)) < 0.3, 1)  # including v drops the u > v in row v
        drop = [sum(1 << int(u) for u in np.flatnonzero(later[v])) for v in range(n)]
        narrow = lambda v, chosen, avail, state: (avail & ~drop[v], state)
        got, val = _branch(_neighbor_masks(conflict), w, 0.0, admit=narrow)
        members = [v for v in range(n) if got >> v & 1]
        assert not any(later[a, b] for a in members for b in members)
        assert (got, val) == _branch(_neighbor_masks(conflict | later), w, 0.0)
        # a size cap kept in the state: the first independent set of that size
        for cap in (1, 2, 3):
            capped = lambda v, chosen, avail, size: (avail, size + 1) if size < cap else None
            want = _brute_branch(conflict | conflict.T, [1.0] * n, 0.0, max_size=cap)
            assert _branch(_neighbor_masks(conflict), [1.0] * n, 0.0,
                           admit=capped, state=0) == want
