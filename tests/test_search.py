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


def test_first_stops_at_the_first_set_that_beats_the_floor():
    # include-first reaches {0} (weight 1) before the heavier {1}
    masks, w = _neighbor_masks(np.array([[False, True], [False, False]])), [1.0, 3.0]
    assert _branch(masks, w, 0.5) == (0b10, 3.0)
    assert _branch(masks, w, 0.5, first=True) == (0b1, 1.0)
    assert _branch(masks, w, 1.0, first=True) == (0b10, 3.0)
    assert _branch(masks, w, 3.0, first=True) == (0, 3.0)
