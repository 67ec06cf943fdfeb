"""Exact independent-set search beyond the recursion limit."""

import numpy as np

from decayspace.search import max_independent_set


def test_exact_search_depth_is_not_recursion_bound():
    n = 1200  # a recursive search would need one frame per vertex
    members, exact = max_independent_set(np.zeros((n, n), dtype=bool), exact_limit=n)
    assert exact and members == tuple(range(n))
