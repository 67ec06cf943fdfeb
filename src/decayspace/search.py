"""Exact independent-set search shared by the diagnostics.

One weighted branch-and-bound serves both public searches; the
unweighted search is its unit-weight case. Conflicts are bitmasks
built with np.packbits (an entry in either direction of the matrix is
a conflict, the diagonal is ignored), and the search runs on an
explicit stack, so exact_limit is not bounded by Python's recursion
limit.

Pruning bound: cover the available vertices greedily with cliques,
each grown from the lowest uncovered vertex through its lowest
uncovered common neighbours. A clique holds at most one vertex of an
independent set, so the sum of the heaviest weight in each clique
bounds what a branch can still add. This is the colouring bound of
Tomita-Seki MCQ (2003) and San Segundo's bitset BBMC (2011).

Witness contract: the search branches include-first on the lowest
available vertex and replaces the incumbent only on a strict
improvement. A valid bound prunes only branches that cannot improve
strictly, so the reported optimum is the lexicographically least one.
Past exact_limit vertices a greedy pass in decreasing weight order
(ties by index) gives a lower bound, which the callers flag as
inexact.
"""

import numpy as np


def _neighbor_masks(conflict):
    adj = conflict | conflict.T
    np.fill_diagonal(adj, False)
    rows = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _members(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _can_improve(avail, masks, w, val, best):
    # greedy clique cover of avail; stops as soon as the bound clears best
    total = 0.0
    while avail:
        low = avail & -avail
        avail ^= low
        v = low.bit_length() - 1
        heaviest = w[v]
        cand = avail & masks[v]
        while cand:
            low = cand & -cand
            avail ^= low
            u = low.bit_length() - 1
            if w[u] > heaviest:
                heaviest = w[u]
            cand &= masks[u]
        total += heaviest
        if val + total > best:
            return True
    return False


def _search(weights, conflict, exact_limit):
    conflict = np.asarray(conflict, dtype=bool)
    n = conflict.shape[0]
    if n == 0:
        return (), 0.0, True
    masks = _neighbor_masks(conflict)
    w = weights.tolist()
    if n > exact_limit:
        chosen = 0
        for v in sorted(range(n), key=lambda v: (-w[v], v)):
            if not masks[v] & chosen:
                chosen |= 1 << v
        members = _members(chosen)
        return members, float(weights[list(members)].sum()), False
    best_val, best_mask = 0.0, 0
    stack = [((1 << n) - 1, 0, 0.0)]
    while stack:
        avail, chosen, val = stack.pop()
        if not avail:
            if val > best_val:
                best_val, best_mask = val, chosen
        elif _can_improve(avail, masks, w, val, best_val):
            bit = avail & -avail
            v = bit.bit_length() - 1
            stack.append((avail ^ bit, chosen, val))
            stack.append((avail & ~(bit | masks[v]), chosen | bit, val + w[v]))
    return _members(best_mask), float(best_val), True


def max_independent_set(conflict, exact_limit=24):
    """Largest conflict-free vertex set.

    conflict is a boolean adjacency matrix (diagonal ignored). Exact
    branch and bound up to exact_limit vertices, greedy first-fit by
    index beyond that. Returns (members, exact).
    """
    members, _, exact = _search(np.ones(len(conflict)), conflict, exact_limit)
    return members, exact


def max_weight_independent_set(weights, conflict, exact_limit=24):
    """Heaviest conflict-free vertex set under non-negative weights.

    Returns (members, total_weight, exact). Exact branch and bound up
    to exact_limit vertices; beyond that a greedy pass in decreasing
    weight order (ties by index), which is a lower bound.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    return _search(weights, conflict, exact_limit)
