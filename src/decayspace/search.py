"""Exact independent-set search shared by the diagnostics.

One weighted branch-and-bound, _branch, serves both public searches,
the packing growth of assouad_estimate and capacity_oracle; the
unweighted search is its unit-weight case. Conflicts are bitmasks
built with np.packbits (an entry in either direction of the matrix is
a conflict, the diagonal is ignored), one 64-bit word per column
block, so a whole stack of conflict matrices converts in one pass.
The search runs on an explicit stack, so exact_limit is not bounded by
Python's recursion limit.

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
inexact. _check_exact_limit refuses an exact_limit that is not an
integer >= 0.

Floor contract: _branch(masks, w, floor) starts from floor as its
incumbent value with no witness, so it returns a set only when one
beats floor strictly, and otherwise (0, floor). The witness rule
survives the floor: until the lexicographically least optimum is
reached every incumbent stays below the optimum, so no branch holding
that set is pruned, and after it only strictly heavier sets replace
it. The public searches use floor 0.0, which is the search without a
floor. assouad_estimate runs one search per ball with its incumbent
g(q) as the floor, and the value returned is its new g(q): the ball's
optimum when that beats g(q), and g(q) itself otherwise. Past
exact_limit it and _search share _first_fit, the one greedy pass,
each in its own vertex order.

Admission hook: _branch(..., admit=hook, state=s0) calls
hook(v, chosen, avail, state) when it includes v and goes on with the
(avail, state) the hook returns, or drops the include branch on None;
state starts as s0 and rides on the stack. The search then ranges
over the independent sets the hook admits at every step. The witness
rule survives when the admitted sets are closed under subsets: every
set on the path to the lexicographically least admitted optimum is
admitted too, and the bound, which ignores the hook, only
overestimates. capacity_oracle is such a run: unit weights, the
pairwise conflicts raw > 1 as masks, and as state the running
in-affectance load[x], the sum of raw[u, x] over the chosen links u.
It admits v when no chosen link, v included, has a load above 1, and
drops from avail every link whose load is already above 1. Links are
included in ascending index order, so each load is the same
left-to-right float sum that a column sum of the chosen block
computes, and a sequential float sum of non-negative terms never
decreases as a term is added. "Every chosen link has load <= 1" is
therefore closed under subsets in floating point, not only over the
reals, and pruning at load > 1 is exact. The public independent-set
searches and assouad_estimate pass no hook.
"""

import numpy as np


def _check_exact_limit(exact_limit):
    # a negative limit would make every search greedy, and NaN every one exact
    if not (isinstance(exact_limit, (int, np.integer)) and exact_limit >= 0):
        raise ValueError("exact_limit must be an integer >= 0, got %r" % (exact_limit,))


def _neighbor_masks(conflict):
    """Bitmask rows of an (n, n) conflict matrix, or one list per matrix of a (B, n, n) stack.

    Bit u of row v is set when v and u conflict in either direction.
    Rows are padded to whole 64-bit words and read as little-endian
    integers; past 64 columns the higher words are shifted in.
    """
    n = conflict.shape[-1]
    adj = np.zeros(conflict.shape[:-1] + (-(-n // 64) * 64,), dtype=bool)
    adj[..., :n] = conflict | np.swapaxes(conflict, -1, -2)
    idx = np.arange(n)
    adj[..., idx, idx] = False
    words = np.packbits(adj, axis=-1, bitorder="little").view("<u8")
    words = words.reshape(-1, words.shape[-1])
    masks = words[:, 0].tolist()
    for i in range(1, words.shape[1]):
        masks = [m | h << 64 * i for m, h in zip(masks, words[:, i].tolist())]
    if conflict.ndim == 2:
        return masks
    return [masks[j:j + n] for j in range(0, len(masks), n)]


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


def _branch(masks, w, floor, admit=None, state=None):
    """Best (mask, value) over the vertices of masks, improving strictly on floor.

    Returns (0, floor) when no independent set is heavier than floor.
    admit and state follow the admission hook contract above; v is
    already in chosen and its neighbours are out of avail when admit
    sees them.
    """
    best_val, best_mask = floor, 0
    stack = [((1 << len(masks)) - 1, 0, 0.0, state)]
    while stack:
        avail, chosen, val, state = stack.pop()
        if not avail:
            if val > best_val:
                best_val, best_mask = val, chosen
        elif _can_improve(avail, masks, w, val, best_val):
            bit = avail & -avail
            v = bit.bit_length() - 1
            stack.append((avail ^ bit, chosen, val, state))
            inc = avail & ~(bit | masks[v])
            if admit is None:
                stack.append((inc, chosen | bit, val + w[v], state))
            else:
                inc = admit(v, chosen | bit, inc, state)
                if inc is not None:
                    stack.append((inc[0], chosen | bit, val + w[v], inc[1]))
    return best_mask, best_val


def _first_fit(masks, order):
    """Mask of the independent set that takes each vertex of order unless it conflicts."""
    chosen = 0
    for v in order:
        if not masks[v] & chosen:
            chosen |= 1 << v
    return chosen


def _search(weights, conflict, exact_limit):
    _check_exact_limit(exact_limit)
    conflict = np.asarray(conflict, dtype=bool)
    n = conflict.shape[0]
    if n == 0:
        return (), 0.0, True
    masks = _neighbor_masks(conflict)
    w = weights.tolist()
    if n > exact_limit:
        members = _members(_first_fit(masks, sorted(range(n), key=lambda v: (-w[v], v))))
        return members, float(weights[list(members)].sum()), False
    best_mask, best_val = _branch(masks, w, 0.0)
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
