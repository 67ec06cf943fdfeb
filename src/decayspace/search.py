"""Exact independent-set search shared by the diagnostics.

One weighted branch-and-bound, _branch, serves both public searches,
the packing growth of assouad_estimate and capacity_oracle; the
unweighted search is its unit-weight case. Conflicts are bitmasks,
one 64-bit word per column block, made by one bit packer, _bit_rows,
so a whole stack of matrices converts in one np.packbits pass.
_neighbor_masks symmetrizes a conflict matrix (an entry in either
direction is a conflict) and clears its diagonal before packing it;
assouad_estimate packs the rows of its symmetric decays as they are.
The search runs on an explicit stack, so exact_limit is not bounded by
Python's recursion limit.

Clique routines: a clique holds at most one vertex of an independent
set, so a clique cover of a vertex set bounds its independent sets,
and both clique routines live here, on the same masks. _cover is the
pruning bound: it covers the available vertices greedily with cliques
in decreasing weight order, ties by index. Each clique is seeded by
the heaviest uncovered vertex and grown through its heaviest uncovered
common neighbours, and the sum of the seeds' weights bounds what a
branch can still add. This is the colouring bound of Tomita-Seki MCQ
(2003) and San Segundo's bitset BBMC (2011), in the weighted form of
Kumlander (2004), which covers in decreasing weight order.
_first_fit_cliques is the unit-weight partition that assouad_estimate
carries along a radius sweep: each new vertex joins the first clique
it conflicts with entirely, or starts a new one, so a partition can
grow vertex by vertex as the balls grow, without a search. Given a
stop count it returns the first vertex after which the partition holds
more cliques than that, the first vertex offered when it already does,
so a sweep passes over a run of balls it settles in one call. On the
masks of a non-clash relation it is separation_strengthen's first-fit
colouring.

Rank space: _branch ranks the vertices once per call and carries a
second avail mask in which bit i is the i-th heaviest vertex. The
lowest set bit then seeds each clique, so _cover compares no weights.
A push updates both masks in O(1); an avail that the load cap
narrows is remapped. When the weights do not increase with the index,
unit weights included, the rank order is the identity and the masks
are used as they are. The bound only decides which branches are
pruned. It never fixes the branching order, which stays include-first
on the lowest index, so any valid bound leaves the witness untouched.

Rounding: the cover sums its seeds in rank order, but a path's value
sums its weights in index order, so two float sums of the same set
can differ. A pruned branch could beat the incumbent only by the
rounding of the path's value, of a completed set's value, of the
cover's total and of the prune margin itself: four sums of at most
n + 1 non-negative terms, each off by under (n + 1) * 2**-53 of the
larger of the total weight and the floor. The prune test takes
tol = (n + 2) * 2**-50 of that off its margin, so a pruned branch
cannot improve strictly in floating point either. Integer weights
below 2**53 sum exactly in any order; there tol is 0 and a tie
prunes, as in the unit-weight searches.

Witness contract: the search branches include-first on the lowest
available vertex and replaces the incumbent only on a strict
improvement. A valid bound prunes only branches that cannot improve
strictly, so the reported optimum is the lexicographically least one.
Past exact_limit vertices a greedy pass in decreasing weight order
(ties by index) gives a lower bound, which the callers flag as
inexact. An exact_limit must be a whole number >= 0 (spaces._whole).

Floor contract: _branch(masks, w, floor) starts from floor as its
incumbent value with no witness, so it returns a set only when one
beats floor strictly, and otherwise (0, floor). The witness rule
survives any floor below the optimum: until the lexicographically
least optimum is reached every incumbent stays below it, so no branch
holding that set is pruned, and after it only strictly heavier sets
replace it. The public searches warm-start from their greedy set: the
_first_fit pass in decreasing weight order, which past exact_limit is
their answer, and up to it their floor less (n + 2) * 2**-50 of its
value. That is more than its numpy sum and any path's index-order sum
of the same weights can differ, so floor < greedy <= optimum in
floating point too, and the search returns what it returns from floor
0.0 without first climbing to the greedy value. A greedy value of 0.0
(all weights 0) keeps floor 0.0. assouad_estimate searches a ball that
its clique partition cannot settle with its incumbent g(q) as the
floor, and the value returned is its new g(q): the ball's optimum when
that beats g(q), and g(q) itself otherwise. Past exact_limit it and
_search share _first_fit, the one greedy pass, each in its own vertex
order.

Load cap: _branch(..., loads=L) takes an (n, n) matrix of non-negative
floats and carries a load vector on the stack, the sum of the rows
L[u] over the chosen vertices u. Including v adds L[v]; the include
branch is dropped when a chosen vertex, v included, has a load above 1
(a NaN load counts as over), and every vertex already over 1 leaves
avail. The search then ranges over the independent sets whose every
member has load at most 1. Vertices are included in ascending index
order, so each load is the same left-to-right float sum that a column
sum of the chosen block computes, and a sequential float sum of
non-negative terms never decreases as a term is added. "Every chosen
vertex has load <= 1" is therefore closed under subsets in floating
point, not only over the reals, and pruning at load > 1 is exact:
every set on the path to the lexicographically least capped optimum is
capped too, and the bound, which ignores the loads, only
overestimates. So the witness rule survives. capacity_oracle is the
one such run: unit weights, the pairwise conflicts raw > 1 as masks
and the uncapped affectances raw as loads, so a load is a link's
in-affectance from the chosen links. The public independent-set
searches and assouad_estimate pass no loads.
"""

import math

import numpy as np

from .spaces import _whole


def _bit_rows(rows):
    """Bitmask rows of an (n, m) bool matrix, or one list per matrix of a (B, n, m) stack.

    Bit u of row v is rows[v, u]. Each row is packed into whole 64-bit
    words read as little-endian integers; past 64 columns the higher
    words are shifted in. This is the one bit packer.
    """
    n, m = rows.shape[-2:]
    width = -(-m // 64)
    if m != 64 * width:  # packbits is several times faster on whole bytes
        padded = np.zeros(rows.shape[:-1] + (64 * width,), dtype=bool)
        padded[..., :m] = rows
        rows = padded
    words = np.packbits(rows, axis=-1, bitorder="little").view("<u8").reshape(-1, width)
    masks = words[:, 0].tolist()
    for i in range(1, width):
        masks = [lo | h << 64 * i for lo, h in zip(masks, words[:, i].tolist())]
    if rows.ndim == 2:
        return masks
    return [masks[j:j + n] for j in range(0, len(masks), n)]


def _neighbor_masks(conflict):
    """Bitmask rows of an (n, n) conflict matrix, or one list per matrix of a (B, n, n) stack.

    Bit u of row v is set when v and u conflict in either direction,
    and never on the diagonal.
    """
    adj = conflict | np.swapaxes(conflict, -1, -2)
    idx = np.arange(conflict.shape[-1])
    adj[..., idx, idx] = False
    return _bit_rows(adj)


def _members(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _by_weight(w):
    """Vertices in decreasing weight order, ties by index (the sort is stable)."""
    return sorted(range(len(w)), key=w.__getitem__, reverse=True)


def _remap(mask, pos):
    """mask with each bit v moved to bit pos[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << pos[low.bit_length() - 1]
        mask ^= low
    return out


def _cover(avail, masks, w, stop):
    """Weight of a greedy clique cover of avail, or its first partial weight above stop.

    Rank space: bit i is the i-th heaviest vertex, so the lowest
    uncovered bit seeds each clique with the clique's heaviest weight.
    """
    total = 0.0
    while avail:
        low = avail & -avail
        v = low.bit_length() - 1
        total += w[v]
        if total > stop:
            return total
        avail ^= low
        cand = avail & masks[v]
        while cand:
            low = cand & -cand
            avail ^= low
            cand &= masks[low.bit_length() - 1]
    return total


def _first_fit_cliques(cliques, masks, nodes, stop=math.inf):
    """Add each node to the first clique of cliques it conflicts with entirely, else a new one.

    cliques is a list of vertex masks, extended in place. Returns the
    first node after which more than stop cliques are held, which is
    the first of nodes when that many are held already, or None when
    every node was added within stop.
    """
    for v in nodes:
        row = masks[v]
        for i, c in enumerate(cliques):
            if c & row == c:
                cliques[i] = c | 1 << v
                break
        else:
            cliques.append(1 << v)
        if len(cliques) > stop:
            return v
    return None


def _branch(masks, w, floor, loads=None):
    """Best (mask, value) over the vertices of masks, improving strictly on floor.

    Returns (0, floor) when no independent set is heavier than floor.
    loads is None or an (n, n) float matrix, n = len(masks), under the
    load cap contract above.
    """
    n = len(masks)
    full = (1 << n) - 1
    w = w[:n]
    rank = _by_weight(w)
    pos = list(range(n))
    if rank == pos:
        rmasks, rw = masks, w
    else:
        for i, v in enumerate(rank):
            pos[v] = i
        rmasks = [_remap(masks[v] & full, pos) for v in rank]
        rw = [w[v] for v in rank]
    total = sum(w)
    exact = total < 2 ** 53 and all(map(float.is_integer, w))
    tol = 0.0 if exact else (n + 2) * 2.0 ** -50 * max(total, floor)
    best_val, best_mask = floor, 0
    stack = [(full, full, 0, 0.0, None if loads is None else np.zeros(n))]
    while stack:
        avail, ravail, chosen, val, load = stack.pop()
        if not avail:
            if val > best_val:
                best_val, best_mask = val, chosen
            continue
        stop = best_val - val - tol
        if _cover(ravail, rmasks, rw, stop) > stop:
            bit = avail & -avail
            v = bit.bit_length() - 1
            rbit = 1 << pos[v]
            stack.append((avail ^ bit, ravail ^ rbit, chosen, val, load))
            inc = avail & ~(bit | masks[v])
            if loads is None:
                rinc = ravail & ~(rbit | rmasks[pos[v]])
            else:
                load = load + loads[v]
                # a NaN load counts as over, as it fails the column-sum test
                over = np.packbits(~(load <= 1.0), bitorder="little").tobytes()
                over = int.from_bytes(over, "little")
                if over & (chosen | bit):
                    continue
                inc &= ~over
                rinc = inc if rmasks is masks else _remap(inc, pos)
            stack.append((inc, rinc, chosen | bit, val + w[v], load))
    return best_mask, best_val


def _first_fit(masks, order):
    """Mask of the independent set that takes each vertex of order unless it conflicts."""
    chosen = 0
    for v in order:
        if not masks[v] & chosen:
            chosen |= 1 << v
    return chosen


def _search(weights, conflict, exact_limit):
    # a negative limit would make every search greedy, NaN every one exact, True read as 1
    exact_limit = _whole("exact_limit", exact_limit, "[0, inf)")
    conflict = np.asarray(conflict, dtype=bool)
    if conflict.ndim != 2 or weights.shape * 2 != conflict.shape:  # n x n and n weights
        raise ValueError("a search needs a square conflict matrix and one weight per row, "
                         "got weights of shape %s and a conflict of shape %s"
                         % (weights.shape, conflict.shape))
    n = conflict.shape[0]
    if n == 0:
        return (), 0.0, True
    masks = _neighbor_masks(conflict)
    w = weights.tolist()
    members = _members(_first_fit(masks, _by_weight(w)))
    value = float(weights[list(members)].sum())
    if n > exact_limit:
        return members, value, False
    # below the greedy value by more than any two sums of its weights differ
    floor = float(np.nextafter(value * (1 - (n + 2) * 2.0 ** -50), -np.inf)) if value else 0.0
    best_mask, best_val = _branch(masks, w, floor)
    return _members(best_mask), float(best_val), True


def max_independent_set(conflict, exact_limit=24):
    """Largest conflict-free vertex set.

    conflict is a boolean adjacency matrix (diagonal ignored). Exact
    branch and bound up to exact_limit vertices, greedy first-fit by
    index beyond that. Returns (members, exact).
    """
    members, _, exact = _search(np.ones(np.shape(conflict)[:1]), conflict, exact_limit)
    return members, exact


def max_weight_independent_set(weights, conflict, exact_limit=24):
    """Heaviest conflict-free vertex set under non-negative weights.

    Returns (members, total_weight, exact). Exact branch and bound up
    to exact_limit vertices; beyond that a greedy pass in decreasing
    weight order (ties by index), which is a lower bound.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(weights >= 0):  # NaN fails the test too
        raise ValueError("weights must be non-negative")
    return _search(weights, conflict, exact_limit)
