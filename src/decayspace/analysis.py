"""Packing, dimension and fading diagnostics for decay spaces.

Conventions. The ball around a node y at radius t collects the nodes
whose decay toward y is strictly below t. A t-packing of a node set
keeps every pairwise decay strictly above 2t, in both directions when
the matrix is asymmetric. Node-set separation at level r, used by the
fading parameter, is the non-strict mutual bound
min(f(x,y), f(y,x)) >= r.

The fading parameter gamma(r) measures the worst normalized
interference any node can receive from an r-separated sender set that
also keeps its distance from the listener. It is finite whenever ball
packings grow polynomially with degree below 1, and fading_bound turns
a packing-growth estimate (assouad_estimate) into an explicit ceiling
on gamma.
"""

import math

import numpy as np
from dataclasses import dataclass

from .search import (
    EXACT_LIMIT, _bit_rows, _branch, _first_fit, _first_fit_cliques, _neighbor_masks,
    max_independent_set, max_weight_independent_set,
)
from .spaces import _node_index, _quasi_table, _real, _row_blocks, _whole


def _stack_blocks(count, k):
    """Ranges over count scales whose (B, k, k) stacks hold about 2**18 entries.

    A row counts at its width padded to whole 64-bit words, and a block
    holds one scale at least, so a stack never exceeds
    max(2**18, k * padded width) entries.
    """
    return _row_blocks(count, k * (-(-k // 64) * 64))


def _entry_rows(Sx, sizes, radii, scales):
    """(q, rows) per pair (q, g) of scales: each node's conflict row where it enters q's sweep.

    sizes and radii are the balls of a center, Sx its weaker-direction
    decays in ball order.
    The sweep at scale q starts at the first ball of more than g nodes,
    and node v enters it there or at the first ball holding v,
    whichever is later. Row v is Sx[v] <= 2 * (r / q) at that radius r,
    one row for each of the sizes[-1] nodes. Sx is symmetric, so the
    rows need no symmetrizing; their diagonal bits stay, and first fit
    never reads them. The scales are packed in blocks of about 2**18
    entries. A radius 2 * r / q past the float range reads inf, and its
    row holds every node, as the true radius does, so that overflow is
    computed without a warning.
    """
    K = int(sizes[-1])
    ball_of = np.searchsorted(sizes, np.arange(K), side="right")
    for j0, j1 in _stack_blocks(len(scales), K):
        qs, gs = np.array(scales[j0:j1]).T
        enter = np.maximum(ball_of, np.searchsorted(sizes, gs, side="right")[:, None])
        t = radii[enter] / qs[:, None]
        with np.errstate(over="ignore"):
            rows = Sx[:K, :K] <= 2.0 * t[:, :, None]
        yield from zip(qs.tolist(), _bit_rows(rows))


def _run_starts(v):
    """Index of the first entry of each run of equal positive values of the sorted array v.

    These are np.unique's values, found without it: np.unique loads
    numpy.ma on its first call, 10 ms or more of import.
    """
    starts = np.empty(len(v), dtype=bool)
    starts[:1] = True
    np.not_equal(v[1:], v[:-1], out=starts[1:])
    return np.flatnonzero(starts & (v > 0))


def _packing_conflicts(S, t):
    """Pairs too close to share a packing at scale t: min(f(a,b), f(b,a)) <= 2t.

    S holds the weaker-direction decays min(f, f.T) of a node set.
    """
    return S <= 2.0 * t


def ball(space, y, t):
    """Nodes whose decay toward y is strictly below t."""
    t = _real("t", t, "(0, inf]")
    y = _node_index(y, space.n)
    return tuple(int(i) for i in np.where(space.f[:, y] < t)[0])


def packing_number(space, body, t, exact_limit=EXACT_LIMIT):
    """Largest packing of the body at scale t.

    A packing keeps min(f(a,b), f(b,a)) > 2t for every pair of chosen
    nodes. Exact up to exact_limit body nodes, greedy beyond (then a
    lower bound). Returns (count, exact, members).
    """
    body = sorted({_node_index(i, space.n) for i in body})
    if not body:
        raise ValueError("cannot pack an empty body")
    t = _real("t", t, "(0, inf]")
    sub = space.f[np.ix_(body, body)]
    close = _packing_conflicts(np.minimum(sub, sub.T), t)
    members, exact = max_independent_set(close, exact_limit)
    chosen = tuple(body[i] for i in members)
    return len(chosen), exact, chosen


@dataclass
class DimensionEstimate:
    assouad: float
    C: float
    samples: list
    r_grid: tuple
    exact: bool


def assouad_estimate(space, C=1.0, q_grid=(1.5, 2.0, 3.0, 4.0, 8.0, 16.0),
                     exact_limit=EXACT_LIMIT):
    """Packing-growth exponent of decay balls.

    g(q) is the largest packing count of any ball at scale radius/q:
    for each center x the radius sweep visits the distinct incoming
    decay values r of that column, and the ball {y : f(y,x) < r} is
    packed at scale r/q (members pairwise above 2r/q in the weaker
    decay direction).

    With a numeric C the estimate is the largest log_q(g(q)/C) over
    the grid of finite q > 1. With C=None the model g(q) = C * q^A is
    fitted by least squares on the log-log grid samples, which needs at
    least two distinct q, and the fitted pair is returned; the fit
    discounts the scale-free multiplicity that a fixed C cannot absorb,
    so it is the variant to use when the estimate feeds capacity or
    interference bounds. Greedy packings past exact_limit make counts
    lower bounds; exact reports whether every packing was exact.

    Each center's column is sorted once (stably), so every ball is a
    prefix of that order, and the weaker-direction decays are permuted
    into that order once per center. A ball is packed only when it holds
    more than g(q) nodes; the others cannot raise g(q). One clique
    partition rides along each (center, q) radius sweep. A ball's
    conflict threshold 2r/q grows with r, so a clique of one ball stays
    a clique in every later ball of the sweep.
    Each node joins the partition first-fit (the first clique it
    conflicts with entirely, or a new one) at the ball where it enters
    the sweep, by its one conflict row at that ball's radius. Every g(q)
    is fixed when a center starts, since a scale's sweep changes only
    its own g(q), so the center's rows for all scales are packed in one
    pass. A packing holds at most one node per clique, so a ball whose
    partition has at most g(q) cliques cannot raise g(q) and is skipped:
    first fit stops at the node after which the partition first holds
    more than g(q) cliques, at once when it already does, and the ball
    holding that node is the next to decide. Only that ball's full
    conflict masks are built. Up to exact_limit nodes the partition is
    rebuilt first-fit on them, and only if it still has more than g(q)
    cliques is the ball searched, once, with g(q) as the floor; the
    search returns the ball's optimum when that beats g(q) and g(q)
    otherwise. Past exact_limit the ball's remaining nodes join the
    partition by their entry rows, and the ball is packed by a first-fit
    greedy in node-index order, the order packing_number visits its
    sorted body. Either way g(q) and the exact flag end where a
    packing_number call per ball would leave them. Entry rows come in
    blocks sized like the metricity kernels' blocks (about 2**18
    entries, a single K x K matrix at least), so memory stays O(n**2)
    however long q_grid is.
    """
    C = None if C is None else _real("C", C, "(0, inf)")
    if space.n < 1:
        raise ValueError("empty space")
    q_grid = [_real("q", q, "(1, inf)") for q in q_grid]
    if not q_grid:
        raise ValueError("q_grid must not be empty")
    if C is None and len(set(q_grid)) < 2:
        raise ValueError("fitting C needs at least two distinct q")
    exact_limit = _whole("exact_limit", exact_limit, "[0, inf)")
    f = space.f
    S = np.minimum(f, f.T)
    g = {q: 1 for q in q_grid}
    ones = [1.0] * space.n
    all_exact = True
    for x in range(space.n):
        order = np.argsort(f[:, x], kind="stable")
        col = f[order, x]
        # the ball of radius r is order[:k], k the count of decays below r:
        # the start of r's run in the sorted column
        sizes = _run_starts(col)
        radii = col[sizes]
        if not sizes.size or sizes[-1] <= min(g.values()):
            continue
        Sx = S[np.ix_(order, order)]
        K = int(sizes[-1])
        for q, rows in _entry_rows(Sx, sizes, radii, [(q, g[q]) for q in g if K > g[q]]):
            cliques, seen = [], 0
            while (v := _first_fit_cliques(cliques, rows, range(seen, K), g[q])) is not None:
                # the first ball holding v is the first whose partition has
                # more than g(q) cliques
                j = int(np.searchsorted(sizes, v, side="right"))
                seen = int(sizes[j])
                masks = _neighbor_masks(_packing_conflicts(Sx[:seen, :seen], radii[j] / q))
                if seen > exact_limit:
                    all_exact = False
                    _first_fit_cliques(cliques, rows, range(v + 1, seen))
                    packed = _first_fit(masks, np.argsort(order[:seen]).tolist())
                    g[q] = max(g[q], packed.bit_count())
                    continue
                cliques = []
                _first_fit_cliques(cliques, masks, range(seen))
                if len(cliques) > g[q]:
                    g[q] = int(_branch(masks, ones, float(g[q]))[1])
            # as a packing_number call per ball: inexact once a ball past
            # exact_limit holds more than g(q) nodes, even a settled one
            all_exact = all_exact and K <= max(g[q], exact_limit)
    samples = [(q, g[q]) for q in q_grid]
    if C is None:
        lq = np.log([q for q, _ in samples])
        lg = np.log([gq for _, gq in samples])
        slope, intercept = np.polyfit(lq, lg, 1)
        estimate = max(0.0, float(slope))
        C_out = max(1.0, float(math.exp(intercept)))
    else:
        estimate = max(math.log(gq / C) / math.log(q) for q, gq in samples)
        C_out = C
    values = np.sort(f, axis=None)
    return DimensionEstimate(
        assouad=float(estimate),
        C=C_out,
        samples=samples,
        r_grid=tuple(values[_run_starts(values)].tolist()),
        exact=all_exact,
    )


@dataclass
class FadingReport:
    r: float
    gamma: float
    per_node: dict
    witness_set: tuple
    exact: bool


def fading_parameter(space, r, exact_limit=EXACT_LIMIT, quasi=None):
    """Worst normalized interference from r-separated senders.

    For a listening node z, an admissible sender set keeps every
    pairwise decay among senders, and between each sender and z, at
    least r in both directions. gamma_z(r) is r times the largest
    achievable sum of 1/f(y, z) over admissible sets, and the
    parameter is the worst node. Empty admissible sets give 0, which
    happens as soon as r exceeds every decay exchange around z.

    Passing a QuasiMetric as quasi switches the separation tests to
    quasi-distance units while the interference weights stay 1/f; this
    is a sensitivity knob, not the primary definition. Weighted search
    is exact up to exact_limit candidate senders, greedy beyond (a
    lower bound, flagged).

    Tiny decays give weights past the float range. Where the weights of
    a listener sum to 2**1023 or more, they are searched as 2**-k / f,
    with k set by the smallest decay and the number of senders so that
    they sum below 2**1022, and r times the value is scaled back by
    2**k. A power of two scales without rounding, and every other
    listener keeps the weights 1/f and their bits.
    """
    r = _real("r", r, "(0, inf]")
    if space.n < 1:
        raise ValueError("empty space")
    exact_limit = _whole("exact_limit", exact_limit, "[0, inf)")  # also with no candidate
    M = space.f if quasi is None else _quasi_table(space, quasi)
    n = space.n
    sep = np.minimum(M, M.T)
    f = space.f
    per_node = {}
    witnesses = {}
    all_exact = True
    for z in range(n):
        cand = np.flatnonzero(sep[:, z] >= r)
        cand = cand[cand != z].tolist()
        if not cand:
            per_node[z] = 0.0
            witnesses[z] = ()
            continue
        col = f[cand, z]
        k = 0
        with np.errstate(over="ignore"):
            weights = 1.0 / col
            if not weights.sum() < 2.0 ** 1023:
                # every f >= 2**(e - 1), e the frexp exponent of the least: these sum below 2**1022
                k = len(cand).bit_length() - 1021 - math.frexp(col.min())[1]
                weights = 2.0 ** -k / col
        clash = sep[np.ix_(cand, cand)] < r
        members, value, exact = max_weight_independent_set(weights, clash, exact_limit)
        all_exact = all_exact and exact
        per_node[z] = float(r * value * 2.0 ** k)
        witnesses[z] = tuple(cand[i] for i in members)
    gamma = max(per_node.values())
    z_star = min(z for z, v in per_node.items() if v == gamma)
    return FadingReport(
        r=float(r),
        gamma=float(gamma),
        per_node=per_node,
        witness_set=witnesses[z_star],
        exact=all_exact,
    )


def zeta_hat(s, tol=1e-9):
    """Riemann zeta for real finite s > 1, by Euler-Maclaurin.

    Partial sum to M terms plus the tail corrections
    M**(1-s)/(s-1) - M**(-s)/2 + s*M**(-s-1)/12; M doubles until the
    next correction term bounds the error below tol. tol lies in
    [1e-15, inf], where M stays at most 2**11: the sum exceeds 1, where
    floats lie at least 2.2e-16 apart, so a smaller tol would only grow
    M, up to arrays of many GB.
    """
    s, tol = _real("s", s, "(1, inf)"), _real("tol", tol, "[1e-15, inf]")
    M = 32
    while s * (s + 1) * (s + 2) * M ** (-s - 3) / 720.0 > tol / 2.0:
        M *= 2
    k = np.arange(1, M + 1, dtype=float)
    partial = float(np.sum(k ** (-s)))
    tail = M ** (1.0 - s) / (s - 1.0) - 0.5 * M ** (-s) + s * M ** (-s - 1.0) / 12.0
    return partial + tail


def fading_bound(C, A):
    """Ceiling on the fading parameter from packing growth.

    With ball packings bounded by C * q**A for A < 1, every gamma(r)
    stays at most C * 2**(A+1) * (zeta_hat(2 - A) - 1). Raises for
    A >= 1, where the underlying series diverges, and for a non-finite A.
    """
    C, A = _real("C", C, "(0, inf)"), _real("A", A, "(-inf, inf)")
    if A >= 1:
        raise ValueError("bound diverges for growth degree A >= 1")
    return float(C * 2.0 ** (A + 1.0) * (zeta_hat(2.0 - A) - 1.0))


def independence_at(space, quasi, x, exact_limit=EXACT_LIMIT):
    """Largest node set independent with respect to the center x.

    Independence: every two members are mutually farther from each
    other than either is from x, strictly, in quasi-distance. Returns
    (size, members, exact).
    """
    x = _node_index(x, space.n)
    d = _quasi_table(space, quasi)
    cand = [z for z in range(space.n) if z != x]
    mutual = np.minimum(d, d.T)
    to_center = d[cand, x]
    pairmax = np.maximum.outer(to_center, to_center)
    clash = mutual[np.ix_(cand, cand)] <= pairmax
    members, exact = max_independent_set(clash, exact_limit)
    chosen = tuple(cand[i] for i in members)
    return len(chosen), chosen, exact


def independence_dimension(space, quasi, exact_limit=EXACT_LIMIT):
    """Largest center-independence count over all centers.

    Returns (dim, center, members, exact); ties go to the lowest
    center index.
    """
    if space.n < 1:
        raise ValueError("empty space")
    best = (-1, None, (), True)
    all_exact = True
    for x in range(space.n):
        size, members, exact = independence_at(space, quasi, x, exact_limit)
        all_exact = all_exact and exact
        if size > best[0]:
            best = (size, x, members, exact)
    return best[0], best[1], best[2], all_exact


def guard_set(space, quasi, x):
    """Small set of guards for the center x.

    A guard set G covers every other node z: some y in G has
    d(z, y) <= d(z, x). Greedy max-coverage (ties to the lowest node
    index) followed by a redundancy-pruning pass; the result is valid
    but not guaranteed minimum. Every node covers itself whenever the
    quasi-metric has a zero diagonal, so the greedy pass terminates on
    node-space inputs.
    """
    x = _node_index(x, space.n)
    d = _quasi_table(space, quasi)
    others = [z for z in range(space.n) if z != x]
    if not others:
        return ()
    oth = np.array(others)
    # covers[i, j]: guard others[j] protects node others[i]
    covers = d[np.ix_(others, others)] <= d[oth, x][:, None]
    uncovered = np.ones(len(others), dtype=bool)
    guards = []
    while uncovered.any():
        gain = covers[uncovered].sum(axis=0)
        j = int(np.argmax(gain))
        if gain[j] == 0:
            raise ValueError("node %d cannot be guarded" % int(oth[uncovered][0]))
        guards.append(j)
        uncovered &= ~covers[:, j]
    kept = list(guards)
    for j in sorted(kept):
        rest = [k for k in kept if k != j]
        if rest and covers[:, rest].any(axis=1).all():
            kept = rest
    return tuple(sorted(int(oth[j]) for j in kept))


def two_half_ball_cover(space, y, t):
    """Whether the t-ball around y fits in two balls of radius t/2.

    Candidate centers range over all nodes. Returns (ok, centers)
    with a lexicographically least pair when a cover exists.
    """
    members = ball(space, y, t)
    if not members:
        return True, None
    half = space.f[np.ix_(members, range(space.n))] < t / 2.0
    for c1 in range(space.n):
        rest = ~half[:, c1]
        if not rest.any():
            return True, (c1, c1)
        second = np.where(half[rest].all(axis=0))[0]
        if second.size:
            return True, (c1, int(second[0]))
    return False, None
