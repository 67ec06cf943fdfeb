"""Slow references for capacity_oracle and separation_strengthen in
decayspace.capacity.

capacity_oracle is the exhaustive subset scan that the branch-and-bound
run on search._branch replaced, kept verbatim: subsets in decreasing
size, lexicographic within a size, so the first feasible subset found
is the lexicographically least maximizer. The differential tests
compare the fast oracle against it for exact equality of size and
members.

separation_strengthen is the colouring that the array form over
links._separated replaced, kept verbatim: a clash matrix from eta times
the longer length of each pair, a rank dict, a forward-degree loop and
a dict-based first-fit colouring. On symmetric link distances its
clashes are exactly the pairs not separated both ways, so the
differential test requires equal classes and bound.

first_fit_colour_classes is the array-form colouring loop that
search._first_fit_cliques on the non-clash masks replaced inside
separation_strengthen, kept verbatim after the same clash matrix and
longest-first order; the differential test requires equal classes.
"""

import itertools

import numpy as np

from decayspace.capacity import Partition
from decayspace.links import (
    _link_distance_block,
    _link_set,
    _separated,
    _separation_violation,
    affectance_matrix,
    check_separation_set,
)


def capacity_oracle(sys, max_n=20):
    """Exhaustive maximum feasible subset, for small systems.

    Enumerates subsets in decreasing size, lexicographic within a
    size, so the first feasible subset found is the lexicographically
    least maximizer. Subsets containing a pair whose one-on-one
    uncapped affectance already exceeds 1 are pruned. Worst case is
    2**n subset checks; max_n caps n. Returns (size, members).
    """
    n = sys.n_links
    if n > max_n:
        raise ValueError(
            "%d links exceed max_n=%d; sample the system down or raise the cap"
            % (n, max_n)
        )
    # a link clears the noise floor alone when 1 - beta*N*f_vv/P_v > 0
    own = np.diag(sys.cross_decays())
    margin = 1.0 - sys.params.beta * sys.params.noise * own / sys.powers()
    candidates = [v for v in range(n) if margin[v] > 0]
    if not candidates:
        return 0, ()
    raw = affectance_matrix(sys, capped=False)
    pairbad = raw > 1.0
    pairbad = pairbad | pairbad.T
    np.fill_diagonal(pairbad, False)
    for k in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, k):
            ix = np.ix_(combo, combo)
            if pairbad[ix].any():
                continue
            if np.all(raw[ix].sum(axis=0) <= 1.0):
                return k, tuple(combo)
    return 0, ()


def separation_strengthen(sys, quasi, S, tau, eta):
    """Split a tau-separated set into eta-separated classes.

    Two links clash when their link distance is below eta times the
    longer one's length, so a clash-free class is mutually
    eta-separated. Ranking links from longest to shortest, the class
    count never exceeds one plus the largest number of shorter
    clashing links any member has (its forward degree); that bound is
    met by first-fit coloring from the shortest link upward, since
    each link only competes with the shorter clashers already colored.
    Classes are re-verified before returning.
    """
    S = _link_set(sys, S)
    if not S:
        raise ValueError("cannot partition an empty set")
    if not (tau > 0):
        raise ValueError("tau must be positive")
    if not (eta >= tau):
        raise ValueError("eta must be at least tau")
    bad = _separation_violation(sys, quasi, S, tau)
    if bad is not None:
        raise ValueError(
            "input set is not %g-separated (links %d and %d)" % (tau, bad[0], bad[1])
        )
    certificate = {"kind": "separation", "level": float(eta)}
    if len(S) == 1:
        return Partition(classes=(tuple(S),), certificate=certificate, bound=1)
    lengths = sys.link_lengths(quasi)
    k = len(S)
    sub_ld = _link_distance_block(sys, quasi, S, S)
    pair_len = np.maximum.outer(lengths[S], lengths[S])
    clash = sub_ld < eta * pair_len
    np.fill_diagonal(clash, False)
    longest_first = sorted(range(k), key=lambda i: (-lengths[S[i]], S[i]))
    rank = {i: pos for pos, i in enumerate(longest_first)}
    fwd = [
        sum(1 for j in range(k) if clash[i, j] and rank[j] > rank[i])
        for i in range(k)
    ]
    bound = max(fwd) + 1
    color = {}
    for i in reversed(longest_first):
        used = {color[j] for j in range(k) if clash[i, j] and j in color}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    n_colors = max(color.values()) + 1
    classes = []
    for c in range(n_colors):
        cls = tuple(sorted(S[i] for i in range(k) if color[i] == c))
        if cls:
            classes.append(cls)
    if len(classes) > bound:
        raise RuntimeError("coloring exceeded its degeneracy bound, please report")
    for cls in classes:
        if not check_separation_set(sys, quasi, cls, eta):
            raise RuntimeError("a color class failed its separation level, please report")
    return Partition(classes=tuple(classes), certificate=certificate, bound=bound)


def first_fit_colour_classes(sys, quasi, S, eta):
    """Classes of the first-fit colouring loop, on separation_strengthen's clash matrix."""
    S = _link_set(sys, S)
    k = len(S)
    sep = _separated(sys, quasi, S, S, eta)
    clash = ~(sep & sep.T)
    np.fill_diagonal(clash, False)
    longest_first = np.argsort(-sys.link_lengths(quasi)[S], kind="stable")
    color = np.full(k, -1)
    for i in longest_first[::-1]:
        used = set(color[clash[i]].tolist())
        c = 0
        while c in used:
            c += 1
        color[i] = c
    # first-fit uses every color up to the largest, and S is sorted
    classes = [tuple(S[i] for i in np.flatnonzero(color == c)) for c in range(color.max() + 1)]
    return tuple(classes)
