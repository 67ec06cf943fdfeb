"""Slow reference for capacity_oracle in decayspace.capacity.

This is the exhaustive subset scan that the branch-and-bound run on
search._branch replaced, kept verbatim: subsets in decreasing size,
lexicographic within a size, so the first feasible subset found is the
lexicographically least maximizer. The differential tests compare the
fast oracle against it for exact equality of size and members.
"""

import itertools

import numpy as np

from decayspace.links import _noise_margin, affectance_matrix


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
    margin = _noise_margin(sys)
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
