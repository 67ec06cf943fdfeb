"""Slow reference for assouad_estimate in decayspace.analysis.

This is the per-call implementation that the prefix-body engine
replaced, kept verbatim: for every center and every distinct incoming
decay it rebuilds the ball body from the column and calls the public
packing_number once per grid scale that the body could still raise.
The differential tests compare the fast estimate against it for exact
equality of samples, exact flag, fit and radius grid.
"""

import math

import numpy as np

from decayspace.analysis import DimensionEstimate, packing_number


def assouad_estimate(space, C=1.0, q_grid=(1.5, 2.0, 3.0, 4.0, 8.0, 16.0), exact_limit=24):
    """Packing-growth exponent of decay balls.

    g(q) is the largest packing count of any ball at scale radius/q:
    for each center x the radius sweep visits the distinct incoming
    decay values r of that column, and the ball {y : f(y,x) < r} is
    packed at scale r/q (members pairwise above 2r/q in the weaker
    decay direction).

    With a numeric C the estimate is the largest log_q(g(q)/C) over
    the grid. With C=None the model g(q) = C * q^A is fitted by least
    squares on the log-log grid samples and the fitted pair is
    returned; the fit discounts the scale-free multiplicity that a
    fixed C cannot absorb, so it is the variant to use when the
    estimate feeds capacity or interference bounds. Greedy packings
    past exact_limit make counts lower bounds; exact reports whether
    every packing was exact.
    """
    if C is not None and not (C > 0):
        raise ValueError("C must be positive")
    if space.n < 1:
        raise ValueError("empty space")
    for q in q_grid:
        if not (q > 1):
            raise ValueError("every q must exceed 1")
    f = space.f
    n = space.n
    g = {float(q): 1 for q in q_grid}
    all_exact = True
    radii = set()
    for x in range(n):
        col = f[:, x]
        for d in np.unique(col):
            d = float(d)
            if d <= 0:
                continue
            radii.add(d)
            body = [int(i) for i in np.nonzero(col < d)[0]]
            if not body:
                continue
            for q in q_grid:
                q = float(q)
                if len(body) <= g[q]:
                    continue
                count, exact, _ = packing_number(space, body, d / q, exact_limit)
                all_exact = all_exact and exact
                if count > g[q]:
                    g[q] = count
    samples = [(float(q), int(g[float(q)])) for q in q_grid]
    if C is None:
        lq = np.log([q for q, _ in samples])
        lg = np.log([gq for _, gq in samples])
        if len(samples) >= 2 and np.ptp(lq) > 0:
            slope, intercept = np.polyfit(lq, lg, 1)
        else:
            slope, intercept = 0.0, float(lg.max(initial=0.0))
        estimate = max(0.0, float(slope))
        C_out = max(1.0, float(math.exp(intercept)))
    else:
        estimate = max(math.log(gq / C) / math.log(q) for q, gq in samples)
        C_out = float(C)
    return DimensionEstimate(
        assouad=float(estimate),
        C=C_out,
        samples=samples,
        r_grid=tuple(sorted(radii)),
        exact=all_exact,
    )
