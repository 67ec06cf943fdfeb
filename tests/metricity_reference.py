"""Slow reference for the metricity kernels in decayspace.spaces.

These are the meshgrid implementations of compute_zeta and compute_phi
that the blocked kernels replaced, kept verbatim: they build every
ordered triple as O(n**3) index arrays and bisect over all constrained
triples at every probe. triangle_violation is the full per-row
min-plus check that scans every ordered pair, symmetric matrix or not.
The differential tests compare the kernels against them for exact
equality of the returned tuples.
"""

import numpy as np

from decayspace.spaces import _require_valid


def _triple_arrays(n):
    # ordered triples (x, z, y) of pairwise distinct indices; z plays
    # the middle role in both parameter definitions
    idx = np.arange(n)
    X, Z, Y = np.meshgrid(idx, idx, idx, indexing="ij")
    keep = (X != Y) & (X != Z) & (Z != Y)
    return X[keep], Z[keep], Y[keep]


def _least_triple(xs, zs, ys, n):
    key = (xs.astype(np.int64) * n + zs) * n + ys
    i = int(np.argmin(key))
    return (int(xs[i]), int(zs[i]), int(ys[i]))


def compute_zeta(space, tol=1e-9):
    """Smallest exponent zeta making f**(1/zeta) triangle-consistent.

    Returns (zeta_raw, zeta, witness) with zeta = max(1, zeta_raw).
    The witness is the lexicographically least binding triple
    (x, z, y): the constraint f(x,y)**t <= f(x,z)**t + f(z,y)**t is
    the one that turns tight at t = 1/zeta_raw. Spaces with fewer than
    three nodes, or where no triple has f(x,y) exceeding both legs,
    are unconstrained and report zeta_raw = 1 with witness None.

    Only triples with f(x,y) > max of the legs constrain the exponent,
    and each such constraint holds exactly on a half-line of zetas, so
    zeta_raw is the largest per-triple critical value. The search
    bisects on t = 1/zeta to absolute tolerance tol and returns the
    feasible endpoint, so the triangle check on the resulting
    quasi-distances passes. The error on zeta itself is about
    zeta**2 * tol. A constrained triple with a zero leg can never be
    satisfied; the result is then inf with that triple as witness.
    """
    _require_valid(space)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if space.n < 2:
        raise ValueError("need at least 2 nodes")
    if space.n < 3:
        return 1.0, 1.0, None
    f = space.f
    xs, zs, ys = _triple_arrays(space.n)
    c = f[xs, ys]
    a = f[xs, zs]
    b = f[zs, ys]
    constrained = c > np.maximum(a, b)
    if not constrained.any():
        return 1.0, 1.0, None
    xs, zs, ys = xs[constrained], zs[constrained], ys[constrained]
    a, b, c = a[constrained], b[constrained], c[constrained]
    hopeless = np.minimum(a, b) == 0
    if hopeless.any():
        w = _least_triple(xs[hopeless], zs[hopeless], ys[hopeless], space.n)
        return float("inf"), float("inf"), w
    la, lb, lc = np.log(a), np.log(b), np.log(c)

    def satisfied(t):
        # logaddexp keeps the test overflow-safe for extreme exponents
        return bool(np.all(np.logaddexp(t * la, t * lb) >= t * lc))

    lo = 1.0
    while not satisfied(lo):
        lo /= 2.0
    hi = lo * 2.0
    while satisfied(hi):
        lo = hi
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            lo = mid
        else:
            hi = mid
    failing = np.logaddexp(hi * la, hi * lb) < hi * lc
    witness = _least_triple(xs[failing], zs[failing], ys[failing], space.n)
    zeta_raw = 1.0 / lo
    return float(zeta_raw), float(max(1.0, zeta_raw)), witness


def compute_phi(space):
    """Multiplicative triangle relaxation.

    Returns (phi_mult, phi, witness) where phi_mult is the largest
    value of f(x,z) / (f(x,y) + f(y,z)) over ordered distinct triples,
    phi = lg(phi_mult), and witness is the lexicographically least
    maximizing triple written (x, y, z) with y in the middle. Spaces
    with fewer than three nodes have no triples and report
    phi_mult = 0, phi = -inf, witness None.
    """
    _require_valid(space)
    if space.n < 3:
        return 0.0, float("-inf"), None
    f = space.f
    xs, ms, zs = _triple_arrays(space.n)
    num = f[xs, zs]
    # a sum or ratio beyond the float range is inf, as in the kernel
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = f[xs, ms] + f[ms, zs]
        ratio = num / den
    # 0/0 only arises in link-gain mode; such a triple constrains nothing
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    best = float(ratio.max())
    at = ratio == best
    witness = _least_triple(xs[at], ms[at], zs[at], space.n)
    phi = float(np.log2(best)) if best > 0 else float("-inf")
    return best, phi, witness


def triangle_violation(quasi, tol=1e-7):
    """Lexicographically least violating triple (x, z, y), or None.

    A violation means d(x,y) > d(x,z) + d(z,y) beyond relative slack
    tol. Diagonal targets are skipped; for off-diagonal targets the
    intermediates z = x and z = y reproduce d(x,y) itself whenever the
    diagonal is zero, so they never report spurious violations.
    """
    d = quasi.d
    n = quasi.n
    best = np.empty_like(d)
    for x in range(n):
        best[x] = (d[x][:, None] + d).min(axis=0)
    slack = tol * np.maximum(1.0, d)
    viol = d > best + slack
    np.fill_diagonal(viol, False)
    if not viol.any():
        return None
    xs, ys = np.nonzero(viol)
    key = xs * n + ys
    i = int(np.argmin(key))
    x, y = int(xs[i]), int(ys[i])
    z = int(np.argmin(d[x] + d[:, y]))
    return (x, z, y)
