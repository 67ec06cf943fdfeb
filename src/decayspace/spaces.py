"""Decay spaces and their metricity parameters.

A decay space is a finite node set with a matrix f of non-negative
pairwise decays, where f[p][q] is the multiplicative signal loss from
p to q. Decays generalize powered distances: planar points under
geometric path loss have f = d2**alpha. The matrix need not be
symmetric and need not satisfy the triangle inequality.

Two scalars measure how far the matrix is from a metric:

* zeta, the smallest exponent such that the rescaled values
  f**(1/zeta) satisfy the triangle inequality on every ordered node
  triple. Under geometric path loss zeta recovers the exponent alpha.
* phi_mult, the smallest multiplier with
  f(x,z) <= phi_mult * (f(x,y) + f(y,z)) on every ordered triple,
  reported with its base-2 logarithm phi.

The rescaled matrix d = f**(1/zeta) is a quasi-metric, so geometric
packing and separation arguments transfer to arbitrary decay matrices
at a zeta-dependent cost. quasi_distances builds it and checks the
triangle inequality exhaustively.
"""

import numpy as np
from dataclasses import dataclass

NODE_SPACE = "node-space"
LINK_GAIN = "link-gain"

_MODES = (NODE_SPACE, LINK_GAIN)


class DecaySpace:
    """Finite node set with a pairwise decay matrix.

    mode "node-space" is the geometric reading: the diagonal must be
    zero and distinct nodes must have positive decay. mode "link-gain"
    treats the matrix as a cross-link decay table whose diagonal holds
    own-link decays (positive); off-diagonal entries are unconstrained,
    zeros included.
    """

    def __init__(self, f, mode=NODE_SPACE, labels=None):
        f = np.array(f, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError("decay matrix must be square, got shape %s" % (f.shape,))
        if mode not in _MODES:
            raise ValueError("unknown mode %r" % (mode,))
        if labels is not None:
            labels = [str(s) for s in labels]
            if len(labels) != f.shape[0]:
                raise ValueError("expected %d labels, got %d" % (f.shape[0], len(labels)))
        self.f = f
        self.mode = mode
        self.labels = labels

    @property
    def n(self):
        return self.f.shape[0]

    def is_symmetric(self, rtol=1e-12):
        return bool(np.allclose(self.f, self.f.T, rtol=rtol, atol=0.0))

    def off_diagonal(self):
        """All off-diagonal decay values as a flat array."""
        mask = ~np.eye(self.n, dtype=bool)
        return self.f[mask]

    def __repr__(self):
        return "DecaySpace(n=%d, mode=%r)" % (self.n, self.mode)


@dataclass
class ValidationResult:
    ok: bool
    violations: list


def validate_space(space):
    """Check the decay axioms, collecting every violation.

    Violations are (code, i, j) tuples. Codes: "non-finite" for a NaN
    or infinite entry, "non-negativity" for a negative entry,
    "indiscernibles" for a zero off-diagonal entry in node-space mode,
    "diagonal" for a nonzero diagonal entry in node-space mode or a
    non-positive one in link-gain mode.
    """
    f = space.f
    n = space.n
    violations = []
    for i, j in np.argwhere(~np.isfinite(f)):
        violations.append(("non-finite", int(i), int(j)))
    for i, j in np.argwhere(f < 0):
        violations.append(("non-negativity", int(i), int(j)))
    off = ~np.eye(n, dtype=bool)
    if space.mode == NODE_SPACE:
        for i, j in np.argwhere((f == 0) & off):
            violations.append(("indiscernibles", int(i), int(j)))
        for i in np.where(np.diag(f) != 0)[0]:
            violations.append(("diagonal", int(i), int(i)))
    else:
        for i in np.where(np.diag(f) <= 0)[0]:
            violations.append(("diagonal", int(i), int(i)))
    return ValidationResult(not violations, violations)


def _require_valid(space):
    res = validate_space(space)
    if not res.ok:
        raise ValueError("invalid decay space, first violations: %s" % (res.violations[:3],))


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
    den = f[xs, ms] + f[ms, zs]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    # 0/0 only arises in link-gain mode; such a triple constrains nothing
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    best = float(ratio.max())
    at = ratio == best
    witness = _least_triple(xs[at], ms[at], zs[at], space.n)
    phi = float(np.log2(best)) if best > 0 else float("-inf")
    return best, phi, witness


def zeta_upper_bound(space):
    """lg of the spread between extreme off-diagonal decays.

    The metricity exponent never exceeds this value. Returns inf when
    some off-diagonal decay is zero (link-gain mode).
    """
    if space.n < 2:
        raise ValueError("need at least one off-diagonal entry")
    vals = space.off_diagonal()
    top = float(vals.max())
    bot = float(vals.min())
    if bot == 0:
        return float("inf")
    return float(np.log2(top / bot))


@dataclass
class QuasiMetric:
    n: int
    d: np.ndarray
    zeta: float


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


def quasi_distances(space, zeta, tol=1e-7, check=True):
    """Quasi-distance matrix d = f**(1/zeta).

    With zeta at least the metricity exponent of the space this is a
    quasi-metric; the exhaustive triangle check runs by default and
    raises on the least violating triple. check=False skips it, the
    escape hatch for link-gain matrices whose cross-decay table is not
    expected to be triangle-consistent.
    """
    if zeta <= 0 or not np.isfinite(zeta):
        raise ValueError("zeta must be positive and finite")
    d = space.f ** (1.0 / zeta)
    qm = QuasiMetric(space.n, d, float(zeta))
    if check:
        bad = triangle_violation(qm, tol)
        if bad is not None:
            x, z, y = bad
            raise ValueError(
                "zeta=%g is below the metricity of the space: "
                "d(%d,%d) > d(%d,%d) + d(%d,%d)" % (zeta, x, y, x, z, z, y)
            )
    return qm


@dataclass
class MetricityReport:
    zeta: float
    zeta_raw: float
    phi_mult: float
    phi: float
    zeta0: float
    witness_zeta: object
    witness_phi: object


def analyze_metricity(space, tol=1e-9):
    """Bundle zeta, phi and the spread bound into one report."""
    zeta_raw, zeta, wz = compute_zeta(space, tol=tol)
    phi_mult, phi, wp = compute_phi(space)
    zeta0 = zeta_upper_bound(space)
    return MetricityReport(
        zeta=zeta,
        zeta_raw=zeta_raw,
        phi_mult=phi_mult,
        phi=phi,
        zeta0=zeta0,
        witness_zeta=wz,
        witness_phi=wp,
    )
