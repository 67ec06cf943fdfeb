"""Decay spaces and their metricity parameters.

A decay space is a finite node set with a matrix f of non-negative
pairwise decays, where f[p][q] is the multiplicative signal loss from
p to q. Decays generalize powered distances: planar points under
geometric path loss have f = d2**alpha. The matrix need not be
symmetric and need not satisfy the triangle inequality.

The decay axioms (finite, non-negative entries, a diagonal fixed by
the mode) are an invariant of the type, checked in one place:
validate_space collects every violation of a raw matrix, and
DecaySpace refuses a matrix with any. A DecaySpace keeps a read-only
copy with every -0.0 turned into +0.0, so no function that takes a
space checks the axioms again. The invariant covers quasi-metrics too:
a QuasiMetric is the DecaySpace of the rescaled matrix.

Two scalars measure how far the matrix is from a metric:

* zeta, the smallest exponent such that the rescaled values
  f**(1/zeta) satisfy the triangle inequality on every ordered node
  triple. Under geometric path loss zeta recovers the exponent alpha.
* phi_mult, the smallest multiplier with
  f(x,z) <= phi_mult * (f(x,y) + f(y,z)) on every ordered triple,
  reported with its base-2 logarithm phi.

The rescaled matrix d = f**(1/zeta) is a quasi-metric, so geometric
packing and separation arguments transfer to arbitrary decay matrices
at a zeta-dependent cost. QuasiMetric(space, zeta) holds it as a decay
space of the same mode, and quasi_distances builds it and checks the
triangle inequality exhaustively.

Both parameters and the triangle check range over all n**3 ordered
triples, but their kernels never hold more than O(n**2) memory. phi
and the triangle check share one min-plus kernel (_min_plus),
best[x, z] = min over y of a[x, y] + a[y, z], which adds a row of the
matrix to a block of about 128 rows of its transpose in one reused,
cache-resident buffer. The triangle check compares d with the min-plus
square of d. phi divides f by the min-plus square of f with an inf
diagonal: a quotient falls as its denominator grows, so the least sum
of a pair gives its largest ratio, to the bit.

compute_zeta passes over blocks of x-rows, each a broadcast (B, n, n)
slice with B * n * n about 2**18 entries. It makes one pass that
bounds the least critical exponent and collects the few candidate
triples that can bind near it, then bisects on those alone; every
other triple provably passes at every exponent the bisection probes.
Its blocks open with one row and double up to that size, so the bound
is set from row 0 before a full-size block is scanned. Once the bound
is set, a block hands on only the triples that fail, or nearly fail,
the triangle test in powers of f just above the bound (one add and one
compare a triple), and only these are gathered in log space; where the
powers would leave the range of exp, the blocks filter by a log-space
bound on the critical exponent instead.

When f equals its transpose exactly (_symmetric), the three kernels
scan only the outer pairs whose first index is the smaller: (x, y) of
the triangle check and of zeta, (x, z) of phi. A triple and its mirror
((x, z, y) and (y, z, x)) then read the same numbers with the legs
swapped, and float + and np.logaddexp are commutative to the bit, so
the mirror passes, fails or ties exactly as the triple does. Of the two
the lexicographically least has the smaller outer index first, so the
half scan returns the same values and the same least witnesses, and
does about half the work.
"""

import numpy as np
from dataclasses import dataclass

NODE_SPACE = "node-space"
LINK_GAIN = "link-gain"

_MODES = (NODE_SPACE, LINK_GAIN)

# the default absolute tolerance of the zeta search, on t = 1/zeta
ZETA_TOL = 1e-9
# the default relative slack of the triangle check
TRIANGLE_SLACK = 1e-7


class DecaySpace:
    """Finite node set with a pairwise decay matrix.

    mode "node-space" is the geometric reading: the diagonal must be
    zero and distinct nodes must have positive decay. mode "link-gain"
    treats the matrix as a cross-link decay table whose diagonal holds
    own-link decays (positive); off-diagonal entries are unconstrained,
    zeros included. f is copied, and a matrix that breaks the axioms
    of its mode is refused (see validate_space).
    """

    def __init__(self, f, mode=NODE_SPACE, labels=None):
        f = np.array(f, dtype=float)
        f += 0.0  # -0.0 + 0.0 is +0.0
        violations = validate_space(f, mode).violations
        if violations:
            shown = ", ".join("%s at (%d, %d)" % v for v in violations[:10])
            more = " and %d more" % (len(violations) - 10) if len(violations) > 10 else ""
            raise ValueError("decay matrix violates the decay axioms: %s%s" % (shown, more))
        f.flags.writeable = False
        if labels is not None:
            if not (isinstance(labels, (list, tuple))
                    or isinstance(labels, np.ndarray) and labels.ndim == 1):
                raise ValueError("'labels' must be a list, tuple or 1-d array, got %r" % (labels,))
            labels = [str(s) for s in labels]
            if len(labels) != f.shape[0]:
                raise ValueError("expected %d labels, got %d" % (f.shape[0], len(labels)))
        self.f = f
        self.mode = mode
        self.labels = labels

    @property
    def n(self):
        return self.f.shape[0]

    def off_diagonal(self):
        """All off-diagonal decay values as a flat array."""
        mask = ~np.eye(self.n, dtype=bool)
        return self.f[mask]

    def __repr__(self):
        return "%s(n=%d, mode=%r)" % (type(self).__name__, self.n, self.mode)


# (lo, hi, lo closed, hi closed) of each interval text, parsed on first use;
# the texts are the literals at the call sites, so the cache stays small
_INTERVALS = {}


def _within(name, value, interval):
    """value, when it lies in the interval written like "(0, 1]" or "[1, inf)"; NaN never does."""
    try:
        lo, hi, lo_in, hi_in = _INTERVALS[interval]
    except KeyError:
        lo, hi = interval[1:-1].split(",")
        lo, hi, lo_in, hi_in = _INTERVALS.setdefault(
            interval, (float(lo), float(hi), interval[0] == "[", interval[-1] == "]"))
    if (lo < value or lo_in and lo == value) and (value < hi or hi_in and value == hi):
        return value
    raise _outside(name, interval, value)


def _outside(name, interval, value):
    return ValueError("%r must lie in %s, got %r" % (name, interval, value))


def _whole(name, value, interval=None):
    """A count or index as an int: a Python or numpy int, or a float with no fraction, no bool."""
    if type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                              or isinstance(value, (float, np.floating)) and value.is_integer()):
        return int(value) if interval is None else _within(name, int(value), interval)
    raise ValueError("%r must be a whole number, got %r (type %r)"
                     % (name, value, type(value).__name__))


def _real(name, value, interval):
    """A real as a float: a Python or numpy int or float, no bool, in the interval."""
    if type(value) is float or (isinstance(value, (int, float, np.integer, np.floating))
                                and not isinstance(value, bool)):
        return _within(name, float(value), interval)
    raise ValueError("%r must be a number, got %r (type %r)"
                     % (name, value, type(value).__name__))


def _indices(name, values, n):
    """values as a sorted list of distinct indices, each a whole number in 0..n-1."""
    out = sorted([_whole(name, v) for v in values])
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError("duplicate %s %d" % (name, a))
    if out and not (0 <= out[0] and out[-1] < n):
        raise _outside(name, "[0, %d)" % n, out[0] if out[0] < 0 else out[-1])
    return out


def _pairs(name, pairs, n):
    """pairs as (i, j) tuples in order; each a list, tuple or 1-d array of two distinct nodes."""
    out = []
    for k, p in enumerate(pairs):
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                or isinstance(p, np.ndarray) and p.shape == (2,)):
            raise ValueError("%s %d is not a pair of nodes, got %r" % (name, k, p))
        i, j = _node_index(p[0], n), _node_index(p[1], n)
        if i == j:
            raise ValueError("%s %d joins node %d to itself" % (name, k, i))
        out.append((i, j))
    return out


def _node_index(y, n):
    """y as a node index, by _whole, rejecting any outside 0..n-1."""
    y = _whole("node", y)
    if 0 <= y < n:
        return y
    raise _outside("node", "[0, %d)" % n, y)


@dataclass
class ValidationResult:
    ok: bool
    violations: list


def validate_space(f, mode=NODE_SPACE):
    """Check a raw decay matrix against the axioms of mode, collecting every violation.

    Raises ValueError on a matrix that is not square or a mode that is
    not known. Violations are (code, i, j) tuples. Codes: "non-finite"
    for a NaN or infinite entry, "non-negativity" for a negative entry,
    "indiscernibles" for a zero off-diagonal entry in node-space mode,
    "diagonal" for a nonzero diagonal entry in node-space mode or a
    non-positive one in link-gain mode.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("decay matrix must be square, got shape %s" % (f.shape,))
    if mode not in _MODES:
        raise ValueError("unknown mode %r" % (mode,))
    diag = np.diag(f)
    masks = [("non-finite", ~np.isfinite(f)), ("non-negativity", f < 0)]
    if mode == NODE_SPACE:
        off = ~np.eye(len(f), dtype=bool)
        masks += [("indiscernibles", (f == 0) & off), ("diagonal", np.diag(diag != 0))]
    else:
        masks.append(("diagonal", np.diag(diag <= 0)))
    violations = [(code, int(i), int(j)) for code, mask in masks if mask.any()
                  for i, j in np.argwhere(mask)]
    return ValidationResult(not violations, violations)


# triple entries per (B, n, n) block of x-rows: a few MB per array
_BLOCK = 1 << 18
# relative slack between the least critical exponent and the candidate cut
_MARGIN = 1e-6
# largest |t * log f| for which zeta's filter takes powers of f: exp stays
# normal, far from overflow and underflow
_EXP_LIMIT = 300.0
_EPS = float(np.finfo(float).eps)
_LN2 = float(np.log(2.0))


def _symmetric(f):
    """True when f equals its transpose exactly.

    A mirrored triple then reads the same numbers, so it computes the
    same sums, logaddexps and ratios to the bit. Equality does not see
    the sign of a zero, and that is enough: phi is the only kernel that
    divides, where -0.0 would flip the sign of a quotient by zero, and
    every kernel reads the matrix of a DecaySpace, which holds no -0.0.
    The test is exact, so a near-symmetric matrix takes the general path
    and keeps its witnesses.
    """
    return bool(np.array_equal(f, f.T))


def _row_blocks(rows, per_row):
    """Ranges of rows whose blocks hold about _BLOCK entries, per_row entries a row."""
    step = max(1, _BLOCK // per_row)
    return [(x0, min(rows, x0 + step)) for x0 in range(0, rows, step)]


def _doubling_blocks(rows, per_row):
    """Ranges of rows that open with one row and double up to _row_blocks' step."""
    step = max(1, _BLOCK // per_row)
    out, x0, size = [], 0, 1
    while x0 < rows:
        out.append((x0, min(rows, x0 + size)))
        x0 += size
        size = min(2 * size, step)
    return out


def _targets(n, sym):
    """(n, n) mask of the target pairs: all off the diagonal, or above it when sym."""
    i = np.arange(n)
    return i[:, None] < i if sym else i[:, None] != i


def _target_blocks(n, sym, rows):
    """(x0, x1, c0, mask) for each range x0:x1 of x-rows in rows.

    The target pairs (x, y) of a block lie in the columns c0: of its
    rows, as the (B, n - c0) mask: every y != x in general (c0 = 0),
    and only y > x on a symmetric matrix, where c0 = x0 + 1 skips the
    columns no row of the block needs. A block with no target column is
    left out.
    """
    targets = _targets(n, sym)
    for x0, x1 in rows:
        c0 = x0 + 1 if sym else 0
        if c0 < n:
            yield x0, x1, c0, targets[x0:x1, c0:]


def _triple(i, n):
    """Triple at C-order flat index i of the (n, n, n) triple cube."""
    x, rest = divmod(int(i), n * n)
    return (x,) + divmod(rest, n)


# rows of a.T per step of _min_plus: the (128, n) sum buffer stays in cache
_MIN_PLUS_ROWS = 128


def _min_plus(a, sym):
    """best[x, z] = min over y of a[x, y] + a[y, z], the min-plus square of a.

    On a symmetric a only the pairs with z > x are filled; the others
    stay inf. Each step adds row x of a to a block of about 128 rows of
    a.T in one reused buffer and takes the minimum along the buffer's
    contiguous rows; memory stays O(n**2). Float + is commutative, so
    each sum a[y, z] + a[x, y] is the float a[x, y] + a[y, z].
    """
    n = len(a)
    best = np.full((n, n), np.inf)
    at = np.ascontiguousarray(a.T)
    buf = np.empty((min(n, _MIN_PLUS_ROWS), n))
    for z0 in range(0, n, _MIN_PLUS_ROWS):
        z1 = min(n, z0 + _MIN_PLUS_ROWS)
        for x in range(z1 - 1 if sym else n):
            c = max(z0, x + 1) if sym else z0
            out = buf[c - z0:z1 - z0]
            np.add(at[c:z1], a[x], out=out)
            np.min(out, axis=1, out=best[x, c:z1])
    return best


def _gap(la, lb, lc, t):
    # the triangle test at exponent t, as a margin: >= 0 when it holds
    return np.logaddexp(t * la, t * lb) - t * lc


def _cuts(T, tol, scale):
    """Exponents tk > tf just above the bound T, and the test's rounding error up to tk."""
    tk = (T + 2 * tol) * (1 + 2 * _MARGIN)
    return tk, (T + tol) * (1 + _MARGIN), 8 * _EPS * (tk * scale + 1)


def _near(part, tk, err):
    """The triples of part that fail, or come within err of failing, the test at tk.

    exp(t (la - lc)) + exp(t (lb - lc)) is (f(x,z)**t + f(z,y)**t) / f(x,y)**t,
    a cheap closed form of the test whose own rounding error is far below err.
    """
    la, lb, lc, _ = part
    keep = np.exp(tk * (la - lc)) + np.exp(tk * (lb - lc)) < 1 + 8 * err
    return [v[keep] for v in part]


def _least_critical(la, lb, lc, T, tol):
    """Lower the bound T towards the least critical exponent of these triples.

    One bisection on the least root, over the triples that fail the
    triangle test at T; a failing midpoint drops every triple that
    passes there. Returns T, or a failing point within tol of the
    least root.
    """
    fail = _gap(la, lb, lc, T) < 0
    if not fail.any():
        return T
    la, lb, lc = la[fail], lb[fail], lc[fail]
    a = float((2 * _LN2 / (2 * lc - la - lb)).min())
    while T - a > tol:
        mid = 0.5 * (a + T)
        if not a < mid < T:
            break
        fail = _gap(la, lb, lc, mid) < 0
        if fail.any():
            T = mid
            la, lb, lc = la[fail], lb[fail], lc[fail]
        else:
            a = mid
    return T


# log 0 = -inf on a zero diagonal; the nan it makes in block
# arithmetic lies outside every triple mask
@np.errstate(divide="ignore", invalid="ignore")
def compute_zeta(space, tol=ZETA_TOL):
    """Smallest exponent zeta making f**(1/zeta) triangle-consistent.

    Returns (zeta_raw, zeta, witness) with zeta = max(1, zeta_raw).
    The witness is the lexicographically least binding triple
    (x, z, y): the constraint f(x,y)**t <= f(x,z)**t + f(z,y)**t is
    the one that turns tight at t = 1/zeta_raw. Spaces with fewer than
    three nodes, or where no triple has f(x,y) exceeding both legs,
    are unconstrained and report zeta_raw = 1 with witness None.

    Only triples with log f(x,y) above the log of both legs constrain
    the exponent (a tie in log space holds at every t), and each such
    constraint holds exactly on a half-line of zetas, so zeta_raw is
    the largest per-triple critical value. The search bisects on
    t = 1/zeta to absolute tolerance tol and returns the feasible
    endpoint, so the triangle check on the resulting quasi-distances
    passes. The error on zeta itself is about zeta**2 * tol. A
    constrained triple with a zero leg, a hopeless one, can never be
    satisfied; the result is then inf with the least such triple as
    witness. Its log leg is -inf, so it passes every filter of the pass
    below, and the first block that holds one returns it.

    The triples are visited in blocks of x-rows, as broadcast (B, n, n)
    slices of log f, so memory stays O(n**2). With u and v the log
    gaps of f(x,y) over its legs, a triple turns tight where
    exp(-t u) + exp(-t v) = 1, never below ln2 / mean(u, v). One pass
    keeps a running bound T on the least critical exponent, looking
    only at the triples whose bound beats T, and collects the candidate
    set K of the triples that fail, or come within rounding error of
    failing, the triangle test just above T. The test is monotone in
    t, so every other triple passes at every exponent the bisection
    probes, and the bisection runs on K alone. When K would exceed
    n**2 entries, or rounding error at these exponents is too large to
    tell K from the rest, the bisection tests every triple block by
    block instead. Both give the same probes, result and witness.

    The blocks open with one row and double up to about 2**18 entries
    (_doubling_blocks). Until a block holds a constrained triple, T is
    inf and the bound filter keeps every constrained triple, each of
    which is gathered and tested for K; a one-row first block sets T
    from n**2 triples, so the full-size blocks are filtered at a tight
    bound and hand far fewer triples on. The argument above holds for
    any partition of the rows: K decides every probe as the whole set
    would, and with the blocks in ascending x, K keeps its key order
    and the first hopeless triple found is the least. Past n = 362 a
    block holds a single row, so large spaces scan one row at a time,
    as before.

    Once T is finite, and while t = tk * (1 + _MARGIN) keeps
    |t * log f| within _EXP_LIMIT (300), the pass takes the powers
    P = exp(t * log f) once, with an inf diagonal, and each later block
    hands on only the target triples with
    P(x,z) + P(z,y) < P(x,y) * (1 + 16 err); the constraint, bound,
    hopeless and _near tests then run on these alone, as above. They
    are a superset of the triples those tests keep, so K, the probes and
    the witness do not change. The log legs of a constrained triple are
    below lc, so s(t) = exp(t (la - lc)) + exp(t (lb - lc)), the ratio
    that _near reads, falls as t grows. A triple that _near
    keeps at the current tk <= t has s(tk) < 1 + 9 err, as _near's own
    rounding error is below err, hence s(t) < 1 + 9 err: a stale P,
    taken at a larger bound, keeps more triples, not fewer. Within the
    exp range every finite P is a normal float within a relative err/4
    of its exact power, and a zero leg gives exactly 0; the add and
    the product round twice more, so the computed sum stays below the
    computed cut. A hopeless triple has s(t) < 1 and passes too. The
    inf diagonal drops z = x and z = y, which constrain nothing, and a
    cut of 0 drops the pairs that are not targets. Past the exp range
    the blocks keep the log-space bound filter.

    On a symmetric f every pass scans only the triples with x < y, the
    constrained filter and the bisection alike. The mirror
    (y, z, x) of a triple swaps its legs, and the tests that decide the
    result read them through max, min and np.logaddexp, which are
    commutative to the bit: the mirror is hopeless, passes or fails at
    every probe exactly when the triple does. So the probes see the same
    outcomes as over all triples, and the least binding or hopeless
    triple has x < y. T and K are then taken over the scanned triples,
    for which the argument above holds as for any set of triples.
    """
    tol = _real("tol", tol, "(0, inf)")
    if space.n < 2:
        raise ValueError("need at least 2 nodes")
    if space.n < 3:
        return 1.0, 1.0, None
    f, n = space.f, space.n
    sym = _symmetric(f)
    blocks = list(_target_blocks(n, sym, _doubling_blocks(n, n * n)))
    zero_legs = not f[~np.eye(n, dtype=bool)].all()
    logf = np.log(f)
    flat = logf.ravel()
    scale = float(np.abs(logf[np.isfinite(logf)]).max())

    def gather(keys, x0, c0, t):
        # [la, lb, lc, key] of the constrained triples among these C-order
        # indices of a block whose bound ln2 / mean(u, v) lies below t;
        # key becomes the C-order index in the triple cube
        xz, y = np.divmod(keys, n - c0)
        xz += x0 * n
        y += c0
        z = xz % n
        keys = xz * n + y
        la, lb, lc = flat[xz], flat[z * n + y], flat[xz - z + y]
        keep = (lc > la) & (lc > lb) & (2 * lc - la - lb > 2 * _LN2 / t)
        return [la[keep], lb[keep], lc[keep], keys[keep]]

    def constrained(x0, x1, c0, mask, t):
        # the bound test on the block, in log space. With z = x or z = y
        # a leg equals f(x,y), so only the target mask is needed.
        la, lb, lc = logf[x0:x1, :, None], logf[None, :, c0:], logf[x0:x1, None, c0:]
        return gather(np.flatnonzero((2 * lc - la - lb > 2 * _LN2 / t) & mask[:, None, :]),
                      x0, c0, t)

    def powered(x0, x1, c0, mask, t):
        # the power test on the block: the inf diagonal of P drops z = x
        # and z = y, a cut of 0 every pair that is not a target
        keys = np.flatnonzero(P[x0:x1, :, None] + P[None, :, c0:] < cuts[x0:x1, None, c0:])
        return gather(keys, x0, c0, t)

    T, store, size, P = np.inf, [], 0, None
    for x0, x1, c0, mask in blocks:
        tk, _, err = _cuts(T, tol, scale)
        t = tk * (1 + _MARGIN)
        if P is None and t * scale <= _EXP_LIMIT:
            P = np.exp(t * logf)
            np.fill_diagonal(P, np.inf)
            cuts = np.where(_targets(n, sym), P * (1 + 16 * err), 0.0)
        part = (constrained if P is None else powered)(x0, x1, c0, mask, t)
        if not len(part[3]):
            continue
        if zero_legs:
            # a zero leg has log -inf, so a hopeless triple passes every filter
            hopeless = np.flatnonzero(np.minimum(part[0], part[1]) == -np.inf)
            if len(hopeless):
                return float("inf"), float("inf"), _triple(part[3][hopeless[0]], n)
        if T == np.inf:
            # the least upper end ln2 / min(u, v) of a root bracket
            la, lb, lc, _ = part
            T = _LN2 / float((lc - np.maximum(la, lb)).max())
            tk, _, err = _cuts(T, tol, scale)
        part = _near(part, tk, err)
        T = _least_critical(*part[:3], T, tol)
        if store is not None:
            store.append(part)
            size += len(part[3])
            if size > n * n:
                tk, _, err = _cuts(T, tol, scale)
                store = [_near([np.concatenate(v) for v in zip(*store)], tk, err)]
                size = len(store[0][3])
                if size > n * n:
                    store = None
    if T == np.inf:
        return 1.0, 1.0, None

    # The test's rounding error at t <= tk is below err. A triple left
    # out of K passes at tk by more than 2 * err, so at every smaller t;
    # a triple of K failing at tf by more than 2 * err, with log gaps
    # above the rounding scale, fails at every larger t. So every
    # passing probe lies below tf, the final hi below tf + tol <= tk,
    # and K decides every probe as the whole set would.
    tk, tf, err = _cuts(T, tol, scale)
    cache = None
    if store is not None and err < 0.25 * _LN2 * _MARGIN:
        la, lb, lc, keys = (np.concatenate(v) for v in zip(*store))
        keep = _gap(la, lb, lc, tk) < 3 * err
        la, lb, lc, keys = la[keep], lb[keep], lc[keep], keys[keep]
        robust = (_gap(la, lb, lc, tf) < -2 * err) & (
            lc - np.maximum(la, lb) > 16 * _EPS * scale)
        if robust.any():
            cache = (la, lb, lc, keys)

    def triples():
        if cache is not None:
            return [cache]
        return (constrained(*block, np.inf) for block in blocks)

    def satisfied(t):
        # logaddexp keeps the test overflow-safe for extreme exponents
        return all(bool(np.all(np.logaddexp(t * la, t * lb) >= t * lc))
                   for la, lb, lc, _ in triples())

    lo = 1.0
    while not satisfied(lo):
        lo /= 2.0
    hi = lo * 2.0
    while satisfied(hi):
        lo = hi
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if satisfied(mid):
            lo = mid
        else:
            hi = mid
    for la, lb, lc, keys in triples():
        failing = np.logaddexp(hi * la, hi * lb) < hi * lc
        if failing.any():
            witness = _triple(keys[failing][0], n)
            break
    zeta_raw = 1.0 / lo
    return float(zeta_raw), float(max(1.0, zeta_raw)), witness


# a sum or ratio beyond the float range is inf, and so the maximum
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def compute_phi(space):
    """Multiplicative triangle relaxation.

    Returns (phi_mult, phi, witness) where phi_mult is the largest
    value of f(x,z) / (f(x,y) + f(y,z)) over ordered distinct triples,
    phi = lg(phi_mult), and witness is the lexicographically least
    maximizing triple written (x, y, z) with y in the middle. Spaces
    with fewer than three nodes have no triples and report
    phi_mult = 0, phi = -inf, witness None.

    Division is monotone in the denominator, so the largest ratio of a
    pair (x, z) is f(x,z) over the least denominator, one min-plus
    square (_min_plus) of F, a copy of f whose inf diagonal drops
    y = x and y = z. The correctly rounded quotient of the least sum
    is the largest of the correctly rounded quotients, to the bit;
    0/0 arises only in link-gain mode, constrains nothing and reads 0,
    and every pair that is not a target reads -1. The witness comes
    from the least x of a maximizing pair: its maximizing pairs are
    scanned again over y apart from x and z, and the least (y, z) with
    the maximum wins. On a symmetric f only the pairs with x < z are
    targets: the mirror (z, y, x) has the same numerator and the same
    denominator terms in swapped order, so the same ratio to the bit,
    and the least maximizing triple has x < z.
    """
    if space.n < 3:
        return 0.0, float("-inf"), None
    f, n = space.f, space.n
    sym = _symmetric(f)
    F = f.copy()
    np.fill_diagonal(F, np.inf)
    ratio = f / _min_plus(F, sym)
    ratio[np.isnan(ratio)] = 0.0
    ratio[~_targets(n, sym)] = -1.0
    best = float(ratio.max())
    x = int(np.argmax(ratio)) // n
    zs = np.flatnonzero(ratio[x] == best)
    # again[y, j] is the ratio of (x, y, zs[j])
    again = f[x, zs] / (f[x, :, None] + f[:, zs])
    again[np.isnan(again)] = 0.0
    again[x] = -1.0
    again[zs, np.arange(len(zs))] = -1.0
    y, j = divmod(int(np.argmax(again == best)), len(zs))
    phi = float(np.log2(best)) if best > 0 else float("-inf")
    return best, phi, (x, y, int(zs[j]))


def zeta_upper_bound(space):
    """lg of the spread between extreme off-diagonal decays.

    The metricity exponent never exceeds this value. Returns inf when
    some off-diagonal decay is zero (link-gain mode). A spread past the
    float range, as from a subnormal decay, still has a finite lg: it is
    taken from the mantissas and exponents of the two extremes.
    """
    if space.n < 2:
        raise ValueError("need at least one off-diagonal entry")
    vals = space.off_diagonal()
    top = float(vals.max())
    bot = float(vals.min())
    if bot == 0:
        return float("inf")
    spread = top / bot
    if spread == np.inf:
        # lg of the mantissas' quotient plus the exponents' gap
        (mt, et), (mb, eb) = np.frexp(top), np.frexp(bot)
        return float(np.log2(mt / mb)) + float(et - eb)
    return float(np.log2(spread))


class QuasiMetric(DecaySpace):
    """The quasi-distances d = f**(1/zeta) of a space, as a decay space of its mode.

    t -> t**(1/zeta) keeps 0 at 0 and a positive, finite value positive
    and finite, so d satisfies the axioms of the space's mode unless the
    power overflows or underflows, which only zeta < 1 can cause; the
    DecaySpace invariant then refuses it. d is a read-only alias of f.
    """

    def __init__(self, space, zeta):
        zeta = _real("zeta", zeta, "(0, inf)")
        # the invariant judges an overflow or underflow of the power
        with np.errstate(over="ignore", under="ignore"):
            d = space.f ** (1.0 / zeta)
        super().__init__(d, space.mode)
        self.zeta = zeta

    @property
    def d(self):
        return self.f


def _quasi_table(space, quasi):
    """quasi.d, after checking that the quasi-metric was built on a space like this one."""
    if quasi.n != space.n:
        raise ValueError("quasi-metric has %d nodes but the space has %d" % (quasi.n, space.n))
    if quasi.mode != space.mode:
        raise ValueError("quasi-metric is %s but the space is %s" % (quasi.mode, space.mode))
    return quasi.d


def triangle_violation(quasi, tol=TRIANGLE_SLACK):
    """Lexicographically least violating triple (x, z, y), or None.

    A violation means d(x,y) > d(x,z) + d(z,y) beyond relative slack
    tol, which must satisfy 0 <= tol < inf. The quasi-metric is a decay
    space, so every entry of d is finite and non-negative: no NaN hides
    a violation from the comparison, and no inf entry makes the slack
    infinite.
    Diagonal targets are skipped; for off-diagonal targets the
    intermediates z = x and z = y reproduce d(x,y) itself whenever the
    diagonal is zero, so they never report spurious violations.

    best = min over z of d(x,z) + d(z,y) is the min-plus square of d
    (_min_plus). On a symmetric d it covers only the targets y > x:
    d(x,z) + d(z,y) and d(y,z) + d(z,x) are the same sums in swapped
    order, so (x, y) violates exactly when (y, x) does, and the least
    violating pair has x < y. The pairs left out keep best = inf, which
    no entry exceeds.
    """
    tol = _real("tol", tol, "[0, inf)")
    d = quasi.d
    best = _min_plus(d, _symmetric(d))
    slack = tol * np.maximum(1.0, d)
    viol = d > best + slack
    np.fill_diagonal(viol, False)
    if not viol.any():
        return None
    # np.nonzero lists pairs in C order, so the first is the least
    xs, ys = np.nonzero(viol)
    x, y = int(xs[0]), int(ys[0])
    z = int(np.argmin(d[x] + d[:, y]))
    return (x, z, y)


def quasi_distances(space, zeta, tol=TRIANGLE_SLACK, check=True):
    """QuasiMetric(space, zeta), the quasi-distances d = f**(1/zeta), checked.

    With zeta at least the metricity exponent of the space this is a
    quasi-metric; the exhaustive triangle check runs by default and
    raises on the least violating triple. check=False skips it, the
    escape hatch for link-gain matrices whose cross-decay table is not
    expected to be triangle-consistent.
    """
    qm = QuasiMetric(space, zeta)
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


def analyze_metricity(space, tol=ZETA_TOL):
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
