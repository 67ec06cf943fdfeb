"""Capacity scheduling, partition lemmas and their exact oracle.

capacity_uniform is a one-pass greedy scheduler for uniform power: it
scans links from shortest to longest, keeps a working set X of links
that stay mutually separated and exchange little affectance, then
drops the overloaded members. The output is feasible by construction
and loses at most half of X.

The partition helpers split a feasible or separated set into a
bounded number of classes with a stronger property each: higher
feasibility margin (signal_strengthen) or wider separation
(separation_strengthen). amicable_subset chains them to find a large
subset whose members stay lightly loaded even from outside.

Every separation test here reads links._separated, the one separation
relation, at the zeta its quasi-metric carries: check_onezetasep and
amicable_subset read quasi.zeta, and capacity_uniform refuses a
quasi-metric at another zeta than its own.

capacity_oracle is the ground truth for small systems: the exact
maximum feasible subset, found as an independent-set search on the
shared branch-and-bound of decayspace.search, with pairwise SINR
conflicts as edges and a load cap that keeps every chosen link's
uncapped in-affectance at most 1.
"""

import math

import numpy as np
from dataclasses import dataclass

from .search import _branch, _first_fit_cliques, _members, _neighbor_masks
from .spaces import NODE_SPACE, _quasi_table, _real, _whole, quasi_distances
from .links import (
    affectance_matrix,
    drowned_links,
    is_feasible,
    _link_set,
    _separated,
    _separation_violation,
    check_separation_set,
)


@dataclass
class CapacityResult:
    selected: tuple
    intermediate: tuple
    skipped: tuple = ()


@dataclass
class Partition:
    classes: tuple
    certificate: dict
    bound: int

    def members(self):
        out = []
        for cls in self.classes:
            out.extend(cls)
        return tuple(sorted(out))


def _default_quasi(space, zeta):
    # only node-space tables get the triangle check: cross-link tables are
    # not triangle-consistent in general, and the rescaling is still the
    # right length scale for separation tests
    return quasi_distances(space, zeta, check=space.mode == NODE_SPACE)


def _check_uniform(sys, zeta):
    # the greedy and the lemmas it rests on assume uniform power and zeta >= 1
    zeta = _real("zeta", zeta, "[1, inf)")
    if sys.power.kind != "uniform":
        raise ValueError("defined for uniform power")
    return zeta


def capacity_uniform(sys, zeta, quasi=None):
    """One-pass greedy capacity under uniform power.

    Links are scanned by non-decreasing own decay (ties by index). A
    link v joins the working set X when it is zeta/2-separated from X
    (link distance at least zeta/2 times v's own length) and its
    affectance exchange with X, capped in both directions, is at most
    1/2. The result keeps the members of X whose capped in-affectance
    within X is at most 1; at least half of X survives, and the
    survivors are feasible. Links drowned by noise are skipped and
    reported in the result. A quasi-metric passed in must be the one of
    this space at this zeta.
    """
    zeta = _check_uniform(sys, zeta)
    if quasi is None:
        quasi = _default_quasi(sys.space, zeta)
    _quasi_table(sys.space, quasi)
    if quasi.zeta != zeta:
        raise ValueError("quasi-metric is at zeta=%g, not %g" % (quasi.zeta, zeta))
    skipped = drowned_links(sys)
    dead = set(skipped)
    A = affectance_matrix(sys)
    links = np.arange(sys.n_links)
    sep = _separated(sys, quasi, links, links, zeta / 2.0)
    X = []
    for v in sys.order():
        v = int(v)
        if v in dead:
            continue
        if not sep[v, X].all():
            continue
        if A[v, X].sum() + A[X, v].sum() > 0.5:
            continue
        X.append(v)
    S = [v for v in X if A[X, v].sum() <= 1.0]
    return CapacityResult(
        selected=tuple(sorted(S)),
        intermediate=tuple(sorted(X)),
        skipped=skipped,
    )


def capacity_oracle(sys, max_n=20):
    """Maximum feasible subset, for small systems.

    A unit-weight run of the shared branch-and-bound (search._branch)
    over the links that clear the noise floor alone. Two links whose
    one-on-one uncapped affectance exceeds 1 conflict, and the search's
    load cap, with the uncapped affectances as loads, keeps the running
    in-affectance of every chosen link at most 1; the search module says
    why that pruning is exact in floating point. The search branches
    include-first on the lowest link and keeps only strict improvements,
    so the answer is the lexicographically least maximizer. It is
    exponential in the worst case; max_n caps the number of links.
    Returns (size, members).
    """
    n, max_n = sys.n_links, _whole("max_n", max_n, "[0, inf)")
    if n > max_n:
        raise ValueError(
            "%d links exceed max_n=%d; sample the system down or raise the cap"
            % (n, max_n)
        )
    candidates = np.flatnonzero(sys._margin > 0)
    if not len(candidates):
        return 0, ()
    raw = affectance_matrix(sys, capped=False)[np.ix_(candidates, candidates)]
    best, _ = _branch(_neighbor_masks(raw > 1.0), [1.0] * len(candidates), 0.0, loads=raw)
    members = tuple(int(candidates[v]) for v in _members(best))
    return len(members), members


def _first_fit_partition_error(S, p, q):
    raise RuntimeError(
        "first-fit exceeded its class bound on %r with p=%g, q=%g; "
        "this contradicts the pigeonhole guarantee, please report" % (S, p, q)
    )


def signal_strengthen(sys, S, p, q):
    """Split a p-feasible set into at most ceil(2q/p)**2 q-feasible classes.

    Two first-fit passes with m = ceil(2q/p) classes each, or one per
    link when a pass has fewer links, since an empty class always
    accepts; so 0 < p <= q with 2q/p finite is all a call needs. The first
    walks links from longest to shortest and admits a link to the
    first class whose current members (all at least as long) load it
    with at most 1/(2q) of uncapped in-affectance. The second walks
    each class in exactly the reversed order and bounds the load from
    the other side the same way. Every pair of classmates is ordered
    by one of the two passes, so each final member carries classwise
    in-affectance at most 1/q, i.e. every class is q-feasible. A class
    always accepts: m simultaneous rejections would certify in-affectance
    above m/(2q) >= 1/p, contradicting p-feasibility. Input that is
    already q-feasible returns a single class.
    """
    S = _link_set(sys, S)
    if not S:
        raise ValueError("cannot partition an empty set")
    p, q = _real("p", p, "(0, inf)"), _real("q", q, "(0, inf)")
    if not (p <= q and math.isfinite(2.0 * q / p)):
        raise ValueError("need p <= q with 2q/p finite, got p=%g, q=%g" % (p, q))
    ok, wit = is_feasible(sys, S, K=p)
    if not ok:
        raise ValueError("input set is not %g-feasible (worst link %d)" % (p, wit))
    m = math.ceil(2.0 * q / p)
    bound = m * m
    certificate = {"kind": "feasibility", "level": float(q)}
    if is_feasible(sys, S, K=q)[0]:
        return Partition(classes=(tuple(S),), certificate=certificate, bound=bound)
    raw = affectance_matrix(sys, capped=False)
    limit = 1.0 / (2.0 * q)
    own = sys.own_decays()
    longest_first = sorted(S, key=lambda v: (-own[v], v))

    def first_fit(order):
        # the non-empty classes of one pass, in class order
        classes = [[] for _ in range(min(m, len(order)))]
        for v in order:
            for cls in classes:
                if raw[cls, v].sum() <= limit:
                    cls.append(v)
                    break
            else:
                _first_fit_partition_error(S, p, q)
        return [cls for cls in classes if cls]

    final = []
    for cls in first_fit(longest_first):
        final.extend(tuple(sorted(sub)) for sub in first_fit(cls[::-1]))
    for cls in final:
        if not is_feasible(sys, cls, K=q)[0]:
            _first_fit_partition_error(S, p, q)
    return Partition(classes=tuple(final), certificate=certificate, bound=bound)


def separation_strengthen(sys, quasi, S, tau, eta):
    """Split a tau-separated set into eta-separated classes.

    Two links clash unless each is eta-separated from the other
    (links._separated both ways), so a clash-free class is mutually
    eta-separated; under symmetric link distances a clash is a distance
    below eta times the longer link's length. Ranking links from
    longest to shortest, the class count never exceeds one plus the
    largest number of shorter clashing links any member has (its
    forward degree); that bound is met by first-fit coloring from the
    shortest link upward, since each link only competes with the
    shorter clashers already colored.
    Classes are re-verified before returning.
    """
    S = _link_set(sys, S)
    if not S:
        raise ValueError("cannot partition an empty set")
    tau, eta = _real("tau", tau, "(0, inf]"), _real("eta", eta, "(0, inf]")
    if not (eta >= tau):
        raise ValueError("eta must be at least tau")
    bad = _separation_violation(sys, quasi, S, tau)
    if bad is not None:
        raise ValueError(
            "input set is not %g-separated (links %d and %d)" % (tau, bad[0], bad[1])
        )
    certificate = {"kind": "separation", "level": float(eta)}
    k = len(S)
    sep = _separated(sys, quasi, S, S, eta)
    clash = ~(sep & sep.T)
    np.fill_diagonal(clash, False)
    longest_first = np.argsort(-sys.link_lengths(quasi)[S], kind="stable")
    rank = np.empty(k, dtype=int)
    rank[longest_first] = np.arange(k)
    bound = int((clash & (rank[None, :] > rank[:, None])).sum(axis=1).max()) + 1
    # first-fit colouring: a colour class is a clique of the non-clash relation
    cliques = []
    _first_fit_cliques(cliques, _neighbor_masks(~clash), longest_first[::-1].tolist())
    classes = [tuple(S[i] for i in _members(c)) for c in cliques]
    if len(classes) > bound:
        raise RuntimeError("coloring exceeded its degeneracy bound, please report")
    for cls in classes:
        if not check_separation_set(sys, quasi, cls, eta):
            raise RuntimeError("a color class failed its separation level, please report")
    return Partition(classes=tuple(classes), certificate=certificate, bound=bound)


def check_onezetasep(sys, quasi, S):
    """Separation consequence of strong feasibility, as a testable claim.

    Under uniform power, a set that is e^2/beta-feasible must be
    1/zeta-separated, zeta the exponent of the quasi-metric. Returns
    ("ok", None) when the conclusion holds, ("violation", (v, w)) with
    a counterexample pair when it fails, and ("inapplicable", None)
    when the hypothesis does not hold for S.
    """
    _quasi_table(sys.space, quasi)
    _check_uniform(sys, quasi.zeta)
    S = _link_set(sys, S)
    if len(S) <= 1:
        return ("ok", None)
    K = math.e ** 2 / sys.params.beta
    if not is_feasible(sys, S, K=K)[0]:
        return ("inapplicable", None)
    pair = _separation_violation(sys, quasi, S, 1.0 / quasi.zeta)
    if pair is None:
        return ("ok", None)
    return ("violation", pair)


def amicable_subset(sys, quasi, S):
    """Large subset of a feasible set that stays lightly loaded.

    Pipeline: strengthen feasibility to level e^2/beta and keep the
    largest class; strengthen its separation from 1/zeta to zeta, zeta
    the exponent of the quasi-metric, and keep the largest class Shat;
    finally keep the members of Shat whose capped out-affectance onto
    Shat is at most 2. Markov's inequality guarantees at least half of
    Shat survives. Returns (members, diagnostics) where diagnostics
    records stage sizes, the shrink factor and the worst capped
    out-affectance any link of the whole system puts on the result.
    """
    _check_uniform(sys, quasi.zeta)
    S = _link_set(sys, S)
    if not S:
        raise ValueError("need a non-empty feasible set")
    ok, wit = is_feasible(sys, S)
    if not ok:
        raise ValueError("input set is infeasible (worst link %d)" % wit)
    q_target = math.e ** 2 / sys.params.beta
    if q_target > 1.0:
        part1 = signal_strengthen(sys, S, p=1.0, q=q_target)
        stage1 = max(part1.classes, key=len)
        n_classes1 = len(part1.classes)
    else:
        # beta so large that plain feasibility already implies the
        # strengthened level; keep the whole set
        stage1 = tuple(S)
        n_classes1 = 1
    part2 = separation_strengthen(sys, quasi, stage1, tau=1.0 / quasi.zeta, eta=quasi.zeta)
    shat = max(part2.classes, key=len)
    n_classes2 = len(part2.classes)
    A = affectance_matrix(sys)
    shat_arr = np.array(shat)
    out_load = A[shat_arr][:, shat_arr].sum(axis=1)
    result = tuple(v for v, load in zip(shat, out_load) if load <= 2.0)
    if 2 * len(result) < len(shat):
        raise RuntimeError("survivor count fell below half, please report")
    # result is non-empty: at least half of the non-empty Shat survives
    worst_out = float(A[:, np.array(result)].sum(axis=1).max())
    diagnostics = {
        "input_size": len(S),
        "stage1_size": len(stage1),
        "stage1_classes": n_classes1,
        "stage2_size": len(shat),
        "stage2_classes": n_classes2,
        "output_size": len(result),
        "shrink": float(len(S)) / len(result),
        "max_out_affectance": worst_out,
    }
    return result, diagnostics
