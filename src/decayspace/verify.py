"""The invariant registry behind `decayspace verify`.

The _check_* functions are the one place a release claim is coded:
exponent recovery on planted clouds, capacity soundness and its ratio
to the exact oracle, the exact graph reductions, both partition
lemmas, fading under packing growth, independence and guards. A check
is registered by being defined: _CHECKS lists every _check_* function,
sorted by its name, the rest of the function name with "-" for "_".
Each check builds its instances from the seed, so `verify --seed 0` is
the release gate and other seeds draw fresh instance families. Checks
compare the library against independent references: SINR evaluated
from decays and powers (_sinr_ok, through links.sinr_values),
brute-force independent sets (_brute_mis), greedy separated families
and closed-form values. The items are deterministic for a fixed seed.
"""

import itertools
import math

import numpy as np

from .spaces import (
    DecaySpace,
    _whole,
    compute_phi,
    compute_zeta,
    quasi_distances,
)
from .links import (
    LinkSystem,
    PowerAssignment,
    check_separation,
    check_separation_set,
    interference_at,
    is_feasible,
    is_monotone_power,
    pairwise_power_infeasible,
    sinr_values,
)
from .capacity import (
    amicable_subset,
    capacity_oracle,
    capacity_uniform,
    check_onezetasep,
    separation_strengthen,
    signal_strengthen,
)
from .analysis import (
    assouad_estimate,
    fading_bound,
    fading_parameter,
    guard_set,
    independence_at,
    independence_dimension,
    two_half_ball_cover,
    zeta_hat,
)
from .generators import (
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    random_graph,
    random_link_system,
    random_points,
)
from .io import dumps_canonical


def _sinr_ok(sys_, S):
    # SINR straight off decays and powers, not through the affectance rewriting
    return bool(np.all(sinr_values(sys_, S)[1] >= sys_.params.beta * (1.0 - 1e-9)))


def _brute_mis(n, edges):
    # lexicographically least maximum independent set, by enumeration
    eset = {frozenset(e) for e in edges}
    for r in range(n, -1, -1):
        for combo in itertools.combinations(range(n), r):
            if all(frozenset(p) not in eset for p in itertools.combinations(combo, 2)):
                return combo
    return ()


def _check_metricity_planar(seed):
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0, 6.0):
        for i in range(20):
            pts = random_points(50, seed + int(1000 * alpha) + i, plant_collinear=True)
            worst = max(worst, abs(compute_zeta(gen_euclidean(pts, alpha))[1] - alpha))
    return worst <= 1e-6, "80 planted 50-point clouds, max |zeta - alpha| %.3g (tol 1e-6)" % worst


def _check_metricity_threepoint(seed):
    zetas = []
    for e in (4, 8, 16, 32):
        sp = gen_threepoint(2.0 ** e)
        zetas.append(compute_zeta(sp)[1])
        pm = compute_phi(sp)[0]
        if not pm < 2.0:
            return False, "phi_mult reached 2 at q=2**%d" % e
    if not (5.0 < zetas[2] < 6.0):
        return False, "zeta at q=2**16 is %.4f, outside (5, 6)" % zetas[2]
    if not all(a < b for a, b in zip(zetas, zetas[1:])):
        return False, "zeta not strictly increasing in q"
    return True, "zeta(q=2**16)=%.4f, strictly increasing, phi_mult<2" % zetas[2]


def _check_quasi_triangle(seed):
    for k in range(6):
        sys = random_link_system(8, seed + 10 * k, alpha=2.0 + 0.3 * k)
        zr, z, _ = compute_zeta(sys.space)
        quasi_distances(sys.space, z)  # raises on violation
    sp = gen_threepoint(2.0 ** 8)
    z = compute_zeta(sp)[1]
    try:
        quasi_distances(sp, z * 0.9)
    except ValueError:
        return True, "triangle holds at zeta, detects zeta*0.9"
    return False, "no violation reported below the metricity exponent"


def _check_capacity_handtrace(seed):
    # two short parallel links close together and one far away: the
    # greedy scan keeps the first and the far one, the optimum is all three
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5], [100.0, 0.0], [101.0, 0.0]]
    sys = LinkSystem(gen_euclidean(pts, 2.0), links=[(0, 1), (2, 3), (4, 5)])
    res = capacity_uniform(sys, zeta=2.0)
    opt, opt_set = capacity_oracle(sys)
    ok = (res.selected == res.intermediate == (0, 2) and res.skipped == ()
          and (opt, opt_set) == (3, (0, 1, 2)) and _sinr_ok(sys, opt_set)
          and opt / len(res.selected) == 1.5)
    return ok, "S=%s X=%s OPT=%d at %s, ratio %.2f" % (
        res.selected, res.intermediate, opt, opt_set, opt / max(1, len(res.selected)),
    )


def _planar_system(seed, k):
    # the shared family of capacity-soundness and capacity-oracle-ratio
    n = 4 + (k % 27)
    alpha = 2.0 if k % 2 else 3.0
    beta = 1.0 + (0.5 if k % 3 == 0 else 0.0)
    noise = 0.02 if k % 5 == 0 else 0.0
    return random_link_system(n, seed + 40000 + k, beta=beta, noise=noise, alpha=alpha), alpha


def _check_capacity_soundness(seed):
    for k in range(1000):
        sys, alpha = _planar_system(seed, k)
        res = capacity_uniform(sys, alpha)
        if 2 * len(res.selected) < len(res.intermediate):
            return False, "halving failed on instance %d" % k
        if res.selected and not _sinr_ok(sys, res.selected):
            return False, "selection on instance %d fails the direct SINR check" % k
    return True, ("1000 planar systems (n <= 30): |S| >= |X|/2 and every S "
                  "passes a direct SINR check")


def _check_capacity_oracle_ratio(seed):
    ratios = []
    for k in range(1000):
        if 4 + (k % 27) > 14:
            continue
        sys, alpha = _planar_system(seed, k)
        S = capacity_uniform(sys, alpha).selected
        opt, _ = capacity_oracle(sys, max_n=14)
        if not S or opt < len(S):
            return False, "selection %s against OPT %d on instance %d" % (S, opt, k)
        ratios.append(opt / len(S))
    return True, "%d systems with n <= 14: OPT >= |S| > 0, worst OPT/|S| %.3f, mean %.3f" % (
        len(ratios), max(ratios), sum(ratios) / len(ratios),
    )


def _check_hardness_equidecay(seed):
    for k in range(50):
        n = 4 + (k % 9)
        _, edges = random_graph(n, 0.15 + 0.07 * (k % 10), seed + 5000 + k)
        sys = gen_equidecay_graph(n, edges)
        want = _brute_mis(n, edges)
        got = capacity_oracle(sys, max_n=12)
        if got != (len(want), want):
            return False, "oracle %s != brute-force %s on graph %d" % (got, want, k)
        for i, j in edges:
            if not pairwise_power_infeasible(sys, i, j):
                return False, "edge (%d,%d) escaped the power certificate" % (i, j)
    return True, ("50 graphs (n <= 12): capacity and its lex-least optimum equal "
                  "brute-force independence, every edge power-certified")


def _check_hardness_twoline(seed):
    for n in (6, 8, 10):
        _, edges = random_graph(n, 0.3, seed + 600 + n)
        sys = gen_twoline(n, edges, 2.5)
        eset = {frozenset(e) for e in edges}
        for r in range(1, n + 1):
            for S in itertools.combinations(range(n), r):
                indep = all(frozenset(p) not in eset for p in itertools.combinations(S, 2))
                if is_feasible(sys, list(S), 1.0)[0] != indep:
                    return False, "subset %s: independent=%s, feasibility disagrees" % (S, indep)
        for i, j in edges:
            if not pairwise_power_infeasible(sys, i, j):
                return False, "edge (%d,%d) escaped the power certificate" % (i, j)
    return True, ("twoline n = 6, 8, 10: feasibility equals independence on all "
                  "2^n subsets, every edge power-certified")


def _check_partition_signal(seed):
    harvested = 0
    for k in range(60):
        sys = random_link_system(6 + (k % 9), seed + 52000 + k, box=5.0)
        S = list(capacity_uniform(sys, 2.5).selected)
        if len(S) < 2 or not is_feasible(sys, S, 1.0)[0]:
            continue
        harvested += 1
        part = signal_strengthen(sys, S, 1.0, 3.0)
        if part.bound != 36 or len(part.classes) > 36:
            return False, "class bound violated on instance %d" % k
        if sorted(v for c in part.classes for v in c) != sorted(S):
            return False, "partition lost members on instance %d" % k
        for cls in part.classes:
            if cls and not is_feasible(sys, list(cls), 3.0)[0]:
                return False, "class %s not 3-feasible on instance %d" % (cls, k)
    return harvested >= 30, ("%d of 60 feasible sets (floor 30) split into at most "
                             "36 classes, each 3-feasible" % harvested)


def _check_partition_separation(seed):
    separated = 0
    for k in range(20):
        sys = random_link_system(10 + (k % 6), seed + 61000 + k, box=6.0, alpha=3.0)
        quasi = quasi_distances(sys.space, 3.0)
        X = list(capacity_uniform(sys, 3.0).intermediate)
        if len(X) < 2:
            continue
        separated += 1
        part = separation_strengthen(sys, quasi, X, 1.5, 3.0)
        if len(part.classes) > part.bound:
            return False, "degeneracy bound violated on instance %d" % k
        if sorted(v for c in part.classes for v in c) != sorted(X):
            return False, "partition lost members on instance %d" % k
        for cls in part.classes:
            members = list(cls)
            if not check_separation_set(sys, quasi, members, 3.0):
                return False, "class %s missed separation 3 on instance %d" % (cls, k)
            for v in members:
                others = [u for u in members if u != v]
                if others and not check_separation(sys, quasi, v, others, 3.0):
                    return False, "member %d of %s not separated on instance %d" % (v, cls, k)
    return separated >= 10, ("%d of 20 separated sets (floor 10) widened from 1.5 to 3, "
                             "every class and member re-checked" % separated)


def _check_onezetasep(seed):
    target = math.e ** 2
    statuses = {"inapplicable": 0, "ok": 0}
    for k in range(500):
        sys = random_link_system(10, seed + 70000 + k, box=8.0)
        z = compute_zeta(sys.space)[1]
        quasi = quasi_distances(sys.space, z)
        S = list(range(10))
        if not is_feasible(sys, S, target)[0]:
            picked = list(capacity_uniform(sys, z).selected)
            if not picked:
                continue
            part = signal_strengthen(sys, picked, 1.0, target)
            S = list(max(part.classes, key=len))
        status, pair = check_onezetasep(sys, quasi, S)
        if status == "violation":
            return False, "separation violated by pair %s on instance %d" % (pair, k)
        statuses[status] += 1
    return statuses["ok"] >= 450, ("500 trials: %d e^2-feasible sets 1/zeta-separated "
                                   "(floor 450), %d inapplicable, no violation"
                                   % (statuses["ok"], statuses["inapplicable"]))


def _check_amicable_pipeline(seed):
    used = 0
    for k in range(8):
        sys = random_link_system(16, seed + 8000 + k, alpha=2.5, box=14.0)
        z = compute_zeta(sys.space)[1]
        quasi = quasi_distances(sys.space, z)
        S = capacity_uniform(sys, z, quasi).selected
        if not S:
            continue
        out, diag = amicable_subset(sys, quasi, S)
        if 2 * len(out) < diag["stage2_size"]:
            return False, "survivor count fell below half on instance %d" % k
        if not set(out) <= set(S):
            return False, "output %s left the input %s on instance %d" % (out, S, k)
        if (diag["input_size"], diag["output_size"]) != (len(S), len(out)):
            return False, "diagnostics miscount the sets on instance %d" % k
        used += 1
    return used >= 3, "amicable pipeline kept half the class on %d instances" % used


def _check_fading_values(seed):
    err = abs(zeta_hat(2.0) - math.pi ** 2 / 6.0)
    if err > 1e-9:
        return False, "zeta_hat(2) off by %.2g" % err
    b = fading_bound(1.0, 0.5)
    if abs(b - 4.5605) > 1e-4:
        return False, "fading_bound(1, 0.5) = %.6f" % b
    b0 = fading_bound(1.0, 0.0)
    if abs(b0 - 2.0 * (math.pi ** 2 / 6.0 - 1.0)) > 1e-9:
        return False, "fading_bound(1, 0) = %.12f" % b0
    try:
        fading_bound(1.0, 1.0)
    except ValueError:
        return True, "zeta_hat and bound values match, divergence detected"
    return False, "divergent bound did not raise"


def _check_fading_star(seed):
    star = gen_star(4, 1.0)
    rep = fading_parameter(star, 1.0)
    if abs(rep.per_node[0] - (1.0 + 4.0 / 17.0)) > 1e-12:
        return False, "stray-node value %.6f" % rep.per_node[0]
    # the hub hears the stray plus 4 leaves
    if rep.gamma != 1.25 or rep.witness_set != (0, 2, 3, 4, 5) or not rep.exact:
        return False, "star parameter %r at %s (exact %s)" % (
            rep.gamma, rep.witness_set, rep.exact)
    two = DecaySpace(np.array([[0.0, 5.0], [5.0, 0.0]]))
    if fading_parameter(two, 1.0).gamma != 0.2:
        return False, "two-node fading wrong"
    big = fading_parameter(two, 6.0)
    if big.gamma != 0.0 or big.witness_set != ():
        return False, "separation beyond every decay should empty the witness"
    leaves = LinkSystem(gen_star(16, 1.0), links=[(1, 0)])
    dev = abs(interference_at(leaves, range(2, 18), 0) - 16.0 / 257.0)
    if dev > 1e-12:
        return False, "16-leaf star interference off 16/257 by %.2e" % dev
    if interference_at(leaves, [], 0) != 0.0:
        return False, "no senders still interfere"
    return True, "star per-node and parameter values exact, 16-leaf interference 16/257"


_R_VALUES = (0.02, 0.1, 0.5, 2.0)


def _greedy_separated(sep, z, r, order):
    # a maximal r-separated sender set around listener z, taken in order
    adm = sep[:, z] >= r
    adm[z] = False
    chosen = []
    for y in order:
        if adm[y]:
            chosen.append(y)
            adm &= sep[:, y] >= r
    return chosen


def _fading_under(space, bound, exact_limit, need_exact):
    # gamma(r) and the interference at every witness node stay under the bound
    sys = LinkSystem(space, links=[(0, 1)])
    for r in _R_VALUES:
        rep = fading_parameter(space, r, exact_limit=exact_limit)
        if (need_exact and not rep.exact) or rep.gamma > bound + 1e-9:
            return "gamma(%g)=%.4f (exact %s) against bound %.4f" % (
                r, rep.gamma, rep.exact, bound)
        for x in rep.witness_set:
            senders = [y for y in rep.witness_set if y != x]
            if senders and interference_at(sys, senders, x) > bound / r + 1e-9:
                return "interference at witness node %d broke bound/r at r=%g" % (x, r)
    return None


def _check_fading_annulus(seed):
    details = []
    for s in (0, 1):
        pts = random_points(64, seed + s)
        sp = gen_euclidean(pts, 3.0)
        est = assouad_estimate(sp, C=None, exact_limit=64)
        if not est.exact or abs(est.assouad - 2.0 / 3.0) > 0.3:
            return False, "cloud %d: growth degree %.3f (exact %s)" % (s, est.assouad, est.exact)
        bound = fading_bound(est.C, est.assouad)
        f = sp.f
        sep = np.minimum(f, f.T)
        n = sp.n
        for z in range(n):
            asc = [int(v) for v in np.argsort(f[:, z], kind="stable") if v != z]
            orders = [list(range(n)), asc]
            orders += [[y] + [v for v in range(n) if v != y] for y in range(n) if y != z]
            for r in _R_VALUES:
                for order in orders:
                    S = _greedy_separated(sep, z, r, order)
                    if S and r * float(np.sum(1.0 / f[S, z])) > bound + 1e-9:
                        return False, "cloud %d: greedy family at z=%d r=%g over bound" % (s, z, r)
        # on the 20-point subcloud the search is exhaustive, so gamma(r)
        # really is the supremum over every admissible sender set
        sub = gen_euclidean(pts[:20], 3.0)
        est20 = assouad_estimate(sub, C=None, exact_limit=20)
        bad = (_fading_under(sp, bound, 24, False)
               or _fading_under(sub, fading_bound(est20.C, est20.assouad), 20, True))
        if bad:
            return False, "cloud %d: %s" % (s, bad)
        details.append("A=%.3f bound %.2f" % (est.assouad, bound))
    return True, ("two 64-point clouds (%s) and their exhaustive 20-point subclouds: "
                  "greedy families, gamma(r) and witness interference under the growth "
                  "bound at r in %s" % ("; ".join(details), _R_VALUES))


def _check_interference_transfer(seed):
    for k in range(5):
        pts = random_points(24, seed + 11000 + k)
        space = gen_euclidean(pts, 3.0)
        z = compute_zeta(space)[1]
        quasi = quasi_distances(space, z)
        sys = LinkSystem(space, links=[(0, 1)])
        d_own = quasi.d[0, 1]
        R = 2.0 * d_own
        senders = [
            y for y in range(2, 24)
            if quasi.d[y, 0] >= 2.0 * R and quasi.d[y, 1] >= 0
        ]
        if not senders:
            continue
        at_r = interference_at(sys, senders, 1)
        at_s = interference_at(sys, senders, 0)
        if at_r > 2.0 ** z * at_s * (1 + 1e-9):
            return False, "receiver interference escaped the 2**zeta transfer"
    return True, "sender-to-receiver interference transfer held"


def _check_welzl_independence(seed):
    for n in range(4, 9):
        sp = gen_welzl(n)
        quasi = quasi_distances(sp, compute_zeta(sp)[1])
        size, members, exact = independence_at(sp, quasi, 0)
        if size != n + 1 or not exact or members != tuple(range(1, n + 2)):
            return False, "anchor independence %d (%s) at n=%d" % (size, members, n)
        radii = sorted(set(float(v) for v in sp.f.ravel() if v > 0))
        radii.append(2.0 * radii[-1])
        for y in range(sp.n):
            for t in radii:
                if not two_half_ball_cover(sp, y, t)[0]:
                    return False, "ball B(%d, %g) needs more than two halves at n=%d" % (y, t, n)
    return True, ("welzl chains n = 4..8: anchor independence n+1 on the chain, "
                  "two-half-ball covers at every node and scale")


def _check_dimensions_guards(seed):
    uni = DecaySpace(np.ones((16, 16)) - np.eye(16))
    quasi = quasi_distances(uni, 1.0)
    dim, _, _, _ = independence_dimension(uni, quasi, exact_limit=16)
    if dim != 1:
        return False, "uniform independence %d" % dim
    # every ball in a uniform space is a single point or everything,
    # and everything packs to one node at any finer scale
    est = assouad_estimate(uni, exact_limit=16)
    if est.assouad != 0.0 or not est.exact:
        return False, "uniform growth degree %.3f (exact %s)" % (est.assouad, est.exact)
    rep = fading_parameter(uni, 1.0, exact_limit=16)
    if rep.gamma != 15.0:
        return False, "uniform fading %.3f, not n-1" % rep.gamma
    two = DecaySpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    est2 = assouad_estimate(two)
    if est2.assouad != 0.0 or any(gq != 1 for _, gq in est2.samples):
        return False, "two-node estimate %.6f" % est2.assouad
    fitted = assouad_estimate(two, C=None)
    if fitted.assouad != 0.0 or fitted.C != 1.0:
        return False, "two-node fit %.6f at C=%.6f" % (fitted.assouad, fitted.C)
    worst = 0
    for k in range(100):
        space = gen_euclidean(random_points(20, seed + 80000 + k), 3.0)
        quasi = quasi_distances(space, compute_zeta(space)[1])
        d = quasi.d
        for x in range(20):
            guards = list(guard_set(space, quasi, x))
            worst = max(worst, len(guards))
            if not 1 <= len(guards) <= 6 or x in guards:
                return False, "guard set %s of node %d in cloud %d" % (guards, x, k)
            others = [v for v in range(20) if v != x]
            if not (d[np.ix_(others, guards)] <= d[others, x][:, None]).any(axis=1).all():
                return False, "guards of node %d miss a node in cloud %d" % (x, k)
    return True, ("uniform/two-node dimensions as expected; 100 planar clouds: every "
                  "guard set covers with 1..6 guards (max %d)" % worst)


def _check_monotone_power(seed):
    space = DecaySpace(np.array([[1.0, 50.0], [50.0, 4.0]]), mode="link-gain")

    def split(*powers):
        return is_monotone_power(LinkSystem(space, power=PowerAssignment.explicit(powers)))

    # received strength grows with length under square powers
    if split(1.0, 16.0) != (False, (0, 1)):
        return False, "square powers passed as monotone"
    if split(2.0, 1.0) != (False, (0, 1)):
        return False, "decreasing powers passed as monotone"
    if split(1.0, 2.0) != (True, None) or is_monotone_power(LinkSystem(space)) != (True, None):
        return False, "square-root or uniform powers failed"
    return True, "power monotonicity split the power laws correctly"


def _check_determinism_reports(seed):
    sys = random_link_system(9, seed + 13000, alpha=2.5)
    z = compute_zeta(sys.space)[1]

    def snapshot():
        res = capacity_uniform(sys, z)
        rep = fading_parameter(sys.space, 0.1, exact_limit=18)
        return dumps_canonical({
            "selected": list(res.selected),
            "gamma": rep.gamma,
            "witness": list(rep.witness_set),
        })

    a, b = snapshot(), snapshot()
    return a == b, "repeated runs serialize identically (%d bytes)" % len(a)


_CHECKS = sorted((name.removeprefix("_check_").replace("_", "-"), fn)
                 for name, fn in globals().items() if name.startswith("_check_"))


def run_verify(seed):
    """Run every registered check at seed; returns one item per check.

    An item is {"name", "ok", "detail"}, in registry order; a check that
    raises counts as a failed item rather than aborting the run. A seed
    that is negative or not a whole number raises ValueError before any
    check runs.
    """
    seed = _whole("seed", seed, "[0, inf)")
    items = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        items.append({"name": name, "ok": bool(ok), "detail": detail})
    return items
