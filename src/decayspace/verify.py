"""Built-in verification corpus.

run_verify exercises every capability on generated instances with
known answers and cross-checks the independent evaluation routes
against each other: greedy capacity against the exhaustive oracle,
affectance feasibility against direct SINR evaluation, graph
encodings against graph-side independent set search, estimated
dimensions against closed-form bounds. The report is deterministic
for a fixed seed and configuration, apart from the timing key.
"""

import math

import numpy as np

from . import __version__
from .spaces import (
    DecaySpace,
    compute_phi,
    compute_zeta,
    quasi_distances,
    validate_space,
)
from .links import (
    LinkSystem,
    PowerAssignment,
    SinrParams,
    affectance_matrix,
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
from .search import max_independent_set
from .io import dumps_canonical, load_space, load_system


def _check_metricity_planar(seed):
    worst = 0.0
    for alpha in (1.0, 2.5, 3.0):
        for k in range(2):
            pts = random_points(25, seed + k, plant_collinear=True)
            zr, z, _ = compute_zeta(gen_euclidean(pts, alpha))
            worst = max(worst, abs(z - alpha))
    return worst <= 1e-6, "max exponent recovery error %.3g" % worst


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
    pts = np.array(
        [[0, 0], [1, 0], [0, 0.5], [1, 0.5], [100, 0], [101, 0]], dtype=float
    )
    sys = LinkSystem(
        gen_euclidean(pts, 2.0),
        links=[(0, 1), (2, 3), (4, 5)],
        params=SinrParams(1.0, 0.0),
    )
    res = capacity_uniform(sys, zeta=2.0)
    opt, _ = capacity_oracle(sys)
    ok = res.selected == (0, 2) and res.intermediate == (0, 2) and opt == 3
    return ok, "selected=%s opt=%d ratio=%.2f" % (
        res.selected,
        opt,
        opt / max(1, len(res.selected)),
    )


def _check_capacity_soundness(seed):
    checked = 0
    for k in range(40):
        n = 3 + (k * 7 + seed) % 15
        sys = random_link_system(n, seed + 1000 + k, beta=1.0 + (k % 3) * 0.4,
                                 noise=0.02 * (k % 4), alpha=2.0 + 0.25 * (k % 5))
        z = compute_zeta(sys.space)[1]
        res = capacity_uniform(sys, z)
        if 2 * len(res.selected) < len(res.intermediate):
            return False, "halving failed on instance %d" % k
        if res.selected:
            ok, wit = is_feasible(sys, res.selected)
            if not ok:
                return False, "infeasible selection on instance %d (link %d)" % (k, wit)
            _, sinr = sinr_values(sys, res.selected)
            if not np.all(sinr >= sys.params.beta * (1 - 1e-9)):
                return False, "SINR re-check failed on instance %d" % k
            checked += 1
    return True, "%d selections feasible under direct SINR evaluation" % checked


def _check_capacity_oracle_ratio(seed):
    worst = 1.0
    for k in range(12):
        n = 4 + k % 6
        sys = random_link_system(n, seed + 2000 + k, alpha=2.5, box=3.0)
        z = compute_zeta(sys.space)[1]
        res = capacity_uniform(sys, z)
        opt, _ = capacity_oracle(sys)
        if len(res.selected) > opt:
            return False, "selection beat the oracle on instance %d" % k
        if res.selected:
            worst = max(worst, opt / len(res.selected))
    return True, "worst OPT/|S| ratio %.2f over 12 instances" % worst


def _check_hardness_equidecay(seed):
    for k in range(8):
        n, edges = random_graph(4 + k % 5, 0.4, seed + 3000 + k)
        sys = gen_equidecay_graph(n, edges)
        opt, members = capacity_oracle(sys)
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        mis, _ = max_independent_set(adj, exact_limit=n)
        if opt != len(mis):
            return False, "capacity %d != independence %d on graph %d" % (opt, len(mis), k)
        for i, j in edges:
            if not pairwise_power_infeasible(sys, i, j):
                return False, "edge (%d,%d) escaped the power certificate" % (i, j)
    return True, "capacity equals graph independence on 8 graphs"


def _check_hardness_twoline(seed):
    import itertools

    for k in range(5):
        n, edges = random_graph(4 + k % 3, 0.5, seed + 4000 + k)
        sys = gen_twoline(n, edges, alpha=2.5)
        adj = set()
        for i, j in edges:
            adj.add((min(i, j), max(i, j)))
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                indep = not any(
                    (min(a, b), max(a, b)) in adj
                    for a in combo for b in combo if a < b
                )
                feas = is_feasible(sys, combo)[0]
                if indep != feas:
                    return False, "subset %s: independent=%s feasible=%s" % (
                        combo, indep, feas,
                    )
        for i, j in edges:
            if not pairwise_power_infeasible(sys, i, j):
                return False, "edge (%d,%d) escaped the power certificate" % (i, j)
    return True, "feasibility matches independence on 5 graphs, all subsets"


def _check_partition_signal(seed):
    used = 0
    for k in range(10):
        sys = random_link_system(12, seed + 5000 + k, alpha=2.5, box=6.0)
        z = compute_zeta(sys.space)[1]
        S = capacity_uniform(sys, z).selected
        if len(S) < 2:
            continue
        part = signal_strengthen(sys, S, p=1.0, q=3.0)
        if len(part.classes) > part.bound or part.bound != 36:
            return False, "class bound violated on instance %d" % k
        if part.members() != tuple(sorted(S)):
            return False, "partition lost members on instance %d" % k
        for cls in part.classes:
            if not is_feasible(sys, cls, K=3.0)[0]:
                return False, "class not 3-feasible on instance %d" % k
        used += 1
    return used > 0, "%d feasible sets split into 3-feasible classes" % used


def _check_partition_separation(seed):
    used = 0
    for k in range(10):
        sys = random_link_system(14, seed + 6000 + k, alpha=2.5, box=8.0)
        z = compute_zeta(sys.space)[1]
        quasi = quasi_distances(sys.space, z)
        X = capacity_uniform(sys, z, quasi).intermediate
        if len(X) < 2:
            continue
        part = separation_strengthen(sys, quasi, X, tau=z / 2.0, eta=z)
        if len(part.classes) > part.bound:
            return False, "degeneracy bound violated on instance %d" % k
        for cls in part.classes:
            if not check_separation_set(sys, quasi, cls, z):
                return False, "class missed its separation level on instance %d" % k
        used += 1
    return used > 0, "%d separated sets widened from zeta/2 to zeta" % used


def _check_onezetasep(seed):
    applicable = 0
    for k in range(40):
        sys = random_link_system(10, seed + 7000 + k, alpha=2.5, box=10.0)
        z = compute_zeta(sys.space)[1]
        quasi = quasi_distances(sys.space, z)
        S = capacity_uniform(sys, z, quasi).selected
        if not S:
            continue
        target = math.e ** 2 / sys.params.beta
        if len(S) >= 2 and not is_feasible(sys, S, K=target)[0]:
            part = signal_strengthen(sys, S, p=1.0, q=target)
            S = max(part.classes, key=len)
        status, pair = check_onezetasep(sys, quasi, z, S)
        if status == "violation":
            return False, "separation violated by pair %s on instance %d" % (pair, k)
        if status == "ok" and len(S) >= 2:
            applicable += 1
    return applicable > 0, "%d strongly feasible sets all 1/zeta-separated" % applicable


def _check_amicable(seed):
    used = 0
    for k in range(8):
        sys = random_link_system(16, seed + 8000 + k, alpha=2.5, box=14.0)
        z = compute_zeta(sys.space)[1]
        quasi = quasi_distances(sys.space, z)
        S = capacity_uniform(sys, z, quasi).selected
        if not S:
            continue
        out, diag = amicable_subset(sys, quasi, z, S)
        if 2 * len(out) < diag["stage2_size"]:
            return False, "survivor count fell below half on instance %d" % k
        used += 1
    return used > 0, "amicable pipeline kept half the class on %d instances" % used


def _check_fading_values(seed):
    err = abs(zeta_hat(2.0) - math.pi ** 2 / 6.0)
    if err > 1e-9:
        return False, "zeta_hat(2) off by %.2g" % err
    b = fading_bound(1.0, 0.5)
    if abs(b - 4.5605) > 1e-3:
        return False, "fading_bound(1, 0.5) = %.6f" % b
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
    if abs(rep.gamma - 1.25) > 1e-12:
        return False, "star parameter %.6f" % rep.gamma
    two = DecaySpace(np.array([[0.0, 5.0], [5.0, 0.0]]))
    if abs(fading_parameter(two, 1.0).gamma - 0.2) > 1e-12:
        return False, "two-node fading wrong"
    big = fading_parameter(two, 6.0)
    if big.gamma != 0.0 or big.witness_set != ():
        return False, "separation beyond every decay should empty the witness"
    return True, "star per-node and parameter values exact"


def _check_fading_annulus(seed):
    for k in range(2):
        pts = random_points(20, seed + 9000 + k)
        space = gen_euclidean(pts, 3.0)
        est = assouad_estimate(space, C=None)
        if est.assouad >= 1.0:
            return False, "growth degree %.3f leaves the convergent range" % est.assouad
        bound = fading_bound(est.C, est.assouad)
        for r in (0.05, 0.2, 1.0):
            rep = fading_parameter(space, r, exact_limit=20)
            if rep.exact and rep.gamma > bound + 1e-9:
                return False, "gamma(%.2f)=%.4f exceeds bound %.4f" % (r, rep.gamma, bound)
            if rep.witness_set:
                sys = LinkSystem(space, links=[(0, 1)], params=SinrParams())
                for x in rep.witness_set:
                    senders = [y for y in rep.witness_set if y != x]
                    if not senders:
                        continue
                    if interference_at(sys, senders, x) > bound * 1.0 / r + 1e-9:
                        return False, "interference at node %d broke the annulus bound" % x
    return True, "fading stayed under the packing-growth bound"


def _check_interference_transfer(seed):
    for k in range(5):
        pts = random_points(24, seed + 11000 + k)
        space = gen_euclidean(pts, 3.0)
        z = compute_zeta(space)[1]
        quasi = quasi_distances(space, z)
        sys = LinkSystem(space, links=[(0, 1)], params=SinrParams())
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


def _check_welzl(seed):
    for n in (4, 5):
        sp = gen_welzl(n)
        z = compute_zeta(sp)[1]
        quasi = quasi_distances(sp, z)
        size, members, exact = independence_at(sp, quasi, 0)
        if size != n + 1 or not exact:
            return False, "anchor independence %d at n=%d" % (size, n)
        for i in range(1, n + 1):
            ok, _ = two_half_ball_cover(sp, 0, 2.0 ** i)
            if not ok:
                return False, "ball at scale 2**%d needs more than two halves" % i
    return True, "chain independence n+1 and two-half-ball covers hold"


def _check_dimensions(seed):
    uni = DecaySpace(np.ones((16, 16)) - np.eye(16))
    quasi = quasi_distances(uni, 1.0)
    dim, _, _, _ = independence_dimension(uni, quasi, exact_limit=16)
    if dim != 1:
        return False, "uniform independence %d" % dim
    est = assouad_estimate(uni, exact_limit=16)
    if est.assouad != 0.0:
        return False, "uniform growth degree %.3f" % est.assouad
    rep = fading_parameter(uni, 1.0, exact_limit=16)
    if rep.gamma != 15.0:
        return False, "uniform fading %.3f, not n-1" % rep.gamma
    two = DecaySpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    est2 = assouad_estimate(two)
    if est2.assouad != 0.0 or any(gq != 1 for _, gq in est2.samples):
        return False, "two-node estimate %.6f" % est2.assouad
    worst = 0
    for k in range(5):
        pts = random_points(20, seed + 12000 + k)
        space = gen_euclidean(pts, 3.0)
        z = compute_zeta(space)[1]
        q = quasi_distances(space, z)
        for x in range(space.n):
            worst = max(worst, len(guard_set(space, q, x)))
    if worst > 6:
        return False, "a planar guard set needed %d guards" % worst
    return True, "uniform/two-node dimensions and planar guards (max %d) as expected" % worst


def _check_monotone_power(seed):
    f = np.array([[1.0, 50.0], [50.0, 4.0]])
    sq = LinkSystem(DecaySpace(f, mode="link-gain"),
                    power=PowerAssignment.explicit([1.0, 16.0]))
    ok1, pair = is_monotone_power(sq)
    root = LinkSystem(DecaySpace(f, mode="link-gain"),
                      power=PowerAssignment.explicit([1.0, 2.0]))
    ok2, _ = is_monotone_power(root)
    uni = LinkSystem(DecaySpace(f, mode="link-gain"))
    ok3, _ = is_monotone_power(uni)
    if ok1 or pair != (0, 1):
        return False, "square powers passed as monotone"
    if not (ok2 and ok3):
        return False, "square-root or uniform powers failed"
    return True, "power monotonicity split the power laws correctly"


def _check_determinism(seed):
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


_CHECKS = [
    ("amicable-pipeline", _check_amicable),
    ("capacity-handtrace", _check_capacity_handtrace),
    ("capacity-oracle-ratio", _check_capacity_oracle_ratio),
    ("capacity-soundness", _check_capacity_soundness),
    ("determinism-reports", _check_determinism),
    ("dimensions-guards", _check_dimensions),
    ("fading-annulus", _check_fading_annulus),
    ("fading-star", _check_fading_star),
    ("fading-values", _check_fading_values),
    ("hardness-equidecay", _check_hardness_equidecay),
    ("hardness-twoline", _check_hardness_twoline),
    ("interference-transfer", _check_interference_transfer),
    ("metricity-planar", _check_metricity_planar),
    ("metricity-threepoint", _check_metricity_threepoint),
    ("monotone-power", _check_monotone_power),
    ("onezetasep", _check_onezetasep),
    ("partition-separation", _check_partition_separation),
    ("partition-signal", _check_partition_signal),
    ("quasi-triangle", _check_quasi_triangle),
    ("welzl-independence", _check_welzl),
]


def _verify_files(paths):
    items = []
    for path in paths:
        name = "file:%s" % path
        try:
            if path.endswith(".json"):
                try:
                    obj = load_system(path)
                    space = obj.space
                except (ValueError, KeyError):
                    space = load_space(path)
            else:
                space = load_space(path)
            res = validate_space(space)
            if not res.ok:
                items.append({
                    "name": name, "ok": False,
                    "detail": "axiom violations: %s" % res.violations[:3],
                })
                continue
            zr, z, _ = compute_zeta(space)
            if math.isfinite(z):
                quasi_distances(space, z, check=space.mode == "node-space")
            items.append({
                "name": name, "ok": True,
                "detail": "valid, zeta=%.6g" % z,
            })
        except (OSError, ValueError) as exc:
            items.append({"name": name, "ok": False, "detail": str(exc)})
    return items


def run_verify(seed=0, corpus="builtin"):
    """Run the verification corpus; returns a report dict.

    corpus is "builtin" or a list of space/system file paths. The
    report is deterministic for fixed inputs, items sorted by name.
    """
    if corpus == "builtin":
        items = []
        for name, fn in _CHECKS:
            try:
                ok, detail = fn(seed)
            except Exception as exc:  # a crash is a failure, not an abort
                ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
            items.append({"name": name, "ok": bool(ok), "detail": detail})
    else:
        items = _verify_files(list(corpus))
    items.sort(key=lambda it: it["name"])
    return {
        "command": "verify",
        "version": __version__,
        "config": {"seed": int(seed), "corpus": "builtin" if corpus == "builtin" else list(corpus)},
        "items": items,
        "ok": all(it["ok"] for it in items),
    }
