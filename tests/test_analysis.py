"""Packing, dimension estimates, fading and the annulus machinery."""

import math

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

import analysis_reference as ref
from decayspace import analysis, search
from decayspace import (
    DecaySpace,
    assouad_estimate,
    ball,
    fading_bound,
    fading_parameter,
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    guard_set,
    independence_at,
    independence_dimension,
    packing_number,
    quasi_distances,
    random_graph,
    random_points,
    two_half_ball_cover,
    zeta_hat,
)
from decayspace.search import max_independent_set, max_weight_independent_set


def uniform_space(n):
    return DecaySpace(np.ones((n, n)) - np.eye(n))


def line_space(n):
    # integer points on a line under alpha = 1, so decays are |i - j|
    pts = np.array([[float(i), 0.0] for i in range(n)])
    return gen_euclidean(pts, 1.0)


def test_ball_is_strict():
    sp = uniform_space(4)
    # the center sits at decay zero, the unit shell is excluded strictly
    assert ball(sp, 0, 1.0) == (0,)
    assert ball(sp, 0, 1.0 + 1e-9) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        ball(sp, 0, 0.0)
    with pytest.raises(ValueError):
        ball(sp, 9, 1.0)


def test_packing_number_line():
    sp = line_space(5)
    count, exact, members = packing_number(sp, range(5), 1.0)
    assert (count, exact) == (2, True)
    assert members == (0, 3)  # gaps must strictly exceed 2
    tiny_count, _, _ = packing_number(sp, range(5), 1e-9)
    assert tiny_count == 5
    single = packing_number(sp, [3], 5.0)
    assert single == (1, True, (3,))


def test_packing_number_monotone_in_scale():
    sp = line_space(9)
    counts = [packing_number(sp, range(9), t)[0] for t in (0.01, 0.5, 1.0, 2.0, 4.0)]
    assert counts == sorted(counts, reverse=True)


def test_packing_number_greedy_fallback():
    sp = line_space(5)
    count, exact, members = packing_number(sp, range(5), 1.0, exact_limit=2)
    assert not exact
    assert count == 2 and members == (0, 3)  # greedy by index finds the same pair


def test_packing_number_rejects_bad_inputs():
    sp = line_space(3)
    with pytest.raises(ValueError):
        packing_number(sp, [], 1.0)
    with pytest.raises(ValueError):
        packing_number(sp, [0, 1], 0.0)


def test_every_node_argument_is_checked_alike():
    sp = line_space(4)
    quasi = quasi_distances(sp, 1.0)
    for call in (lambda y: ball(sp, y, 1.0),
                 lambda y: packing_number(sp, [1, y], 1.0),
                 lambda y: independence_at(sp, quasi, y),
                 lambda y: guard_set(sp, quasi, y)):
        for y in (-1, sp.n):
            with pytest.raises(ValueError, match="node %d out of range" % y):
                call(y)


def test_every_exact_limit_argument_is_checked_alike():
    # a negative limit made every search greedy, and NaN every one exact
    sp, one = line_space(4), line_space(1)
    quasi, one_quasi = quasi_distances(sp, 1.0), quasi_distances(one, 1.0)
    conflict, ones = np.zeros((3, 3), dtype=bool), np.ones(3)
    calls = {
        "max_independent_set": lambda k: max_independent_set(conflict, k),
        "max_weight_independent_set": lambda k: max_weight_independent_set(ones, conflict, k),
        "packing_number": lambda k: packing_number(sp, range(4), 1.0, exact_limit=k),
        "independence_at": lambda k: independence_at(sp, quasi, 0, exact_limit=k),
        "independence_dimension": lambda k: independence_dimension(sp, quasi, exact_limit=k),
        "fading_parameter": lambda k: fading_parameter(sp, 1.0, exact_limit=k),
        "fading_parameter with no candidates": lambda k: fading_parameter(sp, 1e9, exact_limit=k),
        "independence_at of one node": lambda k: independence_at(one, one_quasi, 0, exact_limit=k),
        "assouad_estimate": lambda k: assouad_estimate(sp, exact_limit=k),
    }
    for name, call in calls.items():
        call(0)
        for k in (-1, math.nan, 1.5, True):
            with pytest.raises(ValueError, match="exact_limit must be an integer >= 0"):
                call(k)
                pytest.fail("%s accepted %r" % (name, k))
    for w in (-1.0, math.nan):  # weights are guarded alike: NaN fails "weights >= 0"
        with pytest.raises(ValueError, match="weights must be non-negative"):
            max_weight_independent_set([w, 1.0], conflict[:2, :2])


def test_assouad_fitted_frozen_cloud():
    sp = gen_euclidean(random_points(20, 42), 3.0)
    est = assouad_estimate(sp, C=None)
    assert est.exact
    assert est.samples == [(1.5, 3), (2.0, 3), (3.0, 4), (4.0, 4), (8.0, 5), (16.0, 6)]
    assert est.assouad == pytest.approx(0.305027836146, abs=1e-9)
    assert est.C == pytest.approx(2.62826051674, abs=1e-9)


def test_assouad_literal_mode_matches_formula():
    sp = gen_euclidean(random_points(20, 42), 3.0)
    est = assouad_estimate(sp, C=1.0)
    want = max(math.log(g) / math.log(q) for q, g in est.samples)
    assert est.assouad == want
    assert est.C == 1.0


def test_assouad_rejects_bad_inputs():
    sp = line_space(3)
    with pytest.raises(ValueError):
        assouad_estimate(sp, C=0.0)
    with pytest.raises(ValueError, match="finite"):
        assouad_estimate(sp, C=math.inf)
    with pytest.raises(ValueError):
        assouad_estimate(sp, q_grid=(1.0, 2.0))
    for C in (1.0, None):
        for q_grid in ((), (2.0, math.inf), (2.0, math.nan)):
            with pytest.raises(ValueError, match="non-empty grid of finite q > 1"):
                assouad_estimate(sp, C=C, q_grid=q_grid)
    # a fit needs two distinct scales; a fixed C needs only one
    for q_grid in ((2.0,), (2.0, 2.0)):
        with pytest.raises(ValueError, match="two distinct q"):
            assouad_estimate(sp, C=None, q_grid=q_grid)
        assert assouad_estimate(sp, C=1.0, q_grid=q_grid).samples == [(2.0, 1)] * len(q_grid)
    with pytest.raises(ValueError):
        assouad_estimate(DecaySpace(np.empty((0, 0)), mode="link-gain"))


def shadowed_cloud(n, seed):
    # alpha = 3 cloud under independent log-normal shadowing per direction
    base = gen_euclidean(random_points(n, seed), 3.0)
    g = np.random.default_rng([seed, 1]).normal(0.0, 1.0, size=(n, n))
    return DecaySpace(base.f * np.exp(g))


def integer_grid(m):
    return gen_euclidean(np.array([[float(i), float(j)] for i in range(m) for j in range(m)]), 2.0)


def near_uniform_space(n):
    # decays in [1, 1.1): at q = 1.5 every pair conflicts, so every packing is one node
    f = 1.0 + 0.1 * np.random.default_rng(0).random((n, n))
    np.fill_diagonal(f, 0.0)
    return DecaySpace(f)


_REFERENCE_CASES = {
    "shadowed": lambda: (shadowed_cloud(16, 3), {}),
    "shadowed-fit": lambda: (shadowed_cloud(20, 4), {"C": None}),
    "uniform": lambda: (uniform_space(12), {"exact_limit": 12}),
    "grid": lambda: (integer_grid(4), {"C": None}),
    "grid-fit": lambda: (integer_grid(5), {"C": None, "exact_limit": 30}),
    "line": lambda: (line_space(12), {"C": 2.0}),
    "link-gain-graph": lambda: (gen_equidecay_graph(*random_graph(12, 0.4, 5)).space, {"C": None}),
    "link-gain-random": lambda: (DecaySpace(np.random.default_rng(8).uniform(0.5, 5.0, (14, 14)),
                                            mode="link-gain"), {"C": None}),
    "greedy": lambda: (gen_euclidean(random_points(20, 9), 3.0), {"C": None, "exact_limit": 6}),
    # every ball past exact_limit fails the bound, yet the estimate is inexact
    "greedy-bound": lambda: (near_uniform_space(12), {"q_grid": (1.5,), "exact_limit": 4}),
    "multi-word": lambda: (gen_euclidean(random_points(66, 2), 3.0),
                           {"C": None, "q_grid": (1.5, 2.0), "exact_limit": 66}),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_assouad_matches_per_call_reference(case):
    space, kw = _REFERENCE_CASES[case]()
    fast, slow = assouad_estimate(space, **kw), ref.assouad_estimate(space, **kw)
    assert fast.samples == slow.samples and fast.exact == slow.exact
    assert fast.C == slow.C and fast.assouad == slow.assouad
    assert fast.r_grid == slow.r_grid
    if case in ("greedy", "greedy-bound"):
        assert not fast.exact
    if case == "multi-word":
        assert fast.exact and max(g for _, g in fast.samples) > 1


def test_assouad_searches_only_balls_its_clique_partition_leaves_open(monkeypatch):
    # the per-call reference packs every ball that holds more than g(q)
    # nodes by one packing_number call; the estimate never calls
    # packing_number, and searches only the balls whose clique partition
    # still has more than g(q) cliques when it is rebuilt on the ball
    space = gen_euclidean(random_points(16, 4), 3.0)
    balls, packings, searches = [], [], []
    pack, branch = ref.packing_number, analysis._branch
    monkeypatch.setattr(ref, "packing_number", lambda *a: balls.append(a) or pack(*a))
    want = ref.assouad_estimate(space, C=None, exact_limit=16)
    monkeypatch.setattr(analysis, "packing_number", lambda *a: packings.append(a) or pack(*a))
    monkeypatch.setattr(analysis, "_branch",
                        lambda m, w, floor: searches.append((len(m), floor)) or branch(m, w, floor))
    est = assouad_estimate(space, C=None, exact_limit=16)
    assert est.samples == want.samples and est.exact
    assert packings == []
    assert all(k > floor for k, floor in searches)
    assert 0 < len(searches) < len(balls)


def _is_clique_partition(cliques, conflict, k):
    members = [[v for v in range(k) if c >> v & 1] for c in cliques]
    return (sorted(v for m in members for v in m) == list(range(k))
            and all(conflict[a, b] for m in members for a in m for b in m if a != b))


def test_first_fit_cliques_stay_a_partition_along_a_sweep():
    # a sweep's balls are prefixes under growing conflict thresholds, so
    # cliques of one ball stay cliques of every later ball of the sweep
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = 1 + trial % 20
        d = rng.random((n, n))
        S = np.minimum(d, d.T)
        thresholds = np.sort(rng.random(4))
        sizes = np.sort(rng.integers(0, n + 1, 4))
        stack = analysis._packing_conflicts(S, thresholds / 2.0)
        conflicts = stack | np.swapaxes(stack, 1, 2)
        cliques, seen = [], 0
        for k, masks, conflict in zip(sizes.tolist(), analysis._neighbor_masks(stack), conflicts):
            search._first_fit_cliques(cliques, masks, range(seen, k))
            seen = k
            assert _is_clique_partition(cliques, conflict, k)
            rebuilt = search._first_fit_cliques([], masks, range(k))
            assert _is_clique_partition(rebuilt, conflict, k)
            assert len(rebuilt) >= len(max_independent_set(conflict[:k, :k], k)[0])


def test_exact_search_work_stays_below_the_index_order_bound(monkeypatch):
    # work counts on the first fit and mwis instances of the growth
    # benchmark; before the weight-ordered cover and the carried clique
    # partition the estimate ran 2573 searches with 3398 bound
    # evaluations, and the fading search made 13154 bound evaluations;
    # with them, 82 searches with 791 evaluations, and 4728 evaluations
    runs, bounds = [], []
    branch, cover = analysis._branch, search._cover
    monkeypatch.setattr(analysis, "_branch", lambda *a: runs.append(1) or branch(*a))
    monkeypatch.setattr(search, "_cover", lambda *a: bounds.append(1) or cover(*a))
    est = assouad_estimate(gen_euclidean(random_points(24, 10000), 3.0), C=None)
    assert est.exact and est.samples == [(1.5, 4), (2.0, 4), (3.0, 5), (4.0, 5), (8.0, 6),
                                         (16.0, 8)]
    assert len(runs) < 2573 and len(bounds) < 3398
    bounds.clear()
    rep = fading_parameter(gen_euclidean(random_points(32, 20000), 3.0), 0.02, exact_limit=32)
    assert rep.exact and rep.gamma == 2.9625632311718038
    assert rep.witness_set == (1, 2, 5, 6, 10, 16, 18, 19, 21, 24)
    assert len(bounds) < 13154


def test_assouad_conflict_stacks_stay_bounded(monkeypatch):
    for count, k in ((1, 1), (500, 1), (500, 63), (500, 64), (500, 65), (300, 129), (3, 4000)):
        blocks = analysis._stack_blocks(count, k)
        assert blocks[0][0] == 0 and blocks[-1][1] == count
        assert all(b0 == a1 for (_, a1), (b0, _) in zip(blocks, blocks[1:]))
        padded = k * (-(-k // 64) * 64)
        assert all((j1 - j0) * padded <= max(1 << 18, padded) for j0, j1 in blocks)
    # every stack the estimate builds obeys the same bound; with every
    # packing one node the searches end at the root
    shapes = []
    build = analysis._neighbor_masks
    monkeypatch.setattr(analysis, "_neighbor_masks", lambda c: shapes.append(c.shape) or build(c))
    n = 100
    est = assouad_estimate(near_uniform_space(n), q_grid=(1.5,), exact_limit=n)
    assert est.samples == [(1.5, 1)] and est.exact
    assert len(shapes) > n  # more than one block per center
    assert all(b * k * k <= max(1 << 18, k * k) for b, k, _ in shapes)


def test_fading_quasi_knob_at_unit_exponent():
    # a metric space rescaled at zeta = 1 keeps the same separations
    star = gen_star(4, 1.0)
    quasi = quasi_distances(star, 1.0, check=False)
    plain = fading_parameter(star, 1.0)
    knob = fading_parameter(star, 1.0, quasi=quasi)
    assert knob.gamma == plain.gamma
    assert knob.per_node == plain.per_node


def test_fading_greedy_fallback_flagged():
    rep = fading_parameter(uniform_space(30), 1.0, exact_limit=5)
    assert not rep.exact
    assert rep.gamma == 29.0  # conflict-free candidates, greedy takes all


def test_fading_rejects_bad_inputs():
    two = DecaySpace(np.array([[0.0, 5.0], [5.0, 0.0]]))
    with pytest.raises(ValueError):
        fading_parameter(two, 0.0)
    with pytest.raises(ValueError):
        fading_parameter(DecaySpace(np.empty((0, 0)), mode="link-gain"), 1.0)


def test_zeta_hat_against_scipy():
    for s in (1.1, 1.5, 2.0, 3.0, 7.5):
        assert abs(zeta_hat(s) - scipy_zeta(s)) <= 1e-9
    with pytest.raises(ValueError):
        zeta_hat(1.0)
    with pytest.raises(ValueError):
        zeta_hat(2.0, tol=0.0)


def test_fading_bound_closed_forms():
    for C, A in ((1.0, 0.5), (3.0, 0.25), (0.5, 0.9)):
        want = C * 2.0 ** (A + 1.0) * (scipy_zeta(2.0 - A) - 1.0)
        assert abs(fading_bound(C, A) - want) <= 1e-9
    with pytest.raises(ValueError):
        fading_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        fading_bound(0.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        fading_bound(math.inf, 0.5)


def test_zeta_hat_requires_finite_s():
    # the tail term s * M**(-s - 1) is inf * 0 = nan at s = inf
    for s in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite s > 1"):
            zeta_hat(s)


def test_fading_bound_requires_finite_degree():
    # A = -inf reached zeta_hat(inf) and returned nan
    for A in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            fading_bound(1.0, A)


def test_independence_uniform_is_one():
    sp = uniform_space(10)
    quasi = quasi_distances(sp, 1.0)
    dim, center, members, exact = independence_dimension(sp, quasi)
    assert dim == 1 and center == 0 and exact
    single = DecaySpace(np.zeros((1, 1)))
    assert independence_at(single, quasi_distances(single, 1.0), 0) == (0, (), True)
    with pytest.raises(ValueError):
        independence_at(sp, quasi, 99)


def test_guard_set_uniform_needs_one():
    sp = uniform_space(8)
    quasi = quasi_distances(sp, 1.0)
    assert len(guard_set(sp, quasi, 0)) == 1
    with pytest.raises(ValueError):
        guard_set(sp, quasi, 99)


def test_two_half_ball_cover():
    assert two_half_ball_cover(uniform_space(2), 0, 1.5) == (True, (0, 1))
    assert two_half_ball_cover(uniform_space(1), 0, 1.0) == (True, (0, 0))
    lone = DecaySpace(np.array([[2.0]]), mode="link-gain")
    assert two_half_ball_cover(lone, 0, 1.0) == (True, None)  # empty ball
    # three-plus mutually far nodes cannot fit into two half-balls
    assert two_half_ball_cover(uniform_space(4), 0, 1.1) == (False, None)
