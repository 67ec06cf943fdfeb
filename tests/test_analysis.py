"""Packing, dimension estimates, fading and the annulus machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
from decayspace.search import max_independent_set


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


def test_packing_number_line():
    sp = line_space(5)
    count, exact, members = packing_number(sp, range(5), 1.0)
    assert (count, exact) == (2, True)
    assert members == (0, 3)  # gaps must strictly exceed 2
    tiny_count, _, _ = packing_number(sp, range(5), 1e-9)
    assert tiny_count == 5
    single = packing_number(sp, [3], 5.0)
    assert single == (1, True, (3,))


def sym_space(seed, n):
    # symmetric decays drawn from uniform(0.5, 10), zero diagonal
    f = np.random.default_rng(seed).uniform(0.5, 10.0, size=(n, n))
    f = (f + f.T) / 2.0
    np.fill_diagonal(f, 0.0)
    return DecaySpace(f)


@settings(deadline=None, max_examples=40)
@given(st.builds(sym_space, st.integers(0, 10 ** 6), st.integers(4, 8)),
       st.floats(0.1, 5.0).map(lambda t: (t, 2 * t, 4 * t)))
@example(line_space(9), (0.01, 0.5, 1.0, 2.0, 4.0))
def test_packing_number_monotone_in_scale(sp, scales):
    packings = [packing_number(sp, range(sp.n), t) for t in scales]
    counts = [count for count, _, _ in packings]
    assert counts == sorted(counts, reverse=True)
    for t, (count, exact, members) in zip(scales, packings):
        assert exact and count == len(members)
        for a, b in itertools.combinations(members, 2):
            assert min(sp.f[a, b], sp.f[b, a]) > 2 * t


def test_packing_number_greedy_fallback():
    sp = line_space(5)
    count, exact, members = packing_number(sp, range(5), 1.0, exact_limit=2)
    assert not exact
    assert count == 2 and members == (0, 3)  # greedy by index finds the same pair


def test_packing_number_rejects_bad_inputs():
    sp = line_space(3)
    with pytest.raises(ValueError):
        packing_number(sp, [], 1.0)


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
    for C in (1.0, None):
        with pytest.raises(ValueError, match="q_grid must not be empty"):
            assouad_estimate(sp, C=C, q_grid=())
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
    # decays rounded up to quarters: one radius adds several nodes to a ball
    "tied": lambda: (DecaySpace(np.ceil(gen_euclidean(random_points(14, 7), 3.0).f * 4.0) / 4.0),
                     {"C": None}),
    "shadowed-greedy-0": lambda: (shadowed_cloud(12, 5), {"exact_limit": 0}),
    "shadowed-greedy-3": lambda: (shadowed_cloud(12, 5), {"exact_limit": 3}),
    "unsorted-q": lambda: (shadowed_cloud(12, 6), {"C": 2.0, "q_grid": (4.0, 1.5, 8.0, 1.5, 2.0)}),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_assouad_matches_per_call_reference(case):
    space, kw = _REFERENCE_CASES[case]()
    fast, slow = assouad_estimate(space, **kw), ref.assouad_estimate(space, **kw)
    assert fast.samples == slow.samples and fast.exact == slow.exact
    assert fast.C == slow.C and fast.assouad == slow.assouad
    assert fast.r_grid == slow.r_grid
    if case.startswith(("greedy", "shadowed-greedy")):
        assert not fast.exact
    if case == "tied":
        assert any(len(set(col)) < space.n for col in space.f.T)
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
    # cliques of one ball stay cliques of every later ball of the sweep,
    # when each ball adds its new nodes by their rows at its own threshold
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
        for k, masks, rows, conflict in zip(sizes.tolist(), analysis._neighbor_masks(stack),
                                            search._bit_rows(stack), conflicts):
            if cliques and k > seen:
                # a partition already over stop stops at the first node offered
                assert search._first_fit_cliques(list(cliques), rows, range(seen, k),
                                                 len(cliques) - 1) == seen
            assert search._first_fit_cliques(cliques, rows, range(seen, k)) is None
            seen = k
            assert _is_clique_partition(cliques, conflict, k)
            rebuilt, counts = [], []
            for v in range(k):
                search._first_fit_cliques(rebuilt, masks, (v,))
                counts.append(len(rebuilt))
            assert _is_clique_partition(rebuilt, conflict, k)
            assert len(rebuilt) >= len(max_independent_set(conflict[:k, :k], k)[0])
            # the stop rule returns the node after which the count first exceeds stop
            for stop in range(len(rebuilt) + 1):
                want = next((v for v, c in enumerate(counts) if c > stop), None)
                assert search._first_fit_cliques([], masks, range(k), stop) == want


def test_exact_search_work_stays_below_the_index_order_bound(monkeypatch):
    # work counts on the first fit and mwis instances of the growth
    # benchmark; before the weight-ordered cover and the carried clique
    # partition the estimate ran 2573 searches with 3398 bound
    # evaluations, one per ball holding more than g(q) nodes, and the
    # fading search made 13154 bound evaluations; with them, 82 searches
    # with 791 evaluations, and 4728 evaluations. A ball's full k x k
    # masks are built only to rebuild its partition (a first fit over all
    # its nodes with no stop); the entry rows of their new nodes settle
    # the other balls, and the searches stay the same 82
    runs, bounds, builds, rebuilt = [], [], [], []
    branch, cover = analysis._branch, search._cover
    build, first_fit = analysis._neighbor_masks, analysis._first_fit_cliques
    monkeypatch.setattr(analysis, "_branch", lambda *a: runs.append(1) or branch(*a))
    monkeypatch.setattr(search, "_cover", lambda *a: bounds.append(1) or cover(*a))
    monkeypatch.setattr(analysis, "_neighbor_masks", lambda c: builds.append(c.shape) or build(c))
    monkeypatch.setattr(analysis, "_first_fit_cliques", lambda c, m, nodes, stop=math.inf: (
        stop == math.inf and rebuilt.append(len(nodes))) or first_fit(c, m, nodes, stop))
    est = assouad_estimate(gen_euclidean(random_points(24, 10000), 3.0), C=None)
    assert est.exact and est.samples == [(1.5, 4), (2.0, 4), (3.0, 5), (4.0, 5), (8.0, 6),
                                         (16.0, 8)]
    assert len(runs) == 82 and len(bounds) < 3398
    assert builds == [(k, k) for k in rebuilt]
    assert len(runs) < len(rebuilt) < 2573 // 10
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
    # every bool matrix the estimate packs holds at most max(2**18, k * k)
    # entries: a block of scales' entry rows, a rebuilt ball's k x k
    # masks and a block of greedy balls' stack
    rows, masks = [], []
    pack = search._bit_rows
    monkeypatch.setattr(analysis, "_bit_rows", lambda b: rows.append(b.shape) or pack(b))
    monkeypatch.setattr(search, "_bit_rows", lambda b: masks.append(b.shape) or pack(b))
    # with 200 scales a center's entry rows come in more than one block
    est = assouad_estimate(gen_euclidean(random_points(24, 1), 3.0),
                           q_grid=tuple(np.linspace(1.1, 16.0, 200)))
    assert est.exact and len(rows) > 24
    assert masks and all(len(shape) == 2 for shape in masks)  # rebuilt balls only
    # past exact_limit a center's greedy balls come in more than one
    # stack; on near-uniform decays every packing is one node
    n, rebuilt = 100, len(masks)
    est = assouad_estimate(near_uniform_space(n), q_grid=(1.5,), exact_limit=n // 2)
    assert est.samples == [(1.5, 1)] and not est.exact
    assert sum(len(shape) == 3 for shape in masks[rebuilt:]) > n
    assert all(math.prod(shape) <= max(1 << 18, shape[-2] * shape[-1]) for shape in rows + masks)


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
    with pytest.raises(ValueError):
        fading_parameter(DecaySpace(np.empty((0, 0)), mode="link-gain"), 1.0)


def test_zeta_hat_against_scipy():
    for s in (1.1, 1.5, 2.0, 3.0, 7.5):
        assert abs(zeta_hat(s) - scipy_zeta(s)) <= 1e-9


def test_fading_bound_closed_forms():
    for C, A in ((1.0, 0.5), (3.0, 0.25), (0.5, 0.9)):
        want = C * 2.0 ** (A + 1.0) * (scipy_zeta(2.0 - A) - 1.0)
        assert abs(fading_bound(C, A) - want) <= 1e-9
    with pytest.raises(ValueError, match="diverges"):
        fading_bound(1.0, 1.0)


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
