"""Affectance, feasibility and link geometry on hand-checkable systems."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decayspace import (
    DecaySpace,
    LinkSystem,
    PowerAssignment,
    QuasiMetric,
    SinrParams,
    affectance,
    affectance_matrix,
    aggregate_affectance,
    amicable_subset,
    capacity_oracle,
    capacity_uniform,
    check_onezetasep,
    check_separation,
    check_separation_set,
    drowned_links,
    fading_parameter,
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    guard_set,
    independence_at,
    interference_at,
    is_feasible,
    link_distance,
    link_distance_matrix,
    pairwise_power_infeasible,
    quasi_distances,
    random_link_system,
    random_points,
    separation_strengthen,
    signal_strengthen,
    sinr_values,
)
from decayspace.links import _separation_violation

import links_reference as ref

seeds = st.integers(0, 10 ** 6)


def pair_system(f01=4.0, f10=2.0, beta=1.0, noise=0.0, power=None):
    f = np.array([[1.0, f01], [f10, 1.0]])
    return LinkSystem(
        DecaySpace(f, mode="link-gain"),
        params=SinrParams(beta, noise),
        power=power,
    )


def test_affectance_closed_form():
    sys_ = pair_system()
    assert affectance(sys_, 0, 1) == 0.25  # own decay 1 over cross decay 4
    assert affectance(sys_, 1, 0) == 0.5
    assert affectance(sys_, 0, 0) == 0.0
    # raw affectance 2 is capped at 1
    near = pair_system(f01=0.5)
    assert affectance(near, 0, 1) == 1.0
    assert affectance_matrix(near, capped=False)[0, 1] == 2.0


def test_affectance_noise_margin():
    # c = beta / (1 - beta*N*f_vv/P) doubles at half margin
    sys_ = pair_system(noise=0.5)
    assert affectance(sys_, 0, 1) == 0.5
    assert affectance(sys_, 1, 0) == 1.0


def test_affectance_explicit_powers():
    sys_ = pair_system(power=PowerAssignment.explicit([2.0, 1.0]))
    assert affectance(sys_, 0, 1) == 0.5
    assert affectance(sys_, 1, 0) == 0.25


@settings(deadline=None, max_examples=30)
@given(seeds.map(lambda seed: random_link_system(7, seed, box=3.0)))
@example(pair_system(f01=0.5))
def test_affectance_cap_and_raw(sys_):
    capped = affectance_matrix(sys_)
    assert np.all(capped <= affectance_matrix(sys_, capped=False))
    assert np.all(capped <= 1.0)


def test_drowned_links():
    f = np.array([[1.0, 10.0], [10.0, 5.0]])
    sys_ = LinkSystem(DecaySpace(f, mode="link-gain"), params=SinrParams(1.0, 0.4))
    assert drowned_links(sys_) == (1,)
    with pytest.raises(ValueError):
        affectance(sys_, 0, 1)  # onto a drowned link
    affectance(sys_, 1, 0)  # from one is still defined
    assert np.isnan(affectance_matrix(sys_)[0, 1])
    assert np.isfinite(affectance_matrix(sys_)[1, 0])
    assert is_feasible(sys_, [1]) == (False, 1)
    assert is_feasible(sys_, [0])[0]


def test_feasibility_levels():
    sys_ = gen_equidecay_graph(3, [(0, 1)])
    ok, wit = is_feasible(sys_, [0, 1])
    assert not ok and wit == 0  # adjacent pair, raw affectance 2 each way
    assert is_feasible(sys_, [0, 2])[0]
    assert is_feasible(sys_, [0, 2], K=3.0)[0]  # in-sums exactly 1/3
    assert not is_feasible(sys_, [0, 2], K=3.5)[0]
    with pytest.raises(ValueError):
        is_feasible(sys_, [])
    with pytest.raises(ValueError):
        is_feasible(sys_, [0, 0])
    with pytest.raises(ValueError):
        is_feasible(sys_, [0, 2], K=0.0)


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(3, 63))
def test_feasibility_is_subset_closed(seed, mask):
    sys_ = random_link_system(6, seed, box=6.0)
    T = [i for i in range(6) if (mask >> i) & 1]
    assume(len(T) >= 2 and is_feasible(sys_, T, 1.0)[0])
    for v in T:
        rest = [u for u in T if u != v]
        assert is_feasible(sys_, rest, 1.0)[0]


def test_sinr_matches_the_affectance_route():
    # the threshold test and direct SINR evaluation must agree away
    # from the exact boundary
    compared = 0
    for k in range(30):
        sys_ = random_link_system(
            8, 500 + k, beta=1.0 + 0.3 * (k % 3), noise=0.01 * (k % 2), alpha=2.2
        )
        rng = np.random.default_rng(k)
        S = sorted(int(v) for v in rng.choice(8, size=4, replace=False))
        ok, _ = is_feasible(sys_, S)
        raw = affectance_matrix(sys_, capped=False)
        sums = raw[np.ix_(S, S)].sum(axis=0)
        if np.any(np.abs(sums - 1.0) <= 1e-9):
            continue  # too close to the threshold to compare routes
        members, sinr = sinr_values(sys_, S)
        assert members == S
        assert ok == bool(np.all(sinr >= sys_.params.beta))
        compared += 1
    assert compared >= 25


def test_link_distance_takes_closest_endpoints():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    sys_ = LinkSystem(gen_euclidean(pts, 1.0), links=[(0, 1), (2, 3)])
    quasi = quasi_distances(sys_.space, 1.0)
    assert link_distance(sys_, quasi, 0, 1) == 7.0  # receiver 1 to sender 2
    assert link_distance(sys_, quasi, 0, 0) == 0.0


def _drawn_system(seed, m, link_gain):
    # node-space links on random endpoints may share nodes; m = 0 included
    rng = np.random.default_rng(seed)
    if link_gain:
        return LinkSystem(DecaySpace(rng.uniform(0.5, 10.0, size=(m, m)), mode="link-gain"))
    n = int(rng.integers(2, 2 * m + 3))
    links = [rng.choice(n, size=2, replace=False) for _ in range(m)]
    return LinkSystem(gen_euclidean(rng.uniform(0.0, 4.0, size=(n, 2)), 2.0), links=links)


@settings(deadline=None, max_examples=60)
@given(st.builds(_drawn_system, seeds, st.integers(0, 7), st.booleans()))
@example(random_link_system(7, 99, alpha=2.0))
@example(pair_system())
def test_link_distance_matrix_matches_scalar(sys_):
    ref.assert_link_geometry(sys_, quasi_distances(sys_.space, 2.0, check=False))


def test_link_distance_link_gain_mode():
    sys_ = pair_system()
    quasi = quasi_distances(sys_.space, 1.0, check=False)
    assert link_distance(sys_, quasi, 0, 1) == 2.0  # min of the two cross decays
    M = link_distance_matrix(sys_, quasi)
    assert M[0, 1] == M[1, 0] == 2.0 and M[0, 0] == 0.0


def _scalar_violation(sys_, quasi, L, eta):
    # reference: the first row-major pair, one scalar distance at a time
    for v in sorted(L):
        for w in sorted(L):
            if w != v and ref.link_distance(sys_, quasi, v, w) < eta * ref.link_length(sys_, quasi, v):
                return (v, w)
    return None


def test_separation_checks_match_scalar_reference():
    rng = np.random.default_rng(7)
    outcomes = set()
    for trial in range(40):
        m = int(rng.integers(2, 9))
        if trial % 2:
            f = rng.uniform(0.5, 10.0, size=(m, m))
            sys_ = LinkSystem(DecaySpace(f, mode="link-gain"))
        else:
            sys_ = random_link_system(m, trial, alpha=2.0)
        quasi = quasi_distances(sys_.space, 2.0, check=False)
        # levels at an exact distance/length ratio put pairs on the boundary
        ratios = [ref.link_distance(sys_, quasi, v, w) / ref.link_length(sys_, quasi, v)
                  for v in range(m) for w in range(m) if w != v]
        for k in range(6):
            L = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
            eta = float(rng.choice(ratios) if k % 2 else np.exp(rng.uniform(-2.0, 2.0)))
            want = _scalar_violation(sys_, quasi, L, eta)
            assert _separation_violation(sys_, quasi, L, eta) == want
            assert check_separation_set(sys_, quasi, L, eta) == (want is None)
            v = int(rng.integers(m))
            sep = all(ref.link_distance(sys_, quasi, v, w) >= eta * ref.link_length(sys_, quasi, v)
                      for w in L)
            assert check_separation(sys_, quasi, v, L, eta) == sep
            outcomes.add((sys_.space.mode, want is None, sep))
    assert len(outcomes) == 8  # both modes, both verdicts of both checks


def test_check_separation_rejects_bad_link_even_with_empty_set():
    sys_ = random_link_system(5, 1)
    quasi = quasi_distances(sys_.space, 2.5, check=False)
    assert check_separation(sys_, quasi, 4, [], 1.0)
    for v in (99, -1, 5):
        with pytest.raises(ValueError):
            check_separation(sys_, quasi, v, [], 1.0)
        with pytest.raises(ValueError):
            check_separation(sys_, quasi, v, [1], 1.0)
    # a NaN level fails every comparison, so it would pass every set
    for eta in (float("nan"), -1.0):
        for call in (lambda: check_separation(sys_, quasi, 0, [], eta),
                     lambda: check_separation(sys_, quasi, 0, [1, 2], eta),
                     lambda: check_separation_set(sys_, quasi, [], eta),
                     lambda: check_separation_set(sys_, quasi, [0, 1, 2], eta)):
            with pytest.raises(ValueError, match=r"'eta' must lie in \[0, inf\]"):
                call()


def test_every_link_set_argument_is_checked_alike():
    sys_ = random_link_system(4, 3)
    quasi = quasi_distances(sys_.space, 3.0)
    n = sys_.n_links
    takes_a_set = {
        "aggregate_affectance": lambda S: aggregate_affectance(sys_, S, 0),
        "is_feasible": lambda S: is_feasible(sys_, S),
        "sinr_values": lambda S: sinr_values(sys_, S),
        "check_separation": lambda S: check_separation(sys_, quasi, 0, S, 0.5),
        "check_separation_set": lambda S: check_separation_set(sys_, quasi, S, 0.5),
        "signal_strengthen": lambda S: signal_strengthen(sys_, S, 1.0, 3.0),
        "separation_strengthen": lambda S: separation_strengthen(sys_, quasi, S, 1e-9, 0.5),
        "check_onezetasep": lambda S: check_onezetasep(sys_, quasi, S),
        "amicable_subset": lambda S: amicable_subset(sys_, quasi, S),
    }
    outside = r"'link index' must lie in \[0, 4\), got "
    for name, call in takes_a_set.items():
        for S, why in (([-1], outside + "-1"), ([n], outside + "4"), ([1, -1], outside + "-1"),
                       ([1, n], outside + "4"), ([1, 1], "duplicate link index 1")):
            with pytest.raises(ValueError, match=why):
                call(S)
                pytest.fail("%s accepted %r" % (name, S))
    with pytest.raises(ValueError, match="need at least one link"):
        sinr_values(sys_, [])


def test_every_quasi_argument_must_match_its_space():
    # a quasi-metric of another space reads the wrong table quietly
    # unless its node count and mode are checked where it meets a space
    five, cloud = random_link_system(5, 1), gen_euclidean(random_points(6, 2), 3.0)
    far_apart = gen_euclidean(np.array([[0.0, 0.0], [1.0, 0.0], [99.0, 0.0], [100.0, 0.0]]), 3.0)
    pair = LinkSystem(far_apart, links=[(0, 1), (2, 3)])  # 4 nodes, node-space
    graph = gen_equidecay_graph(4, [], far_decay=100.0)  # 4 nodes, link-gain
    cases = [
        (five, cloud, quasi_distances(random_link_system(9, 2).space, 3.0),
         "has 18 nodes but the space has"),
        (five, cloud, quasi_distances(pair.space, 3.0), "has 4 nodes but the space has"),
        (graph, graph.space, QuasiMetric(pair.space, 3.0),
         "quasi-metric is node-space but the space is link-gain"),
        (pair, pair.space, QuasiMetric(graph.space, 1.0),
         "quasi-metric is link-gain but the space is node-space"),
    ]
    for sys_, space, quasi, message in cases:
        calls = {
            "capacity_uniform": lambda: capacity_uniform(sys_, 3.0, quasi=quasi),
            "check_separation_set": lambda: check_separation_set(sys_, quasi, [0, 1], 0.5),
            "check_separation": lambda: check_separation(sys_, quasi, 0, [1], 0.5),
            "check_separation from none": lambda: check_separation(sys_, quasi, 0, [], 0.5),
            "link_distance": lambda: link_distance(sys_, quasi, 0, 1),
            "link_lengths": lambda: sys_.link_lengths(quasi),
            "separation_strengthen": lambda: separation_strengthen(sys_, quasi, [0, 1], 0.5, 0.5),
            "check_onezetasep": lambda: check_onezetasep(sys_, quasi, [0, 1]),
            "check_onezetasep of one link": lambda: check_onezetasep(sys_, quasi, [0]),
            "check_onezetasep of none": lambda: check_onezetasep(sys_, quasi, []),
            "independence_at": lambda: independence_at(space, quasi, 0),
            "guard_set": lambda: guard_set(space, quasi, 0),
            "fading_parameter": lambda: fading_parameter(space, 1.0, quasi=quasi),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=message):
                call()
                pytest.fail("%s accepted %r" % (name, quasi))


def test_aggregate_affectance_directions():
    sys_ = pair_system()
    assert aggregate_affectance(sys_, [0, 1], 0, "in") == 0.5
    assert aggregate_affectance(sys_, [0, 1], 0, "out") == 0.25
    assert aggregate_affectance(sys_, [], 0) == 0.0
    with pytest.raises(ValueError):
        aggregate_affectance(sys_, [0], 1, "sideways")


def test_pairwise_power_certificate():
    sys_ = gen_equidecay_graph(4, [(0, 1)])
    assert pairwise_power_infeasible(sys_, 0, 1)
    assert not pairwise_power_infeasible(sys_, 0, 2)
    with pytest.raises(ValueError):
        pairwise_power_infeasible(sys_, 1, 1)


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(0, 2 ** 10 - 1), st.integers(0, 11))
def test_interference_is_additive_over_senders(seed, mask, target):
    sys_ = random_link_system(6, seed)
    picked = [i for i in range(10) if (mask >> i) & 1 and i != target]
    assume(len(picked) >= 2)
    half = len(picked) // 2
    a, b = picked[:half], picked[half:]
    total = interference_at(sys_, picked, target)
    assert math.isclose(
        total,
        interference_at(sys_, a, target) + interference_at(sys_, b, target),
        rel_tol=1e-12,
    )


def test_interference_at_rejects_bad_calls():
    star = gen_star(4, 1.0)
    sys_ = LinkSystem(star, links=[(0, 1)], params=SinrParams())
    with pytest.raises(ValueError):
        interference_at(sys_, [0, 2], 0)  # target among the senders
    with pytest.raises(ValueError):
        interference_at(sys_, [2], 99)
    with pytest.raises(ValueError, match="duplicate sender 2"):
        interference_at(sys_, [2, 2, 3], 0)  # would count node 2 twice
    lg = pair_system()
    with pytest.raises(ValueError):
        interference_at(lg, [0], 1)
    explicit = LinkSystem(
        star, links=[(0, 1)], power=PowerAssignment.explicit([1.0])
    )
    with pytest.raises(ValueError):
        interference_at(explicit, [2], 0)


def test_system_constructor_checks():
    space = gen_euclidean(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0)
    with pytest.raises(ValueError):
        LinkSystem(space)  # node-space needs links
    with pytest.raises(ValueError):
        LinkSystem(space, links=[(0, 0)])
    lg = DecaySpace(np.array([[1.0]]), mode="link-gain")
    with pytest.raises(ValueError):
        LinkSystem(lg, links=[(0, 0)])  # link-gain brings its own links
    sys_ = LinkSystem(space, links=[(0, 1), (1, 0)])
    assert sys_.n_links == 2
    assert list(sys_.order()) == [0, 1]  # equal own decays, ties by index


def test_link_system_arrays_are_read_only():
    # a write into a handed-out array would change every later answer for the system
    sys_ = random_link_system(4, 3, noise=0.01)
    before = affectance_matrix(sys_).copy()
    arrays = [sys_.powers(), sys_.own_decays(), sys_.cross_decays(),
              affectance_matrix(sys_), affectance_matrix(sys_, capped=False)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1e9
    # the lazy tables are built once and handed out again
    assert sys_.cross_decays() is arrays[2] and affectance_matrix(sys_) is arrays[3]
    assert np.array_equal(affectance_matrix(sys_), before)


def test_sinr_inputs_are_frozen():
    # an edited noise once reached sinr_values but not drowned_links or is_feasible
    sys_ = random_link_system(4, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.params.noise = 1e9
    assert drowned_links(sys_) == () and is_feasible(sys_, [0])[0]
    power = PowerAssignment.explicit([1.0, 2.0])
    for obj, field in ((sys_.params, "beta"), (power, "kind"), (power, "value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 2.0)
    with pytest.raises(ValueError, match="read-only"):
        power.value[0] = 5.0
    assert power.vector(2) is power.value


def test_overflowing_affectance_is_capped_without_a_warning():
    # 1/1e-310 is past the float range: capped it is 1, uncapped it fails feasibility
    sys_ = LinkSystem(DecaySpace(np.array([[1.0, 1e-310], [1e-310, 1.0]]), mode="link-gain"))
    assert np.array_equal(affectance_matrix(sys_), [[0.0, 1.0], [1.0, 0.0]])
    assert np.isinf(affectance_matrix(sys_, capped=False)[0, 1])
    assert is_feasible(sys_, [0, 1]) == (False, 0)
    assert np.array_equal(sinr_values(sys_, [0, 1])[1], [0.0, 0.0])
    assert capacity_uniform(sys_, 2.0).selected == (0,) and capacity_oracle(sys_) == (1, (0,))


def test_order_sorts_by_own_decay():
    f = np.diag([2.0, 1.0, 2.0]) + np.ones((3, 3)) - np.eye(3)
    sys_ = LinkSystem(DecaySpace(f, mode="link-gain"))
    assert list(sys_.order()) == [1, 0, 2]


def test_power_and_param_validation():
    with pytest.raises(ValueError):
        PowerAssignment("weird", 1.0)
    with pytest.raises(ValueError):
        pair_system(power=PowerAssignment.explicit([1.0, 2.0, 3.0]))
    # the direct constructor gets the checks of the class methods
    for kind, value in (("uniform", -3), ("explicit", [[1.0, 2.0]])):
        with pytest.raises(ValueError):
            PowerAssignment(kind, value)
