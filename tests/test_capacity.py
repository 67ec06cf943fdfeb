"""Greedy capacity against the exact oracle, the oracle against the
exhaustive subset scan it replaced, and the partition lemmas with their
certificates re-verified from scratch."""

import math

import numpy as np
import pytest

import capacity_reference as ref

from decayspace import (
    DecaySpace,
    LinkSystem,
    PowerAssignment,
    QuasiMetric,
    SinrParams,
    amicable_subset,
    capacity_oracle,
    capacity_uniform,
    check_onezetasep,
    check_separation,
    check_separation_set,
    compute_zeta,
    gen_equidecay_graph,
    gen_euclidean,
    is_feasible,
    link_distance_matrix,
    quasi_distances,
    random_graph,
    random_link_system,
    separation_strengthen,
    signal_strengthen,
)
from decayspace import verify


def hand_instance():
    # two short parallel links close together and one far away; the
    # greedy scan keeps the first and the far one, the optimum is all
    # three
    pts = np.array(
        [[0, 0], [1, 0], [0, 0.5], [1, 0.5], [100, 0], [101, 0]], dtype=float
    )
    return LinkSystem(
        gen_euclidean(pts, 2.0),
        links=[(0, 1), (2, 3), (4, 5)],
        params=SinrParams(1.0, 0.0),
    )


def test_capacity_soundness_sweep():
    for k in range(30):
        n = 3 + k % 10
        sys_ = random_link_system(
            n, 7000 + k, beta=1.0 + 0.4 * (k % 3), noise=0.02 * (k % 4),
            alpha=2.0 + 0.25 * (k % 5),
        )
        z = compute_zeta(sys_.space)[1]
        res = capacity_uniform(sys_, z)
        assert set(res.selected) <= set(res.intermediate)
        assert 2 * len(res.selected) >= len(res.intermediate)
        if res.selected:
            assert is_feasible(sys_, res.selected)[0]
        if n <= 10:
            opt, _ = capacity_oracle(sys_)
            assert opt >= len(res.selected)


def test_capacity_skips_drowned_links():
    f = np.array([[1.0, 100.0], [100.0, 1e6]])
    sys_ = LinkSystem(DecaySpace(f, mode="link-gain"), params=SinrParams(1.0, 2e-6))
    res = capacity_uniform(sys_, zeta=1.0)
    assert res.skipped == (1,)
    assert res.selected == (0,)


def test_capacity_empty_system():
    sys_ = LinkSystem(DecaySpace(np.empty((0, 0)), mode="link-gain"))
    assert capacity_uniform(sys_, zeta=1.0).selected == ()
    assert capacity_oracle(sys_) == (0, ())


def test_capacity_input_checks():
    sys_ = hand_instance()
    # the quasi-metric of this space, but at another exponent than the greedy's
    with pytest.raises(ValueError, match="quasi-metric is at zeta=3, not 2"):
        capacity_uniform(sys_, zeta=2.0, quasi=quasi_distances(sys_.space, 3.0))
    explicit = LinkSystem(
        sys_.space,
        links=[(0, 1), (2, 3), (4, 5)],
        power=PowerAssignment.explicit([1.0, 1.0, 1.0]),
    )
    with pytest.raises(ValueError):
        capacity_uniform(explicit, zeta=2.0)
    with pytest.raises(ValueError):
        capacity_oracle(random_link_system(6, 1), max_n=5)


def test_oracle_matches_subset_scan_on_random_systems():
    for k in range(84):
        sys_ = random_link_system(
            1 + k % 14, 9000 + k, noise=(0.0, 1e-3, 0.05)[k % 3],
            alpha=(2.0, 2.5, 4.0)[k // 3 % 3], box=(1.0, 4.0, 10.0)[k // 9 % 3],
        )
        assert capacity_oracle(sys_) == ref.capacity_oracle(sys_), k


def test_oracle_matches_subset_scan_on_equidecay_graphs():
    for k in range(40):
        n = 4 + k % 11
        _, edges = random_graph(n, 0.1 + 0.06 * (k % 8), 9500 + k)
        sys_ = gen_equidecay_graph(n, edges)
        assert capacity_oracle(sys_) == ref.capacity_oracle(sys_), k


@pytest.mark.parametrize("i", range(4))
def test_oracle_matches_subset_scan_on_dense_windows(i):
    # the 14 links nearest one link of a crowded 250-link system
    big = random_link_system(250, 40000 + i, alpha=3.0, box=6.0)
    quasi = quasi_distances(big.space, 3.0, check=False)
    near = np.argsort(link_distance_matrix(big, quasi)[i], kind="stable")[:14]
    sys_ = LinkSystem(big.space, links=[big.links[j] for j in sorted(near)], params=big.params)
    opt = capacity_oracle(sys_)
    assert opt == ref.capacity_oracle(sys_)
    assert 1 <= opt[0] < 14


@pytest.mark.parametrize("terms, size", [
    ((0.5, 0.25, 0.25), 4),  # the load lands on 1.0 exactly
    ((0.5, 0.25, 0.25 + 2 ** -52), 3),  # one ulp above 1.0
    ((1.0, 2 ** -53, 2 ** -53), 4),  # 1.0 in index order; small terms first give 1 + ulp
    ((2 ** -53, 2 ** -53, 1.0), 3),  # 1 + ulp in index order; the large term first gives 1.0
], ids=["exact", "ulp-above", "large-first", "large-last"])
@pytest.mark.parametrize("receiver", [0, 3])
def test_oracle_sums_loads_in_index_order(terms, size, receiver):
    # link-gain, unit decays on the receiver's column and 1e300 elsewhere:
    # the uncapped affectance of sender w on the receiver is its power, exactly
    senders = [v for v in range(4) if v != receiver]
    f = np.full((4, 4), 1e300)
    np.fill_diagonal(f, 1.0)
    f[senders, receiver] = 1.0
    powers = np.ones(4)
    powers[senders] = terms
    sys_ = LinkSystem(DecaySpace(f, mode="link-gain"), power=PowerAssignment.explicit(powers))
    got = capacity_oracle(sys_)
    assert got == ref.capacity_oracle(sys_)
    assert got == (size, (0, 1, 2, 3)[:size])


def one_feasible_set(seed, n=12, min_size=4):
    # a feasible set with some slack, harvested from the greedy scan
    for k in range(40):
        sys_ = random_link_system(n, seed + 97 * k, alpha=2.5, box=6.0)
        z = compute_zeta(sys_.space)[1]
        S = capacity_uniform(sys_, z).selected
        if len(S) >= min_size:
            return sys_, z, list(S)
    raise AssertionError("no usable instance found")


def test_signal_strengthen_splits_and_reverifies():
    sys_ = gen_equidecay_graph(6, [], far_decay=6.0)
    S = list(range(6))
    assert is_feasible(sys_, S)[0]  # in-sums 5/6
    part = signal_strengthen(sys_, S, p=1.0, q=3.0)
    assert part.bound == 36
    assert part.classes == ((0, 1), (2, 3), (4, 5))
    assert part.members() == tuple(S)
    for cls in part.classes:
        assert is_feasible(sys_, cls, K=3.0)[0]
    assert part.certificate == {"kind": "feasibility", "level": 3.0}


def test_signal_strengthen_random_instances():
    sys_, z, S = one_feasible_set(8100)
    part = signal_strengthen(sys_, S, p=1.0, q=3.0)
    assert len(part.classes) <= part.bound == 36
    assert part.members() == tuple(sorted(S))
    for cls in part.classes:
        assert is_feasible(sys_, cls, K=3.0)[0]


def test_signal_strengthen_trivial_and_errors():
    sys_ = gen_equidecay_graph(3, [])
    part = signal_strengthen(sys_, [0, 2], p=1.0, q=3.0)
    assert part.classes == ((0, 2),)  # already 3-feasible, one class
    with pytest.raises(ValueError):
        signal_strengthen(sys_, [], p=1.0, q=3.0)
    with pytest.raises(ValueError):
        signal_strengthen(sys_, [0, 2], p=2.0, q=1.0)
    bad = gen_equidecay_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        signal_strengthen(bad, [0, 1], p=1.0, q=3.0)


def test_separation_strengthen_widens_classes():
    sys_ = random_link_system(14, 8200, alpha=2.5, box=8.0)
    z = compute_zeta(sys_.space)[1]
    quasi = quasi_distances(sys_.space, z)
    X = capacity_uniform(sys_, z, quasi).intermediate
    assert len(X) >= 2
    part = separation_strengthen(sys_, quasi, X, tau=z / 2.0, eta=z)
    assert len(part.classes) <= part.bound
    assert part.members() == tuple(sorted(X))
    for cls in part.classes:
        assert check_separation_set(sys_, quasi, cls, z)
        for v in cls:
            others = [w for w in cls if w != v]
            assert check_separation(sys_, quasi, v, others, z)


def test_separation_strengthen_matches_dict_coloring():
    rng = np.random.default_rng(11)
    class_counts = set()
    for trial in range(60):
        m = int(rng.integers(1, 13))
        if trial % 2:
            f = rng.uniform(0.5, 10.0, size=(m, m))
            # equal own decays tie the longest-first order
            np.fill_diagonal(f, rng.choice([1.0, 2.0], size=m))
            sys_ = LinkSystem(DecaySpace(f, mode="link-gain"))
        else:
            sys_ = random_link_system(m, 8500 + trial, alpha=2.5, box=6.0)
        quasi = quasi_distances(sys_.space, 2.5, check=False)
        LD, lengths = link_distance_matrix(sys_, quasi), sys_.link_lengths(quasi)
        # levels at an exact distance/length ratio put pairs on the boundary
        ratios = (LD / lengths[:, None])[~np.eye(m, dtype=bool)].tolist()
        etas = rng.choice(ratios, size=3).tolist() if ratios else []
        for eta in etas + [float(np.exp(rng.uniform(-1.0, 2.0)))]:
            args = (sys_, quasi, range(m), 1e-9, eta)
            got = separation_strengthen(*args)
            assert got == ref.separation_strengthen(*args), (trial, eta)
            assert got.classes == ref.first_fit_colour_classes(sys_, quasi, range(m), eta)
            class_counts.add(len(got.classes))
    assert {1, 2, 3} <= class_counts


def test_separation_strengthen_on_asymmetric_link_distances():
    # the one short leg runs from link 1's sender to link 0's: link 0 is
    # separated from link 1, but not link 1 from link 0, so they clash
    f = np.full((4, 4), 10.0)
    np.fill_diagonal(f, 0.0)
    f[0, 1], f[2, 3], f[2, 0] = 4.0, 2.0, 1.0
    sys_ = LinkSystem(DecaySpace(f), links=[(0, 1), (2, 3)])
    quasi = QuasiMetric(sys_.space, 1.0)
    assert check_separation(sys_, quasi, 0, [1], 1.0)
    assert not check_separation(sys_, quasi, 1, [0], 1.0)
    part = separation_strengthen(sys_, quasi, [0, 1], tau=0.1, eta=1.0)
    assert part.classes == ((1,), (0,)) and part.bound == 2
    assert part.classes == ref.first_fit_colour_classes(sys_, quasi, [0, 1], 1.0)


def test_separation_strengthen_singleton_and_errors():
    sys_ = random_link_system(5, 8300, alpha=2.0)
    quasi = quasi_distances(sys_.space, 2.0)
    part = separation_strengthen(sys_, quasi, [2], tau=0.1, eta=1.0)
    assert part.classes == ((2,),) and part.bound == 1
    with pytest.raises(ValueError):
        separation_strengthen(sys_, quasi, [], tau=0.1, eta=1.0)
    with pytest.raises(ValueError):
        separation_strengthen(sys_, quasi, [0, 1], tau=1.0, eta=0.5)
    # duplicate endpoints make two links with distance zero
    space = gen_euclidean(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0)
    twin = LinkSystem(space, links=[(0, 1), (0, 1)])
    qtwin = quasi_distances(space, 2.0)
    with pytest.raises(ValueError):
        separation_strengthen(twin, qtwin, [0, 1], tau=0.1, eta=1.0)


def test_onezetasep_outcomes():
    far = gen_equidecay_graph(2, [], far_decay=100.0)
    quasi = quasi_distances(far.space, 1.0, check=False)
    assert check_onezetasep(far, quasi, [0, 1]) == ("ok", None)
    assert check_onezetasep(far, quasi, [0]) == ("ok", None)

    near = gen_equidecay_graph(2, [], far_decay=4.0)
    qnear = quasi_distances(near.space, 1.0, check=False)
    assert check_onezetasep(near, qnear, [0, 1]) == ("inapplicable", None)

    # strongly feasible in decay terms, yet the quasi-metric puts the
    # links on top of each other: the hypothesis-conclusion wiring
    # must report the pair
    f = np.full((4, 4), 1e9)
    np.fill_diagonal(f, 0.0)
    f[0, 1] = f[1, 0] = 1.0
    f[2, 3] = f[3, 2] = 1.0
    space = DecaySpace(f)
    sys_ = LinkSystem(space, links=[(0, 1), (2, 3)])
    d = np.full((4, 4), 1e-3)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 10.0
    d[2, 3] = d[3, 2] = 10.0
    status, pair = check_onezetasep(sys_, QuasiMetric(DecaySpace(d), 1.0), [0, 1])
    assert status == "violation" and pair == (0, 1)

    # zeta comes from the quasi-metric, which holds any positive finite one
    with pytest.raises(ValueError, match=r"'zeta' must lie in \[1, inf\), got 0.5"):
        check_onezetasep(far, QuasiMetric(far.space, 0.5), [0, 1])


def test_amicable_subset_keeps_half():
    # the registry check at seed 400 runs systems 8400..8407
    ok, detail = verify._check_amicable_pipeline(400)
    assert ok, detail


def test_amicable_subset_large_beta_branch():
    # beta above e**2 makes plain feasibility already the strengthened
    # level, so the first stage keeps the whole set
    f = np.full((3, 3), 100.0)
    np.fill_diagonal(f, 1.0)
    sys_ = LinkSystem(DecaySpace(f, mode="link-gain"), params=SinrParams(8.0, 0.0))
    quasi = quasi_distances(sys_.space, 1.0, check=False)
    S = [0, 1, 2]
    assert is_feasible(sys_, S)[0]
    assert math.e ** 2 / sys_.params.beta < 1.0
    out, diag = amicable_subset(sys_, quasi, S)
    assert diag["stage1_size"] == 3 and diag["stage1_classes"] == 1
    assert out == (0, 1, 2)


def test_amicable_subset_input_checks():
    sys_ = gen_equidecay_graph(3, [(0, 1)])
    quasi = quasi_distances(sys_.space, 1.0, check=False)
    with pytest.raises(ValueError):
        amicable_subset(sys_, quasi, [])
    with pytest.raises(ValueError):
        amicable_subset(sys_, quasi, [0, 1])  # infeasible input
    with pytest.raises(ValueError, match=r"'zeta' must lie in \[1, inf\), got 0.5"):
        amicable_subset(sys_, QuasiMetric(sys_.space, 0.5), [0, 2])
