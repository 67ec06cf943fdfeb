"""Invariants checked over randomized inputs."""

import itertools
import json
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from decayspace import (
    DecaySpace,
    LinkSystem,
    affectance_matrix,
    compute_phi,
    compute_zeta,
    dumps_canonical,
    gen_euclidean,
    interference_at,
    is_feasible,
    packing_number,
    quasi_distances,
    random_link_system,
)

import links_reference as ref

seeds = st.integers(0, 10 ** 6)


def sym_space(seed, n, lo=0.5, hi=10.0):
    rng = np.random.default_rng(seed)
    f = rng.uniform(lo, hi, size=(n, n))
    f = (f + f.T) / 2.0
    np.fill_diagonal(f, 0.0)
    return DecaySpace(f)


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(3, 6), st.floats(0.01, 100.0))
def test_zeta_is_scale_invariant(seed, n, c):
    sp = sym_space(seed, n)
    scaled = DecaySpace(c * sp.f)
    z1 = compute_zeta(sp)[1]
    z2 = compute_zeta(scaled)[1]
    assert abs(z1 - z2) <= 1e-8 * max(1.0, z1) ** 2 + 1e-9


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(3, 6), st.floats(1.2, 3.0))
def test_zeta_tracks_exponent_scaling(seed, n, k):
    sp = sym_space(seed, n)
    raw, _, witness = compute_zeta(sp)
    assume(witness is not None)
    raw_k = compute_zeta(DecaySpace(sp.f ** k))[0]
    want = k * raw
    assert abs(raw_k - want) <= 1e-7 * max(1.0, want) ** 2 + 1e-9


@settings(deadline=None, max_examples=40)
@given(st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    min_size=3, max_size=8, unique=True,
))
def test_metric_spaces_have_no_multiplicative_defect(pts):
    sp = gen_euclidean([[float(x), float(y)] for x, y in pts], 1.0)
    phi_mult = compute_phi(sp)[0]
    assert phi_mult <= 1.0 + 1e-12


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(3, 7))
def test_quasi_distances_accept_computed_zeta(seed, n):
    sp = sym_space(seed, n)
    zeta = compute_zeta(sp)[1]
    quasi = quasi_distances(sp, zeta)  # must not raise
    assert quasi.n == n and quasi.zeta == zeta


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(4, 8), st.floats(0.1, 5.0))
def test_packing_counts_shrink_and_certify(seed, n, t):
    sp = sym_space(seed, n)
    body = range(n)
    counts = [packing_number(sp, body, s)[0] for s in (t, 2 * t, 4 * t)]
    assert counts[0] >= counts[1] >= counts[2]
    _, exact, members = packing_number(sp, body, t)
    assert exact
    for a, b in itertools.combinations(members, 2):
        assert min(sp.f[a, b], sp.f[b, a]) > 2 * t


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(3, 63))
def test_feasibility_is_subset_closed(seed, mask):
    sys_ = random_link_system(6, seed, box=6.0)
    T = [i for i in range(6) if (mask >> i) & 1]
    assume(len(T) >= 2)
    if not is_feasible(sys_, T, 1.0)[0]:
        assume(False)
    for v in T:
        rest = [u for u in T if u != v]
        assert is_feasible(sys_, rest, 1.0)[0]


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_capped_affectance_never_exceeds_raw(seed):
    sys_ = random_link_system(7, seed, box=3.0)
    capped = affectance_matrix(sys_, capped=True)
    raw = affectance_matrix(sys_, capped=False)
    assert np.all(capped <= raw + 1e-15)
    assert np.all(capped <= 1.0)


json_primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10 ** 12, 10 ** 12),
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: not (x == 0.0 and math.copysign(1.0, x) < 0)
    ),
    st.text(max_size=10),
)
json_objects = st.recursive(
    json_primitives,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=12,
)


@settings(deadline=None, max_examples=80)
@given(json_objects)
def test_canonical_json_round_trips(obj):
    text = dumps_canonical(obj)
    back = json.loads(text)
    assert back == obj
    assert dumps_canonical(back) == text


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.text(max_size=6), st.integers(-5, 5)), unique_by=lambda kv: kv[0]))
def test_canonical_json_ignores_insertion_order(items):
    assert dumps_canonical(dict(items)) == dumps_canonical(dict(reversed(items)))


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(0, 7), st.booleans())
def test_link_distance_matrix_matches_scalar(seed, m, link_gain):
    # node-space links on random endpoints may share nodes; m = 0 included
    rng = np.random.default_rng(seed)
    if link_gain:
        sys_ = LinkSystem(DecaySpace(rng.uniform(0.5, 10.0, size=(m, m)), mode="link-gain"))
    else:
        n = int(rng.integers(2, 2 * m + 3))
        links = [rng.choice(n, size=2, replace=False) for _ in range(m)]
        sys_ = LinkSystem(gen_euclidean(rng.uniform(0.0, 4.0, size=(n, 2)), 2.0), links=links)
    ref.assert_link_geometry(sys_, quasi_distances(sys_.space, 2.0, check=False))


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
