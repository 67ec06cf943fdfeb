"""The metricity kernels against the slow reference.

metricity_reference.py keeps the O(n**3) implementations that the
blocked kernels replaced, and the triangle check that scans every
ordered pair; every returned tuple must match exactly: zeta_raw,
phi_mult and the lexicographically least witnesses. Symmetric inputs
take the kernels' half scan, so each value set runs on both kinds.
zeta runs on both of its filters, the power test and the log-space
bound, and the quasi-metric at its zeta must pass the triangle check.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayspace import (DecaySpace, QuasiMetric, compute_phi, compute_zeta, gen_euclidean,
                        random_points, triangle_violation)
import decayspace.spaces as kernels
from decayspace.spaces import LINK_GAIN, NODE_SPACE, _doubling_blocks, _symmetric

import metricity_reference as ref


def assert_matches_reference(space):
    # zeta on both filter paths (a limit below 0 keeps every block on the
    # log-space bound filter); capacity, partition and fading build the
    # quasi-metric at its zeta without the triangle check, so it must pass
    zeta = ref.compute_zeta(space)
    assert compute_zeta(space) == zeta
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_EXP_LIMIT", -1.0)
        assert compute_zeta(space) == zeta
    assert compute_phi(space) == ref.compute_phi(space)
    if zeta[1] < np.inf:
        assert triangle_violation(QuasiMetric(space, zeta[1])) is None


def _matrix(draw, entries, n, symmetric):
    """n x n draws of entries; a symmetric one mirrors its upper triangle, zeros included."""
    if not symmetric:
        return np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    k = n * (n - 1) // 2
    f = np.zeros((n, n))
    f[np.triu_indices(n, 1)] = draw(st.lists(entries, min_size=k, max_size=k))
    return f + f.T


@st.composite
def spaces(draw, values, symmetric=False):
    """Node-space matrices, and link-gain ones whose off-diagonal may hold zeros."""
    n = draw(st.integers(3, 10))
    mode = draw(st.sampled_from([NODE_SPACE, LINK_GAIN]))
    entries = values | st.just(0.0) if mode == LINK_GAIN else values
    f = _matrix(draw, entries, n, symmetric)
    np.fill_diagonal(f, 0.0 if mode == NODE_SPACE else draw(values))
    return DecaySpace(f, mode)


# Six significant digits keep distinct entries a relative 1e-6 apart: the
# reference's bisection never ends once near-ties push the critical
# exponent past the spacing of floats (see test_spaces).
decays = st.floats(1e-3, 1e3).map(lambda v: float("%.6g" % v))
magnitudes = st.builds(lambda m, e: float("%.6g" % m) * 10.0 ** e,
                       st.floats(1.0, 9.0), st.integers(-300, 300))
# small integers: many ties between triples, so the witness order matters
integers = st.integers(1, 4).map(float)


@settings(deadline=None, max_examples=60)
@given(spaces(decays))
def test_blocked_kernels_match_reference(space):
    assert_matches_reference(space)


@settings(deadline=None, max_examples=60)
@given(spaces(magnitudes))
def test_blocked_kernels_match_reference_at_extreme_magnitudes(space):
    assert_matches_reference(space)


@settings(deadline=None, max_examples=60)
@given(spaces(integers))
def test_blocked_kernels_match_reference_on_ties(space):
    assert_matches_reference(space)


VALUES = {"decays": decays, "magnitudes": magnitudes, "integers": integers}


@pytest.mark.parametrize("values", sorted(VALUES))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_blocked_kernels_match_reference_on_symmetric_spaces(values, data):
    space = data.draw(spaces(VALUES[values], symmetric=True))
    assert _symmetric(space.f)
    assert_matches_reference(space)


def test_signed_zeros_are_normalised():
    # -0.0 equals 0.0 yet flips the sign of a quotient by zero; DecaySpace
    # stores +0.0, so the kernels read the same matrix for either sign
    f = np.array([[1.0, -0.0, 1.0], [0.0, 1.0, -0.0], [1.0, 0.0, 1.0]])
    space, plain = DecaySpace(f, LINK_GAIN), DecaySpace(np.abs(f), LINK_GAIN)
    assert not np.signbit(space.f).any()
    assert compute_phi(space) == compute_phi(plain) == (np.inf, np.inf, (0, 1, 2))
    assert compute_zeta(space) == compute_zeta(plain)
    assert_matches_reference(space)
    # a quasi-metric is a decay space of the same mode, so it holds no -0.0
    for zeta in (0.5, 1.0, 3.0):
        quasi = QuasiMetric(DecaySpace(f, LINK_GAIN), zeta)
        assert quasi.mode == LINK_GAIN and not np.signbit(quasi.d).any()
        assert not quasi.d.flags.writeable


@st.composite
def quasi_metrics(draw, symmetric):
    """Zero-diagonal tables of ties (small integers) or of spread values."""
    n = draw(st.integers(2, 10))
    values = draw(st.sampled_from([integers, st.floats(1.0, 3.0).map(lambda v: round(v, 2))]))
    d = _matrix(draw, values, n, symmetric)
    np.fill_diagonal(d, 0.0)
    return QuasiMetric(DecaySpace(d), 1.0)


@settings(deadline=None, max_examples=150)
@given(st.booleans().flatmap(quasi_metrics), st.sampled_from([0.0, 1e-9, 1e-7, 0.01, 0.5]))
def test_triangle_violation_matches_reference(quasi, tol):
    assert triangle_violation(quasi, tol) == ref.triangle_violation(quasi, tol)


def _shadowed_cloud(n=40, seed=11, sigma=1.0):
    # alpha=3 decays times symmetric log-normal factors
    base = gen_euclidean(random_points(n, seed), 3.0).f
    g = np.triu(np.random.default_rng(seed).normal(0.0, sigma, size=(n, n)), 1)
    return DecaySpace(base * np.exp(g + g.T))


def test_blocked_kernels_match_reference_on_fixed_spaces():
    assert_matches_reference(_shadowed_cloud())
    for seed in range(4):
        assert_matches_reference(_shadowed_cloud(60, seed, sigma=2.0))
    # every constrained triple binds at t = 1 (2**t = 1**t + 1**t), so the
    # candidate set exceeds n**2 and the search runs block by block
    f = np.where(np.random.default_rng(5).random((20, 20)) < 0.5, 1.0, 2.0)
    np.fill_diagonal(f, 0.0)
    assert_matches_reference(DecaySpace(f))
    # near-ties at 1e300: the critical exponent is ~1e6 and rounding error
    # in t * log f is too large to separate the candidates from the rest
    f = 1e300 * (1.0 + 1e-6 * np.random.default_rng(6).integers(0, 3, size=(6, 6)))
    np.fill_diagonal(f, 0.0)
    assert_matches_reference(DecaySpace(f))
    # every ratio of phi is 0: the pairs that are not targets and the
    # middles y = x and y = z must not tie with it
    assert compute_phi(DecaySpace(np.eye(4), LINK_GAIN)) == (0.0, -np.inf, (0, 1, 2))
    f = np.eye(5)
    f[3, 0] = 2.0
    assert_matches_reference(DecaySpace(f, LINK_GAIN))


def test_zeta_blocks_double_from_one_row():
    # the two n = 48 tests below rely on these blocks
    assert _doubling_blocks(48, 48 * 48) == [(0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 48)]
    assert _doubling_blocks(120, 120 * 120)[:7] == [
        (0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 49), (49, 67)]
    assert _doubling_blocks(600, 600 * 600)[:2] == [(0, 1), (1, 2)]


def test_zeta_bound_stays_open_past_the_small_blocks():
    # rows 0-19 are all ones, so none holds a constrained triple and the
    # first bound comes from the 16-row block 15-30, at T = inf
    rng = np.random.default_rng(8)
    f = rng.uniform(1.0, 50.0, size=(48, 48))
    f[:20] = 1.0
    for g in (f, np.minimum(f, f.T)):
        np.fill_diagonal(g, 0.0)
        space = DecaySpace(g)
        assert ref.compute_zeta(space)[2][0] >= 20
        assert_matches_reference(space)


def test_zeta_returns_the_first_hopeless_block_witness():
    # the zeros f(5,40) and f(30,41) make the only hopeless triples, in the
    # blocks 3-6 and 15-30; columns 40 and 41 are small, so no triple has
    # a zero leg f(z,y) under a larger f(x,y)
    f = np.random.default_rng(9).uniform(1.0, 2.0, size=(48, 48))
    f[:, 40:42] = 0.5
    np.fill_diagonal(f, 1.0)
    f[5, 40] = f[30, 41] = 0.0
    space = DecaySpace(f, LINK_GAIN)
    zeta_raw, zeta, witness = compute_zeta(space)
    assert zeta_raw == zeta == np.inf and witness[:2] == (5, 40)
    assert_matches_reference(space)
    f[5, 40] = 0.5  # the x = 30 triples alone
    assert compute_zeta(DecaySpace(f, LINK_GAIN))[2][:2] == (30, 41)


def test_zeta_filters_with_a_tight_bound(monkeypatch):
    # once row 0 sets the bound, few triples reach the candidate test; a
    # first block of 2**18 entries handed it 9,880 here, the log-space
    # bound filter hands it fewer than 1,000 and the power test fewer still
    near, handed = kernels._near, []
    monkeypatch.setattr(kernels, "_near",
                        lambda part, tk, err: handed.append(len(part[3])) or near(part, tk, err))
    compute_zeta(_shadowed_cloud())
    by_power = sum(handed)
    monkeypatch.setattr(kernels, "_EXP_LIMIT", -1.0)
    compute_zeta(_shadowed_cloud())
    by_log = sum(handed) - by_power
    assert 0 < by_power < by_log <= 1000


def test_kernels_memory_stays_quadratic():
    # the reference's meshgrid index arrays alone take about 190 MB here;
    # both clouds are symmetric, the shadowed one far from metric
    cloud = gen_euclidean(random_points(200, 7), 3.0)
    g = np.triu(np.random.default_rng(7).normal(0.0, 1.0, size=(200, 200)), 1)
    shadowed = DecaySpace(cloud.f * np.exp(g + g.T))
    assert _symmetric(cloud.f) and _symmetric(shadowed.f)
    for space in (cloud, shadowed):
        quasi = QuasiMetric(space, 3.0)
        for kernel, arg in ((compute_zeta, space), (compute_phi, space),
                            (triangle_violation, quasi)):
            tracemalloc.start()
            try:
                kernel(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20, (kernel.__name__, peak)
