"""The metricity kernels against the slow reference.

metricity_reference.py keeps the O(n**3) implementations that the
blocked kernels replaced, and the triangle check that scans every
ordered pair; every returned tuple must match exactly: zeta_raw,
phi_mult and the lexicographically least witnesses. Symmetric inputs
take the kernels' half scan, so each value set runs on both kinds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayspace import (DecaySpace, QuasiMetric, compute_phi, compute_zeta, gen_euclidean,
                        random_points, triangle_violation)
from decayspace.spaces import LINK_GAIN, NODE_SPACE, _symmetric

import metricity_reference as ref


def assert_matches_reference(space):
    assert compute_zeta(space) == ref.compute_zeta(space)
    assert compute_phi(space) == ref.compute_phi(space)


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


def test_blocked_kernels_match_reference_on_fixed_spaces():
    # a shadowed cloud: alpha=3 decays times symmetric log-normal factors
    base = gen_euclidean(random_points(40, 11), 3.0).f
    g = np.triu(np.random.default_rng(11).normal(0.0, 1.0, size=(40, 40)), 1)
    assert_matches_reference(DecaySpace(base * np.exp(g + g.T)))
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


def test_kernels_memory_stays_quadratic():
    # the reference's meshgrid index arrays alone take about 190 MB here;
    # both clouds are symmetric, the shadowed one far from metric
    cloud = gen_euclidean(random_points(200, 7), 3.0)
    g = np.triu(np.random.default_rng(7).normal(0.0, 1.0, size=(200, 200)), 1)
    shadowed = DecaySpace(cloud.f * np.exp(g + g.T))
    assert _symmetric(cloud.f) and _symmetric(shadowed.f)
    for space in (cloud, shadowed):
        for kernel in (compute_zeta, compute_phi):
            tracemalloc.start()
            try:
                kernel(space)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20, (kernel.__name__, peak)
