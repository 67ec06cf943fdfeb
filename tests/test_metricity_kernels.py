"""The blocked metricity kernels against the meshgrid reference.

metricity_reference.py keeps the O(n**3) implementations that the
blocked kernels replaced; every returned tuple must match exactly:
zeta_raw, phi_mult and the lexicographically least witnesses.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from decayspace import DecaySpace, compute_phi, compute_zeta, gen_euclidean, random_points
from decayspace.spaces import LINK_GAIN, NODE_SPACE

import metricity_reference as ref


def assert_matches_reference(space):
    assert compute_zeta(space) == ref.compute_zeta(space)
    assert compute_phi(space) == ref.compute_phi(space)


@st.composite
def spaces(draw, values):
    """Node-space matrices, and link-gain ones whose off-diagonal may hold zeros."""
    n = draw(st.integers(3, 10))
    mode = draw(st.sampled_from([NODE_SPACE, LINK_GAIN]))
    entries = values | st.just(0.0) if mode == LINK_GAIN else values
    f = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
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
    # the reference's meshgrid index arrays alone take about 190 MB here
    space = gen_euclidean(random_points(200, 7), 3.0)
    for kernel in (compute_zeta, compute_phi):
        tracemalloc.start()
        try:
            kernel(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, (kernel.__name__, peak)
