"""Metricity parameters checked against closed forms and an
independent root finder, plus the axioms and quasi-metric plumbing."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from decayspace import (
    DecaySpace,
    QuasiMetric,
    analyze_metricity,
    compute_phi,
    compute_zeta,
    gen_euclidean,
    gen_threepoint,
    load_space,
    load_system,
    quasi_distances,
    random_points,
    space_from_dict,
    triangle_violation,
    validate_space,
    zeta_upper_bound,
)

NAN, INF = float("nan"), float("inf")
seeds = st.integers(0, 10 ** 6)


def sym3(a, b, c):
    # three nodes with f(0,1)=a, f(1,2)=b, f(0,2)=c, symmetric
    return DecaySpace(np.array([[0.0, a, c], [a, 0.0, b], [c, b, 0.0]]))


def sym_space(seed, n):
    # symmetric decays drawn from uniform(0.5, 10), zero diagonal
    f = np.random.default_rng(seed).uniform(0.5, 10.0, size=(n, n))
    f = (f + f.T) / 2.0
    np.fill_diagonal(f, 0.0)
    return DecaySpace(f)


def test_zeta_closed_form():
    # 4**t <= 1**t + 1**t turns tight exactly at t = 1/2
    zr, z, wit = compute_zeta(sym3(1.0, 1.0, 4.0))
    assert abs(z - 2.0) <= 1e-8
    assert zr == z
    assert wit == (0, 1, 2)


def test_zeta_matches_independent_root():
    # one binding constraint, 32**t = 1 + 16**t, solved two ways
    zr, z, _ = compute_zeta(sym3(1.0, 16.0, 32.0))
    t_star = brentq(lambda t: 32.0 ** t - 16.0 ** t - 1.0, 1e-3, 1.0, xtol=1e-14)
    assert abs(z - 1.0 / t_star) <= 1e-6


def test_zeta_recovers_path_loss_exponent():
    pts = random_points(50, 12345, plant_collinear=True)
    for alpha in (1.0, 3.0):
        zr, z, wit = compute_zeta(gen_euclidean(pts, alpha))
        assert abs(z - alpha) <= 1e-6
    # the exactly collinear planted triple is the binding witness
    assert wit == (47, 48, 49)


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(3, 6), st.floats(0.01, 100.0))
def test_zeta_is_scale_invariant(seed, n, c):
    sp = sym_space(seed, n)
    z1 = compute_zeta(sp)[1]
    z2 = compute_zeta(DecaySpace(c * sp.f))[1]
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


def test_zeta_small_and_unconstrained_spaces():
    with pytest.raises(ValueError):
        compute_zeta(DecaySpace(np.zeros((1, 1))))
    two = DecaySpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert compute_zeta(two) == (1.0, 1.0, None)
    # no triple exceeds both legs, so nothing binds
    assert compute_zeta(sym3(2.0, 2.0, 2.0)) == (1.0, 1.0, None)


def test_zeta_zero_leg_is_hopeless():
    f = np.array([[1.0, 0.0, 8.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    zr, z, wit = compute_zeta(DecaySpace(f, mode="link-gain"))
    assert z == float("inf")
    assert wit == (0, 1, 2)


NEAR_TIES = {
    # log c == log a after rounding: a tie in log space holds at every t
    "log-tie": (1e300, float(np.nextafter(1e300, np.inf))),
    # log c exceeds log a by one ulp: the critical exponent is about 3e15,
    # where adjacent floats lie further apart than tol
    "one-ulp": (2.0, float(np.nextafter(2.0, np.inf))),
}


@pytest.mark.parametrize("name", sorted(NEAR_TIES))
def test_zeta_terminates_on_near_ties(name):
    # a subprocess, so that a hang fails the test instead of stalling the suite
    a, c = NEAR_TIES[name]
    code = ("import numpy as np; from decayspace import DecaySpace, compute_zeta; "
            "f = np.full((3, 3), %r); np.fill_diagonal(f, 0.0); f[0][2] = %r; "
            "print(compute_zeta(DecaySpace(f)))" % (a, c))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    zr, z, wit = ast.literal_eval(proc.stdout.strip())
    if name == "log-tie":
        assert (zr, z, wit) == (1.0, 1.0, None)
    else:
        assert 0.0 < zr < 1e-15 and z == 1.0 and wit == (0, 1, 2)


def test_zeta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_zeta(DecaySpace(np.array([[0.0, -1.0], [1.0, 0.0]])))


def test_phi_closed_form():
    pm, phi, wit = compute_phi(sym3(1.0, 4.0, 8.0))
    assert pm == 8.0 / 5.0
    assert phi == pytest.approx(np.log2(1.6), abs=1e-15)
    assert wit == (0, 1, 2)


def test_phi_equilateral_and_degenerate():
    pm, phi, wit = compute_phi(sym3(0.5, 0.5, 0.5))
    assert pm == 0.5 and phi == -1.0
    two = DecaySpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert compute_phi(two) == (0.0, float("-inf"), None)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=3, max_size=8,
                unique=True))
@example(random_points(30, 7))
def test_phi_at_most_one_for_metrics(pts):
    sp = gen_euclidean([[float(x), float(y)] for x, y in pts], 1.0)
    assert compute_phi(sp)[0] <= 1.0 + 1e-12


def test_quasi_distances_invert_the_exponent():
    pts = random_points(12, 3)
    sp = gen_euclidean(pts, 2.0)
    quasi = quasi_distances(sp, 2.0)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    assert quasi.zeta == 2.0 and quasi.n == 12
    assert np.allclose(quasi.d, d, rtol=1e-12, atol=0.0)
    # a quasi-metric is a decay space, so the metricity kernels take it:
    # the rescaling divides the exponent by zeta and keeps the witness
    zr, _, witness = compute_zeta(sp)
    assert repr(quasi) == "QuasiMetric(n=12, mode='node-space')"
    assert compute_zeta(quasi)[1:] == (1.0, witness)
    assert abs(compute_zeta(quasi)[0] - zr / 2.0) <= 1e-8


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(3, 7))
def test_quasi_distances_accept_computed_zeta(seed, n):
    sp = sym_space(seed, n)
    zeta = compute_zeta(sp)[1]
    quasi = quasi_distances(sp, zeta)  # must not raise
    assert quasi.n == n and quasi.zeta == zeta


def test_quasi_rejects_undersized_exponent():
    sp = gen_threepoint(256.0)
    z = compute_zeta(sp)[1]
    # a tolerance that is NaN, infinite or negative is refused, not used:
    # NaN and inf slack pass an undersized exponent, and a negative slack
    # reports a triple that holds
    for zeta, tol in ((0.9 * z, float("nan")), (0.9 * z, float("inf")), (z, -1.0)):
        with pytest.raises(ValueError, match=r"'tol' must lie in \[0, inf\)"):
            quasi_distances(sp, zeta, tol=tol)
        with pytest.raises(ValueError, match=r"'tol' must lie in \[0, inf\)"):
            triangle_violation(QuasiMetric(sp, zeta), tol=tol)
    # below 1 the power can overflow to inf and underflow to 0, which the
    # triangle check's slack tol * max(1, d) would let pass
    extreme = sym3(1e200, 1e-200, 1.0)
    for check in (True, False):
        with pytest.raises(ValueError, match="non-finite at .* indiscernibles at"):
            quasi_distances(extreme, 0.5, check=check)


def test_triangle_violation_reports_least_triple():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    assert triangle_violation(QuasiMetric(DecaySpace(d), 1.0)) == (0, 1, 2)
    close = d.copy()
    close[0, 2] = close[2, 0] = 2.0 + 1e-9  # inside the relative slack
    assert triangle_violation(QuasiMetric(DecaySpace(close), 1.0), tol=1e-7) is None


def test_validate_collects_every_code():
    res = validate_space(np.array([[0.0, 1.0], [-2.0, 0.0]]))
    assert not res.ok and ("non-negativity", 1, 0) in res.violations

    zero_off = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert ("indiscernibles", 0, 1) in validate_space(zero_off).violations

    hot_diag = np.array([[2.0, 1.0], [1.0, 0.0]])
    assert ("diagonal", 0, 0) in validate_space(hot_diag, "node-space").violations

    lg = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert ("diagonal", 0, 0) in validate_space(lg, "link-gain").violations

    for bad in (np.nan, np.inf, -np.inf):
        node = np.array([[0.0, bad], [1.0, 0.0]])
        link = np.array([[1.0, bad], [1.0, 1.0]])
        for f, mode in ((node, "node-space"), (link, "link-gain")):
            assert ("non-finite", 0, 1) in validate_space(f, mode).violations

    clean = validate_space(sym3(1.0, 1.0, 1.0).f)
    assert clean.ok and clean.violations == []
    with pytest.raises(ValueError, match="square"):
        validate_space(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="unknown mode"):
        validate_space(np.zeros((2, 2)), "nonsense")


# name: (mode, matrix, code and cell the error must name)
BAD_SPACES = {
    "nan": ("node-space", [[0, 1, 2], [1, 0, NAN], [2, 1, 0]], "non-finite at (1, 2)"),
    "inf": ("link-gain", [[1, 2, 2], [2, 1, 2], [INF, 2, 1]], "non-finite at (2, 0)"),
    "minus-inf": ("node-space", [[0, -INF, 2], [1, 0, 1], [2, 1, 0]], "non-finite at (0, 1)"),
    "negative": ("link-gain", [[1, 2, 2], [-2, 1, 2], [2, 2, 1]], "non-negativity at (1, 0)"),
    "zero-off-diagonal": ("node-space", [[0, 1, 2], [1, 0, 1], [0, 1, 0]],
                          "indiscernibles at (2, 0)"),
    "hot-diagonal": ("node-space", [[0, 1, 2], [1, 3, 1], [2, 1, 0]], "diagonal at (1, 1)"),
    "cold-diagonal": ("link-gain", [[1, 2, 2], [2, 1, 2], [2, 2, 0]], "diagonal at (2, 2)"),
}


@pytest.mark.parametrize("name", sorted(BAD_SPACES))
def test_constructor_enforces_the_axioms(tmp_path, name):
    mode, rows, named = BAD_SPACES[name]
    doc = {"mode": mode, "n": 3, "f": rows}
    builds = [lambda: DecaySpace(np.array(rows, dtype=float), mode),
              lambda: space_from_dict(doc)]
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    builds.append(lambda: load_space(str(path)))
    if mode == "node-space":
        csv = tmp_path / "space.csv"
        np.savetxt(csv, np.array(rows, dtype=float), delimiter=",")
        builds.append(lambda: load_space(str(csv)))
    system = tmp_path / "system.json"
    links = [[0, 1]] if mode == "node-space" else None
    system.write_text(json.dumps({"space": doc, "links": links}))
    builds.append(lambda: load_system(str(system)))
    for build in builds:
        with pytest.raises(ValueError, match="violates the decay axioms: .*" + re.escape(named)):
            build()


def test_space_matrix_is_read_only():
    sp = sym3(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        sp.f[0, 1] = 1.0
    # the space keeps its own copy, so the caller's matrix stays writable
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    DecaySpace(f)
    f[0, 1] = 2.0


_ENTRIES = st.floats(0.5, 10.0) | st.sampled_from([0.0, -0.0, -1.0, NAN, INF, -INF])


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_constructor_raises_exactly_on_violations(data):
    n = data.draw(st.integers(1, 4))
    mode = data.draw(st.sampled_from(["node-space", "link-gain"]))
    f = np.full((n, n), 2.0)
    np.fill_diagonal(f, 0.0 if mode == "node-space" else 1.0)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for (i, j), v in data.draw(st.lists(st.tuples(cells, _ENTRIES), max_size=3)):
        f[i, j] = v
    res = validate_space(f, mode)
    if res.ok:
        space = DecaySpace(f, mode)
        assert np.array_equal(space.f, f) and not np.signbit(space.f).any()
    else:
        with pytest.raises(ValueError, match="violates the decay axioms"):
            DecaySpace(f, mode)


def test_space_constructor_checks():
    with pytest.raises(ValueError):
        DecaySpace(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DecaySpace(np.zeros((2, 2)), mode="nonsense")
    with pytest.raises(ValueError, match="labels"):
        DecaySpace(np.ones((2, 2)) - np.eye(2), labels=["just one"])
    # a string would give one label per character, a set its hash order
    for labels in ("ab", {"a": 1, "b": 2}, {"a", "b"}, np.array([["a", "b"]])):
        with pytest.raises(ValueError, match="'labels' must be a list, tuple or 1-d array"):
            DecaySpace(np.ones((2, 2)) - np.eye(2), labels=labels)
    for labels in (["a", "b"], ("a", "b"), np.array(["a", "b"])):
        assert DecaySpace(np.ones((2, 2)) - np.eye(2), labels=labels).labels == ["a", "b"]
    # the message shows the first 10 of the 12 zero decays and counts the rest
    with pytest.raises(ValueError, match=r"indiscernibles at \(3, 0\) and 2 more$"):
        DecaySpace(np.zeros((4, 4)))
    sp = sym3(1.0, 2.0, 3.0)
    assert sp.n == 3
    assert sorted(sp.off_diagonal()) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]


def test_zeta_upper_bound():
    assert zeta_upper_bound(sym3(1.0, 16.0, 32.0)) == 5.0
    sp = gen_euclidean(random_points(20, 11), 2.5)
    assert compute_zeta(sp)[1] <= zeta_upper_bound(sp) + 1e-9
    lg = DecaySpace(np.array([[1.0, 0.0], [3.0, 1.0]]), mode="link-gain")
    assert zeta_upper_bound(lg) == float("inf")
    with pytest.raises(ValueError):
        zeta_upper_bound(DecaySpace(np.zeros((1, 1))))


def test_zeta_upper_bound_past_the_float_range():
    # the spread 2**1074 overflows a float, its lg does not
    sp = DecaySpace(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 5e-324, 0.0]]))
    assert zeta_upper_bound(sp) == 1074.0
    assert analyze_metricity(sp).zeta0 == 1074.0
    assert zeta_upper_bound(sym3(2.0 ** -1000, 1.0, 2.0 ** 100)) == 1100.0


def test_analyze_metricity_bundles_components():
    sp = sym3(1.0, 4.0, 8.0)
    rep = analyze_metricity(sp)
    assert rep.zeta == compute_zeta(sp)[1]
    assert rep.zeta_raw == compute_zeta(sp)[0]
    assert rep.phi_mult == compute_phi(sp)[0]
    assert rep.zeta0 == zeta_upper_bound(sp)
    assert rep.witness_phi == (0, 1, 2)
