"""The construction families: exact tables, reproducibility, guards."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from decayspace import (
    affectance,
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    random_graph,
    random_link_system,
    random_points,
    validate_space,
)
from decayspace import generators
from decayspace.generators import MAX_BOX, MAX_STAR_NODES

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_random_points_basic():
    pts = random_points(20, 7)
    assert pts.shape == (20, 2)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    assert len({(x, y) for x, y in pts}) == 20
    assert np.array_equal(pts, random_points(20, 7))
    assert not np.array_equal(pts, random_points(20, 8))


def test_random_points_planted_triple_is_exact():
    for seed in (0, 1, 12345):
        pts = random_points(50, seed, plant_collinear=True)
        # dyadic grid placement makes the spacing bit-for-bit even
        assert np.array_equal(pts[-1] - pts[-2], pts[-2] - pts[-3])
        assert np.any(pts[-1] != pts[-2])
        assert len({(x, y) for x, y in pts}) == 50


def test_random_points_rejects_bad_inputs():
    with pytest.raises(ValueError):
        random_points(0, 1)
    with pytest.raises(ValueError):
        random_points(2, 1, plant_collinear=True)


def test_gen_euclidean_path_loss():
    sp = gen_euclidean([[0.0, 0.0], [3.0, 4.0]], 2.0)
    assert sp.f[0, 1] == 25.0 and sp.f[1, 0] == 25.0
    assert sp.f[0, 0] == 0.0
    assert validate_space(sp).ok
    with pytest.raises(ValueError):
        gen_euclidean([[0.0, 0.0], [1.0, 0.0]], 0.5)
    with pytest.raises(ValueError):
        gen_euclidean(np.empty((0, 2)), 2.0)
    with pytest.raises(ValueError):
        gen_euclidean([1.0, 2.0], 2.0)


def test_gen_threepoint_table():
    sp = gen_threepoint(4.0)
    want = np.array([[0.0, 1.0, 8.0], [1.0, 0.0, 4.0], [8.0, 4.0, 0.0]])
    assert np.array_equal(sp.f, want)
    assert sp.mode == "node-space"
    with pytest.raises(ValueError):
        gen_threepoint(1.0)


def test_gen_star_table():
    sp = gen_star(3, 0.5)
    want = np.array([
        [0.0, 0.5, 9.5, 9.5, 9.5],
        [0.5, 0.0, 9.0, 9.0, 9.0],
        [9.5, 9.0, 0.0, 18.0, 18.0],
        [9.5, 9.0, 18.0, 0.0, 18.0],
        [9.5, 9.0, 18.0, 18.0, 0.0],
    ])
    assert np.array_equal(sp.f, want)
    assert sp.labels == ["stray", "hub", "leaf0", "leaf1", "leaf2"]
    with pytest.raises(ValueError):
        gen_star(0, 1.0)
    with pytest.raises(ValueError):
        gen_star(3, 0.0)


def _star_by_loops(k, r):
    # the element-by-element build that the array build replaced
    n = k + 2
    f = np.zeros((n, n))
    k2 = float(k) ** 2
    f[0, 1] = f[1, 0] = r
    for leaf in range(2, n):
        f[1, leaf] = f[leaf, 1] = k2
        f[0, leaf] = f[leaf, 0] = r + k2
        for other in range(2, leaf):
            f[leaf, other] = f[other, leaf] = 2.0 * k2
    return f


def test_gen_star_array_build_matches_loops_and_is_capped(monkeypatch):
    for k in (1, 2, 3, 16, 57, 200):
        for r in (1e-3, 0.5, 1, 7.25):
            assert gen_star(k, r).f.tobytes() == _star_by_loops(k, r).tobytes()
    for k in (MAX_STAR_NODES - 1, 10 ** 5, 10 ** 18):
        with pytest.raises(ValueError, match="at most"):
            gen_star(k, 1.0)
    # the cap admits its boundary, checked on a small cap
    monkeypatch.setattr(generators, "MAX_STAR_NODES", 12)
    assert gen_star(10, 1.0).n == 12
    with pytest.raises(ValueError, match="at most 12"):
        gen_star(11, 1.0)


def test_gen_welzl_table():
    eps = 1e-6
    sp = gen_welzl(3, eps)
    assert sp.n == 5
    for i in range(4):
        assert sp.f[0, 1 + i] == 2.0 ** i - eps
        assert sp.f[1 + i, 0] == 2.0 ** i - eps
        for j in range(i):
            assert sp.f[1 + j, 1 + i] == 2.0 ** i
            assert sp.f[1 + i, 1 + j] == 2.0 ** i
    assert sp.labels[:2] == ["anchor", "v0"]
    with pytest.raises(ValueError):
        gen_welzl(0)
    with pytest.raises(ValueError):
        gen_welzl(3, eps=0.0)
    with pytest.raises(ValueError):
        gen_welzl(3, eps=1.0)


def test_gen_equidecay_graph():
    sys = gen_equidecay_graph(4, [(0, 1), (2, 3)])
    f = sys.space.f
    assert np.array_equal(np.diag(f), np.ones(4))
    assert f[0, 1] == 0.5 and f[1, 0] == 0.5 and f[2, 3] == 0.5
    assert f[0, 2] == 4.0 and f[3, 1] == 4.0  # far decay defaults to n
    assert sys.space.mode == "link-gain"
    assert sys.links is None and sys.n_links == 4
    assert sys.params.beta == 1.0 and sys.params.noise == 0.0
    assert sys.power.kind == "uniform" and sys.power.value == 1.0

    custom = gen_equidecay_graph(1, [], far_decay=5.0)
    assert custom.space.f.shape == (1, 1)
    with pytest.raises(ValueError):
        gen_equidecay_graph(1, [])  # default far decay n = 1 degenerates
    with pytest.raises(ValueError):
        gen_equidecay_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        gen_equidecay_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        gen_equidecay_graph(0, [])


def test_gen_twoline_tables():
    n, alpha, delta = 4, 2.5, 0.25
    sys = gen_twoline(n, [(0, 1)], alpha, delta)
    f = sys.space.f
    na = float(n) ** (alpha - 1.0)
    assert f[0, 1] == 1.0 and f[4, 5] == 1.0  # within-row spacing
    assert f[0, 2] == 2.0 ** 1.5 and f[6, 4] == 2.0 ** 1.5
    assert f[0, n + 0] == na  # own crossing
    assert f[0, n + 1] == na - delta and f[n + 1, 0] == na - delta
    assert f[0, n + 2] == na * n and f[n + 2, 0] == na * n
    assert sys.links == [(i, n + i) for i in range(n)]
    # a non-adjacent sender is heard at exactly 1/n of the signal
    assert affectance(sys, 0, 2) == 1.0 / n
    assert affectance(sys, 3, 1) == 1.0 / n


def test_gen_twoline_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gen_twoline(1, [], 2.5)
    with pytest.raises(ValueError):
        gen_twoline(4, [], 1.0)
    with pytest.raises(ValueError):
        gen_twoline(4, [], 2.5, delta=0.5)
    with pytest.raises(ValueError):
        gen_twoline(4, [], 2.5, delta=0.0)
    with pytest.raises(ValueError):
        gen_twoline(4, [(0, 4)], 2.5)


def test_random_graph():
    n, edges = random_graph(6, 0.5, 3)
    assert n == 6
    assert all(0 <= i < j < 6 for i, j in edges)
    assert random_graph(6, 0.5, 3) == (n, edges)
    assert random_graph(5, 0.0, 1)[1] == []
    assert len(random_graph(5, 1.0, 1)[1]) == 10
    with pytest.raises(ValueError):
        random_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 1)


def test_random_link_system():
    sys = random_link_system(5, 11, beta=2.0, noise=0.1, alpha=3.0, box=6.0)
    assert sys.n_links == 5
    assert sys.links == [(i, 5 + i) for i in range(5)]
    assert sys.params.beta == 2.0 and sys.params.noise == 0.1
    assert sys.power.kind == "uniform"
    assert validate_space(sys.space).ok
    again = random_link_system(5, 11, beta=2.0, noise=0.1, alpha=3.0, box=6.0)
    assert np.array_equal(sys.space.f, again.space.f)
    with pytest.raises(ValueError):
        random_link_system(0, 1)
    # the largest box still keeps every drawn length in 0.1-0.8
    big = random_link_system(20, 1, alpha=2.0, box=MAX_BOX)
    lengths = np.sqrt(big.own_decays())
    assert np.all((0.1 - 1e-6 <= lengths) & (lengths <= 0.8 + 1e-6))


# a generator whose draws all coincide, to drive the resample loops to their cap
_STUCK = """
class _Stuck:
    def uniform(self, low, high, size):
        return np.full(size, low)

    def integers(self, low, high, size):
        return np.full(size, low)

np.random.default_rng = lambda *args, **kw: _Stuck()
"""


@pytest.mark.parametrize("call, why", [
    ("random_link_system(5, 1, box=0.0)", "positive and finite"),
    ("random_link_system(20, 1, box=1e-320)", "zero decay"),
    ("random_link_system(5, 1, box=float('nan'))", "positive and finite"),
    ("random_link_system(5, 1, box=float('inf'))", "positive and finite"),
    ("random_link_system(5, 1, box=-4.0)", "positive and finite"),
    ("random_link_system(20, 1, box=1e150)", "box 1e+150 exceeds MAX_BOX"),
    ("random_link_system(20, 1, box=1e300)", "box 1e+300 exceeds MAX_BOX"),
    ("random_link_system(20, 1, box=MAX_BOX * (1 + 2 ** -52))", "exceeds MAX_BOX"),
    (_STUCK + "random_link_system(5, 1)", "draws"),
    (_STUCK + "random_points(5, 1)", "draws"),
])
def test_random_generators_reject_or_stop(call, why):
    # in a child process, so a resample loop that never ends fails on the timeout
    script = ("import numpy as np\nfrom decayspace import random_link_system, random_points\n"
              "from decayspace.generators import MAX_BOX\n"
              "try:\n" + "".join("    %s\n" % line for line in call.strip().splitlines())
              + "except ValueError as e:\n    print('ValueError:', e)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.startswith("ValueError: ") and why in done.stdout, done.stdout
