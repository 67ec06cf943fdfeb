"""One whole-number rule and one real-number rule at every entry point that takes a scalar.

Each row calls one entry point with one scalar changed. A bool, a string
or None is refused with a ValueError that names the parameter, and so is
a fraction, NaN or infinity where a whole number is expected. Python and numpy
ints and floats of the same value are accepted and give the same result,
compared as canonical report text.
"""

import math
from unittest import mock

import numpy as np
import pytest

from decayspace import (
    DecaySpace,
    LinkSystem,
    PowerAssignment,
    QuasiMetric,
    SinrParams,
    affectance,
    aggregate_affectance,
    assouad_estimate,
    ball,
    capacity_uniform,
    check_separation,
    compute_zeta,
    fading_bound,
    fading_parameter,
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    interference_at,
    is_feasible,
    link_distance,
    load_graph,
    packing_number,
    pairwise_power_infeasible,
    random_graph,
    random_link_system,
    random_points,
    separation_strengthen,
    signal_strengthen,
    space_from_dict,
    system_from_dict,
    triangle_violation,
    zeta_hat,
)
from decayspace import io, verify
from decayspace.cli import _plain
from decayspace.io import dumps_canonical, space_to_dict, system_to_dict
from decayspace.search import max_independent_set

LINE = gen_euclidean([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], 1.0)
FOUR = random_link_system(4, 3)
QUASI = QuasiMetric(FOUR.space, 3.0)


def _system(**fields):
    doc = {"space": space_to_dict(LINE), "links": [[0, 1], [2, 3]]}
    doc.update(fields)
    return system_from_dict(doc)


def _graph(n=4, end=3):
    # load_graph reads a file; the document is handed over as parsed, numpy scalars included
    with mock.patch.object(io, "_read_doc", return_value={"n": n, "edges": [[0, end]]}):
        return load_graph("graph.json")


def _verify(seed):
    # one check that reports the seed it was given, in place of the whole registry
    with mock.patch.object(verify, "_CHECKS", [("seed", lambda s: (True, s))]):
        return verify.run_verify(seed)


# (id, parameter name, call with the scalar, a value the call accepts)
WHOLE = [
    ("ball", "node", lambda v: ball(LINE, v, 1.5), 3),
    ("interference_at", "node", lambda v: interference_at(_system(), [0, v], 1), 3),
    ("LinkSystem", "node", lambda v: LinkSystem(LINE, links=[(v, 0)]), 3),
    ("system_from_dict", "node", lambda v: _system(links=[[0, v]]), 3),
    ("is_feasible", "link index", lambda v: is_feasible(FOUR, [0, v]), 3),
    ("affectance", "link index", lambda v: affectance(FOUR, 0, v), 3),
    ("aggregate_affectance", "link index", lambda v: aggregate_affectance(FOUR, [0, 1], v), 3),
    ("link_distance", "link index", lambda v: link_distance(FOUR, QUASI, v, 0), 3),
    ("link_length", "link index", lambda v: FOUR.link_length(QUASI, v), 3),
    ("check_separation", "link index", lambda v: check_separation(FOUR, QUASI, v, [0], 0.5), 3),
    ("pairwise_power_infeasible", "link index",
     lambda v: pairwise_power_infeasible(FOUR, 0, v), 3),
    ("gen_equidecay_graph edge", "edge endpoint",
     lambda v: gen_equidecay_graph(4, [(0, v)]), 3),
    ("load_graph n", "n", lambda v: _graph(n=v), 4),
    ("space_from_dict n", "n",
     lambda v: space_from_dict({"mode": "link-gain", "n": v, "f": [[1.0]]}), 1),
    ("load_graph edge", "edge endpoint", lambda v: _graph(end=v), 3),
    ("random_points", "n", lambda v: random_points(v, 1), 3),
    ("gen_star", "k", lambda v: gen_star(v, 1.0), 3),
    ("gen_welzl", "n", lambda v: gen_welzl(v), 3),
    ("gen_equidecay_graph", "n_vertices", lambda v: gen_equidecay_graph(v, []), 3),
    ("gen_twoline", "n_vertices", lambda v: gen_twoline(v, [], 2.5), 3),
    ("random_graph", "n", lambda v: random_graph(v, 0.5, 1), 3),
    ("random_link_system", "n_links", lambda v: random_link_system(v, 1), 3),
    ("max_independent_set", "exact_limit",
     lambda v: max_independent_set(np.zeros((4, 4), dtype=bool), v), 3),
    ("random_points seed", "seed", lambda v: random_points(3, v), 3),
    ("random_graph seed", "seed", lambda v: random_graph(4, 0.5, v), 3),
    ("random_link_system seed", "seed", lambda v: random_link_system(3, v), 3),
    ("run_verify", "seed", _verify, 3),
]
REAL = [
    ("SinrParams beta", "beta", lambda v: SinrParams(beta=v), 3),
    ("SinrParams noise", "noise", lambda v: SinrParams(noise=v), 3),
    ("uniform power", "level", lambda v: PowerAssignment.uniform(v), 3),
    ("explicit power", "level", lambda v: PowerAssignment.explicit([1.0, v]), 3),
    ("system_from_dict beta", "beta", lambda v: _system(beta=v), 3),
    ("system_from_dict level", "level",
     lambda v: _system(power={"kind": "uniform", "level": v}), 3),
    ("system_from_dict levels", "level",
     lambda v: _system(power={"kind": "explicit", "levels": [1, v]}), 3),
    ("gen_euclidean", "alpha", lambda v: gen_euclidean([[0, 0], [1, 2]], v), 3),
    ("gen_threepoint", "q", lambda v: gen_threepoint(v), 3),
    ("gen_star", "r", lambda v: gen_star(3, v), 3),
    ("gen_welzl", "eps", lambda v: gen_welzl(3, eps=v), 0.25),
    ("gen_equidecay_graph", "far_decay", lambda v: gen_equidecay_graph(3, [], far_decay=v), 3),
    ("gen_twoline alpha", "alpha", lambda v: gen_twoline(3, [], v), 3),
    ("gen_twoline delta", "delta", lambda v: gen_twoline(3, [], 2.5, delta=v), 0.25),
    ("random_graph", "p", lambda v: random_graph(4, v, 1), 1),
    ("random_link_system", "box", lambda v: random_link_system(3, 1, box=v), 3),
    ("zeta_hat", "s", lambda v: zeta_hat(v), 3),
    ("fading_bound", "A", lambda v: fading_bound(2.0, v), 0.25),
    ("is_feasible", "K", lambda v: is_feasible(FOUR, [0, 1], K=v), 3),
    ("QuasiMetric", "zeta", lambda v: QuasiMetric(LINE, v), 3),
    ("compute_zeta", "tol", lambda v: compute_zeta(LINE, tol=v), 2.0 ** -20),
    ("triangle_violation", "tol", lambda v: triangle_violation(QUASI, v), 0.25),
    ("ball", "t", lambda v: ball(LINE, 0, v), 3),
    ("fading_parameter", "r", lambda v: fading_parameter(LINE, v), 3),
    ("capacity_uniform", "zeta", lambda v: capacity_uniform(FOUR, v), 3),
    ("signal_strengthen p", "p", lambda v: signal_strengthen(FOUR, [0], v, 4.0), 3),
    ("signal_strengthen q", "q", lambda v: signal_strengthen(FOUR, [0], 1.0, v), 3),
    ("separation_strengthen tau", "tau",
     lambda v: separation_strengthen(FOUR, QUASI, [0], v, 4.0), 3),
    ("separation_strengthen eta", "eta",
     lambda v: separation_strengthen(FOUR, QUASI, [0], 0.5, v), 3),
    ("check_separation", "eta", lambda v: check_separation(FOUR, QUASI, 0, [1], v), 3),
    ("packing_number", "t", lambda v: packing_number(LINE, range(4), v), 3),
    ("assouad_estimate C", "C", lambda v: assouad_estimate(LINE, C=v), 3),
    ("assouad_estimate q", "q", lambda v: assouad_estimate(LINE, q_grid=(2.0, v)), 3),
    ("fading_bound C", "C", lambda v: fading_bound(v, 0.25), 3),
    ("zeta_hat tol", "tol", lambda v: zeta_hat(3.0, tol=v), 3),
]


NONE_ASKS = ("gen_equidecay_graph", "assouad_estimate C")


def _text(made):
    # canonical text of a result, as a report would hold it
    if isinstance(made, LinkSystem):
        made = system_to_dict(made)
    elif isinstance(made, QuasiMetric):
        made = (made.zeta, made.d)
    elif isinstance(made, DecaySpace):
        made = space_to_dict(made)
    elif isinstance(made, (SinrParams, PowerAssignment)):
        made = vars(made)
    return dumps_canonical(_plain(made))


def _refused(name, call, bad):
    # exact_limit keeps the message its searches have always given
    said = "exact_limit must be an integer >= 0" if name == "exact_limit" else "%r must be" % name
    for value in bad:
        with pytest.raises(ValueError) as exc:
            call(value)
            pytest.fail("accepted %r" % (value,))
        assert said in str(exc.value), (value, str(exc.value))


def _same(call, good, forms):
    want = _text(call(good))
    for value in forms:
        assert _text(call(value)) == want, value


@pytest.mark.parametrize("key,name,call,good", WHOLE, ids=[row[0] for row in WHOLE])
def test_whole_numbers_are_checked_alike(key, name, call, good):
    _refused(name, call, (True, np.True_, str(good), None, good + 0.5, good + 0.7, math.nan,
                          math.inf))
    _same(call, good, (float(good), np.int64(good), np.float64(good)))


@pytest.mark.parametrize("key,name,call,good", REAL, ids=[row[0] for row in REAL])
def test_real_numbers_are_checked_alike(key, name, call, good):
    # far_decay=None asks for the default and C=None for a fit, so None is refused everywhere else
    bad = (True, np.True_, str(good)) + (() if key in NONE_ASKS else (None,))
    _refused(name, call, bad)
    forms = (float(good), np.float64(good), np.float32(good))
    if float(good).is_integer():
        forms += (int(good), np.int64(good))
    _same(call, good, forms)


def test_plant_collinear_must_be_a_bool():
    # bool() would read "false" as true and plant the collinear triple
    for bad in ("false", 0, 1, None):
        with pytest.raises(ValueError, match="'plant_collinear' must be a bool"):
            random_points(5, 1, plant_collinear=bad)
    planted = random_points(5, 1, plant_collinear=True)
    assert np.array_equal(random_points(5, 1, plant_collinear=np.True_), planted)
    assert np.array_equal(random_points(5, 1, plant_collinear=False), random_points(5, 1))
