"""One whole-number rule and one real-number rule at every entry point that takes a scalar.

Each row calls one entry point with one scalar changed. A bool, a string
or None is refused with a ValueError that names the parameter, and so is
a fraction, NaN or infinity where a whole number is expected. Python and numpy
ints and floats of the same value are accepted and give the same result,
compared as canonical report text. A row's interval is the range the call
accepts: NaN, each open end and the first value past each closed end are
refused, each closed end is accepted.
"""

import ast
import math
import pathlib
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
    capacity_oracle,
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
    guard_set,
    independence_at,
    independence_dimension,
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
from decayspace.search import max_independent_set, max_weight_independent_set

LINE = gen_euclidean([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], 1.0)
ONE = gen_euclidean([[0.0, 0.0]], 1.0)
FOUR = random_link_system(4, 3)
QUASI = QuasiMetric(FOUR.space, 3.0)
EMPTY = LinkSystem(DecaySpace(np.empty((0, 0)), mode="link-gain"))


def _system(**fields):
    doc = {"space": space_to_dict(LINE), "links": [[0, 1], [2, 3]]}
    doc.update(fields)
    return system_from_dict(doc)


def _graph(n=4, end=3):
    # load_graph reads a file; the document is handed over as parsed, numpy scalars included
    with mock.patch.object(io, "_read_doc", return_value={"n": n, "edges": [[1, end]]}):
        return load_graph("graph.json")


def _verify(seed):
    # one check that reports the seed it was given, in place of the whole registry
    with mock.patch.object(verify, "_CHECKS", [("seed", lambda s: (True, s))]):
        return verify.run_verify(seed)


# (id, parameter name, call with the scalar, a value the call accepts, its interval or None)
WHOLE = [
    ("ball", "node", lambda v: ball(LINE, v, 1.5), 3, "[0, 4)"),
    ("packing_number body", "node", lambda v: packing_number(LINE, [1, v], 1.0), 3, "[0, 4)"),
    ("independence_at node", "node",
     lambda v: independence_at(LINE, QuasiMetric(LINE, 1.0), v), 3, "[0, 4)"),
    ("guard_set", "node", lambda v: guard_set(LINE, QuasiMetric(LINE, 1.0), v), 3, "[0, 4)"),
    ("interference_at", "sender", lambda v: interference_at(_system(), [v], 1), 3, "[0, 4)"),
    ("LinkSystem", "node", lambda v: LinkSystem(LINE, links=[(v, 1)]), 3, "[0, 4)"),
    ("system_from_dict", "node", lambda v: _system(links=[[1, v]]), 3, "[0, 4)"),
    ("is_feasible", "link index", lambda v: is_feasible(FOUR, [1, v]), 3, "[0, 4)"),
    ("affectance", "link index", lambda v: affectance(FOUR, 0, v), 3, "[0, 4)"),
    ("affectance w", "link index", lambda v: affectance(FOUR, v, 0), 3, "[0, 4)"),
    ("aggregate_affectance", "link index",
     lambda v: aggregate_affectance(FOUR, [0, 1], v), 3, "[0, 4)"),
    ("link_distance", "link index", lambda v: link_distance(FOUR, QUASI, v, 0), 3, "[0, 4)"),
    ("link_length", "link index", lambda v: FOUR.link_length(QUASI, v), 3, "[0, 4)"),
    ("check_separation", "link index",
     lambda v: check_separation(FOUR, QUASI, v, [0], 0.5), 3, "[0, 4)"),
    ("pairwise_power_infeasible", "link index",
     lambda v: pairwise_power_infeasible(FOUR, 1, v), 3, "[0, 4)"),
    ("pairwise_power_infeasible v", "link index",
     lambda v: pairwise_power_infeasible(FOUR, v, 1), 3, "[0, 4)"),
    ("gen_equidecay_graph edge", "node", lambda v: gen_equidecay_graph(4, [(1, v)]), 3, "[0, 4)"),
    ("load_graph n", "n", lambda v: _graph(n=v), 4, None),
    ("space_from_dict n", "n",
     lambda v: space_from_dict({"mode": "link-gain", "n": v, "f": [[1.0]]}), 1, None),
    ("load_graph edge", "node", lambda v: _graph(end=v), 3, "[0, 4)"),
    ("random_points", "n", lambda v: random_points(v, 1), 3, "[1, inf)"),
    ("gen_star", "k", lambda v: gen_star(v, 1.0), 3, "[1, inf)"),
    ("gen_welzl", "n", lambda v: gen_welzl(v), 3, "[1, inf)"),
    ("gen_equidecay_graph", "n_vertices",
     lambda v: gen_equidecay_graph(v, [], far_decay=5.0), 3, "[1, inf)"),
    ("gen_twoline", "n_vertices", lambda v: gen_twoline(v, [], 2.5), 3, "[2, inf)"),
    ("random_graph", "n", lambda v: random_graph(v, 0.5, 1), 3, "[1, inf)"),
    ("random_link_system", "n_links", lambda v: random_link_system(v, 1), 3, "[1, inf)"),
    ("max_independent_set", "exact_limit",
     lambda v: max_independent_set(np.zeros((4, 4), dtype=bool), v), 3, "[0, inf)"),
    ("max_weight_independent_set", "exact_limit",
     lambda v: max_weight_independent_set(np.ones(3), np.zeros((3, 3), dtype=bool), v), 1,
     "[0, inf)"),
    ("packing_number", "exact_limit",
     lambda v: packing_number(LINE, range(4), 1.0, exact_limit=v), 1, "[0, inf)"),
    ("independence_dimension", "exact_limit",
     lambda v: independence_dimension(LINE, QuasiMetric(LINE, 1.0), exact_limit=v), 1,
     "[0, inf)"),
    ("assouad_estimate", "exact_limit", lambda v: assouad_estimate(LINE, exact_limit=v), 3,
     "[0, inf)"),
    # no node has a candidate sender, and one node has no other, so neither search runs
    ("fading_parameter", "exact_limit", lambda v: fading_parameter(LINE, 1e9, exact_limit=v), 3,
     "[0, inf)"),
    ("independence_at", "exact_limit",
     lambda v: independence_at(ONE, QuasiMetric(ONE, 1.0), 0, exact_limit=v), 3, "[0, inf)"),
    ("capacity_oracle", "max_n", lambda v: capacity_oracle(EMPTY, v), 3, "[0, inf)"),
    ("random_points seed", "seed", lambda v: random_points(3, v), 3, "[0, inf)"),
    ("random_graph seed", "seed", lambda v: random_graph(4, 0.5, v), 3, "[0, inf)"),
    ("random_link_system seed", "seed", lambda v: random_link_system(3, v), 3, "[0, inf)"),
    ("run_verify", "seed", _verify, 3, "[0, inf)"),
]
REAL = [
    ("SinrParams beta", "beta", lambda v: SinrParams(beta=v), 3, "[1, inf)"),
    ("SinrParams noise", "noise", lambda v: SinrParams(noise=v), 3, "[0, inf)"),
    ("uniform power", "level", lambda v: PowerAssignment.uniform(v), 3, "(0, inf)"),
    ("explicit power", "level", lambda v: PowerAssignment.explicit([1.0, v]), 3, "(0, inf)"),
    ("system_from_dict beta", "beta", lambda v: _system(beta=v), 3, "[1, inf)"),
    ("system_from_dict level", "level",
     lambda v: _system(power={"kind": "uniform", "level": v}), 3, "(0, inf)"),
    ("system_from_dict levels", "level",
     lambda v: _system(power={"kind": "explicit", "levels": [1, v]}), 3, "(0, inf)"),
    # unit distance, so the closed end alpha = inf gives a space
    ("gen_euclidean", "alpha", lambda v: gen_euclidean([[0, 0], [1, 0]], v), 3, "[1, inf]"),
    ("gen_threepoint", "q", lambda v: gen_threepoint(v), 3, "(1, inf)"),
    ("gen_star", "r", lambda v: gen_star(3, v), 3, "(0, inf)"),
    ("gen_welzl", "eps", lambda v: gen_welzl(3, eps=v), 0.25, "(0, 1)"),
    # one vertex, so the closed end far_decay = inf gives a space
    ("gen_equidecay_graph", "far_decay",
     lambda v: gen_equidecay_graph(1, [], far_decay=v), 3, "(1, inf]"),
    ("gen_twoline alpha", "alpha", lambda v: gen_twoline(3, [], v), 3, "(1, inf)"),
    ("gen_twoline delta", "delta", lambda v: gen_twoline(3, [], 2.5, delta=v), 0.25, "(0, 0.5)"),
    ("random_graph", "p", lambda v: random_graph(4, v, 1), 1, "[0, 1]"),
    ("random_link_system", "box", lambda v: random_link_system(3, 1, box=v), 3, "(0, inf)"),
    ("zeta_hat", "s", lambda v: zeta_hat(v), 3, "(1, inf)"),
    ("fading_bound", "A", lambda v: fading_bound(2.0, v), 0.25, "(-inf, inf)"),
    ("is_feasible", "K", lambda v: is_feasible(FOUR, [0, 1], K=v), 3, "(0, inf]"),
    ("QuasiMetric", "zeta", lambda v: QuasiMetric(LINE, v), 3, "(0, inf)"),
    ("compute_zeta", "tol", lambda v: compute_zeta(LINE, tol=v), 2.0 ** -20, "(0, inf)"),
    ("triangle_violation", "tol", lambda v: triangle_violation(QUASI, v), 0.25, "[0, inf)"),
    ("ball", "t", lambda v: ball(LINE, 0, v), 3, "(0, inf]"),
    ("fading_parameter", "r", lambda v: fading_parameter(LINE, v), 3, "(0, inf]"),
    # a metric space, so the closed end zeta = 1 passes the triangle check
    ("capacity_uniform", "zeta", lambda v: capacity_uniform(_system(), v), 3, "[1, inf)"),
    ("signal_strengthen p", "p", lambda v: signal_strengthen(FOUR, [0], v, 4.0), 3, "(0, inf)"),
    ("signal_strengthen q", "q", lambda v: signal_strengthen(FOUR, [0], 1.0, v), 3, "(0, inf)"),
    # eta = inf, so the closed end tau = inf keeps eta >= tau
    ("separation_strengthen tau", "tau",
     lambda v: separation_strengthen(FOUR, QUASI, [0], v, math.inf), 3, "(0, inf]"),
    ("separation_strengthen eta", "eta",
     lambda v: separation_strengthen(FOUR, QUASI, [0], 0.5, v), 3, "(0, inf]"),
    ("check_separation", "eta", lambda v: check_separation(FOUR, QUASI, 0, [1], v), 3, "[0, inf]"),
    ("packing_number", "t", lambda v: packing_number(LINE, range(4), v), 3, "(0, inf]"),
    ("assouad_estimate C", "C", lambda v: assouad_estimate(LINE, C=v), 3, "(0, inf)"),
    ("assouad_estimate q", "q", lambda v: assouad_estimate(LINE, q_grid=(2.0, v)), 3, "(1, inf)"),
    ("fading_bound C", "C", lambda v: fading_bound(v, 0.25), 3, "(0, inf)"),
    ("zeta_hat tol", "tol", lambda v: zeta_hat(3.0, tol=v), 3, "[1e-15, inf]"),
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


def _refused(name, call, bad, said=None):
    said = said or "%r must be" % name
    for value in bad:
        with pytest.raises(ValueError) as exc:
            call(value)
            pytest.fail("accepted %r" % (value,))
        assert said in str(exc.value), (value, str(exc.value))


def _same(call, good, forms):
    want = _text(call(good))
    for value in forms:
        assert _text(call(value)) == want, value


def _ends(name, call, interval, whole):
    # NaN, each open end and the first value past each closed finite end are
    # refused with the interval in the message, each closed end is accepted;
    # a whole number's NaN and inf are refused as fractions instead
    if interval is None:
        return
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    refused, accepted = [math.nan], []
    for end, closed, way in ((lo, interval[0] == "[", -math.inf),
                             (hi, interval[-1] == "]", math.inf)):
        if not closed:
            refused.append(end)
            continue
        accepted.append(end)
        if math.isfinite(end):
            refused.append(end + math.copysign(1.0, way) if whole else np.nextafter(end, way))
    if whole:
        refused = [value for value in refused if math.isfinite(value)]
    _refused(name, call, refused, "%r must lie in %s, got" % (name, interval))
    for value in accepted:
        call(value)


@pytest.mark.parametrize("key,name,call,good,interval", WHOLE, ids=[row[0] for row in WHOLE])
def test_whole_numbers_are_checked_alike(key, name, call, good, interval):
    _refused(name, call, (True, np.True_, str(good), None, good + 0.5, good + 0.7, math.nan,
                          math.inf))
    _same(call, good, (float(good), np.int64(good), np.float64(good)))
    _ends(name, call, interval, whole=True)


@pytest.mark.parametrize("key,name,call,good,interval", REAL, ids=[row[0] for row in REAL])
def test_real_numbers_are_checked_alike(key, name, call, good, interval):
    # far_decay=None asks for the default and C=None for a fit, so None is refused everywhere else
    bad = (True, np.True_, str(good)) + (() if key in NONE_ASKS else (None,))
    _refused(name, call, bad)
    forms = (float(good), np.float64(good), np.float32(good))
    if float(good).is_integer():
        forms += (int(good), np.int64(good))
    _same(call, good, forms)
    _ends(name, call, interval, whole=False)


def test_every_scalar_the_library_reads_has_a_row():
    # a name passed to _real, or to _whole or _indices, with no row of that name goes unchecked;
    # names only, so a new call under a name that already has a row (tol, seed, n) passes here
    # and needs its own row all the same
    names = {"_real": {row[1] for row in REAL}, "_whole": {row[1] for row in WHOLE}}
    names["_indices"] = names["_whole"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "decayspace"
    missing = [(path.name, node.lineno, node.args[0].value)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names
               and isinstance(node.args[0], ast.Constant)
               and node.args[0].value not in names[node.func.id]]
    assert not missing


def test_plant_collinear_must_be_a_bool():
    # bool() would read "false" as true and plant the collinear triple
    for bad in ("false", 0, 1, None):
        with pytest.raises(ValueError, match="'plant_collinear' must be a bool"):
            random_points(5, 1, plant_collinear=bad)
    planted = random_points(5, 1, plant_collinear=True)
    assert np.array_equal(random_points(5, 1, plant_collinear=np.True_), planted)
    assert np.array_equal(random_points(5, 1, plant_collinear=False), random_points(5, 1))
