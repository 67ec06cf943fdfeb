"""Command-line front end for decay-space analysis.

Every command handler loads its inputs, calls the library and returns
(config, results, exit code); main times the handler and prints one
canonical JSON report: {"command", "config", "version", "results",
"timing"}. Reports are deterministic for a fixed config and seed once
the timing block is dropped. Exit codes: 0 for a clean run, 1 when a
checked property is violated, 2 for usage or input errors.

INPUT_ERRORS is the one list of exceptions that mean a missing or
malformed input file: the commands turn them into exit 2 through
_read, and `verify --corpus` into a failed item.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from .spaces import (
    ZETA_TOL,
    _real,
    _whole,
    analyze_metricity,
    compute_zeta,
    quasi_distances,
    validate_space,
)
from .links import is_feasible
from .capacity import (
    _default_quasi,
    capacity_oracle,
    capacity_uniform,
    separation_strengthen,
    signal_strengthen,
)
from .analysis import assouad_estimate, fading_bound, fading_parameter
from .generators import (
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    random_graph,
    random_points,
)
from .io import (
    _read_doc,
    _read_space,
    dumps_canonical,
    load_space,
    load_system,
    save_space,
    save_system,
    space_from_dict,
    system_from_dict,
)
from .search import EXACT_LIMIT
from .verify import run_verify


ORACLE_AUTO_LIMIT = 14

# what the loaders raise on a missing, unparsable or malformed file
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError)


class UsageError(Exception):
    pass


def _plain(obj):
    # fields read directly: dataclasses.asdict would deep-copy every leaf first
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _read(load, what, path):
    try:
        return load(path)
    except INPUT_ERRORS as exc:
        raise UsageError("cannot read %s %s: %s" % (what, path, exc))


def _hopeless(witness):
    # why compute_zeta returned inf, from its least hopeless triple
    x, z, y = witness
    return ("no finite metricity exponent exists: f(%d,%d) exceeds its legs f(%d,%d) "
            "and f(%d,%d), and one leg is 0" % (x, y, x, z, z, y))


def _resolve_zeta(flag, space, tol):
    if flag == "auto":
        _, zeta, witness = compute_zeta(space, tol=tol)
        if zeta == math.inf:
            raise UsageError("--zeta auto: " + _hopeless(witness))
        return zeta
    try:
        zeta = float(flag)
    except ValueError:
        raise UsageError("--zeta takes 'auto' or a number, got %r" % flag)
    return _real("zeta", zeta, "[1, inf)")


def _resolve_quasi(flag, space, tol):
    # (zeta, its quasi-metric): compute_zeta returns a zeta whose
    # quasi-metric passes the triangle check, so only a typed zeta is checked
    zeta = _resolve_zeta(flag, space, tol)
    if flag == "auto":
        return zeta, quasi_distances(space, zeta, check=False)
    return zeta, _default_quasi(space, zeta)


def _cmd_validate(args):
    # the raw matrix, since a DecaySpace refuses the violations listed here
    f, mode, _ = _read(_read_space, "space", args.space)
    res = validate_space(f, mode)
    results = {
        "ok": res.ok,
        "mode": mode,
        "n": len(f),
        "violations": [
            {"code": code, "i": i, "j": j} for code, i, j in res.violations
        ],
    }
    return {"space": args.space}, results, 0 if res.ok else 1


def _cmd_analyze(args):
    tol = args.tol
    space = _read(load_space, "space", args.space)
    rep = analyze_metricity(space, tol=tol)
    zeta = rep.zeta if args.zeta == "auto" else _resolve_zeta(args.zeta, space, tol)
    witness = None if zeta < math.inf else _hopeless(rep.witness_zeta)
    try:
        if witness is None:
            quasi_distances(space, zeta)  # at the library's triangle slack, not at --tol
    except ValueError as exc:
        witness = str(exc)
    results = {
        "metricity": rep,
        "quasi": {"zeta": zeta, "consistent": witness is None, "witness": witness},
    }
    config = {"space": args.space, "tol": tol, "zeta": args.zeta}
    return config, results, 0 if witness is None else 1


def _cmd_capacity(args):
    sys_ = _read(load_system, "system", args.system)
    zeta, quasi = _resolve_quasi(args.zeta, sys_.space, args.tol)
    want_oracle = args.oracle == "on" or (
        args.oracle == "auto" and sys_.n_links <= ORACLE_AUTO_LIMIT
    )
    greedy = capacity_uniform(sys_, zeta, quasi=quasi)
    result = {
        "selected": greedy.selected,
        "intermediate": greedy.intermediate,
        "skipped": greedy.skipped,
        "opt": None,
        "opt_set": None,
        "ratio": None,
    }
    if want_oracle:
        opt, opt_set = capacity_oracle(sys_)
        result["opt"] = opt
        result["opt_set"] = opt_set
        result["ratio"] = opt / max(1, len(greedy.selected))
    chosen = greedy.selected
    ok = True
    if chosen:
        ok = bool(is_feasible(sys_, list(chosen), 1.0)[0])
    result["selected_feasible"] = ok
    config = {"system": args.system, "zeta": args.zeta, "oracle": args.oracle}
    return config, result, 0 if ok else 1


def _cmd_partition(args):
    sys_ = _read(load_system, "system", args.system)
    S = list(range(sys_.n_links))
    config = {"system": args.system, "kind": args.kind}
    if args.kind == "signal":
        # signal_strengthen raises unless every class it returns is q-feasible
        part = signal_strengthen(sys_, S, args.p, args.q)
        config.update(p=args.p, q=args.q)
    else:
        zeta, quasi = _resolve_quasi(args.zeta, sys_.space, args.tol)
        tau = args.tau if args.tau is not None else 1.0 / zeta
        eta = args.eta if args.eta is not None else zeta
        part = separation_strengthen(sys_, quasi, S, tau, eta)
        config.update(zeta=args.zeta, tau=tau, eta=eta)
    results = {
        "kind": args.kind,
        "classes": part.classes,
        "bound": part.bound,
        "certificate": part.certificate,
        "violating_classes": [],
    }
    return config, results, 0


def _cmd_fading(args):
    space = _read(load_space, "space", args.space)
    quasi = None
    if args.separation == "quasi":
        quasi = _resolve_quasi("auto", space, args.tol)[1]
    rep = fading_parameter(space, args.r, exact_limit=args.exact_limit, quasi=quasi)
    results = {"fading": rep}
    code = 0
    if args.C != "off":
        C = None if args.C == "fit" else float(args.C)
        est = assouad_estimate(space, C=C, exact_limit=args.exact_limit)
        block = {"estimate": est, "bound": None, "within_bound": None}
        if est.assouad < 1.0:
            bound = fading_bound(est.C, est.assouad)
            within = bool(rep.gamma <= bound + 1e-9)
            block["bound"] = bound
            block["within_bound"] = within
            if rep.exact and not within:
                code = 1
        results["growth"] = block
    config = {
        "space": args.space,
        "r": args.r,
        "C": args.C,
        "exact_limit": args.exact_limit,
        "separation": args.separation,
    }
    return config, results, code


def _parse_params(raw):
    if not raw:
        return {}
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError("--params is not valid JSON: %s" % exc)
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    return params


def _take(params, name, default=None, required=False):
    # the generators check each value; a null would read as a library default
    if name in params:
        if params[name] is None:
            raise UsageError("generate: parameter %r must be a number, a list or a "
                             "boolean, not null" % name)
        return params.pop(name)
    if required:
        raise UsageError("generate: missing parameter %r" % name)
    return default


def _given(params, name):
    # an optional parameter goes to the generator only when given, so its default has one home
    return {name: _take(params, name)} if name in params else {}


def _gen_edges(params, seed):
    # the library calls the count n_vertices, so n is checked under its JSON name
    n = _whole("n", _take(params, "n", required=True))
    if "edges" in params:
        edges = _take(params, "edges")
    else:
        p = _take(params, "p", 0.5)
        if seed is None:
            raise UsageError("generate: random edges need --seed")
        edges = random_graph(n, p, seed)[1]
    return n, edges


def _gen_instance(family, params, seed):
    # (space, system) of the family; system is None for a bare space
    if family == "euclidean":
        alpha = _take(params, "alpha", required=True)
        if "points" in params:
            pts = _take(params, "points")
        else:
            n = _take(params, "n", required=True)
            if seed is None:
                raise UsageError("generate: random points need --seed")
            pts = random_points(n, seed, **_given(params, "plant_collinear"))
        return gen_euclidean(pts, alpha), None
    if family == "threepoint":
        return gen_threepoint(_take(params, "q", required=True)), None
    if family == "star":
        return gen_star(_take(params, "k", required=True),
                        _take(params, "r", required=True)), None
    if family == "welzl":
        return gen_welzl(_take(params, "n", required=True), **_given(params, "eps")), None
    n, edges = _gen_edges(params, seed)
    if family == "equidecay":
        system = gen_equidecay_graph(n, edges, **_given(params, "far_decay"))
    else:  # twoline, the last family --family's choices admit
        alpha = _take(params, "alpha", required=True)
        system = gen_twoline(n, edges, alpha, **_given(params, "delta"))
    return system.space, system


def _cmd_generate(args):
    params = _parse_params(args.params)
    family = args.family
    try:
        space, system = _gen_instance(family, params, args.seed)
    except (TypeError, OverflowError, MemoryError) as exc:
        raise UsageError("generate: bad parameter for %s: %s" % (family, exc))
    if params:
        raise UsageError("generate: unused parameters %s" % sorted(params))
    try:
        if system is not None:
            save_system(system, args.out)
            own = {"kind": "system", "links": system.n_links}
        else:
            save_space(space, args.out)
            own = {"kind": "space", "mode": space.mode}
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (args.out, exc))
    results = {"family": family, "nodes": space.n, "path": args.out, **own}
    config = {"family": family, "params": args.params, "seed": args.seed, "out": args.out}
    return config, results, 0


def _corpus_space(path):
    # a JSON object with a "space" key is a system, anything else a space
    if not path.endswith(".json"):
        return load_space(path)
    doc = _read_doc(path)
    if isinstance(doc, dict) and "space" in doc:
        return system_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path))).space
    return space_from_dict(doc)


def _verify_file(path):
    # one corpus item: a malformed file is a failed item, not an abort
    name = "file:%s" % path
    try:
        space = _corpus_space(path)
    except INPUT_ERRORS as exc:
        return {"name": name, "ok": False, "detail": str(exc)}
    try:
        _, z, witness = compute_zeta(space)
        if z == math.inf:
            return {"name": name, "ok": False, "detail": _hopeless(witness)}
        _default_quasi(space, z)
    except ValueError as exc:
        return {"name": name, "ok": False, "detail": str(exc)}
    return {"name": name, "ok": True, "detail": "valid, zeta=%.6g" % z}


def _cmd_verify(args):
    if args.corpus == ["builtin"]:
        corpus, items = "builtin", run_verify(args.seed)
    else:
        corpus = list(args.corpus)
        items = [_verify_file(path) for path in corpus]
    items.sort(key=lambda it: it["name"])
    ok = all(it["ok"] for it in items)
    return {"seed": args.seed, "corpus": corpus}, {"ok": ok, "items": items}, 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decayspace",
        description="Analyze decay spaces: metricity, capacity, partitions, fading.",
        epilog="Exit codes: 0 clean, 1 property violation, 2 usage or input error.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=ZETA_TOL,
                           help="tolerance of the metricity searches (default %(default)g)")

    p = sub.add_parser("validate", help="check the decay-space axioms of a matrix")
    p.add_argument("--space", required=True, help="space file (.json or .csv)")
    common(p, tol=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="metricity exponents and quasi-distance check")
    p.add_argument("--space", required=True)
    p.add_argument("--zeta", default="auto",
                   help="'auto' or an exponent to test the triangle at")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("capacity", help="uniform-power capacity with optional oracle")
    p.add_argument("--system", required=True, help="link system file")
    p.add_argument("--zeta", default="auto", help="'auto' or a metricity exponent")
    p.add_argument("--oracle", choices=("on", "off", "auto"), default="auto",
                   help="exact optimum: always, never, or only for small systems")
    common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("partition", help="split the link set into stronger classes")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", choices=("signal", "separation"), required=True)
    p.add_argument("--p", type=float, default=1.0, help="feasibility level of the input")
    p.add_argument("--q", type=float, default=3.0, help="feasibility level of each class")
    p.add_argument("--tau", type=float, default=None,
                   help="separation level of the input (default 1/zeta)")
    p.add_argument("--eta", type=float, default=None,
                   help="separation level of each class (default zeta)")
    p.add_argument("--zeta", default="auto")
    common(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("fading", help="worst r-separated interference and growth bound")
    p.add_argument("--space", required=True)
    p.add_argument("--r", type=float, required=True, help="separation level")
    p.add_argument("--C", default="off",
                   help="'off', 'fit', or a constant: compare gamma against the "
                   "packing-growth bound")
    p.add_argument("--exact-limit", type=int, default=EXACT_LIMIT, dest="exact_limit",
                   help="largest subproblem solved exactly (default %d)" % EXACT_LIMIT)
    p.add_argument("--separation", choices=("decay", "quasi"), default="decay",
                   help="measure sender separation in decays or quasi-distances")
    common(p)
    p.set_defaults(func=_cmd_fading)

    p = sub.add_parser("generate", help="write an instance from a named family")
    p.add_argument("--family", required=True,
                   choices=("euclidean", "threepoint", "star", "welzl",
                            "equidecay", "twoline"))
    p.add_argument("--params", default="", help="family parameters as a JSON object")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output instance path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run the invariant suite over a corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", nargs="+", default=["builtin"],
                   help="'builtin' or instance files")
    common(p, tol=False)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        config, results, code = args.func(args)
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "config": _plain(config),
        "version": __version__,
        "results": _plain(results),
        "timing": {"seconds": time.perf_counter() - t0},
    }
    text = dumps_canonical(report) + "\n"
    # generate's --out names the instance it writes; its report goes to stdout
    if args.command != "generate" and args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
