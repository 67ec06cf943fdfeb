"""End-to-end command line runs, in process via main()."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from decayspace import (
    DecaySpace,
    LinkSystem,
    check_separation_set,
    gen_equidecay_graph,
    gen_euclidean,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    load_space,
    load_system,
    quasi_distances,
    random_link_system,
    random_points,
    save_space,
    save_system,
)
from decayspace.cli import main
import decayspace.spaces as spaces

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    rep = json.loads(out)
    assert set(rep) == {"command", "config", "version", "results", "timing"}
    assert rep["timing"]["seconds"] >= 0
    return rep


def test_generate_validate_analyze_chain(tmp_path, capsys):
    path = str(tmp_path / "three.json")
    code, out, _ = run(capsys, "generate", "--family", "threepoint",
                       "--params", json.dumps({"q": 2.0 ** 16}), "--out", path)
    assert code == 0
    rep = report(out)
    assert rep["results"] == {
        "family": "threepoint", "kind": "space", "nodes": 3,
        "mode": "node-space", "path": path,
    }

    code, out, _ = run(capsys, "validate", "--space", path)
    assert code == 0
    res = report(out)["results"]
    assert res["ok"] and res["n"] == 3 and res["violations"] == []

    code, out, _ = run(capsys, "analyze", "--space", path)
    assert code == 0
    res = report(out)["results"]
    assert 5.0 < res["metricity"]["zeta"] < 6.0
    assert res["metricity"]["phi_mult"] < 2.0
    assert res["quasi"]["consistent"] and res["quasi"]["witness"] is None
    assert res["quasi"]["zeta"] == res["metricity"]["zeta"]


def test_capacity_hand_instance(tmp_path, capsys):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5], [100.0, 0.0], [101.0, 0.0]]
    sys_ = LinkSystem(gen_euclidean(pts, 2.0), links=[(0, 1), (2, 3), (4, 5)])
    path = str(tmp_path / "hand.json")
    save_system(sys_, path)
    code, out, _ = run(capsys, "capacity", "--system", path,
                       "--zeta", "2", "--oracle", "on")
    assert code == 0
    res = report(out)["results"]
    assert res["selected"] == [0, 2]
    assert res["opt"] == 3 and res["opt_set"] == [0, 1, 2]
    assert res["ratio"] == 1.5
    assert res["selected_feasible"] is True


def test_validate_flags_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "mode": "node-space", "n": 2, "f": [[0.0, 1.0], [-2.0, 0.0]],
    }))
    code, out, _ = run(capsys, "validate", "--space", str(path))
    assert code == 1
    res = report(out)["results"]
    assert not res["ok"]
    assert {"code": "non-negativity", "i": 1, "j": 0} in res["violations"]


def test_csv_space_accepted(tmp_path, capsys):
    path = str(tmp_path / "cloud.csv")
    np.savetxt(path, gen_euclidean(random_points(6, 2), 2.0).f, delimiter=",")
    code, out, _ = run(capsys, "validate", "--space", path)
    assert code == 0
    assert report(out)["results"]["mode"] == "node-space"


NON_FINITE = {
    "nan.json": '{"mode": "node-space", "n": 3, "f": [[0, 1, 2], [1, 0, NaN], [2, 1, 0]]}',
    "inf.json": '{"mode": "link-gain", "n": 3, "f": [[1, 2, 2], [2, 1, Infinity], [2, 2, 1]]}',
    "inf.csv": "0,1,2\n1,0,inf\n2,1,0\n",
    "nan.csv": "0,1,2\n1,0,nan\n2,1,0\n",
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_analyze_rejects_non_finite_decays(tmp_path, name):
    # a subprocess, so that a hang fails the test instead of stalling the suite
    path = tmp_path / name
    path.write_text(NON_FINITE[name])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "decayspace", "analyze", "--space", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "non-finite" in proc.stderr and "Traceback" not in proc.stderr


NAN_SYSTEM = (
    '{"beta": 1, "links": [[0, 2], [1, 3]], "noise": 0, '
    '"power": {"kind": "uniform", "level": 1}, "space": {"mode": "node-space", "n": 4, '
    '"f": [[0, 1, 4, 4], [1, 0, 4, 4], [4, NaN, 0, 1], [4, 4, 1, 0]]}}'
)


@pytest.mark.parametrize("argv", [
    ["capacity", "--system", "{system}", "--zeta", "2", "--oracle", "on"],
    ["partition", "--system", "{system}", "--kind", "signal"],
    ["partition", "--system", "{system}", "--kind", "separation", "--zeta", "3"],
    ["fading", "--space", "{space}", "--r", "1"],
    ["fading", "--space", "{space}", "--r", "1", "--C", "fit"],
], ids=["capacity", "partition-signal", "partition-separation", "fading", "fading-fit"])
def test_commands_reject_invalid_inputs(tmp_path, capsys, argv):
    system = tmp_path / "nan-system.json"
    system.write_text(NAN_SYSTEM)
    space = tmp_path / "nan.json"
    space.write_text(NON_FINITE["nan.json"])
    argv = [a.format(system=system, space=space) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "violates the decay axioms: non-finite at (" in err


def _with_field(field, value):
    doc = json.loads(NAN_SYSTEM.replace("NaN", "4"))
    doc[field] = value
    return json.dumps(doc)


# name: (document kind, file text, a fragment of the loader's message);
# a JSON list is neither kind, so every file command reads it
MALFORMED = {
    "beta-null": ("system", _with_field("beta", None), "'NoneType'"),  # TypeError
    "noise-list": ("system", _with_field("noise", [1]), "'list'"),  # TypeError
    "noise-nan": ("system", _with_field("noise", float("nan")),
                  "'noise' must lie in [0, inf), got nan"),
    "power-inf": ("system", _with_field("power", {"kind": "uniform", "level": float("inf")}),
                  "'level' must lie in (0, inf), got inf"),
    "power-string": ("system", _with_field("power", "uniform"),
                     "'power' must be a JSON object, got 'uniform'"),
    "power-list": ("system", _with_field("power", [1, 2]),
                   "'power' must be a JSON object, got [1, 2]"),
    "power-null": ("system", _with_field("power", None), "'power' must be a JSON object, got None"),
    "levels-missing": ("system", _with_field("power", {"kind": "explicit"}),
                       "explicit power missing 'levels'"),
    "link-short": ("system", _with_field("links", [[0, 2], [1]]),
                   "link 1 is not a pair of nodes, got [1]"),
    "space-entry-object": ("space", '{"mode": "node-space", "n": 2, "f": [[0, {}], [1, 0]]}',
                           "'dict'"),  # TypeError
    "json-list": (None, "[1, 2]", "space document must be a JSON object"),
    # a bool or a string where a number is expected, a fraction where a whole one is
    "beta-bool": ("system", _with_field("beta", True), "'beta' must be a number, got True"),
    "level-string": ("system", _with_field("power", {"kind": "uniform", "level": "2"}),
                     "'level' must be a number, got '2'"),
    "link-half": ("system", _with_field("links", [[0.5, 1]]),
                  "'node' must be a whole number, got 0.5"),
    # a JSON integer past the float range, an OverflowError in the loader
    "beta-huge": ("system", _with_field("beta", 10 ** 400), "int too large to convert to float"),
}
FILE_COMMANDS = {
    "system": (["capacity", "--zeta", "2.5", "--system"],
               ["partition", "--kind", "signal", "--system"]),
    "space": (["validate", "--space"], ["analyze", "--space"], ["fading", "--r", "1", "--space"]),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_fields_exit_two(tmp_path, capsys, name):
    # every command that reads the file exits 2 with the loader's message,
    # and verify --corpus reports it as a failed item
    kind, text, cause = MALFORMED[name]
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write(text)
    for what, commands in FILE_COMMANDS.items():
        if kind not in (what, None):
            continue
        for argv in commands:
            code, out, err = run(capsys, *argv, path)
            assert code == 2 and out == "", argv
            assert err.startswith("error: cannot read %s %s: " % (what, path)), argv
            if kind:
                assert cause in err
    code, out, err = run(capsys, "verify", "--corpus", path)
    assert code == 1 and err == ""
    [item] = report(out)["results"]["items"]
    assert item["name"] == "file:" + path and not item["ok"] and cause in item["detail"]


def test_capacity_oracle_keeps_its_size_cap(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    save_system(random_link_system(25, 1), path)
    code, out, err = run(capsys, "capacity", "--system", path,
                         "--zeta", "2.5", "--oracle", "on")
    assert code == 2 and out == ""
    assert "exceed max_n" in err


def test_usage_errors_exit_two(tmp_path, capsys):
    miss = str(tmp_path / "nope.json")
    assert run(capsys, "validate", "--space", miss)[0] == 2
    # validate lists violations, but a matrix it cannot check is an input error
    wide, odd = tmp_path / "wide.csv", tmp_path / "odd.json"
    wide.write_text("0,1,2\n1,0,2\n")
    odd.write_text('{"mode": "metric", "n": 1, "f": [[0]]}')
    for path, cause in ((wide, "must be square"), (odd, "unknown mode")):
        code, out, err = run(capsys, "validate", "--space", str(path))
        assert code == 2 and out == "" and err.startswith("error: ") and cause in err

    out_path = str(tmp_path / "x.json")
    code, _, err = run(capsys, "generate", "--family", "threepoint",
                       "--params", "{bad", "--out", out_path)
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "generate", "--family", "threepoint",
                       "--params", '{"q": 4.0, "zzz": 1}', "--out", out_path)
    assert code == 2 and "zzz" in err

    code, _, err = run(capsys, "generate", "--family", "equidecay",
                       "--params", '{"n": 5}', "--out", out_path)
    assert code == 2  # random edges need a seed

    # a missing parameter, parameters that are not an object, an output path that is a directory
    for argv, cause in ((["--family", "threepoint", "--out", out_path], "missing parameter 'q'"),
                        (["--family", "threepoint", "--params", "[1]", "--out", out_path],
                         "must be a JSON object"),
                        (["--family", "threepoint", "--params", '{"q": 4.0}',
                          "--out", str(tmp_path)], "cannot write")):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and cause in err, argv
        assert not os.path.exists(out_path)

    # parameters of the wrong type, and instances that break the axioms
    for family, params in [("equidecay", '{"n": 3, "edges": 5}'),
                           ("euclidean", '{"n": [1], "alpha": 2}'),
                           ("threepoint", '{"q": 1e400}'),
                           ("euclidean", '{"points": [[0, 0], [0, 0], [1, 1]], "alpha": 2}')]:
        code, out, err = run(capsys, "generate", "--family", family,
                             "--params", params, "--out", out_path)
        assert code == 2 and out == "" and "error:" in err, (family, params)
        assert not os.path.exists(out_path)

    # a count that is not a whole number is refused, not floored or cast
    for family, params, name in (("star", '{"k": 3.5, "r": 1}', "'k'"),
                                 ("star", '{"k": true, "r": 1}', "'k'"),
                                 ("welzl", '{"n": "7"}', "'n'"),
                                 ("equidecay", '{"n": 4.5, "edges": []}', "'n'")):
        code, out, err = run(capsys, "generate", "--family", family,
                             "--params", params, "--out", out_path)
        assert code == 2 and out == "" and "must be a whole number" in err and name in err
        assert not os.path.exists(out_path)
    for k in ("12", "12.0"):
        assert run(capsys, "generate", "--family", "star",
                   "--params", '{"k": %s, "r": 1}' % k, "--out", out_path)[0] == 0
        assert load_space(out_path).n == 14
    os.remove(out_path)

    # stars past the node cap, random clouds past it, and welzl chains
    # whose 2**n overflows, are refused before any matrix is allocated
    for family, params, limit in (("star", '{"k": 100000, "r": 1}', "at most"),
                                  ("star", '{"k": 1000000000, "r": 1}', "at most"),
                                  ("euclidean", '{"n": 1e10, "alpha": 3}', "at most"),
                                  ("welzl", '{"n": 1100}', "at most 1023")):
        code, out, err = run(capsys, "generate", "--family", family, "--seed", "1",
                             "--params", params, "--out", out_path)
        assert code == 2 and out == "" and err.startswith("error: ") and limit in err
        assert not os.path.exists(out_path)

    cloud = str(tmp_path / "cloud.json")
    save_space(gen_euclidean(random_points(30, 3), 3.0), cloud)
    for tol in ("nan", "inf"):
        assert run(capsys, "analyze", "--space", cloud, "--tol", tol)[0] == 2
    code, out, err = run(capsys, "validate", "--space", cloud,
                         "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and out == "" and err.startswith("error: cannot write ")

    good = str(tmp_path / "sys.json")
    assert run(capsys, "generate", "--family", "equidecay",
               "--params", '{"n": 4, "edges": []}', "--out", good)[0] == 0
    assert run(capsys, "capacity", "--system", good, "--zeta", "abc")[0] == 2
    for command in (["capacity"], ["partition", "--kind", "separation"]):
        code, out, err = run(capsys, *command, "--system", good, "--zeta", "0.5")
        assert (code, out, err) == (2, "", "error: 'zeta' must lie in [1, inf), got 0.5\n")

    # an exponent or level the library cannot use is a usage error, not a
    # failed property or a traceback
    for argv in (["analyze", "--space", cloud, "--zeta", "inf"],
                 ["capacity", "--system", good, "--zeta", "inf"],
                 ["partition", "--system", good, "--kind", "signal", "--q", "inf"],
                 ["partition", "--system", good, "--kind", "signal", "--q", "1e308"],
                 ["fading", "--space", cloud, "--r", "1", "--C", "inf"],
                 ["fading", "--space", cloud, "--r", "1e-9", "--exact-limit", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
    # a negative seed is refused before any check draws from it
    code, out, err = run(capsys, "verify", "--seed", "-1")
    assert (code, out) == (2, "") and err == "error: 'seed' must lie in [0, inf), got -1\n"


def test_partition_signal_cli(tmp_path, capsys):
    path = str(tmp_path / "even.json")
    assert run(capsys, "generate", "--family", "equidecay",
               "--params", '{"n": 6, "edges": []}', "--out", path)[0] == 0
    code, out, _ = run(capsys, "partition", "--system", path, "--kind", "signal")
    assert code == 0
    res = report(out)["results"]
    assert res["classes"] == [[0, 1], [2, 3], [4, 5]]
    assert res["bound"] == 36
    assert res["violating_classes"] == []

    # a graph edge makes the full link set infeasible at level 1
    clash = str(tmp_path / "clash.json")
    assert run(capsys, "generate", "--family", "equidecay",
               "--params", '{"n": 2, "edges": [[0, 1]]}', "--out", clash)[0] == 0
    code, _, err = run(capsys, "partition", "--system", clash, "--kind", "signal")
    assert code == 2 and err == "error: input set is not 1-feasible (worst link 0)\n"


def test_signal_partition_opens_no_more_classes_than_links(tmp_path):
    # q = 1e12 asks for 2e12 first-fit classes; in a child process under a
    # 600 MB address-space cap, so building them fails the test cleanly
    path = str(tmp_path / "even.json")
    save_system(gen_equidecay_graph(6, []), path)
    cap = ("import resource, runpy, sys; "
           "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)); "
           "sys.argv = ['decayspace'] + sys.argv[1:]; "
           "runpy.run_module('decayspace', run_name='__main__')")
    # one BLAS thread, so that numpy's own per-thread buffers fit under the cap
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", cap, "partition", "--system", path,
                           "--kind", "signal", "--q", "1e12"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    res = report(proc.stdout)["results"]
    assert res["classes"] == [[v] for v in range(6)]
    assert res["bound"] == 2 * 10 ** 12 * 2 * 10 ** 12 and res["violating_classes"] == []


def test_partition_separation_cli(tmp_path, capsys):
    sys_ = random_link_system(8, 5, alpha=3.0)
    path = str(tmp_path / "links.json")
    save_system(sys_, path)
    code, out, _ = run(capsys, "partition", "--system", path, "--kind", "separation",
                       "--tau", "1e-9", "--eta", "0.5", "--zeta", "3")
    assert code == 0
    res = report(out)["results"]
    assert res["certificate"] == {"kind": "separation", "level": 0.5}
    members = sorted(v for cls in res["classes"] for v in cls)
    assert members == list(range(8))
    back = load_system(path)
    quasi = quasi_distances(back.space, 3.0)
    for cls in res["classes"]:
        assert check_separation_set(back, quasi, list(cls), 0.5)


# f(0,2) = 4 exceeds its legs f(0,1) = 0 and f(1,2) = 1: no exponent fits
HOPELESS = {"mode": "link-gain", "n": 3, "f": [[1, 0, 4], [1, 1, 1], [1, 1, 1]]}


@pytest.mark.parametrize("argv", [
    ["capacity", "--system", "{path}", "--zeta", "auto"],
    ["partition", "--system", "{path}", "--kind", "separation"],
    ["fading", "--space", "{path}", "--r", "1", "--separation", "quasi"],
], ids=["capacity", "partition-separation", "fading-quasi"])
def test_zeta_auto_names_the_hopeless_triple(tmp_path, capsys, argv):
    path = tmp_path / "hopeless.json"
    doc = HOPELESS if argv[0] == "fading" else {"space": HOPELESS}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err == ("error: --zeta auto: no finite metricity exponent exists: f(0,2) "
                   "exceeds its legs f(0,1) and f(1,2), and one leg is 0\n")


def test_hopeless_space_fails_analyze_and_corpus(tmp_path, capsys):
    # no finite zeta exists, so the quasi-metric check cannot run at zeta = inf
    path = str(tmp_path / "hopeless.json")
    with open(path, "w") as fh:
        json.dump(HOPELESS, fh)
    why = ("no finite metricity exponent exists: f(0,2) exceeds its legs f(0,1) "
           "and f(1,2), and one leg is 0")
    code, out, err = run(capsys, "analyze", "--space", path)
    res = report(out)["results"]
    assert (code, err) == (1, "") and res["metricity"]["witness_zeta"] == [0, 1, 2]
    assert res["quasi"] == {"zeta": "inf", "consistent": False, "witness": why}
    code, out, err = run(capsys, "verify", "--corpus", path)
    assert (code, err) == (1, "")
    assert report(out)["results"]["items"] == [{"name": "file:" + path, "ok": False,
                                                "detail": why}]


def test_fading_cli(tmp_path, capsys):
    path = str(tmp_path / "cloud.json")
    save_space(gen_euclidean(random_points(12, 3), 3.0), path)
    code, out, _ = run(capsys, "fading", "--space", path, "--r", "0.2", "--C", "fit")
    assert code == 0
    res = report(out)["results"]
    assert res["fading"]["exact"]
    assert res["growth"]["within_bound"] is True
    assert res["fading"]["gamma"] <= res["growth"]["bound"] + 1e-9

    code, out, _ = run(capsys, "fading", "--space", path, "--r", "0.2")
    assert code == 0
    assert "growth" not in report(out)["results"]

    assert run(capsys, "fading", "--space", path, "--r", "-1")[0] == 2

    # uniform decays: every ball packs one node, so C = 1 gives a bound of
    # 2 * (zeta(2) - 1) = 1.29, and an exact gamma of 5 above it exits 1
    save_space(DecaySpace(np.ones((6, 6)) - np.eye(6)), path)
    code, out, err = run(capsys, "fading", "--space", path, "--r", "1", "--C", "1")
    res = report(out)["results"]
    assert (code, err) == (1, "")
    assert res["fading"]["exact"] and res["fading"]["gamma"] == 5
    assert res["growth"]["within_bound"] is False
    assert res["growth"]["bound"] == pytest.approx(1.2898681337585307)


def test_fading_fit_near_the_float_limit(tmp_path, capsys):
    # twice a radius of 1.7e308 overflows, and the inf radius holds every node, as the true one does
    path = tmp_path / "huge.json"
    big = 1.7e308
    path.write_text(json.dumps({"mode": "node-space", "n": 3,
                                "f": [[0, 1, big], [1, 0, big], [big, big, 0]]}))
    code, out, err = run(capsys, "fading", "--space", str(path), "--r", "1", "--C", "fit")
    res = report(out)["results"]
    assert (code, err) == (0, "")
    assert res["growth"]["estimate"]["samples"] == [[q, 1] for q in (1.5, 2, 3, 4, 8, 16)]
    assert res["fading"]["gamma"] == 1 and res["growth"]["within_bound"] is True


def test_fading_fit_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique loads numpy.ma on its first call, 10 ms or more of import
    path, out = str(tmp_path / "cloud.json"), str(tmp_path / "report.json")
    save_space(gen_euclidean(random_points(12, 3), 3.0), path)
    code = ("import sys; from decayspace.cli import main; "
            "main(['fading', '--space', %r, '--r', '0.2', '--C', 'fit', '--out', %r]); "
            "print('numpy.ma' in sys.modules)" % (path, out))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "False\n"


def test_zeta_auto_is_not_checked_again(tmp_path, capsys, monkeypatch):
    # compute_zeta's zeta passes the triangle check (test_metricity_kernels),
    # so only a typed zeta and analyze, whose report is the check, run it
    system, space = str(tmp_path / "links.json"), str(tmp_path / "cloud.json")
    save_system(random_link_system(8, 1), system)
    save_space(gen_euclidean(random_points(12, 3), 3.0), space)
    real, calls = spaces.triangle_violation, []
    monkeypatch.setattr(spaces, "triangle_violation", lambda *a: calls.append(a) or real(*a))
    for argv, checks in (
            (["capacity", "--system", system, "--zeta", "auto"], 0),
            (["partition", "--system", system, "--kind", "separation", "--tau", "1e-9"], 0),
            (["fading", "--space", space, "--r", "0.2", "--separation", "quasi"], 0),
            (["capacity", "--system", system, "--zeta", "3"], 1),
            (["partition", "--system", system, "--kind", "separation", "--tau", "1e-9",
              "--zeta", "3"], 1),
            (["analyze", "--space", space], 1)):
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(calls) == checks, argv


def test_generate_takes_plant_collinear_only_as_a_json_boolean(tmp_path, capsys):
    # bool() would read "false" as true and plant the collinear points
    out_path, params = str(tmp_path / "x.json"), '{"n": 5, "alpha": 2, "plant_collinear": %s}'
    for plant, want in (('"false"', 2), ("0", 2), ("null", 2), ("false", 0), ("true", 0)):
        code, out, err = run(capsys, "generate", "--family", "euclidean", "--seed", "1",
                             "--params", params % plant, "--out", out_path)
        assert code == want and (want == 0 or "'plant_collinear'" in err and out == ""), err
        assert os.path.exists(out_path) == (want == 0)


def test_generate_refuses_real_parameters_that_are_not_numbers(tmp_path, capsys):
    # float() would read true as 1.0 and "16" as 16.0
    out_path = str(tmp_path / "x.json")
    for family, params, name in (("star", '{"k": 3, "r": true}', "'r'"),
                                 ("threepoint", '{"q": "16"}', "'q'"),
                                 ("euclidean", '{"n": 4, "alpha": "3"}', "'alpha'"),
                                 ("welzl", '{"n": 4, "eps": false}', "'eps'"),
                                 ("equidecay", '{"n": 4, "p": true}', "'p'"),
                                 ("equidecay", '{"n": 4, "edges": [], "far_decay": "9"}',
                                  "'far_decay'"),
                                 ("twoline", '{"n": 4, "edges": [], "alpha": 3, "delta": null}',
                                  "'delta'")):
        code, out, err = run(capsys, "generate", "--family", family, "--seed", "1",
                             "--params", params, "--out", out_path)
        assert code == 2 and out == "" and "must be a number" in err and name in err, err
        assert not os.path.exists(out_path)
    # without eps or delta the file is the one the generator writes at its own default
    welzl, twoline = tmp_path / "welzl.json", tmp_path / "twoline.json"
    save_space(gen_welzl(4), str(welzl))
    save_system(gen_twoline(4, [], 3), str(twoline))
    for family, params, same_as in (("star", '{"k": 3, "r": 1}', None),
                                    ("threepoint", '{"q": 16}', None),
                                    ("welzl", '{"n": 4}', welzl),
                                    ("twoline", '{"n": 4, "edges": [], "alpha": 3}', twoline)):
        assert run(capsys, "generate", "--family", family,
                   "--params", params, "--out", out_path)[0] == 0
        if same_as:
            assert pathlib.Path(out_path).read_bytes() == same_as.read_bytes()


def test_generate_random_edges_then_capacity(tmp_path, capsys):
    path = str(tmp_path / "rand.json")
    code, out, _ = run(capsys, "generate", "--family", "equidecay",
                       "--params", '{"n": 6, "p": 0.5}', "--seed", "3", "--out", path)
    assert code == 0
    assert report(out)["results"]["links"] == 6
    code, out, _ = run(capsys, "capacity", "--system", path)
    assert code == 0
    res = report(out)["results"]
    assert res["opt"] >= 1  # auto oracle kicks in at this size
    assert res["selected_feasible"] is True


def test_verify_cli(tmp_path, capsys, monkeypatch):
    good = str(tmp_path / "sp.json")
    save_space(gen_euclidean(random_points(5, 1), 2.0), good)
    code, out, _ = run(capsys, "verify", "--corpus", good)
    assert code == 0
    items = report(out)["results"]["items"]
    assert items[0]["name"] == "file:%s" % good and items[0]["ok"]

    # a system file, with its space inline or by a relative path, is
    # parsed once: the corpus reads each file through the io reader
    inline = str(tmp_path / "inline.json")
    save_system(random_link_system(3, 2), inline)
    by_path = tmp_path / "by_path.json"
    by_path.write_text(json.dumps({"space": "sp.json", "links": [[0, 1]]}))
    parsed = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda fh: parsed.append(fh.name) or real_load(fh))
    code, out, _ = run(capsys, "verify", "--corpus", inline, str(by_path))
    assert code == 0 and all(it["ok"] for it in report(out)["results"]["items"])
    assert sorted(parsed) == sorted([inline, str(by_path), good])

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, _ = run(capsys, "verify", "--corpus", str(bad))
    assert code == 1

    # a matrix that breaks the axioms fails in the loader, whose message
    # is the item's detail
    for name, text in sorted(NON_FINITE.items()):
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(capsys, "verify", "--corpus", str(path))
        [item] = report(out)["results"]["items"]
        assert code == 1 and not item["ok"], name
        assert "violates the decay axioms: non-finite at (" in item["detail"], name

    # a file that loads but has no zeta fails its item too
    one = str(tmp_path / "one.json")
    save_space(DecaySpace(np.zeros((1, 1))), one)
    code, out, _ = run(capsys, "verify", "--corpus", one)
    assert code == 1 and report(out)["results"]["items"] == [
        {"name": "file:" + one, "ok": False, "detail": "need at least 2 nodes"}]


def test_out_flag_writes_file(tmp_path, capsys):
    space = str(tmp_path / "sp.json")
    save_space(gen_euclidean(random_points(4, 9), 2.0), space)
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", "--space", space, "--out", str(dest))
    assert code == 0
    assert out == ""
    rep = json.loads(dest.read_text())
    assert rep["command"] == "validate" and rep["results"]["ok"]


def test_tolerance_flag(tmp_path, capsys):
    space = str(tmp_path / "sp.json")
    save_space(gen_euclidean(random_points(4, 9), 2.0), space)
    code, out, _ = run(capsys, "analyze", "--space", space)
    assert code == 0 and report(out)["config"]["tol"] == 1e-9
    code, out, _ = run(capsys, "analyze", "--space", space, "--tol", "1e-6")
    assert code == 0 and report(out)["config"]["tol"] == 1e-6
    # --tol is not the triangle check's slack: at zeta 3, d(0,2) = 50.80
    # exceeds d(0,1) + d(1,2) = 41.32 at any --tol
    save_space(gen_threepoint(2.0 ** 16), space)
    for tol in ("1e-9", "0.5"):
        code, out, err = run(capsys, "analyze", "--space", space, "--zeta", "3", "--tol", tol)
        assert (code, err) == (1, ""), tol
        assert report(out)["results"]["quasi"] == {
            "zeta": 3, "consistent": False,
            "witness": "zeta=3 is below the metricity of the space: d(0,2) > d(0,1) + d(1,2)"}
    # validate and verify run no metricity search, so they take no --tol
    for argv in (["validate", "--space", space], ["verify", "--corpus", space]):
        with pytest.raises(SystemExit):
            main(argv + ["--tol", "1e-6"])


def test_main_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
