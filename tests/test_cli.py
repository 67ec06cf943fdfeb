"""End-to-end command line runs, in process via main()."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from decayspace import (
    LinkSystem,
    check_separation_set,
    gen_euclidean,
    load_system,
    quasi_distances,
    random_link_system,
    random_points,
    save_space,
    save_system,
)
from decayspace.cli import main

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
                  "noise must be finite and non-negative"),
    "power-inf": ("system", _with_field("power", {"kind": "uniform", "level": float("inf")}),
                  "powers must be positive and finite"),
    "power-string": ("system", _with_field("power", "uniform"), "'get'"),  # AttributeError
    "space-entry-object": ("space", '{"mode": "node-space", "n": 2, "f": [[0, {}], [1, 0]]}',
                           "'dict'"),  # TypeError
    "json-list": (None, "[1, 2]", "space document must be a JSON object"),
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

    # parameters of the wrong type, and instances that break the axioms
    for family, params in [("equidecay", '{"n": 3, "edges": 5}'),
                           ("euclidean", '{"n": [1], "alpha": 2}'),
                           ("threepoint", '{"q": 1e400}'),
                           ("euclidean", '{"points": [[0, 0], [0, 0], [1, 1]], "alpha": 2}')]:
        code, out, err = run(capsys, "generate", "--family", family,
                             "--params", params, "--out", out_path)
        assert code == 2 and out == "" and "error:" in err, (family, params)
        assert not os.path.exists(out_path)

    # stars past the node cap are refused before any matrix is allocated
    for k in ("100000", "1000000000"):
        code, out, err = run(capsys, "generate", "--family", "star",
                             "--params", '{"k": %s, "r": 1}' % k, "--out", out_path)
        assert code == 2 and out == "" and err.startswith("error: ") and "at most" in err
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
    assert run(capsys, "capacity", "--system", good, "--zeta", "0.5")[0] == 2


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
    assert code == 2 and "rejected" in err


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


def test_verify_cli(tmp_path, capsys):
    good = str(tmp_path / "sp.json")
    save_space(gen_euclidean(random_points(5, 1), 2.0), good)
    code, out, _ = run(capsys, "verify", "--corpus", good)
    assert code == 0
    items = report(out)["results"]["items"]
    assert items[0]["name"] == "file:%s" % good and items[0]["ok"]

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, _ = run(capsys, "verify", "--corpus", str(bad))
    assert code == 1


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
    # validate and verify run no metricity search, so they take no --tol
    for argv in (["validate", "--space", space], ["verify", "--corpus", space]):
        with pytest.raises(SystemExit):
            main(argv + ["--tol", "1e-6"])


def test_main_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
