"""Release gate: the `decayspace verify` registry, run once, read as a checklist.

Every claim lives in decayspace.verify._CHECKS; this file codes none of
its own, and fails if a _check_* function is left out of the registry
or if one test name is defined in two modules of tests/.
It runs `verify --seed 0` in process while a `python -m decayspace
verify --seed 0` subprocess runs alongside, then reports one test per
check, each printing "check NAME PASS/FAIL: detail". The
criterion tests name the checks that carry each release criterion.
Criterion 01 also caps every compute_zeta call the registry makes at
5 s, a timer kept outside the deterministic report; criterion 10
compares the two runs byte for byte after strip_timing.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from decayspace import strip_timing, verify
from decayspace.cli import main as cli_main
from decayspace.io import dumps_canonical

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
ARGV = ["verify", "--seed", "0"]


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "decayspace"] + ARGV, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    zeta_seconds = []
    compute_zeta = verify.compute_zeta

    def timed_zeta(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return compute_zeta(*args, **kwargs)
        finally:
            zeta_seconds.append(time.perf_counter() - t0)

    out = tmp_path_factory.mktemp("verify") / "verify.json"
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "compute_zeta", timed_zeta)
            code = cli_main(ARGV + ["--out", str(out)])
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        proc.kill()
    report = json.loads(out.read_text())
    return {
        "code": code,
        "report": report,
        "items": {it["name"]: it for it in report["results"]["items"]},
        "zeta_seconds": zeta_seconds,
        "subprocess": (proc.returncode, stdout, stderr),
    }


def test_registry_runs_every_check():
    # a _check_* function left out of _CHECKS would silently never run
    names = [name for name, _ in verify._CHECKS]
    registered = [fn.__name__ for _, fn in verify._CHECKS]
    defined = sorted(name for name in vars(verify) if name.startswith("_check_"))
    assert sorted(registered) == defined
    assert names == sorted(set(names))


# the one name kept in two modules, so that both test ids stay stable:
# test_links.py checks two fixed systems, test_properties.py random draws
KEPT_IN_TWO = {"test_link_distance_matrix_matches_scalar": ["test_links.py", "test_properties.py"]}


def test_no_test_name_is_defined_in_two_modules():
    # a claim coded in two modules drifts apart; each test name has one home
    homes = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            names = [node.name] if isinstance(node, ast.FunctionDef) else [
                t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            for name in names:
                if name.startswith("test"):
                    homes.setdefault(name, []).append(path.name)
    assert {name: where for name, where in homes.items() if len(where) > 1} == KEPT_IN_TWO


@pytest.mark.parametrize("name", [name for name, _ in verify._CHECKS])
def test_check(gate, name):
    item = gate["items"][name]
    line = "check %s %s: %s" % (name, "PASS" if item["ok"] else "FAIL", item["detail"])
    print(line)
    assert item["ok"], line


def _carried_by(*names):
    def test(gate):
        failed = [name for name in names if not gate["items"][name]["ok"]]
        assert not failed, "failed checks: %s" % failed
    return test


def test_criterion_01_planted_clouds_pin_the_exponent(gate):
    _carried_by("metricity-planar")(gate)
    slowest = max(gate["zeta_seconds"])
    print("%d compute_zeta calls, slowest %.2fs (cap 5s)"
          % (len(gate["zeta_seconds"]), slowest))
    assert slowest < 5.0


test_criterion_02_threepoint_splits_the_exponents = _carried_by("metricity-threepoint")
test_criterion_03_capacity_feasible_and_half = _carried_by("capacity-soundness")
test_criterion_04_oracle_ratio = _carried_by("capacity-oracle-ratio", "capacity-handtrace")
test_criterion_05_graph_reductions_are_exact = _carried_by(
    "hardness-equidecay", "hardness-twoline")
test_criterion_06_partitions_strengthen = _carried_by(
    "partition-signal", "partition-separation", "onezetasep")
test_criterion_07_interference_under_growth_bound = _carried_by(
    "fading-annulus", "fading-values")
test_criterion_08_independence_and_guards = _carried_by(
    "welzl-independence", "dimensions-guards")
test_criterion_09_star_interference_value = _carried_by("fading-star")


def test_criterion_10_verify_is_deterministic(gate):
    code, stdout, stderr = gate["subprocess"]
    assert gate["code"] == 0 and code == 0, stderr
    here = dumps_canonical(strip_timing(gate["report"]))
    there = dumps_canonical(strip_timing(json.loads(stdout)))
    assert here == there
