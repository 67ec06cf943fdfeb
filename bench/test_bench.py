"""Smoke test of the benchmark itself, on tiny instances.

    python3 -m pytest -q bench/test_bench.py

Runs all three workloads end to end and traced, checks that the exact
counts repeat, that the traced layer split holds, that a seed fixes its
walk through the instance pools, that a corrupted report or one that
differs from (or is missing in) the stored digests counts as failed,
that a renamed function is recorded as missing instead of stopping the
tracer, and that a tree without the program's sources gives no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def smoke(workload, trace=0, on_pass=None, seed=3):
    return run.run_workload(workload, seed, 0, trace, size="smoke", on_pass=on_pass)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean(workload):
    summary = smoke(workload)
    assert summary["problems"] == [] and summary["failed"] == 0
    inst = workloads.pass_instances(workload, 3, 0, "smoke")
    per_pass = len(workloads.operations(workload, inst, "smoke"))
    assert summary["attempted"] == summary["passes"] * per_pass
    lines, result = run.report(summary, run.load_spec())
    assert result["correct"] is True
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = "\n".join(lines)
    for name in ("wall_s", "peak_rss_mb", "setup_s", "failed_frac") + run.COMMAND_METRICS:
        assert name in printed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_layers_split(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    assert first["problems"] == [] and second["problems"] == []
    a, b = first["layers"], second["layers"]
    assert {m["name"] for m in run.load_spec()["per_layer"]} <= set(a)
    assert {k: a[k] for k in run.EXACT} == {k: b[k] for k in run.EXACT}
    assert a["trace.missing"] == 0 and a["generators.s"] > 0
    if workload != "metricity":
        assert a["spaces.triples"] == 0 and a["spaces.zeta_s"] == 0 == a["spaces.phi_s"]
    if workload != "growth":
        assert a["search.mis_calls"] == 0 == a["search.mwis_calls"]
    if workload == "growth":
        assert a["search.mis_calls"] == a["analysis.packing_calls"] > 0
        assert a["search.mwis_calls"] > 0
    if workload == "schedule":
        assert a["capacity.greedy_calls"] > 1 and a["capacity.partition_classes"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_walk_through_the_pools(workload):
    walk = lambda seed: [workloads.pass_instances(workload, seed, k, "full") for k in range(6)]
    assert walk(7) == walk(7) and walk(7) != walk(8)
    pools = workloads.SIZES["full"][workload]["pool"]
    for kind, pool in pools.items():
        covered = [i for s in workloads.pool_slices(workload, "full") for i in s[kind]]
        assert covered == list(range(pool))
        assert all(0 <= i < pool for p in walk(7) for i in p[kind])


def _rewrite(workdir, prefix, edit):
    """Edit the one report of the pass whose name starts with prefix."""
    (name,) = [n for n in os.listdir(workdir)
               if n.startswith(prefix) and n.endswith(".report.json")]
    path = os.path.join(workdir, name)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_corrupted_report_counts_as_failed():
    def truncate(workdir):
        _rewrite(workdir, "analyze-", lambda t: t[: len(t) // 2])

    def tamper(workdir):
        # claim every link is scheduled at once: SINR must reject it
        def edit(text):
            rep = json.loads(text)
            rep["results"]["selected"] = rep["results"]["intermediate"] = list(range(6))
            return json.dumps(rep)
        _rewrite(workdir, "capacity-", edit)

    for on_pass, op in ((truncate, "analyze"), (tamper, "capacity")):
        summary = smoke("metricity", on_pass=on_pass)
        assert summary["failed"] == summary["passes"]
        assert all(" %s-" % op in p for p in summary["problems"])
        _, result = run.report(summary, run.load_spec())
        assert result["correct"] is False and result["failed"] == summary["passes"]


def test_reference_digests_are_compared(tmp_path, monkeypatch):
    import checks

    seen = {}
    ds = run.import_program()

    def record(workdir):
        ops = [n[: -len(".report.json")] for n in os.listdir(workdir)
               if n.endswith(".report.json")]
        seen.update(checks.digests(ds, workdir, ops))

    smoke("metricity", on_pass=record)
    ref = {"size": "smoke", "workloads": {"metricity": seen}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(checks, "REFERENCE", str(path))
    assert smoke("metricity")["problems"] == []

    for op, expect in (("capacity-", "differs from the reference output"),
                       ("analyze-", "has no reference output")):
        digests = {k: v for k, v in seen.items() if not k.startswith(op)}
        if expect.startswith("differs"):
            digests.update({k: "0" * 64 for k in seen if k.startswith(op)})
        ref["workloads"]["metricity"] = digests
        path.write_text(json.dumps(ref))
        summary = smoke("metricity")
        assert summary["failed"] == summary["passes"]
        assert all(" %s" % op in p and p.endswith(expect) for p in summary["problems"])


def test_renamed_function_is_recorded_missing(monkeypatch):
    timed = dict(tracer.TIMED, **{"search.merged_s": ("search", ("merged_independent_set",))})
    monkeypatch.setattr(tracer, "TIMED", timed)
    run.import_program()
    t = tracer.Tracer().install()
    assert t.missing == ["search.merged_independent_set"]
    import decayspace.analysis as analysis

    # functions bound by name in another module are wrapped too
    assert hasattr(analysis.max_independent_set, "__bench_original__")


def test_no_result_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "metricity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
