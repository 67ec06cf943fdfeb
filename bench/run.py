"""decayspace benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload metricity --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
src/ directory. The load is a closed loop with one client: fresh
worker processes run one after another, one pass each, until --seconds
have passed (at least MIN_PASSES). Pass k of a run sets up and runs the
k-th slice of the seed's walk through the instance pools (workloads.py),
so a run covers many instances. Every output of every pass goes through
the output gate in checks.py; an operation that raised, exited with an
unexpected code or failed a check counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over passes: a time is the pass's sum over its operations, peak
RSS that of the pass's worker, set-up time the pass's time for one
set-up of its inputs (the mean of a block of set-ups that lasts at least
SETUP_MIN_S). --trace 1 runs every pass on the first slice, alternating
untraced and traced passes, and reports the per-layer metrics of the
traced ones (medians), plus trace.overhead_s, traced minus untraced wall
time; the counts of the traced passes must repeat exactly. The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it print every metric by name and unit,
including per-command times and failed_frac.

Worker processes get OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1; nothing
runs concurrently. Files go to bench/.work/<run>/ inside the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import SRC, import_program  # noqa: E402

MIN_PASSES = 3
# one set-up sample is the mean of set-ups repeated for at least this long
SETUP_MIN_S = 0.3
DEADLINE_S = 170.0
COMMAND_METRICS = ("analyze_s", "capacity_s", "fading_s", "schedule_s")
# layer shares printed by a traced run: the split each workload was chosen for
SPLIT = (("share.zeta+phi", ("spaces.zeta_s", "spaces.phi_s")),
         ("share.mis+mwis", ("search.mis_s", "search.mwis_s")))
# per-layer values that must repeat exactly across traced passes of a seed
EXACT = ("io.report_bytes", "spaces.triples", "capacity.greedy_calls",
         "capacity.partition_classes", "capacity.keep_ratio", "analysis.packing_calls",
         "search.mis_calls", "search.mwis_calls", "search.inexact_frac")


def _worker_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(spec, timeout):
    """Run one worker to completion; (result or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "worker timed out after %.0f s" % timeout
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, "worker exited %d: %s" % (proc.returncode, tail)
    return json.loads(lines[-1]), None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]} if dicts else {}


def clear_outputs(workdir):
    """Remove every input and report, so a pass is judged on its own files."""
    for name in os.listdir(workdir):
        if name.endswith(".json"):
            os.remove(os.path.join(workdir, name))


def run_pass(workload, size, inst, workdir, traced, tag, timeout):
    """Set up and run one slice of instances in a fresh worker.

    Returns (worker result or None, ops); when the worker died every
    operation of the slice is reported with its error, at 0 s.
    """
    clear_outputs(workdir)
    res, err = spawn({"workload": workload, "size": size, "workdir": workdir, "inst": inst,
                      "trace": traced, "tag": tag, "setup_min_s": SETUP_MIN_S}, timeout)
    ops = res["ops"] if res else [
        {"name": op, "exit": None, "error": err, "seconds": 0.0}
        for op in workloads.operations(workload, inst, size)]
    return res, ops


def run_workload(workload, seed, seconds, trace, size="full", on_pass=None):
    """Run one workload; returns a summary dict.

    on_pass(workdir), if given, runs after each pass's worker exits and
    before its outputs are checked.
    """
    start = time.perf_counter()
    ds = import_program()
    from checks import Checker

    name = "%s-%d-%s-t%d" % (workload, seed, size, trace)
    workdir = os.path.join(HERE, ".work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    checker = Checker(ds, workload, size, workdir)

    passes, problems = [], []
    attempted = failed = 0
    missing = []
    while True:
        k = len(passes)
        traced = bool(trace) and k % 2 == 1
        inst = workloads.pass_instances(workload, seed, 0 if trace else k, size)
        res, ops = run_pass(workload, size, inst, workdir, traced, "pass%d" % k,
                            DEADLINE_S - (time.perf_counter() - start))
        if on_pass is not None:
            on_pass(workdir)
        found = checker.check(workloads.operations(workload, inst, size), ops)
        attempted += len(found)
        failed += sum(1 for msgs in found.values() if msgs)
        problems += ["pass %d %s: %s" % (k, op, m) for op, msgs in found.items() for m in msgs]
        passes.append({"traced": traced, "ops": ops, "result": res})
        if res:
            missing = res["missing"]
        n_traced = sum(p["traced"] for p in passes)
        need_plain, need_traced = (2, 2) if trace else (MIN_PASSES, 0)
        elapsed = time.perf_counter() - start
        enough = (elapsed >= seconds and len(passes) - n_traced >= need_plain
                  and n_traced >= need_traced)
        pass_s = elapsed / len(passes)
        if res is None or enough or elapsed + 1.5 * pass_s > DEADLINE_S:
            break

    def op_times(group):
        """Per-metric samples (pass sums) and value (their median)."""
        out = {}
        for metric in ("wall_s",) + COMMAND_METRICS:
            def counted(o):
                return metric == "wall_s" or workloads.op_metric(o["name"]) == metric
            if any(counted(o) for p in group for o in p["ops"]):
                samples = [sum(o["seconds"] for o in p["ops"] if counted(o)) for p in group]
                out[metric] = {"value": statistics.median(samples), "samples": samples}
        return out

    # a pass whose worker died keeps its ops, at 0 s, so failures still report
    plain = [p for p in passes if not p["traced"]]
    values = op_times(plain)
    done = [p["result"] for p in plain if p["result"]]
    for metric, samples in (("peak_rss_mb", [r["peak_rss_mb"] for r in done] or [0.0]),
                            ("setup_s", [r["setup_s"] for r in done] or [0.0])):
        values[metric] = {"value": statistics.median(samples), "samples": samples}

    layers = {}
    if trace:
        traced = [p["result"]["layers"] for p in passes if p["traced"] and p["result"]]
        for key in EXACT:
            if len({d[key] for d in traced}) > 1:
                problems.append("count %s differs between traced passes: %s"
                                % (key, sorted({d[key] for d in traced})))
        layers = _median_dict(traced)
        traced_wall = op_times([p for p in passes if p["traced"] and p["result"]]).get("wall_s")
        if traced_wall and "wall_s" in values:
            layers["trace.overhead_s"] = traced_wall["value"] - values["wall_s"]["value"]
        layers["missing"] = missing
    return {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "passes": len(passes), "untraced_passes": len(plain),
        "setup_reps": sum(r["setup_reps"] for r in done),
        "attempted": attempted, "failed": failed, "problems": problems,
        "values": values, "layers": layers, "workdir": workdir,
        "seconds": time.perf_counter() - start,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(summary, spec):
    """Human-readable lines and the final JSON object of one run."""
    lines = ["bench: workload=%s seed=%d size=%s trace=%d passes=%d (untraced %d) "
             "setup_reps=%d, %.1f s" % (
                 summary["workload"], summary["seed"], summary["size"], summary["trace"],
                 summary["passes"], summary["untraced_passes"], summary["setup_reps"],
                 summary["seconds"])]
    values = summary["values"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if summary["trace"]:
        for m in spec["per_layer"]:
            val = summary["layers"].get(m["name"])
            metrics[m["name"]] = {"value": val, "unit": m["unit"]}
            lines.append("  %-26s %14.6g %s" % (m["name"], val if val is not None else float("nan"),
                                                   m["unit"]))
        if summary["layers"].get("missing"):
            lines.append("  missing functions: %s" % ", ".join(summary["layers"]["missing"]))
        # traced layer time over the traced wall time of the same passes
        wall = values["wall_s"]["value"] + summary["layers"].get("trace.overhead_s", 0.0)
        for label, keys in SPLIT:
            share = sum(summary["layers"].get(k, 0.0) for k in keys) / wall
            lines.append("  %-26s %14.3f of traced wall_s %.6f s" % (label, share, wall))
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]]["value"], "unit": m["unit"]}
        for name in [m["name"] for m in spec["end_to_end"]] + list(COMMAND_METRICS):
            if name not in values:
                lines.append("  %-14s %14s %-5s (not run by this workload)"
                             % (name, "null", units.get(name, "s")))
                continue
            samples = values[name]["samples"]
            q1, q3 = _quartiles(samples)
            lines.append("  %-14s %14.6f %-5s %d samples, quartiles %.6f .. %.6f"
                         % (name, values[name]["value"], units.get(name, "s"), len(samples),
                            q1, q3))
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    lines.append("  %-14s %14.6f ratio (%d of %d operations)"
                 % ("failed_frac", frac, summary["failed"], summary["attempted"]))
    lines += ["  problem: " + p for p in summary["problems"][:20]]
    result = {
        "correct": not summary["problems"] and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decayspace", "__init__.py")):
        print("bench: no decayspace sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    lines, result = report(summary, spec)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
