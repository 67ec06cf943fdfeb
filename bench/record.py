"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --label baseline --seeds 1-10 [--workloads growth] [--trace 1]

Runs bench/run.py once per workload and seed, one run at a time, and
writes bench/BENCH_<label>.json: per workload and metric the ten
values, their median, quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, plus the commit the numbers belong to
(`git rev-parse HEAD`).
Traced runs also keep the layer shares each run printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = {"commit": commit(), "seconds": spec["run_seconds"],
           "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit("%s seed %d exited %d: %s" % (
                    workload, seed, proc.returncode, proc.stderr.strip()[-500:]))
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["run_s"] = time.perf_counter() - t0
            res["shares"] = [l.split()[:2] for l in lines if l.strip().startswith("share.")]
            runs.append(res)
            print("%s seed %d: correct=%s %s (%.0f s)" % (
                workload, seed, res["correct"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()
                         if not args.trace), res["run_s"]), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            metrics[name] = {"unit": first["unit"], "values": vals, "median": med,
                             "q1": q[0], "q3": q[2],
                             "spread": (q[2] - q[0]) / med if med else None}
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "shares": [r["shares"] for r in runs] if args.trace else None,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": [round(r["run_s"], 1) for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            if not args.trace:
                print("  %-12s median %.5g  spread %.3f" % (name, m["median"], m["spread"] or 0))
    path = os.path.join(HERE, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))


if __name__ == "__main__":
    main()
