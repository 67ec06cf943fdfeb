"""One benchmark worker process: one timed pass over a slice of instances.

    python3 bench/worker.py '{"workload": "growth", "size": "full", "workdir": "...",
                              "inst": {"fit": [3, 17], "mwis": [5]}, "trace": false,
                              "setup_min_s": 0.3, "tag": "pass0"}'

Imports decayspace from the checkout's src/ directory, changes into
the work directory and prints one JSON result line on stdout. A fresh
process per pass keeps caches from carrying over and makes the peak
RSS that of this pass alone.

The pass first writes the inputs of its instances, repeating the whole
set-up until `setup_min_s` have been spent (once when traced), and
reports the time of one set-up as the block's mean. Then it runs the
workload's operations once each and reports, per operation, its wall
time, exit code and any exception. With "trace" the layer modules are
wrapped first, per-layer metrics are added to the result and the spans
are written to spans-<tag>.tsv.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import decayspace from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "decayspace", "__init__.py")):
        raise SystemExit("bench: no decayspace package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import decayspace

    if not os.path.abspath(decayspace.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: decayspace was imported from %s" % decayspace.__file__)
    return decayspace


def main(spec):
    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    ds = import_program()
    tracer = Tracer().install() if spec["trace"] else None
    os.chdir(spec["workdir"])
    workload, inst, size = spec["workload"], spec["inst"], spec["size"]
    result = {"missing": tracer.missing if tracer else []}

    def span(name):
        return tracer.operation(name) if tracer else contextlib.nullcontext()

    roots, reps = [], 0
    t0 = time.perf_counter()
    while reps == 0 or (not tracer and time.perf_counter() - t0 < spec["setup_min_s"]
                        and reps < 200):
        with span("setup") as op:
            workloads.setup(ds, workload, inst, size)
        roots.append(op)
        reps += 1
    result.update(setup_s=(time.perf_counter() - t0) / reps, setup_reps=reps)

    ops = []

    def timed(name, fn):
        entry = {"name": name, "exit": None, "error": None}
        with span(name) as op:
            t0 = time.perf_counter()
            try:
                code = fn()
                entry["exit"] = 0 if code is None else code
            except SystemExit as exc:
                entry["exit"] = exc.code
            except Exception:
                entry["error"] = traceback.format_exc(limit=4)
            entry["seconds"] = time.perf_counter() - t0
        roots.append(op)
        ops.append(entry)

    workloads.run_pass(ds, workload, inst, size, timed)
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = tracer.summarize(roots)
        tracer.write("spans-%s.tsv" % spec["tag"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
