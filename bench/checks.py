"""Output gate: every report of a pass is checked, in two ways.

Independent checks run for any instance. They read the input files with
plain json and recompute what a report claims from the decay matrix:
zeta and phi witnesses and a sampled triangle test, feasibility of every
selected set through sinr_values (signal over interference, a route that
never touches affectance), each link scheduled exactly once, every
partition class q-feasible or eta-separated, oracle optimum >= greedy
size, admissible fading witnesses, and the expected exit codes and
`exact` flags.

The independent checks do not prove that a search found the maximum.
So the stripped report bytes and the schedule of every operation on
every pool instance (workloads.py) at full size are also compared with
the digests stored in reference.json, which were made by the seed code.
Any seed walks only these pools, so every output of every run is
compared. Regenerate them only when outputs are meant to change:

    python3 bench/checks.py --write
"""

import hashlib
import json
import math
import os

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
RTOL = 1e-9


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _output(ds, workdir, op):
    """The document an operation wrote, as the digest sees it."""
    with open(os.path.join(workdir, workloads.output_path(op))) as fh:
        doc = json.load(fh)
    return doc if op.startswith("schedule-") else ds.strip_timing(doc)


def digests(ds, workdir, ops):
    """op -> sha256 of its stripped report (or of the schedule)."""
    return {op: _digest(_output(ds, workdir, op)) for op in ops}


def load_reference(size):
    """{workload: {op: digest}} stored for this size, or None."""
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["workloads"] if ref["size"] == size else None


def _space(doc):
    return np.array(doc["f"], dtype=float)


class Checker:
    """Checks the outputs of the passes of one workload run."""

    def __init__(self, ds, workload, size, workdir, reference=True):
        self.ds, self.workload, self.size, self.workdir = ds, workload, size, workdir
        self.params = workloads.SIZES[size][workload]
        self.reference = None
        if reference:
            ref = load_reference(size)
            self.reference = ref.get(workload, {}) if ref is not None else None

    def _input(self, name):
        """An input file of the current pass, read with plain json."""
        if name not in self.inputs:
            with open(os.path.join(self.workdir, name)) as fh:
                self.inputs[name] = json.load(fh)
        return self.inputs[name]

    def system(self, name):
        """LinkSystem rebuilt from the input file without the io module."""
        if name not in self.systems:
            doc = self._input(name)
            ds = self.ds
            space = ds.DecaySpace(_space(doc["space"]), mode=doc["space"]["mode"])
            self.systems[name] = ds.LinkSystem(
                space, links=doc["links"],
                params=ds.SinrParams(doc["beta"], doc["noise"]),
                power=ds.PowerAssignment.uniform(doc["power"]["level"]))
        return self.systems[name]

    def check(self, expected_ops, ops):
        """Problems per operation of one pass: {op: [message, ...]}.

        expected_ops are the operations the pass should have attempted,
        ops the worker's record of those it ran.
        """
        self.inputs, self.systems = {}, {}
        problems = {}
        for entry in ops:
            op = entry["name"]
            bad = problems.setdefault(op, [])
            if entry["error"]:
                bad.append("raised: " + entry["error"].strip().splitlines()[-1])
                continue
            if entry["exit"] != 0:
                bad.append("exit code %r, expected 0" % (entry["exit"],))
                continue
            try:
                doc = self._check_op(op, bad)
                if self.reference is not None and self.reference.get(op) != _digest(doc):
                    bad.append("differs from the reference output" if op in self.reference
                               else "has no reference output")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                bad.append("unreadable or malformed output: %s: %s" % (type(exc).__name__, exc))
        for op in expected_ops:
            if op not in problems:
                problems[op] = ["not attempted"]
        return problems

    # per-operation checks --------------------------------------------

    def _check_op(self, op, bad):
        doc = _output(self.ds, self.workdir, op)
        source = workloads.input_file(self.workload, op)
        if op.startswith("schedule-"):
            self._check_schedule(source, doc, bad)
            return doc
        kind = op.split("-")[0]
        if doc.get("command") != kind:
            bad.append("report is for command %r" % doc.get("command"))
            return doc
        res = doc["results"]
        if kind == "analyze":
            self._check_analyze(source, res, bad)
        elif kind == "capacity":
            self._check_capacity(source, res, bad)
        else:
            self._check_fading(op, source, res, bad)
        return doc

    def _check_analyze(self, source, res, bad):
        f = _space(self._input(source))
        m, quasi = res["metricity"], res["quasi"]
        if quasi["consistent"] is not True or quasi["witness"] is not None:
            bad.append("quasi-distances at zeta reported inconsistent")
        zeta, zeta_raw = m["zeta"], m["zeta_raw"]
        if not (zeta >= 1 and zeta == max(1.0, zeta_raw) and zeta <= m["zeta0"] * (1 + RTOL)):
            bad.append("zeta %r outside [1, zeta0=%r]" % (zeta, m["zeta0"]))
            return
        x, z, y = m["witness_zeta"]
        t = 1.0 / zeta_raw
        lhs, rhs = f[x, y] ** t, f[x, z] ** t + f[z, y] ** t
        if abs(lhs - rhs) > 1e-6 * lhs:
            bad.append("zeta witness %r is not tight" % ((x, z, y),))
        x, mid, z = m["witness_phi"]
        if not math.isclose(f[x, z] / (f[x, mid] + f[mid, z]), m["phi_mult"], rel_tol=1e-12):
            bad.append("phi witness %r does not attain phi_mult" % ((x, mid, z),))
        # sampled triples: no triple may beat the reported zeta or phi
        n = f.shape[0]
        rng = np.random.default_rng(0)
        xs, zs, ys = rng.integers(0, n, size=(3, 200000))
        keep = (xs != ys) & (xs != zs) & (zs != ys)
        xs, zs, ys = xs[keep], zs[keep], ys[keep]
        t = 1.0 / zeta
        if np.any(f[xs, ys] ** t > (f[xs, zs] ** t + f[zs, ys] ** t) * (1 + RTOL)):
            bad.append("a sampled triple violates the triangle at the reported zeta")
        if np.any(f[xs, ys] / (f[xs, zs] + f[zs, ys]) > m["phi_mult"] * (1 + 1e-12)):
            bad.append("a sampled triple exceeds the reported phi_mult")

    def _sinr_ok(self, sys_, S, level=1.0):
        _, sinr = self.ds.sinr_values(sys_, list(S))
        return bool(np.all(sinr >= level * sys_.params.beta * (1 - RTOL)))

    def _check_capacity(self, source, res, bad):
        sys_ = self.system(source)
        sel = res["selected"]
        if not sel or res["selected_feasible"] is not True:
            bad.append("no feasible selection reported")
            return
        if not set(sel) <= set(res["intermediate"]):
            bad.append("selected links are not a subset of the working set")
        if not self._sinr_ok(sys_, sel):
            bad.append("selected set fails the SINR threshold")
        if self.workload == "metricity":
            # --zeta auto on a clean alpha-cloud must find zeta = alpha, and
            # so the selection the greedy makes at zeta = alpha
            quasi = self.ds.quasi_distances(sys_.space, workloads.ALPHA, check=False)
            greedy = self.ds.capacity_uniform(sys_, workloads.ALPHA, quasi=quasi)
            if list(sel) != list(greedy.selected):
                bad.append("selection differs from the greedy at zeta = alpha")

    def _check_fading(self, op, source, res, bad):
        kind = op.split("-")[1]
        f = _space(self._input(source))
        n = f.shape[0]
        r = self.params[kind + "_r"]
        fad = res["fading"]
        if fad["exact"] is not True:
            bad.append("fading search not exact")
        per_node = {int(k): v for k, v in fad["per_node"].items()}
        gamma = fad["gamma"]
        if len(per_node) != n or gamma != max(per_node.values()):
            bad.append("gamma is not the largest per-node value")
            return
        zs = min(z for z, v in per_node.items() if v == gamma)
        W = fad["witness_set"]
        sep = np.minimum(f, f.T)
        if zs in W or any(sep[y, zs] < r for y in W) or any(
                sep[a, b] < r for a in W for b in W if a != b):
            bad.append("fading witness set is not r-separated")
        value = r * sum(1.0 / f[y, zs] for y in W)
        if not math.isclose(value, gamma, rel_tol=RTOL, abs_tol=0.0 if W else 1e-300):
            bad.append("fading witness does not attain gamma")
        growth = res.get("growth")
        if (growth is not None) != (kind == "fit"):
            bad.append("growth block %s" % ("missing" if kind == "fit" else "unexpected"))
            return
        if growth is None:
            return
        est = growth["estimate"]
        g = [gq for _, gq in est["samples"]]
        if est["exact"] is not True:
            bad.append("growth estimate not exact")
        if g != sorted(g) or g[0] < 1 or g[-1] > n or est["assouad"] < 0:
            bad.append("packing samples %r are not monotone within [1, n]" % (g,))
        if growth["within_bound"] is False:
            bad.append("exact gamma exceeds the growth bound")

    def _check_schedule(self, source, out, bad):
        sys_ = self.system(source)
        m = sys_.n_links
        zeta, q = out["zeta"], out["q"]
        seen = sorted(v for rnd in out["rounds"] for v in rnd)
        if seen != list(range(m)):
            bad.append("links are not scheduled exactly once")
        f = sys_.space.f
        d = f ** (1.0 / zeta)
        links = sys_.links
        for k, rnd in enumerate(out["rounds"]):
            if not self._sinr_ok(sys_, rnd):
                bad.append("round %d fails the SINR threshold" % k)
            for label, classes in (("signal", out["signal"][k]), ("separation", out["separation"][k])):
                if sorted(v for c in classes for v in c) != sorted(rnd):
                    bad.append("round %d: %s classes do not partition the round" % (k, label))
            for c in out["signal"][k]:
                if not self._sinr_ok(sys_, c, q):
                    bad.append("round %d: a signal class is not %g-feasible" % (k, q))
            for c in out["separation"][k]:
                for v in c:
                    sv, rv = links[v]
                    for w in c:
                        if w == v:
                            continue
                        sw, rw = links[w]
                        dist = min(d[sv, rw], d[sw, rv], d[sv, sw], d[rv, rw])
                        if dist < zeta * d[sv, rv] * (1 - RTOL):
                            bad.append("round %d: separation class not %g-separated" % (k, zeta))
        for k, win in enumerate(out["windows"]):
            if len(win["links"]) != self.params["window"]:
                bad.append("window %d has %d links" % (k, len(win["links"])))
            if win["opt"] < len(win["greedy"]) or len(win["opt_set"]) != win["opt"]:
                bad.append("window %d: oracle optimum below the greedy size" % k)
            for S in (win["opt_set"], win["greedy"]):
                if S and not self._sinr_ok(sys_, S):
                    bad.append("window %d: a reported set fails the SINR threshold" % k)


def write_reference():
    """Store digests of the outputs of every pool instance at full size."""
    import run

    ds = run.import_program()
    if os.path.exists(REFERENCE):
        os.remove(REFERENCE)
    out = {"size": "full", "workloads": {}}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(HERE, ".work", "reference-" + workload)
        os.makedirs(workdir, exist_ok=True)
        checker = Checker(ds, workload, "full", workdir, reference=False)
        found = out["workloads"][workload] = {}
        for inst in workloads.pool_slices(workload, "full"):
            names = workloads.operations(workload, inst, "full")
            res, ops = run.run_pass(workload, "full", inst, workdir, False, "reference",
                                    run.DEADLINE_S)
            problems = {op: m for op, m in checker.check(names, ops).items() if m}
            if res is None or problems:
                raise SystemExit("refusing to record failing outputs: %s" % problems)
            found.update(digests(ds, workdir, names))
        print("%s: %d outputs recorded" % (workload, len(found)), flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write reference.json from this checkout.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    write_reference()
