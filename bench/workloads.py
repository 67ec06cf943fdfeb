"""The three benchmark workloads: instance pools, set-up and one timed pass.

Every input is an instance from a fixed, numbered pool of its kind.
Instance i of a kind is built from its own seed (KIND_SEED[kind] + i)
through the program's generators and written with its io module. The
run seed only fixes the order in which a run walks each pool (a seeded
permutation); pass k takes the k-th slice of that order. So the same
seed gives the same inputs, a run's median pass is taken over many
instances instead of a few (the cost of one exact search swings by a
factor of five between clouds), and every instance any seed can reach
has a reference digest made by the seed code (reference.json).

A pass runs the operations of its slice in order, one at a time, in
the calling (worker) process. Every file name is relative: the worker
runs inside the run's work directory, so reports carry no machine
paths and their bytes can be compared against stored references.

Why these workloads (recorded in BENCHMARK.json too):

* metricity -- `analyze` on a shadowed, strongly non-metric cloud, then
  `capacity --zeta auto` on a clean geometric link system. Both spend
  almost all their time in the O(n^3) zeta/phi kernels, which see many
  constrained triples on the first matrix and few on the second.
* growth -- `fading --C fit` runs the exact unweighted search behind
  assouad_estimate; `fading --C off` at a small r runs the exact
  weighted search.
* schedule -- `capacity --zeta 3` on a large link system (big input
  file, exhaustive triangle check), then an in-process scheduler that
  schedules every link by repeated greedy capacity, splits each round
  with both partition lemmas, and runs the exhaustive oracle on dense
  14-link windows. zeta and the exact searches stay idle.
"""

import json

import numpy as np

ALPHA = 3.0

# kinds of instance per workload; each kind has its own pool
KINDS = {"metricity": ("pair",), "growth": ("fit", "mwis"), "schedule": ("system",)}
# instance i of a kind is generated from seed KIND_SEED[kind] + i
KIND_SEED = {"fit": 10000, "mwis": 20000, "pair": 30000, "system": 40000}

SIZES = {
    "full": {
        "metricity": {"pool": {"pair": 48}, "per_pass": {"pair": 1},
                      "cloud": 120, "sigma": 1.0, "links": 60},
        "growth": {"pool": {"fit": 64, "mwis": 48}, "per_pass": {"fit": 5, "mwis": 3},
                   "fit_n": 24, "mwis_n": 32, "fit_r": 1.0, "mwis_r": 0.02},
        "schedule": {"pool": {"system": 32}, "per_pass": {"system": 1},
                     "links": 250, "box": 6.0, "zeta": 3.0, "q": 2.0,
                     "windows": 2, "window": 14},
    },
    "smoke": {
        "metricity": {"pool": {"pair": 4}, "per_pass": {"pair": 1},
                      "cloud": 12, "sigma": 1.0, "links": 6},
        "growth": {"pool": {"fit": 4, "mwis": 4}, "per_pass": {"fit": 2, "mwis": 2},
                   "fit_n": 10, "mwis_n": 10, "fit_r": 1.0, "mwis_r": 0.02},
        "schedule": {"pool": {"system": 4}, "per_pass": {"system": 1},
                     "links": 30, "box": 3.0, "zeta": 3.0, "q": 2.0,
                     "windows": 2, "window": 8},
    },
}

WORKLOADS = tuple(SIZES["full"])

# end-to-end metric each operation adds its time to
OP_METRIC = {"analyze": "analyze_s", "capacity": "capacity_s", "fading": "fading_s",
             "schedule": "schedule_s"}


def pass_instances(workload, seed, k, size):
    """Instance numbers of pass k of a run with this seed: {kind: [i, ...]}."""
    p = SIZES[size][workload]
    out = {}
    for j, kind in enumerate(KINDS[workload]):
        pool, take = p["pool"][kind], p["per_pass"][kind]
        order = np.random.default_rng([seed, j]).permutation(pool)
        out[kind] = [int(order[(k * take + t) % pool]) for t in range(take)]
    return out


def pool_slices(workload, size):
    """Slices that together cover every instance of every pool once, in order."""
    p = SIZES[size][workload]
    kinds = KINDS[workload]
    count = max(-(-p["pool"][k] // p["per_pass"][k]) for k in kinds)
    for j in range(count):
        yield {k: [i for i in range(j * p["per_pass"][k], (j + 1) * p["per_pass"][k])
                   if i < p["pool"][k]] for k in kinds}


def shadowed_cloud(ds, n, seed, sigma):
    """alpha=3 cloud times symmetric log-normal shadowing exp(N(0, sigma^2))."""
    base = ds.gen_euclidean(ds.random_points(n, seed), ALPHA)
    g = np.random.default_rng([seed, 1]).normal(0.0, sigma, size=(n, n))
    g = np.triu(g, 1)
    return ds.DecaySpace(base.f * np.exp(g + g.T))


def setup(ds, workload, inst, size):
    """Generate and write the inputs of the given instances into the current directory."""
    p = SIZES[size][workload]
    if workload == "metricity":
        for i in inst["pair"]:
            seed = KIND_SEED["pair"] + i
            ds.save_space(shadowed_cloud(ds, p["cloud"], seed, p["sigma"]), "cloud-%d.json" % i)
            ds.save_system(ds.random_link_system(p["links"], seed, alpha=ALPHA),
                           "links-%d.json" % i)
    elif workload == "growth":
        for kind in KINDS["growth"]:
            for i in inst[kind]:
                pts = ds.random_points(p[kind + "_n"], KIND_SEED[kind] + i)
                ds.save_space(ds.gen_euclidean(pts, ALPHA), "%s-%d.json" % (kind, i))
    elif workload == "schedule":
        for i in inst["system"]:
            sys_ = ds.random_link_system(p["links"], KIND_SEED["system"] + i, alpha=ALPHA,
                                         box=p["box"])
            ds.save_system(sys_, "system-%d.json" % i)
    else:
        raise ValueError("unknown workload %r" % workload)


def commands(workload, inst, size):
    """CLI operations of one pass: (op name, argv); each must exit 0."""
    p = SIZES[size][workload]
    if workload == "metricity":
        out = []
        for i in inst["pair"]:
            out += [("analyze-%d" % i, ["analyze", "--space", "cloud-%d.json" % i]),
                    ("capacity-%d" % i, ["capacity", "--system", "links-%d.json" % i,
                                         "--zeta", "auto", "--oracle", "off"])]
        return out
    if workload == "growth":
        out = []
        for kind, extra in (("fit", ["--C", "fit"]), ("mwis", ["--C", "off"])):
            for i in inst[kind]:
                out.append(("fading-%s-%d" % (kind, i),
                            ["fading", "--space", "%s-%d.json" % (kind, i),
                             "--r", repr(p[kind + "_r"])] + extra
                            + ["--exact-limit", str(p[kind + "_n"])]))
        return out
    return [("capacity-%d" % i, ["capacity", "--system", "system-%d.json" % i, "--zeta",
                                 repr(p["zeta"]), "--oracle", "off"])
            for i in inst["system"]]


def output_path(op):
    """File an operation writes its result to."""
    return op + (".out.json" if op.startswith("schedule-") else ".report.json")


def op_metric(op):
    return OP_METRIC[op.split("-")[0]]


def input_file(workload, op):
    """Input file an operation reads."""
    parts = op.split("-")
    if parts[0] == "fading":
        return "%s-%s.json" % (parts[1], parts[2])
    if workload == "metricity":
        return ("cloud-%s.json" if parts[0] == "analyze" else "links-%s.json") % parts[1]
    return "system-%s.json" % parts[1]


def schedule_all(ds, i, size):
    """Schedule every link of system-<i>.json by repeated greedy capacity.

    Public functions only. The capacity command has just checked the
    triangle inequality of this space at zeta, so the quasi-metric is
    built here without repeating that check. Writes schedule-<i>.out.json.
    """
    p = SIZES[size]["schedule"]
    zeta = p["zeta"]
    sys_ = ds.load_system("system-%d.json" % i)
    quasi = ds.quasi_distances(sys_.space, zeta, check=False)

    def part(idx):
        return ds.LinkSystem(sys_.space, links=[sys_.links[j] for j in idx],
                             params=sys_.params, power=sys_.power)

    remaining = list(range(sys_.n_links))
    rounds, signal, separation = [], [], []
    while remaining:
        sub = part(remaining)
        sel = list(ds.capacity_uniform(sub, zeta, quasi=quasi).selected)
        if not sel:
            raise RuntimeError("greedy capacity selected nothing from %d links" % len(remaining))
        if not ds.is_feasible(sub, sel)[0]:
            raise RuntimeError("greedy round %d is infeasible" % len(rounds))
        sig = ds.signal_strengthen(sub, sel, 1.0, p["q"])
        sep = ds.separation_strengthen(sub, quasi, sel, 1.0 / zeta, zeta)
        to_global = lambda cls: [remaining[j] for j in cls]
        rounds.append(to_global(sel))
        signal.append([to_global(c) for c in sig.classes])
        separation.append([to_global(c) for c in sep.classes])
        taken = set(sel)
        remaining = [v for j, v in enumerate(remaining) if j not in taken]

    # dense windows: the links closest to a centre link drawn for this instance
    LD = ds.link_distance_matrix(sys_, quasi)
    rng = np.random.default_rng([KIND_SEED["system"] + i, 3])
    centres = rng.choice(sys_.n_links, size=p["windows"], replace=False)
    windows = []
    for c in centres:
        idx = sorted(int(v) for v in np.argsort(LD[int(c)], kind="stable")[:p["window"]])
        sub = part(idx)
        opt, opt_set = ds.capacity_oracle(sub, max_n=len(idx))
        greedy = ds.capacity_uniform(sub, zeta, quasi=quasi)
        windows.append({
            "links": idx,
            "opt": int(opt),
            "opt_set": [idx[j] for j in opt_set],
            "greedy": [idx[j] for j in greedy.selected],
        })
    out = {"zeta": zeta, "q": p["q"], "rounds": rounds, "signal": signal,
           "separation": separation, "windows": windows}
    with open(output_path("schedule-%d" % i), "w") as fh:
        json.dump(out, fh, sort_keys=True)


def operations(workload, inst, size):
    """Names of the operations a pass over these instances attempts, in order."""
    ops = [name for name, _ in commands(workload, inst, size)]
    if workload == "schedule":
        ops = [op for i in inst["system"] for op in ("capacity-%d" % i, "schedule-%d" % i)]
    return ops


def run_pass(ds, workload, inst, size, timed):
    """Run one pass; timed(op, fn) runs fn as operation `op` and records it."""
    from decayspace import cli

    for op, argv in commands(workload, inst, size):
        timed(op, lambda argv=argv, op=op: cli.main(argv + ["--out", output_path(op)]))
        if workload == "schedule":
            i = int(op.split("-")[1])
            timed("schedule-%d" % i, lambda i=i: schedule_all(ds, i, size))

