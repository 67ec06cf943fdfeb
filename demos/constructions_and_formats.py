"""Tour of the built-in constructions, the file formats, and the CLI.

Each construction is a small decay space or link system built to make
one phenomenon unavoidable. Run: python3 demos/constructions_and_formats.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from decayspace import (
    affectance,
    analyze_metricity,
    dumps_canonical,
    gen_equidecay_graph,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    load_space,
    load_system,
    save_space,
    save_system,
)


def show(name, sp, note):
    rep = analyze_metricity(sp)
    print("%-12s n=%-3d zeta=%-8.4f %s" % (name, sp.n, rep.zeta, note))


def main():
    print("construction    size  exponent  what it is for")
    show("threepoint", gen_threepoint(256.0),
         "smallest possible triangle violation, tunable severity")
    show("star", gen_star(6, 0.5),
         "hub whose leaves all interfere at one listener")
    show("welzl", gen_welzl(6),
         "doubling chain, unbounded independence at the anchor")

    tl = gen_twoline(8, edges=[(0, 1), (3, 4)], alpha=2.5)
    print("twoline      n=%-3d link system: two parallel rows of %d senders"
          % (tl.space.n, tl.n_links))
    print("  cross-row affectance between non-adjacent links is exactly 1/n:",
          affectance(tl, 0, 4))

    eq = gen_equidecay_graph(6, [(0, 1), (2, 3)])
    print("equidecay    n=%-3d link-gain system where feasibility = graph"
          " independence" % eq.space.n)

    print()
    print("== files ==")
    tmp = tempfile.mkdtemp(prefix="decayspace_demo_")
    sp_path = os.path.join(tmp, "star.json")
    save_space(gen_star(3, 1.0), sp_path)
    back = load_space(sp_path)
    print("space round-trip through %s: identical = %s"
          % (sp_path, bool(np.array_equal(back.f, gen_star(3, 1.0).f))))

    sys_path = os.path.join(tmp, "twoline.json")
    save_system(tl, sys_path)
    tl2 = load_system(sys_path)
    print("system round-trip: links preserved = %s, beta = %s"
          % (tl2.links == tl.links, tl2.params.beta))

    # canonical serialization: same bytes regardless of key order
    a = dumps_canonical({"beta": 1.0, "alpha": 2.5})
    b = dumps_canonical({"alpha": 2.5, "beta": 1.0})
    print("canonical JSON is order-independent:", a == b, a)

    print()
    print("== the same analyses from the shell ==")
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "decayspace", "analyze", "--space", sp_path]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    doc = json.loads(out.stdout)
    met = doc["results"]["metricity"]
    print("$ %s" % " ".join(cmd[2:]))
    print("  exit %d, zeta %.4f, phi_mult %.4f"
          % (out.returncode, met["zeta"], met["phi_mult"]))

    cmd = [sys.executable, "-m", "decayspace", "capacity", "--system", sys_path,
           "--zeta", "auto", "--oracle", "on"]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    doc = json.loads(out.stdout)
    r = doc["results"]
    print("$ %s" % " ".join(cmd[2:]))
    print("  exit %d, selected %s, optimum %s, ratio %s"
          % (out.returncode, r["selected"], r["opt"], r["ratio"]))
    print("  (the two rows are engineered to make the separation filter")
    print("   overly cautious; this family is the stress case, not the norm)")

    # the builtin corpus (`verify --seed 0`) is the release gate and takes
    # tens of seconds; checking the files just written is instant
    cmd = [sys.executable, "-m", "decayspace", "verify", "--corpus", sp_path, sys_path]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    doc = json.loads(out.stdout)
    items = doc["results"]["items"]
    print("$ %s" % " ".join(cmd[2:]))
    print("  exit %d, %d/%d instance files pass"
          % (out.returncode, sum(c["ok"] for c in items), len(items)))
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
