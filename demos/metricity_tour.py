"""How far a decay matrix is from being a metric, and how to repair it.

Run: python3 demos/metricity_tour.py
"""

import numpy as np

from decayspace import (
    DecaySpace,
    analyze_metricity,
    compute_zeta,
    gen_euclidean,
    gen_threepoint,
    quasi_distances,
    random_points,
    triangle_violation,
)


def main():
    print("== three nodes that break the triangle inequality ==")
    sp = gen_threepoint(16.0)
    print("decay matrix:")
    print(sp.f)
    rep = analyze_metricity(sp)
    print("zeta      = %.6f  (raise decays to 1/zeta and triangles close)" % rep.zeta)
    print("zeta_raw  = %.6f  (before the safety rounding)" % rep.zeta_raw)
    print("phi_mult  = %.6f  (worst multiplicative detour, stays < 2 here)" % rep.phi_mult)
    print("witnesses: zeta %s, phi %s" % (rep.witness_zeta, rep.witness_phi))

    q = quasi_distances(sp, rep.zeta)
    print("quasi-distances d = f^(1/zeta):")
    print(np.round(q.d, 4))
    print("triangle violation in d:", triangle_violation(q))

    too_small = rep.zeta * 0.9
    print("at 0.9 * zeta the repair fails, violation:",
          triangle_violation(quasi_distances(sp, too_small, check=False)))

    print()
    print("== geometric clouds recover the path-loss exponent ==")
    for alpha in (2.0, 3.0):
        pts = random_points(40, 7, plant_collinear=True)
        cloud = gen_euclidean(pts, alpha)
        zr, z, w = compute_zeta(cloud)
        print("alpha = %.0f: zeta = %.9f, binding triple %s "
              "(the planted collinear points)" % (alpha, z, w))

    print()
    print("== growing the gap ==")
    print("threepoint(q) needs an ever larger exponent, while the")
    print("multiplicative defect saturates below 2:")
    for q_ in (2.0 ** 4, 2.0 ** 8, 2.0 ** 16):
        sp = gen_threepoint(q_)
        rep = analyze_metricity(sp)
        print("  q = 2^%2d: zeta = %7.4f   phi_mult = %.6f"
              % (np.log2(q_), rep.zeta, rep.phi_mult))


if __name__ == "__main__":
    main()
