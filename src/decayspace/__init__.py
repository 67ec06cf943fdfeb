"""Decay-space diagnostics for SINR scheduling.

The package models wireless interference abstractly: a decay space
assigns every ordered node pair a non-negative signal loss, with no
geometry assumed. Everything else is built on two rescalings of that
matrix. The metricity exponent zeta turns decays into quasi-distances
that obey the triangle inequality, which lets packing and separation
arguments run on arbitrary inputs; affectance normalizes pairwise
interference so that SINR feasibility of a link set becomes a row-sum
test.

On top sit a one-pass capacity scheduler for uniform power with an
exact oracle to compare against, partition lemmas that trade set
size for feasibility margin or separation, and dimension diagnostics
(ball packing growth, fading, center independence, guard sets) that
delimit when bounded-degree behavior is available. The generators
module builds the geometric and adversarial instance families used
throughout the tests, and the command line exposes the whole pipeline
on JSON or CSV inputs.
"""

from .spaces import (
    DecaySpace,
    MetricityReport,
    NODE_SPACE,
    LINK_GAIN,
    QuasiMetric,
    ValidationResult,
    analyze_metricity,
    compute_phi,
    compute_zeta,
    quasi_distances,
    triangle_violation,
    validate_space,
    zeta_upper_bound,
)
from .links import (
    LinkSystem,
    PowerAssignment,
    SinrParams,
    affectance,
    affectance_matrix,
    aggregate_affectance,
    check_separation,
    check_separation_set,
    drowned_links,
    interference_at,
    is_feasible,
    is_monotone_power,
    link_distance,
    link_distance_matrix,
    pairwise_power_infeasible,
    sinr_values,
)
from .capacity import (
    CapacityResult,
    Partition,
    amicable_subset,
    capacity_oracle,
    capacity_uniform,
    check_onezetasep,
    separation_strengthen,
    signal_strengthen,
)
from .analysis import (
    DimensionEstimate,
    FadingReport,
    assouad_estimate,
    ball,
    fading_bound,
    fading_parameter,
    guard_set,
    independence_at,
    independence_dimension,
    packing_number,
    two_half_ball_cover,
    zeta_hat,
)
from .generators import (
    gen_equidecay_graph,
    gen_euclidean,
    gen_star,
    gen_threepoint,
    gen_twoline,
    gen_welzl,
    random_graph,
    random_link_system,
    random_points,
)
from .io import (
    dumps_canonical,
    load_graph,
    load_space,
    load_system,
    save_space,
    save_system,
    space_from_dict,
    space_to_dict,
    strip_timing,
    system_from_dict,
    system_to_dict,
)

__version__ = "0.1.0"
