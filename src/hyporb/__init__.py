"""Certified numerics for hyperbolic orbifold metrics of entire maps."""

from .bounds import (
    lambda_lower,
    lambda_table,
    ratio_cone_over_disc,
    ratio_puncture_over_disc,
    ratio_upper,
    verify_bound_chain,
)
from .certify import (
    ExpansionCertificate,
    annulus_uniformity_scan,
    certified_curve_length,
    expansion_certificate,
    pullback_shrinking_experiment,
    upper_density_bound,
)
from .curves import PolylineCurve
from .homotopy import build_representative, choose_epsilon_n, winding_class
from .maps import (
    EntireMapSpec,
    catalogue,
    evaluate,
    get_map,
    inverse_step,
    iterate_orbit,
    local_degree,
    postsingular_truncation,
    pullback_curve,
)
from .models import (
    ConeDisc,
    Disc,
    PuncturedDisc,
    cone_disc_radial_distance,
    density,
    hyp_distance_disc,
)
from .orbifolds import (
    MarkedOrbifold,
    SeparationReport,
    Window,
    boundary_set,
    build_associated_orbifold,
    check_covering_relation,
    check_holomorphic_inclusion,
    find_absorbing_disc,
    find_repelling_cycle,
    separation_report,
)

__version__ = "0.1.0"
