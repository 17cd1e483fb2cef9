"""Mixed-timescale per-group hybrid precoding simulation library.

The analog (RF) precoder adapts to channel statistics on a slow timescale
under an adaptive partially-connected phase-shifter structure; a per-group
zero-forcing baseband precoder adapts to the reduced effective channel every
slot.  The package also carries representative baseline schemes, link-level
Monte Carlo evaluation, and energy-efficiency / feedback accounting.
"""

from .baseband import DegenerateBeamError, effective_channel, power_allocation, zf_precoder
from .baselines import SchemeId, SlotPrecoders, build_precoders, design_long_term
from .channel import (
    ArrayGeometry,
    UserChannelParams,
    correlation_from_params,
    draw_channel,
    make_scenario,
    scenario_correlations,
    steering_vector,
)
from .experiment import ResultRow, SystemConfig, parse_config, run_experiment, serialize_config, write_csv
from .grouping import Grouping, chordal_distance, group_users
from .metrics import (
    PowerModel,
    RunMetrics,
    SlotMetrics,
    energy_efficiency,
    feedback_overhead,
    jain_fairness,
    monte_carlo_rates,
    sinr_per_user,
    slnr_per_user,
)
from .numerics import EigenDecomposition, NearSingularError, hermitian_eig, solve_right_inverse
from .rf_precoder import (
    DegenerateGroupError,
    RelaxedSolution,
    RfPrecoder,
    ZeroColumnError,
    grfp_assign,
    leakage_correlation,
    relaxed_step,
    solve_alpha_star,
    solve_relaxed,
    sslnr,
    validate_rf_precoder,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "DegenerateBeamError",
    "DegenerateGroupError",
    "EigenDecomposition",
    "Grouping",
    "NearSingularError",
    "PowerModel",
    "RelaxedSolution",
    "ResultRow",
    "RfPrecoder",
    "RunMetrics",
    "SchemeId",
    "SlotMetrics",
    "SlotPrecoders",
    "SystemConfig",
    "UserChannelParams",
    "ZeroColumnError",
    "build_precoders",
    "chordal_distance",
    "correlation_from_params",
    "design_long_term",
    "draw_channel",
    "effective_channel",
    "energy_efficiency",
    "feedback_overhead",
    "grfp_assign",
    "group_users",
    "hermitian_eig",
    "jain_fairness",
    "leakage_correlation",
    "make_scenario",
    "monte_carlo_rates",
    "parse_config",
    "power_allocation",
    "relaxed_step",
    "run_experiment",
    "scenario_correlations",
    "serialize_config",
    "sinr_per_user",
    "slnr_per_user",
    "solve_alpha_star",
    "solve_relaxed",
    "solve_right_inverse",
    "sslnr",
    "steering_vector",
    "validate_rf_precoder",
    "write_csv",
    "zf_precoder",
]
