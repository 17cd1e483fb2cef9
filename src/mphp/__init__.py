"""Mixed-timescale per-group hybrid precoding simulation library.

The analog (RF) precoder adapts to channel statistics on a slow timescale
under an adaptive partially-connected phase-shifter structure; a per-group
zero-forcing baseband precoder adapts to the reduced effective channel every
slot.  The package also carries representative baseline schemes, link-level
Monte Carlo evaluation, and energy-efficiency / feedback accounting.
"""

from .baseband import DegenerateBeamError
from .baselines import build_precoders, design_long_term
from .channel import (
    ArrayGeometry,
    UserChannelParams,
    draw_channel,
    make_scenario,
    scenario_correlations,
    steering_vector,
)
from .config import SchemeId, SystemConfig
from .experiment import run_experiment, write_csv
from .grouping import chordal_distance, group_users
from .metrics import monte_carlo_rates
from .numerics import NearSingularError, hermitian_eig
from .rf_precoder import (
    DegenerateGroupError,
    ZeroColumnError,
    grfp_assign,
    leakage_correlation,
    relaxed_step,
    solve_relaxed,
    sslnr,
    validate_rf_precoder,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "DegenerateBeamError",
    "DegenerateGroupError",
    "NearSingularError",
    "SchemeId",
    "SystemConfig",
    "UserChannelParams",
    "ZeroColumnError",
    "build_precoders",
    "chordal_distance",
    "design_long_term",
    "draw_channel",
    "grfp_assign",
    "group_users",
    "hermitian_eig",
    "leakage_correlation",
    "make_scenario",
    "monte_carlo_rates",
    "relaxed_step",
    "run_experiment",
    "scenario_correlations",
    "solve_relaxed",
    "sslnr",
    "steering_vector",
    "validate_rf_precoder",
    "write_csv",
]
