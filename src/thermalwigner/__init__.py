"""Wigner functions of finite-temperature bosonic states.

Closed-form evaluators for the thermal vacuum, photon-subtracted and
photon-added thermal states and the finite-temperature number state,
together with an independent truncated-Fock-space oracle (displaced
photon-number parity) that certifies every formula, grid/quadrature
post-processing, and a command-line front end.

Conventions: hbar = 1, alpha = (q + i p)/sqrt(2), and the Wigner
function integrates to 1 over dq dp (vacuum peak 1/pi).
"""

from .analysis import (
    Box,
    BoxTooSmallError,
    Source,
    VerificationReport,
    WignerGrid,
    negativity_of_state,
    negativity_volume,
    normalization_integral,
    normalization_of_state,
    sample_grid,
    scan_theta,
    verify_state,
)
from .closed_form import (
    DegenerateStateError,
    wigner_closed_form,
    wigner_closed_grid,
)
from .fock_oracle import (
    AnnihilatedStateError,
    FockDensityMatrix,
    TruncationError,
    build_oracle_state,
    wigner_grid_from_density,
)
from .states import EXCITATION_MAX, Family, PhasePoint, StateSpec
from .thermo import (
    THETA_MAX,
    ThermalParams,
    params_from_mean_photons,
    params_from_temperature,
    params_from_theta,
    theta_from_temperature,
)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatedStateError",
    "Box",
    "BoxTooSmallError",
    "DegenerateStateError",
    "EXCITATION_MAX",
    "Family",
    "FockDensityMatrix",
    "PhasePoint",
    "Source",
    "StateSpec",
    "THETA_MAX",
    "ThermalParams",
    "TruncationError",
    "VerificationReport",
    "WignerGrid",
    "build_oracle_state",
    "negativity_of_state",
    "negativity_volume",
    "normalization_integral",
    "normalization_of_state",
    "params_from_mean_photons",
    "params_from_temperature",
    "params_from_theta",
    "sample_grid",
    "scan_theta",
    "theta_from_temperature",
    "verify_state",
    "wigner_closed_form",
    "wigner_closed_grid",
    "wigner_grid_from_density",
]
