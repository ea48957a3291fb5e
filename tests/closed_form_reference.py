"""Test-side references for the normalization of the conditioned thermal states.

The closed forms of ``thermalwigner.closed_form`` are normalized in
closed form and never use these constants.  They are the paper's
normalization constants of the photon-subtracted and photon-added
thermal states, whose inverses are the raw traces that the Fock
oracle's conditioning returns.
"""

import math

from thermalwigner.closed_form import DegenerateStateError
from thermalwigner.states import check_excitation_count
from thermalwigner.thermo import ThermalParams


def norm_const_subtracted(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-subtracted thermal state.

    1 / (n! sinh^(2n) theta); the inverse is the raw trace of the
    subtracted (unnormalized) density matrix.
    """
    n = check_excitation_count(n)
    if n >= 1 and thermal.theta == 0.0:
        raise DegenerateStateError(
            "the photon-subtracted vacuum has zero norm; the normalization "
            "constant diverges"
        )
    if n == 0:
        return 1.0
    return 1.0 / (math.factorial(n) * math.sinh(thermal.theta) ** (2 * n))


def norm_const_added(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-added thermal state.

    1 / (n! cosh^(2n) theta); total for all theta >= 0.
    """
    n = check_excitation_count(n)
    if n == 0:
        return 1.0
    return 1.0 / (math.factorial(n) * math.cosh(thermal.theta) ** (2 * n))
