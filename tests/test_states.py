"""Phase-space point and state-description value types."""

import math

import pytest

from thermalwigner import closed_form
from thermalwigner.states import EXCITATION_MAX, Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

_THERMAL = params_from_theta(0.4)
_ORIGIN = PhasePoint(0.0, 0.0)

# every entry point that takes an excitation count n
_TAKES_N = {
    "StateSpec": lambda n: StateSpec(Family.PHOTON_ADDED, _THERMAL, n=n),
    "wigner_number_state": lambda n: closed_form.wigner_number_state(_ORIGIN, n),
    "wigner_number_grid": lambda n: closed_form.wigner_number_grid(n, [0.0], [0.0]),
    "wigner_photon_subtracted_ncform": lambda n: closed_form.wigner_photon_subtracted_ncform(
        _ORIGIN, n, 0.5
    ),
}


class TestPhasePoint:
    def test_alpha_convention(self):
        point = PhasePoint(1.0, -2.0)
        assert point.alpha == complex(1.0 / math.sqrt(2.0), -2.0 / math.sqrt(2.0))
        assert point.abs2 == pytest.approx(abs(point.alpha) ** 2, rel=1e-15)

    def test_from_alpha_round_trip(self):
        point = PhasePoint(0.3, 1.7)
        again = PhasePoint.from_alpha(point.alpha)
        assert again.q == pytest.approx(point.q, rel=1e-15)
        assert again.p == pytest.approx(point.p, rel=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhasePoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            PhasePoint(0.0, float("inf"))


class TestStateSpec:
    def test_vacuum_forces_zero_excitation(self):
        spec = StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.4), n=3)
        assert spec.n == 0

    def test_family_accepts_string_values(self):
        spec = StateSpec("added", params_from_theta(0.4), n=2)
        assert spec.family is Family.PHOTON_ADDED

    def test_excitation_cap(self):
        thermal = params_from_theta(0.4)
        StateSpec(Family.PHOTON_ADDED, thermal, n=EXCITATION_MAX)
        with pytest.raises(ValueError):
            StateSpec(Family.PHOTON_ADDED, thermal, n=EXCITATION_MAX + 1)
        with pytest.raises(ValueError):
            StateSpec(Family.PHOTON_ADDED, thermal, n=-1)

    def test_describe(self):
        thermal = params_from_theta(0.4)
        assert StateSpec(Family.THERMAL_VACUUM, thermal).describe() == "vacuum(theta=0.4)"
        assert "n=2" in StateSpec(Family.PHOTON_ADDED, thermal, n=2).describe()

    @pytest.mark.parametrize("entry", sorted(_TAKES_N))
    @pytest.mark.parametrize(
        "n, message",
        [
            (-1, "n must be a nonnegative integer, got -1"),
            (1.5, "n must be a nonnegative integer, got 1.5"),
            (17, "n = 17 exceeds the supported maximum 16"),
        ],
    )
    def test_every_entry_point_refuses_n_alike(self, entry, n, message):
        with pytest.raises(ValueError) as exc:
            _TAKES_N[entry](n)
        assert str(exc.value) == message
