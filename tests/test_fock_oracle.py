"""Truncated Fock-space oracle: states, ladder conditioning, displaced parity."""

import math

import numpy as np
import pytest
import scipy.linalg

from thermalwigner import fock_oracle
from thermalwigner.analysis import default_verification_grid
from thermalwigner.closed_form import wigner_thermal_vacuum
from thermalwigner.fock_oracle import (
    AnnihilatedStateError,
    TWO_MODE_DEFICIT_TOL,
    FockDensityMatrix,
    TruncationError,
    apply_addition,
    apply_subtraction,
    build_oracle_state,
    displacement_operator,
    min_thermal_dim,
    parity_prefactor,
    thermal_density_matrix,
    thermal_number_reduced,
    wigner_from_density,
    wigner_grid_from_density,
)
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

ORIGIN = PhasePoint(0.0, 0.0)


def annihilator(dim):
    """Dense <m| a |m+1> = sqrt(m+1) on a dim-level mode."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def off_diagonal(matrix):
    """Largest off-diagonal magnitude of a square matrix."""
    return float(np.max(np.abs(matrix - np.diag(np.diagonal(matrix)))))


def partial_trace_tilde(rho2, dim):
    """Reference reduction of a kron-ordered two-mode matrix over its tilde factor."""
    return np.einsum("itjt->ij", rho2.reshape(dim, dim, dim, dim))


def kron_thermal_number_reduced(n, theta, dim):
    """Reference number-state build on the full doubled space.

    Exponentiates theta (a^dag x a^dag - a x a) as a dim^2 x dim^2 dense
    matrix, applies it to |n> x |n> and traces out the tilde mode.
    Returns the reduced matrix and the population within two levels of
    the cutoff, measured as the oracle measures it.
    """
    a = annihilator(dim)
    generator = theta * (np.kron(a.T, a.T) - np.kron(a, a))
    psi = scipy.linalg.expm(generator)[:, n * dim + n]
    amplitudes = psi.reshape(dim, dim)
    body = float(np.sum(np.abs(amplitudes[: dim - 2, : dim - 2]) ** 2))
    deficit = abs(float(np.vdot(psi, psi).real) - body)
    reduced = partial_trace_tilde(np.outer(psi, psi.conj()), dim)
    return reduced / reduced.trace().real, deficit


def matrix_power_conditioning(rho, n, ladder):
    """Reference conditioning L^n rho L^dag^n from a dense ladder power, renormalized.

    Works on the dense matrix diag(populations) and returns the dense result.
    """
    power = np.linalg.matrix_power(ladder, n)
    out = power @ np.diag(rho.populations) @ power.T
    raw = out.trace()
    return out / raw, raw


def number_state_matrix(level, dim):
    populations = np.zeros(dim)
    populations[level] = 1.0
    return FockDensityMatrix(populations)


def non_geometric_state(dim, empty_top):
    """Seeded random populations with the top ``empty_top`` levels empty."""
    populations = np.random.default_rng(7).random(dim)
    populations[dim - empty_top :] = 0.0
    return FockDensityMatrix(populations / populations.sum())


class TestThermalDensityMatrix:
    def test_vacuum(self):
        rho = thermal_density_matrix(0.0, 4)
        assert np.array_equal(rho.populations, [1.0, 0.0, 0.0, 0.0])

    def test_ground_occupation(self):
        # geometric weights give <0|rho|0> = 1/(n_c + 1)
        rho = thermal_density_matrix(1.0, 60)
        assert rho.populations[0] == pytest.approx(0.5, rel=1e-12)

    def test_mean_photons(self):
        for n_c in (0.1, 0.5, 1.3811):
            rho = thermal_density_matrix(n_c, min_thermal_dim(n_c) + 10)
            assert rho.mean_photons() == pytest.approx(n_c, rel=1e-10)

    def test_truncation_error_reports_required_dim(self):
        with pytest.raises(TruncationError, match=str(min_thermal_dim(1.0))):
            thermal_density_matrix(1.0, 5)


class TestSubtraction:
    def test_vacuum_is_annihilated(self):
        with pytest.raises(AnnihilatedStateError):
            apply_subtraction(thermal_density_matrix(0.0, 8), 1)

    @pytest.mark.parametrize("n, theta", [(16, 0.1), (12, 0.1), (8, 0.05), (16, 1e-6)])
    def test_tiny_raw_trace_is_a_state(self, n, theta):
        # tiny raw traces, 5e-16 down to 2e-179, are valid states
        n_c = math.sinh(theta) ** 2
        rho = thermal_density_matrix(n_c, min_thermal_dim(n_c) + n + 10)
        out, raw = apply_subtraction(rho, n)
        expected = math.factorial(n) * math.sinh(theta) ** (2 * n)
        assert raw == pytest.approx(expected, rel=1e-8)
        # the subtracted thermal state is negative binomial: <a^dag a> = (n + 1) n_c
        assert out.mean_photons() == pytest.approx((n + 1) * n_c, rel=1e-8)

    def test_identity_at_n_zero(self):
        rho = thermal_density_matrix(0.5, 60)
        out, raw = apply_subtraction(rho, 0)
        assert raw == 1.0
        assert out is rho

    def test_raw_trace_at_unit_occupation(self):
        # sinh^2(theta) = 1: raw trace of single subtraction is exactly 1
        theta = math.asinh(1.0)
        rho = thermal_density_matrix(math.sinh(theta) ** 2, 120)
        _, raw = apply_subtraction(rho, 1)
        assert raw == pytest.approx(1.0, rel=1e-10)

    def test_raw_traces_match_normalization_constants(self):
        for theta in (0.2, 0.5, 1.0):
            n_c = math.sinh(theta) ** 2
            rho = thermal_density_matrix(n_c, min_thermal_dim(n_c) + 30)
            for n in (1, 2, 3):
                _, raw = apply_subtraction(rho, n)
                expected = math.factorial(n) * math.sinh(theta) ** (2 * n)
                assert raw == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_matrix_power_reference(self, n):
        rho = non_geometric_state(40, empty_top=5)
        expected, expected_raw = matrix_power_conditioning(rho, n, annihilator(40))
        # the premise of the populations-only state: conditioning keeps rho diagonal
        assert off_diagonal(expected) < 1e-13
        out, raw = apply_subtraction(rho, n)
        assert raw == pytest.approx(expected_raw, rel=1e-14)
        assert np.max(np.abs(out.populations - np.diagonal(expected))) < 1e-14


class TestAddition:
    def test_vacuum_becomes_one_photon(self):
        out, raw = apply_addition(thermal_density_matrix(0.0, 8), 1)
        assert raw == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(out.populations - number_state_matrix(1, 8).populations)) < 1e-14

    def test_identity_at_n_zero(self):
        rho = thermal_density_matrix(0.5, 60)
        out, raw = apply_addition(rho, 0)
        assert raw == 1.0
        assert out is rho

    def test_raw_traces_match_normalization_constants(self):
        for theta in (0.2, 0.5, 1.0):
            n_c = math.sinh(theta) ** 2
            rho = thermal_density_matrix(n_c, min_thermal_dim(n_c) + 30)
            for n in (1, 2, 3):
                _, raw = apply_addition(rho, n)
                expected = math.factorial(n) * math.cosh(theta) ** (2 * n)
                assert raw == pytest.approx(expected, rel=1e-8)

    def test_headroom_guard(self):
        with pytest.raises(TruncationError, match="headroom"):
            apply_addition(number_state_matrix(7, 8), 1)

    def test_more_photons_than_levels(self):
        # every level would be shifted past the cutoff
        with pytest.raises(TruncationError, match="headroom"):
            apply_addition(thermal_density_matrix(0.0, 4), 6)

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_matrix_power_reference(self, n):
        rho = non_geometric_state(40, empty_top=5)
        expected, expected_raw = matrix_power_conditioning(rho, n, annihilator(40).T)
        assert off_diagonal(expected) < 1e-13
        out, raw = apply_addition(rho, n)
        assert raw == pytest.approx(expected_raw, rel=1e-14)
        assert np.max(np.abs(out.populations - np.diagonal(expected))) < 1e-14


class TestPartialTrace:
    """Self-checks of the test's doubled-space reference."""

    def test_ground_pair(self):
        dim = 6
        two_mode = np.zeros((dim * dim, dim * dim), dtype=complex)
        two_mode[0, 0] = 1.0
        reduced = partial_trace_tilde(two_mode, dim)
        assert np.max(np.abs(reduced - np.diag(number_state_matrix(0, dim).populations))) < 1e-14

    def test_product_state(self):
        dim = 20
        rho = np.diag(thermal_density_matrix(0.3, dim).populations)
        sigma = np.diag(number_state_matrix(2, dim).populations)
        reduced = partial_trace_tilde(np.kron(rho, sigma), dim)
        assert np.max(np.abs(reduced - rho)) < 1e-13

    def test_two_mode_squeezed_vacuum_reduces_to_thermal(self):
        theta = 0.3
        reduced = thermal_number_reduced(0, theta, 24)
        expected = thermal_density_matrix(math.sinh(theta) ** 2, 24)
        assert np.max(np.abs(reduced.populations - expected.populations)) < 1e-12


class TestThermoNumberReduced:
    def test_identity_squeeze(self):
        reduced = thermal_number_reduced(1, 0.0, 8)
        assert np.max(np.abs(reduced.populations - number_state_matrix(1, 8).populations)) < 1e-13

    def test_tiny_squeeze_close_to_number_state(self):
        reduced = thermal_number_reduced(1, 1e-5, 12)
        assert abs(reduced.populations[1] - 1.0) < 1e-9

    def test_mean_photons_of_reduced_vacuum(self):
        # the reduced doubled-space vacuum is thermal with sinh^2(theta) photons
        reduced = thermal_number_reduced(0, 0.5, 32)
        assert reduced.mean_photons() == pytest.approx(math.sinh(0.5) ** 2, rel=1e-10)

    def test_deficit_error(self):
        with pytest.raises(TruncationError, match="deficit"):
            thermal_number_reduced(2, 1.2, 16)

    @pytest.mark.parametrize("dim", [8, 9, 10])
    def test_sector_matches_kron_reference(self, dim):
        for n in (0, 1, 3):
            for theta in (0.1, 0.4):
                expected, deficit = kron_thermal_number_reduced(n, theta, dim)
                if deficit > TWO_MODE_DEFICIT_TOL:
                    with pytest.raises(TruncationError, match="deficit"):
                        thermal_number_reduced(n, theta, dim)
                    continue
                # the premise of the populations-only state: the reduction is diagonal
                assert off_diagonal(expected) < 1e-13
                reduced = thermal_number_reduced(n, theta, dim)
                assert np.max(np.abs(reduced.populations - np.diagonal(expected))) < 1e-13

    def test_deficit_refusal_matches_kron_reference(self):
        refused = set()
        for n in (0, 1, 3):
            for theta in np.linspace(0.1, 1.5, 15):
                _, deficit = kron_thermal_number_reduced(n, theta, 10)
                try:
                    thermal_number_reduced(n, theta, 10)
                except TruncationError:
                    refused.add((n, theta))
                assert ((n, theta) in refused) == (deficit > TWO_MODE_DEFICIT_TOL)
        # the scan crosses the refusal boundary for every n
        assert {n for n, _ in refused} == {0, 1, 3}
        assert len(refused) < 45

    def test_dim_64_agrees_with_dim_32(self):
        # no level cap: where both truncations have converged they agree
        small = np.pad(thermal_number_reduced(2, 0.3, 32).populations, (0, 32))
        large = thermal_number_reduced(2, 0.3, 64)
        assert np.max(np.abs(large.populations - small)) < 1e-14


class TestDensityMatrixValidation:
    @pytest.mark.parametrize(
        "bad", [np.eye(2) / 2.0, np.float64(1.0), np.zeros(0)], ids=["matrix", "scalar", "empty"]
    )
    def test_rejects_input_that_is_not_a_vector(self, bad):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            FockDensityMatrix(bad)

    def test_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="finite"):
            FockDensityMatrix(np.array([0.5, math.nan, 0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            FockDensityMatrix(np.array([0.7, 0.2]))

    def test_rejects_negative_diagonal_entry(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            FockDensityMatrix(np.array([0.7, 0.5, -0.2]))

    def test_entries_are_read_only(self):
        rho = thermal_density_matrix(0.2, 30)
        with pytest.raises(ValueError):
            rho.populations[0] = 0.0


class TestDisplacement:
    def test_unitary(self):
        disp = displacement_operator(0.7 - 0.4j, 40)
        assert np.max(np.abs(disp @ disp.conj().T - np.eye(40))) < 1e-12

    def test_displaced_vacuum_is_coherent_gaussian(self):
        # textbook check: the vacuum, displaced by alpha, has parity exp(-2|alpha|^2),
        # so W = (1/pi) exp(-2|alpha|^2), also off the q axis
        rho = thermal_density_matrix(0.0, 40)
        for point in (ORIGIN, PhasePoint(1.0, 0.5), PhasePoint(-0.4, 1.2)):
            expected = math.exp(-2.0 * abs(point.alpha) ** 2) / math.pi
            assert wigner_from_density(rho, point) == pytest.approx(expected, abs=1e-10)


class TestDisplacedParity:
    def test_prefactor_self_calibration(self):
        assert parity_prefactor() == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_vacuum_origin(self):
        rho = thermal_density_matrix(0.0, 12)
        assert wigner_from_density(rho, ORIGIN) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_one_photon_origin(self):
        rho = number_state_matrix(1, 12)
        assert wigner_from_density(rho, ORIGIN) == pytest.approx(-1.0 / math.pi, rel=1e-12)

    def test_thermal_point_matches_closed_form(self):
        thermal = params_from_theta(0.2)
        rho = thermal_density_matrix(thermal.n_c, 50)
        point = PhasePoint(1.0, 0.0)
        assert abs(
            wigner_from_density(rho, point) - wigner_thermal_vacuum(point, thermal)
        ) < 1e-8

    def test_leak_guard(self):
        rho = thermal_density_matrix(0.0, 10)
        with pytest.raises(TruncationError, match="leak"):
            wigner_from_density(rho, PhasePoint(5.0, 0.0))

    def test_grid_matches_scalar_evaluations(self):
        q = np.linspace(-3.0, 3.0, 7)
        p = np.linspace(-2.5, 2.0, 6)
        states = [
            build_oracle_state(StateSpec(family, params_from_theta(theta), n=n), alpha_max_sq=4.5)
            for family, n, theta in [
                (Family.THERMAL_VACUUM, 0, 0.5),
                (Family.PHOTON_SUBTRACTED, 2, 0.5),
                (Family.PHOTON_ADDED, 2, 0.5),
                (Family.THERMAL_NUMBER, 1, 0.3),
            ]
        ]
        # the folded spectrum has a mu = 0 mode at odd dim only
        states += [thermal_density_matrix(0.3, 55), thermal_density_matrix(0.3, 56)]
        for rho in states:
            grid = wigner_grid_from_density(rho, q, p)
            assert grid.shape == (7, 6)
            for i in (0, 2, 5):
                for j in (1, 3, 5):
                    # off-axis nodes, away from the q axis the evaluator displaces along
                    point = PhasePoint(float(q[i]), float(p[j]))
                    assert point.q != 0.0 and point.p != 0.0
                    assert grid[i, j] == pytest.approx(
                        wigner_from_density(rho, point), abs=1e-12
                    )

    def test_grid_spans_several_radius_chunks(self, monkeypatch):
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.4), n=1)
        rho = build_oracle_state(state, alpha_max_sq=4.5)
        q = np.linspace(-3.0, 3.0, 41)
        p = np.linspace(-2.9, 2.9, 37)
        radii = np.unique(np.hypot(q[:, None], p[None, :])).size
        assert radii > 2 * fock_oracle._RADIUS_CHUNK
        grid = wigner_grid_from_density(rho, q, p)
        monkeypatch.setattr(fock_oracle, "_RADIUS_CHUNK", radii)
        one_chunk = wigner_grid_from_density(rho, q, p)
        assert np.max(np.abs(grid - one_chunk)) < 1e-14
        for i, j in ((0, 0), (17, 29), (40, 36)):
            point = PhasePoint(float(q[i]), float(p[j]))
            assert grid[i, j] == pytest.approx(wigner_from_density(rho, point), abs=1e-12)

    def test_grid_leak_guard(self):
        rho = thermal_density_matrix(0.0, 12)
        q = np.linspace(-6.0, 6.0, 5)
        with pytest.raises(TruncationError, match="leak"):
            wigner_grid_from_density(rho, q, q)

    def test_grid_leak_refusal_on_verification_grid(self):
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(1.2), n=9)
        box, nq, np_ = default_verification_grid(state)
        rho = build_oracle_state(state, box.alpha_max_sq)
        q = np.linspace(box.q_min, box.q_max, nq)
        p = np.linspace(box.p_min, box.p_max, np_)
        with pytest.raises(TruncationError, match=r"leak up to 1\.776e-10 on the grid at dim 240 "):
            wigner_grid_from_density(rho, q, p)

    @pytest.mark.parametrize("leak_tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_leak_tolerance_must_be_positive_finite(self, leak_tol):
        # far outside the basis: a NaN tolerance used to let the leak through
        rho = thermal_density_matrix(0.2, 30)
        with pytest.raises(ValueError, match="leak_tol"):
            wigner_from_density(rho, PhasePoint(20.0, 0.0), leak_tol=leak_tol)
        with pytest.raises(ValueError, match="leak_tol"):
            wigner_grid_from_density(rho, np.array([-20.0, 20.0]), np.zeros(1), leak_tol=leak_tol)

    def test_grid_refuses_empty_axis(self):
        rho = thermal_density_matrix(0.2, 30)
        with pytest.raises(ValueError, match="non-empty"):
            wigner_grid_from_density(rho, np.array([]), np.zeros(3))
        with pytest.raises(ValueError, match="non-empty"):
            wigner_grid_from_density(rho, np.zeros(3), [])

    @pytest.mark.parametrize("dim", [9, 10])
    def test_quadrature_eig_reproduces_displacement(self, dim):
        mu, vec = fock_oracle._quadrature_eig(dim)
        phases = np.diag(1j ** np.arange(dim))
        for r in (0.3, -1.1, 2.5):
            expected = displacement_operator(r / math.sqrt(2.0), dim)
            built = phases @ (vec * np.exp(-1j * r * mu)) @ vec.T @ phases.conj().T
            assert np.max(np.abs(built - expected)) < 1e-12


class TestBuildOracleState:
    def test_families_produce_valid_states(self):
        thermal = params_from_theta(0.5)
        for family, n in [
            (Family.THERMAL_VACUUM, 0),
            (Family.PHOTON_SUBTRACTED, 2),
            (Family.PHOTON_ADDED, 2),
            (Family.THERMAL_NUMBER, 1),
        ]:
            rho = build_oracle_state(StateSpec(family, thermal, n=n), alpha_max_sq=8.0)
            assert abs(rho.populations.sum() - 1.0) < 1e-10

    def test_embed_preserves_entries(self):
        # the number state is built at 32 levels per mode, then zero-padded for headroom
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.3), n=2)
        rho = build_oracle_state(state, alpha_max_sq=8.0)
        reduced = thermal_number_reduced(2, 0.3)
        assert rho.dim == reduced.dim + fock_oracle.displacement_padding(2, 8.0)
        assert np.array_equal(rho.populations[: reduced.dim], reduced.populations)
        assert np.all(rho.populations[reduced.dim :] == 0.0)
