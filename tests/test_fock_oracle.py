"""Truncated Fock-space oracle: states, ladder conditioning, displaced parity."""

import ast
import math
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from closed_form_reference import norm_const_added, norm_const_subtracted

from thermalwigner import fock_oracle
from thermalwigner.analysis import _axis, verify_state
from thermalwigner.closed_form import wigner_closed_form
from thermalwigner.fock_oracle import (
    AnnihilatedStateError,
    THERMAL_TAIL_TOL,
    TWO_MODE_DEFICIT_TOL,
    VACUUM_PEAK,
    FockDensityMatrix,
    TruncationError,
    apply_addition,
    apply_subtraction,
    build_oracle_state,
    displacement_operator,
    min_thermal_dim,
    thermal_density_matrix,
    thermal_number_reduced,
    wigner_from_density,
    wigner_grid_from_density,
)
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

ORIGIN = PhasePoint(0.0, 0.0)


def imported_names(path):
    """(module, name) for every import of the Python source at ``path``.

    ``from module import name`` gives (module, name); ``import module`` and
    ``from thermalwigner import module`` give (module, None).  Relative
    imports are resolved inside ``thermalwigner``.
    """
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            parts = ["thermalwigner"] * (node.level > 0) + (node.module or "").split(".")
            module = ".".join(part for part in parts if part)
            if module == "thermalwigner":  # from . import <module>
                imported |= {(f"{module}.{alias.name}", None) for alias in node.names}
            else:
                imported |= {(module, alias.name) for alias in node.names}
    return imported


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
                constant = norm_const_subtracted(n, params_from_theta(theta))
                assert raw * constant == pytest.approx(1.0, rel=1e-8)

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
                constant = norm_const_added(n, params_from_theta(theta))
                assert raw * constant == pytest.approx(1.0, rel=1e-8)

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

    @pytest.mark.parametrize("n", [0, 2, 5, 16])
    @pytest.mark.parametrize("theta", [0.1, 0.5])
    def test_sector_matches_scipy_expm_at_32_levels(self, n, theta):
        steps = theta * np.arange(1.0, 32)
        amplitudes = scipy.linalg.expm(np.diag(steps, k=-1) - np.diag(steps, k=1))[:, n]
        weights = amplitudes**2
        deficit = float(np.sum(weights[-2:]))
        if deficit > TWO_MODE_DEFICIT_TOL:
            with pytest.raises(TruncationError, match="deficit"):
                thermal_number_reduced(n, theta)
            return
        reduced = thermal_number_reduced(n, theta)
        assert reduced.dim == 32
        assert abs(reduced.tail - deficit) <= 1e-14
        assert np.max(np.abs(reduced.populations - weights / weights.sum())) <= 1e-14

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

    @pytest.mark.parametrize("tail", [math.nan, -1e-20, 1.5])
    def test_rejects_tail_outside_unit_interval(self, tail):
        with pytest.raises(ValueError, match="tail"):
            FockDensityMatrix(np.array([0.5, 0.5]), tail)

    def test_entries_are_read_only(self):
        rho = thermal_density_matrix(0.2, 30)
        with pytest.raises(ValueError):
            rho.populations[0] = 0.0


@lru_cache(maxsize=8)
def quadrature_eig(dim):
    """Real eigenpairs of the quadrature x = (a + a^dag)/sqrt(2).

    x is real, symmetric and tridiagonal with a zero diagonal, so
    ``eigh_tridiagonal`` returns real ascending eigenvalues mu and a real
    orthogonal U with x = U diag(mu) U^T.  With P = diag(i^k), the
    q-displacement generator is (a^dag - a)/sqrt(2) = P (-i x) P^dag, so

        D(r / sqrt(2)) = P U exp(-i r mu) U^T P^dag.

    P is diagonal, so it drops out of every diagonal element of a
    diagonal state.
    """
    return scipy.linalg.eigh_tridiagonal(np.zeros(dim), np.sqrt(np.arange(1.0, dim)) / math.sqrt(2.0))


def eigenbasis_grid(rho, q, p, leak_tol=1e-10):
    """The eigenbasis grid evaluator the series replaced, kept as a second reference.

    ``rho`` is zero-padded with the dense reference's headroom for the
    grid's largest |alpha|^2.  Each distinct radius r = hypot(q, p) is a
    q-displacement in the eigenbasis of :func:`quadrature_eig`, and the
    reflection identity D(alpha) Pi D(alpha)^dag = D(2 alpha) Pi turns the
    parity into one displacement,

        W(r) = (1/pi) sum_j g_j cos(2 r mu_j),  g = (U o U)^T (w o (-1)^k),

    whose sine counterpart must vanish.  The guard-band leak, with
    c = cos(r mu) and s = sin(r mu),

        leak(r) = c^T K c + s^T K s,  K = (U^T diag(w) U) o (U_band^T U_band),

    must stay below ``leak_tol`` at every radius.  (The module version
    folded the sums onto mu >= 0 and chunked the radii; this one does
    neither.)
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    alpha_max_sq = 0.5 * (np.max(np.abs(q)) ** 2 + np.max(np.abs(p)) ** 2)
    dim = rho.dim + fock_oracle._dense_headroom(rho.dim, alpha_max_sq)
    weights = np.pad(rho.populations, (0, dim - rho.dim))
    signs = (-1.0) ** np.arange(dim)
    mu, vec = quadrature_eig(dim)
    band = vec[dim - max(3, dim // 12) :]
    g = (vec * vec).T @ (weights * signs)
    kernel = ((vec.T * weights) @ vec) * (band.T @ band)
    radii, inverse = np.unique(np.hypot(q[:, None], p[None, :]), return_inverse=True)
    cos, sin = np.cos(radii[:, None] * mu), np.sin(radii[:, None] * mu)
    leak = np.einsum("ij,ij->i", cos @ kernel, cos) + np.einsum("ij,ij->i", sin @ kernel, sin)
    if not np.max(leak) <= leak_tol:
        raise TruncationError(f"eigenbasis reference leaks {np.max(leak):.3e} at dim {dim}")
    assert np.max(np.abs((2.0 * sin * cos) @ g)) < 1e-10
    values = (cos * cos - sin * sin) @ g
    return VACUUM_PEAK * values[inverse].reshape(q.size, p.size)


def verification_axes(state):
    """Fixed axes near the origin: 49 x 49 on [-3, 3]^2 for number, else 81 x 81 on [-4, 4]^2."""
    if state.family is Family.THERMAL_NUMBER:
        return _axis(-3.0, 3.0, 49), _axis(-3.0, 3.0, 49)
    return _axis(-4.0, 4.0, 81), _axis(-4.0, 4.0, 81)


class TestDisplacement:
    def test_unitary(self):
        disp = displacement_operator(0.7 - 0.4j, 40)
        assert np.max(np.abs(disp @ disp.conj().T - np.eye(40))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5 + 0.5j, -1.2 + 1.6j, 2.4j, -1.5 - 1.8j, 2.0 - 2.0j])
    def test_matches_scipy_expm_at_400_levels(self, alpha):
        a = annihilator(400)
        expected = scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(displacement_operator(alpha, 400) - expected)) <= 1e-13

    def test_displaced_vacuum_is_coherent_gaussian(self):
        # textbook check: the vacuum, displaced by alpha, has parity exp(-2|alpha|^2),
        # so W = (1/pi) exp(-2|alpha|^2), also off the q axis
        rho = thermal_density_matrix(0.0, 40)
        for point in (ORIGIN, PhasePoint(1.0, 0.5), PhasePoint(-0.4, 1.2)):
            expected = math.exp(-2.0 * abs(point.alpha) ** 2) / math.pi
            assert wigner_from_density(rho, point) == pytest.approx(expected, abs=1e-10)



class TestDisplacedParity:
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
            wigner_from_density(rho, point)
            - wigner_closed_form(StateSpec(Family.THERMAL_VACUUM, thermal), point)
        ) < 1e-8

    def test_leak_guard(self, monkeypatch):
        # without its own headroom the dense reference must refuse, not truncate
        monkeypatch.setattr(fock_oracle, "_dense_headroom", lambda dim, alpha_sq: 0)
        rho = thermal_density_matrix(0.0, 10)
        with pytest.raises(TruncationError, match="leak"):
            wigner_from_density(rho, PhasePoint(5.0, 0.0))

    def test_dense_reference_pads_for_its_own_point(self):
        # a 10-level vacuum displaced to |alpha|^2 = 12.5 needs levels well past 10
        rho = thermal_density_matrix(0.0, 10)
        point = PhasePoint(5.0, 0.0)
        assert wigner_from_density(rho, point) == pytest.approx(
            math.exp(-2.0 * point.abs2) / math.pi, rel=1e-6
        )

    def test_dense_reference_refuses_above_its_cap(self, monkeypatch):
        def allocation(*args):
            raise AssertionError("the dense reference allocated above its cap")

        monkeypatch.setattr(fock_oracle, "displacement_operator", allocation)
        rho = thermal_density_matrix(30.0, fock_oracle.DENSE_DIM_MAX)
        with pytest.raises(TruncationError, match="cap"):
            wigner_from_density(rho, ORIGIN)

    @pytest.mark.parametrize(
        "family", [Family.THERMAL_VACUUM, Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED]
    )
    def test_dense_reference_holds_the_checker_states(self, family):
        # The benchmark checker reads None from the dense reference as "no oracle
        # value" and then skips its check, so every state it draws must get a
        # value: the origin and nodes with |q|, |p| <= 2, every n <= 5, theta up
        # to 2.  The state is radial, so (2, 2), the largest |alpha|, stands for
        # the other nodes.
        for n in range(6) if family is not Family.THERMAL_VACUUM else (0,):
            for theta in (0.1, 1.0, 2.0):
                state = StateSpec(family, params_from_theta(theta), n=n)
                for point in (ORIGIN, PhasePoint(2.0, 2.0)):
                    rho = build_oracle_state(state, point.abs2)
                    value = wigner_from_density(rho, point)
                    assert abs(value - wigner_closed_form(state, point)) < 1e-8, (n, theta)

    def test_grid_matches_scalar_evaluations(self):
        q = np.linspace(-3.0, 3.0, 7)
        p = np.linspace(-2.5, 2.0, 6)
        states = [
            build_oracle_state(StateSpec(family, params_from_theta(theta), n=n))
            for family, n, theta in [
                (Family.THERMAL_VACUUM, 0, 0.5),
                (Family.PHOTON_SUBTRACTED, 2, 0.5),
                (Family.PHOTON_ADDED, 2, 0.5),
                (Family.THERMAL_NUMBER, 1, 0.3),
            ]
        ]
        states += [thermal_density_matrix(0.3, 55), number_state_matrix(0, 1)]
        for rho in states:
            grid = wigner_grid_from_density(rho, q, p)
            assert grid.shape == (7, 6)
            for i in (0, 2, 5):
                for j in (1, 3, 5):
                    point = PhasePoint(float(q[i]), float(p[j]))
                    assert point.q != 0.0 and point.p != 0.0
                    assert grid[i, j] == pytest.approx(
                        wigner_from_density(rho, point), abs=1e-12
                    )

    def test_grid_refuses_empty_axis(self):
        rho = thermal_density_matrix(0.2, 30)
        with pytest.raises(ValueError, match="non-empty"):
            wigner_grid_from_density(rho, np.array([]), np.zeros(3))
        with pytest.raises(ValueError, match="non-empty"):
            wigner_grid_from_density(rho, np.zeros(3), [])

    @pytest.mark.parametrize("dim", [9, 10])
    def test_quadrature_eig_reproduces_displacement(self, dim):
        mu, vec = quadrature_eig(dim)
        phases = np.diag(1j ** np.arange(dim))
        for r in (0.3, -1.1, 2.5):
            expected = displacement_operator(r / math.sqrt(2.0), dim)
            built = phases @ (vec * np.exp(-1j * r * mu)) @ vec.T @ phases.conj().T
            assert np.max(np.abs(built - expected)) < 1e-12


class TestSeriesGrid:
    @pytest.mark.parametrize("family", list(Family))
    def test_grid_matches_both_references(self, family):
        # every family x n x theta on its verification_axes, against
        # the eigenbasis evaluator at every node and the dense reference at an
        # off-axis node near the corner, wherever the padded basis is <= 400
        compared = 0
        for n in (0, 1, 2, 4, 8, 16) if family is not Family.THERMAL_VACUUM else (0,):
            for theta in (0.1, 0.5, 1.0, 1.5):
                state = StateSpec(family, params_from_theta(theta), n=n)
                try:
                    rho = build_oracle_state(state)
                except TruncationError:
                    assert family is Family.THERMAL_NUMBER
                    continue
                q, p = verification_axes(state)
                alpha_max_sq = 0.5 * (q[-1] ** 2 + p[-1] ** 2)
                if rho.dim + fock_oracle._dense_headroom(rho.dim, alpha_max_sq) > 400:
                    continue
                grid = wigner_grid_from_density(rho, q, p)
                assert np.max(np.abs(grid - eigenbasis_grid(rho, q, p))) < 1e-13, (n, theta)
                node = PhasePoint(float(q[4]), float(p[-7]))
                assert grid[4, -7] == pytest.approx(wigner_from_density(rho, node), abs=1e-12)
                compared += 1
        assert compared >= {Family.THERMAL_VACUUM: 4, Family.THERMAL_NUMBER: 10}.get(family, 19)

    @pytest.mark.parametrize(
        "q, p",
        [
            (np.linspace(-3.0, 3.0, 9), np.linspace(-3.0, 3.0, 9)),
            (np.linspace(-3.0, 3.0, 10), np.linspace(-2.5, 2.5, 8)),
            (np.linspace(-1.0, 3.0, 11), np.linspace(-2.0, 0.7, 6)),
            (np.array([2.0, -0.5, 0.5, -2.0, 0.0]), np.array([-1.0, 1.5])),
            # an eval grid on box 14: |alpha|^2 reaches 196, and the
            # added n = 16 state's series rescales there
            (_axis(-14.0, 14.0, 40), _axis(-14.0, 14.0, 40)),
        ],
    )
    def test_folded_grid_equals_the_full_grid_distinct_radii(self, q, p):
        # the fold onto distinct |q|, |p| hands the series the same sorted
        # radii as np.unique over every node of the product grid
        abs2, inverse = np.unique(0.5 * (q[:, None] ** 2 + p[None, :] ** 2),
                                  return_inverse=True)
        for family, n, theta in [
            (Family.THERMAL_VACUUM, 0, 0.3),
            (Family.PHOTON_SUBTRACTED, 4, 1.2),
            (Family.PHOTON_ADDED, 16, 1.2),
            (Family.THERMAL_NUMBER, 3, 0.3),
        ]:
            rho = build_oracle_state(StateSpec(family, params_from_theta(theta), n=n))
            expected = fock_oracle.wigner_radial_from_density(rho, abs2)[inverse]
            grid = wigner_grid_from_density(rho, q, p)
            assert np.array_equal(grid, expected.reshape(q.size, p.size)), family

    def test_recurrence_matches_mpmath(self):
        # l_k(x) = exp(-x/2) L_k(x) to k = 1e5; at x = 2000, exp(-x/2) underflows,
        # so only the log-scaled seeds give the values of order 1e-2 there
        xs = np.array([0.5, 10.0, 64.0, 400.0, 2000.0])
        with mpmath.workdps(50):
            for k in (0, 1, 7, 100, 1000, 10**4, 10**5):
                unit = np.zeros(k + 1)
                unit[k] = 1.0
                values = fock_oracle._parity_series(unit, xs)
                for x, value in zip(xs, values):
                    x = mpmath.mpf(x)
                    exact = mpmath.exp(-x / 2) * mpmath.laguerre(k, 0, x, maxterms=10**6)
                    assert abs(value - float(exact)) < 1e-13, (k, float(x))

    def test_added_n16_matches_closed_form(self):
        for theta in (0.5, 1.5, 3.0):
            report = verify_state(StateSpec(Family.PHOTON_ADDED, params_from_theta(theta), n=16))
            assert report.passed, report.errors
            assert report.max_abs_err < 1e-12

    def test_formerly_leaking_state_passes_verify(self):
        # the eigenbasis grid refused this state: leak 1.776e-10 at dim 240
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(1.2), n=9)
        report = verify_state(state)
        assert report.tolerances["max_abs_err"] == 1e-8
        assert report.passed, report.errors

    def test_oracle_imports_no_closed_form_code(self):
        # the oracle certifies the closed forms only while it shares no code
        # with them: from the package it imports the state types alone
        imported = {module for module, _ in imported_names(Path(fock_oracle.__file__))}
        assert "numpy" in imported
        package = {name for name in imported if name.split(".")[0] == "thermalwigner"}
        assert package == {"thermalwigner.states"}, package

    def test_closed_form_reference_takes_no_kernel_code(self):
        # the test-side |n> and occupation-form references check the kernels
        # only while they share no code with them: from closed_form they take
        # the error class alone, and otherwise only the states and thermo
        # value types, name by name
        imported = imported_names(Path(__file__).with_name("closed_form_reference.py"))
        package = {pair for pair in imported if pair[0].split(".")[0] == "thermalwigner"}
        assert all(name is not None for _, name in package), package
        beyond_value_types = {(module, name) for module, name in package
                              if module not in ("thermalwigner.states", "thermalwigner.thermo")}
        assert beyond_value_types == {("thermalwigner.closed_form", "DegenerateStateError")}


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

    def test_box_argument_is_ignored(self):
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.7), n=3)
        rho = build_oracle_state(state)
        for alpha_max_sq in (0.0, 8.0, 400.0):
            assert np.array_equal(build_oracle_state(state, alpha_max_sq).populations, rho.populations)

    def test_embed_preserves_entries(self):
        # the number state is the two-mode reduction itself, with no padding
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.3), n=2)
        rho = build_oracle_state(state)
        reduced = thermal_number_reduced(2, 0.3)
        assert rho.dim == fock_oracle.TWO_MODE_DIM
        assert np.array_equal(rho.populations, reduced.populations)
        # the two-mode deficit stands in for the tail
        assert 0.0 < rho.tail == reduced.tail <= TWO_MODE_DEFICIT_TOL

    @pytest.mark.parametrize("family", [Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED])
    def test_tail_bounds_the_mass_cut_off(self, family):
        # sized from the conditioned state itself: the mass a far larger build
        # holds above the cut is below the reported tail, which is below 1e-12
        for n in (0, 1, 4, 16):
            for theta in (0.1, 1.0, 2.0, 3.0):
                n_c = params_from_theta(theta).n_c
                rho = build_oracle_state(StateSpec(family, params_from_theta(theta), n=n))
                top = rho.dim if family is Family.PHOTON_ADDED else rho.dim - n
                parent = thermal_density_matrix(n_c, 2 * rho.dim + 100)
                condition = apply_addition if family is Family.PHOTON_ADDED else apply_subtraction
                full, _ = condition(parent, n)
                cut = float(np.sum(full.populations[top:]))
                # (for n = 0 the bound is the exact geometric tail, up to rounding)
                assert cut <= rho.tail * (1.0 + 1e-12) and rho.tail <= THERMAL_TAIL_TOL, (n, theta)
                assert np.max(np.abs(full.populations[:top] - rho.populations[:top])) < 1e-12
                # the reported bound is not slack by orders of magnitude
                assert rho.tail < 1e3 * max(cut, 1e-300) or n_c < 0.02

    @pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
    def test_thermal_state_is_cut_below_one_ulp(self, theta):
        n_c = params_from_theta(theta).n_c
        rho = build_oracle_state(StateSpec(Family.THERMAL_VACUUM, params_from_theta(theta)))
        ratio = n_c / (n_c + 1.0)
        assert rho.tail == pytest.approx(ratio**rho.dim, rel=1e-9)
        assert ratio**rho.dim <= np.finfo(float).eps < ratio ** (rho.dim - 1)
