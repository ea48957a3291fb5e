"""Grid sampling, quadrature, negativity, and verification reports."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from thermalwigner import analysis
from thermalwigner.analysis import (
    NORM_GRID_POINTS,
    Box,
    BoxTooSmallError,
    Source,
    _quadrature_self_check,
    default_norm_box,
    limit_suite,
    negativity_of_state,
    negativity_volume,
    normalization_integral,
    normalization_of_state,
    sample_grid,
    scan_theta,
    verify_state,
)
from thermalwigner.closed_form import wigner_number_state
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta


def state(family, theta, n=0):
    return StateSpec(Family(family), params_from_theta(theta), n=n)


class TestQuadrature:
    def test_simpson_self_check(self):
        # exact unit-mass Gaussian, theta = 0.5, [-6, 6]^2, 241 x 241
        assert _quadrature_self_check() < 1e-6

    def test_normalizations(self):
        for spec in (
            state("vacuum", 0.5),
            state("added", 0.2, n=2),
            state("number", 0.5, n=1),
            state("subtracted", 0.8, n=3),
        ):
            assert normalization_of_state(spec) == pytest.approx(1.0, abs=1e-4)

    def test_box_too_small(self):
        spec = state("vacuum", 1.0)
        grid = sample_grid(spec, Box.symmetric(4.0), 41, 41, Source.CLOSED_FORM)
        with pytest.raises(BoxTooSmallError):
            normalization_integral(grid)

    def test_auto_box_covers_requirement(self):
        for theta in (0.0, 0.5, 2.0):
            spec = state("added", theta, n=5)
            box = default_norm_box(spec)
            assert box.min_half_width >= 4.0 * math.sqrt(spec.thermal.cosh_2theta)


class TestSampleGrid:
    def test_vacuum_peak_at_center_node(self):
        grid = sample_grid(state("vacuum", 0.0), Box.symmetric(3.0), 25, 25, Source.CLOSED_FORM)
        assert grid.values[12, 12] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert np.argmax(grid.values) == 12 * 25 + 12

    def test_subtracted_grid_nonnegative(self):
        grid = sample_grid(
            state("subtracted", 0.8, n=1), Box.symmetric(4.0), 81, 81, Source.CLOSED_FORM
        )
        assert np.min(grid.values) >= 0.0

    def test_added_grid_dips_negative_at_origin(self):
        grid = sample_grid(
            state("added", 0.2, n=1), Box.symmetric(4.0), 81, 81, Source.CLOSED_FORM
        )
        assert np.min(grid.values) < 0.0
        assert grid.values[40, 40] < 0.0

    def test_sources_agree(self):
        spec = state("subtracted", 0.5, n=1)
        box = Box.symmetric(3.0)
        closed = sample_grid(spec, box, 21, 21, Source.CLOSED_FORM)
        oracle = sample_grid(spec, box, 21, 21, Source.ORACLE)
        assert np.max(np.abs(closed.values - oracle.values)) < 1e-10

    def test_axis_metadata(self):
        grid = sample_grid(state("vacuum", 0.2), Box(-1.0, 2.0, -3.0, 0.5), 11, 7, Source.CLOSED_FORM)
        assert grid.q_axis[0] == -1.0 and grid.q_axis[-1] == 2.0
        assert grid.p_axis[0] == -3.0 and grid.p_axis[-1] == 0.5
        assert grid.values.shape == (11, 7)

    def test_rectangular_oracle_grid(self):
        spec = state("added", 0.3, n=1)
        box = Box(-2.0, 2.0, -1.0, 3.0)
        closed = sample_grid(spec, box, 11, 7, Source.CLOSED_FORM)
        oracle = sample_grid(spec, box, 11, 7, Source.ORACLE)
        assert oracle.values.shape == (11, 7)
        assert np.max(np.abs(closed.values - oracle.values)) < 1e-10

    def test_grid_validation(self):
        from thermalwigner.analysis import WignerGrid

        spec = state("vacuum", 0.2)
        box = Box.symmetric(2.0)
        with pytest.raises(ValueError, match="shape"):
            WignerGrid(spec, Source.CLOSED_FORM, box, 5, 5, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(spec, Source.CLOSED_FORM, box, 2, 2, np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="nodes"):
            WignerGrid(spec, Source.CLOSED_FORM, box, 1, 5, np.zeros((1, 5)))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Box(1.0, 1.0, -2.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            Box(-math.inf, 1.0, -2.0, 2.0)


class TestNegativity:
    def test_subtracted_has_none(self):
        for n in (1, 2, 4):
            assert negativity_of_state(state("subtracted", 0.6, n=n)) <= 1e-6

    def test_number_state_value_against_radial_quadrature(self):
        # independent 1-D oracle: the n = 1 zero-temperature state in
        # polar coordinates, negative part integrated with adaptive quad
        def radial_negative_mass():
            def integrand(r):
                w = wigner_number_state(PhasePoint(r, 0.0), 1)
                return max(0.0, -w) * 2.0 * math.pi * r

            return quad(integrand, 0.0, 10.0, limit=200)[0]

        oracle = radial_negative_mass()
        assert oracle == pytest.approx(2.0 * math.exp(-0.5) - 1.0, abs=1e-9)
        grid_value = negativity_of_state(state("added", 0.0, n=1))
        assert grid_value == pytest.approx(oracle, abs=5e-4)

    def test_added_negativity_decreases_with_temperature(self):
        thetas = np.arange(0.1, 2.01, 0.1)
        values = [negativity_of_state(state("added", float(t), n=1)) for t in thetas]
        assert np.all(np.diff(values) < 0.0)

    def test_nonnegative(self):
        assert negativity_of_state(state("number", 0.3, n=1)) >= 0.0


class TestVerifyState:
    def test_subtracted_passes(self):
        report = verify_state(state("subtracted", 0.2, n=1))
        assert report.passed
        assert report.max_abs_err < 1e-8
        assert report.norm_integral == pytest.approx(1.0, abs=1e-4)
        assert report.errors == []

    def test_thermal_number_passes(self):
        report = verify_state(state("number", 0.5, n=2))
        assert report.passed
        assert report.max_abs_err < 1e-6
        assert report.nq == 49 and report.np_ == 49

    def test_hot_vacuum_passes(self):
        report = verify_state(state("vacuum", 1.0))
        assert report.passed

    def test_deterministic_reports(self):
        first = verify_state(state("added", 0.3, n=1))
        second = verify_state(state("added", 0.3, n=1))
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_samples_the_norm_box_once(self, monkeypatch):
        calls = []
        original = analysis.sample_grid

        def counting(spec, box, nq, np_, source):
            calls.append((box, nq, np_, Source(source)))
            return original(spec, box, nq, np_, source)

        monkeypatch.setattr(analysis, "sample_grid", counting)
        spec = state("added", 0.3, n=1)
        report = verify_state(spec)
        assert report.passed and report.negativity_volume > 0.0
        norm = (default_norm_box(spec), NORM_GRID_POINTS, NORM_GRID_POINTS, Source.CLOSED_FORM)
        assert calls.count(norm) == 1
        assert report.norm_integral == normalization_of_state(spec)
        assert report.negativity_volume == negativity_of_state(spec)

    def test_collects_errors_without_aborting(self):
        # degenerate subtraction: every stage fails but none aborts the run
        report = verify_state(state("subtracted", 0.0, n=1))
        assert not report.passed
        stages = [error.split(":")[0] for error in report.errors]
        assert stages == ["grid comparison", "normalization", "negativity"]

    def test_tolerance_override(self):
        report = verify_state(state("vacuum", 0.2), max_err_tol=1e-30)
        assert not report.passed


class TestLimitSuite:
    def test_all_pass(self):
        reports = limit_suite()
        for rep in reports:
            assert rep.passed, f"{rep.label}: max_abs_err={rep.max_abs_err:.3e}"

    def test_expected_coverage(self):
        labels = [rep.label for rep in limit_suite()]
        assert sum("n=0" in lab for lab in labels) == 3
        assert sum("number state" in lab for lab in labels) == 6
        assert sum("vacuum Gaussian" in lab for lab in labels) == 3
        assert any("occupation-form" in lab for lab in labels)


class TestScanTheta:
    def test_rows_and_monotonicity(self):
        thetas = np.arange(0.1, 2.01, 0.1)
        rows = scan_theta(Family.PHOTON_ADDED, 1, thetas)
        assert len(rows) == 20
        assert set(rows[0]) == {"theta", "w0", "abs_w0", "negativity_volume"}
        amplitudes = [row["abs_w0"] for row in rows]
        assert np.all(np.diff(amplitudes) < 0.0)

    def test_vacuum_family(self):
        rows = scan_theta(Family.THERMAL_VACUUM, 0, [0.2, 0.4], include_negativity=False)
        assert [set(r) for r in rows] == [{"theta", "w0", "abs_w0"}] * 2
        assert rows[0]["w0"] > rows[1]["w0"]
