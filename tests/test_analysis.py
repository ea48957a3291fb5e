"""Grid sampling, quadrature, negativity, and verification reports."""

import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from closed_form_reference import wigner_number_state
from scipy.integrate import quad, simpson

from thermalwigner import analysis, closed_form, fock_oracle
from thermalwigner.analysis import (
    NORM_GRID_POINTS,
    Box,
    BoxTooSmallError,
    Source,
    _axis,
    _comparison_indices,
    _quadrature_self_check,
    _radial_quadrature,
    _radial_simpson_plan,
    _second_moment_in_widths,
    _simpson2d,
    _unit_simpson_weights,
    default_norm_box,
    negativity_of_state,
    negativity_volume,
    normalization_integral,
    normalization_of_state,
    sample_grid,
    scan_theta,
    verify_state,
)
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import THETA_MAX, params_from_theta


def state(family, theta, n=0):
    return StateSpec(Family(family), params_from_theta(theta), n=n)


def norm_widths(spec):
    """The norm box's radius^2 over cosh 2theta, max(36 + 2n, 6M)."""
    moment = _second_moment_in_widths(spec.family, spec.n, spec.thermal.cosh_2theta)
    return max(36.0 + 2.0 * spec.n, 6.0 * moment)


def norm_plan_u(spec):
    """u = |alpha|^2 sech 2theta at the norm plan's keys, from the box's size in widths."""
    keys, _ = _radial_simpson_plan(NORM_GRID_POINTS)
    return (0.5 * norm_widths(spec) / (NORM_GRID_POINTS - 1) ** 2) * keys


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
        # a norm step builds no box and runs no mass check: its R^2 is at
        # least 36 cosh 2theta (up to the rounding of R), well past the
        # check's 16 cosh 2theta
        for family in Family:
            for n in (0, 1, 4, 8, 16):
                for theta in (0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0):
                    spec = state(family, theta, n)
                    half_width = analysis._norm_step(family, n, theta)[2]
                    assert half_width ** 2 >= 36.0 * spec.thermal.cosh_2theta * (1 - 1e-15)
                    box = default_norm_box(spec)
                    assert box.q_max == half_width
                    assert box.min_half_width >= 4.0 * math.sqrt(spec.thermal.cosh_2theta)

    @pytest.mark.parametrize("nq, np_", [(241, 241), (240, 240), (21, 8), (2, 3)])
    def test_simpson2d_matches_scipy(self, nq, np_):
        q = np.linspace(-1.3, 2.9, nq)
        p = np.linspace(-4.0, 4.0, np_)
        values = np.exp(-(q[:, None] - 0.4) ** 2 - 0.5 * p[None, :] ** 2) * (1.0 + q[:, None] * p)
        reference = simpson(simpson(values, x=p, axis=1), x=q)
        assert _simpson2d(values, q, p) == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_simpson_weights_are_cached_and_read_only(self):
        weights = _unit_simpson_weights(241)
        assert weights is _unit_simpson_weights(241)
        assert not weights.flags.writeable
        assert weights.sum() == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def exact_simpson_weights(n):
        """Composite Simpson weights of n uniform nodes on [0, 1] as exact rationals."""
        h = Fraction(1, n - 1)
        if n == 2:
            return [h / 2, h / 2]
        odd = n - 1 + n % 2
        weights = [h / 3 * (1 if i in (0, odd - 1) else 4 if i % 2 else 2) for i in range(odd)]
        if odd < n:  # the end interval on the last three nodes
            weights[-2] -= h / 12
            weights[-1] += 2 * h / 3
            weights.append(5 * h / 12)
        return weights

    def test_simpson_weights_are_the_exact_rule_rounded(self):
        for n in [*range(2, 401), 1001]:
            exact = self.exact_simpson_weights(n)
            assert sum(exact) == 1
            weights = _unit_simpson_weights(n)
            assert len(weights) == n
            err = max(abs(Fraction(float(w)) - e) for w, e in zip(weights, exact))
            assert err <= 1e-16, n

    def test_simpson_weights_match_scipy(self):
        # scipy is imported here as the reference only: its non-uniform panel
        # arithmetic lands within rounding of the uniform rule
        for n in [*range(2, 401), 1001]:
            reference = simpson(np.eye(n), x=np.linspace(0.0, 1.0, n), axis=0)
            assert np.max(np.abs(_unit_simpson_weights(n) - reference)) <= 2e-16, n

    def test_self_check_compares_the_two_contractions(self, monkeypatch):
        # a radial plan off by 1e-13 still integrates to 1 within 1e-6,
        # but no longer agrees with the materialized grid within 1e-14
        original = analysis._radial_quadrature

        def skewed(half_width, n):
            abs2, weights = original(half_width, n)
            return abs2, weights * (1.0 + 1e-13)

        monkeypatch.setattr(analysis, "_radial_quadrature", skewed)
        with pytest.raises(RuntimeError, match="disagree"):
            _quadrature_self_check.__wrapped__()


class TestRadialPlan:
    @pytest.mark.parametrize("n", [2, 81, 240, 241])
    def test_plan_invariants(self, n):
        keys, weights = _radial_simpson_plan(n)
        assert _radial_simpson_plan(n) is _radial_simpson_plan(n)
        assert not keys.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(1.0, rel=1e-15)
        d = 2 * np.arange(n) - (n - 1)
        index = np.searchsorted(keys, d[:, None] ** 2 + d[None, :] ** 2)
        for half_width in (3.0, 6.0, 7.453247805711868, 333.3):
            abs2, _ = _radial_quadrature(half_width, n)
            q = _axis(-half_width, half_width, n)
            expected = 0.5 * (q[:, None] ** 2 + q[None, :] ** 2)
            # axis nodes carry up to one ulp of the half-width, so the error
            # is counted in ulps of the grid's largest |alpha|^2
            assert np.max(np.abs(abs2[index] - expected)) <= 4 * np.spacing(expected.max())

    def test_241_nodes_have_5251_distinct_radii(self):
        keys, _ = _radial_simpson_plan(241)
        assert keys.size == 5251 and np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("source", list(Source))
    @pytest.mark.parametrize("family", list(Family))
    def test_plan_matches_the_materialized_grid(self, family, source):
        # the plan may differ from integrating the materialized grid only by
        # rounding: its radii are within a few ulps of the grid's, and every
        # closed kernel, the number kernel's Laguerre series included, is
        # well conditioned in |alpha|^2.  At large theta the oracle
        # series carries its own rounding error, which its grid integral shows
        # against the closed form's; the plan may move it by no more.
        checked = 0
        for n in (0,) if family is Family.THERMAL_VACUUM else (0, 1, 2, 4, 8, 12, 16):
            for theta in (0.1, 0.5, 1.0, 1.5, 2.0, 3.0):
                spec = StateSpec(family, params_from_theta(theta), n=n)
                try:
                    grid = sample_grid(spec, default_norm_box(spec), NORM_GRID_POINTS,
                                       NORM_GRID_POINTS, source)
                except fock_oracle.TruncationError:
                    continue  # the oracle does not hold this state
                tol = 2e-15
                norm_tol, neg_tol = tol, tol
                if source is Source.ORACLE:
                    closed = sample_grid(spec, grid.box, NORM_GRID_POINTS, NORM_GRID_POINTS,
                                         Source.CLOSED_FORM)
                    norm_tol = max(tol, abs(normalization_integral(grid)
                                            - normalization_integral(closed)))
                    neg_tol = max(tol, abs(negativity_volume(grid) - negativity_volume(closed)))
                case = (n, theta)
                assert abs(normalization_of_state(spec, source)
                           - normalization_integral(grid)) <= norm_tol, case
                assert abs(negativity_of_state(spec, source)
                           - negativity_volume(grid)) <= neg_tol, case
                checked += 1
        assert checked >= 3


class TestNormBox:
    @pytest.mark.parametrize("family", ["vacuum", "subtracted", "added", "number"])
    def test_second_moment_in_widths_matches_oracle(self, family):
        # M = (2 <a^dag a> + 1) sech 2theta, with <a^dag a> from the oracle
        checked = 0
        for n in (0, 1, 3, 8):
            for theta in (0.1, 0.4, 0.8):
                spec = state(family, theta, n=0 if family == "vacuum" else n)
                try:
                    rho = fock_oracle.build_oracle_state(spec, 0.0)
                except fock_oracle.TruncationError:
                    continue  # the oracle does not hold this state
                expected = (2.0 * rho.mean_photons() + 1.0) / spec.thermal.cosh_2theta
                moment = _second_moment_in_widths(spec.family, spec.n, spec.thermal.cosh_2theta)
                assert moment == pytest.approx(
                    expected, rel=1e-10, abs=1e-12
                ), (family, n, theta)
                checked += 1
        assert checked >= 6

    def test_box_never_shrinks(self):
        for family in ("vacuum", "subtracted", "added", "number"):
            for n in (0, 4, 16):
                for theta in (0.0, 0.7, 2.0):
                    if family == "number" and theta == 0.0:
                        continue
                    spec = state(family, theta, n=n)
                    old = math.sqrt((36.0 + 2.0 * spec.n) * spec.thermal.cosh_2theta)
                    assert default_norm_box(spec).q_max >= old

    @pytest.mark.parametrize("family, n", [("vacuum", 0), ("number", 0), ("number", 3),
                                           ("number", 16)])
    def test_norm_plan_u_is_the_same_at_every_temperature(self, monkeypatch, family, n):
        # the box is sized in thermal widths, so the vacuum and number states
        # hand their kernel bitwise the same u = |alpha|^2 sech 2theta
        seen = []
        prepare = closed_form.prepare_gaussian

        def recording(family_, n_, u):
            seen.append(np.array(u))
            return prepare(family_, n_, u)

        _quadrature_self_check()  # cached: its own closed-form pass runs before the count
        monkeypatch.setattr(closed_form, "prepare_gaussian", recording)
        thetas = (0.05, 0.3, 1.0, 2.2, 5.0)
        for theta in thetas:
            normalization_of_state(state(family, theta, n=n))
        assert len(seen) == len(thetas)
        assert all(np.array_equal(u, seen[0]) for u in seen[1:])
        assert np.array_equal(seen[0], norm_plan_u(state(family, 1.0, n=n)))

    def test_box_is_sized_in_thermal_widths(self):
        for family, n in [("vacuum", 0), ("subtracted", 16), ("added", 16), ("number", 8)]:
            for theta in (0.1, 1.0, 3.0):
                spec = state(family, theta, n=n)
                assert default_norm_box(spec).q_max == math.sqrt(
                    spec.thermal.cosh_2theta * norm_widths(spec))

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_broad_number_states_normalize(self, n):
        for theta in (0.7, 1.0, 1.325, 1.5):
            spec = state("number", theta, n=n)
            assert abs(normalization_of_state(spec) - 1.0) <= 1e-6, theta


class TestAxis:
    @pytest.mark.parametrize("n", [2, 9, 49, 240, 241])
    @pytest.mark.parametrize("half_width", [3.0, 4.0, 7.453247805711868, 1e300])
    def test_symmetric_axis_is_exactly_mirrored(self, n, half_width):
        axis = _axis(-half_width, half_width, n)
        assert np.array_equal(axis, -axis[::-1])
        assert axis[0] == -half_width and axis[-1] == half_width
        if n % 2:
            assert axis[n // 2] == 0.0
        assert np.all(np.isfinite(axis))
        # each node moves at most one ulp of the half-width from linspace
        shift = np.abs(axis - np.linspace(-half_width, half_width, n))
        assert np.max(shift) <= np.spacing(half_width)

    def test_asymmetric_axis_is_linspace(self):
        assert np.array_equal(_axis(-1.0, 2.0, 11), np.linspace(-1.0, 2.0, 11))

    def test_grid_axes_are_the_sampled_axes(self):
        box = Box.symmetric(7.1)
        grid = sample_grid(state("added", 0.4, n=1), box, 31, 30, Source.CLOSED_FORM)
        assert np.array_equal(grid.q_axis, _axis(-7.1, 7.1, 31))
        assert np.array_equal(grid.p_axis, _axis(-7.1, 7.1, 30))


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
        with pytest.raises(ValueError, match="2-D"):
            WignerGrid(spec, Source.CLOSED_FORM, box, np.zeros(5))
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(spec, Source.CLOSED_FORM, box, np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="nodes"):
            WignerGrid(spec, Source.CLOSED_FORM, box, np.zeros((1, 5)))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Box(1.0, 1.0, -2.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            Box(-math.inf, 1.0, -2.0, 2.0)


class TestNegativity:
    def test_subtracted_has_none(self):
        for n in (1, 2, 4):
            assert negativity_of_state(state("subtracted", 0.6, n=n)) <= 1e-6

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_number_state_value_against_radial_quadrature(self, theta):
        # added n = 1 has an elementary negativity,
        # N = 2 / (lam c) (1/b - (1 - e^-b) / b^2), lam = 4 cosh^2 theta,
        # c = cosh 2theta, b = 2 / lam: 2 e^(-1/2) - 1 at theta = 0, |1>
        lam, c = 4.0 * math.cosh(theta) ** 2, math.cosh(2.0 * theta)
        b = 2.0 / lam
        exact = 2.0 / (lam * c) * (1.0 / b + math.expm1(-b) / b**2)
        grid_value = negativity_of_state(state("added", theta, n=1))
        if theta == 0.0:
            # independent 1-D oracle: |1> in polar coordinates, negative
            # part integrated with adaptive quad
            def integrand(r):
                w = wigner_number_state(PhasePoint(r, 0.0), 1)
                return max(0.0, -w) * 2.0 * math.pi * r

            oracle = quad(integrand, 0.0, 10.0, limit=200)[0]
            assert oracle == pytest.approx(2.0 * math.exp(-0.5) - 1.0, abs=1e-9)
            assert exact == pytest.approx(oracle, abs=1e-9)
            assert grid_value == pytest.approx(oracle, abs=5e-4)
        # the 241^2 Simpson sum has a kink error at the zero of W, which
        # ROADMAP item 2 removes; measured 2.7e-4 to 8.0e-4 relative here
        assert grid_value == pytest.approx(exact, rel=1e-3)

    def test_added_negativity_decreases_with_temperature(self):
        thetas = np.arange(0.1, 2.01, 0.1)
        values = [negativity_of_state(state("added", float(t), n=1)) for t in thetas]
        assert np.all(np.diff(values) < 0.0)

    def test_nonnegative(self):
        assert negativity_of_state(state("number", 0.3, n=1)) >= 0.0


class TestSampleGridMemoryGuard:
    def test_a_grid_within_physical_memory_runs(self, monkeypatch):
        monkeypatch.setattr(analysis, "_physical_memory_bytes",
                            lambda: 21 * 21 * analysis._SAMPLE_GRID_BYTES_PER_NODE)
        grid = sample_grid(state("vacuum", 0.3), Box.symmetric(4.0), 21, 21, Source.CLOSED_FORM)
        assert grid.values.shape == (21, 21)

    def test_no_check_where_sysconf_cannot_tell(self, monkeypatch):
        def unavailable(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(analysis.os, "sysconf", unavailable)
        assert analysis._physical_memory_bytes() is None
        grid = sample_grid(state("vacuum", 0.3), Box.symmetric(4.0), 5, 5, Source.CLOSED_FORM)
        assert grid.values.shape == (5, 5)

    def test_physical_memory_is_read_from_sysconf(self):
        if not hasattr(analysis.os, "sysconf"):
            pytest.skip("os.sysconf is unavailable")
        assert analysis._physical_memory_bytes() > 0


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
        assert report.nq == 81 and report.np_ == 81

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
        spec = state("added", 0.3, n=1)
        box = default_norm_box(spec)
        norm_abs2, _ = _radial_quadrature(box.q_max, NORM_GRID_POINTS)
        norm_u = norm_plan_u(spec)
        compared_abs2 = norm_abs2[_radial_simpson_plan(NORM_GRID_POINTS)[0] % 36 == 0]
        radial_calls = []
        oracle_calls = []
        grid_calls = []
        prepare = closed_form.prepare_gaussian
        oracle_radial = fock_oracle.wigner_radial_from_density

        def counting_radial(family_, n_, u):
            radial_calls.append(np.array_equal(u, norm_u))
            return prepare(family_, n_, u)

        def counting_oracle(rho, abs2):
            oracle_calls.append(np.array_equal(abs2, compared_abs2))
            return oracle_radial(rho, abs2)

        _quadrature_self_check()  # cached: its own closed-form pass runs before the count
        monkeypatch.setattr(closed_form, "prepare_gaussian", counting_radial)
        monkeypatch.setattr(fock_oracle, "wigner_radial_from_density", counting_oracle)
        monkeypatch.setattr(analysis, "sample_grid", lambda *args: grid_calls.append(args))
        report = verify_state(spec)
        assert report.passed and report.negativity_volume > 0.0
        # one closed-form evaluation at the norm plan's u serves both integrals
        # and the comparison; the oracle runs once, on the comparison radii
        assert radial_calls == [True]
        assert oracle_calls == [True]
        assert grid_calls == []
        assert report.box == box and report.nq == report.np_ == 81
        assert report.norm_integral == normalization_of_state(spec)
        assert report.negativity_volume == negativity_of_state(spec)

    def test_comparison_indices_are_cached_and_read_only(self):
        indices = _comparison_indices()
        assert indices is _comparison_indices() and not indices.flags.writeable
        keys = _radial_simpson_plan(NORM_GRID_POINTS)[0]
        assert np.array_equal(indices, np.flatnonzero(keys % 36 == 0))
        assert indices.size == 687

    def test_compares_every_third_node_of_the_norm_grid(self, monkeypatch):
        # the comparison radii are those of the 81 x 81 grid on the norm box:
        # the norm plan's keys that are 9 times a key of the 81-node plan
        spec = state("subtracted", 1.2, n=4)
        half_width = default_norm_box(spec).q_max
        norm_keys = _radial_simpson_plan(NORM_GRID_POINTS)[0]
        norm_abs2, _ = _radial_quadrature(half_width, NORM_GRID_POINTS)
        sub_keys = 9 * _radial_simpson_plan(81)[0]
        seen = []
        oracle_radial = fock_oracle.wigner_radial_from_density

        def recording_oracle(rho, abs2):
            seen.append(np.array(abs2))
            return oracle_radial(rho, abs2)

        monkeypatch.setattr(fock_oracle, "wigner_radial_from_density", recording_oracle)
        assert verify_state(spec).passed
        (compared,) = seen
        assert compared.size == sub_keys.size == 687
        assert np.array_equal(compared, norm_abs2[np.isin(norm_keys, sub_keys)])
        # the same radii as the 81-node plan on that box, to rounding
        sub_abs2, _ = _radial_quadrature(half_width, 81)
        assert np.allclose(compared, sub_abs2, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("theta", [1.5, 3.0])
    @pytest.mark.parametrize("family", ["added", "subtracted"])
    def test_a_zero_oracle_fails(self, monkeypatch, family, theta):
        # a broad state's mass lies far outside a fixed small box; on its
        # own norm box a wrong route cannot hide below the tolerance
        monkeypatch.setattr(fock_oracle, "wigner_radial_from_density",
                            lambda rho, abs2: np.zeros(np.shape(abs2)))
        report = verify_state(state(family, theta, n=16))
        assert not report.passed
        assert report.errors == []
        assert report.max_abs_err > 1e3 * report.tolerances["max_abs_err"]

    def test_collects_errors_without_aborting(self):
        # degenerate subtraction: every stage fails but none aborts the run
        report = verify_state(state("subtracted", 0.0, n=1))
        assert not report.passed
        stages = [error.split(":")[0] for error in report.errors]
        assert stages == ["grid comparison", "normalization", "negativity"]

    def test_tolerance_override(self):
        report = verify_state(state("vacuum", 0.2), max_err_tol=1e-30)
        assert not report.passed

    @pytest.mark.parametrize("family, n", [("vacuum", 0), ("subtracted", 3), ("added", 3)])
    def test_details_carry_oracle_provenance(self, family, n):
        spec = state(family, 0.8, n=n)
        report = verify_state(spec)
        rho = fock_oracle.build_oracle_state(spec)
        assert set(report.details) == {"oracle_dim", "oracle_tail", "max_abs_w", "max_err_abs2"}
        assert (report.details["oracle_dim"], report.details["oracle_tail"]) == (rho.dim, rho.tail)
        assert 0.0 < report.details["oracle_tail"] <= np.finfo(float).eps
        # the oracle's own error, 2 tail / pi, is far inside the comparison tolerance
        assert report.passed and 2.0 * rho.tail / math.pi < report.tolerances["max_abs_err"]
        assert report.to_dict()["details"] == report.details

    def test_details_say_where_the_comparison_was_decided(self):
        # the closed form is compared at the norm plan's u, the oracle at the
        # norm box's |alpha|^2 of the same nodes
        spec = state("added", 0.4, n=2)
        abs2, _ = _radial_quadrature(default_norm_box(spec).q_max, NORM_GRID_POINTS)
        is_compared = _radial_simpson_plan(NORM_GRID_POINTS)[0] % 36 == 0
        compared = abs2[is_compared]
        at = closed_form.prepare_gaussian(spec.family, spec.n, norm_plan_u(spec)[is_compared])
        closed = at(spec.thermal.theta)
        report = verify_state(spec)
        assert report.details["max_abs_w"] == np.max(np.abs(closed))
        worst = report.details["max_err_abs2"]
        assert worst in compared
        rho = fock_oracle.build_oracle_state(spec)
        oracle = fock_oracle.wigner_radial_from_density(rho, compared)
        assert abs(closed - oracle)[compared == worst][0] == report.max_abs_err

    def test_number_details_carry_the_two_mode_deficit(self):
        report = verify_state(state("number", 0.5, n=2))
        assert report.details["oracle_dim"] == fock_oracle.TWO_MODE_DIM
        assert 0.0 < report.details["oracle_tail"] <= fock_oracle.TWO_MODE_DEFICIT_TOL

    @pytest.mark.parametrize("n", [0, 1, 4, 16])
    def test_number_at_zero_theta_passes(self, n):
        # S(0) = 1: both routes build |n>, and their negativity volumes agree
        # to the bound the console smoke run holds the added family to
        spec = state("number", 0.0, n=n)
        report = verify_state(spec)
        assert report.passed and report.errors == []
        assert report.max_abs_err <= 1e-14
        oracle = negativity_of_state(spec, Source.ORACLE)
        assert abs(report.negativity_volume - oracle) <= 1e-12

    def test_refused_oracle_leaves_details_empty(self):
        report = verify_state(state("number", 0.5, n=7))
        assert not report.passed and report.details == {}


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

    def test_norm_plan_starts_at_the_origin(self):
        # scan_theta reads W(0) off the norm-grid pass: NORM_GRID_POINTS is
        # odd, so the plan's first key is the centre node, radius exactly 0
        assert NORM_GRID_POINTS % 2 == 1
        assert _radial_simpson_plan(NORM_GRID_POINTS)[0][0] == 0

    @pytest.mark.parametrize("n", [0, 1, 4, 8, 16])
    @pytest.mark.parametrize("family", list(Family))
    def test_origin_from_the_norm_pass_is_the_point_value(self, family, n):
        thetas = [0.1, 1.0, 2.0]
        with_neg = scan_theta(family, n, thetas)
        without = scan_theta(family, n, thetas, include_negativity=False)
        origin = PhasePoint(0.0, 0.0)
        for theta, row, bare in zip(thetas, with_neg, without):
            spec = state(family, theta, n)
            assert row["w0"] == bare["w0"] == closed_form.wigner_closed_form(spec, origin)
            assert row["abs_w0"] == bare["abs_w0"]
            assert row["negativity_volume"] == negativity_of_state(spec)

    @pytest.mark.parametrize("family, n", [("vacuum", 0), ("subtracted", 3), ("added", 3),
                                           ("number", 16)])
    def test_scan_without_negativity_prepares_once(self, monkeypatch, family, n):
        # W(0) is the closed form at radius 0 for every theta, so a 20-step
        # scan is one block: one kernel prepared at u = 0 and called once,
        # with the 20 temperatures as a column
        prepared, called = [], []
        prepare = closed_form.prepare_gaussian

        def recording(family_, n_, u):
            prepared.append(np.array(u))
            at = prepare(family_, n_, u)

            def values(theta):
                called.append(np.array(theta))
                return at(theta)
            return values

        monkeypatch.setattr(closed_form, "prepare_gaussian", recording)
        thetas = np.linspace(0.1, 2.0, 20)
        rows = scan_theta(Family(family), n, thetas, include_negativity=False)
        assert len(prepared) == 1 and prepared[0].shape == (1, 1) and prepared[0][0, 0] == 0.0
        assert len(called) == 1 and np.array_equal(called[0], thetas[:, None])
        assert [row["theta"] for row in rows] == thetas.tolist()

    # the CLI's default steps, and a wide scan; together they cross every
    # change of the norm box with theta (added n >= 4, subtracted n >= 8)
    SCAN_GRIDS = (np.linspace(0.1, 2.0, 20), np.linspace(0.01, 5.0, 37))

    @pytest.mark.parametrize("n", [*range(9), 12, 16])
    @pytest.mark.parametrize("family", list(Family))
    def test_scan_rows_are_bitwise_the_one_state_values(self, family, n):
        # a scan prepares u and exp(-2u) once per box size; every row must
        # still be the one-state pass at its theta, bit for bit
        origin = PhasePoint(0.0, 0.0)
        for thetas in self.SCAN_GRIDS:
            rows = scan_theta(family, n, thetas)
            bare = scan_theta(family, n, thetas, include_negativity=False)
            assert len(rows) == len(bare) == thetas.size
            for theta, row, bare_row in zip(thetas, rows, bare):
                spec = state(family, theta, n)
                _, values, _, negativity = analysis._norm_pass(spec, Source.CLOSED_FORM)
                w0 = float(values[0])
                point = closed_form.wigner_closed_form(spec, origin)
                assert row == {"theta": float(theta), "w0": w0, "abs_w0": abs(w0),
                               "negativity_volume": negativity}
                assert bare_row == {"theta": float(theta), "w0": point, "abs_w0": abs(point)}
                assert w0 == point

    @pytest.mark.parametrize("family, n, boxes", [
        ("added", 3, 1), ("added", 4, 6), ("added", 5, 9), ("added", 6, 13), ("added", 7, 19),
        ("added", 8, 20), ("subtracted", 7, 1), ("subtracted", 8, 2), ("number", 8, 1),
        ("vacuum", 0, 1),
    ])
    def test_box_changes_over_the_default_scan(self, family, n, boxes):
        # the norm box, and so u, changes with theta for the broad conditioned
        # states: each step's row of u in a scan block must be its own norm
        # box's u, up to the block's prefix, and a row shared by a block
        # must be every one of its steps' u
        thetas = self.SCAN_GRIDS[0]
        # in theta order: along a scan the box size is monotonic in theta
        widths = list(dict.fromkeys(norm_widths(state(family, t, n)) for t in thetas))
        assert len(widths) == boxes
        calls = []
        prepare = closed_form.prepare_gaussian

        def recording(family_, n_, u):
            at = prepare(family_, n_, u)

            def values(theta):
                calls.append((np.array(u), np.ravel(theta)))
                return at(theta)
            return values

        _quadrature_self_check()  # cached: its own closed-form pass runs before the count
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(closed_form, "prepare_gaussian", recording)
            scan_theta(Family(family), n, thetas)
        assert np.array_equal(np.concatenate([block for _, block in calls]), thetas)
        for u, block in calls:
            assert u.shape[0] in (1, block.size)
            for row, theta in zip(np.broadcast_to(u, (block.size, u.shape[1])), block):
                assert np.array_equal(row, norm_plan_u(state(family, theta, n))[:u.shape[1]])

    @pytest.mark.parametrize("family, n, thetas", [
        (Family.THERMAL_NUMBER, 3, [0.5, THETA_MAX, THETA_MAX + 0.5]),
        (Family.PHOTON_SUBTRACTED, 2, [0.5, 0.0]),
        (Family.PHOTON_ADDED, 2, [0.5, THETA_MAX, THETA_MAX + 0.5]),
        (Family.THERMAL_VACUUM, 0, [0.5, math.nan]),
    ])
    def test_a_refused_step_raises_as_the_one_state_call(self, family, n, thetas):
        # the scan refuses the first bad step with the one-state call's error
        with pytest.raises(Exception) as one_state:
            analysis._norm_pass(StateSpec(family, params_from_theta(thetas[-1]), n=n),
                                Source.CLOSED_FORM)
        for include_negativity in (True, False):
            with pytest.raises(type(one_state.value)) as scanned:
                scan_theta(family, n, thetas, include_negativity=include_negativity)
            assert type(scanned.value) is type(one_state.value)
            assert str(scanned.value) == str(one_state.value)

    @pytest.mark.parametrize("family", list(Family))
    def test_an_integral_float_n_scans_as_its_int(self, family):
        # the kernels take n as the state checked it, an int
        n = 0 if family is Family.THERMAL_VACUUM else 3
        for include_negativity in (True, False):
            assert scan_theta(family, float(n), [0.3, 1.1], include_negativity) == \
                scan_theta(family, n, [0.3, 1.1], include_negativity)

    def test_a_degenerate_step_before_an_invalid_one_is_refused_first(self):
        # the steps are validated in order: theta = 0 annihilates the vacuum
        # before theta = 6 is refused as out of range, in a block or not
        for include_negativity in (True, False):
            with pytest.raises(closed_form.DegenerateStateError):
                scan_theta(Family.PHOTON_SUBTRACTED, 2, [0.5, 0.0, 6.0],
                           include_negativity=include_negativity)

    def test_non_finite_values_are_refused_at_their_step(self, monkeypatch):
        # the scan checks each block it evaluates; the poisoned radius is one
        # that the theta > 1 step reads, inside its prefix below the bound.
        # The one-state pass reads the normalization sum first: every plan
        # weight is positive, so a NaN or infinity makes that sum non-finite
        keys, weights = _radial_simpson_plan(NORM_GRID_POINTS)
        assert np.all(weights > 0.0)
        spec = state("added", 1.5, n=1)
        scale = analysis._norm_step(spec.family, spec.n, spec.thermal.theta)[1]
        assert keys[17] <= closed_form.negative_bound(Family.PHOTON_ADDED, 1, 1.5) / scale
        prepare = closed_form.prepare_gaussian
        for bad in (math.nan, math.inf, -math.inf):
            def poisoned(family_, n_, u, bad=bad):
                at = prepare(family_, n_, u)

                def values(theta):
                    out = at(theta)
                    if np.ndim(theta) == 0:
                        if theta > 1.0:
                            out[17] = bad
                    else:
                        out[np.ravel(theta) > 1.0, 17] = bad
                    return out
                return values

            monkeypatch.setattr(closed_form, "prepare_gaussian", poisoned)
            assert len(scan_theta(Family.PHOTON_ADDED, 1, [0.5, 1.0])) == 2
            with pytest.raises(ValueError, match="grid values must be finite"):
                scan_theta(Family.PHOTON_ADDED, 1, [0.5, 1.5])
            with pytest.raises(ValueError, match="grid values must be finite"):
                negativity_of_state(spec)

    @pytest.mark.parametrize("family, n", [("added", 2), ("added", 8), ("added", 16),
                                           ("number", 4), ("number", 16)])
    def test_a_scan_of_many_blocks_is_the_one_state_pass(self, monkeypatch, family, n):
        # a long scan takes several blocks; its rows are still the one-state
        # pass at their theta, bit for bit, also across the jump in theta,
        # where a block's prefix is far shorter than the block's before it.
        # A number scan's u is theta-free: each prepared kernel holds one row
        # of u, up to its bound's prefix, or the whole plan for a block with a
        # step that fails the sign test, and it serves every block that reads it
        thetas = np.concatenate([np.linspace(0.05, 0.5, 60), np.linspace(3.0, 5.0, 60)])
        prepared, called = [], []
        prepare = closed_form.prepare_gaussian

        def recording(family_, n_, u):
            prepared.append(np.shape(u))
            at = prepare(family_, n_, u)

            def values(theta):
                called.append((np.shape(u), np.ravel(theta)))
                return at(theta)
            return values

        _quadrature_self_check()  # cached: its own closed-form pass runs before the count
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(closed_form, "prepare_gaussian", recording)
            rows = scan_theta(Family(family), n, thetas)
        assert sum(block.size for _, block in called) == thetas.size
        assert max(block.size for _, block in called) < thetas.size
        if family == "number":
            keys = _radial_simpson_plan(NORM_GRID_POINTS)[0]
            scale = analysis._norm_step(Family.THERMAL_NUMBER, n, 1.0)[1]
            for shape, block in called:
                bounds = closed_form.negative_bound(Family.THERMAL_NUMBER, n, block)
                count = np.searchsorted(keys, bounds.max() / scale, side="right")
                assert shape == (1, count), (shape, count)
            shapes = [shape for shape, _ in called]
            assert len(prepared) == 1 + sum(a != b for a, b in zip(shapes, shapes[1:]))
        for theta, row in zip(thetas, rows):
            _, values, _, negativity = analysis._norm_pass(state(family, theta, n),
                                                           Source.CLOSED_FORM)
            w0 = float(values[0])
            assert row == {"theta": float(theta), "w0": w0, "abs_w0": abs(w0),
                           "negativity_volume": negativity}

    def test_no_value_beyond_the_negativity_bound_is_negative(self):
        # the scan reads each step only up to its family's bound; beyond it
        # every closed-form value must have its sign bit clear, so that
        # min(W, 0) there is +0.0 bit for bit.  The photon-added bound lies
        # beyond the largest zero of L_n (Gauss-Laguerre nodes) at every
        # theta, and a finite thermal number bound beyond that of L_2n; for
        # n = 0, L_0 = 1 has no zeros and the bound is 0.  At theta = 0 the
        # number state is |n>, whose outer coefficients are rounding: its
        # bound is infinite.  Both bounds are 1e-3 past the zero, so the
        # sign bits are checked on a fine grid of temperatures too
        thetas = [*np.concatenate(self.SCAN_GRIDS), 5.0, *np.linspace(0.0, 5.0, 201)]
        for theta in thetas:
            assert closed_form.negative_bound(Family.PHOTON_ADDED, 0, theta) == 0.0
        for n in range(1, 17):
            largest = np.polynomial.laguerre.laggauss(n)[0].max()
            largest_2n = np.polynomial.laguerre.laggauss(2 * n)[0].max()
            assert closed_form.negative_bound(Family.THERMAL_NUMBER, n, 0.0) == math.inf
            for theta in thetas:
                bound = closed_form.negative_bound(Family.PHOTON_ADDED, n, theta)
                assert largest / (4.0 * math.cosh(theta) ** 2) < bound, (n, theta)
                bound = closed_form.negative_bound(Family.THERMAL_NUMBER, n, theta)
                assert largest_2n / 4.0 < bound, (n, theta)
        keys, _ = _radial_simpson_plan(NORM_GRID_POINTS)
        checked = 0
        for family in Family:
            for n in [0] if family is Family.THERMAL_VACUUM else [*range(9), 12, 16]:
                for theta in thetas:
                    if family is Family.PHOTON_SUBTRACTED and n > 0 and theta == 0.0:
                        continue  # the null state: no Wigner function exists
                    spec = state(family, theta, n)
                    _, values, _, _ = analysis._norm_pass(spec, Source.CLOSED_FORM)
                    scale = analysis._norm_step(spec.family, spec.n, spec.thermal.theta)[1]
                    beyond = values[keys > closed_form.negative_bound(family, n, theta) / scale]
                    assert not np.signbit(beyond).any(), (family, n, theta)
                    assert not np.signbit(np.minimum(beyond, 0.0)).any()
                    checked += beyond.size
        assert checked > 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts the process's minor page faults on Linux")
    def test_library_scan_reuses_its_memory(self):
        # a repeated number scan takes its kernel's work arrays from memory
        # the process already holds, without the command-line front end
        code = textwrap.dedent("""
            import resource
            import sys

            import numpy as np

            from thermalwigner import analysis
            from thermalwigner.states import Family

            thetas = np.linspace(0.1, 2.0, 20)
            analysis.scan_theta(Family.THERMAL_NUMBER, 6, thetas)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            analysis.scan_theta(Family.THERMAL_NUMBER, 6, thetas)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print("thermalwigner.cli" in sys.modules)
        """)
        src = str(Path(analysis.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                    filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert result.returncode == 0, result.stderr
        faults, cli_loaded = result.stdout.split()
        assert cli_loaded == "False"
        assert int(faults) < 200, faults
