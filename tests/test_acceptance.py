"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from closed_form_reference import wigner_number_grid, wigner_photon_subtracted_ncform
from specfun_reference import laguerre_from_hermite
from thermalwigner.analysis import (
    Box,
    Source,
    normalization_of_state,
    sample_grid,
)
from thermalwigner.closed_form import (
    hermite2,
    laguerre,
    wigner_closed_form,
)
from thermalwigner.fock_oracle import (
    apply_addition,
    apply_subtraction,
    min_thermal_dim,
    thermal_density_matrix,
)
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta
from thermalwigner import cli


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def compare_grids(state, box, res):
    closed = sample_grid(state, box, res, res, Source.CLOSED_FORM)
    oracle = sample_grid(state, box, res, res, Source.ORACLE)
    return closed, oracle, float(np.max(np.abs(closed.values - oracle.values)))


def test_criterion_1_thermal_vacuum_matches_oracle():
    start = time.monotonic()
    worst = 0.0
    for theta in (0.2, 0.5, 1.0):
        state = StateSpec(Family.THERMAL_VACUUM, params_from_theta(theta))
        _, _, err = compare_grids(state, Box.symmetric(4.0), 81)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(1, ok, f"thermal vacuum vs oracle, max_abs_err={worst:.3e} (<1e-8), "
                  f"runtime={elapsed:.1f}s (<30s)")


def test_criterion_2_photon_subtracted_matches_oracle_and_is_nonnegative():
    worst = 0.0
    grid_min = math.inf
    for n in (1, 2, 3):
        for theta in (0.2, 0.8):
            state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_theta(theta), n=n)
            closed, _, err = compare_grids(state, Box.symmetric(4.0), 81)
            worst = max(worst, err)
            grid_min = min(grid_min, float(np.min(closed.values)))
    ok = worst < 1e-8 and grid_min >= -1e-12
    report(2, ok, f"photon-subtracted vs oracle, max_abs_err={worst:.3e} (<1e-8), "
                  f"grid_min={grid_min:.3e} (>=-1e-12)")


def test_criterion_3_photon_added_matches_oracle_with_sign_structure():
    worst = 0.0
    sign_ok = True
    crossings_ok = True
    origin = PhasePoint(0.0, 0.0)
    radii = np.linspace(0.0, 5.0, 4001)
    for n in (1, 2, 5):
        for theta in (0.2, 0.8):
            thermal = params_from_theta(theta)
            state = StateSpec(Family.PHOTON_ADDED, thermal, n=n)
            _, _, err = compare_grids(state, Box.symmetric(4.0), 81)
            worst = max(worst, err)
            value = wigner_closed_form(state, origin)
            sign_ok &= math.copysign(1.0, value) == (-1.0) ** n
            radial = np.array([
                wigner_closed_form(state, PhasePoint(math.sqrt(2.0) * r, 0.0)) for r in radii
            ])
            signs = np.sign(radial)
            crossings_ok &= int(np.sum(signs[1:] * signs[:-1] < 0)) == n
    ok = worst < 1e-8 and sign_ok and crossings_ok
    report(3, ok, f"photon-added vs oracle, max_abs_err={worst:.3e} (<1e-8), "
                  f"origin sign=(-1)^n: {sign_ok}, radial crossings=n: {crossings_ok}")


def test_criterion_4_thermal_number_matches_two_mode_oracle():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2):
        for theta in (0.3, 0.5):
            state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(theta), n=n)
            _, _, err = compare_grids(state, Box.symmetric(3.0), 49)
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 300.0
    report(4, ok, f"thermal number vs doubled-space oracle (32 levels/mode), "
                  f"max_abs_err={worst:.3e} (<1e-6), runtime={elapsed:.1f}s (<5min)")


ALL_COMBOS = (
    [(Family.THERMAL_VACUUM, 0, t) for t in (0.2, 0.5, 1.0)]
    + [(Family.PHOTON_SUBTRACTED, n, t) for n in (1, 2, 3) for t in (0.2, 0.8)]
    + [(Family.PHOTON_ADDED, n, t) for n in (1, 2, 5) for t in (0.2, 0.8)]
    + [(Family.THERMAL_NUMBER, n, t) for n in (1, 2) for t in (0.3, 0.5)]
)


def test_criterion_5_normalization_for_every_combination():
    worst = 0.0
    for family, n, theta in ALL_COMBOS:
        state = StateSpec(family, params_from_theta(theta), n=n)
        norm = normalization_of_state(state)
        worst = max(worst, abs(norm - 1.0))
    ok = worst < 1e-4
    report(5, ok, f"normalization over {len(ALL_COMBOS)} combinations, "
                  f"worst |integral-1|={worst:.3e} (<1e-4)")


def test_criterion_6_limits_and_parameterization_equivalence():
    # theta -> 0, n <= 3: added and number families against the number
    # state, subtracted against the theta = 0 vacuum Gaussian
    q = np.linspace(-4.0, 4.0, 41)
    tiny = params_from_theta(1e-6)
    worst_limit = 0.0
    from thermalwigner.closed_form import wigner_closed_grid

    vacuum_zero = wigner_closed_grid(
        StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.0)), q, q)
    for n in (1, 2, 3):
        number_state = wigner_number_grid(n, q, q)
        for family, reference in ((Family.PHOTON_ADDED, number_state),
                                  (Family.THERMAL_NUMBER, number_state),
                                  (Family.PHOTON_SUBTRACTED, vacuum_zero)):
            vals = wigner_closed_grid(StateSpec(family, tiny, n=n), q, q)
            worst_limit = max(worst_limit, float(np.max(np.abs(vals - reference))))

    # n = 0: every family collapses to the thermal Gaussian, near-exactly
    worst_zero = 0.0
    for theta in (0.6, 0.7):
        thermal = params_from_theta(theta)
        vacuum = wigner_closed_grid(StateSpec(Family.THERMAL_VACUUM, thermal), q, q)
        for family in (Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED, Family.THERMAL_NUMBER):
            vals = wigner_closed_grid(StateSpec(family, thermal, n=0), q, q)
            worst_zero = max(worst_zero, float(np.max(np.abs(vals - vacuum))))

    # theta-form vs occupation-form on 100 random samples per seed
    worst_pair = 0.0
    for seed in (12345, 20240817):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            theta = float(rng.uniform(0.05, 1.2))
            n = int(rng.integers(0, 6))
            point = PhasePoint(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
            thermal = params_from_theta(theta)
            worst_pair = max(worst_pair, abs(
                wigner_closed_form(StateSpec(Family.PHOTON_SUBTRACTED, thermal, n=n), point)
                - wigner_photon_subtracted_ncform(point, n, thermal.n_c)
            ))

    ok = worst_limit < 1e-6 and worst_zero < 1e-12 and worst_pair < 1e-12
    report(6, ok, f"limits: theta->0 err={worst_limit:.3e} (<1e-6), "
                  f"n=0 err={worst_zero:.3e} (<1e-12), "
                  f"form-equivalence err={worst_pair:.3e} (<1e-12)")


def test_criterion_7_oracle_traces_reproduce_normalization_constants():
    worst = 0.0
    for theta in (0.2, 0.5, 1.0):
        n_c = math.sinh(theta) ** 2
        rho = thermal_density_matrix(n_c, min_thermal_dim(n_c) + 30)
        for n in (1, 2, 3):
            _, raw_sub = apply_subtraction(rho, n)
            expected_sub = math.factorial(n) * math.sinh(theta) ** (2 * n)
            worst = max(worst, abs(raw_sub - expected_sub) / expected_sub)
            _, raw_add = apply_addition(rho, n)
            expected_add = math.factorial(n) * math.cosh(theta) ** (2 * n)
            worst = max(worst, abs(raw_add - expected_add) / expected_add)
    ok = worst < 1e-8
    report(7, ok, f"subtraction/addition raw traces vs n! sinh^2n / n! cosh^2n, "
                  f"worst rel err={worst:.3e} (<1e-8)")


def test_criterion_8_special_function_identities():
    rng = np.random.default_rng(777)
    worst_bridge = 0.0
    worst_sym = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 9))
        product = float(rng.uniform(-20.0, 20.0))
        mag = float(rng.uniform(0.3, 3.0))
        x = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        y = product / x
        lref = laguerre(n, product)
        bridge = laguerre_from_hermite(n, x, y)
        worst_bridge = max(worst_bridge, abs(bridge - lref) / (1.0 + abs(lref)))

        m = int(rng.integers(0, 9))
        k = int(rng.integers(0, 9))
        u = complex(rng.normal(), rng.normal()) * 2.0
        v = complex(rng.normal(), rng.normal()) * 2.0
        a = hermite2(m, k, u, v)
        b = hermite2(k, m, v, u)
        worst_sym = max(worst_sym, abs(a - b) / (1.0 + abs(a)))
    ok = worst_bridge < 1e-10 and worst_sym < 1e-10
    report(8, ok, f"1000-sample n<=8 suites: bridge rel err={worst_bridge:.3e}, "
                  f"symmetry rel err={worst_sym:.3e} (both <1e-10)")


def test_criterion_9_temperature_damping_with_scan_artifact(tmp_path):
    thetas = np.round(np.arange(0.1, 2.01, 0.1), 10)
    monotone = True
    for family in (Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED):
        for n in (1, 5):
            amplitudes = [
                abs(wigner_closed_form(StateSpec(family, params_from_theta(t), n=n),
                                       PhasePoint(0, 0)))
                for t in thetas
            ]
            monotone &= bool(np.all(np.diff(amplitudes) < 0.0))

    # figure-data artifact through the CLI
    artifacts = []
    for family, n in [("subtracted", 1), ("added", 1), ("added", 5)]:
        out = tmp_path / f"scan_{family}_n{n}.csv"
        code = cli.main([
            "scan-theta", "--family", family, "--n", str(n),
            "--theta-min", "0.1", "--theta-max", "2.0", "--steps", "20",
            "--out", str(out),
        ])
        lines = out.read_text().strip().splitlines()
        artifacts.append(code == 0 and lines[0] == "theta,w0,abs_w0,negativity_volume"
                         and len(lines) == 21)
    ok = monotone and all(artifacts)
    report(9, ok, f"|W(0;theta)| strictly decreasing over theta=0.1..2.0 for "
                  f"subtracted/added at n in {{1,5}}: {monotone}; "
                  f"scan-theta CSV artifacts written: {all(artifacts)}")
