"""Phase-space post-processing and closed-form vs oracle verification.

Grids are rectangular (q, p) samplings of one state's Wigner function,
taken either from the closed forms or from the Fock oracle; downstream
consumers (quadrature, negativity, comparison reports) treat the two
sources interchangeably.

Quadrature is composite Simpson on the uniform grid.  Before it is
trusted, a cached self-check integrates the exact thermal Gaussian at
theta = 0.5 on [-6, 6]^2 with 241 x 241 nodes and insists the result is
within 1e-6 of 1.  Normalization and negativity integrals also refuse
boxes whose half-width is under 4 * sqrt(cosh 2 theta), the radius that
captures all but ~1e-7 of the Gaussian envelope mass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from . import closed_form, fock_oracle
from .states import Family, PhasePoint, StateSpec
from .thermo import params_from_theta


class BoxTooSmallError(ValueError):
    """The integration box does not capture enough of the state's mass."""


class Source(str, enum.Enum):
    """Which evaluator produced a grid."""

    CLOSED_FORM = "closed-form"
    ORACLE = "oracle"


@dataclass(frozen=True)
class Box:
    """Rectangular phase-space window [q_min, q_max] x [p_min, p_max]."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float

    def __post_init__(self):
        vals = (self.q_min, self.q_max, self.p_min, self.p_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box bounds must be finite, got {vals}")
        if self.q_min >= self.q_max or self.p_min >= self.p_max:
            raise ValueError(f"degenerate box {vals}")

    @classmethod
    def symmetric(cls, half_width: float) -> "Box":
        half_width = float(half_width)
        return cls(-half_width, half_width, -half_width, half_width)

    @property
    def alpha_max_sq(self) -> float:
        """Largest |alpha|^2 = (q^2 + p^2)/2 over the box corners."""
        qm = max(abs(self.q_min), abs(self.q_max))
        pm = max(abs(self.p_min), abs(self.p_max))
        return 0.5 * (qm * qm + pm * pm)

    @property
    def min_half_width(self) -> float:
        return min(-self.q_min, self.q_max, -self.p_min, self.p_max)

    def to_dict(self) -> dict:
        return {
            "q_min": self.q_min,
            "q_max": self.q_max,
            "p_min": self.p_min,
            "p_max": self.p_max,
        }


@dataclass
class WignerGrid:
    """Uniform sampling of one Wigner function plus its provenance."""

    state: StateSpec
    source: Source
    box: Box
    nq: int
    np_: int
    values: np.ndarray

    def __post_init__(self):
        if self.nq < 2 or self.np_ < 2:
            raise ValueError("grids need at least 2 nodes per axis")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.nq, self.np_):
            raise ValueError(
                f"values shape {values.shape} does not match ({self.nq}, {self.np_})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        self.values = values

    @property
    def q_axis(self) -> np.ndarray:
        return np.linspace(self.box.q_min, self.box.q_max, self.nq)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.box.p_min, self.box.p_max, self.np_)

    def to_dict(self) -> dict:
        return {
            "state": {
                "family": self.state.family.value,
                "n": self.state.n,
                "theta": self.state.thermal.theta,
                "n_c": self.state.thermal.n_c,
            },
            "source": self.source.value,
            "box": self.box.to_dict(),
            "nq": self.nq,
            "np": self.np_,
            "values": self.values.tolist(),
        }


@dataclass
class VerificationReport:
    """Outcome of one closed-form vs oracle (or reduction) comparison.

    Self-contained: the label, state echo, grid spec and tolerances are
    enough to reproduce the run.  Sub-errors are collected rather than
    aborting the remaining checks.
    """

    label: str
    state: StateSpec | None
    box: Box | None
    nq: int
    np_: int
    max_abs_err: float
    mean_abs_err: float
    tolerances: dict
    norm_integral: float | None = None
    negativity_volume: float | None = None
    details: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict:
        state = None
        if self.state is not None:
            state = {
                "family": self.state.family.value,
                "n": self.state.n,
                "theta": self.state.thermal.theta,
                "n_c": self.state.thermal.n_c,
            }
        return {
            "label": self.label,
            "state": state,
            "box": self.box.to_dict() if self.box is not None else None,
            "nq": self.nq,
            "np": self.np_,
            "max_abs_err": self.max_abs_err,
            "mean_abs_err": self.mean_abs_err,
            "norm_integral": self.norm_integral,
            "negativity_volume": self.negativity_volume,
            "tolerances": dict(self.tolerances),
            "details": dict(self.details),
            "errors": list(self.errors),
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# grid sampling


def sample_grid(state: StateSpec, box: Box, nq: int, np_: int, source: Source) -> WignerGrid:
    """Evaluate the requested source on every node of the box."""
    source = Source(source)
    q = np.linspace(box.q_min, box.q_max, int(nq))
    p = np.linspace(box.p_min, box.p_max, int(np_))
    if source is Source.CLOSED_FORM:
        values = closed_form.wigner_closed_grid(state, q, p)
    else:
        rho = fock_oracle.build_oracle_state(state, box.alpha_max_sq)
        values = fock_oracle.wigner_grid_from_density(rho, q, p)
    return WignerGrid(state=state, source=source, box=box, nq=int(nq), np_=int(np_), values=values)


# ---------------------------------------------------------------------------
# quadrature


def _simpson2d(values: np.ndarray, q: np.ndarray, p: np.ndarray) -> float:
    return float(simpson(simpson(values, x=p, axis=1), x=q))


@lru_cache(maxsize=1)
def _quadrature_self_check() -> float:
    """Simpson error on an exactly normalized Gaussian; cached, must be < 1e-6."""
    state = StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.5))
    q = np.linspace(-6.0, 6.0, 241)
    values = closed_form.wigner_closed_grid(state, q, q)
    err = abs(_simpson2d(values, q, q) - 1.0)
    if err > 1e-6:
        raise RuntimeError(f"Simpson self-check failed: error {err:.3e} on unit Gaussian")
    return err


def _require_box_captures_mass(grid: WignerGrid):
    required = 4.0 * math.sqrt(grid.state.thermal.cosh_2theta)
    if grid.box.min_half_width < required - 1e-12:
        raise BoxTooSmallError(
            f"box half-width {grid.box.min_half_width:g} is below the required "
            f"{required:g} for theta = {grid.state.thermal.theta:g}"
        )


def normalization_integral(grid: WignerGrid) -> float:
    """integral W dq dp over the grid box by composite Simpson; expected ~ 1."""
    _quadrature_self_check()
    _require_box_captures_mass(grid)
    return _simpson2d(grid.values, grid.q_axis, grid.p_axis)


def negativity_volume(grid: WignerGrid) -> float:
    """Total negative mass integral (|W| - W)/2 dq dp, >= 0."""
    _quadrature_self_check()
    _require_box_captures_mass(grid)
    negative_part = 0.5 * (np.abs(grid.values) - grid.values)
    return _simpson2d(negative_part, grid.q_axis, grid.p_axis)


def default_norm_box(state: StateSpec) -> Box:
    """Auto-sized box for normalization/negativity quadrature.

    Radius sqrt((36 + 2 n) cosh 2 theta) keeps the neglected envelope x
    polynomial tail at or below ~1e-6 for n <= 16.
    """
    radius = math.sqrt((36.0 + 2.0 * state.n) * state.thermal.cosh_2theta)
    return Box.symmetric(radius)


NORM_GRID_POINTS = 241


def _norm_grid(state: StateSpec, source: Source) -> WignerGrid:
    """The state sampled on its auto-sized quadrature box."""
    return sample_grid(state, default_norm_box(state), NORM_GRID_POINTS, NORM_GRID_POINTS, source)


def normalization_of_state(state: StateSpec, source: Source = Source.CLOSED_FORM) -> float:
    """Normalization integral on the auto-sized box."""
    return normalization_integral(_norm_grid(state, source))


def negativity_of_state(state: StateSpec, source: Source = Source.CLOSED_FORM) -> float:
    """Negativity volume on the auto-sized box."""
    return negativity_volume(_norm_grid(state, source))


# ---------------------------------------------------------------------------
# verification

# Comparison tolerance tiers: the doubled-space matrix-exponential route
# accumulates more error than the single-mode one.
MAX_ERR_TOL_SINGLE_MODE = 1e-8
MAX_ERR_TOL_TWO_MODE = 1e-6
NORM_TOL = 1e-4


def default_verification_grid(state: StateSpec) -> tuple[Box, int, int]:
    if state.family is Family.THERMAL_NUMBER:
        return Box.symmetric(3.0), 49, 49
    return Box.symmetric(4.0), 81, 81


def default_max_err_tol(state: StateSpec) -> float:
    if state.family is Family.THERMAL_NUMBER:
        return MAX_ERR_TOL_TWO_MODE
    return MAX_ERR_TOL_SINGLE_MODE


def verify_state(
    state: StateSpec,
    box: Box | None = None,
    nq: int | None = None,
    np_: int | None = None,
    max_err_tol: float | None = None,
    norm_tol: float = NORM_TOL,
) -> VerificationReport:
    """Compare closed form against the Fock oracle and integrate.

    Runs both evaluators on the grid, reports max/mean pointwise error,
    the closed-form normalization on the auto-sized box, and the
    negativity volume; both integrals come from one sampling of that
    box.  Stage failures are recorded in ``errors`` and do not abort the
    remaining stages.  Deterministic for fixed inputs.
    """
    default_box, default_nq, default_np = default_verification_grid(state)
    box = box if box is not None else default_box
    nq = int(nq) if nq is not None else default_nq
    np_ = int(np_) if np_ is not None else default_np
    max_err_tol = max_err_tol if max_err_tol is not None else default_max_err_tol(state)

    errors: list[str] = []
    max_abs_err = math.inf
    mean_abs_err = math.inf
    norm_integral = None
    negativity = None

    try:
        closed_grid = sample_grid(state, box, nq, np_, Source.CLOSED_FORM)
        oracle_grid = sample_grid(state, box, nq, np_, Source.ORACLE)
        diff = np.abs(closed_grid.values - oracle_grid.values)
        max_abs_err = float(np.max(diff))
        mean_abs_err = float(np.mean(diff))
    except Exception as exc:  # collected, remaining stages still run
        errors.append(f"grid comparison: {exc}")

    try:
        norm_grid = _norm_grid(state, Source.CLOSED_FORM)
    except Exception as exc:
        norm_grid = None
        errors += [f"normalization: {exc}", f"negativity: {exc}"]

    if norm_grid is not None:
        try:
            norm_integral = normalization_integral(norm_grid)
        except Exception as exc:
            errors.append(f"normalization: {exc}")

        try:
            negativity = negativity_volume(norm_grid)
        except Exception as exc:
            errors.append(f"negativity: {exc}")

    passed = (
        not errors
        and max_abs_err <= max_err_tol
        and norm_integral is not None
        and abs(norm_integral - 1.0) <= norm_tol
    )
    return VerificationReport(
        label=f"oracle-vs-closed-form {state.describe()}",
        state=state,
        box=box,
        nq=nq,
        np_=np_,
        max_abs_err=max_abs_err,
        mean_abs_err=mean_abs_err,
        norm_integral=norm_integral,
        negativity_volume=negativity,
        tolerances={"max_abs_err": max_err_tol, "norm": norm_tol},
        errors=errors,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# reduction / limit checks


def _comparison_report(label, state, box, nq, np_, diff, tol, details=None) -> VerificationReport:
    max_err = float(np.max(diff))
    return VerificationReport(
        label=label,
        state=state,
        box=box,
        nq=nq,
        np_=np_,
        max_abs_err=max_err,
        mean_abs_err=float(np.mean(diff)),
        tolerances={"max_abs_err": tol},
        details=details or {},
        passed=max_err <= tol,
    )


def limit_suite(
    n_values: tuple = (1, 2, 3),
    small_theta: float = 1e-6,
    seed: int = 20240817,
) -> list[VerificationReport]:
    """Run the reduction matrix of the closed forms.

    * n = 0 collapses every family to the thermal-vacuum Gaussian
      (exact algebraic identity, tolerance 1e-12);
    * theta -> 0 collapses the added and number families to the
      zero-temperature number state and the subtracted family to the
      vacuum Gaussian (tolerance 1e-6 at theta = 1e-6);
    * the theta-form and occupation-form subtracted expressions agree
      pointwise (tolerance 1e-12 on seeded random samples).
    """
    reports = []
    box = Box.symmetric(4.0)
    q = np.linspace(box.q_min, box.q_max, 41)

    # n = 0 reductions, exact up to rounding
    thermal = params_from_theta(0.6)
    vacuum_vals = closed_form.wigner_closed_grid(
        StateSpec(Family.THERMAL_VACUUM, thermal), q, q
    )
    for family in (Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED, Family.THERMAL_NUMBER):
        vals = closed_form.wigner_closed_grid(StateSpec(family, thermal, n=0), q, q)
        reports.append(
            _comparison_report(
                f"n=0 {family.value} reduces to the thermal Gaussian",
                StateSpec(family, thermal, n=0),
                box, q.size, q.size,
                np.abs(vals - vacuum_vals),
                1e-12,
            )
        )

    # theta -> 0 limits
    tiny = params_from_theta(small_theta)
    for n in n_values:
        number_vals = closed_form.wigner_number_grid(n, q, q)
        for family in (Family.PHOTON_ADDED, Family.THERMAL_NUMBER):
            vals = closed_form.wigner_closed_grid(StateSpec(family, tiny, n=n), q, q)
            reports.append(
                _comparison_report(
                    f"theta={small_theta:g} {family.value} n={n} reduces to the number state",
                    StateSpec(family, tiny, n=n),
                    box, q.size, q.size,
                    np.abs(vals - number_vals),
                    1e-6,
                )
            )
        subtracted = closed_form.wigner_closed_grid(
            StateSpec(Family.PHOTON_SUBTRACTED, tiny, n=n), q, q
        )
        gaussian = closed_form.wigner_closed_grid(
            StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.0)), q, q
        )
        reports.append(
            _comparison_report(
                f"theta={small_theta:g} subtracted n={n} reduces to the vacuum Gaussian",
                StateSpec(Family.PHOTON_SUBTRACTED, tiny, n=n),
                box, q.size, q.size,
                np.abs(subtracted - gaussian),
                1e-6,
            )
        )

    # theta-form vs occupation-form equality on random samples
    rng = np.random.default_rng(seed)
    samples = 100
    worst = 0.0
    for _ in range(samples):
        theta = float(rng.uniform(0.05, 1.2))
        n = int(rng.integers(0, 6))
        point = PhasePoint(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
        thermal = params_from_theta(theta)
        w_theta = closed_form.wigner_photon_subtracted(point, n, thermal)
        w_nc = closed_form.wigner_photon_subtracted_ncform(point, n, thermal.n_c)
        worst = max(worst, abs(w_theta - w_nc))
    reports.append(
        VerificationReport(
            label="subtracted theta-form vs occupation-form pointwise equality",
            state=None,
            box=None,
            nq=0,
            np_=0,
            max_abs_err=worst,
            mean_abs_err=worst,
            tolerances={"max_abs_err": 1e-12},
            details={"samples": samples, "seed": seed},
            passed=worst <= 1e-12,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# temperature scans


def scan_theta(
    family: Family,
    n: int,
    thetas,
    include_negativity: bool = True,
) -> list[dict]:
    """Origin value and negativity volume of one family across temperatures.

    Produces the data behind the amplitude-damping plots: each row holds
    theta, W(0), |W(0)| and (optionally) the negativity volume of the
    closed-form grid on the auto-sized box.
    """
    origin = PhasePoint(0.0, 0.0)
    rows = []
    for theta in thetas:
        thermal = params_from_theta(float(theta))
        state = StateSpec(Family(family), thermal, n=n)
        w0 = closed_form.wigner_closed_form(state, origin)
        row = {"theta": float(theta), "w0": w0, "abs_w0": abs(w0)}
        if include_negativity:
            row["negativity_volume"] = negativity_of_state(state)
        rows.append(row)
    return rows
