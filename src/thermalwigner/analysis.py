"""Phase-space post-processing and closed-form vs oracle verification.

Grids are rectangular (q, p) samplings of one state's Wigner function,
taken either from the closed forms or from the Fock oracle; quadrature
and negativity treat the two sources interchangeably.

Every grid axis comes from :func:`_axis`.  On an axis symmetric about
zero it is exactly antisymmetric (node i is minus node n-1-i), its end
points are the box bounds and an odd axis has its centre at exactly
0.  Both sources sample a grid through
:func:`~thermalwigner.states.radial_grid`, one call on its distinct
|alpha|^2, so mirrored nodes share one value.

Quadrature is composite Simpson on the uniform grid, applied as the
bilinear form wq @ W @ wp.  The weights for each node count are the
uniform-node rule (with the Cartwright end interval for an even count),
each the exact rational weight correctly rounded, computed once per
count and cached.  The normalization and negativity of a state
never build that grid: W depends on |alpha|^2 alone, and node (i, j) of
an n x n axis pair of half-width R has
|alpha|^2 = (R / (n - 1))^2 (d_i^2 + d_j^2) / 2 with the integer
d_i = 2 i - (n - 1).  The cached radial plan holds the distinct keys
d_i^2 + d_j^2 (5 251 for n = 241), as floats, and the unit Simpson
weight products summed onto each, so an integral is one dot product over
the state's values at those radii, times the box area.  The norm box
(:func:`default_norm_box`) is sized in Gaussian widths: every closed
form is exp(-2u) times a polynomial in u = |alpha|^2 sech 2theta, and
R^2 = cosh 2theta * max(36 + 2n, 6M), with M the state's second moment
in widths.  The closed form is handed u straight from the keys and that
width count, so for the vacuum and number states it sees bitwise the
same u at every temperature; for added n >= 4 and subtracted n >= 8 the
6M term can win and the box, and so u, changes with theta.  One
evaluation there gives a state's normalization, its negativity volume,
W(0) at the first radius 0 and, at the radii of every third node (cached
positions in the plan), the closed-form values that :func:`verify_state`
compares with the oracle.  :func:`_norm_pass` makes that evaluation,
for the one-state integrals and :func:`verify_state`, from
:func:`_norm_step`, which gives a state's u per key and half-width and
builds no box.  Before either contraction is trusted, a cached
self-check integrates the exact thermal Gaussian at theta = 0.5 on
[-6, 6]^2 with 241 x 241 nodes through both; each must be within 1e-6
of 1 and the two within 1e-14 of each other.  The integrals of a grid
also refuse boxes whose half-width is under 4 * sqrt(cosh 2 theta), the
radius that captures all but ~1e-7 of the Gaussian envelope mass; a
norm box, R^2 >= 36 cosh 2theta, never is.

:func:`scan_theta` reads only W(0) and the negativity, the sum of
min(W, 0), off each step, so it evaluates only the radii where W can
be negative (:func:`~thermalwigner.closed_form.negative_bound`, one
call for every step): none for the vacuum, photon-subtracted and
n = 0 states, u below the largest zero of L_n over 4 cosh^2 theta for
the other photon-added ones (a prefix of 9 to 510 of the plan's 5 251
sorted radii over the default scan) and u below that of L_2n over 4
for the other number states (223 to 1 081 radii for n = 1 ... 8), or
the whole plan at a theta where the number series' signs do not
alternate, always with radius 0.  It checks the family and n once, at
the first step, and each step's theta, and takes u per key and
half-width from :func:`_norm_scales`, the formula :func:`_norm_step`
uses; then it evaluates consecutive steps as one block in one kernel
call, one row of u per step and theta as a column, on the radii up to
the largest bound in the block; a block holds at most
SCAN_BLOCK_ELEMENTS (16 384) steps x radii, which the measurement in
:func:`scan_theta` chose.  Beyond the bound min(W, 0) is +0.0, so each
step's negativity, the full-length dot product over its zero-padded
row, is bitwise the one-state value.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import closed_form, fock_oracle
from .states import Family, StateSpec
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
    def min_half_width(self) -> float:
        return min(-self.q_min, self.q_max, -self.p_min, self.p_max)

    def to_dict(self) -> dict:
        return asdict(self)


def _state_echo(state: StateSpec) -> dict:
    return {
        "family": state.family.value,
        "n": state.n,
        "theta": state.thermal.theta,
        "n_c": state.thermal.n_c,
    }


@dataclass
class WignerGrid:
    """Uniform sampling of one Wigner function plus its provenance.

    ``values[i, j]`` is W at node i of the q axis and node j of the p
    axis, so the node counts ``nq`` and ``np_`` are its shape.
    """

    state: StateSpec
    source: Source
    box: Box
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"grid values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        if min(values.shape) < 2:
            raise ValueError("grids need at least 2 nodes per axis")
        self.values = values

    @property
    def nq(self) -> int:
        return self.values.shape[0]

    @property
    def np_(self) -> int:
        return self.values.shape[1]

    @property
    def q_axis(self) -> np.ndarray:
        return _axis(self.box.q_min, self.box.q_max, self.nq)

    @property
    def p_axis(self) -> np.ndarray:
        return _axis(self.box.p_min, self.box.p_max, self.np_)

    def to_dict(self, *, values: bool = True) -> dict:
        """The grid as JSON-ready data: provenance, node counts and values.

        With ``values=False`` the ``"values"`` lists are left out, for a
        writer that streams them row by row instead of holding every
        node as a Python float (about 48 bytes per node).
        """
        out = {
            "state": _state_echo(self.state),
            "source": self.source.value,
            "box": self.box.to_dict(),
            "nq": self.nq,
            "np": self.np_,
        }
        if values:
            out["values"] = self.values.tolist()
        return out


@dataclass
class VerificationReport:
    """Outcome of one closed-form vs oracle comparison.

    Self-contained: the label, state echo, grid spec and tolerances are
    enough to reproduce the run.  Sub-errors are collected rather than
    aborting the remaining checks.
    """

    label: str
    state: StateSpec
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
        return {
            "label": self.label,
            "state": _state_echo(self.state),
            "box": self.box.to_dict() if self.box is not None else None,
            "nq": self.nq,
            "np": self.np_,
            # null when the comparison did not run: JSON has no infinity
            "max_abs_err": self.max_abs_err if math.isfinite(self.max_abs_err) else None,
            "mean_abs_err": self.mean_abs_err if math.isfinite(self.mean_abs_err) else None,
            "norm_integral": self.norm_integral,
            "negativity_volume": self.negativity_volume,
            "tolerances": dict(self.tolerances),
            "details": dict(self.details),
            "errors": list(self.errors),
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# grid sampling


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform nodes from lo to hi, exactly mirror-symmetric when lo == -hi.

    ``np.linspace(-R, R, n)`` is symmetric only up to rounding: node i
    and -node n-1-i differ in their last bits.  Averaging the axis with
    its mirror image -a[::-1] moves each node by at most one ulp of R
    and makes the symmetry exact.  The halves are scaled before the
    difference so that huge bounds do not overflow.
    """
    a = np.linspace(lo, hi, int(n))
    if lo == -hi:
        a = 0.5 * a - 0.5 * a[::-1]
    return a


# Peak memory of sample_grid per grid node, in bytes; see sample_grid.
_SAMPLE_GRID_BYTES_PER_NODE = 24


def _physical_memory_bytes() -> int | None:
    """The machine's physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        page_size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page_size * pages if page_size > 0 and pages > 0 else None


def sample_grid(state: StateSpec, box: Box, nq: int, np_: int, source: Source) -> WignerGrid:
    """Evaluate the requested source on every node of the box.

    A grid whose estimated peak, nq * np_ * 24 bytes, exceeds the
    machine's physical memory is refused with ``MemoryError`` before
    anything is allocated.  The 24 bytes per node are the 8 of the
    returned grid plus the fold's temporaries and the kernel's rows,
    rounded up from the largest measured slope: peak RSS (``ru_maxrss``)
    of a fresh interpreter that makes one call at n = 16 rose by
    22.8-23.3 B per node for the ``number`` closed form (its n + 1 rows),
    14.4-18.6 for the other closed forms and 12.6-19.5 for the oracle
    between 1001^2 and 5001^2 nodes (Linux, numpy 2.4).

    Raises:
        MemoryError: for a grid that cannot be held in physical memory.
    """
    nodes = int(nq) * int(np_)
    estimate = nodes * _SAMPLE_GRID_BYTES_PER_NODE
    physical = _physical_memory_bytes()
    if physical is not None and estimate > physical:
        raise MemoryError(
            f"a {nq} x {np_} grid ({nodes} nodes) needs about {estimate} bytes at its "
            f"peak, more than the {physical} bytes of physical memory"
        )
    source = Source(source)
    q = _axis(box.q_min, box.q_max, nq)
    p = _axis(box.p_min, box.p_max, np_)
    if source is Source.CLOSED_FORM:
        values = closed_form.wigner_closed_grid(state, q, p)
    else:
        rho = fock_oracle.build_oracle_state(state)
        values = fock_oracle.wigner_grid_from_density(rho, q, p)
    return WignerGrid(state=state, source=source, box=box, values=values)


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=8)
def _unit_simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights of n uniform nodes on [0, 1], read-only.

    With h = 1 / (n - 1), an odd n gets h/3 (1, 4, 2, 4, ..., 2, 4, 1).
    An even n gets that rule on its first n - 1 nodes plus the
    uniform-spacing end interval h (-1/12, 2/3, 5/12) on its last three
    (Cartwright 2017); n = 2 is the trapezoid.  Each weight is an
    integer over 12 (n - 1), divided once, so it is the exact weight
    correctly rounded.
    """
    if n == 2:
        twelfths = np.array([6.0, 6.0])
    else:
        odd = n - 1 + n % 2  # the Simpson panels cover nodes 0 .. odd - 1
        twelfths = np.zeros(n)
        twelfths[:odd:2] = 8.0
        twelfths[1:odd:2] = 16.0
        twelfths[[0, odd - 1]] = 4.0
        if odd < n:
            twelfths[-3:] += (-1.0, 8.0, 5.0)
    weights = twelfths / (12 * (n - 1))
    weights.setflags(write=False)
    return weights


def _simpson2d(values: np.ndarray, q: np.ndarray, p: np.ndarray) -> float:
    """Composite Simpson integral of values[i, j] at (q[i], p[j]) on uniform axes."""
    wq = (q[-1] - q[0]) * _unit_simpson_weights(q.size)
    wp = (p[-1] - p[0]) * _unit_simpson_weights(p.size)
    return float(wq @ values @ wp)


@lru_cache(maxsize=8)
def _radial_simpson_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct radius keys of an n x n symmetric grid and their Simpson weights, read-only.

    Node i of an axis of half-width R sits at R d_i / (n - 1) with the
    integer d_i = 2 i - (n - 1), so node (i, j) has
    |alpha|^2 = (R / (n - 1))^2 (d_i^2 + d_j^2) / 2.  Returns the
    distinct keys d_i^2 + d_j^2 in increasing order and, per key, the
    sum of the unit Simpson weight products w_i w_j over its nodes.  The
    plan carries grid geometry only, so the closed forms and the oracle
    can both be integrated with it.
    """
    d = 2 * np.arange(n) - (n - 1)
    keys, inverse = np.unique(d[:, None] ** 2 + d[None, :] ** 2, return_inverse=True)
    unit = _unit_simpson_weights(n)
    weights = np.bincount(inverse.ravel(), weights=np.outer(unit, unit).ravel())
    keys = keys.astype(float)  # exact: every key is below 2^53
    keys.setflags(write=False)
    weights.setflags(write=False)
    return keys, weights


def _radial_quadrature(half_width: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |alpha|^2 of the n x n grid on Box.symmetric(half_width), and weights.

    ``weights @ W(abs2)`` is the composite Simpson integral of a radial W
    over the box, the plan's unit weights scaled by the box area.
    """
    keys, unit = _radial_simpson_plan(n)
    return (0.5 * (half_width / (n - 1)) ** 2) * keys, (2.0 * half_width) ** 2 * unit


@lru_cache(maxsize=1)
def _quadrature_self_check() -> float:
    """Simpson error on an exactly normalized Gaussian; cached, must be < 1e-6.

    The Gaussian is integrated both as a materialized grid and through
    the radial plan; the two contractions must also agree within 1e-14.
    """
    state = StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.5))
    half_width, n = 6.0, 241
    q = _axis(-half_width, half_width, n)
    on_grid = _simpson2d(closed_form.wigner_closed_grid(state, q, q), q, q)
    abs2, weights = _radial_quadrature(half_width, n)
    on_radii = float(weights @ closed_form.wigner_closed_radial(state, abs2))
    err = max(abs(on_grid - 1.0), abs(on_radii - 1.0))
    if err > 1e-6:
        raise RuntimeError(f"Simpson self-check failed: error {err:.3e} on unit Gaussian")
    if abs(on_grid - on_radii) > 1e-14:
        raise RuntimeError(
            f"Simpson self-check failed: grid {on_grid!r} and radial plan {on_radii!r} disagree"
        )
    return err


def _require_box_captures_mass(state: StateSpec, box: Box):
    required = 4.0 * math.sqrt(state.thermal.cosh_2theta)
    if box.min_half_width < required - 1e-12:
        raise BoxTooSmallError(
            f"box half-width {box.min_half_width:g} is below the required "
            f"{required:g} for theta = {state.thermal.theta:g}"
        )


def _grid_integral(grid: WignerGrid, values: np.ndarray) -> float:
    """Simpson integral of ``values`` on the axes of ``grid``, after the quadrature checks."""
    _quadrature_self_check()
    _require_box_captures_mass(grid.state, grid.box)
    return _simpson2d(values, grid.q_axis, grid.p_axis)


def normalization_integral(grid: WignerGrid) -> float:
    """integral W dq dp over the grid box by composite Simpson; expected ~ 1."""
    return _grid_integral(grid, grid.values)


def negativity_volume(grid: WignerGrid) -> float:
    """Total negative mass integral (|W| - W)/2 dq dp, >= 0."""
    # max(-W, 0) is bitwise (|W| - W)/2
    return _grid_integral(grid, np.maximum(-grid.values, 0.0))


def _second_moment_in_widths(family: Family, n: int, cosh_2theta: float) -> float:
    """M = (2 <a^dag a> + 1) sech 2theta, the state's <q^2 + p^2> in thermal widths.

    With n_c = sinh^2 theta the thermal state has <a^dag a> = n_c, so
    2 <a^dag a> + 1 = cosh 2theta and M = 1; subtracting n photons gives
    (n + 1) n_c, M = (n + 1) - n sech 2theta; adding them gives
    (n + 1)(n_c + 1) - 1, M = (n + 1) + n sech 2theta; the number state,
    |n> x |n> squeezed in the doubled space, has n cosh 2theta + n_c,
    M = 2n + 1.  The vacuum's n is 0, where the added formula gives its
    M = 1 exactly.
    """
    if family is Family.THERMAL_NUMBER:
        return 2.0 * n + 1.0
    sech2 = 1.0 / cosh_2theta
    if family is Family.PHOTON_SUBTRACTED:
        return (n + 1) - n * sech2
    return (n + 1) + n * sech2


def default_norm_box(state: StateSpec) -> Box:
    """Auto-sized box for normalization/negativity quadrature, sized in Gaussian widths.

    Every state here is exp(-2u) times a polynomial in
    u = |alpha|^2 sech 2theta, so its scale is the thermal width
    cosh 2theta.  Radius^2 is cosh 2theta times the larger of 36 + 2n,
    which bounds the Gaussian envelope x polynomial tail, and 6M, six
    times the state's second moment <q^2 + p^2> = 2 <a^dag a> + 1 in
    those widths (:func:`_second_moment_in_widths`).  The second rule
    takes over for the broad states, the number state from n = 4 and the
    conditioned states at large n, where the first left up to 5e-3 of the
    mass outside the box.  For the vacuum and number states the box
    holds the same u at every temperature.  The half-width is
    :func:`_norm_scales`'s.
    """
    return Box.symmetric(_norm_scales(state.family, state.n, state.thermal.cosh_2theta)[1])


# Odd, so that the norm grid has a node at the origin: the radial plan's
# first key is 0, and a norm-grid pass holds W(0) as its first value.
NORM_GRID_POINTS = 241


def _norm_scales(family: Family, n: int, cosh_2theta: float) -> tuple[float, float]:
    """A state's u per norm-plan key and its norm box's half-width, from cosh 2theta.

    The box has R^2 = cosh 2theta * widths, widths = max(36 + 2n, 6M)
    (:func:`default_norm_box`).  Node key d_i^2 + d_j^2 of the norm grid
    on it has |alpha|^2 = (R / (N - 1))^2 key / 2, so
    u = widths / (2 (N - 1)^2) key.  No box is built and no mass check
    runs: R^2 is at least 36 cosh 2theta, past the 16 cosh 2theta that
    :func:`_require_box_captures_mass` asks for, which a test checks.
    """
    widths = max(36.0 + 2.0 * n, 6.0 * _second_moment_in_widths(family, n, cosh_2theta))
    return 0.5 * widths / (NORM_GRID_POINTS - 1) ** 2, math.sqrt(cosh_2theta * widths)


def _norm_step(family: Family, n: int, theta) -> tuple[StateSpec, float, float]:
    """The state at ``theta``, its u per norm-plan key and its norm box's half-width.

    Raises as the state refuses the step.
    """
    state = StateSpec(Family(family), params_from_theta(float(theta)), n=n)
    return (state, *_norm_scales(state.family, state.n, state.thermal.cosh_2theta))


def _norm_pass(state: StateSpec, source: Source):
    """``state`` on its norm grid, (box, values, normalization, negativity volume).

    The state is evaluated on its norm grid, NORM_GRID_POINTS^2 nodes on
    :func:`default_norm_box`, and ``values`` holds it once per distinct
    radius of that grid, in the order of the radial plan's keys; the grid
    is never built.  The closed form gets u straight from the plan's keys
    and :func:`_norm_step`'s u per key, which is theta-free for the vacuum
    and number states and changes with theta for the broad conditioned
    ones; the oracle gets |alpha|^2.  ``box`` is built from the step's
    half-width, for :func:`verify_state`'s report.  Both integrals are
    Simpson sums over ``values`` with the plan's unit weights, scaled by
    the box area after the dot; the negativity sums min(W, 0).  The
    finiteness check reads the normalization sum first: every plan weight
    is positive, so that sum is finite unless some value is not or the sum
    overflows, and only then are the values scanned.

    This is the full pass, every radius of the plan, which the one-state
    integrals, :func:`verify_state` and the oracle need.
    :func:`scan_theta` evaluates only the part of it where W can be
    negative, in blocks of steps, and gets bitwise the same rows.
    """
    _quadrature_self_check()
    keys, unit = _radial_simpson_plan(NORM_GRID_POINTS)
    state, scale, half_width = _norm_step(state.family, state.n, state.thermal.theta)
    if Source(source) is Source.CLOSED_FORM:
        at = closed_form.prepare_gaussian(state.family, state.n, scale * keys)
        values = at(state.thermal.theta)
    else:
        rho = fock_oracle.build_oracle_state(state)
        abs2 = _radial_quadrature(half_width, NORM_GRID_POINTS)[0]
        values = fock_oracle.wigner_radial_from_density(rho, abs2)
    mass = float(unit @ values)
    if not math.isfinite(mass):  # every weight is positive: a finite sum has finite terms
        _require_finite(values)
    area = (2.0 * half_width) ** 2
    return (Box.symmetric(half_width), values, area * mass,
            area * abs(float(unit @ np.minimum(values, 0.0))))


def _require_finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite")
    return values


def normalization_of_state(state: StateSpec, source: Source = Source.CLOSED_FORM) -> float:
    """Normalization integral on the auto-sized box."""
    return _norm_pass(state, source)[2]


def negativity_of_state(state: StateSpec, source: Source = Source.CLOSED_FORM) -> float:
    """Negativity volume on the auto-sized box."""
    return _norm_pass(state, source)[3]


# ---------------------------------------------------------------------------
# verification

# Comparison tolerance tiers, on the absolute error at the comparison
# radii: the number state's oracle weights may miss up to
# TWO_MODE_DEFICIT_TOL (1e-8) of population at their fixed per-mode
# truncation, so its tier is looser than that of the single-mode families,
# whose populations are cut below one ulp of their trace.
MAX_ERR_TOL_SINGLE_MODE = 1e-8
MAX_ERR_TOL_TWO_MODE = 1e-6
NORM_TOL = 1e-4

# The routes are compared on every third node of the norm grid's axes,
# the 81 x 81 grid on the same box.  Norm-grid node i has the integer
# d_i = 2 i - 240, a multiple of 6 exactly when i is a multiple of 3, and
# a key d_i^2 + d_j^2 of even d is divisible by 36 exactly when both d
# are (squares are 0 or 1 mod 3).  So the comparison radii are the norm
# plan's keys divisible by 36: 687 of its 5 251, 9 times the keys of the
# 81-node plan.
COMPARISON_GRID_POINTS = 81


@lru_cache(maxsize=1)
def _comparison_indices() -> np.ndarray:
    """Positions of the comparison radii in the norm plan: its keys divisible by 36, read-only."""
    indices = np.flatnonzero(_radial_simpson_plan(NORM_GRID_POINTS)[0] % 36 == 0)
    indices.setflags(write=False)
    return indices


def verify_state(
    state: StateSpec,
    max_err_tol: float | None = None,
    norm_tol: float = NORM_TOL,
) -> VerificationReport:
    """Compare closed form against the Fock oracle and integrate.

    One closed-form :func:`_norm_pass` gives the normalization, the
    negativity volume and the values that are compared with one oracle
    series call at the radii of the COMPARISON_GRID_POINTS^2 sub-grid of
    the state's norm box; ``box``, ``nq`` and ``np_`` name that grid, and
    the max/mean error is over its distinct radii.  The box is sized from
    the state, so the comparison covers its mass at every temperature.
    Once the comparison has run, ``details`` carries the oracle's
    provenance, ``oracle_dim`` and ``oracle_tail`` (the oracle's own error
    is at most 2 oracle_tail / pi), and where the comparison was decided:
    ``max_abs_w``, the largest closed-form |W| at the compared radii, so
    that a pass with max_abs_w under the tolerance is seen to be vacuous,
    and ``max_err_abs2``, the |alpha|^2 of the largest error.
    Stage failures are recorded in ``errors`` and do not abort the
    remaining stages; a failed closed-form pass fails all three.
    Deterministic for fixed inputs.
    """
    if max_err_tol is None:
        two_mode = state.family is Family.THERMAL_NUMBER
        max_err_tol = MAX_ERR_TOL_TWO_MODE if two_mode else MAX_ERR_TOL_SINGLE_MODE

    errors: list[str] = []
    box = None
    max_abs_err = math.inf
    mean_abs_err = math.inf
    norm_integral = None
    negativity = None
    details: dict = {}

    try:
        box, closed, norm_integral, negativity = _norm_pass(state, Source.CLOSED_FORM)
    except Exception as exc:  # collected: every stage needs this pass
        errors += [f"{stage}: {exc}" for stage in ("grid comparison", "normalization",
                                                   "negativity")]
    else:
        try:
            compared = _comparison_indices()
            abs2 = _radial_quadrature(box.q_max, NORM_GRID_POINTS)[0][compared]
            closed = closed[compared]
            rho = fock_oracle.build_oracle_state(state)
            oracle = _require_finite(fock_oracle.wigner_radial_from_density(rho, abs2))
            diff = np.abs(closed - oracle)
            worst = int(np.argmax(diff))
            max_abs_err = float(diff[worst])
            mean_abs_err = float(np.mean(diff))
            details = {
                "oracle_dim": rho.dim,
                "oracle_tail": rho.tail,
                "max_abs_w": float(np.max(np.abs(closed))),
                "max_err_abs2": float(abs2[worst]),
            }
        except Exception as exc:  # collected, the integrals still stand
            errors.append(f"grid comparison: {exc}")

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
        nq=COMPARISON_GRID_POINTS,
        np_=COMPARISON_GRID_POINTS,
        max_abs_err=max_abs_err,
        mean_abs_err=mean_abs_err,
        norm_integral=norm_integral,
        negativity_volume=negativity,
        tolerances={"max_abs_err": max_err_tol, "norm": norm_tol},
        details=details,
        errors=errors,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# temperature scans


# Elements (steps x radii) of one closed-form block of a scan; see scan_theta.
SCAN_BLOCK_ELEMENTS = 16384


def scan_theta(
    family: Family,
    n: int,
    thetas,
    include_negativity: bool = True,
) -> list[dict]:
    """Origin value and negativity volume of one family across temperatures.

    Produces the data behind the amplitude-damping plots: each row holds
    theta, W(0), |W(0)| and (optionally) the closed-form negativity
    volume on the auto-sized box.  A row is bitwise the one-state value
    at its theta (:func:`_norm_pass`), and a step that the one-state call
    refuses raises the same error.

    The scan reads only W(0) and min(W, 0) off each step's norm-grid
    pass, and the closed forms fix where W can be negative
    (:func:`~thermalwigner.closed_form.negative_bound`, one call for the
    whole scan): nowhere for the vacuum, photon-subtracted and n = 0
    states, below the largest zero of L_n over 4 cosh^2 theta in u for
    the other photon-added ones, and below that of L_2n over 4 for the
    other number states, or anywhere on the box at a theta where the
    number series' coefficients do not alternate in sign (theta = 0, and
    small theta for large n).  So each step is evaluated on the plan's
    sorted radii up to its bound, radius 0 always included (the plan's
    first key is radius 0), and on radius 0 alone without the negativity.

    It runs in three stages.  One pass validates the steps in order, with
    or without the negativity: the family and n once, with one state at
    the first step, and each theta as ``params_from_theta`` refuses it,
    keeping the first refusal.  With the negativity each step's u per key
    and half-width come from cosh 2theta through :func:`_norm_scales`,
    and one ``searchsorted`` gives every step's prefix of the plan;
    without it every step is radius 0 alone.  Consecutive steps are then
    evaluated as one block, one row of u per step, or one row that all of
    them share, and one kernel call with theta as a column, on the radii
    up to the largest bound in the block; the kept refusal is raised
    after them, so that the refusals of the steps before it come first.
    The block's values are checked for finiteness, and each step's
    negativity is the full-length dot product of the plan's weights with
    min(W, 0) over its row padded with +0.0, which is what min(W, 0) is
    beyond the bound, so it is bitwise the one-state value; a row with no
    negative value has volume +0.0, which that dot would give, without it.

    A block holds as many steps as keep it within SCAN_BLOCK_ELEMENTS
    steps x radii.  Of 2 048, 4 096, 8 192, 16 384, 32 768 and 65 536,
    16 384 and 32 768 gave the fastest default scans when every number
    step took the whole plan (CPU time, added and number n = 0 ... 8,
    2-CPU VM, Python 3.11, numpy 2.4).  A default 20-step scan is one
    kernel call for the vacuum, subtracted and added states and for
    number n <= 2, and two for number n = 3 ... 8, on the held rows of
    one prepared kernel, which serves every block whose one row of u is
    the same.
    """
    keys, unit = _radial_simpson_plan(NORM_GRID_POINTS)
    if include_negativity:
        _quadrature_self_check()
    steps, refusal = [], None  # the valid steps' theta, in order
    for theta in thetas:
        try:
            if not steps:  # family and n are the same at every step: checked once
                state = StateSpec(Family(family), params_from_theta(float(theta)), n=n)
                family, n = state.family, state.n
            steps.append(params_from_theta(theta).theta)
        except Exception as exc:  # raised once the steps before it are evaluated
            refusal = exc
            break
    counts = [1] * len(steps)  # radius 0 alone without the negativity
    if include_negativity and steps:  # without a valid step, family and n are unchecked
        scales, half_widths = np.array([_norm_scales(family, n, math.cosh(2.0 * t))
                                        for t in steps]).T.tolist()
        bounds = closed_form.negative_bound(family, n, steps) / np.array(scales)
        counts = np.searchsorted(keys, bounds, side="right").tolist()  # >= 1: keys[0] is 0
    starts, width = [], 0
    for i, count in enumerate(counts):
        if not starts or (i + 1 - starts[-1]) * max(width, count) > SCAN_BLOCK_ELEMENTS:
            starts.append(i)
            width = 0
        width = max(width, count)

    rows, padded = [], np.zeros(keys.size)
    prepared = None, None  # the last kernel's one row of u as (scale, width), and the kernel
    for start, stop in zip(starts, [*starts[1:], len(steps)]):
        width = max(counts[start:stop])
        # on radius 0 alone every step's row of u is [0.0], whatever its scale
        distinct = set(scales[start:stop]) if width > 1 else {0.0}
        shared = (distinct.pop(), width) if len(distinct) == 1 else None
        if shared is None or shared != prepared[0]:
            u = np.array(shared[:1] if shared else scales[start:stop])[:, None]
            prepared = shared, closed_form.prepare_gaussian(family, n, u * keys[:width])
        values = _require_finite(prepared[1](np.array(steps[start:stop])[:, None]))
        if include_negativity:
            lows = np.minimum(values, 0.0)
            negative = lows.any(axis=1)
            padded[width:] = 0.0
        for i, theta in enumerate(steps[start:stop]):
            w0 = float(values[i, 0])
            rows.append({"theta": theta, "w0": w0, "abs_w0": abs(w0)})
            if include_negativity:
                # with no negative value every term of the dot is +-0.0: the volume is +0.0
                volume = 0.0
                if negative[i]:
                    padded[:width] = lows[i]
                    volume = (2.0 * half_widths[start + i]) ** 2 * abs(float(unit @ padded))
                rows[-1]["negativity_volume"] = volume
    if refusal is not None:
        raise refusal
    return rows
