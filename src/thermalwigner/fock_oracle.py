"""Independent ground truth in a truncated Fock space.

Every state the library has a closed form for is rebuilt here as its
Fock populations w_k, the diagonal of its density matrix in the number
basis: thermal weights, ladder conditioning a^n rho a^dag^n (a shifted,
reweighted slice of the populations), and, for the number family, the
two-mode squeeze of |n> x |n> restricted to its invariant sector
span{|k> x |k>} (thermo field dynamics, Takahashi & Umezawa 1975).  Its
Wigner function is the displaced photon-number parity (Royer 1977),
W = (1/pi) sum_k (-1)^k <k| D(alpha)^dag rho D(alpha) |k>, with
alpha = (q + i p) / sqrt(2): the vacuum peak 1/pi makes W integrate to
one over dq dp.  Nothing in this module uses the
closed-form expressions, so pointwise agreement certifies both routes.

For a diagonal state the parity identity D(alpha) Pi D(alpha)^dag =
D(2 alpha) Pi leaves diagonal elements of one displacement,
<k| D(beta) |k> = l_k(x) = exp(-x/2) L_k(x) with x = |beta|^2 =
4 |alpha|^2 (Cahill & Glauber 1969), so W = (1/pi) sum_k w_k (-1)^k l_k(x).
The grid evaluator runs the Laguerre recurrence in k once, vectorised
over the distinct x of the grid, with log-scaled seeds so that
exp(-x/2) cannot underflow: O(dim) time and memory per distinct x.  The
displacement is never truncated, and |l_k| <= 1, so cutting population
mass tail off a state moves W by at most 2 tail / pi.  Each state is
therefore sized from its own populations, not from a box: thermal and
conditioned states are cut where their own tail falls below one ulp;
the number state keeps its 32-level two-mode build.

Both exponentials here, the number-state squeeze and the dense
displacement, are of anti-Hermitian generators, so each is taken from
one Hermitian eigendecomposition (:func:`_expm_antihermitian`) whose
eigenvector matrix is unitary.  The package needs numpy alone.

The dense point evaluator ``wigner_from_density`` is the reference.  It
zero-pads the state with headroom for its own |alpha|, displaces it by
the dense D(alpha), checks the displaced population of a guard band at
the top of the padded basis, and refuses above ``DENSE_DIM_MAX`` levels
before it allocates a matrix.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .states import Family, PhasePoint, StateSpec, radial_grid

# Default per-mode truncation of the doubled-space number-state build.
TWO_MODE_DIM = 32

THERMAL_TAIL_TOL = 1e-12
LEAK_TOL = 1e-10
TWO_MODE_DEFICIT_TOL = 1e-8

# An oracle state is cut where the population mass it drops falls below
# one ulp of its unit trace, so that the cut, and the renormalization
# after it, are invisible in double precision.  THERMAL_TAIL_TOL is the
# coarser bound that every thermal state must meet.
_CUT_TAIL = float(np.finfo(float).eps)

# Largest padded basis of the dense reference: its eigendecomposition
# holds a few dim x dim complex matrices, 16 MiB each at this size.
DENSE_DIM_MAX = 1024

# Vacuum Wigner peak under the integral-one-over-dq-dp convention, and the
# prefactor of the displaced-parity sum.
VACUUM_PEAK = 1.0 / math.pi

# The series recurrence checks its magnitude every _RESCALE_EVERY steps and
# scales by powers of two above _RESCALE_ABOVE.  One step multiplies it by
# at most x + 3k + 1, so eight steps from 2^500 cannot overflow while
# x + 3k < 2^65.
_RESCALE_EVERY = 8
_RESCALE_ABOVE = 2.0**500


class TruncationError(RuntimeError):
    """The truncated basis cannot represent the requested computation."""


class AnnihilatedStateError(ValueError):
    """The operation maps the state to (numerically) zero."""


@dataclass
class FockDensityMatrix:
    """Truncated density matrix diag(populations) in the number basis.

    Every state the oracle builds conserves a photon-number difference,
    so it is diagonal and its populations are the whole state.
    Construction refuses anything but a non-empty 1-D vector of finite
    entries, checks unit trace (1e-10), the eigenvalue floor (every
    population >= -1e-10) and ``tail``, the bound on the mass cut off
    above ``dim`` before renormalization (0 for an exact state), and
    freezes the vector read-only.
    """

    populations: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        populations = np.array(self.populations, dtype=float)
        if populations.ndim != 1 or populations.size == 0:
            raise ValueError(
                f"populations must be a non-empty 1-D vector, got shape {populations.shape}"
            )
        if not np.all(np.isfinite(populations)):
            raise ValueError("density matrix entries must be finite")
        trace = populations.sum()
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {trace!r} is not 1")
        floor = float(np.min(populations))
        if floor < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {floor:.3e} below floor")
        if not 0.0 <= self.tail <= 1.0:
            raise ValueError(f"tail must be in [0, 1], got {self.tail!r}")
        populations.setflags(write=False)
        object.__setattr__(self, "populations", populations)

    @property
    def dim(self) -> int:
        return self.populations.size

    def mean_photons(self) -> float:
        return float(np.arange(self.dim) @ self.populations)


def min_thermal_dim(n_c: float) -> int:
    """Smallest truncation whose neglected thermal tail is below THERMAL_TAIL_TOL.

    The tail of the geometric occupation is (n_c / (n_c+1))^N.
    """
    if n_c < 0.0 or not math.isfinite(n_c):
        raise ValueError(f"n_c must be finite and >= 0, got {n_c!r}")
    if n_c == 0.0:
        return 1
    ratio = n_c / (n_c + 1.0)
    return max(1, math.ceil(math.log(THERMAL_TAIL_TOL) / math.log(ratio)))


def _log_conditioned_tail(n_c: float, n: int, levels: int) -> float:
    """Log of a bound on the mass of NegBin(n + 1, r) at levels >= ``levels``.

    Conditioning a thermal state by n photons leaves the populations
    p_k = C(k + n, n) (1 - r)^(n+1) r^k, r = n_c / (n_c + 1), at level k
    (subtraction) or k + n (addition).  For levels > n n_c - 1 the ratio
    p_(k+1) / p_k = r (k + n + 1) / (k + 1) is below 1 and falls, so the
    tail is at most p_K / (1 - ratio at K); p_K is taken in logs.
    """
    log_r = math.log(n_c) - math.log1p(n_c)
    log_p = (
        math.lgamma(levels + n + 1) - math.lgamma(levels + 1) - math.lgamma(n + 1)
        - (n + 1) * math.log1p(n_c) + levels * log_r
    )
    ratio = math.exp(log_r) * (levels + n + 1) / (levels + 1)
    return log_p - math.log1p(-ratio)


def _conditioned_levels(n_c: float, n: int) -> int:
    """Fewest levels whose conditioned tail bound is below ``_CUT_TAIL``.

    The bound falls monotonically past the mode, so the dimension doubles
    until it holds and is then bisected.  For n = 0, the thermal state,
    the bound is the exact geometric tail.
    """
    if n_c == 0.0:
        return 1
    def holds(levels: int) -> bool:
        return _log_conditioned_tail(n_c, n, levels) <= math.log(_CUT_TAIL)

    lo = math.floor(n * n_c)
    hi = lo + 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=holds)


def thermal_density_matrix(n_c: float, dim: int) -> FockDensityMatrix:
    """Thermal state, occupation weights n_c^l / (n_c+1)^(l+1).

    Raises:
        TruncationError: if the neglected tail at ``dim`` exceeds 1e-12;
            the message carries the smallest admissible dimension.
    """
    if n_c < 0.0 or not math.isfinite(n_c):
        raise ValueError(f"n_c must be finite and >= 0, got {n_c!r}")
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    tail = (n_c / (n_c + 1.0)) ** dim
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail {tail:.3e} at dim {dim} exceeds {THERMAL_TAIL_TOL:g}; "
            f"use dim >= {min_thermal_dim(n_c)}"
        )
    weights = (n_c / (n_c + 1.0)) ** np.arange(dim) / (n_c + 1.0)
    return FockDensityMatrix(weights / weights.sum(), tail)


def _ladder_weights(dim: int, n: int) -> np.ndarray:
    """f_k^2 = (k+1) ... (k+n) for k < dim - n.

    f_k are the only nonzero entries of the ladder powers on the
    truncated basis: <k| a^n |k+n> = <k+n| a^dag^n |k> = f_k.
    """
    levels = np.arange(max(dim - n, 0), dtype=float)
    return np.prod(levels[:, None] + np.arange(1.0, n + 1), axis=1)


def apply_subtraction(rho: FockDensityMatrix, n: int) -> tuple[FockDensityMatrix, float]:
    """n-fold photon subtraction a^n rho a^dag^n, renormalized.

    On the populations w of rho, a^n rho a^dag^n has populations
    f_k^2 w_{k+n} with the ladder weights of ``_ladder_weights``: the
    populations shift down by n levels.  Returns the new state and the
    raw trace Tr[a^n rho a^dag^n], which equals the inverse normalization
    constant of the subtracted state.

    Raises:
        AnnihilatedStateError: when the raw trace underflows below the
            smallest normal double (or is NaN), e.g. subtracting from the
            vacuum.  A tiny but normal trace is a valid state: subtracting
            16 photons at theta = 0.1 leaves about 2e-19.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return rho, 1.0
    f2 = _ladder_weights(rho.dim, n)
    out = np.zeros(rho.dim)
    out[: f2.size] = f2 * rho.populations[n:]
    raw = float(out.sum())
    if not raw >= np.finfo(float).tiny:
        raise AnnihilatedStateError(
            f"subtracting {n} photon(s) annihilates the state (raw trace {raw:.3e})"
        )
    return FockDensityMatrix(out / raw), raw


def apply_addition(rho: FockDensityMatrix, n: int) -> tuple[FockDensityMatrix, float]:
    """n-fold photon addition a^dag^n rho a^n, renormalized.

    On the populations w of rho, a^dag^n rho a^n has population
    f_k^2 w_k at level k + n, the shifted-up counterpart of
    :func:`apply_subtraction`.  Returns the new state and the raw trace
    Tr[a^dag^n rho a^n], the inverse normalization constant of the added
    state.

    Raises:
        TruncationError: when the top n populations of rho (all of them
            if n >= dim) are not negligible (< 1e-12), so the upward
            shift would leak.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return rho, 1.0
    top = float(np.max(rho.populations[max(rho.dim - n, 0) :]))
    if top > 1e-12:
        raise TruncationError(
            f"insufficient headroom for adding {n} photon(s): top occupation "
            f"{top:.3e} at dim {rho.dim}"
        )
    f2 = _ladder_weights(rho.dim, n)
    out = np.zeros(rho.dim)
    out[n:] = f2 * rho.populations[: f2.size]
    raw = float(out.sum())
    return FockDensityMatrix(out / raw), raw


def _expm_antihermitian(generator: np.ndarray) -> np.ndarray:
    """exp(generator) of an anti-Hermitian matrix, as a complex array.

    i G is Hermitian, so i G = V diag(w) V^dag with V unitary and w real,
    and exp(G) = V diag(exp(-i w)) V^dag.  For a normal matrix this
    eigenvector method is well conditioned (Moler & Van Loan, SIAM
    Review 45, 2003) and the result is unitary to machine precision.
    """
    w, v = np.linalg.eigh(1j * generator)
    return (v * np.exp(-1j * w)) @ v.conj().T


def thermal_number_reduced(n: int, theta: float, dim: int = TWO_MODE_DIM) -> FockDensityMatrix:
    """Single-mode reduction of the squeezed doubled-space number state.

    The generator theta (a^dag a~^dag - a a~) conserves a^dag a - a~^dag a~,
    so exp[theta (a^dag a~^dag - a a~)] maps |n> x |n> into span{|k> x |k>}.
    On that span, truncated at ``dim`` levels per mode, the generator is
    the real tridiagonal matrix with <k+1|G|k> = theta (k+1) = -<k|G|k+1>;
    the truncated kron generator leaves the span invariant, so its
    exponential there is exact.  With c_k the amplitude of |k> x |k>,
    tracing out the tilde mode leaves the populations |c_k|^2.  This is
    the oracle for the finite-temperature number-state Wigner function;
    for n = 0 it reproduces the thermal state with n_c = sinh^2(theta).
    The truncated exponential loses no mass, so the state's ``tail`` is
    the deficit, the population of its top two levels, instead.

    Raises:
        TruncationError: when population within two levels of the cutoff
            exceeds 1e-8 (the squeezing spread the state past ``dim``).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    dim = int(dim)
    if n >= dim:
        raise ValueError(f"n = {n} does not fit in dim = {dim}")
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
    steps = float(theta) * np.arange(1.0, dim)
    generator = np.diag(steps, k=-1) - np.diag(steps, k=1)
    amplitudes = _expm_antihermitian(generator)[:, n]
    weights = amplitudes.real**2 + amplitudes.imag**2
    guard = 2
    deficit = float(np.sum(weights[dim - guard :]))
    if deficit > TWO_MODE_DEFICIT_TOL:
        raise TruncationError(
            f"two-mode truncation deficit {deficit:.3e} at dim {dim} per mode "
            f"(n = {n}, theta = {theta:g}) exceeds {TWO_MODE_DEFICIT_TOL:g}"
        )
    return FockDensityMatrix(weights / weights.sum(), deficit)


# ---------------------------------------------------------------------------
# displaced parity


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated basis.

    The generator is exactly anti-Hermitian, so
    :func:`_expm_antihermitian` returns a unitary matrix to machine
    precision.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if dim < 1 or dim != int(dim):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    a = np.diag(np.sqrt(np.arange(1.0, int(dim))), k=1)  # <m| a |m+1> = sqrt(m+1)
    return _expm_antihermitian(alpha * a.T - np.conj(alpha) * a)


def _parity_signs(dim: int) -> np.ndarray:
    signs = np.ones(dim)
    signs[1::2] = -1.0
    return signs


def _dense_headroom(dim: int, alpha_sq: float) -> int:
    """Zero levels the dense reference adds above a dim-level state.

    8 |alpha|^2 (the former grid padding), |alpha| sqrt(dim) for the
    spread 2 |alpha| sqrt(k) that displacement gives level k, halved as
    the top levels hold only the tail, and 16 for a displaced low level.
    """
    return 16 + math.ceil(8.0 * alpha_sq + math.sqrt(alpha_sq * dim))


def wigner_from_density(rho: FockDensityMatrix, point: PhasePoint) -> float:
    """Displaced-parity Wigner value of ``rho`` at one phase-space point.

    The reference evaluator: ``rho`` is zero-padded by
    :func:`_dense_headroom` for this point's |alpha| and displaced by the
    dense :func:`displacement_operator`; the displaced population of a
    guard band at the top of the padded basis must stay below
    ``LEAK_TOL``.

    Raises:
        TruncationError: when the padded basis exceeds ``DENSE_DIM_MAX``
            levels (before anything is allocated), or when the displaced
            state puts more than ``LEAK_TOL`` population into the guard
            band.
    """
    dim = rho.dim + _dense_headroom(rho.dim, point.abs2)
    if dim > DENSE_DIM_MAX:
        raise TruncationError(
            f"dense reference needs {dim} levels for |alpha|^2 = {point.abs2:.3g} "
            f"at state dim {rho.dim}, above its cap {DENSE_DIM_MAX}"
        )
    disp_op = displacement_operator(point.alpha, dim)
    weights = np.pad(rho.populations, (0, dim - rho.dim))
    # the diagonal of D^dag diag(w) D: sum_k conj(D_ki) w_k D_ki
    diag = np.einsum("ki,ki->i", disp_op.conj(), weights[:, None] * disp_op)
    band = max(3, dim // 12)
    leak = float(np.sum(diag.real[dim - band :]))
    if not leak <= LEAK_TOL:
        raise TruncationError(
            f"displacement leak {leak:.3e} at dim {dim} for |alpha| = "
            f"{abs(point.alpha):.3g} exceeds {LEAK_TOL:g}"
        )
    parity_sum = complex(np.sum(_parity_signs(dim) * diag))
    if not abs(parity_sum.imag) < 1e-10:
        raise RuntimeError(
            f"parity sum acquired an imaginary part {parity_sum.imag:.3e}"
        )
    return VACUUM_PEAK * parity_sum.real


def _parity_series(signed: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k signed_k l_k(x) for every x, with l_k(x) = exp(-x/2) L_k(x).

    Runs k L_k = (2k - 1 - x) L_(k-1) - (k - 1) L_(k-2) forward from
    L_0 = 1, the direction in which l_k grows through the classically
    forbidden levels k < x/4, and carries exp(-x/2) as a log scale.  Past
    2^500 each x is scaled by its own power of two, which is exact, and
    the log scale takes the exponent, so nothing underflows or overflows.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    acc = signed[0] * cur
    log_scale = -0.5 * x
    slope = -1.0 - x  # 2k - 1 - x, before the first step
    for k in range(1, signed.size):
        slope += 2.0
        prev, cur = cur, (slope * cur - (k - 1) * prev) / k
        acc += signed[k] * cur
        if k % _RESCALE_EVERY == 0:
            big = np.maximum(np.abs(cur), np.abs(prev))
            if big.max() > _RESCALE_ABOVE:
                exponent = np.maximum(np.frexp(big)[1], 0)
                scale = np.ldexp(1.0, -exponent)
                cur, prev, acc = cur * scale, prev * scale, acc * scale
                log_scale += math.log(2.0) * exponent
    return acc * np.exp(log_scale)


def wigner_grid_from_density(rho: FockDensityMatrix, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Displaced-parity Wigner values on the product grid q x p.

    ``rho`` is diagonal, so W depends on x = 4 |alpha|^2 = 2 (q^2 + p^2)
    alone: :func:`~thermalwigner.states.radial_grid` folds the grid onto
    its distinct x, each evaluated once as the series
    W = (1/pi) sum_k w_k (-1)^k l_k(x) of :func:`_parity_series`, with no
    matrix.  Agrees with the dense reference :func:`wigner_from_density`
    to machine precision and is the evaluator of oracle grids; verification
    calls :func:`wigner_radial_from_density` on its radii directly.

    Raises:
        ValueError: for an empty or non-finite axis.

    Returns an array of shape (len(q), len(p)).
    """
    return radial_grid(lambda abs2: wigner_radial_from_density(rho, abs2), q, p)


def wigner_radial_from_density(rho: FockDensityMatrix, abs2: np.ndarray) -> np.ndarray:
    """Displaced-parity Wigner values of the diagonal ``rho`` at each |alpha|^2 of ``abs2``.

    One pass of :func:`_parity_series` at x = 4 |alpha|^2; pass each
    distinct radius once.
    """
    x = 4.0 * np.asarray(abs2, dtype=float)
    return VACUUM_PEAK * _parity_series(rho.populations * _parity_signs(rho.dim), x)


def build_oracle_state(state: StateSpec, alpha_max_sq: float | None = None) -> FockDensityMatrix:
    """Fock populations of ``state``, cut where its own tail is below one ulp.

    A thermal (n = 0) or conditioned state keeps the levels that
    :func:`_conditioned_levels` asks for, built from a thermal parent
    with n more so that the shifted slice is exact, and carries its tail
    bound as ``tail``.  That tail dominates the parent's geometric one,
    so the parent always meets ``THERMAL_TAIL_TOL``; its refusal in
    :func:`thermal_density_matrix` stays as the guard.  The number state
    is built in its doubled-space invariant sector at 32 levels per
    mode.  ``alpha_max_sq`` is ignored, since no evaluator needs the
    box, and accepted for the callers that still pass it.
    """
    n, n_c = state.n, state.thermal.n_c
    if state.family is Family.THERMAL_NUMBER:
        return thermal_number_reduced(n, state.thermal.theta)
    levels = _conditioned_levels(n_c, n)
    rho = thermal_density_matrix(n_c, levels + n)
    if n == 0:
        return rho
    if state.family is Family.PHOTON_SUBTRACTED:
        child, _ = apply_subtraction(rho, n)
    else:
        child, _ = apply_addition(rho, n)
    tail = math.exp(_log_conditioned_tail(n_c, n, levels)) if n_c > 0.0 else 0.0
    return dataclasses.replace(child, tail=tail)
