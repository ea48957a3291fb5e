"""Independent ground truth in a truncated Fock space.

Every state the library has a closed form for is rebuilt here as its
Fock populations, the diagonal of its density matrix in the number
basis, and its Wigner function is evaluated through the displaced
photon-number parity (Royer 1977),

    W(q, p) = pref * sum_k (-1)^k <k| D(alpha)^dag rho D(alpha) |k>,

with D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated basis
and alpha = (q + i p) / sqrt(2).  Nothing in this module uses the
closed-form expressions, so pointwise agreement between the two routes
certifies both.

Every state is built by an operation that conserves a photon-number
difference, so it is diagonal in the number basis and its populations
are the whole state: thermal weights, ladder conditioning
a^n rho a^dag^n (a shifted, reweighted slice of the populations), and,
for the number family, the two-mode squeeze of |n> x |n> restricted to
its invariant sector span{|k> x |k>} (thermo field dynamics, Takahashi
& Umezawa 1975).  A diagonal state's Wigner function depends on |alpha|
alone, so the grid evaluator computes the displaced parity once per
distinct radius, as a displacement along q.

Two symmetries hold exactly in the truncated basis and make that
evaluation real.  With P = diag(i^k), the q-displacement generator is
(a^dag - a)/sqrt(2) = P (-i x) P^dag, where x = (a + a^dag)/sqrt(2) is
real, symmetric and tridiagonal with a zero diagonal; so one real
eigendecomposition x = U diag(mu) U^T gives every q-displacement.  And the
parity Pi = diag((-1)^k) anticommutes with x, so Pi D(alpha) Pi =
D(-alpha) and D(alpha) Pi D(alpha)^dag = D(2 alpha) Pi: the displaced
parity is a single displacement, and the spectrum of x pairs mu with -mu.
The dense matrix-exponential evaluator ``wigner_from_density`` stays as
the reference the grid evaluator is tested against.

The prefactor is not hard-coded: conventions for the parity identity
differ across sources, so it is calibrated once by requiring the vacuum
value at the origin to be 1/pi, the peak height that makes
integral W dq dp = 1 (a startup self-test, see ``parity_prefactor``).

Truncation policy: the thermal tail beyond the cutoff must be below
1e-12, and displacement headroom of max(10, 4 n + ceil(8 |alpha|^2_max))
extra levels is added on top because displacing by alpha pushes
population up by about |alpha|^2 levels.  Leak past the cutoff is
monitored at every evaluation through the population of a guard band at
the top of the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .states import Family, PhasePoint, StateSpec

# Default per-mode truncation of the doubled-space number-state build.
TWO_MODE_DIM = 32

THERMAL_TAIL_TOL = 1e-12
DEFAULT_LEAK_TOL = 1e-10
TWO_MODE_DEFICIT_TOL = 1e-8

_SQRT2 = math.sqrt(2.0)

# Vacuum Wigner peak under the integral-one-over-dq-dp convention.
VACUUM_PEAK = 1.0 / math.pi


class TruncationError(RuntimeError):
    """The truncated basis cannot represent the requested computation."""


class AnnihilatedStateError(ValueError):
    """The operation maps the state to (numerically) zero."""


@dataclass
class FockDensityMatrix:
    """Truncated density matrix diag(populations) in the number basis.

    Every state the oracle builds conserves a photon-number difference,
    so it is diagonal and its populations are the whole state; a real
    diagonal is Hermitian by construction.  Construction refuses
    anything but a non-empty 1-D vector of finite entries, checks unit
    trace (1e-10) and the eigenvalue floor (every population >= -1e-10),
    and freezes the vector read-only.
    """

    populations: np.ndarray

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
        populations.setflags(write=False)
        object.__setattr__(self, "populations", populations)

    @property
    def dim(self) -> int:
        return self.populations.size

    def mean_photons(self) -> float:
        return float(np.arange(self.dim) @ self.populations)


def min_thermal_dim(n_c: float, tail_tol: float = THERMAL_TAIL_TOL) -> int:
    """Smallest truncation whose neglected thermal tail is below tail_tol.

    The tail of the geometric occupation is (n_c / (n_c+1))^N.
    """
    if n_c < 0.0 or not math.isfinite(n_c):
        raise ValueError(f"n_c must be finite and >= 0, got {n_c!r}")
    if n_c == 0.0:
        return 1
    ratio = n_c / (n_c + 1.0)
    return max(1, math.ceil(math.log(tail_tol) / math.log(ratio)))


def displacement_padding(n: int, alpha_max_sq: float) -> int:
    """Extra levels above the state support needed for displaced parity."""
    return max(10, 4 * int(n) + math.ceil(8.0 * float(alpha_max_sq)))


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
    if n_c > 0.0:
        tail = (n_c / (n_c + 1.0)) ** dim
        if tail > THERMAL_TAIL_TOL:
            raise TruncationError(
                f"thermal tail {tail:.3e} at dim {dim} exceeds {THERMAL_TAIL_TOL:g}; "
                f"use dim >= {min_thermal_dim(n_c)}"
            )
        levels = np.arange(dim)
        weights = (n_c / (n_c + 1.0)) ** levels / (n_c + 1.0)
    else:
        weights = np.zeros(dim)
        weights[0] = 1.0
    return FockDensityMatrix(weights / weights.sum())


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
    amplitudes = scipy.linalg.expm(generator)[:, n]
    weights = amplitudes * amplitudes
    guard = 2
    deficit = float(np.sum(weights[dim - guard :]))
    if deficit > TWO_MODE_DEFICIT_TOL:
        raise TruncationError(
            f"two-mode truncation deficit {deficit:.3e} at dim {dim} per mode "
            f"(n = {n}, theta = {theta:g}) exceeds {TWO_MODE_DEFICIT_TOL:g}"
        )
    return FockDensityMatrix(weights / weights.sum())


# ---------------------------------------------------------------------------
# displaced parity


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated basis.

    The generator is exactly anti-Hermitian, so the Pade
    scaling-and-squaring exponential returns a unitary matrix to machine
    precision.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if dim < 1 or dim != int(dim):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    a = np.diag(np.sqrt(np.arange(1.0, int(dim))), k=1)  # <m| a |m+1> = sqrt(m+1)
    return scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)


def _parity_signs(dim: int) -> np.ndarray:
    signs = np.ones(dim)
    signs[1::2] = -1.0
    return signs


def _guard_band(dim: int) -> int:
    return max(3, dim // 12)


@lru_cache(maxsize=1)
def parity_prefactor() -> float:
    """Calibrated prefactor of the displaced-parity sum.

    Fixed by requiring the vacuum Wigner value at the origin to equal
    1/pi (the convention in which W integrates to 1 over dq dp with
    alpha = (q + i p)/sqrt(2)).  The undisplaced vacuum parity sum is
    computed numerically and must be 1 to 1e-12; anything else means the
    parity machinery is broken, so this doubles as a startup self-test.
    """
    dim = 8
    vacuum = np.zeros(dim)
    vacuum[0] = 1.0
    parity_sum = float(_parity_signs(dim) @ vacuum)
    if abs(parity_sum - 1.0) > 1e-12:
        raise RuntimeError(
            f"displaced-parity self-test failed: vacuum parity sum {parity_sum!r}"
        )
    return VACUUM_PEAK / parity_sum


def _check_leak_tol(leak_tol: float) -> None:
    # a NaN tolerance would let every leak comparison pass
    if not (math.isfinite(leak_tol) and leak_tol > 0.0):
        raise ValueError(f"leak_tol must be positive and finite, got {leak_tol!r}")


def wigner_from_density(
    rho: FockDensityMatrix,
    point: PhasePoint,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> float:
    """Displaced-parity Wigner value of ``rho`` at one phase-space point.

    Raises:
        ValueError: when ``leak_tol`` is not positive and finite.
        TruncationError: when the displaced state puts more than
            ``leak_tol`` population into the guard band at the top of the
            basis, i.e. |alpha| is too large for the truncation.
    """
    _check_leak_tol(leak_tol)
    disp_op = displacement_operator(point.alpha, rho.dim)
    # the diagonal of D^dag diag(w) D: sum_k conj(D_ki) w_k D_ki
    diag = np.einsum("ki,ki->i", disp_op.conj(), rho.populations[:, None] * disp_op)
    band = _guard_band(rho.dim)
    leak = float(np.sum(diag.real[rho.dim - band :]))
    if not leak <= leak_tol:
        raise TruncationError(
            f"displacement leak {leak:.3e} at dim {rho.dim} for |alpha| = "
            f"{abs(point.alpha):.3g} exceeds {leak_tol:g}"
        )
    parity_sum = complex(np.sum(_parity_signs(rho.dim) * diag))
    if not abs(parity_sum.imag) < 1e-10:
        raise RuntimeError(
            f"parity sum acquired an imaginary part {parity_sum.imag:.3e}"
        )
    return parity_prefactor() * parity_sum.real


@lru_cache(maxsize=8)
def _quadrature_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of the quadrature x = (a + a^dag)/sqrt(2).

    x is real, symmetric and tridiagonal with a zero diagonal, so
    ``eigh_tridiagonal`` returns real ascending eigenvalues mu and a real
    orthogonal U with x = U diag(mu) U^T.  With P = diag(i^k), the
    q-displacement generator is (a^dag - a)/sqrt(2) = P (-i x) P^dag, so

        D(r / sqrt(2)) = P U exp(-i r mu) U^T P^dag.

    P is diagonal, so it drops out of every diagonal element and of every
    diagonal state the grid evaluator handles.  The parity anticommutes
    with x, so mu_k = -mu_{dim-1-k} and column dim-1-k of U is the parity
    image of column k, up to sign and rounding.  The arrays are shared
    between callers and read-only.
    """
    mu, vec = scipy.linalg.eigh_tridiagonal(
        np.zeros(dim), np.sqrt(np.arange(1.0, dim)) / _SQRT2
    )
    mu.setflags(write=False)
    vec.setflags(write=False)
    return mu, vec


# Radii evaluated together by the grid evaluator: its work buffers hold
# (chunk, dim / 2) trig values, so memory is O(chunk dim + dim^2) for any grid.
_RADIUS_CHUNK = 256


def wigner_grid_from_density(
    rho: FockDensityMatrix,
    q: np.ndarray,
    p: np.ndarray,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> np.ndarray:
    """Displaced-parity Wigner values on the product grid q x p.

    ``rho`` is diagonal in the number basis, so its Wigner function depends
    on |alpha| alone, and each distinct radius r = hypot(q, p) is
    evaluated once, as a displacement along q, in the real eigenbasis
    x = U diag(mu) U^T of :func:`_quadrature_eig`.  With w the populations
    of rho, the reflection identity D(alpha) Pi D(alpha)^dag = D(2 alpha) Pi
    turns the parity into one displacement,

        W(r) = pref * sum_j g_j cos(2 r mu_j),  g = (U o U)^T (w o (-1)^k),

    whose sine counterpart must vanish (checked to 1e-10).  The
    guard-band leak is a real quadratic form, with c = cos(r mu) and
    s = sin(r mu),

        leak(r) = c^T K c + s^T K s,  K = (U^T diag(w) U) o (U_band^T U_band),

    checked at every distinct radius.  K and g are invariant under the
    pairing mu -> -mu, and c is even and s odd under it, so both sums are
    folded onto the half spectrum mu >= 0: two trig calls and two
    (chunk x dim/2) @ (dim/2 x dim/2) products per chunk of radii, where
    the mu = 0 mode of an odd dim is its own partner and counts half.
    Agrees with the dense reference :func:`wigner_from_density` to
    machine precision and is the evaluator the verification grids use.

    Raises:
        ValueError: for an empty or non-finite axis, or a ``leak_tol``
            that is not positive and finite.
        TruncationError: when the leak at some radius exceeds ``leak_tol``.

    Returns an array of shape (len(q), len(p)).
    """
    _check_leak_tol(leak_tol)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.size == 0 or p.size == 0:
        raise ValueError(f"grid axes must be non-empty, got {q.size} x {p.size} nodes")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("grid axes must be finite")
    dim = rho.dim
    weights = rho.populations
    mu, vec = _quadrature_eig(dim)
    # Columns [half, dim) of vec carry mu >= 0; column dim-1-k pairs with k.
    half = dim // 2
    upper = vec[:, half:]
    band = vec[dim - _guard_band(dim) :]
    g = (vec * vec).T @ (weights * _parity_signs(dim))
    kernel = ((upper.T * weights) @ vec) * (band[:, half:].T @ band)
    g_up, g_down = g[half:], g[: dim - half][::-1]
    k_up, k_down = kernel[:, half:], kernel[:, : dim - half][:, ::-1]
    multiplicity = np.ones(dim - half)
    if dim % 2:
        multiplicity[0] = 0.5  # the mu = 0 mode is its own partner
    g_cos = (g_up + g_down) * multiplicity
    g_sin = (g_up - g_down) * multiplicity
    pair = 2.0 * np.outer(multiplicity, multiplicity)
    k_cos = (k_up + k_down) * pair
    k_sin = (k_up - k_down) * pair
    mu_up = mu[half:]

    radii, inverse = np.unique(np.hypot(q[:, None], p[None, :]), return_inverse=True)
    values = np.empty(radii.size)
    imag = np.empty(radii.size)
    leak = np.empty(radii.size)
    for start in range(0, radii.size, _RADIUS_CHUNK):
        chunk = slice(start, start + _RADIUS_CHUNK)
        angle = radii[chunk, None] * mu_up
        cos, sin = np.cos(angle), np.sin(angle)
        leak[chunk] = np.einsum("ij,ij->i", cos @ k_cos, cos) + np.einsum(
            "ij,ij->i", sin @ k_sin, sin
        )
        values[chunk] = (cos * cos - sin * sin) @ g_cos
        imag[chunk] = (2.0 * sin * cos) @ g_sin

    worst = float(np.max(leak))
    if not worst <= leak_tol:
        raise TruncationError(
            f"displacement leak up to {worst:.3e} on the grid at dim {dim} "
            f"exceeds {leak_tol:g}; enlarge the truncation or shrink the box"
        )
    worst_imag = float(np.max(np.abs(imag)))
    if not worst_imag < 1e-10:
        raise RuntimeError(f"parity sums acquired an imaginary part {worst_imag:.3e}")
    return parity_prefactor() * values[inverse].reshape(q.size, p.size)


def build_oracle_state(state: StateSpec, alpha_max_sq: float) -> FockDensityMatrix:
    """Fock populations of ``state`` sized for displacements up to alpha_max_sq.

    The truncation is the smallest thermal-tail-safe dimension plus the
    displacement padding.  The number state is built in its doubled-space
    invariant sector at 32 levels per mode, then zero-padded for headroom.
    """
    pad = displacement_padding(state.n, alpha_max_sq)
    if state.family is Family.THERMAL_NUMBER:
        reduced = thermal_number_reduced(state.n, state.thermal.theta)
        return FockDensityMatrix(np.pad(reduced.populations, (0, pad)))
    dim = min_thermal_dim(state.thermal.n_c) + pad
    rho = thermal_density_matrix(state.thermal.n_c, dim)
    if state.family is Family.PHOTON_SUBTRACTED and state.n > 0:
        rho, _ = apply_subtraction(rho, state.n)
    elif state.family is Family.PHOTON_ADDED and state.n > 0:
        rho, _ = apply_addition(rho, state.n)
    return rho
