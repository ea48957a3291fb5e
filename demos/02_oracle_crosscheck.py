"""Certify the closed forms against the truncated Fock-space oracle.

The oracle builds each state as its Fock populations, the diagonal of
its density matrix in the number basis, and evaluates its Wigner
function by displaced photon parity, sharing no code with the
closed-form expressions.  Pointwise
agreement of the two routes on a grid is the library's core evidence.

Run:  python demos/02_oracle_crosscheck.py
"""

import time

import numpy as np

from thermalwigner import (
    Box,
    Family,
    Source,
    StateSpec,
    params_from_theta,
    sample_grid,
    verify_state,
)

print("=== Pointwise oracle agreement, 81 x 81 on [-4, 4]^2 ===")
for family, n, theta in [
    (Family.THERMAL_VACUUM, 0, 0.5),
    (Family.PHOTON_SUBTRACTED, 2, 0.8),
    (Family.PHOTON_ADDED, 5, 0.2),
]:
    state = StateSpec(family, params_from_theta(theta), n=n)
    start = time.monotonic()
    closed = sample_grid(state, Box.symmetric(4.0), 81, 81, Source.CLOSED_FORM)
    oracle = sample_grid(state, Box.symmetric(4.0), 81, 81, Source.ORACLE)
    err = np.max(np.abs(closed.values - oracle.values))
    print(f"  {state.describe():<28} max |closed - oracle| = {err:.3e}"
          f"   ({time.monotonic() - start:.1f}s)")

print()
print("=== The doubled-space route for the thermal number state ===")
print("(two-mode squeeze of |n> x |n> in its invariant sector span{|k> x |k>},")
print(" reduced to the weights |c_k|^2, then the displaced parity once per radius")
print(" as one Laguerre series over the weights, sum_k w_k (-1)^k exp(-x/2) L_k(x))")
state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.5), n=2)
start = time.monotonic()
report = verify_state(state)
print(f"  {report.label}")
print(f"  max_abs_err = {report.max_abs_err:.3e}  (tolerance {report.tolerances['max_abs_err']:g})")
print(f"  normalization integral = {report.norm_integral:.10f}")
print(f"  negativity volume = {report.negativity_volume:.3e}")
print(f"  passed = {report.passed}   ({time.monotonic() - start:.1f}s)")
