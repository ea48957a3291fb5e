"""Output checks, run outside the timed region after each op.

The benchmark runs them in the checker process (``checker.py``), not in
the workload's process, so their reference grids and oracle builds do
not count in its peak memory.

Each check returns ``(status, reason)``:

* ``ok``: the op delivered its result and the result checks out;
* ``failed``: the program reported a failure in its documented way
  (exit 1 with a failure JSON or a report with ``passed: false``);
* ``wrong``: the output is malformed, inconsistent or numerically off.

``failed`` and ``wrong`` both count as failed ops; only ``wrong`` makes
a run incorrect.
"""

from __future__ import annotations

import functools
import json
import random

import numpy as np

from thermalwigner import analysis, fock_oracle
from thermalwigner.analysis import Box, Source
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

import workloads

# README tolerances for closed form vs oracle.
SINGLE_MODE_TOL = 1e-8
NUMBER_TOL = 1e-6

# The oracle "does not build" for a state when it refuses it this way.
_ORACLE_REFUSALS = (fock_oracle.TruncationError, fock_oracle.AnnihilatedStateError, ValueError)


def _tolerance(family: str) -> float:
    return NUMBER_TOL if family == "number" else SINGLE_MODE_TOL


def _state(op) -> StateSpec:
    return StateSpec(Family(op.family), params_from_theta(op.theta), n=op.n)


def _oracle_value(state: StateSpec, q: float, p: float):
    """Oracle W(q, p), or None where the oracle cannot build the state."""
    try:
        rho = fock_oracle.build_oracle_state(state, 0.5 * (q * q + p * p))
        return fock_oracle.wigner_from_density(rho, PhasePoint(q, p))
    except _ORACLE_REFUSALS:
        return None


@functools.lru_cache(maxsize=None)
def _oracle_origin(family: str, n: int, theta: float):
    """Oracle W(0, 0); cached, since every block of sweep repeats each (family, n)."""
    return _oracle_value(StateSpec(Family(family), params_from_theta(theta), n=n), 0.0, 0.0)


def _nonzero_exit(rc: int, path: str):
    """Verdict for an op that exited nonzero: documented failure or not."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = None
    if rc == 1 and isinstance(payload, dict) and "error" in payload:
        return "failed", f"{payload['error']}: {payload.get('message', '')}"
    return "wrong", f"exit {rc} without a failure payload"


def check_certify(op, rc: int, path: str):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return "wrong", f"report unreadable: {exc}"
    if "error" in payload:
        return _nonzero_exit(rc, path)
    report = payload.get("report")
    if not isinstance(report, dict) or "passed" not in report:
        return "wrong", "report JSON has no report.passed"
    passed = report["passed"] is True
    if passed != (rc == 0):
        return "wrong", f"passed={report['passed']} but exit {rc}"
    if not passed:
        return "failed", "; ".join(report.get("errors") or []) or (
            f"max_abs_err {report.get('max_abs_err')} norm {report.get('norm_integral')}")
    tol = report["tolerances"]
    if not (report["max_abs_err"] <= tol["max_abs_err"]
            and abs(report["norm_integral"] - 1.0) <= tol["norm"]
            and not report["errors"]):
        return "wrong", "report passed outside its own tolerances"
    return "ok", ""


def check_sweep(op, rc: int, path: str):
    if rc != 0:
        return _nonzero_exit(rc, path)
    with open(path) as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "theta,w0,abs_w0,negativity_volume":
        return "wrong", f"header {header!r}"
    if rows.shape != (workloads.SWEEP_STEPS, 4) or not np.all(np.isfinite(rows)):
        return "wrong", f"expected {workloads.SWEEP_STEPS} finite rows, got shape {rows.shape}"
    thetas = np.linspace(*workloads.SWEEP_THETA, workloads.SWEEP_STEPS)
    if not np.array_equal(rows[:, 0], thetas):
        return "wrong", "theta column differs from the default steps"
    if not np.array_equal(rows[:, 2], np.abs(rows[:, 1])):
        return "wrong", "abs_w0 is not |w0|"
    if np.any(rows[:, 3] < 0.0):
        return "wrong", "negative negativity volume"
    oracle = _oracle_origin(op.family, op.n, float(thetas[0]))
    if oracle is not None and abs(oracle - rows[0, 1]) > _tolerance(op.family):
        return "wrong", f"W(0) {rows[0, 1]!r} vs oracle {oracle!r} at theta {thetas[0]}"
    return "ok", ""


def check_export(op, rc: int, path: str, seed: int):
    if rc != 0:
        return _nonzero_exit(rc, path)
    res = op.res
    state = _state(op)
    grid = analysis.sample_grid(state, Box.symmetric(workloads.EXPORT_BOX), res, res,
                                Source.CLOSED_FORM)
    if op.fmt == "csv":
        with open(path) as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "q,p,w":
            return "wrong", f"header {header!r}"
        if rows.shape != (res * res, 3):
            return "wrong", f"expected {res * res} rows, got shape {rows.shape}"
        if not (np.array_equal(rows[:, 0], np.repeat(grid.q_axis, res))
                and np.array_equal(rows[:, 1], np.tile(grid.p_axis, res))):
            return "wrong", "q,p columns are not the row-major grid nodes"
        values = rows[:, 2].reshape(res, res)
    else:
        with open(path) as fh:
            payload = json.load(fh)
        body = payload["grid"]
        if (body["nq"], body["np"], body["source"]) != (res, res, Source.CLOSED_FORM.value):
            return "wrong", f"grid echo {body['nq']}x{body['np']} {body['source']}"
        values = np.array(body["values"], dtype=float)
    if values.shape != (res, res) or not np.array_equal(values, grid.values):
        return "wrong", "values do not round-trip from sample_grid"
    if res < max(workloads.EXPORT_RESOLUTIONS):
        return "ok", ""
    # On 1001^2 grids, one seeded node in the central half of the box, where
    # the oracle basis stays small: the oracle build costs more than the op
    # on a small grid, so small grids get the round trip only.
    rng = random.Random(f"export-nodes:{seed}:{op.index}")
    central = np.flatnonzero(np.abs(grid.q_axis) <= workloads.EXPORT_BOX / 2)
    i, j = rng.choice(central), rng.choice(central)
    oracle = _oracle_value(state, float(grid.q_axis[i]), float(grid.p_axis[j]))
    if oracle is not None and abs(oracle - values[i, j]) > _tolerance(op.family):
        return "wrong", f"W at node ({i}, {j}) {values[i, j]!r} vs oracle {oracle!r}"
    return "ok", ""


def check(op, rc: int, path: str, seed: int):
    if op.command == "verify":
        return check_certify(op, rc, path)
    if op.command == "scan-theta":
        return check_sweep(op, rc, path)
    return check_export(op, rc, path, seed)
