"""Command-line front end: evaluate, verify, and export.

Subcommands:

  eval        sample one state's Wigner function on a box and write it
  verify      compare closed form and oracle on the state's norm box, write a report
  negativity  print the negativity volume of one state
  scan-theta  tabulate W(0) and negativity volume across temperatures

Exit codes: 0 success, 1 numerical or verification failure (with a
machine-readable reason in the output), 2 usage error, 141 (128 + SIGPIPE)
when stdout is the output and its reader closes it early, as ``head``
does; that exit writes nothing to stderr.  ``verify --out FILE`` prints
its PASS/FAIL line to stdout after the report is written; if that
line's reader has gone, it still exits with its verdict, 0 or 1, keeps
the report and writes nothing to stderr.  CSV floats are printed with
17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import __version__, analysis
from .analysis import Box, Source
from .states import Family, StateSpec
from .thermo import (
    THETA_MAX,
    ThermalParams,
    params_from_mean_photons,
    params_from_temperature,
    params_from_theta,
)

_FAMILIES = [f.value for f in Family]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _add_state_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--family", required=True, choices=_FAMILIES,
                        help="state family to evaluate")
    parser.add_argument("--n", type=int, default=0,
                        help="photon subtraction/addition or excitation count")
    parser.add_argument("--theta", type=float, default=None,
                        help="thermal squeeze parameter")
    parser.add_argument("--nc", type=float, default=None,
                        help="mean thermal photon number")
    parser.add_argument("--omega", type=float, default=None,
                        help="mode frequency (hbar = 1); requires --kt")
    parser.add_argument("--kt", type=float, default=None,
                        help="temperature in energy units; requires --omega")


def _thermal_from_args(parser: argparse.ArgumentParser, args) -> ThermalParams:
    routes = [args.theta is not None, args.nc is not None,
              args.omega is not None or args.kt is not None]
    if sum(routes) != 1:
        parser.error("supply exactly one of --theta, --nc, or --omega with --kt")
    if args.theta is not None:
        return params_from_theta(args.theta)
    if args.nc is not None:
        return params_from_mean_photons(args.nc)
    if args.omega is None or args.kt is None:
        parser.error("--omega and --kt must be supplied together")
    return params_from_temperature(args.omega, args.kt)


def _state_from_args(parser, args) -> StateSpec:
    return StateSpec(Family(args.family), _thermal_from_args(parser, args), n=args.n)


def _config_echo(args) -> dict:
    # a non-finite float argument is echoed as null: JSON has no NaN or infinity
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in vars(args).items() if k != "func"}


@contextlib.contextmanager
def _output(path):
    """The text stream a command writes to: stdout for None or "-", else the file at path."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _dump_json(payload: dict, fh):
    json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def write_grid_csv(grid: analysis.WignerGrid, fh):
    """q,p,w rows, row-major in q then p.

    Each axis is formatted once and each q row is converted and written
    in one call, so the writer holds one row of Python floats at a time.
    """
    fh.write("q,p,w\n")
    q_text = [_fmt(v) for v in grid.q_axis]
    p_text = [_fmt(v) for v in grid.p_axis]
    for q_str, row in zip(q_text, grid.values):
        fh.write("".join(f"{q_str},{p_str},{w:.17g}\n"
                         for p_str, w in zip(p_text, row.tolist())))


# Stands in for the grid values in the dumped JSON report; see write_grid_json.
_VALUES_MARK = "values follow"


def write_grid_json(grid: analysis.WignerGrid, fh, config: dict):
    """The grid report, byte for byte what ``_dump_json`` makes of it.

    The report is dumped with a placeholder for the values, which are
    then written in the same indent-2 layout one q row at a time, so the
    writer holds one row of Python floats instead of the whole grid.
    json writes a float as its ``repr``; grid values are finite.
    """
    body = dict(grid.to_dict(values=False), values=_VALUES_MARK)
    text = json.dumps({"version": __version__, "config": config, "grid": body},
                      indent=2, sort_keys=True, allow_nan=False)
    # "values" is the last key of "grid", so its placeholder is the last
    # occurrence of the string, after any config value that might equal it
    head, _, tail = text.rpartition(json.dumps(_VALUES_MARK))
    fh.write(head + "[")
    sep = "\n"
    for row in grid.values:  # rows at depth 3, their values at depth 4
        fh.write(sep + "      [\n        " + ",\n        ".join(map(repr, row.tolist()))
                 + "\n      ]")
        sep = ",\n"
    fh.write("\n    ]" + tail + "\n")


def write_report_json(report: analysis.VerificationReport, fh, config: dict):
    _dump_json({"version": __version__, "config": config, "report": report.to_dict(),
                "tolerances": report.tolerances}, fh)


def _error_name(exc: Exception) -> str:
    """The exception's first public class name.

    numpy reports a failed allocation as its private ``_ArrayMemoryError``,
    a subclass of ``MemoryError``; the failure JSON names the latter.
    """
    return next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_"))


def _discard_stdout():
    """Point stdout at os.devnull once its reader has gone: the flush at exit is silent too."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write_failure(path, config: dict, exc: Exception):
    payload = {
        "version": __version__,
        "config": config,
        "error": _error_name(exc),
        "message": str(exc),
    }
    try:
        with _output(path) as fh:
            _dump_json(payload, fh)
    except OSError:  # the report cannot be written there: put it on stderr
        _dump_json(payload, sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(parser, args) -> int:
    if args.res < 2:
        parser.error("--res must be at least 2")
    if not (math.isfinite(args.box) and args.box > 0.0):
        parser.error("--box must be a positive finite half-width")
    state = _state_from_args(parser, args)
    box = Box.symmetric(args.box)
    grid = analysis.sample_grid(state, box, args.res, args.res, Source(args.source))
    with _output(args.out) as fh:
        if args.format == "csv":
            write_grid_csv(grid, fh)
        else:
            write_grid_json(grid, fh, _config_echo(args))
    return 0


def _cmd_verify(parser, args) -> int:
    for flag, tol in (("--tol-max-err", args.tol_max_err), ("--tol-norm", args.tol_norm)):
        if tol is not None and not (math.isfinite(tol) and tol > 0.0):
            parser.error(f"{flag} must be a positive finite number, got {tol!r}")
    report = analysis.verify_state(_state_from_args(parser, args),
                                   max_err_tol=args.tol_max_err, norm_tol=args.tol_norm)
    with _output(args.out) as fh:
        write_report_json(report, fh, _config_echo(args))
    if args.out not in (None, "-"):
        status = "PASS" if report.passed else "FAIL"
        err = (f"{report.max_abs_err:.3e}" if math.isfinite(report.max_abs_err)
               else "not measured")
        try:
            print(f"{status} {report.label} (max_abs_err={err})", flush=True)
        except BrokenPipeError:  # the line's reader has gone; the report is written
            _discard_stdout()
    return 0 if report.passed else 1


def _cmd_negativity(parser, args) -> int:
    state = _state_from_args(parser, args)
    value = analysis.negativity_of_state(state, Source(args.source))
    print(_fmt(value))
    return 0


def _cmd_scan_theta(parser, args) -> int:
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    # refused as typed, before any step runs, not at the first interior step beyond it
    for flag, theta in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
        if not 0.0 <= theta <= THETA_MAX:
            parser.error(f"{flag} must lie in [0, {THETA_MAX:g}], got {theta!r}")
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    rows = analysis.scan_theta(
        Family(args.family), args.n, thetas,
        include_negativity=not args.no_negativity,
    )
    columns = ["theta", "w0", "abs_w0"]
    if not args.no_negativity:
        columns.append("negativity_volume")
    # "%.17g" % x is format(x, ".17g"), the text of _fmt, for every float
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    text = "".join(line % tuple(row[c] for c in columns) for row in rows)
    with _output(args.out) as fh:
        fh.write(",".join(columns) + "\n" + text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalwigner",
        description="Wigner functions of finite-temperature bosonic states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sample a Wigner function on a grid")
    _add_state_arguments(p_eval)
    p_eval.add_argument("--box", type=float, default=4.0,
                        help="half-width of the symmetric (q, p) box")
    p_eval.add_argument("--res", type=int, default=81, help="nodes per axis")
    p_eval.add_argument("--source", choices=[s.value for s in Source],
                        default=Source.CLOSED_FORM.value)
    p_eval.add_argument("--out", default=None, help="output path (default stdout)")
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="closed form vs Fock oracle report")
    _add_state_arguments(p_verify)
    p_verify.add_argument("--tol-max-err", type=float, default=None,
                          help="max pointwise error tolerance (default per family)")
    p_verify.add_argument("--tol-norm", type=float, default=analysis.NORM_TOL)
    p_verify.add_argument("--out", default=None, help="report path (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_neg = sub.add_parser("negativity", help="print the negativity volume")
    _add_state_arguments(p_neg)
    p_neg.add_argument("--source", choices=[s.value for s in Source],
                       default=Source.CLOSED_FORM.value)
    p_neg.set_defaults(func=_cmd_negativity)

    p_scan = sub.add_parser("scan-theta",
                            help="W(0) and negativity volume versus temperature")
    p_scan.add_argument("--family", required=True, choices=_FAMILIES)
    p_scan.add_argument("--n", type=int, default=0)
    p_scan.add_argument("--theta-min", type=float, default=0.1)
    p_scan.add_argument("--theta-max", type=float, default=2.0)
    p_scan.add_argument("--steps", type=int, default=20)
    p_scan.add_argument("--no-negativity", action="store_true",
                        help="skip the negativity column")
    p_scan.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_scan.set_defaults(func=_cmd_scan_theta)
    return parser


@lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process reuses.

    Building the tree costs about 1.6 ms, parsing one command line about
    0.1 ms (Python 3.11, 2-CPU VM); ``parse_args`` returns a fresh
    namespace each call.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _main_parser()
    args = parser.parse_args(argv)
    to_stdout = getattr(args, "out", None) in (None, "-")
    try:
        code = args.func(parser, args)
        if to_stdout:  # a reader that closed early is met here, not at exit
            sys.stdout.flush()
        return code
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        if to_stdout and isinstance(exc, BrokenPipeError):
            # the reader has gone, which is no failure
            _discard_stdout()
            return 141  # 128 + SIGPIPE, what a shell reports for a filter it killed
        _write_failure(getattr(args, "out", None), _config_echo(args), exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
