"""One workload in a fresh interpreter: set-up, timed pass, optional traced pass.

Started by ``run.py``; writes its raw measurements as JSON to ``--result``.
Set-up time runs from just before ``import thermalwigner`` to the end of
the fixed warm-up, so it covers the cold path a one-shot CLI user pays:
imports, the self-checks and the first-call caches.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Fixed warm-up, the same for every workload and seed: one small op per
# subcommand, which fills the quadrature self-check and parity caches.
WARM_UP = (
    ["verify", "--family", "vacuum", "--n", "0", "--theta", "0.5"],
    ["scan-theta", "--family", "vacuum", "--n", "0", "--steps", "2"],
    ["eval", "--family", "vacuum", "--n", "0", "--theta", "0.5", "--res", "81", "--format", "csv"],
    ["eval", "--family", "vacuum", "--n", "0", "--theta", "0.5", "--res", "81", "--format", "json"],
)


def import_program():
    """Import the checkout's thermalwigner, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import thermalwigner
    from thermalwigner import cli

    if Path(thermalwigner.__file__).resolve().parent != src / "thermalwigner":
        raise SystemExit(f"thermalwigner imported from {thermalwigner.__file__}, not {src}")
    return cli


def call_cli(cli, argv):
    """Run ``cli.main(argv)`` with its console output captured; returns (rc, error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), f"exit: {sink.getvalue()[-500:]}"
    except Exception:
        return None, traceback.format_exc(limit=-3)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from the mount table."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, tmp: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "tmp_dir": str(tmp.relative_to(ROOT)),
        "tmp_filesystem": filesystem_of(tmp),
    }


def _digest(path: Path):
    if not path.exists():
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def reset_peak_rss() -> bool:
    """Lower this process's peak resident memory to its current value.

    Linux 4.0 and later reset the high-water mark that ``ru_maxrss``
    reports on writing 5 to ``/proc/self/clear_refs``.  Returns False
    where that is not possible; the peak then covers set-up too.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


_LIBC = ctypes.CDLL(None)


def release_memory() -> None:
    """Hand the heap's free pages back to the system, where glibc allows it.

    A one-shot CLI user runs each op in a fresh process.  Here the ops
    share one, and without this the heap that earlier ops grew, in an
    order the seed picks, would set the peak memory of later ones.
    """
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def run_pass(cli, blocks, tmp: Path, verdict, limit_s=None, recorder=None, digests=False,
             between_ops=None):
    """Closed loop over ``blocks``: each op starts when the previous one returns.

    Only the CLI call is timed; ``verdict(op, rc, path, digest)`` judges
    each output after the clock stops, and the output is then deleted.
    After each op's clock stops the heap is trimmed (``release_memory``)
    and ``between_ops()``, if given, runs.
    With ``digests`` each output's SHA-256 is recorded for a later replay.
    Past ``limit_s`` of timed work the pass stops at the next block
    boundary, which bounds a run on a much slower machine.
    """
    records, ran, timed = [], [], 0.0
    for block in blocks:
        for op in block:
            path = tmp / f"op{op.suffix}"
            if recorder is not None:
                recorder.op = op.index
            start = time.perf_counter()
            rc, error = call_cli(cli, op.argv(str(path)))
            latency = time.perf_counter() - start
            if recorder is not None:
                recorder.op = None
            release_memory()
            if between_ops is not None:
                between_ops()
            timed += latency
            size = path.stat().st_size if path.exists() else 0
            digest = _digest(path) if digests else None
            if error is not None:
                status, reason = "wrong", error
            else:
                try:
                    status, reason = verdict(op, rc, str(path), digest)
                except Exception:
                    status, reason = "wrong", traceback.format_exc(limit=-3)
            path.unlink(missing_ok=True)
            records.append({"op": op.describe(), "latency_s": latency, "rc": rc,
                            "status": status, "reason": reason, "bytes": size,
                            "sha256": digest})
        ran.append(block)
        if limit_s is not None and timed > limit_s:
            break
    return records, ran, timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, help="path of the JSON to write")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = import_program()
    tmp = HERE / "out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for warm in WARM_UP:
            rc, error = call_cli(cli, warm + ["--out", str(tmp / "warm-up")])
            if rc != 0:
                raise SystemExit(f"warm-up {warm} failed with exit {rc}: {error}")
        result = {"setup_s": time.perf_counter() - start}
        if not args.setup_only:
            result.update(measure(cli, args, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, args, tmp: Path) -> dict:
    # Imported here, not at the top: they import numpy, which must load
    # inside the set-up clock.
    import calibrate
    import tracing
    import workloads
    from checker import Checker

    count = workloads.block_count(args.workload, args.seconds)
    blocks = itertools.islice(workloads.blocks(args.workload, args.seed), count)
    # The checks run in a process of their own: their reference grids and
    # oracle builds would otherwise set this process's peak memory.
    with Checker(args.seed) as checker:
        # The peak covers the timed ops only: the warm-up's verify alone
        # reaches about 170 MiB, above what a whole sweep pass needs.
        peak_scope = "timed pass" if reset_peak_rss() else "process"
        # The machine's speed, sampled between the timed ops (calibrate.py).
        calibration = []
        records, ran, timed = run_pass(
            cli, blocks, tmp, lambda op, rc, path, digest: checker.check(op, rc, path),
            limit_s=workloads.SLOW_LIMIT * args.seconds, digests=bool(args.trace),
            between_ops=lambda: calibration.extend(calibrate.sample(calibrate.REPS_PER_OP)))
    result = {
        "env": environment(args.seed, tmp),
        "records": records,
        "blocks": len(ran),
        "timed_s": timed,
        "calibration_s": calibration,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_rss_scope": peak_scope,
    }
    if args.trace:
        # The replay runs the same ops; each output must be byte-identical
        # to the checked one of the untraced pass.
        checked = {r["op"]["index"]: r for r in records}

        def same_as_untraced(op, rc, path, digest):
            ref = checked[op.index]
            if (rc, digest) != (ref["rc"], ref["sha256"]):
                return "wrong", "traced output differs from the untraced pass"
            return ref["status"], ref["reason"]

        recorder = tracing.Recorder()
        missing = recorder.install()
        try:
            traced, _, traced_s = run_pass(cli, ran, tmp, same_as_untraced, recorder=recorder,
                                           digests=True)
        finally:
            recorder.uninstall()
        spans_path = Path(args.result).with_suffix(".spans.jsonl")
        recorder.write(spans_path)
        result["traced"] = {
            "records": traced,
            "timed_s": traced_s,
            "missing_entry_points": missing,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "layers": tracing.layer_metrics(recorder.spans, sum(r["bytes"] for r in traced)),
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
