"""Benchmark of the thermalwigner CLI: certify, sweep and export workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each workload runs in its own fresh interpreter as one closed-loop
caller of ``thermalwigner.cli.main(argv)`` with one BLAS thread.
``--trace 0`` prints the end-to-end metrics, their times divided by the
machine's slowdown measured during the run (``calibrate.py``), so they
read as seconds on the reference box; ``--trace 1`` runs that
same untraced pass, then replays its ops with spans around each layer's
entry points and prints the per-layer metrics.  ``--workload gated``,
the default, runs the workloads BENCHMARK.json gates in turn, and
``--workload all`` runs all three.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, the environment record and the spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, here and in the workers: never more than nproc, and on
# a shared 2-CPU box a second OpenBLAS thread made a 400^2 matmul ten
# times slower.  Set before calibrate imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import calibrate  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# Worker time beyond its timed passes: interpreter start, import, warm-up,
# the checks and the result file.
WORKER_MARGIN_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mib": "MiB",
}


def worker_timeout(workload: str, seconds: float, trace: int) -> float:
    """Longest a worker may run: its passes at the slow limit, plus the margin.

    A timed pass stops at the first block boundary past ``SLOW_LIMIT``
    times ``seconds``, so it runs at most one block more than that; the
    traced replay repeats the blocks the timed pass ran.
    """
    count = workloads.block_count(workload, seconds)
    nominal = workloads.NOMINAL_BLOCK_S[workload]
    timed = workloads.SLOW_LIMIT * (max(seconds, count * nominal) + nominal)
    return (1 + trace) * timed + WORKER_MARGIN_S


def run_worker(args: list[str], result: Path, timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    try:
        proc = subprocess.run(command, stdout=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker ran past {timeout:.0f} s: {' '.join(command)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(command)}")
    with open(result) as fh:
        return json.load(fh)


def end_to_end(raw: dict, setups: list[float], slowdown: float = 1.0,
               setup_slowdowns=None) -> tuple[dict, dict]:
    """End-to-end metrics, with every time divided by the machine's slowdown.

    ``slowdown`` is the timed pass's and ``setup_slowdowns`` each set-up
    interpreter's (``calibrate.slowdown``); at 1 the metrics are as timed.
    """
    setup_slowdowns = setup_slowdowns or [1.0] * len(setups)
    latencies = [r["latency_s"] / slowdown for r in raw["records"]]
    tail = stats.tail(latencies)
    metrics = {
        "setup_s": stats.median(s / f for s, f in zip(setups, setup_slowdowns)),
        "ops_per_s": len(latencies) * slowdown / raw["timed_s"],
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": tail["value"],
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    return metrics, tail


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_probe(i: int) -> tuple[float, float]:
        """One set-up-only interpreter: its set-up time and the slowdown around it."""
        around = calibrate.sample(calibrate.REPS_PER_SETUP)
        probe = run_worker(base + ["--setup-only"], stem.with_suffix(f".setup{i}.json"),
                           WORKER_MARGIN_S)
        around += calibrate.sample(calibrate.REPS_PER_SETUP)
        return probe["setup_s"], calibrate.slowdown(around, calibrate.SETUP_EXPONENT)

    # The set-up interpreters run before and after the measured one, so
    # their median spans the run.
    calibrate.sample(calibrate.REPS_PER_SETUP)  # first-call costs
    probes = [setup_probe(i) for i in range(SETUP_SAMPLES // 2)]
    raw = run_worker(base + ["--trace", str(trace)], stem.with_suffix(".raw.json"),
                     worker_timeout(name, seconds, trace))
    probes += [setup_probe(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    setups = [setup for setup, _ in probes]
    setup_slowdowns = [factor for _, factor in probes]
    slowdown = calibrate.slowdown(raw["calibration_s"], calibrate.EXPONENT[name])
    metrics, tail = end_to_end(raw, setups, slowdown, setup_slowdowns)
    measured, _ = end_to_end(raw, setups)

    records = raw["records"]
    attempted = len(records)
    failed = sum(r["status"] != "ok" for r in records)
    correct = all(r["status"] != "wrong" for r in records)
    print(f"[{name}] seed {seed}: {attempted} ops in {raw['blocks']} block(s), "
          f"{raw['timed_s']:.3f} s timed, {failed} failed")
    print(f"[{name}] machine slowdown {slowdown:.4g} in the timed pass, "
          f"{stats.median(setup_slowdowns):.4g} around the set-up interpreters (calibrate.py, "
          f"kernel {calibrate.slowdown(raw['calibration_s']):.4g})")
    for metric, unit in END_TO_END_UNITS.items():
        print(f"[{name}] {metric} = {metrics[metric]:.6g} {unit} "
              f"({measured[metric]:.6g} as timed)")
    print(f"[{name}] failed_ratio = {failed / attempted:.6g} ratio")
    print(f"[{name}] latency_tail_s is p{tail['percentile']:.4g} of {tail['samples']} samples, "
          f"{tail['beyond']} beyond")
    for record in records:
        if record["status"] != "ok":
            reason = (record["reason"] or "").strip().splitlines()
            print(f"[{name}]   {record['status']}: {record['op']} {reason[-1] if reason else ''}")

    summary = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "metrics": metrics, "measured_metrics": measured, "slowdown": slowdown,
               "setup_slowdowns": setup_slowdowns, "failed_ratio": failed / attempted,
               "tail": tail, "setup_samples_s": setups, "raw": raw}
    report = {name_: {"value": value, "unit": END_TO_END_UNITS[name_]}
              for name_, value in metrics.items()}
    if trace:
        traced = raw["traced"]
        correct = correct and all(r["status"] != "wrong" for r in traced["records"])
        traced_ops_per_s = len(traced["records"]) / traced["timed_s"]
        # Both as timed: the replay samples no machine speed.
        overhead = measured["ops_per_s"] - traced_ops_per_s
        summary["tracing_overhead"] = {"untraced_ops_per_s": measured["ops_per_s"],
                                       "traced_ops_per_s": traced_ops_per_s,
                                       "difference_ops_per_s": overhead}
        print(f"[{name}] tracing overhead: {measured['ops_per_s']:.6g} untraced - "
              f"{traced_ops_per_s:.6g} traced = {overhead:.6g} 1/s")
        if traced["missing_entry_points"]:
            print(f"[{name}] entry points not found: {traced['missing_entry_points']}")
        report = {}
        for metric, unit in tracing.METRICS:
            value = traced["layers"][metric]
            report[metric] = {"value": value, "unit": unit}
            print(f"[{name}] {metric} = {value:.6g} {unit}")
        print(f"[{name}] spans: {traced['spans_file']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}
    summary["result"] = result
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"[{name}] results: {stem.with_suffix('.json').relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thermalwigner CLI benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all", "gated"),
                        default="gated", help="one workload; 'gated' (the default) runs "
                        "those BENCHMARK.json gates, 'all' runs every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermalwigner" / "__init__.py").is_file():
        print(f"error: no thermalwigner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = {"all": workloads.WORKLOADS, "gated": workloads.GATED}.get(args.workload,
                                                                      (args.workload,))
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
