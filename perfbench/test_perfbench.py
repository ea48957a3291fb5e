"""Tests of the benchmark's own logic.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checker  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from thermalwigner import cli, closed_form  # noqa: E402


# ---------------------------------------------------------------------------
# op lists


def first_ops(workload, seed, count):
    return list(itertools.islice(itertools.chain.from_iterable(
        workloads.blocks(workload, seed)), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    assert first_ops(workload, 7, 80) == first_ops(workload, 7, 80)
    assert first_ops(workload, 7, 80) != first_ops(workload, 8, 80)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_are_numbered_across_blocks(workload):
    ops = first_ops(workload, 3, 100)
    assert [op.index for op in ops] == list(range(100))
    assert ops[-1].block >= 1


def test_certify_block_has_every_stratum_per_family():
    first, second = itertools.islice(workloads.blocks("certify", 5), 2)
    strata = workloads.CERTIFY_STRATA
    lo, hi = workloads.CERTIFY_THETA
    for family in workloads.FAMILIES:
        pair = [sorted((op for op in block if op.family == family), key=lambda op: op.n)
                for block in (first, second)]
        for ops in pair:
            assert len(ops) == strata
            theta_strata = sorted(int((op.theta - lo) / (hi - lo) * strata) for op in ops)
            assert theta_strata == list(range(strata))
        # Each n stratum's two levels, one per block, at mirrored theta.
        levels = sorted(op.n for ops in pair for op in ops)
        assert levels == list(workloads.CERTIFY_N_LEVELS)
        for a, b in zip(*pair):
            j = int((a.theta - lo) / (hi - lo) * strata)
            assert a.theta + b.theta == pytest.approx(2 * lo + (hi - lo) * (2 * j + 1) / strata)
    # The range's largest state is in every block.
    for block in (first, second):
        number = max((op for op in block if op.family == "number"), key=lambda op: op.theta)
        assert number.n == max(op.n for op in block if op.family == "number")


def test_sweep_block_is_every_family_and_n_once():
    block = next(workloads.blocks("sweep", 5))
    pairs = Counter((op.family, op.n) for op in block)
    assert len(pairs) == len(workloads.FAMILIES) * (workloads.SWEEP_N_MAX + 1)
    assert set(pairs.values()) == {1}


def test_export_blocks_hold_the_same_grid_mix():
    for _, block in zip(range(4), workloads.blocks("export", 5)):
        shapes = Counter((op.fmt, op.res) for op in block)
        assert shapes == Counter((f, r) for f in workloads.EXPORT_FORMATS
                                 for r in workloads.EXPORT_RESOLUTIONS)
    big = [op for op in first_ops("export", 5, 32) if op.res == 1001]
    assert sorted(Counter(op.family for op in big).values()) == [2, 2, 2, 2]


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    tail = stats.tail(range(100, 0, -1))
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100, "beyond": 10}
    tail = stats.tail(range(1, 33))
    assert (tail["value"], tail["beyond"], tail["percentile"]) == (22.0, 10, 68.75)


def test_tail_never_falls_to_the_median():
    tail = stats.tail(range(1, 17))
    assert tail["value"] > stats.median(range(1, 17))
    assert (tail["value"], tail["beyond"]) == (9.0, 7)
    assert stats.tail([5.0])["value"] == 5.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_at_the_benchmark_length_leaves_ten_samples_beyond_the_tail(workload):
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    blocks = itertools.islice(workloads.blocks(workload, 1),
                              workloads.block_count(workload, seconds))
    count = sum(len(block) for block in blocks)
    assert stats.tail(range(count))["beyond"] >= stats.TAIL_MIN_BEYOND


def test_end_to_end_divides_every_time_by_the_slowdown():
    raw = {"records": [{"latency_s": x} for x in (1.0, 2.0, 3.0)], "timed_s": 6.0,
           "peak_rss_mib": 50.0}
    as_timed, _ = run.end_to_end(raw, [0.8, 1.0, 1.2])
    scaled, _ = run.end_to_end(raw, [0.8, 1.0, 1.2], 2.0, [2.0, 1.0, 4.0])
    assert (as_timed["ops_per_s"], scaled["ops_per_s"]) == (0.5, 1.0)
    assert (as_timed["latency_p50_s"], scaled["latency_p50_s"]) == (2.0, 1.0)
    assert scaled["latency_tail_s"] == as_timed["latency_tail_s"] / 2.0
    # Each set-up is divided by its own interpreter's slowdown: 0.4, 1.0, 0.3.
    assert (as_timed["setup_s"], scaled["setup_s"]) == (1.0, 0.4)
    assert scaled["peak_rss_mib"] == as_timed["peak_rss_mib"] == 50.0


def test_slowdown_is_one_at_the_reference_and_tracks_the_median():
    ref = calibrate.REFERENCE_S
    assert calibrate.slowdown([ref] * 3) == 1.0
    assert calibrate.slowdown([ref, 1.5 * ref, 100 * ref]) == pytest.approx(1.5)
    assert calibrate.slowdown([4 * ref], 0.5) == pytest.approx(2.0)
    assert set(calibrate.EXPONENT) == set(workloads.WORKLOADS)
    assert len(calibrate.sample(2)) == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, 40, 200])
@pytest.mark.parametrize("trace", [0, 1])
def test_worker_timeout_covers_both_passes_at_the_slow_limit(workload, seconds, trace):
    passes = (workloads.block_count(workload, seconds) * workloads.NOMINAL_BLOCK_S[workload]
              * workloads.SLOW_LIMIT * (1 + trace))
    assert run.worker_timeout(workload, seconds, trace) >= passes + run.WORKER_MARGIN_S


# ---------------------------------------------------------------------------
# spans and self time


def _span(name, start, end, parent=None, op=0, attrs=None, error=None):
    return tracing.Span(name, start, end, parent, op, attrs, error)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("analysis.verify", 1.0, 4.0, parent=0),
        _span("analysis.scan", 5.0, 9.0, parent=0),
        _span("closed_form.grid", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("closed_form.grid", 1.0, 5.0, parent=0),
        _span("closed_form.grid", 4.0, 6.0, parent=0),
        _span("closed_form.grid", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_count_oracle_failures_once():
    spans = [
        _span("fock_oracle.build", 0.0, 2.0, error="TruncationError"),
        _span("fock_oracle.two_mode", 0.5, 1.5, parent=0, error="TruncationError"),
        _span("fock_oracle.build", 3.0, 4.0, attrs={"dim": 40}),
        _span("fock_oracle.build", 5.0, 6.0, attrs={"dim": 60}),
    ]
    metrics = tracing.layer_metrics(spans, output_bytes=0)
    assert metrics["fock_oracle.failures"] == 1
    assert metrics["fock_oracle.build.calls"] == 3
    assert metrics["fock_oracle.build.self_s"] == pytest.approx(3.0)
    assert metrics["fock_oracle.two_mode.self_s"] == pytest.approx(1.0)
    assert (metrics["fock_oracle.build.dim_max"], metrics["fock_oracle.build.dim_mean"]) == (60, 50.0)
    assert metrics["specfun.hermite2.calls"] == 0


def test_recorder_traces_a_cli_call_and_restores_the_program(tmp_path):
    original = cli.main
    recorder = tracing.Recorder()
    assert recorder.install() == []
    try:
        recorder.op = 0
        rc = cli.main(["eval", "--family", "added", "--n", "1", "--theta", "0.3",
                       "--res", "21", "--out", str(tmp_path / "w.csv")])
        recorder.op = None
        cli.main(["eval", "--family", "vacuum", "--theta", "0.3", "--res", "21",
                  "--out", str(tmp_path / "untraced.csv")])
    finally:
        recorder.uninstall()
    assert rc == 0 and cli.main is original
    names = Counter(span.name for span in recorder.spans)
    assert names == {"cli.main": 1, "cli.write": 1, "analysis.sample_grid": 1,
                     "closed_form.grid": 1, "specfun.laguerre": 1}
    metrics = tracing.layer_metrics(recorder.spans, output_bytes=123)
    assert metrics["closed_form.grid.points"] == 21 * 21
    # Nodes of the 21 x 21 grid on [-4, 4]^2 sit at 0.4 (k, l), |k|, |l| <= 10,
    # so radii are k^2 + l^2: 66 unordered pairs, of which five sums repeat
    # (25, 50, 65, 85, 100).
    assert metrics["closed_form.grid.unique_radius_ratio"] == pytest.approx(61 / 441)
    assert metrics["analysis.sample_grid.useful_ratio"] == 1.0
    assert metrics["cli.write.bytes"] == 123


def test_missing_entry_point_reports_zero_calls(monkeypatch, tmp_path):
    monkeypatch.delattr(closed_form, "hermite2")
    recorder = tracing.Recorder()
    try:
        assert recorder.install() == ["closed_form.hermite2"]
        recorder.op = 0
        cli.main(["eval", "--family", "vacuum", "--theta", "0.3", "--res", "11",
                  "--out", str(tmp_path / "w.csv")])
    finally:
        recorder.uninstall()
    metrics = tracing.layer_metrics(recorder.spans, output_bytes=0)
    assert metrics["specfun.hermite2.calls"] == 0
    assert metrics["cli.main.calls"] == 1


# ---------------------------------------------------------------------------
# output checks


def _run_op(op, tmp_path):
    path = tmp_path / f"op{op.suffix}"
    return cli.main(op.argv(str(path))), str(path)


def test_export_check_accepts_the_output_and_catches_a_changed_value(tmp_path):
    op = workloads.Op(index=0, block=0, command="eval", family="added", n=2, theta=0.4,
                      fmt="csv", res=81)
    rc, path = _run_op(op, tmp_path)
    assert checks.check(op, rc, path, seed=1) == ("ok", "")
    lines = Path(path).read_text().splitlines()
    q, p, w = lines[100].split(",")
    lines[100] = f"{q},{p},{float(w) * (1 + 1e-15)!r}"
    Path(path).write_text("\n".join(lines) + "\n")
    assert checks.check(op, rc, path, seed=1)[0] == "wrong"


def test_export_json_check_round_trips(tmp_path):
    op = workloads.Op(index=1, block=0, command="eval", family="subtracted", n=3, theta=1.2,
                      fmt="json", res=81)
    rc, path = _run_op(op, tmp_path)
    assert checks.check(op, rc, path, seed=1) == ("ok", "")


def test_sweep_check_catches_a_negative_negativity(tmp_path):
    op = workloads.Op(index=0, block=0, command="scan-theta", family="added", n=1)
    rc, path = _run_op(op, tmp_path)
    assert checks.check(op, rc, path, seed=1) == ("ok", "")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    rows[3, 3] = -1e-3
    with open(path, "w") as fh:
        fh.write("theta,w0,abs_w0,negativity_volume\n")
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    assert checks.check(op, rc, path, seed=1)[0] == "wrong"


def test_checker_process_gives_the_in_process_verdicts(tmp_path):
    op = workloads.Op(index=0, block=0, command="scan-theta", family="number", n=1)
    rc, path = _run_op(op, tmp_path)
    with checker.Checker(seed=1) as served:
        assert served.check(op, rc, path) == checks.check(op, rc, path, seed=1) == ("ok", "")
        Path(path).write_text("theta,w0\n")
        assert served.check(op, rc, path)[0] == "wrong"
    assert served.proc.returncode == 0


def test_peak_rss_reset_drops_an_earlier_peak():
    import resource
    import worker

    def peak_mib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    block = np.ones((256 << 20) // 8)
    block[:] = 2.0
    del block
    before = peak_mib()
    if not worker.reset_peak_rss():
        pytest.skip("this kernel cannot reset the peak RSS")
    assert peak_mib() < before - 128


def test_certify_check_counts_a_failed_verification_as_failed_not_wrong(tmp_path):
    passing = workloads.Op(index=0, block=0, command="verify", family="added", n=1, theta=0.3)
    assert checks.check(passing, *_run_op(passing, tmp_path), seed=1) == ("ok", "")
    # The two-mode oracle's fixed 32-level truncation cannot hold this state.
    failing = workloads.Op(index=1, block=0, command="verify", family="number", n=2, theta=1.0)
    status, reason = checks.check(failing, *_run_op(failing, tmp_path), seed=1)
    assert status == "failed" and "two-mode truncation deficit" in reason


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for entry in layer_map["layers"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(name for name, _ in tracing.METRICS)
