"""Tests of the benchmark itself (several minutes; not part of tier 1):

    python3 -m pytest bench/
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import cases  # noqa: E402
import run  # noqa: E402

# The first seed is the one the baseline numbers were taken at; the second
# is kept back for confirming later claims.
RECORDED_SEEDS = (1, 2)
# Known defect at the baseline commit: the full-span synthetic construct
# never returns.  It may fail here; every other case must pass.
KNOWN_DEFECTS = {"construct-synthetic-full-span"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _assert_only_known_failures(outcomes):
    bad = [(o.case_id, o.status, o.detail) for o in outcomes
           if o.status != "ok" and o.case_id not in KNOWN_DEFECTS]
    assert not bad


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed",
         str(RECORDED_SEEDS[0]), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert any(line.startswith("# threads: OPENBLAS_NUM_THREADS=1") for line in lines)
    assert any(line.startswith("# machine: nproc=") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        bench = run.Bench(workload, RECORDED_SEEDS[0])
        try:
            bench.set_up()
            tracer, outcomes, _ = bench.traced_sweep()
        finally:
            bench.close()
        _assert_only_known_failures(outcomes)
        counts.append({name: value for name, (value, unit)
                       in run.layer_metrics(tracer).items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lawcore.code_calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_verdicts_on_the_confirmation_seed(workload):
    bench = run.Bench(workload, RECORDED_SEEDS[1])
    try:
        bench.set_up()
        outcomes = bench.sweep()
    finally:
        bench.close()
    _assert_only_known_failures(outcomes)


def test_a_hang_becomes_a_counted_timeout(tmp_path):
    def spin(out_dir):
        while True:
            time.sleep(0.01)

    case = cases.Case("spin", spin, (0,), lambda code, result, out_dir: None)
    alarm = run.Alarm()
    try:
        outcome = run.run_case(case, str(tmp_path), alarm, limit=0.2)
    finally:
        alarm.close()
    assert outcome.status == "timeout" and not outcome.finished
    assert 0.2 <= outcome.seconds < 2.0


def test_a_timed_set_up_leaves_the_cases_their_package():
    bench = run.Bench("fit", RECORDED_SEEDS[0])
    try:
        bench.set_up()
        seconds = bench.time_set_up()
        assert seconds > 0
        assert sys.modules["permlaw"] is bench.pl
        assert sys.modules["permlaw.lawcore"] is bench.pl.lawcore
    finally:
        bench.close()


def test_only_timings_are_scaled():
    outcomes = [run.Outcome(f"c{i}", 0.1 * (i + 1), "ok") for i in range(12)]
    plain, _ = run.end_to_end(outcomes, [0.05, 0.07], 1.0)
    scaled, _ = run.end_to_end(outcomes, [0.05, 0.07], 0.5)
    for name in ("setup_s", "case_p50_ms", "case_tail_ms"):
        assert scaled[name][0] == pytest.approx(0.5 * plain[name][0])
    assert scaled["cases_per_s"][0] == pytest.approx(2.0 * plain["cases_per_s"][0])
    assert scaled["pass_frac"] == plain["pass_frac"] == (1.0, "ratio")


def test_quantiles():
    assert run.tail_fraction(40) == 0.75
    assert run.quantile([float(i) for i in range(1, 42)], 0.5) == pytest.approx(21.0)
    assert run.quantile([float(i) for i in range(1, 41)], 0.75) == pytest.approx(30.5, abs=0.01)


def test_sweep_count_depends_on_seconds_only():
    assert [run.sweep_count(w, 42) for w in run.WORKLOADS] == [2, 1, 2]
    assert run.sweep_count("construct", 1) == 1
