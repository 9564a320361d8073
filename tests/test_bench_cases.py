"""Every case of the benchmark's three workloads, run with its own output
check at several seeds.  The cases and their checks are defined once, in
bench/cases.py; a case whose output fails its check fails here, not first
in a benchmark run."""

import permlaw
import permlaw.cli  # noqa: F401  (the CLI cases call permlaw.cli.main)
import pytest

from conftest import bench_module

# check also at the seeds where the second synthetic law's continuity
# proxy once read a continuous law as discontinuous
RUNS = ([(workload, seed) for workload in ("check", "construct", "fit")
         for seed in (1, 2, 3, 4)]
        + [("check", 6), ("check", 11)])


@pytest.mark.parametrize("workload, seed", RUNS)
def test_every_case_passes_its_check(tmp_path, monkeypatch, workload, seed):
    run = bench_module("run")
    # the cases hand the program relative paths, as the benchmark does
    monkeypatch.chdir(tmp_path)
    inputs = run.bench_cases.make_inputs(permlaw, workload, seed, "inputs")
    alarm = run.Alarm()
    try:
        outcomes = [run.run_case(case, "out", alarm, run.CASE_LIMIT_S)
                    for case in run.bench_cases.build_cases(permlaw, workload, inputs)]
    finally:
        alarm.close()
    assert outcomes
    assert [(o.case_id, o.status, o.detail) for o in outcomes if o.status != "ok"] == []
