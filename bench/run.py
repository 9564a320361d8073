"""permlaw benchmark: check, construct and fit workloads, timed from outside.

    python3 bench/run.py --workload check|construct|fit --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process runs the workload's case list as a
closed loop (each case starts when the previous one ends) and checks every
output.  Untraced (``--trace 0``), it runs as many whole sweeps of the case
list as fit in ``--seconds`` at the baseline's sweep time, and prints the
end-to-end metrics.  Traced (``--trace 1``), it runs one sweep in which
every case runs twice, once with the wrappers of ``tracing.py`` installed
and once without, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads: the dense fit's solves
# would otherwise spread over every core and the load would depend on the
# machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import cases as bench_cases  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("check", "construct", "fit")
# Before a case, whenever this long has passed since the last probe, set-up
# is timed once and reference_work REFERENCE_REPEATS times (and at the end,
# until there are PROBE_MIN probes), so both see the machine along the whole
# run, as the case times do.
PROBE_EVERY_S = 2.0
PROBE_MIN = 9
REFERENCE_REPEATS = 3
# About the median seconds of reference_work on the reference machine.
# Untraced timings are scaled by REFERENCE_S / (its median in the run): this
# machine's speed moves by a third over minutes, and a level shift inside a
# set of runs otherwise puts the quartiles of every timing a third apart.
# The constant only fixes the unit; changing it or reference_work rescales
# every timing, so neither changes without measuring the baseline again.
REFERENCE_S = 0.030
# About twice the slowest case at the baseline commit (the cylinder --quasi
# fit, 5.7 s), so a case that hangs becomes a counted failure.  The traced
# sweep allows twice as long, because the wrappers slow the hot calls.
CASE_LIMIT_S = 10.0
TRACED_LIMIT_FACTOR = 2.0
# No case starts after this much of the run; the rest count as failed, so
# the run ends inside the 180 s a run may take.
RUN_CAP_S = 140.0
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Seconds one sweep of each workload's cases takes at the baseline commit on
# the reference machine, whose speed drifts by a third over minutes (see
# README.md): check 11-15 s, construct 23-35 s, fit 17-25 s.  A run makes as
# many sweeps as fit in --seconds at these rates, so the parent and a change
# do the same work and pool the same number of case times, whatever the
# machine's speed.  check's rate is its slow end, so that at --seconds 42
# it makes 2 sweeps and the runs of all three workloads together stay short.
NOMINAL_SWEEP_S = {"check": 15.0, "construct": 32.0, "fit": 21.0}


class CaseTimeout(BaseException):
    """Raised by the alarm when a case outlives its limit.  A BaseException,
    so the package's own ``except Exception`` blocks cannot swallow it."""


@dataclass
class Outcome:
    case_id: str
    seconds: float
    # ok | wrong (exit code or output check) | error | timeout | not-run
    status: str
    detail: str = ""

    @property
    def finished(self) -> bool:
        return self.status in ("ok", "wrong")


# ---------------------------------------------------------------------------
# set-up


def _is_permlaw(name: str) -> bool:
    return name == "permlaw" or name.startswith("permlaw.")


def import_permlaw():
    """Import permlaw afresh from this checkout's src/ and return it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "permlaw", "__init__.py")):
        raise SystemExit(f"error: no permlaw package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if _is_permlaw(n)]:
        del sys.modules[name]
    pl = importlib.import_module("permlaw")
    importlib.import_module("permlaw.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__))) != src:
        raise SystemExit(f"error: permlaw imported from {pl.__file__}, not {src}")
    return pl


# ---------------------------------------------------------------------------
# running cases


class Alarm:
    """Per-case time limit on SIGALRM."""

    def __init__(self):
        self.armed = False
        self._old = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CaseTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._old)


def run_case(case, out_root: str, alarm: Alarm, limit: float, tracer=None) -> Outcome:
    out_dir = os.path.join(out_root, case.id)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    status, detail, code, result = "ok", "", None, None
    if tracer is not None:
        tracer.begin_case(case.id)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            alarm.arm(limit)
            try:
                code, result = case.run(out_dir)
            finally:
                alarm.disarm()
    except CaseTimeout:
        status, detail = "timeout", f"no result within {limit:g} s"
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        status = "error"
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - start
    if tracer is not None:
        report = os.path.join(out_dir, "report.json")
        if status == "ok" and os.path.exists(report):
            tracer.count("cli.report_bytes", os.path.getsize(report))
        tracer.end_case(keep=status == "ok")
    if status == "ok":
        if code not in case.expect:
            status, detail = "wrong", f"exit {code}, expected {case.expect}"
        else:
            try:
                problem = case.check(code, result, out_dir)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                status, detail = "wrong", problem
    return Outcome(case.id, seconds, status, detail)


class Bench:
    """One workload at one seed: its inputs, its cases and its directories
    under .bench_out/.  The paths handed to the program are relative and
    free of process ids, so reports are byte-identical between runs."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.run_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
        self.out_root = os.path.join(self.run_dir, "out")
        self.alarm = Alarm()
        self.start = None
        self.pl = self.cases = None

    def set_up(self) -> None:
        """Import permlaw and generate the workload's inputs."""
        self.pl = import_permlaw()
        self.cases = self._make_cases(self.pl)

    def _make_cases(self, pl) -> list:
        in_dir = os.path.relpath(os.path.join(self.run_dir, "inputs"))
        inputs = bench_cases.make_inputs(pl, self.workload, self.seed, in_dir)
        return bench_cases.build_cases(pl, self.workload, inputs)

    def time_set_up(self) -> float:
        """Time one more set-up, from a collected heap.  The package and the
        cases it makes are dropped, and the package the cases use is put
        back, so the modules the cases import lazily stay theirs."""
        kept = {n: m for n, m in sys.modules.items() if _is_permlaw(n)}
        gc.collect()
        start = time.perf_counter()
        self._make_cases(import_permlaw())
        seconds = time.perf_counter() - start
        for name in [n for n in sys.modules if _is_permlaw(n)]:
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()
        return seconds

    def _capped(self, case) -> Outcome | None:
        """A not-run outcome for ``case`` once the run time cap is reached."""
        if self.start is None:
            self.start = time.perf_counter()
        if time.perf_counter() - self.start > RUN_CAP_S:
            return Outcome(case.id, 0.0, "not-run", "run time cap reached")
        return None

    def sweep(self, before_case=None) -> list:
        """Run every case once, in order; ``before_case()`` runs untimed
        before each."""
        outcomes = []
        for case in self.cases:
            outcome = self._capped(case)
            if outcome is None:
                if before_case is not None:
                    before_case()
                outcome = run_case(case, self.out_root, self.alarm, CASE_LIMIT_S)
            outcomes.append(outcome)
        return outcomes

    def traced_sweep(self) -> tuple:
        """One sweep in which each case runs wrapped and, next to it,
        unwrapped: first on even cases, second on odd ones, so the tracing
        overhead is a sum of paired differences and a drift of the machine's
        speed cancels out of it.  Returns (tracer, traced outcomes, untraced
        outcomes)."""
        tracer = Tracer()
        undo = tracer.install(self.pl)
        try:
            # inputs again, so the codes they hold are traced too
            tracer.begin_case("setup")
            traced_cases = self._make_cases(self.pl)
            tracer.end_case(keep=True)
        finally:
            undo()
        traced, untraced = [], []
        limit = CASE_LIMIT_S * TRACED_LIMIT_FACTOR
        for i, (case, traced_case) in enumerate(zip(self.cases, traced_cases)):
            outcome = self._capped(case)
            if outcome is not None:
                traced.append(outcome)
                untraced.append(outcome)
                continue
            if i % 2 == 0:
                untraced.append(run_case(case, self.out_root, self.alarm, CASE_LIMIT_S))
            undo = tracer.install(self.pl)
            try:
                traced.append(run_case(traced_case, self.out_root, self.alarm, limit, tracer))
            finally:
                undo()
            if i % 2 == 1:
                untraced.append(run_case(case, self.out_root, self.alarm, CASE_LIMIT_S))
        return tracer, traced, untraced

    def close(self) -> None:
        self.alarm.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  The
    case times cluster by case, so a single order statistic jumps whenever
    two cases swap places; this estimate moves smoothly instead."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 20000
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    edges = np.interp(np.arange(n + 1) / n, np.arange(steps + 1) / steps, cdf / cdf[-1])
    return float(np.diff(edges) @ xs)


def tail_fraction(n: int) -> float:
    """The highest quantile with at least ten samples beyond it."""
    return max(n - 10, 1) / n


def timings(outcomes, setup_times) -> dict:
    times = [o.seconds for o in outcomes if o.status != "not-run"]
    return {
        "setup_s": statistics.median(setup_times),
        "cases_per_s": sum(o.finished for o in outcomes) / sum(times),
        "case_p50_ms": 1e3 * quantile(times, 0.5),
        "case_tail_ms": 1e3 * quantile(times, tail_fraction(len(times))),
    }


def end_to_end(outcomes, setup_times, scale: float) -> tuple[dict, str]:
    """The end-to-end metrics, timings multiplied by ``scale`` (a rate
    divided by it), and a note on the percentiles and the raw timings."""
    raw = timings(outcomes, setup_times)
    n = sum(o.status != "not-run" for o in outcomes)
    passed = sum(o.status == "ok" for o in outcomes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "cases_per_s": (raw["cases_per_s"] / scale, "1/s"),
        "case_p50_ms": (raw["case_p50_ms"] * scale, "ms"),
        "case_tail_ms": (raw["case_tail_ms"] * scale, "ms"),
        "pass_frac": (passed / len(outcomes), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    note = (f"case_tail_ms is p{100 * tail_fraction(n):.1f} of {n} case times; "
            f"timings scaled by {scale:.4f}, unscaled: "
            + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return metrics, note


def machine_info() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__}")


def result_line(outcomes, metrics) -> str:
    return json.dumps({
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_outcomes(label, outcomes) -> None:
    for o in outcomes:
        line = f"# {label} {o.case_id}: {o.status} {1e3 * o.seconds:.1f} ms"
        print(line + (f" ({o.detail})" if o.detail else ""))


# ---------------------------------------------------------------------------


def reference_work() -> float:
    """A fixed computation outside permlaw, of the kind its cases do: scalar
    bisections whose every step evaluates a small numpy expression.  Its
    time follows the machine's speed and nothing in the package."""
    x = np.linspace(0.1, 10.0, 64)
    total = 0.0
    for i in range(150):
        lo, hi = 0.0, 20.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if float(np.sum(np.sqrt(x * mid))) > 60.0 + 0.1 * i:
                hi = mid
            else:
                lo = mid
        total += lo
    return total


class Probe:
    """Set-up and reference_work times along an untraced run; called
    before each case."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.setup_times, self.reference_times = [], []
        self.last = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.take()

    def take(self) -> None:
        self.setup_times.append(self.bench.time_set_up())
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_work()
            self.reference_times.append(time.perf_counter() - start)
        self.last = time.perf_counter()

    def finish(self) -> float:
        """Take the probes still missing; return the timing scale."""
        while len(self.setup_times) < PROBE_MIN:
            self.take()
        return REFERENCE_S / statistics.median(self.reference_times)


def sweep_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_SWEEP_S[workload]))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    print("# threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print("# machine: " + machine_info())
    bench = Bench(args.workload, args.seed)
    try:
        # The first set-up also loads what permlaw imports from outside the
        # package, which later set-ups find loaded; it is not counted.
        bench.set_up()
        if not args.trace:
            probe = Probe(bench)
            outcomes = []
            for _ in range(sweep_count(args.workload, args.seconds)):
                outcomes += bench.sweep(before_case=probe)
            scale = probe.finish()
            print_outcomes("case", outcomes)
            metrics, note = end_to_end(outcomes, probe.setup_times, scale)
            print(f"# {len(outcomes) // len(bench.cases)} sweep(s) of "
                  f"{len(bench.cases)} cases; {note}; setup_s is the median of "
                  f"{len(probe.setup_times)} set-ups along the run")
            print(result_line(outcomes, metrics))
            return 0

        tracer, traced, untraced = bench.traced_sweep()
        # overhead over the cases that ran to the end both times
        pairs = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
                 if u.finished and t.finished]
        untraced_s = sum(u for u, _ in pairs)
        traced_s = sum(t for _, t in pairs)
        print_outcomes("untraced", untraced)
        print_outcomes("traced", traced)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        metrics["bench.cut_cases"] = (sum(not o.finished for o in traced), "count")
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "untraced_s": untraced_s, "traced_s": traced_s})
        print(f"# tracing overhead: {traced_s - untraced_s:.3f} s "
              f"({100 * (traced_s - untraced_s) / untraced_s:.1f}% of {untraced_s:.3f} s "
              f"untraced); spans in {os.path.relpath(trace_path, ROOT)}")
        print(result_line(traced, metrics))
        return 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
