"""Compare two source checkouts case by case on the benchmark's workloads.

    python3 tests/byte_identity.py OTHER_CHECKOUT [--workloads check ...]
        [--seeds 1 2] [--repeat N]

Run from the root of a checkout.  By default every workload (check,
construct and fit) runs at seeds 1 and 2.  For each checkout, workload and
seed, a child process imports permlaw from that checkout's src/ and the
case list from its bench/cases.py, generates the seeded inputs, and runs
every case in-process: once for the record, then again until its runs add up to
TIMED_S, for its median CPU time.  Both checkouts run in fresh scratch
directories with the same relative paths, so reports that echo an input
path stay comparable.  Each case is recorded as: exit code, standard
output, standard error, the warnings raised (category and message), every
artifact file's bytes (as sha256, with report.json and the CSV files also
in full) and, for a library case, its result with every float written
exactly.  Prints each case whose record differs, and for each report.json
or CSV file that differs the largest relative difference over its numbers,
so that a change in the last bits shows as one, and for a library result
that differs each differing leaf as `path: this / other` (at most
MAX_LEAVES a case).  The summary line gives each checkout's line count of
src/permlaw; exits 1 if any case differs, 0 if all match.

With --repeat N, the two checkouts' children run N times each, the one
that runs first alternating, and the records of the first pair are
compared.  Each case's median over the children of its CPU time is
printed for both checkouts with their ratio and with the number of the N
pairs of children in which this checkout's run was the slower, and a
case of this checkout more than 10% and 1 ms slower than the other is
flagged SLOWER: a flag over a count well short of N is noise.  A sweep
line then gives, for each workload and seed, the sum of the per-case
medians of each checkout and their ratio.  Cases are
timed with time.process_time, the CPU time of the child alone, so other
processes on the machine do not move the flag as they move wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import statistics
import sys
import tempfile
import time
import warnings

import numpy as np

WORKLOADS = ("check", "construct", "fit")
# A case runs again until its runs add up to this many CPU seconds; its
# time is their median.
TIMED_S = 0.2
# A differing library result prints at most this many differing leaves.
MAX_LEAVES = 20
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _plain(obj):
    """A JSON-ready form of a case result; floats keep every bit through
    json's repr, callables (a code's fn) are named by type only."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"type": type(obj).__name__,
                **{f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if callable(obj):
        return f"<{type(obj).__name__}>"
    return repr(obj)


def _artifacts(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        files[name] = hashlib.sha256(data).hexdigest()
        if name == "report.json" or name.endswith(".csv"):
            files[name + " text"] = data.decode()
    return files


def _numbers(name: str, text: str) -> list:
    """The numbers of a report's JSON (its numeric leaves in order, keys
    sorted) or of a CSV file (every field that reads as a float)."""
    if not name.endswith(".csv"):
        out = []

        def walk(v):
            if isinstance(v, dict):
                for k in sorted(v):
                    walk(v[k])
            elif isinstance(v, list):
                for x in v:
                    walk(x)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out.append(float(v))

        walk(json.loads(text))
        return out
    out = []
    for field in text.replace("\n", ",").split(","):
        try:
            out.append(float(field))
        except ValueError:
            pass
    return out


def _largest_difference(name: str, ours: str, theirs: str) -> str:
    """How far two texts of one artifact lie apart, number by number."""
    a, b = _numbers(name, ours), _numbers(name, theirs)
    if len(a) != len(b):
        return f"{len(a)} and {len(b)} numbers"
    worst = 0.0
    for u, v in zip(a, b):
        if u == v or (u != u and v != v):
            continue
        scale = max(abs(u), abs(v))
        rel = abs(u - v) / scale if np.isfinite(scale) and scale > 0 else np.inf
        worst = max(worst, rel if rel == rel else np.inf)
    return f"largest relative difference {worst:.3g} over {len(a)} numbers"


def _leaf_diffs(ours, theirs, path: str = ""):
    """(path, ours, theirs) for each leaf at which two plain results differ,
    in field order: a dict key reads `.key`, a list index `[i]`, and a key
    on one side only reads as missing on the other."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        for k in [*ours, *(k for k in theirs if k not in ours)]:
            yield from _leaf_diffs(ours.get(k, "missing"), theirs.get(k, "missing"),
                                   f"{path}.{k}" if path else k)
    elif isinstance(ours, list) and isinstance(theirs, list) and len(ours) == len(theirs):
        for i, (a, b) in enumerate(zip(ours, theirs)):
            yield from _leaf_diffs(a, b, f"{path}[{i}]")
    elif ours != theirs:
        yield path, ours, theirs


def _brief(leaf) -> str:
    text = leaf if isinstance(leaf, str) else json.dumps(leaf)
    return text if len(text) <= 80 else text[:77] + "..."


def _source_lines(root: str) -> int:
    """Lines in the package's modules, src/permlaw/*.py, of a checkout."""
    pkg = os.path.join(root, "src", "permlaw")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _run(case, out_dir: str) -> tuple:
    """One run of a case, writing into out_dir: its exit code, result,
    standard output, standard error, warnings and CPU time."""
    os.makedirs(out_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.process_time()
        try:
            code, result = case.run(out_dir)
        except Exception as exc:  # a crash is part of the record
            code, result = "raised", f"{type(exc).__name__}: {exc}"
        cpu_s = time.process_time() - start
    return (code, result, out.getvalue(), err.getvalue(),
            [f"{w.category.__name__}: {w.message}" for w in caught], cpu_s)


def dump(root: str, workload: str, seed: int) -> list:
    """Records of every case of one workload at one seed, run from the
    checkout at `root` inside the current directory."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    pl = importlib.import_module("permlaw")
    importlib.import_module("permlaw.cli")
    cases = importlib.import_module("cases")
    inputs = cases.make_inputs(pl, workload, seed, "inputs")
    records = []
    for case in cases.build_cases(pl, workload, inputs):
        out_dir = os.path.join("out", case.id)
        code, result, stdout, stderr, caught, cpu_s = _run(case, out_dir)
        times = [cpu_s]
        while sum(times) < TIMED_S:
            rerun_dir = os.path.join("rerun", case.id)
            times.append(_run(case, rerun_dir)[-1])
            shutil.rmtree(rerun_dir)
        records.append({
            "case": case.id,
            "exit": code,
            "stdout": stdout,
            "stderr": stderr,
            "warnings": caught,
            "artifacts": _artifacts(out_dir),
            "result": _plain(result),
            "cpu_s": statistics.median(times),
        })
    return records


def _run_child(root: str, workload: str, seed: int) -> list:
    # one BLAS thread, as bench/run.py pins it, so the fits' solves sum in
    # the same order on both sides
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--dump", root,
             "--workloads", workload, "--seeds", str(seed)],
            cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{root} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", nargs="?", help="root of the checkout to compare with")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="run each checkout N times and compare median case times")
    ap.add_argument("--dump", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        json.dump(dump(args.dump, args.workloads[0], args.seeds[0]), sys.stdout)
        return 0
    if args.other is None:
        ap.error("the checkout to compare with is required")
    if args.repeat < 1:
        ap.error("--repeat needs N >= 1")
    other = os.path.abspath(args.other)
    n_cases = n_diff = n_slower = 0
    for workload in args.workloads:
        for seed in args.seeds:
            runs = []
            for i in range(args.repeat):  # alternate which checkout runs first
                first, second = (other, HERE) if i % 2 else (HERE, other)
                a, b = _run_child(first, workload, seed), _run_child(second, workload, seed)
                runs.append((b, a) if i % 2 else (a, b))
            ours, theirs = runs[0]
            if [r["case"] for r in ours] != [r["case"] for r in theirs]:
                print(f"{workload} seed {seed}: the case lists differ")
                n_diff += 1
                continue
            for a, b in zip(ours, theirs):
                n_cases += 1
                keys = [k for k in a if k != "cpu_s" and a[k] != b[k]]
                if keys:
                    n_diff += 1
                    print(f"{workload} seed {seed} {a['case']}: differs in {', '.join(keys)}")
                    for name, text in a["artifacts"].items():
                        other_text = b["artifacts"].get(name)
                        if name.endswith(" text") and other_text not in (None, text):
                            print(f"  {name[:-5]}: "
                                  + _largest_difference(name[:-5], text, other_text))
                    leaves = list(_leaf_diffs(a["result"], b["result"]))
                    for path, u, v in leaves[:MAX_LEAVES]:
                        print(f"  {path or 'result'}: {_brief(u)} / {_brief(v)}")
                    if len(leaves) > MAX_LEAVES:
                        print(f"  ... and {len(leaves) - MAX_LEAVES} more leaves")
            if args.repeat > 1:
                n_slower += _print_times(workload, seed, runs)
    print(f"{n_cases} cases compared, {n_diff} differ; src/permlaw has "
          f"{_source_lines(HERE)} lines here, {_source_lines(other)} in the other")
    if args.repeat > 1:
        print(f"{n_slower} cases more than 10% and 1 ms slower")
    return 1 if n_diff else 0


def _print_times(workload: str, seed: int, runs: list) -> int:
    """Print each case's median CPU time in both checkouts; returns how
    many cases of this checkout are more than 10% and 1 ms slower."""
    print(f"{workload} seed {seed}, median of {len(runs)} runs (ms): "
          "this, other, this / other, pairs this is slower in")
    n_slower, sweep_this, sweep_other = 0, 0.0, 0.0
    for i, rec in enumerate(runs[0][0]):
        this = statistics.median(ours[i]["cpu_s"] for ours, _ in runs) * 1e3
        other = statistics.median(theirs[i]["cpu_s"] for _, theirs in runs) * 1e3
        behind = sum(ours[i]["cpu_s"] > theirs[i]["cpu_s"] for ours, theirs in runs)
        sweep_this, sweep_other = sweep_this + this, sweep_other + other
        slower = this > 1.1 * other and this - other > 1.0
        n_slower += slower
        print(f"  {rec['case']:<34} {this:9.1f} {other:9.1f} {this / other:6.2f}"
              f" {behind:>3}/{len(runs)}" + ("  SLOWER" if slower else ""))
    print(f"  {'sweep (sum of the medians)':<34} {sweep_this:9.1f} {sweep_other:9.1f} "
          f"{sweep_this / sweep_other:6.2f}")
    return n_slower


if __name__ == "__main__":
    sys.exit(main())
