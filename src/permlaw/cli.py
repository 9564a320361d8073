"""Command line front end for law checks, construction, fitting, alignment.

Every command writes a report.json that is the single source of truth for
the run; whatever is printed to stdout is a rendering of that JSON.  Runs
with identical configuration and seed produce byte-identical reports: no
timestamps, no absolute paths, deterministic iteration order.

Exit codes: 0 all requested checks passed, 1 a check failed (the report
says which), 2 the configuration was invalid.  Crashes are neither: they
leave a traceback instead of a report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .axioms import check_code_axioms, check_permutability, check_solvability
from .corpus import (
    LAW_NAMES,
    LawSpec,
    NoAnalyticForm,
    analytic_reference,
    load_grid,
    make_law,
)
from .fitter import (
    NonConvergence,
    affine_align,
    check_gauge_uniqueness,
    fit_additive,
)
from .holder import (
    construct_f,
    construct_g,
    make_structure,
    residual_report,
    suggest_r0,
)
from .lawcore import AdditiveRepresentation, Gauge, InvalidParams, LawError

__all__ = ["main"]


def _parse_grid(text: str) -> tuple[int, ...]:
    parts = text.lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    if not 1 <= len(dims) <= 3 or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    return dims


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and > 0, got {text!r}")
    return tol


def _parse_x0(text: str) -> float:
    try:
        x0 = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad anchor {text!r}")
    if not np.isfinite(x0):
        raise argparse.ArgumentTypeError(f"anchor must be finite, got {text!r}")
    return x0


def _parse_x0_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_x0(p) for p in text.split(","))


def _write_report(out_dir: str, report: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _config_echo(args, keys) -> dict:
    cfg = {"command": args.command, "seed": args.seed}
    for key in keys:
        cfg[key] = getattr(args, key.replace("-", "_"))
    return cfg


def _load_code(args):
    """Resolve the single input source; LawError here means exit 2."""
    if (args.law is None) == (args.grid_file is None):
        raise _UsageError("exactly one of --law or --grid-file is required")
    if args.grid_file is not None:
        try:
            return load_grid(args.grid_file), None
        except OSError as exc:
            raise _UsageError(f"cannot read grid file: {exc}")
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"--params is not valid JSON: {exc}")
        if not isinstance(params, dict):
            raise _UsageError("--params must be a JSON object")
    spec = LawSpec(name=args.law, params=params, domain=None)
    return make_law(spec), spec


class _UsageError(Exception):
    pass


def _print_check_line(name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"{name}: {verdict} ({detail})")


def _report_failure(out_dir: str, report: dict, what: str, exc: LawError) -> int:
    """Record a failed construction and return exit code 1.  InvalidParams
    is a bad configuration instead: it goes on to main, which exits 2."""
    if isinstance(exc, InvalidParams):
        raise exc
    report["error"] = f"{type(exc).__name__}: {exc}"
    report["pass"] = False
    path = _write_report(out_dir, report)
    print(f"{what} failed: {report['error']}")
    print(f"report: {os.path.basename(path)}")
    return 1


def _cmd_check(args) -> int:
    code, spec = _load_code(args)
    report = {
        "config": _config_echo(args, ("law", "params", "grid_file", "grid", "tol")),
        "law": None if spec is None else spec.to_json_dict(),
    }
    ax = check_code_axioms(code, tolerance=args.tol)
    solv = check_solvability(code)
    perm = check_permutability(code, grid=args.grid or 20, tolerance=args.tol)
    report["axioms"] = ax.to_json_dict()
    report["solvability"] = solv.to_json_dict()
    report["permutability"] = perm.to_json_dict()
    # Solvability is informational: it guides anchor choice rather than
    # gating the verdict.
    overall = ax.passed and perm.passed
    report["pass"] = overall
    path = _write_report(args.out, report)
    _print_check_line("axioms", ax.passed, f"max {ax.max_residual:.3e}")
    _print_check_line("solvability", solv.passed, f"s1 {solv.s1_fraction:.3f}")
    _print_check_line(
        "permutability",
        perm.passed,
        f"max {perm.max_residual:.3e} tol {perm.tolerance:.1e}",
    )
    print(f"report: {os.path.basename(path)}")
    return 0 if overall else 1


def _cmd_construct(args) -> int:
    code, spec = _load_code(args)
    tol = args.tol if args.tol is not None else 1e-3
    cfg = _config_echo(
        args, ("law", "params", "grid_file", "grid", "tol", "x0", "r0", "depth")
    )
    report = {"config": cfg, "law": None if spec is None else spec.to_json_dict()}
    try:
        hs = make_structure(code, x0=args.x0)
        r0 = args.r0 if args.r0 is not None else suggest_r0(hs)
        f = construct_f(hs, r0=r0, depth=args.depth)
        g = construct_g(hs, f)
    except LawError as exc:
        return _report_failure(args.out, report, "construction", exc)
    g_r0 = float(g(np.clip(r0, g.domain.lo, g.domain.hi)))
    unit = 1 if g_r0 >= 0 else -1
    rep = AdditiveRepresentation(f, g, Gauge(hs.x0, unit))
    recon = residual_report(rep, code, grid=args.grid or 30, tolerance=tol)
    report["construction"] = {
        "x0": hs.x0,
        "r0": r0,
        "depth": args.depth,
        "unit": unit,
        "f_domain": [f.domain.lo, f.domain.hi],
        "f_knots": int(f.xs.size),
        "g_domain": [g.domain.lo, g.domain.hi],
        "g_knots": int(g.xs.size),
    }
    report["reconstruction"] = recon.to_json_dict()
    alignment = None
    if spec is not None:
        try:
            ref = analytic_reference(spec)
        except NoAnalyticForm:
            ref = None
        if ref is not None:
            lo, hi = f.domain.lo, f.domain.hi
            xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 101)
            amap, err = affine_align(f, ref.f_closed, xs)
            alignment = {"xi": amap.xi, "theta": amap.theta, "max_abs_err": err}
    report["alignment"] = alignment
    report["pass"] = recon.passed
    os.makedirs(args.out, exist_ok=True)
    f.to_csv(os.path.join(args.out, "f.csv"))
    g.to_csv(os.path.join(args.out, "g.csv"))
    path = _write_report(args.out, report)
    _print_check_line(
        "reconstruction",
        recon.passed,
        f"max {recon.max_residual:.3e} skipped {recon.skipped_fraction:.3f}",
    )
    if alignment is not None:
        print(
            "alignment to closed form: xi=%.6g theta=%.6g err=%.3e"
            % (alignment["xi"], alignment["theta"], alignment["max_abs_err"])
        )
    print(f"artifacts: f.csv g.csv {os.path.basename(path)}")
    return 0 if recon.passed else 1


def _cmd_fit(args) -> int:
    code, spec = _load_code(args)
    cfg = _config_echo(
        args,
        ("law", "params", "grid_file", "grid", "tol", "x0", "knots", "quasi",
         "max_iters"),
    )
    report = {"config": cfg, "law": None if spec is None else spec.to_json_dict()}
    converged = True
    try:
        res = fit_additive(
            code,
            grid=args.grid or 21,
            knots_f=args.knots,
            knots_g=args.knots,
            quasi=args.quasi,
            max_iters=args.max_iters,
            seed=args.seed,
            x0=args.x0,
            loss_target=args.tol,
        )
    except NonConvergence as exc:
        res = exc.result
        converged = False
    rep = res.representation
    report["fit"] = res.to_json_dict()
    report["fit"]["converged"] = converged and res.converged
    report["gauge"] = {"x0": rep.gauge.x0, "unit": rep.gauge.unit}
    report["f_domain"] = [rep.f.domain.lo, rep.f.domain.hi]
    report["g_domain"] = [rep.g.domain.lo, rep.g.domain.hi]
    passed = converged if args.tol is not None else True
    report["pass"] = passed
    os.makedirs(args.out, exist_ok=True)
    rep.f.to_csv(os.path.join(args.out, "f.csv"))
    rep.g.to_csv(os.path.join(args.out, "g.csv"))
    artifacts = ["f.csv", "g.csv"]
    if rep.m is not None:
        rep.m.to_csv(os.path.join(args.out, "m.csv"))
        artifacts.append("m.csv")
    with open(os.path.join(args.out, "loss.csv"), "w", newline="") as fh:
        fh.write("iter,loss\n")
        for i, val in enumerate(res.loss_curve):
            fh.write(f"{i},{float(val)!r}\n")
    artifacts.append("loss.csv")
    path = _write_report(args.out, report)
    _print_check_line(
        "fit", passed, f"loss {res.loss:.3e} after {res.n_iters} iterations"
    )
    print(f"artifacts: {' '.join(artifacts)} {os.path.basename(path)}")
    return 0 if passed else 1


def _cmd_align(args) -> int:
    code, spec = _load_code(args)
    if args.x0_list is None or len(args.x0_list) < 2:
        raise _UsageError("align needs --x0 with at least two comma-separated values")
    tol = args.tol if args.tol is not None else 1e-3
    configs = [(x0, args.r0, args.depth) for x0 in args.x0_list]
    cfg = _config_echo(
        args, ("law", "params", "grid_file", "tol", "x0_list", "r0", "depth")
    )
    report = {"config": cfg, "law": None if spec is None else spec.to_json_dict()}
    try:
        gauge_report = check_gauge_uniqueness(code, configs, tol=tol)
    except LawError as exc:
        return _report_failure(args.out, report, "alignment", exc)
    report["gauge_uniqueness"] = gauge_report.to_json_dict()
    report["pass"] = gauge_report.passed
    path = _write_report(args.out, report)
    for pair in gauge_report.pairs:
        _print_check_line(
            f"pair ({pair.index_a},{pair.index_b})",
            pair.passed,
            f"xi={pair.xi:.6g} f_err={pair.f_err:.3e} g_err={pair.g_err:.3e}",
        )
    print(f"report: {os.path.basename(path)}")
    return 0 if gauge_report.passed else 1


def _cmd_corpus_list(args) -> int:
    for name in LAW_NAMES:
        print(name)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built at the first call and kept: every
    parse starts from a fresh namespace, so one parser serves each call.
    No prefix matching: an option a command lacks would name a longer one."""
    parser = argparse.ArgumentParser(
        prog="permlaw",
        description="Numerical checks and constructions for bivariate laws.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p, grid=True, x0=True):
        p.add_argument("--law", choices=LAW_NAMES, default=None)
        p.add_argument("--params", default=None, help="law parameters as JSON")
        p.add_argument("--grid-file", default=None, help="CSV grid to interpolate")
        if grid:
            p.add_argument("--grid", type=_parse_grid, default=None,
                           help="grid sizes, N or NxM or NxMxK")
        p.add_argument("--tol", type=_parse_tol, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if x0:
            p.add_argument("--x0", type=_parse_x0, default=None)

    p_check = add_parser("check", help="axioms, solvability, permutability")
    add_common(p_check, x0=False)

    p_con = add_parser("construct", help="build f and g from the law")
    add_common(p_con)
    p_con.add_argument("--r0", type=float, default=None)
    p_con.add_argument("--depth", type=int, default=20)

    p_fit = add_parser("fit", help="fit an additive representation")
    add_common(p_fit)
    p_fit.add_argument("--knots", type=int, default=16)
    p_fit.add_argument("--quasi", action="store_true")
    p_fit.add_argument("--max-iters", type=int, default=500)

    p_align = add_parser("align", help="gauge uniqueness across anchors")
    add_common(p_align, grid=False, x0=False)
    p_align.add_argument("--x0", dest="x0_list", type=_parse_x0_list, default=None,
                         help="comma-separated anchor list, at least two")
    p_align.add_argument("--r0", type=float, default=None)
    p_align.add_argument("--depth", type=int, default=None)

    add_parser("corpus-list", help="list known laws")

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "construct": _cmd_construct,
    "fit": _cmd_fit,
    "align": _cmd_align,
    "corpus-list": _cmd_corpus_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LawError as exc:
        # Setup-stage failures (unknown parameters, unreadable grids, bad
        # anchors) are configuration errors, not check verdicts.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
