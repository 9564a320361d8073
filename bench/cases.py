"""Seeded inputs and the case lists of the three benchmark workloads.

Every case runs either one CLI command in-process through
``permlaw.cli.main(argv)`` or, where the CLI cannot express the input
(restricted-domain synthetic laws, explicit knot arrays, the Hölder
condition suite), the equivalent library calls.  A case states the exit
codes it accepts and an output check; library cases report 0 for a passing
verdict and 1 for a failing one, as the CLI does.

The package is passed in as ``pl`` and every permlaw function is looked up
on it at call time, so the traced run's wrappers are reached.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

CLOSED = ("lorentz", "beer", "cylinder", "pythagoras", "vanderwaals")
PERMUTABLE = CLOSED[:4]
# Tables of laws of the form y * h(r) interpolate bilinearly into laws of
# the same form, so they stay permutable; the others do not.
TABLE_EXPECT = {"cylinder": 0, "beer": 0, "lorentz": 0,
                "pythagoras": 1, "vanderwaals": 1}
TABLE_POINTS = 41

# rng streams, one per generator, so each input depends only on the seed
STREAM_SYNTHETIC = 1
STREAM_FULL_SPAN = 2
STREAM_TABLES = 3


@dataclass(frozen=True)
class Case:
    """One timed unit of work.

    ``run(out_dir)`` returns (exit code, result); ``check(code, result,
    out_dir)`` returns a description of what is wrong with the output, or
    None.
    """

    id: str
    run: Callable[[str], tuple[int, object]]
    expect: tuple[int, ...]
    check: Callable[[int, object, str], str | None]


@dataclass(frozen=True)
class SyntheticLaw:
    code: object
    f_knots: np.ndarray
    g_knots: np.ndarray


@dataclass(frozen=True)
class Inputs:
    tables: dict
    synthetic: tuple
    full_span_params: str | None


# ---------------------------------------------------------------------------
# seeded generators


def _separated_knots(rng, lo, hi, n):
    # comparable gaps, so no segment hides from the probe grids
    pos = np.concatenate([[0.0], np.cumsum(0.35 + rng.random(n - 1))])
    ks = lo + (hi - lo) * pos / pos[-1]
    ks[0], ks[-1] = lo, hi
    return ks


def _additive_knots(rng):
    """Knots of f on [0, 12] and g on [0, 3], g either way: the recipe of
    acceptance criterion 4."""
    fk = _separated_knots(rng, 0.0, 12.0, 10)
    fv = np.cumsum(0.3 + rng.random(10))
    fv -= fv[0]
    gk = _separated_knots(rng, 0.0, 3.0, 10)
    amp = 0.25 * (fv[-1] - fv[0])
    gv = np.cumsum(np.concatenate([[0.0], 0.3 + rng.random(9)]))
    gv = gv / gv[-1] * amp
    if rng.random() < 0.5:
        gv = gv[::-1].copy()
    return fk, fv, gk, gv


def synthetic_laws(pl, seed: int, count: int) -> tuple:
    """Permutable synthetic laws on a domain where f(y) + g(r) never leaves
    f's value range (criterion 4's construction).  Expected verdicts: the
    axioms, solvability and permutability pass; construction reconstructs
    within 1e-3; a fit on the true knots reaches loss 1e-8."""
    rng = np.random.default_rng([seed, STREAM_SYNTHETIC])
    laws = []
    for _ in range(count):
        fk, fv, gk, gv = _additive_knots(rng)
        g_hi = float(max(gv[0], gv[-1]))
        g_lo = float(min(gv[0], gv[-1]))
        J_hi = float(np.interp(fv[-1] - g_hi, fv, fk))
        J_lo = max(float(np.interp(fv[0] - g_lo, fv, fk)),
                   fk[0] + 0.6 * (fk[1] - fk[0]))
        domain = (pl.Interval(J_lo + 1e-3, J_hi - 1e-3), pl.Interval(0.0, 3.0))
        code = pl.make_synthetic((fk, fv), (gk, gv), domain=domain)
        laws.append(SyntheticLaw(code, fk, gk))
    return tuple(laws)


def full_span_params(seed: int) -> str:
    """--params JSON of a synthetic law over its whole knot span, where
    f(y) + g(r) clips at the ends of f's range."""
    fk, fv, gk, gv = _additive_knots(np.random.default_rng([seed, STREAM_FULL_SPAN]))
    return json.dumps({"f_xs": fk.tolist(), "f_ys": fv.tolist(),
                       "g_xs": gk.tolist(), "g_ys": gv.tolist()})


def write_tables(pl, seed: int, names, out_dir: str) -> dict:
    """CSV value tables of closed-form laws with seeded parameters and
    ranges, for ``--grid-file``.  Expected check verdicts: TABLE_EXPECT."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, STREAM_TABLES])
    n = TABLE_POINTS
    # draw every table's parameters, so each table is the same whichever
    # subset a workload writes
    c_beer = float(rng.uniform(0.7, 1.5))
    c_lorentz = float(rng.uniform(0.8, 1.5))
    vdw = {"a": float(rng.uniform(2.5, 3.0)), "b": float(rng.uniform(0.5, 0.6)),
           "K": float(rng.uniform(0.8, 1.2))}
    lengths = [np.linspace(rng.uniform(0.1, 0.5), rng.uniform(8.0, 12.0), n)
               for _ in range(3)]
    specs = {
        "cylinder": ({}, lengths[0],
                     np.linspace(rng.uniform(0.15, 0.25), rng.uniform(0.8, 1.0), n)),
        "beer": ({"c": c_beer}, lengths[1], np.linspace(0.0, 5.0 * c_beer, n)),
        "lorentz": ({"c": c_lorentz}, lengths[2],
                    np.linspace(0.0, 0.95 * c_lorentz, n)),
        "pythagoras": ({}, np.linspace(rng.uniform(0.5, 1.0), rng.uniform(8.0, 12.0), n),
                       np.linspace(rng.uniform(0.5, 1.0), rng.uniform(8.0, 12.0), n)),
        # b >= 0.5 and p >= 0.8 keep the table monotone in v
        "vanderwaals": (vdw, np.linspace(rng.uniform(0.8, 1.2), 5.0, n),
                        np.linspace(1.0, 3.0, n)),
    }
    paths = {}
    for name in names:
        params, ys, rs = specs[name]
        spec = pl.LawSpec(name, params, (pl.Interval(float(ys[0]), float(ys[-1])),
                                         pl.Interval(float(rs[0]), float(rs[-1]))))
        code = pl.make_law(spec)
        path = os.path.join(out_dir, f"{name}.csv")
        pl.write_grid_csv(path, ys, rs, code(ys[:, None], rs[None, :]))
        paths[name] = path
    return paths


def make_inputs(pl, workload: str, seed: int, in_dir: str) -> Inputs:
    if workload == "check":
        return Inputs(write_tables(pl, seed, CLOSED, in_dir),
                      synthetic_laws(pl, seed, 2), None)
    if workload == "construct":
        return Inputs(write_tables(pl, seed, ("beer", "cylinder"), in_dir),
                      synthetic_laws(pl, seed, 2), full_span_params(seed))
    if workload == "fit":
        return Inputs({}, synthetic_laws(pl, seed, 1), None)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks


def _report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _problems(*pairs) -> str | None:
    bad = [msg for ok, msg in pairs if not ok]
    return "; ".join(bad) if bad else None


def _pass_agrees(rep: dict, code: int):
    return rep.get("pass") is (code == 0), f"pass={rep.get('pass')} exit={code}"


def _check_report(verdict_key, max_residual=None, min_residual=None):
    """report.json exists, its pass flag agrees with the exit code, and the
    named check's residual lies on the stated side of a bound."""

    def check(code, out_dir):
        rep = _report(out_dir)
        pairs = [_pass_agrees(rep, code)]
        res = rep[verdict_key]["max_residual"]
        if max_residual is not None:
            pairs.append((res <= max_residual, f"{verdict_key} {res:.3e} > {max_residual:g}"))
        if min_residual is not None:
            pairs.append((res >= min_residual, f"{verdict_key} {res:.3e} < {min_residual:g}"))
        return _problems(*pairs)

    return check


def _check_construct(closed_form: bool):
    def check(code, out_dir):
        rep = _report(out_dir)
        pairs = [_pass_agrees(rep, code)]
        if code == 0:
            recon = rep["reconstruction"]["max_residual"]
            pairs.append((recon <= 1e-3, f"reconstruction {recon:.3e} > 1e-3"))
            if closed_form:
                err = rep["alignment"]["max_abs_err"]
                pairs.append((err <= 1e-3, f"alignment {err:.3e} > 1e-3"))
        return _problems(*pairs)

    return check


def _check_align(code, out_dir):
    rep = _report(out_dir)
    pairs = rep["gauge_uniqueness"]["pairs"]
    if code == 1:
        return _problems((not all(p["pass"] for p in pairs), "every pair passed"))
    return _problems(
        (len(pairs) == 3, f"{len(pairs)} pairs"),
        *[(p["pass"] and p["xi"] > 0 and p["f_err"] <= 1e-3 and p["g_err"] <= 1e-3,
           f"pair {p['pair']}") for p in pairs])


def _loss_curve_problem(curve, final_loss) -> str | None:
    curve = np.asarray(curve, dtype=float)
    return _problems(
        (bool(np.all(np.diff(curve) <= 0)), "loss curve increases"),
        (curve.size > 0 and curve[-1] == final_loss,
         f"loss curve ends at {curve[-1] if curve.size else None!r}, "
         f"report says {final_loss!r}"))


def _check_fit_cli(quasi: bool):
    def check(code, out_dir):
        rep = _report(out_dir)
        with open(os.path.join(out_dir, "loss.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        curve = [float(r[1]) for r in rows[1:]]
        return _problems(
            (rows[0] == ["iter", "loss"], "loss.csv header"),
            (rep.get("pass") is True, "report does not pass"),
            (os.path.exists(os.path.join(out_dir, "m.csv")) == quasi, "m.csv presence"),
        ) or _loss_curve_problem(curve, rep["fit"]["loss"])

    return check


# ---------------------------------------------------------------------------
# case builders


def cli_case(pl, case_id, argv, expect, check) -> Case:
    """A CLI command; ``check(exit_code, out_dir)`` inspects its artifacts."""

    def run(out_dir):
        return pl.cli.main(list(argv) + ["--out", out_dir]), None

    expect = (expect,) if isinstance(expect, int) else tuple(expect)
    return Case(case_id, run, expect, lambda code, result, out_dir: check(code, out_dir))


def lib_case(case_id, fn, expect, check) -> Case:
    """Library calls; ``fn()`` returns (verdict code, result) and
    ``check(result)`` inspects the result."""
    return Case(case_id, lambda out_dir: fn(), (expect,),
                lambda code, result, out_dir: check(result))


def check_cases(pl, inputs: Inputs) -> list:
    closed = []
    for law in CLOSED:
        if law == "vanderwaals":
            chk = _check_report("permutability", min_residual=0.1)
        else:
            chk = _check_report("permutability", max_residual=1e-9)
        closed.append(cli_case(pl, f"check-{law}", ["check", "--law", law],
                               0 if law in PERMUTABLE else 1, chk))
    large = [cli_case(pl, f"check-{law}-grid160",
                      ["check", "--law", law, "--grid", "160"], 0,
                      _check_report("permutability", max_residual=1e-9))
             for law in PERMUTABLE]
    tables = []
    for law, path in inputs.tables.items():
        expect = TABLE_EXPECT[law]
        bound = {"max_residual": 1e-4} if expect == 0 else {"min_residual": 1e-4}
        tables.append(cli_case(pl, f"check-table-{law}",
                               ["check", "--grid-file", path, "--tol", "1e-4"],
                               expect, _check_report("permutability", **bound)))
    synthetic = []
    for i, law in enumerate(inputs.synthetic):
        code = law.code

        def axioms(code=code):
            rep = pl.check_code_axioms(code)
            return (0 if rep.passed else 1), rep

        def solvability(code=code):
            rep = pl.check_solvability(code)
            return (0 if rep.passed else 1), rep

        def permutability(code=code):
            rep = pl.check_permutability(code, grid=20, tolerance=1e-9)
            return (0 if rep.passed else 1), rep

        synthetic += [
            lib_case(f"axioms-synthetic{i}", axioms, 0,
                     lambda rep: _problems((rep.max_residual <= 1e-4,
                                            f"axioms {rep.max_residual:.3e}"))),
            lib_case(f"solvability-synthetic{i}", solvability, 0,
                     lambda rep: _problems((rep.s1_fraction == 1.0,
                                            f"s1 {rep.s1_fraction}"))),
            lib_case(f"permutability-synthetic{i}", permutability, 0,
                     lambda rep: _problems((rep.max_residual <= 1e-9,
                                            f"permutability {rep.max_residual:.3e}"))),
        ]
    return [closed, large, tables, synthetic]


def _construct_library(pl, code):
    hs = pl.make_structure(code)
    f = pl.construct_f(hs, depth=20)
    g = pl.construct_g(hs, f)
    rep = pl.AdditiveRepresentation(f, g, pl.Gauge(hs.x0, 1))
    recon = pl.residual_report(rep, code, grid=30, tolerance=1e-3)
    return (0 if recon.passed else 1), recon


def _conditions(pl, law, x0):
    def fn():
        hs = pl.make_structure(pl.make_law(pl.LawSpec(law, {}, None)), x0=x0)
        rep = pl.check_holder_conditions(hs, samples=120, seed=0)
        return (0 if rep.passed else 1), rep

    return fn


def _check_conditions(rep):
    if not rep.passed:
        return None
    worst = max(rep.row(name).max_residual
                for name in ("i-commutativity", "associativity"))
    return _problems((worst <= 1e-9, f"commutativity/associativity {worst:.3e} > 1e-9"))


def construct_cases(pl, inputs: Inputs) -> list:
    closed = [cli_case(pl, f"construct-{law}",
                       ["construct", "--law", law, "--depth", "20"],
                       0 if law in PERMUTABLE else 1, _check_construct(closed_form=True))
              for law in CLOSED]
    align = [cli_case(pl, f"align-{law}", ["align", "--law", law, "--x0", "0.5,1.0,2.0"],
                      0 if law in PERMUTABLE else 1, _check_align)
             for law in CLOSED]
    conditions = [lib_case(f"conditions-{law}", _conditions(pl, law, x0), expect,
                           _check_conditions)
                  for law, x0, expect in (("cylinder", None, 0), ("pythagoras", 0.5, 0),
                                          ("vanderwaals", None, 1))]
    synthetic = [lib_case(f"construct-synthetic{i}",
                          lambda code=law.code: _construct_library(pl, code), 0,
                          lambda recon: _problems((recon.max_residual <= 1e-3,
                                                   f"reconstruction {recon.max_residual:.3e}")))
                 for i, law in enumerate(inputs.synthetic)]
    tables = [cli_case(pl, f"construct-table-{law}",
                       ["construct", "--grid-file", path, "--depth", "20"],
                       0, _check_construct(closed_form=False))
              for law, path in inputs.tables.items()]
    # The sums of this law clip at the ends of f's range, so G(y, r0) has a
    # fixed point inside J.  Either a construction that reconstructs within
    # 1e-3 or a reported failure is an acceptable answer; not returning is
    # not, and the per-case time limit counts it as a failure.
    full_span = [cli_case(pl, "construct-synthetic-full-span",
                          ["construct", "--law", "synthetic",
                           "--params", inputs.full_span_params],
                          (0, 1), _check_construct(closed_form=False))]
    return [closed, align, conditions, synthetic, tables, full_span]


def _fit_library(pl, code, loss_bound, **kwargs):
    def fn():
        res = pl.fit_additive(code, **kwargs)
        return 0, res

    def check(res):
        return (_problems((res.loss <= loss_bound, f"loss {res.loss:.3e} > {loss_bound:g}"))
                or _loss_curve_problem(res.loss_curve, res.loss))

    return fn, check


def fit_cases(pl, inputs: Inputs) -> list:
    defaults = [cli_case(pl, f"fit-{law}", ["fit", "--law", law], 0,
                         _check_fit_cli(quasi=False))
                for law in CLOSED]
    k32 = [cli_case(pl, f"fit-{law}-k32",
                    ["fit", "--law", law, "--knots", "32", "--grid", "25x25"],
                    0, _check_fit_cli(quasi=False))
           for law in PERMUTABLE]
    quasi = [cli_case(pl, "fit-cylinder-quasi-k24",
                      ["fit", "--law", "cylinder", "--quasi", "--knots", "24"],
                      0, _check_fit_cli(quasi=True)),
             cli_case(pl, "fit-lorentz-quasi", ["fit", "--law", "lorentz", "--quasi"],
                      0, _check_fit_cli(quasi=True))]
    cylinder = pl.make_law(pl.LawSpec("cylinder", {}, None))
    fn, check = _fit_library(pl, cylinder, 1e-7, grid=(30, 30),
                             knots_f=np.geomspace(0.003, 283.0, 160),
                             knots_g=np.geomspace(0.1, 3.0, 64),
                             max_iters=400, seed=0, max_points=700)
    dense = [lib_case("fit-cylinder-dense", fn, 0, check)]
    synthetic = []
    for i, law in enumerate(inputs.synthetic):
        fn, check = _fit_library(pl, law.code, 1e-8, grid=(20, 30),
                                 knots_f=law.f_knots, knots_g=law.g_knots,
                                 max_iters=200, seed=i, max_points=600)
        synthetic.append(lib_case(f"fit-synthetic{i}", fn, 0, check))
    return [defaults, k32, quasi, dense, synthetic]


BUILDERS = {"check": check_cases, "construct": construct_cases, "fit": fit_cases}


def build_cases(pl, workload: str, inputs: Inputs) -> list:
    """The workload's case list, each group of similar cases spread evenly
    along it.  The machine's speed drifts over seconds; spread out, the
    cases that set the median and the tail do not all fall in one slow or
    fast spell."""
    groups = BUILDERS[workload](pl, inputs)
    placed = sorted(((i + 0.5) / len(group), g, i, case)
                    for g, group in enumerate(groups) for i, case in enumerate(group))
    return [case for *_, case in placed]
