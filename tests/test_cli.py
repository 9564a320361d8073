import dataclasses
import json
import os
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import permlaw
from permlaw import MonotoneFunction, make_law, write_grid_csv
from permlaw import cli
from permlaw.cli import main

from conftest import law


def run(*argv):
    return main(list(argv))


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


class TestCheck:
    def test_pythagoras_passes(self, tmp_path, capsys):
        code = run("check", "--law", "pythagoras", "--out", str(tmp_path))
        assert code == 0
        report = read_report(tmp_path)
        assert report["pass"] is True
        assert report["permutability"]["pass"] is True
        assert report["axioms"]["pass"] is True
        out = capsys.readouterr().out
        assert "permutability: PASS" in out

    def test_vanderwaals_fails_with_worst_triple(self, tmp_path):
        code = run("check", "--law", "vanderwaals", "--out", str(tmp_path))
        assert code == 1
        report = read_report(tmp_path)
        assert report["pass"] is False
        assert report["permutability"]["worst_point"] == [0.5, 1.0, 3.0]
        assert report["permutability"]["max_residual"] >= 0.1

    def test_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("check", "--law", "pythagoras", "--seed", "7", "--out", str(a)) == 0
        assert run("check", "--law", "pythagoras", "--seed", "7", "--out", str(b)) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    @pytest.mark.parametrize("grid, expected", [
        ("8x12x16", [8, 12, 16]), ("9x5", [9, 5, 5]), ("12", [12, 12, 12]),
    ])
    def test_grid_runs_as_given(self, tmp_path, grid, expected):
        assert run("check", "--law", "beer", "--grid", grid, "--out", str(tmp_path)) == 0
        report = read_report(tmp_path)
        assert report["permutability"]["grid"] == expected

    def test_domain_too_small_is_a_configuration_error(self, tmp_path, capsys):
        # every inner value pi y r^2 >= 4 pi lies above the table's y range
        ys = np.linspace(1.0, 10.0, 5)
        rs = np.linspace(2.0, 3.0, 5)
        grid_path = tmp_path / "grid.csv"
        write_grid_csv(grid_path, ys, rs, np.pi * ys[:, None] * rs[None, :] ** 2)
        code = run("check", "--grid-file", str(grid_path), "--out", str(tmp_path))
        assert code == 2
        assert "DomainTooSmall" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_grid_file_input(self, tmp_path):
        base = law("cylinder")
        ys = np.linspace(0.1, 10.0, 41)
        rs = np.linspace(0.1, 3.0, 41)
        V = np.asarray(base(ys[:, None], rs[None, :]), dtype=float)
        grid_path = tmp_path / "grid.csv"
        write_grid_csv(grid_path, ys, rs, V)
        code = run(
            "check", "--grid-file", str(grid_path), "--tol", "1e-4",
            "--out", str(tmp_path),
        )
        assert code == 0


class TestConstruct:
    def test_beer_artifacts(self, tmp_path):
        code = run("construct", "--law", "beer", "--out", str(tmp_path))
        assert code == 0
        report = read_report(tmp_path)
        assert report["pass"] is True
        assert report["reconstruction"]["pass"] is True
        assert report["alignment"]["xi"] > 0
        assert report["alignment"]["max_abs_err"] <= 1e-3
        f = MonotoneFunction.from_csv(tmp_path / "f.csv")
        g = MonotoneFunction.from_csv(tmp_path / "g.csv")
        assert f.domain.lo < f.domain.hi
        assert g.domain.lo < g.domain.hi
        meta = report["construction"]
        assert meta["depth"] == 20
        assert meta["f_knots"] == len(f.xs)

    def test_vanderwaals_fails_cleanly(self, tmp_path):
        code = run("construct", "--law", "vanderwaals", "--out", str(tmp_path))
        assert code == 1
        report = read_report(tmp_path)
        assert report["pass"] is False

    @pytest.mark.parametrize("grid, expected", [("9x11", [9, 11]), ("12", [12, 12])])
    def test_reconstruction_grid_runs_as_given(self, tmp_path, grid, expected):
        code = run("construct", "--law", "beer", "--depth", "8", "--grid", grid,
                   "--out", str(tmp_path))
        assert code == 0
        assert read_report(tmp_path)["reconstruction"]["grid"] == expected


class TestFit:
    def test_artifacts_and_loss_curve(self, tmp_path):
        code = run(
            "fit", "--law", "pythagoras", "--grid", "15x15", "--knots", "12",
            "--max-iters", "120", "--out", str(tmp_path),
        )
        assert code == 0
        report = read_report(tmp_path)
        assert report["fit"]["loss"] < 1e-2
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,loss"
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert losses == sorted(losses, reverse=True)
        assert (tmp_path / "f.csv").exists()
        assert (tmp_path / "g.csv").exists()

    def test_quasi_writes_m(self, tmp_path):
        code = run(
            "fit", "--law", "cylinder", "--grid", "12x12", "--knots", "10",
            "--quasi", "--max-iters", "40", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "m.csv").exists()

    def test_target_stops_the_fit(self, tmp_path):
        # Without a target this fit's quantile solve passes 3.8e-4, then
        # 1.4e-4, and the fit ends at 1.8e-5: with a target between, the fit
        # stops at the first loss below it.
        code = run(
            "fit", "--law", "cylinder", "--knots", "32", "--grid", "25x25",
            "--tol", "2e-4", "--out", str(tmp_path),
        )
        assert code == 0
        report = read_report(tmp_path)
        assert report["fit"]["converged"] is True
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert losses[-1] <= 2e-4 < losses[-2]

    def test_every_accepted_step_lowers_the_loss(self, tmp_path):
        # a row only for a solve that lowers the best loss
        code = run("fit", "--law", "beer", "--knots", "32", "--grid", "25x25",
                   "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_unmet_target_exits_one(self, tmp_path):
        code = run(
            "fit", "--law", "vanderwaals", "--grid", "12x12", "--tol", "1e-12",
            "--max-iters", "5", "--out", str(tmp_path),
        )
        assert code == 1
        report = read_report(tmp_path)
        assert report["pass"] is False
        assert report["fit"]["converged"] is False


class TestAlign:
    def test_beer_anchor_sweep(self, tmp_path):
        code = run(
            "align", "--law", "beer", "--x0", "0.5,1.0,2.0", "--out", str(tmp_path)
        )
        assert code == 0
        report = read_report(tmp_path)
        assert report["pass"] is True
        assert len(report["gauge_uniqueness"]["pairs"]) == 3
        for pair in report["gauge_uniqueness"]["pairs"]:
            assert pair["xi"] > 0

    def test_single_anchor_is_usage_error(self, tmp_path):
        assert run("align", "--law", "beer", "--x0", "1.0", "--out", str(tmp_path)) == 2

    def test_vanderwaals_fails(self, tmp_path):
        code = run("align", "--law", "vanderwaals", "--x0", "0.5,1.0,2.0",
                   "--out", str(tmp_path))
        assert code == 1
        assert read_report(tmp_path)["pass"] is False


class TestUsageErrors:
    def test_no_input_source(self, tmp_path):
        assert run("check", "--out", str(tmp_path)) == 2

    def test_two_input_sources(self, tmp_path):
        assert (
            run(
                "check", "--law", "beer", "--grid-file", "x.csv",
                "--out", str(tmp_path),
            )
            == 2
        )

    def test_unknown_law(self, tmp_path):
        assert run("check", "--law", "gravity", "--out", str(tmp_path)) == 2

    def test_bad_grid_spec(self, tmp_path):
        assert run("check", "--law", "beer", "--grid", "20xx", "--out", str(tmp_path)) == 2

    def test_missing_grid_file(self, tmp_path):
        assert run("check", "--grid-file", str(tmp_path / "none.csv")) == 2

    def test_bad_params_json(self, tmp_path):
        assert (
            run("check", "--law", "beer", "--params", "{oops", "--out", str(tmp_path))
            == 2
        )

    @pytest.mark.parametrize("argv", [
        ["check", "--law", "beer", "--x0", "1.0"],
        ["align", "--law", "beer", "--x0", "0.5,1.0", "--grid", "12"],
        ["corpus-list", "--seed", "3"],
    ])
    def test_options_a_command_does_not_read_exit_two(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        assert not (tmp_path / "report.json").exists()


class TestConfigurationErrors:
    @pytest.mark.parametrize("argv", [
        ["align", "--law", "beer", "--x0", "0.5,1.0", "--grid", "12"],
        ["fit", "--law", "beer", "--max", "3"],
        ["construct", "--law", "beer", "--dep", "8"],
        ["check", "--la", "beer"],
    ])
    def test_an_abbreviated_option_exits_two(self, tmp_path, capsys, argv):
        # prefix matching is off: --grid on align is no --grid-file
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["construct", "--law", "beer", "--x0", "100"],
        ["construct", "--law", "beer", "--depth", "-3"],
        ["align", "--law", "beer", "--x0", "100,1"],
        ["construct", "--law", "beer", "--depth", "8", "--grid", "8x9x10"],
        ["fit", "--law", "beer", "--grid", "12x12x30", "--max-iters", "2"],
        ["fit", "--law", "beer", "--max-iters", "-3"],
        ["check", "--law", "beer", "--grid", "500"],
        ["construct", "--law", "beer", "--grid", "5000"],
        ["fit", "--law", "beer", "--x0", "100"],
        ["check", "--law", "lorentz", "--params", '{"C": 2}'],
        ["check", "--law", "synthetic", "--params", json.dumps(
            {k: [0, 1] for k in ("f_xs", "f_ys", "g_xs", "g_ys", "m_xs", "m_ys")})],
    ])
    def test_invalid_params_exit_two(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert "InvalidParams" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_fit_refuses_a_grid_past_256_cubed_unread(self, tmp_path, capsys,
                                                       monkeypatch):
        calls = []

        def counted(spec):
            code = make_law(spec)
            return dataclasses.replace(
                code, fn=lambda y, r: calls.append(1) or code.fn(y, r))

        monkeypatch.setattr(cli, "make_law", counted)
        assert run("fit", "--law", "beer", "--grid", "5000", "--out", str(tmp_path)) == 2
        assert "more than 256^3 points" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert calls == []

    @pytest.mark.parametrize("argv", [["construct"], ["align", "--x0", "0.3,0.6"]])
    @pytest.mark.parametrize("r0", ["1.5", "nan", "-2"])
    def test_unit_outside_j2_exits_two(self, tmp_path, capsys, argv, r0):
        # lorentz's J' is [0, 0.95]: the unit is refused before G sees it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv[0], "--law", "lorentz", *argv[1:], "--r0", r0,
                       "--out", str(tmp_path))
        assert code == 2
        assert "InvalidParams" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("params", [
        '{"f_xs":[0,1],"f_ys":[0,1],"g_xs":[0,1],"g_ys":[0,"x"]}',
        '{"f_xs":[[0,1]],"f_ys":[[0,1]],"g_xs":[0,1],"g_ys":[0,1]}',
    ])
    def test_malformed_synthetic_knots_exit_two(self, tmp_path, capsys, params):
        assert run("check", "--law", "synthetic", "--params", params,
                   "--out", str(tmp_path)) == 2
        assert "NonMonotoneKnots" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


_KNOT = st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2), st.none(),
                  st.lists(st.integers(0, 3), max_size=2))
_KNOTS = st.lists(_KNOT, max_size=3)


@settings(max_examples=40)
@given(st.fixed_dictionaries({k: _KNOTS for k in ("f_xs", "f_ys", "g_xs", "g_ys")}))
def test_fuzzed_synthetic_params_keep_the_exit_codes(tmp_path_factory, params):
    # any JSON knot lists: numbers, strings, null, nested and unequal lists
    out = tmp_path_factory.mktemp("fuzz")
    assert run("check", "--law", "synthetic", "--params", json.dumps(params),
               "--out", str(out)) in (0, 1, 2)


def _rising(n):
    return st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n, unique=True).map(sorted)


_MONOTONE_KNOTS = st.integers(2, 4).flatmap(lambda n: st.tuples(_rising(n), _rising(n)))


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40)
@given(f=_MONOTONE_KNOTS, g=_MONOTONE_KNOTS, g_falls=st.booleans(),
       depth=st.sampled_from(["1", "4", "20"]))
def test_fuzzed_monotone_knots_construct_in_bounded_time(tmp_path_factory, f, g,
                                                         g_falls, depth):
    # any increasing f and monotone g knot lists, from tiny to wide spans:
    # the anchor orbit's bound keeps each run short
    g_ys = g[1][::-1] if g_falls else g[1]
    params = {"f_xs": f[0], "f_ys": f[1], "g_xs": g[0], "g_ys": g_ys}
    out = tmp_path_factory.mktemp("fuzz")
    with time_limit(30):
        assert run("construct", "--law", "synthetic", "--params", json.dumps(params),
                   "--depth", depth, "--out", str(out)) in (0, 1, 2)


_LAW = st.sampled_from(["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"])
_NUMBER = st.one_of(st.floats(-2.0, 12.0), st.floats(), st.integers(-3, 3)).map(str)
# mostly inside the corpus laws' J, where an anchor is usable
_ANCHOR = st.one_of(st.floats(0.2, 5.0).map(str), _NUMBER)


@settings(max_examples=25)
@given(law=_LAW, grid=st.sampled_from(["10", "12", "10x14", "16x10", "9", "2", "x"]),
       knots=st.integers(-1, 8), iters=st.integers(-1, 4), x0=st.none() | _ANCHOR,
       tol=st.none() | _NUMBER, quasi=st.booleans())
def test_fuzzed_fit_argv_keeps_the_exit_codes(tmp_path_factory, law, grid, knots, iters,
                                              x0, tol, quasi):
    # grids near the 10 x 10 floor, few knots and iterations, any anchor
    # and target: no LawError escapes main, and each run exits 0, 1 or 2 in
    # well under 10 s
    argv = ["fit", "--law", law, "--grid", grid, "--knots", str(knots),
            "--max-iters", str(iters)]
    argv += [] if x0 is None else ["--x0", x0]
    argv += [] if tol is None else ["--tol", tol]
    argv += ["--quasi"] if quasi else []
    with time_limit(10):
        assert run(*argv, "--out", str(tmp_path_factory.mktemp("fuzz"))) in (0, 1, 2)


@settings(max_examples=25)
@given(law=_LAW, x0s=st.lists(_ANCHOR, min_size=1, max_size=3),
       depth=st.none() | st.integers(-1, 6), r0=st.none() | _NUMBER,
       tol=st.none() | _NUMBER)
def test_fuzzed_align_argv_keeps_the_exit_codes(tmp_path_factory, law, x0s, depth, r0, tol):
    # any anchor list, unit and tolerance, shallow depths: as for fit
    argv = ["align", "--law", law, "--x0", ",".join(x0s)]
    argv += [] if depth is None else ["--depth", str(depth)]
    argv += [] if r0 is None else ["--r0", r0]
    argv += [] if tol is None else ["--tol", tol]
    with time_limit(10):
        assert run(*argv, "--out", str(tmp_path_factory.mktemp("fuzz"))) in (0, 1, 2)


# This orbit under the suggested unit would take about 1e7 steps across J
_LONG_ORBIT = ["construct", "--law", "synthetic", "--params", json.dumps({
    "f_xs": [999.9999999999999, 1320.166837749359],
    "f_ys": [2.8495230980320716e-36, 320.1668377493591],
    "g_xs": [0.0, 1e-06], "g_ys": [0.0, 0.001]})]


@pytest.mark.parametrize("depth", [["--depth", "4"], []])
def test_long_anchor_orbit_exits_one_quickly(tmp_path, depth):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(permlaw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "permlaw.cli", *_LONG_ORBIT, *depth, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "NotArchimedeanWithinCap" in read_report(tmp_path)["error"]


class TestNumberValidation:
    @pytest.mark.parametrize("argv", [
        ["check", "--law", "beer", "--tol", "nan"],
        ["check", "--law", "beer", "--tol", "-1"],
        ["check", "--law", "beer", "--tol", "0"],
        ["construct", "--law", "beer", "--x0", "nan"],
        ["fit", "--law", "beer", "--x0", "inf"],
        ["align", "--law", "beer", "--x0", "nan,1"],
        ["align", "--law", "beer", "--x0", "0.5,x"],
    ])
    def test_bad_numbers_are_usage_errors(self, tmp_path, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert not (tmp_path / "report.json").exists()


class TestCorpusList:
    def test_lists_all_laws(self, capsys):
        assert run("corpus-list") == 0
        out = capsys.readouterr().out.split()
        assert out == [
            "lorentz", "beer", "cylinder", "pythagoras", "vanderwaals", "synthetic",
        ]
