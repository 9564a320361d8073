"""End-to-end acceptance runs, one test per criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so a verbose run doubles as the acceptance report.
"""

import json
import time

import numpy as np
import pytest

from permlaw import (
    AdditiveRepresentation,
    Gauge,
    LawSpec,
    MonotoneFunction,
    NotSymmetric,
    affine_align,
    analytic_reference,
    archimedean_count,
    check_comonotonic,
    check_differentiability,
    check_gauge_uniqueness,
    check_holder_conditions,
    check_M_permutable_implies_G,
    check_permutability,
    check_quasi_permutability,
    construct_F,
    construct_f,
    construct_g,
    fit_additive,
    make_law,
    make_structure,
    residual_report,
    standard_sequence,
    symmetric_representation,
)
from permlaw.cli import main as cli_main
from permlaw.lawcore import INCREASING, DECREASING

from conftest import ComposedCode, additive_code, law

PERMUTABLE = ("lorentz", "beer", "cylinder", "pythagoras")


def test_criterion_1_permutability_verdicts():
    t0 = time.perf_counter()
    worst = 0.0
    for name in PERMUTABLE:
        report = check_permutability(law(name), grid=20, tolerance=1e-9)
        assert report.passed, f"{name}: max residual {report.max_residual:.3e}"
        worst = max(worst, report.max_residual)
    vdw = check_permutability(law("vanderwaals"), grid=20, tolerance=1e-9)
    assert not vdw.passed
    assert vdw.max_residual >= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"criterion 1: PASS  four laws max residual {worst:.3e} <= 1e-9, "
        f"vanderwaals residual {vdw.max_residual:.3f} >= 0.1 at "
        f"{vdw.worst_point}, {elapsed:.2f}s < 5s"
    )


def test_criterion_2_constructive_representation():
    lines = []
    for name in PERMUTABLE:
        t0 = time.perf_counter()
        code = law(name)
        hs = make_structure(code)
        f = construct_f(hs, depth=20)
        g = construct_g(hs, f)
        rep = AdditiveRepresentation(f, g, Gauge(hs.x0, 1))
        recon = residual_report(rep, code, grid=30, tolerance=1e-3)
        assert recon.passed, f"{name}: reconstruction {recon.max_residual:.3e}"
        ref = analytic_reference(LawSpec(name=name, params={}, domain=None))
        lo, hi = f.domain.lo, f.domain.hi
        xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 101)
        _, err = affine_align(f, ref.f_closed, xs)
        assert err <= 1e-3, f"{name}: alignment error {err:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{name}: {elapsed:.1f}s"
        lines.append(f"{name} recon {recon.max_residual:.1e} align {err:.1e} "
                     f"{elapsed:.1f}s")
    print("criterion 2: PASS  " + "; ".join(lines))


def test_criterion_3_gauge_uniqueness_for_beer():
    report = check_gauge_uniqueness(
        law("beer"), [(0.5, None, 20), (1.0, None, 20), (2.0, None, 20)], tol=1e-3
    )
    assert report.passed
    worst_f = max(p.f_err for p in report.pairs)
    worst_g = max(p.g_err for p in report.pairs)
    for pair in report.pairs:
        assert pair.xi > 0
        assert pair.f_err <= 1e-3
        assert pair.g_err <= 1e-3
    xis = ", ".join(f"{p.xi:.4f}" for p in report.pairs)
    print(
        f"criterion 3: PASS  beer anchors pairwise affine (xi {xis}), "
        f"worst f err {worst_f:.1e}, worst g err {worst_g:.1e} <= 1e-3"
    )


def test_criterion_4_roundtrip_on_synthetic_codes():
    worst_perm = worst_loss = worst_recon = 0.0
    for seed in range(25):
        # seeds 1000 + seed: the codes this criterion has always drawn
        code, fk, gk = additive_code(1000 + seed)
        perm = check_permutability(code, grid=20, tolerance=1e-9)
        assert perm.passed, f"seed {seed}: {perm.max_residual:.3e}"
        worst_perm = max(worst_perm, perm.max_residual)
        res = fit_additive(
            code, grid=(20, 30), knots_f=fk, knots_g=gk,
            max_iters=200, seed=seed, max_points=600,
        )
        assert res.loss <= 1e-8, f"seed {seed}: loss {res.loss:.3e}"
        worst_loss = max(worst_loss, res.loss)
        yy = np.linspace(code.J.lo, code.J.hi, 23)
        rr = np.linspace(code.J2.lo, code.J2.hi, 19)
        Y, R = np.meshgrid(yy, rr, indexing="ij")
        pred = res.representation.reconstruct(Y.ravel(), R.ravel(), clip=True)
        truth = np.asarray(code(Y.ravel(), R.ravel()), dtype=float)
        recon = float(
            np.max(np.abs(pred - truth) / np.maximum(1.0, np.abs(truth)))
        )
        assert recon <= 1e-6, f"seed {seed}: reconstruction {recon:.3e}"
        worst_recon = max(worst_recon, recon)
    print(
        f"criterion 4: PASS  25 synthetic codes, worst permutability "
        f"{worst_perm:.1e} <= 1e-9, worst loss {worst_loss:.1e} <= 1e-8, "
        f"worst reconstruction {worst_recon:.1e} <= 1e-6"
    )


def test_criterion_5_holder_condition_suite():
    lines = []
    for name, anchor in (("cylinder", None), ("pythagoras", 0.5)):
        code = law(name)
        hs = make_structure(code, x0=anchor)
        report = check_holder_conditions(hs, samples=120, seed=0)
        assert report.passed, f"{name}: {[r.condition for r in report.rows if not r.passed]}"
        for row_name in ("i-commutativity", "associativity"):
            row = report.row(row_name)
            assert row.max_residual <= 1e-9, f"{name} {row_name}"

        rng = np.random.default_rng(42)
        J = code.J
        # sequences advance only through the anchor's attainable values
        reach = hs.psi_range.intersect(J)
        width = reach.width
        reach_lo, reach_hi = reach.lo + 0.2 * width, reach.hi - 0.2 * width
        n_seq = 0
        for _ in range(50):
            x = float(rng.uniform(reach_lo, reach_hi - 0.06 * width))
            y = float(x + rng.uniform(0.05 * width, 0.06 * width))
            seq = standard_sequence(hs, x, y, z_cap=J.hi)
            assert np.all(np.diff(seq.terms) > 0)
            assert seq.terms[1] == pytest.approx(y, abs=1e-9)
            n_seq += 1

        max_count = 0
        for _ in range(100):
            x = float(rng.uniform(reach_lo, reach_hi - 0.06 * width))
            y = float(x + rng.uniform(0.05 * width, 0.06 * width))
            z = float(rng.uniform(x, reach_hi))
            count = archimedean_count(hs, x, y, z, n_cap=10_000)
            assert count < 10_000
            max_count = max(max_count, count)
        lines.append(f"{name} rows pass, {n_seq} sequences increasing, "
                     f"arch count <= {max_count}")
    print("criterion 5: PASS  " + "; ".join(lines))


def test_criterion_6_quasi_permutability_transfer():
    cylinder = law("cylinder")
    M = ComposedCode(cylinder, np.log)
    quasi = check_quasi_permutability(M, cylinder, grid=20)
    assert quasi.passed
    como = check_comonotonic(M, cylinder, n_pairs=2000, seed=0)
    assert como.passed
    pair = construct_F(M, cylinder, grid=2048, spacing="log")
    lo, hi = pair.F.domain.lo, pair.F.domain.hi
    held_out = np.linspace(lo + 1e-9, hi - 1e-9, 3333)
    rel = np.abs(np.asarray(pair.F(held_out)) - np.exp(held_out)) / np.exp(held_out)
    f_err = float(rel.max())
    assert f_err <= 1e-6
    onto = check_M_permutable_implies_G(M, cylinder, grid=20)
    assert onto.quasi.passed and onto.perm.passed and onto.implication_holds
    print(
        f"criterion 6: PASS  ln(cylinder) quasi-permutable "
        f"({quasi.max_residual:.1e}), comonotone ({como.n_checked} pairs), "
        f"F matches exp within {f_err:.1e} <= 1e-6, implied permutability holds"
    )


def test_criterion_7_symmetric_case():
    h, K = symmetric_representation(law("pythagoras"))
    assert isinstance(h, MonotoneFunction)
    with pytest.raises(NotSymmetric):
        symmetric_representation(law("cylinder"))
    print(
        f"criterion 7: PASS  pythagoras single-function form with constant "
        f"K={K:.6f} (f-g spread within 1e-3); cylinder rejected NotSymmetric"
    )


def test_criterion_8_differentiability():
    code = law("lorentz")
    hs = make_structure(code)
    f = construct_f(hs, depth=20)
    g = construct_g(hs, f)
    rep = AdditiveRepresentation(f, g, Gauge(hs.x0, 1))
    report = check_differentiability(rep, code)
    assert report.passed
    assert report.f_ratio_dev <= 0.01
    assert report.g_ratio_dev <= 0.01
    assert report.f_margin > 1e-6
    assert report.g_margin > 1e-6
    print(
        f"criterion 8: PASS  lorentz derivative ratios converge "
        f"(f dev {report.f_ratio_dev:.1e}, g dev {report.g_ratio_dev:.1e} "
        f"<= 0.01), margins {report.f_margin:.3f}/{report.g_margin:.3f} > 0"
    )


def test_criterion_9_cli_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli_main(["check", "--law", "pythagoras", "--seed", "7",
                     "--out", str(a)]) == 0
    assert cli_main(["check", "--law", "pythagoras", "--seed", "7",
                     "--out", str(b)]) == 0
    bytes_a = (a / "report.json").read_bytes()
    assert bytes_a == (b / "report.json").read_bytes()
    assert cli_main(["check", "--law", "vanderwaals", "--out", str(tmp_path)]) == 1
    assert cli_main(["check", "--out", str(tmp_path)]) == 2
    report = json.loads(bytes_a)
    assert report["pass"] is True
    print(
        "criterion 9: PASS  identical seeded runs byte-identical "
        f"({len(bytes_a)} bytes); exit codes 0/1/2 observed"
    )
