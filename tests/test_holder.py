import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from permlaw import (
    AdditiveRepresentation,
    BivariateCode,
    Gauge,
    Interval,
    InvalidParams,
    NotSymmetric,
    OrbitEscaped,
    UnitDegenerate,
    archimedean_count,
    check_differentiability,
    check_holder_conditions,
    construct_f,
    construct_g,
    make_structure,
    make_synthetic,
    residual_report,
    standard_sequence,
    suggest_r0,
    symmetric_representation,
)
from permlaw import holder
from permlaw.holder import (
    LEVEL_CAP, _MAX_KNOTS, NotArchimedeanWithinCap, StepUndefined, Undefined, bullet)

from conftest import law


def pyth_structure():
    # anchored at 1, the partial operation has the closed form
    # x . y = sqrt(x^2 + y^2 - 1)
    return make_structure(law("pythagoras"), x0=1.0)


class TestBullet:
    def test_pythagoras_closed_form(self):
        hs = pyth_structure()
        assert bullet(hs, 2.0, 2.0) == pytest.approx(np.sqrt(7.0), abs=1e-9)

    def test_lorentz_closed_form(self):
        # G(x, v) = x sqrt(1 - v^2) anchored at 1 gives x . y = x y
        hs = make_structure(law("lorentz"), x0=1.0)
        assert bullet(hs, 2.0, 0.5) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=1.2, max_value=4.0),
        st.floats(min_value=1.2, max_value=4.0),
    )
    def test_commutative(self, x, y):
        hs = pyth_structure()
        assert bullet(hs, x, y) == pytest.approx(bullet(hs, y, x), abs=1e-9)

    @given(
        st.floats(min_value=1.2, max_value=3.0),
        st.floats(min_value=1.2, max_value=3.0),
        st.floats(min_value=1.2, max_value=3.0),
    )
    def test_associative_where_defined(self, x, y, z):
        hs = pyth_structure()
        try:
            lhs = bullet(hs, bullet(hs, x, y), z)
            rhs = bullet(hs, x, bullet(hs, y, z))
        except Undefined:
            assume(False)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_undefined_below_reach(self):
        hs = pyth_structure()
        # target below psi's attainable range has no modifier preimage
        with pytest.raises(Undefined):
            bullet(hs, 2.0, 0.6)


class TestStandardSequence:
    def test_pythagoras_terms_match_closed_form(self):
        hs = pyth_structure()
        seq = standard_sequence(hs, 1.2, 1.5, z_cap=2.0)
        # solving the recursion in closed form: term_k^2 = x^2 + k(y^2 - x^2)
        step = 1.5**2 - 1.2**2
        expected = np.sqrt(1.2**2 + step * np.arange(len(seq.terms)))
        assert np.max(np.abs(np.asarray(seq.terms) - expected)) < 1e-9
        assert not seq.truncated
        assert seq.terms[1] == pytest.approx(1.5, abs=1e-12)

    @given(
        st.floats(min_value=1.1, max_value=2.0),
        st.floats(min_value=2.05, max_value=3.0),
    )
    def test_strictly_increasing(self, x, y):
        hs = pyth_structure()
        seq = standard_sequence(hs, x, y, z_cap=5.0)
        assert np.all(np.diff(seq.terms) > 0)

    def test_cap_truncates(self):
        hs = pyth_structure()
        seq = standard_sequence(hs, 1.2, 1.2000001, z_cap=9.0, n_cap=10)
        assert seq.truncated
        assert len(seq.terms) == 10


class TestArchimedean:
    def test_count_matches_closed_form(self):
        hs = pyth_structure()
        # terms stay below z while x^2 + k(y^2 - x^2) <= z^2
        step = 1.5**2 - 1.2**2
        expected = int((2.0**2 - 1.2**2) // step) + 1
        assert archimedean_count(hs, 1.2, 1.5, 2.0) == expected == 4

    def test_z_below_x(self):
        hs = pyth_structure()
        assert archimedean_count(hs, 1.5, 1.8, 1.2) == 0
        assert archimedean_count(hs, 1.5, 1.8, 1.5) == 1

    def test_equal_x_y_rejected(self):
        hs = pyth_structure()
        with pytest.raises(InvalidParams):
            archimedean_count(hs, 1.5, 1.5, 9.0, n_cap=50)


class TestSuggestR0:
    def test_returns_usable_modifier(self, cylinder):
        hs = make_structure(cylinder)
        r0 = suggest_r0(hs)
        assert cylinder.J2.contains(r0)
        assert abs(float(cylinder(hs.x0, r0)) - hs.x0) > 1e-9


class TestConstructF:
    def test_beer_dyadic_values_exact(self, beer):
        hs = make_structure(beer, x0=1.0)
        f = construct_f(hs, r0=1.0, depth=10)
        # the unit modifier multiplies by e^-1, so f(e^-n) lands exactly on -n
        for n in (0, 1, 2):
            assert float(f(np.exp(-float(n)))) == pytest.approx(-float(n), abs=1e-12)
        assert f.domain.lo == pytest.approx(np.exp(-2.0), abs=1e-9)
        assert f.domain.hi == pytest.approx(np.exp(2.0), abs=1e-9)

    def test_cylinder_matches_log(self, cylinder):
        hs = make_structure(cylinder, x0=1.0)
        f = construct_f(hs, r0=float(np.sqrt(np.e / np.pi)), depth=10)
        xs = np.linspace(f.domain.lo, f.domain.hi, 401)
        assert np.abs(np.asarray(f(xs)) - np.log(xs)).max() < 1e-6

    def test_zero_modifier_rejected(self, cylinder):
        hs = make_structure(cylinder, x0=1.0)
        with pytest.raises(UnitDegenerate):
            construct_f(hs, r0=float(1.0 / np.sqrt(np.pi)), depth=6)

    def test_oversized_step_rejected(self, cylinder):
        hs = make_structure(cylinder, x0=1.0)
        with pytest.raises(OrbitEscaped):
            construct_f(hs, r0=3.0, depth=6)

    def test_stalled_orbit_raises(self):
        # G(y, r) = min(y + r, 10): the sums clip at the top of f's range, so
        # the orbit 5, 7, 9, 10 then stays at 10 = J.hi, inside J
        code = make_synthetic(([0.0, 10.0], [0.0, 10.0]), ([0.0, 3.0], [0.0, 3.0]))
        hs = make_structure(code, x0=5.0)
        with pytest.raises(NotArchimedeanWithinCap, match="stalled at 10.0"):
            construct_f(hs, r0=2.0, depth=2)

    @pytest.mark.parametrize("lo, hi, fits", [
        (-16.5, 16.5, True), (-16.5, 17.5, False), (-17.5, 16.5, False),
    ])
    def test_orbit_bound_boundary(self, lo, hi, fits):
        # G(y, r) = y + r from 0 under 1 takes floor(hi) steps up and
        # floor(-lo) down; at the level cap the bound allows 16 each way
        assert _MAX_KNOTS >> LEVEL_CAP == 16
        code = BivariateCode(fn=lambda y, r: y + r,
                             domain=(Interval(lo, hi), Interval(-2.0, 2.0)),
                             dir_second="increasing")
        hs = make_structure(code, x0=0.0)
        if fits:
            f = construct_f(hs, r0=1.0, depth=LEVEL_CAP)
            assert f.xs.size == 32 * 2 ** LEVEL_CAP + 1 <= 2 * _MAX_KNOTS + 1
            assert (f.domain.lo, f.domain.hi) == (-16.0, 16.0)
        else:
            with pytest.raises(NotArchimedeanWithinCap, match="more than 16 steps"):
                construct_f(hs, r0=1.0, depth=LEVEL_CAP)


class TestConstructG:
    def test_cylinder_g_is_log_area(self, cylinder):
        hs = make_structure(cylinder, x0=1.0)
        f = construct_f(hs, r0=float(np.sqrt(np.e / np.pi)), depth=10)
        g = construct_g(hs, f)
        rs = np.linspace(g.domain.lo, g.domain.hi, 101)
        err = np.abs(np.asarray(g(rs)) - np.log(np.pi * rs**2)).max()
        assert err < 1e-3
        assert g.direction == "increasing"

    def test_reconstruction_on_covered_grid(self, cylinder):
        hs = make_structure(cylinder)
        f = construct_f(hs, depth=12)
        g = construct_g(hs, f)
        rep = AdditiveRepresentation(f, g, Gauge(hs.x0, 1))
        report = residual_report(rep, cylinder, grid=25, tolerance=1e-3)
        assert report.passed
        assert report.skipped_fraction < 0.5
        y = f.domain.midpoint
        r = g.domain.midpoint
        assert rep.reconstruct(y, r) == pytest.approx(
            float(cylinder(y, r)), rel=1e-4
        )


class TestHolderConditions:
    def test_cylinder_all_pass(self, cylinder):
        hs = make_structure(cylinder)
        report = check_holder_conditions(hs, samples=60, seed=0)
        assert report.passed
        assert all(row.passed for row in report.rows)

    def test_cylinder_row_counts(self, cylinder):
        # tested/skipped split of every row, as the per-row sampling loops
        # produced it before they became one sampler
        report = check_holder_conditions(make_structure(cylinder), samples=60, seed=0)
        counts = {row.condition: (row.n_samples, row.n_tested, row.n_skipped)
                  for row in report.rows}
        assert counts == {
            "i-commutativity": (60, 60, 0),
            "ii-cancellation": (60, 46, 14),
            "iii-self-composable": (129, 9, 120),
            "iv-solvable": (60, 31, 29),
            "v-archimedean": (60, 57, 3),
            "associativity": (60, 52, 8),
        }

    def test_archimedean_row_failures_are_tested_and_step_failures_skipped(
            self, cylinder, monkeypatch):
        # the third and seventh counts stall, the fifth cannot step: the row
        # reads 1.0 with the third's sample as its witness, counts both
        # stalls as tested and the fifth as skipped, and fails
        real, seen = holder.archimedean_count, []

        def count(hs, x, y, z, n_cap):
            seen.append((x, y, z))
            if len(seen) in (3, 7):
                raise NotArchimedeanWithinCap("stalled")
            if len(seen) == 5:
                raise StepUndefined("no step")
            return real(hs, x, y, z, n_cap=n_cap)

        monkeypatch.setattr(holder, "archimedean_count", count)
        # a stall fails the row whatever the tolerance
        for tol in (None, 2.0):
            seen.clear()
            report = check_holder_conditions(make_structure(cylinder), samples=60,
                                             tol=tol, seed=0)
            row = report.row("v-archimedean")
            assert row.max_residual == 1.0 and not row.passed and not report.passed
            assert row.witness == dict(zip("xyz", seen[2]))
            # unpatched, the row reads (57, 3): 60 - len(seen) samples skip
            # before counting, and every count lands
            assert 60 - len(seen) == 3
            assert (row.n_tested, row.n_skipped) == (56, 4)

    def test_vanderwaals_fails_with_witnesses(self, vanderwaals):
        hs = make_structure(vanderwaals)
        report = check_holder_conditions(hs, samples=60, seed=0)
        assert not report.passed
        failing = {row.condition for row in report.rows if not row.passed}
        assert "i-commutativity" in failing
        assert "associativity" in failing
        for row in report.rows:
            if not row.passed:
                assert row.witness is not None


class TestSymmetric:
    def test_pythagoras_single_function_form(self, pythagoras):
        h, K = symmetric_representation(pythagoras)
        xs = np.array([2.0, 3.0, 4.5])
        ys = np.array([2.5, 3.5, 5.0])
        for x in xs:
            for y in ys:
                v = float(pythagoras(x, y))
                if not (h.domain.contains(x) and h.domain.contains(y)
                        and h.domain.contains(v)):
                    continue
                lhs = float(h(v))
                rhs = float(h(x)) + float(h(y))
                assert lhs == pytest.approx(rhs, abs=2e-3)

    def test_cylinder_rejected_on_domains(self, cylinder):
        with pytest.raises(NotSymmetric):
            symmetric_representation(cylinder)

    def test_asymmetric_values_rejected(self):
        fk = np.linspace(0.0, 10.0, 8)
        gk = np.linspace(0.0, 10.0, 8)
        code = make_synthetic((fk, 0.7 * fk), (gk, 0.35 * gk))
        with pytest.raises(NotSymmetric):
            symmetric_representation(code)


class TestDifferentiability:
    def test_lorentz_derivatives_converge(self, lorentz):
        hs = make_structure(lorentz)
        f = construct_f(hs, depth=12)
        g = construct_g(hs, f)
        rep = AdditiveRepresentation(f, g, Gauge(hs.x0, 1))
        report = check_differentiability(rep, lorentz)
        assert report.passed
        assert report.f_ratio_dev <= 0.01
        assert report.g_ratio_dev <= 0.01
        assert report.f_margin > 1e-6
        assert report.g_margin > 1e-6
