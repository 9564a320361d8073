import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from permlaw import (
    AdditiveRepresentation,
    BivariateCode,
    Gauge,
    Interval,
    InvalidParams,
    LawError,
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
from permlaw.axioms import relative_residuals
from permlaw.holder import (
    LEVEL_CAP, _MAX_KNOTS, ConditionReport, ConditionRow, NotArchimedeanWithinCap,
    StepUndefined, Undefined, bullet)
from permlaw.lawcore import OutOfDomain, RangeExceeded, invert_in_first, invert_in_second

from conftest import law, outcome


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
        # tested/skipped split of every row, each sample drawing its fixed
        # block of uniforms
        report = check_holder_conditions(make_structure(cylinder), samples=60, seed=0)
        counts = {row.condition: (row.n_samples, row.n_tested, row.n_skipped)
                  for row in report.rows}
        assert counts == {
            "i-commutativity": (60, 60, 0),
            "ii-cancellation": (60, 46, 14),
            "iii-self-composable": (129, 9, 120),
            "iv-solvable": (60, 48, 12),
            "v-archimedean": (60, 56, 4),
            "associativity": (60, 52, 8),
        }

    def test_beer_off_centre_draws_z_that_y_reaches(self, beer):
        # beer decreases in its second argument; at x0 = 0.5 y•w stays
        # below y, so z drawn up to J.hi left every row-(iv) sample
        # unsolvable and the suite failed.  Row (v) still tests 2 of 120.
        report = check_holder_conditions(make_structure(beer, x0=0.5), seed=0)
        row = report.row("iv-solvable")
        assert (row.n_tested, row.n_skipped) == (120, 0) and row.passed
        assert report.row("v-archimedean").n_tested == 2
        assert report.passed

    def test_archimedean_row_failures_are_tested_and_step_failures_skipped(
            self, cylinder, monkeypatch):
        # the third and seventh counted samples stall, the fifth cannot
        # step: the row reads 1.0 with the third's sample as its witness,
        # counts both stalls as tested and the fifth as skipped, and fails.
        # The samples step together, so the faults go in at _seq_steps,
        # each lane told by its x.
        counts, steps, seen = holder._archimedean_counts, holder._seq_steps, []

        def counted(hs, x, y, z, n_cap, tables):
            seen.extend(zip(x.tolist(), y.tolist(), z.tolist()))
            return counts(hs, x, y, z, n_cap, tables)

        def faulty(hs, x, y, t, tables):
            nxt, errors = steps(hs, x, y, t, tables)
            sample = [[s[0] for s in seen].index(v) for v in x.tolist()]
            for i, k in enumerate(sample):
                if k in (2, 6):  # the term stays put
                    nxt[i], errors[i] = t[i], None
                if k == 4:
                    nxt[i], errors[i] = np.nan, StepUndefined("no step")
            return nxt, errors

        monkeypatch.setattr(holder, "_archimedean_counts", counted)
        monkeypatch.setattr(holder, "_seq_steps", faulty)
        # a stall fails the row whatever the tolerance
        for tol in (None, 2.0):
            seen.clear()
            report = check_holder_conditions(make_structure(cylinder), samples=60,
                                             tol=tol, seed=0)
            row = report.row("v-archimedean")
            assert row.max_residual == 1.0 and not row.passed and not report.passed
            assert row.witness == dict(zip("xyz", seen[2]))
            # unpatched, the row reads (56, 4): 60 - len(seen) samples skip
            # before counting, and every count lands
            assert 60 - len(seen) == 4
            assert (row.n_tested, row.n_skipped) == (55, 5)

    @pytest.mark.parametrize("name, x0, n_cap", [
        ("cylinder", None, 10_000), ("pythagoras", 0.5, 10_000), ("pythagoras", 0.5, 6),
        ("vanderwaals", None, 10_000), ("beer", 0.5, 10_000)])
    def test_counts_stepped_together_match_archimedean_count(self, name, x0, n_cap):
        # every sequence's count, stall, cap hit or step failure, as the
        # scalar oracle finds it one sequence at a time, both for all the
        # sequences stepped together and for the public one-lane count;
        # z runs past J.hi
        hs = make_structure(law(name), x0=x0)
        reach = holder._reach(hs)
        rng = np.random.default_rng(3)
        x = rng.uniform(reach.lo, reach.hi, 40)
        y = np.minimum(x + rng.uniform(0.01, 0.5, 40) * reach.width, reach.hi + 1.0)
        z = rng.uniform(x - 0.1 * reach.width, hs.G.J.hi + 0.2 * reach.width)
        count, errors = holder._archimedean_counts(hs, x, y, z, n_cap, {})
        kinds = set()
        for i in range(x.size):
            want = outcome(lambda: scalar_count(hs, float(x[i]), float(y[i]), float(z[i]),
                                                n_cap))
            one = outcome(lambda: archimedean_count(hs, x[i], y[i], z[i], n_cap=n_cap))
            if isinstance(want, LawError):
                assert type(errors[i]) is type(want) and str(errors[i]) == str(want)
                assert type(one) is type(want) and str(one) == str(want)
            else:
                assert errors[i] is None and count[i] == want == one
            kinds.add(type(want).__name__)
        assert "int" in kinds
        if n_cap == 6:
            assert "NotArchimedeanWithinCap" in kinds

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


# ---------------------------------------------------------------------------
# the Archimedean count one scalar step at a time


def _scalar_step(hs, x, y, t_prev):
    """One recursion step by scalar solves: solve y • t_prev = x • x' and
    return x', or raise the _StepBeyond or solve error _seq_steps reports."""
    code, x0 = hs.G, hs.x0
    lo0, hi0 = holder._attained_ends(code, x0)
    slack = 1e-9 * max(1.0, abs(hi0), abs(lo0))
    if t_prev > hi0 + slack:
        raise holder._StepBeyond(f"term {t_prev!r} above the anchor's reach", above=True)
    if t_prev < lo0 - slack:
        raise holder._StepBeyond(f"term {t_prev!r} below the anchor's reach", above=False)
    target = float(code(y, invert_in_second(code, x0, min(max(t_prev, lo0), hi0))))
    lo_x, hi_x = holder._attained_ends(code, x)
    slack = 1e-9 * max(1.0, abs(hi_x), abs(lo_x))
    for side, beyond in (("above", target > hi_x + slack), ("below", target < lo_x - slack)):
        if beyond:
            raise holder._StepBeyond(
                f"y•{t_prev!r} = {target!r} {side} what x = {x!r} can reach",
                above=side == "above")
    return float(code(x0, invert_in_second(code, x, min(max(target, lo_x), hi_x))))


def scalar_count(hs, x, y, z, n_cap):
    """archimedean_count as a loop of _scalar_step: the oracle of the
    lane-stepped counts."""
    if z < x:
        return 0
    psi_hi = holder._attained_ends(hs.G, hs.x0)[1]
    count, t, nxt, stall = 1, x, y, 0
    while nxt <= z:
        count += 1
        stall = stall + 1 if nxt - t <= 1e-14 * max(1.0, abs(nxt)) else 0
        if stall >= 3:
            raise NotArchimedeanWithinCap(
                f"sequence stalled near {nxt!r} after {count} terms")
        if count >= n_cap:
            raise NotArchimedeanWithinCap(
                f"no term above {z!r} within the cap of {n_cap} terms")
        t = nxt
        try:
            nxt = _scalar_step(hs, x, y, t)
        except holder._StepBeyond as exc:
            if exc.above and psi_hi >= z:
                return count  # every later term lies above z
            raise StepUndefined(str(exc)) from exc
    return count


# ---------------------------------------------------------------------------
# the condition suite one sample at a time


def _one_by_one_row(condition, samples, trial, tol):
    tested = skipped = 0
    worst, witness = 0.0, None
    for _ in range(samples):
        try:
            lhs, rhs, point = trial()
        except (Undefined, RangeExceeded, OutOfDomain):
            skipped += 1
            continue
        tested += 1
        res = float(relative_residuals(lhs, rhs))
        if res > worst:
            worst, witness = res, point
    return ConditionRow(condition, samples, tested, skipped, worst, witness,
                        passed=bool(tested > 0 and worst <= tol))


def one_by_one_conditions(hs, samples=120, tol=None, seed=0):
    """check_holder_conditions as a loop over samples, each a chain of
    scalar solves (bullet, invert_in_second, invert_in_first, scalar_count)
    drawing its block of uniforms as it goes, z's included where the sample
    cannot use it: the oracle the lane-stepped suite must equal, report for
    report and error for error."""
    code, x0 = hs.G, hs.x0
    tol = code.default_tolerance() if tol is None else tol
    rng = np.random.default_rng(seed)
    reach, J = holder._reach(hs), code.J

    def draw():
        return float(rng.uniform(reach.lo, reach.hi))

    def commutativity():
        a, b = draw(), draw()
        lhs, rhs = bullet(hs, a, b), bullet(hs, b, a)
        return lhs, rhs, {"x": a, "y": b, "xy": lhs, "yx": rhs}

    def cancellation():
        y, x, w, yp = draw(), draw(), draw(), draw()
        z = float(code(x0, invert_in_second(code, w, bullet(hs, y, x))))
        zp = invert_in_first(code, bullet(hs, w, yp), invert_in_second(code, x0, x))
        lhs, rhs = bullet(hs, y, yp), bullet(hs, zp, z)
        return lhs, rhs, {"y": y, "x": x, "w": w, "y_prime": yp,
                          "z": z, "z_prime": zp, "lhs": lhs, "rhs": rhs}

    def solvable():
        y, x, u = draw(), draw(), rng.random()
        v = bullet(hs, y, x)
        top = min(J.hi, bullet(hs, y, reach.hi))
        if not v < top:
            raise Undefined("no room above y•x")
        lo, hi = v + 0.05 * (top - v), v + 0.95 * (top - v)
        z = float(lo + (hi - lo) * u)
        w = float(code(x0, invert_in_second(code, y, z)))
        if not J.contains(w):
            raise Undefined("w outside J")
        back = bullet(hs, y, w)
        return back, z, {"y": y, "x": x, "z": z, "w": w, "yw": back}

    max_count, min_sep = 0, 0.05 * reach.width

    def archimedean():
        nonlocal max_count
        a, b, u = draw(), draw(), rng.random()
        x_, y_ = min(a, b), max(a, b)
        if y_ - x_ < min_sep:
            y_ = min(reach.hi, x_ + min_sep)
            if y_ - x_ < min_sep:
                raise Undefined("no y far enough above x")
        z = float(y_ + (J.hi - y_) * u)
        try:
            max_count = max(max_count, scalar_count(hs, x_, y_, z, n_cap=holder._ARCH_CAP))
        except NotArchimedeanWithinCap:
            return 1.0, 0.0, {"x": x_, "y": y_, "z": z}
        return 0.0, 0.0, None

    def associativity():
        a, b, c = draw(), draw(), draw()
        lhs = bullet(hs, a, bullet(hs, b, c))
        ab = bullet(hs, a, b)
        if not J.contains(ab):
            raise Undefined("x•y outside J")
        rhs = bullet(hs, ab, c)
        return lhs, rhs, {"x": a, "y": b, "z": c, "lhs": lhs, "rhs": rhs}

    rows = [_one_by_one_row("i-commutativity", samples, commutativity, tol),
            _one_by_one_row("ii-cancellation", samples, cancellation, tol)]
    scan, found, tested = reach.grid(129), None, 0
    for a in scan.tolist():
        try:
            aa = bullet(hs, a, a)
            tested += 1
            if not J.contains(aa):
                continue
            found = {"x": a, "xx": aa, "xxx": bullet(hs, aa, a)}
            break
        except (Undefined, OutOfDomain):
            continue
    rows.append(ConditionRow("iii-self-composable", 129, tested, 129 - tested,
                             0.0 if found else 1.0, found, passed=found is not None))
    rows.append(_one_by_one_row("iv-solvable", samples, solvable, tol))
    row = _one_by_one_row("v-archimedean", samples, archimedean, tol)
    rows.append(dataclasses.replace(
        row, note=f"max count {max_count}, cap {holder._ARCH_CAP}",
        passed=row.passed and row.witness is None))
    rows.append(_one_by_one_row("associativity", samples, associativity, tol))
    return ConditionReport(rows=tuple(rows), passed=all(r.passed for r in rows))


def _strip(code, axis, where, half_width):
    """code with NaN on a strip of its first (axis 0) or second argument,
    narrower than make_structure's grid spacing."""
    iv = code.domain[axis]
    centre = iv.lo + where * iv.width

    def fn(y, r):
        return np.where(np.abs((y, r)[axis] - centre) < half_width * iv.width,
                        np.nan, code.fn(y, r))

    return BivariateCode(fn, code.domain, code.dir_second)


@pytest.mark.parametrize("name, x0", [
    ("cylinder", None), ("pythagoras", 0.5), ("vanderwaals", None), ("beer", 0.5),
    ("lorentz", None)])
@pytest.mark.parametrize("seed", [0, 1])
def test_lane_stepped_suite_is_the_one_by_one_suite(name, x0, seed):
    hs = make_structure(law(name), x0=x0)
    assert check_holder_conditions(hs, samples=40, seed=seed) == \
        one_by_one_conditions(hs, samples=40, seed=seed)


@pytest.mark.parametrize("axis, where", [(1, 0.31), (1, 0.62), (0, 0.47)])
@pytest.mark.parametrize("seed", [0, 1])
def test_lane_stepped_suite_raises_the_one_by_one_error(axis, where, seed):
    # NaN strips that some samples' solves step into: the suite raises the
    # error of the first such sample in sample order, or reports as the
    # loop does where no solve reads the strip
    hs = make_structure(_strip(law("pythagoras"), axis, where, 1e-3), x0=0.5)
    got = outcome(lambda: check_holder_conditions(hs, samples=40, seed=seed))
    want = outcome(lambda: one_by_one_conditions(hs, samples=40, seed=seed))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


def test_nan_yx_is_a_counted_skip():
    # on a NaN strip of first arguments at 0.2 of J, row (iv)'s first sample
    # reads y•x = NaN: the sample is skipped and counted, as the loop skips
    # it, where z's draw once raised numpy's OverflowError
    hs = make_structure(_strip(law("pythagoras"), 0, 0.2, 1e-3), x0=0.5)
    reach = holder._reach(hs)
    # rows (i) and (ii) draw 6 uniforms a sample before row (iv) draws
    y, x = reach.lo + reach.width * np.random.default_rng(0).random(15 * 40)[6 * 40:][:2]
    assert np.isnan(bullet(hs, y, x))
    report = check_holder_conditions(hs, samples=40, seed=0)
    row = report.row("iv-solvable")
    assert (row.n_tested, row.n_skipped) == (27, 13) and row.passed
    assert report == one_by_one_conditions(hs, samples=40, seed=0)


class _CountingRng:
    """A generator that lets only rng.random() through, counting its draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def random(self, size=None):
        out = self.rng.random(size)
        self.drawn += np.size(out)
        return out


@pytest.mark.parametrize("name", ["cylinder", "vanderwaals"])
@pytest.mark.parametrize("samples", [0, 1, 7, 120])
def test_each_sample_draws_fifteen_uniforms(name, samples, monkeypatch):
    # 2, 4, 3, 3 and 3 uniforms a sample for rows (i), (ii), (iv), (v) and
    # associativity, whatever the samples' solves do
    made, default_rng = [], np.random.default_rng

    def counting_rng(seed):
        made.append(_CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    check_holder_conditions(make_structure(law(name)), samples=samples, seed=0)
    assert [rng.drawn for rng in made] == [15 * samples]
