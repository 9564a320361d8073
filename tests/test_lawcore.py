import numpy as np
import pytest
from hypothesis import given, strategies as st

from permlaw import (
    AdditiveRepresentation,
    AffineMap,
    Gauge,
    Interval,
    InvalidInterval,
    LawError,
    MonotoneFunction,
    NonMonotoneKnots,
    OutOfDomain,
    RangeClipped,
    bisect_monotone,
    invert_in_first,
    invert_in_second,
)
from permlaw.lawcore import INCREASING, DECREASING, bisect_monotone_vec

from conftest import law


def monotone_knots(direction=INCREASING, n=6):
    """Strategy for strictly monotone knot tables."""
    steps = st.lists(
        st.floats(min_value=0.01, max_value=2.0), min_size=n - 1, max_size=n - 1
    )

    def build(parts):
        xs = np.cumsum([0.0] + [0.5 + p for p in parts])
        ys = np.cumsum([1.0] + parts)
        if direction == DECREASING:
            ys = ys[0] - ys + ys[0]
        return MonotoneFunction(xs, ys, direction)

    return steps.map(build)


class TestInterval:
    def test_validation(self):
        with pytest.raises(InvalidInterval):
            Interval(2.0, 2.0)
        with pytest.raises(InvalidInterval):
            Interval(3.0, 1.0)

    def test_basic_geometry(self):
        iv = Interval(1.0, 5.0)
        assert iv.width == 4.0
        assert iv.midpoint == 3.0
        assert iv.contains(1.0) and iv.contains(5.0)
        assert not iv.contains(5.1)

    def test_grid_stays_inside(self):
        iv = Interval(0.0, 1.0)
        g = iv.grid(11)
        assert g.size == 11
        assert np.all(np.diff(g) > 0)
        assert g[0] >= iv.lo and g[-1] <= iv.hi

    def test_intersect(self):
        a = Interval(0.0, 2.0)
        b = Interval(1.0, 3.0)
        c = a.intersect(b)
        assert (c.lo, c.hi) == (1.0, 2.0)
        with pytest.raises(InvalidInterval):
            a.intersect(Interval(5.0, 6.0))


class TestMonotoneFunction:
    def test_rejects_non_monotone_values(self):
        with pytest.raises(NonMonotoneKnots):
            MonotoneFunction([0.0, 1.0, 2.0], [0.0, 2.0, 1.0], INCREASING)
        with pytest.raises(NonMonotoneKnots):
            MonotoneFunction([0.0, 1.0], [0.0, 1.0], DECREASING)

    def test_rejects_unsorted_xs(self):
        with pytest.raises(NonMonotoneKnots):
            MonotoneFunction([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], INCREASING)

    @given(monotone_knots())
    def test_invert_roundtrip_increasing(self, fn):
        xs = np.linspace(fn.domain.lo, fn.domain.hi, 17)
        back = fn.invert(fn(xs))
        assert np.max(np.abs(back - xs)) < 1e-9

    @given(monotone_knots(direction=DECREASING))
    def test_invert_roundtrip_decreasing(self, fn):
        xs = np.linspace(fn.domain.lo, fn.domain.hi, 17)
        back = fn.invert(fn(xs))
        assert np.max(np.abs(back - xs)) < 1e-9

    def test_inverse_function_swaps_domain_and_range(self):
        fn = MonotoneFunction([0.0, 1.0, 3.0], [10.0, 11.0, 15.0], INCREASING)
        inv = fn.inverse()
        assert inv.domain.lo == 10.0 and inv.domain.hi == 15.0
        assert inv(11.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_extrapolation(self):
        fn = MonotoneFunction([0.0, 1.0], [0.0, 1.0], INCREASING)
        with pytest.raises(OutOfDomain):
            fn(1.5)
        with pytest.raises(OutOfDomain):
            fn.invert(-0.5)

    def test_shifted(self):
        fn = MonotoneFunction([0.0, 1.0], [2.0, 3.0], INCREASING)
        sh = fn.shifted(-2.0)
        assert sh(0.0) == pytest.approx(0.0)
        assert sh(1.0) == pytest.approx(1.0)

    def test_csv_roundtrip(self, tmp_path):
        fn = MonotoneFunction([0.1, 0.7, 2.0], [-1.0, 0.25, 3.5], INCREASING)
        path = tmp_path / "f.csv"
        fn.to_csv(path)
        back = MonotoneFunction.from_csv(path)
        assert np.array_equal(back.xs, fn.xs)
        assert np.array_equal(back.ys, fn.ys)
        assert back.direction == fn.direction


class TestBisection:
    def test_scalar_solve(self):
        root = bisect_monotone(lambda x: x**3, 0.0, 3.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_decreasing_function(self):
        root = bisect_monotone(lambda x: 10.0 - x, 0.0, 10.0, 5.0)
        assert root == pytest.approx(5.0, abs=1e-10)

    def test_vector_solve_reports_bracket_failures(self):
        targets = np.array([1.0, 4.0, 100.0])
        sol, ok = bisect_monotone_vec(lambda x: x**2, 0.0, 3.0, targets)
        assert ok.tolist() == [True, True, False]
        assert sol[0] == pytest.approx(1.0, abs=1e-9)
        assert sol[1] == pytest.approx(2.0, abs=1e-9)

    def test_vector_solve_raises_on_nan(self):
        # NaN on |x - 5| < 0.1: the first midpoint, 5, must not read as
        # "go left" and end at 4.9 with the lane ok.
        def fn(x):
            return np.where(np.abs(x - 5.0) < 0.1, np.nan, x)

        with pytest.raises(LawError, match="argument 5.0 is NaN"):
            bisect_monotone_vec(fn, 0.0, 10.0, np.array([7.0]))

    def test_invert_in_first_cylinder(self):
        code = law("cylinder")
        # code(y, t) = y pi t^2, so the preimage of p under t is p/(pi t^2)
        y = invert_in_first(code, 6.0, 1.2)
        assert y == pytest.approx(6.0 / (np.pi * 1.44), abs=1e-9)

    def test_invert_in_second_cylinder(self):
        code = law("cylinder")
        t = invert_in_second(code, 2.0, 10.0)
        assert t == pytest.approx(np.sqrt(5.0 / np.pi), abs=1e-9)


class TestAdditiveRepresentation:
    def _identity_rep(self):
        f = MonotoneFunction([0.0, 10.0], [0.0, 10.0], INCREASING)
        g = MonotoneFunction([0.0, 1.0], [0.0, 1.0], INCREASING)
        return AdditiveRepresentation(f, g, Gauge(0.0, 1))

    def test_reconstruct_additive(self):
        rep = self._identity_rep()
        assert rep.reconstruct(2.0, 0.5) == pytest.approx(2.5)

    def test_reconstruct_raises_on_clipped_range(self):
        rep = self._identity_rep()
        with pytest.raises(RangeClipped):
            rep.reconstruct(9.8, 0.9)

    def test_reconstruct_clip_clamps(self):
        rep = self._identity_rep()
        val = rep.reconstruct(9.8, 0.9, clip=True)
        assert val == pytest.approx(10.0)


class TestAffineMap:
    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_apply_to_rescales_values(self, xi, theta):
        amap = AffineMap(xi, theta)
        fn = MonotoneFunction([0.0, 1.0, 3.0], [-1.0, 0.5, 2.0], INCREASING)
        mapped = amap.apply_to(fn)
        assert np.array_equal(mapped.xs, fn.xs)
        assert np.allclose(mapped.ys, xi * np.asarray(fn.ys) + theta)
