import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlaw import (
    AdditiveRepresentation,
    Gauge,
    Interval,
    InvalidInterval,
    MonotoneFunction,
    NonMonotoneKnots,
    OutOfDomain,
    RangeClipped,
    bisect_monotone,
    invert_in_first,
    invert_in_second,
)
from permlaw import lawcore
from permlaw.lawcore import INCREASING, DECREASING, bisect_monotone_vec

from conftest import law, root


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

    @staticmethod
    def _clip_points(lo, hi):
        slack = 1e-9 * max(1.0, hi - lo)
        edges = [lo - slack, hi + slack]
        return [lo, hi, 0.5 * (lo + hi), 0.0, -0.0, *edges,
                np.nextafter(edges[0], -np.inf), np.nextafter(edges[1], np.inf),
                lo - 1.0, hi + 1.0, np.nan, np.inf, -np.inf]

    @staticmethod
    def _clip_outcome(call, arg):
        try:
            v = call(arg)
        except OutOfDomain as exc:
            return OutOfDomain, str(exc)
        v = v[0] if np.ndim(v) else v
        return type(v), np.float64(v).tobytes()

    @given(st.sampled_from([INCREASING, DECREASING]).flatmap(monotone_knots),
           st.floats(min_value=-1e3, max_value=1e3))
    def test_scalar_clips_as_an_array(self, fn, shift):
        # a float, a numpy float and a 0-d array (the scalar fast path) agree
        # with a one-point array bit for bit, in type and in their error, at
        # the slack's edges, outside, on NaN and on infinities; the knots
        # start at x = 0.0, so ±0.0 sit on an end
        fn = fn.shifted(shift)
        for call, span in ((fn, fn.domain), (fn.invert, fn.value_range)):
            for x in self._clip_points(span.lo, span.hi):
                want = self._clip_outcome(call, np.array([x]))
                assert want[0] in (np.float64, OutOfDomain)
                for arg in (float(x), np.float64(x), np.asarray(x)):
                    assert self._clip_outcome(call, arg) == want, (x, arg)

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


@pytest.mark.parametrize("falling", [False, True])
@pytest.mark.parametrize("n_rows, n_nan", [(1, 0), (1, 1), (4, 0), (4, 3)])
@settings(max_examples=10)
@given(st.integers(0, 2 ** 32 - 1))
def test_first_cells_are_the_cells_of_cells(falling, n_rows, n_nan, seed):
    # random rows of table values, steps that tie (zero) among rising ones,
    # a few rows with NaN points inside; targets strictly between a row's
    # ends, a third of them at a table point: each lane starts where _cells
    # starts it, one row shared or rows of their own, and a call whose
    # table holds NaN is left to _cells
    rng = np.random.default_rng(seed)
    k = lawcore._TABLE_POINTS
    steps = np.where(rng.random((n_rows, k - 1)) < 0.3, 0.0, rng.random((n_rows, k - 1)))
    steps[:, 0] = steps[:, -1] = 1.0  # the ends' values differ from all others
    table = np.cumsum(np.hstack([np.zeros((n_rows, 1)), steps]), axis=1)
    table = -table if falling else table
    for row in rng.integers(0, n_rows, n_nan):
        table[row, rng.integers(1, k - 1)] = np.nan
    n = 200
    groups = np.zeros(n, dtype=int) if n_rows == 1 else rng.integers(0, n_rows, n)
    lo, hi = table[groups, 0], table[groups, -1]
    p = lo + (hi - lo) * rng.uniform(0.0, 1.0, n)
    at_point = rng.random(n) < 0.3
    p[at_point] = table[groups[at_point], rng.integers(1, k - 1, at_point.sum())]
    p = np.where(np.isnan(p) | (p == lo) | (p == hi), 0.5 * (lo + hi), p)
    inc = hi > lo
    rows = table[groups]
    side = (rows < p[:, None]) == inc[:, None]
    ok = ~np.isnan(rows)
    want = np.array(lawcore._cells(side & ok, ~side & ok))
    cells, calls = lawcore._cells, []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lawcore, "_cells", lambda *rows: calls.append(1) or cells(*rows))
        assert np.array_equal(lawcore._first_cells(table, groups, p, inc), want)
    assert bool(calls) == (n_nan > 0)


class TestBisection:
    def test_scalar_solve(self):
        root = bisect_monotone(lambda x: x**3, 0.0, 3.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_decreasing_function(self):
        root = bisect_monotone(lambda x: 10.0 - x, 0.0, 10.0, 5.0)
        assert root == pytest.approx(5.0, abs=1e-10)

    @staticmethod
    def assert_lane_is_the_root(fn, sol, target, tol=lawcore.BISECT_TOL):
        # the lane is _root's answer bit for bit, within tol of bisection's
        one = root(fn, 0.0, 3.0, float(target), tol)
        assert sol == one
        assert abs(sol - bisect_monotone(fn, 0.0, 3.0, float(target), tol=0.0)) <= tol

    def test_vector_solve_reports_bracket_failures(self):
        # targets inside, past the end and at an end's value, per-lane
        # scales, falling lanes among rising ones, and a root at 1.5, where
        # a falling lane's value ties with its target
        targets = np.array([1.0, 4.0, 100.0, 0.0, -2.25, -5.0])
        scale = np.array([1.0, 1.0, 2.0, 3.0, -1.0, -1.0])
        sol, errors = bisect_monotone_vec(lambda x, s: s * x**2, 0.0, 3.0, targets,
                                          arg=scale)
        assert [type(e).__name__ for e in errors] == [
            "NoneType", "NoneType", "RangeExceeded", "NoneType", "NoneType", "NoneType"]
        assert str(errors[2]) == "target 100.0 outside attained range [0.0, 18.0]"
        assert np.isnan(sol[2]) and sol[3] == 0.0
        for i in (0, 1, 4, 5):
            self.assert_lane_is_the_root(lambda x: scale[i] * x**2, sol[i], targets[i])

    def test_vector_solve_tables_each_modifier_bit_pattern_once_per_call(self):
        # three bit patterns among six per-lane modifiers, 0.0 and -0.0 two
        # of them: the call's first fn call is its table, 65 points for each
        # pattern; a second identical call builds it again and returns the
        # same bits and the same errors
        calls = []

        def fn(x, s):
            calls.append(np.array(s, dtype=float))
            return (1.0 + s) * x**2

        targets = np.array([1.0, 4.0, 2.0, 100.0, 3.0, 5.0])
        scale = np.array([0.0, -0.0, 2.0, 0.0, -0.0, 2.0])
        runs = []
        for _ in range(2):
            calls.clear()
            runs.append(bisect_monotone_vec(fn, 0.0, 3.0, targets, arg=scale))
            bits, counts = np.unique(calls[0].view(np.int64), return_counts=True)
            assert bits.tolist() == np.unique(scale.view(np.int64)).tolist()
            assert bits.size == 3 and counts.tolist() == [lawcore._TABLE_POINTS] * 3
        (x1, e1), (x2, e2) = runs
        assert x1.tobytes() == x2.tobytes()
        assert [repr(e) for e in e1] == [repr(e) for e in e2]
        assert type(e1[3]).__name__ == "RangeExceeded"

    @pytest.mark.parametrize("arg", [None, 2.0, np.empty(0)])
    def test_vector_solve_of_no_lanes_calls_nothing(self, arg):
        calls = []

        def fn(x, s=0.0):
            calls.append(np.size(x))
            return (1.0 + s) * x**2

        x, errors = bisect_monotone_vec(fn, 0.0, 3.0, np.empty(0), arg=arg)
        assert calls == []
        assert x.shape == errors.shape == (0,)

    @pytest.mark.parametrize("max_iter", [0, 1, 5])
    def test_vector_solve_stops_at_the_iteration_cap(self, max_iter, monkeypatch):
        # at most max_iter steps past the table, each lane as _root takes
        # them, inside the table cell around its root
        monkeypatch.setattr(lawcore, "BISECT_MAX_ITER", max_iter)
        calls = []

        def fn(x):
            calls.append(np.size(x))
            return x**2

        targets = np.linspace(0.5, 8.5, 300)
        sol, errors = bisect_monotone_vec(fn, 0.0, 3.0, targets)
        assert all(e is None for e in errors)
        assert len(calls) <= 1 + max_iter and calls[0] == lawcore._TABLE_POINTS
        for p, x in zip(targets.tolist(), sol.tolist()):
            assert x == root(lambda v: v**2, 0.0, 3.0, p, lawcore.BISECT_TOL)
            assert abs(x - np.sqrt(p)) <= 3.0 / (lawcore._TABLE_POINTS - 1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ties_go_the_way_bisection_takes_them(self, sign):
        # fn is flat at the target on [2, 3]: bisection ends where a rising
        # fn first reaches the target (2), a falling one where it last
        # holds it (3), and so do both solvers
        def fn(x):
            return sign * np.where(x < 2.0, x, np.where(x < 3.0, 2.0, x - 1.0))

        want = 2.0 if sign > 0 else 3.0
        assert bisect_monotone(fn, 0.0, 10.0, 2.0 * sign, tol=0.0) == pytest.approx(want)
        one = root(fn, 0.0, 10.0, 2.0 * sign, lawcore.BISECT_TOL)
        assert abs(one - want) <= lawcore.BISECT_TOL
        sol, _ = bisect_monotone_vec(fn, 0.0, 10.0, np.full(3, 2.0 * sign))
        assert sol.tolist() == [one] * 3

    def test_vector_solve_reports_nan_per_lane(self):
        # NaN on |x - 8| < 0.1: the lane whose root is 8 reads the strip and
        # holds a NaN error inside it; the lane whose root is 2 lands
        def fn(x):
            return np.where(np.abs(x - 8.0) < 0.1, np.nan, x)

        sol, errors = bisect_monotone_vec(fn, 0.0, 10.0, np.array([8.0, 2.0, 3.0]))
        x = errors[0].nan_argument
        assert abs(x - 8.0) < 0.1 and np.isnan(sol[0])
        assert str(errors[0]) == f"function value at argument {x!r} is NaN; cannot bracket"
        for i, p in ((1, 2.0), (2, 3.0)):
            assert errors[i] is None
            assert sol[i] == root(fn, 0.0, 10.0, p, lawcore.BISECT_TOL)
            assert abs(sol[i] - p) <= lawcore.BISECT_TOL

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

