"""The predict-and-verify solvers against the plain scalar bisection.

`bisect_monotone` is the scalar loop the inversions were first written
with.  Every lane of `_invert_first_lanes`, and every `invert_in_first` and
`invert_in_second` call, must land where that loop lands, bit for bit, and
raise what it raises (with the inversions' post-check on top).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlaw import (
    BivariateCode,
    Interval,
    LawError,
    bisect_monotone,
    invert_in_first,
    invert_in_second,
    load_grid,
    make_structure,
    write_grid_csv,
)
from permlaw import lawcore
from permlaw.holder import _kept, _zero_anchor
from permlaw.lawcore import _invert_first_lanes

from conftest import additive_code, jump_code, law

CLOSED = ["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"]


def _outcome(fn):
    try:
        return fn()
    except LawError as exc:
        return f"{type(exc).__name__}: {exc}"


def scalar_first(code, p, t):
    """invert_in_first as bisect_monotone and the post-check give it."""
    def run():
        w = bisect_monotone(lambda x: code(x, t), code.J.lo, code.J.hi, float(p))
        lawcore._post_check(code, float(code(w, t)), float(p), "invert_in_first")
        return float(w)
    return _outcome(run)


def scalar_second(code, x0, p):
    """invert_in_second as bisect_monotone and the post-check give it."""
    def run():
        v = bisect_monotone(lambda r: code(x0, r), code.J2.lo, code.J2.hi, float(p))
        lawcore._post_check(code, float(code(x0, v)), float(p), "invert_in_second")
        return float(v)
    return _outcome(run)


def assert_lanes_match(code, targets, t):
    w, errors = _invert_first_lanes(code, targets, t)
    ts = np.broadcast_to(np.asarray(t, dtype=float), targets.shape)
    for i, (p, ti) in enumerate(zip(targets.tolist(), ts.tolist())):
        want = scalar_first(code, p, ti)
        if isinstance(want, str):
            assert f"{type(errors[i]).__name__}: {errors[i]}" == want
            assert np.isnan(w[i])
        else:
            assert errors[i] is None and w[i] == want


def draw_targets(code, rng, n, shared):
    """Lanes inside the range of code(., t), past either end, and exactly at
    the end values."""
    J, J2 = code.J, code.J2
    t = J2.lo + J2.width * (rng.random() if shared else rng.random(n))
    lo = np.broadcast_to(np.asarray(code(J.lo, t), dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(code(J.hi, t), dtype=float), (n,))
    targets = lo + rng.uniform(-0.2, 1.2, n) * (hi - lo)
    pick = rng.random(n)
    targets = np.where(pick < 0.1, lo, np.where(pick > 0.9, hi, targets))
    return targets, t


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = []
    for name in ("lorentz", "cylinder"):
        code = law(name)
        ys, rs = code.J.grid(21), code.J2.grid(17)
        path = tmp_path_factory.mktemp("grids") / f"{name}.csv"
        write_grid_csv(path, ys, rs, np.asarray(code(ys[:, None], rs[None, :])))
        out.append(load_grid(path))
    return out


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans(),
       st.integers(min_value=1, max_value=40))
def test_synthetic_lanes_match_bisection(seed, shared, n):
    code, _, _ = additive_code(seed)
    assert_lanes_match(code, *draw_targets(code, np.random.default_rng(seed), n, shared))


@settings(max_examples=10)
@given(st.sampled_from(CLOSED), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.integers(min_value=1, max_value=40))
def test_closed_form_lanes_match_bisection(name, seed, shared, n):
    code = law(name)
    assert_lanes_match(code, *draw_targets(code, np.random.default_rng(seed), n, shared))


@settings(max_examples=8)
@given(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.integers(min_value=1, max_value=40))
def test_table_lanes_match_bisection(tables, which, seed, shared, n):
    code = tables[which]
    assert_lanes_match(code, *draw_targets(code, np.random.default_rng(seed), n, shared))


@pytest.mark.parametrize("name", CLOSED)
def test_many_lanes_match_bisection(name):
    # _MANY_LANES lanes or more take a level of every lane per call
    code = law(name)
    n = lawcore._MANY_LANES + 44
    assert_lanes_match(code, *draw_targets(code, np.random.default_rng(7), n, False))


def test_nan_lanes_stop_in_the_level_at_a_time_branch():
    # the NaN strip lies on the true path of 68 of the lanes, the last of
    # them among the last five; they end with the scalar error and the
    # others land as the scalar loop does
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 7.5 - 0.1 * r) < 0.05, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)), dir_second="increasing")
    rng = np.random.default_rng(3)
    t = rng.random(lawcore._MANY_LANES + 44)
    lanes = np.arange(t.size)
    targets = np.where(lanes < 120, 7.8 + 1.1 * t, rng.uniform(0.5, 6.0, t.size) + t)
    _, errors = _invert_first_lanes(code, targets, t)
    assert sum(e is not None for e in errors) == 68 and errors[-5] is not None
    assert_lanes_match(code, targets, t)


@settings(max_examples=10)
@given(st.sampled_from(CLOSED + ["synthetic"]), st.integers(min_value=0, max_value=10 ** 6))
def test_scalar_inversions_match_bisection(name, seed):
    code = additive_code(seed)[0] if name == "synthetic" else law(name)
    rng = np.random.default_rng(seed)
    J, J2 = code.J, code.J2
    for _ in range(5):
        # targets inside the ranges of code(., r) and code(y, .), or past them
        y, r = J.lo + J.width * rng.random(), J2.lo + J2.width * rng.random()
        lo, hi = float(code(J.lo, r)), float(code(J.hi, r))
        p = lo + rng.uniform(-0.2, 1.2) * (hi - lo)
        assert _outcome(lambda: invert_in_first(code, p, r)) == scalar_first(code, p, r)
        lo, hi = float(code(y, J2.lo)), float(code(y, J2.hi))
        q = lo + rng.uniform(-0.2, 1.2) * (hi - lo)
        assert _outcome(lambda: invert_in_second(code, y, q)) == scalar_second(code, y, q)
    # the ends' values exactly
    for end in (J2.lo, J2.hi):
        q = float(code(y, end))
        assert _outcome(lambda: invert_in_second(code, y, q)) == scalar_second(code, y, q)


def _strip_code(centre, half_width=0.01):
    return BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - centre) < half_width, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)), dir_second="increasing")


def test_nan_off_the_path_is_not_read():
    # 8.28125 is a point of the guessing table on [0, 10]; the paths to the
    # roots near 2 never come near it
    code = _strip_code(8.28125)
    assert np.isnan(code(8.28125, 0.5))
    targets = np.linspace(1.5, 3.0, 7)
    _, errors = _invert_first_lanes(code, targets, 0.5)
    assert all(e is None for e in errors)
    assert_lanes_match(code, targets, 0.5)
    assert_lanes_match(code, targets, np.linspace(0.1, 0.9, 7))
    assert invert_in_first(code, 2.2, 0.5) == scalar_first(code, 2.2, 0.5)


def test_nan_on_the_path_raises_the_scalar_error():
    code = _strip_code(5.0, 0.1)
    want = scalar_first(code, 2.0, 0.5)
    assert want == "LawError: function value at argument 5.0 is NaN; cannot bracket"
    assert _outcome(lambda: invert_in_first(code, 2.0, 0.5)) == want
    for t in (0.5, np.full(3, 0.5), np.full(lawcore._MANY_LANES, 0.5)):
        targets = np.full(np.size(t), 2.0) if np.ndim(t) else np.array([2.0, 8.0, 3.0])
        _, errors = _invert_first_lanes(code, targets, t)
        assert {f"{type(e).__name__}: {e}" for e in errors} == {want}
    second = BivariateCode(fn=lambda y, r: np.where(np.abs(r - 0.5) < 0.01, np.nan, y + r),
                           domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
                           dir_second="increasing")
    assert (_outcome(lambda: invert_in_second(second, 2.0, 2.2))
            == scalar_second(second, 2.0, 2.2)
            == "LawError: function value at argument 0.5 is NaN; cannot bracket")


def test_a_code_that_raises_raises_for_few_lanes_and_many():
    # only the inversion's own errors are recorded per lane; one or two
    # lanes go through invert_in_first, and what the code raises escapes
    def fn(y, r):
        if np.any(y > 9.0):
            raise lawcore.OutOfDomain("past 9")
        return y + r

    code = BivariateCode(fn, (Interval(0.0, 10.0), Interval(0.0, 1.0)), "increasing")
    for n in (1, 2, 5):
        with pytest.raises(lawcore.OutOfDomain, match="past 9"):
            _invert_first_lanes(code, np.full(n, 2.0), 0.5)


def test_recorded_errors_hold_no_frames():
    # a caught error's traceback would keep every frame below it, and their
    # arrays, alive for as long as the errors array is
    code = law("lorentz")
    for n in (1, 2, 5):
        _, errors = _invert_first_lanes(code, np.full(n, 1e6), 0.5)
        assert all(type(e).__name__ == "RangeExceeded" and e.__traceback__ is None
                   for e in errors)


def test_gap_targets_stay_post_check_misses():
    code = jump_code()
    targets = np.array([3.0, 5.7, 6.2, 8.0])
    for p in targets:  # near the jump, guesses miss and paths turn
        assert _outcome(lambda: invert_in_first(code, p, 0.5)) == scalar_first(code, p, 0.5)
        assert (_outcome(lambda: invert_in_second(code, 5.0 + p / 100, p))
                == scalar_second(code, 5.0 + p / 100, p))
    _, errors = _invert_first_lanes(code, targets, 0.5)
    assert [str(e).startswith("invert_in_first: solution re-evaluates")
            for e in errors] == [False, True, True, False]
    assert_lanes_match(code, targets, 0.5)
    assert_lanes_match(code, targets, np.array([0.5, 0.2, 0.9, 0.5]))


def test_anchor_inversion_takes_four_code_calls():
    # 127 lanes at the zero modifier of lorentz: the table, one sharpening
    # step, the paths and the post-check (46 calls for the level-by-level
    # loop this solver replaced)
    code = law("lorentz")
    anchor = _zero_anchor(code, make_structure(code).x0)
    calls = []

    def counted(y, r):
        calls.append(np.size(y))
        return code.fn(y, r)

    targets = np.asarray(code(np.linspace(code.J.lo, code.J.hi, 129)[1:-1], anchor))
    _, errors = _invert_first_lanes(
        BivariateCode(counted, code.domain, code.dir_second), targets, anchor)
    assert all(e is None for e in errors)
    assert len(calls) <= 4


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=90),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=90),
       st.sampled_from([0.0, 0.5, 1.5]))
def test_kept_matches_the_greedy_scan(dx, dy, eps):
    n = min(len(dx), len(dy))
    cols = [np.cumsum(np.asarray(dx[:n], dtype=float)), np.cumsum(np.asarray(dy[:n], dtype=float))]
    keep = [0]
    for i in range(1, n):
        if all(c[i] - c[keep[-1]] > eps for c in cols):
            keep.append(i)
    assert _kept(cols, [eps, eps]).tolist() == keep
    one = [0]
    for i in range(1, n):
        if cols[1][i] - cols[1][one[-1]] > eps:
            one.append(i)
    assert _kept(cols[1:], [eps]).tolist() == one
