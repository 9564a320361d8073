"""The lane solver against the one-root solver and the plain bisection.

Every lane of `_invert_first_lanes` must land where `invert_in_first` lands
for that lane alone, bit for bit, or raise what it raises.  Every answer
must pass the root oracle (`conftest.assert_bisection_oracle`): within the
solve's tolerance of `bisect_monotone` run to the last bit, with its range
errors, NaN errors inside the bracket, and post-check errors where the
bisected root fails the post-check too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlaw import (
    BivariateCode,
    Interval,
    invert_in_first,
    invert_in_second,
    load_grid,
    make_structure,
    write_grid_csv,
)
from permlaw import lawcore
from permlaw.holder import _kept, _zero_anchor
from permlaw.lawcore import _invert_first_lanes

from conftest import (
    additive_code,
    assert_lanes_match,
    first_oracle,
    jump_code,
    law,
    outcome,
    same_outcome,
    second_oracle,
)

CLOSED = ["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"]


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
    # more lanes than one block of the cell search, with a modifier each
    code = law(name)
    n = lawcore._BLOCK_LANES + 44
    targets, t = draw_targets(code, np.random.default_rng(7), n, False)
    assert_lanes_match(code, targets[:300], t[:300])
    w, errors = _invert_first_lanes(code, targets, t)
    for i in np.random.default_rng(8).choice(n, 60, replace=False).tolist():
        want = outcome(lambda: invert_in_first(code, float(targets[i]), float(t[i])))
        assert same_outcome(w[i] if errors[i] is None else errors[i], want)


def _strip_code(centre, half_width=0.01):
    return BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - centre) < half_width, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)), dir_second="increasing")


def test_many_nan_lanes_stop_one_by_one():
    # the NaN strip moves with t and holds the root of each of the first
    # 120 lanes; each of them ends with a NaN error inside the strip, the
    # others land
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 7.5 - 0.1 * r) < 0.05, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)), dir_second="increasing")
    rng = np.random.default_rng(3)
    t = rng.random(300)
    lanes = np.arange(t.size)
    targets = np.where(lanes < 120, 7.5 + 1.1 * t + rng.uniform(-0.03, 0.03, t.size),
                       rng.uniform(0.5, 6.0, t.size) + t)
    w, errors = _invert_first_lanes(code, targets, t)
    for i in range(t.size):
        if i < 120:
            x = errors[i].nan_argument
            assert abs(x - 7.5 - 0.1 * t[i]) < 0.05 and np.isnan(w[i])
        else:
            assert errors[i] is None
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
        first_oracle(code, p, r, outcome(lambda: invert_in_first(code, p, r)))
        lo, hi = float(code(y, J2.lo)), float(code(y, J2.hi))
        q = lo + rng.uniform(-0.2, 1.2) * (hi - lo)
        second_oracle(code, y, q, outcome(lambda: invert_in_second(code, y, q)))
    # the ends' values exactly, which return the end itself
    for end in (J2.lo, J2.hi):
        q = float(code(y, end))
        assert invert_in_second(code, y, q) == end


def test_nan_off_the_path_is_not_read():
    # 8.28125 is a point of the table on [0, 10], passed over as unreadable;
    # the steps to the roots near 2 never come near it
    code = _strip_code(8.28125)
    assert np.isnan(code(8.28125, 0.5))
    targets = np.linspace(1.5, 3.0, 7)
    _, errors = _invert_first_lanes(code, targets, 0.5)
    assert all(e is None for e in errors)
    assert_lanes_match(code, targets, 0.5)
    assert_lanes_match(code, targets, np.linspace(0.1, 0.9, 7))
    # a root beside the unreadable point: its cell is two table steps wide
    assert_lanes_match(code, np.array([8.2 + 0.5, 8.4 + 0.5]), 0.5)
    first_oracle(code, 2.2, 0.5, outcome(lambda: invert_in_first(code, 2.2, 0.5)))


def test_nan_on_the_path_raises_the_scalar_error():
    # the roots lie in the strip 1.5 +- 0.1 (for t = 0.5), which holds
    # three table points: every route reads a NaN next to the root
    code = _strip_code(1.5, 0.1)
    want = outcome(lambda: invert_in_first(code, 2.0, 0.5))
    assert abs(want.nan_argument - 1.5) < 0.1
    first_oracle(code, 2.0, 0.5, want)
    for t in (0.5, np.full(3, 0.5), np.full(300, 0.5)):
        targets = np.full(np.size(t), 2.0) if np.ndim(t) else np.array([2.0, 2.0, 8.0])
        w, errors = _invert_first_lanes(code, targets, t)
        assert same_outcome(errors[0], want) and np.isnan(w[0])
        assert_lanes_match(code, targets, t)
    second = BivariateCode(fn=lambda y, r: np.where(np.abs(r - 0.5) < 0.01, np.nan, y + r),
                           domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
                           dir_second="increasing")
    got = outcome(lambda: invert_in_second(second, 2.0, 2.5))
    assert abs(got.nan_argument - 0.5) < 0.01
    second_oracle(second, 2.0, 2.5, got)


def test_a_code_that_raises_raises_for_few_lanes_and_many():
    # only the inversion's own errors are recorded per lane; what the code
    # raises escapes, for one lane as for many
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
        _, errors = _invert_first_lanes(_strip_code(1.5, 0.1), np.full(n, 2.0), 0.5)
        assert all(hasattr(e, "nan_argument") and e.__traceback__ is None
                   for e in errors)


def test_gap_targets_stay_post_check_misses():
    code = jump_code()
    targets = np.array([3.0, 5.7, 6.2, 8.0])
    for p in targets:  # near the jump the steps fall back on halving
        first_oracle(code, p, 0.5, outcome(lambda: invert_in_first(code, p, 0.5)))
        second_oracle(code, 5.0 + p / 100, p,
                      outcome(lambda: invert_in_second(code, 5.0 + p / 100, p)))
    _, errors = _invert_first_lanes(code, targets, 0.5)
    assert [str(e).startswith("invert_in_first: solution re-evaluates")
            for e in errors] == [False, True, True, False]
    assert_lanes_match(code, targets, 0.5)
    assert_lanes_match(code, targets, np.array([0.5, 0.2, 0.9, 0.5]))


def test_anchor_inversion_takes_four_code_calls():
    # 127 lanes at the zero modifier of lorentz, where code(., anchor) is
    # nearly straight: the table, two steps (the interpolated one and the
    # one that closes the bracket) and the post-check
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
