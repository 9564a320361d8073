"""The constructive route and the one-root solver against bisection.

The oracles below are the scalar half-step solve and orbit count that
`holder` used before its solves were batched, the plain bisection over r
its half-step solve once was, and the fixed-length vector bisection its
level fill once used.  The solvers give up bisection's bits on purpose:
the constructive route must give the same unit modifier, the same knot
count and knots within 1e-10 relative of the bisection route's, and the
one-root solver (`lawcore._root`) must land within its tolerance of
`bisect_monotone` run to the last bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlaw import (
    BivariateCode,
    Interval,
    LawError,
    RangeExceeded,
    bisect_monotone,
    construct_f,
    invert_in_first,
    make_structure,
    suggest_r0,
)
from permlaw import holder, lawcore
from permlaw.holder import UnitDegenerate
from permlaw.lawcore import BISECT_TOL, INCREASING, _invert_first_lanes

from conftest import (
    additive_code,
    assert_bisection_oracle,
    assert_lanes_match,
    jump_code,
    law,
    outcome,
    root,
    same_outcome,
)


# ---------------------------------------------------------------------------
# scalar oracles


def _composed(code, anchor, y, r):
    v = float(code(y, r))
    lo_att = float(code(code.J.lo, anchor))
    hi_att = float(code(code.J.hi, anchor))
    if v > hi_att:
        return np.inf
    if v < lo_att:
        return -np.inf
    return invert_in_first(code, v, anchor)


def _solve_half_modifier(code, anchor, base, target):
    def twice(r):
        y1 = _composed(code, anchor, base, float(r))
        if not np.isfinite(y1):
            return y1
        return _composed(code, anchor, y1, float(r))

    J2 = code.J2
    r = bisect_monotone(twice, J2.lo, J2.hi, float(target),
                        tol=BISECT_TOL * max(1.0, J2.width))
    got = twice(r)
    if not np.isfinite(got) or abs(got - target) > 1e-8 * max(1.0, abs(target)):
        raise RangeExceeded(
            f"half-step solve landed at {got!r}, wanted {target!r}")
    return float(r)


def _orbit_length(code, x0, r0, cap):
    J = code.J
    n = 1
    y = x0
    for _ in range(cap):
        y = float(code(y, r0))
        if not J.contains(y):
            break
        n += 1
    y = x0
    for _ in range(cap):
        try:
            y = invert_in_first(code, y, r0)
        except RangeExceeded:
            break
        if not J.contains(y):
            break
        n += 1
    return n


def _suggest_r0(hs, n_candidates=33):
    code, x0 = hs.G, hs.x0
    J2 = code.J2
    disp_eps = 1e-9 * max(1.0, abs(x0))
    want_positive = code.dir_second == INCREASING
    best = None
    fallback = None
    for idx, r in enumerate(J2.grid(n_candidates)):
        r = float(r)
        d = float(code(x0, r)) - x0
        if abs(d) <= disp_eps:
            continue
        n = _orbit_length(code, x0, r, cap=12)
        pref = 0 if (d > 0) == want_positive else 1
        key = (n, pref, idx)
        if fallback is None or n > fallback[0][0]:
            fallback = (key, r)
        if n >= 4 and (best is None or key < best[0]):
            best = (key, r)
    if best is not None:
        return best[1]
    if fallback is not None:
        return fallback[1]
    raise UnitDegenerate("no modifier moves the anchor; cannot pick r0")


def _fixed_bisect_vec(fn, lo, hi, targets, tol=BISECT_TOL):
    targets = np.asarray(targets, dtype=float)
    a = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).astype(float).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).astype(float).copy()
    fa = np.asarray(fn(a), dtype=float)
    fb = np.asarray(fn(b), dtype=float)
    inc = fb > fa
    vmin = np.minimum(fa, fb)
    vmax = np.maximum(fa, fb)
    ok = (targets >= vmin) & (targets <= vmax) & np.isfinite(targets)
    width = float(np.max(b - a)) if targets.size else 0.0
    iters = max(1, int(np.ceil(np.log2(max(width, tol) / tol))) + 2)
    iters = min(iters, lawcore.BISECT_MAX_ITER)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = np.asarray(fn(m), dtype=float)
        nan = np.isnan(fm) & ok
        if np.any(nan):
            raise lawcore._nan_error(float(m[nan][0]))
        go_up = (fm < targets) == inc
        a = np.where(go_up, m, a)
        b = np.where(go_up, b, m)
    return 0.5 * (a + b), ok


def assert_close(a, b, rtol):
    """Two construct_f outcomes: errors of one type, or knots of one count
    with the same f values and the y values within rtol."""
    if isinstance(a, LawError) or isinstance(b, LawError):
        assert type(a) is type(b), (a, b)
        return
    assert a.xs.size == b.xs.size and np.array_equal(a.ys, b.ys)
    assert np.all(np.abs(a.xs - b.xs) <= rtol * np.abs(b.xs)), \
        float(np.max(np.abs(a.xs - b.xs) / np.abs(b.xs)))


def assert_matches_scalar_route(hs, depth, monkeypatch):
    r0 = outcome(lambda: _suggest_r0(hs))
    assert same_outcome(outcome(lambda: suggest_r0(hs)), r0)
    if isinstance(r0, LawError):
        return
    batched = outcome(lambda: construct_f(hs, r0=r0, depth=depth))
    with monkeypatch.context() as m:
        m.setattr(holder, "_solve_half_modifier",
                  lambda code, anchor, base, target:
                  (r := _solve_half_modifier(code, anchor, base, target),
                   _composed(code, anchor, base, r)))
        scalar = outcome(lambda: construct_f(hs, r0=r0, depth=depth))
    assert_close(batched, scalar, 1e-10)


# ---------------------------------------------------------------------------
# the constructive route


@settings(max_examples=6)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.95))
def test_synthetic_codes_match_scalar_route(seed, where):
    code, _, _ = additive_code(seed)
    hs = make_structure(code, x0=code.J.lo + where * code.J.width)
    with pytest.MonkeyPatch.context() as m:
        assert_matches_scalar_route(hs, 3, m)


@pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras",
                                  "vanderwaals"])
def test_corpus_laws_match_scalar_route(name, monkeypatch):
    for x0 in (0.5, 1.0, 2.0):
        assert_matches_scalar_route(make_structure(law(name), x0=x0), 20, monkeypatch)


@settings(max_examples=8)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.6))
@example(seed=1025, where=0.59375)
def test_chained_targets_land_on_the_filled_pair(seed, where):
    # a level that halves the last level's pair again aims at that level's
    # solved midpoint; its modifier lies within the solve's tolerance of the
    # one solved against the fill's knot there.  From an anchor this low
    # the orbit steps up, and every level halves the pair from x0.  An
    # anchor whose first step up leaves J (the pinned example) is the top
    # knot instead: each level halves the pair below x0 from the last
    # level's midpoint, so no base is solved from twice.
    code, _, _ = additive_code(seed)
    hs = make_structure(code, x0=code.J.lo + where * code.J.width)
    solve, fills, calls, gaps = holder._solve_half_modifier, {}, [], []

    def fill(code, targets, t, tol=BISECT_TOL):
        sols, errors = _invert_first_lanes(code, targets, t, tol=tol)
        fills.update(zip(np.asarray(targets).tolist(), sols.tolist()))
        return sols, errors

    def both(code, anchor, base, target):
        r, m = solve(code, anchor, base, target)
        if calls and calls[-1][0] == base:
            assert target == calls[-1][1]
            knot = fills[float(code(base, calls[-1][2]))]
            gaps.append(abs(r - solve(code, anchor, base, knot)[0]))
        calls.append((base, m, r))
        return r, m

    with pytest.MonkeyPatch.context() as m:
        m.setattr(holder, "_invert_first_lanes", fill)
        m.setattr(holder, "_solve_half_modifier", both)
        f = outcome(lambda: construct_f(hs, depth=8))
    if not isinstance(f, LawError) and f.xs[-1] == hs.x0:
        assert len({base for base, _, _ in calls}) == len(calls) > 0
    else:
        assert gaps or isinstance(f, LawError)
    assert all(gap <= BISECT_TOL * max(1.0, code.J2.width) for gap in gaps), gaps


@pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras",
                                  "vanderwaals"])
def test_construct_f_code_call_budget(name):
    # construct_f's own code calls at depth 12, its unit modifier given
    hs = make_structure(law(name))
    r0, calls = suggest_r0(hs), []

    def counted(y, r, fn=hs.G.fn):
        calls.append(1)
        return fn(y, r)

    construct_f(dataclasses.replace(hs, G=dataclasses.replace(hs.G, fn=counted)),
                r0=r0, depth=12)
    assert len(calls) <= 800


def assert_fill_matches_fixed_halvings(hs, depth):
    """construct_f's level fill, the one lane call that passes `tol`,
    against _fixed_bisect_vec on the same input: that level's targets, the
    values G(y, r) of its knots under its modifier, and the anchor.  Both
    solve the same lanes, and each knot lies within twice the fill's
    tolerance of the fixed halvings' root.  The bound holds level by level
    only: two whole constructions drift apart, since each level fills from
    its own knots and solves its modifier against them.  Returns the lane
    count of each level the fill solved."""
    lanes = []

    def both(code, targets, t, tol=None):
        if tol is None:
            return _invert_first_lanes(code, targets, t)
        sols, errors = _invert_first_lanes(code, targets, t, tol=tol)
        lanes.append(targets.size)
        J = code.J
        fixed, ok = _fixed_bisect_vec(lambda w: code(w, t), J.lo, J.hi, targets,
                                      tol=BISECT_TOL * max(1.0, J.width))
        assert np.array_equal(errors == None, ok)  # noqa: E711
        assert np.max(np.abs(sols[ok] - fixed[ok]), initial=0.0) <= 2.0 * tol
        return sols, errors

    with pytest.MonkeyPatch.context() as m:
        m.setattr(holder, "_invert_first_lanes", both)
        m.setattr(lawcore, "_BLOCK_LANES", 64)  # many blocks of the cell search
        outcome(lambda: construct_f(hs, depth=depth))
    return lanes


@pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras",
                                  "vanderwaals"])
def test_corpus_fills_match_fixed_halvings(name):
    # every level's lanes, from a few to many blocks of the cell search
    for x0 in (0.5, 1.0, 2.0):
        lanes = assert_fill_matches_fixed_halvings(make_structure(law(name), x0=x0), 12)
        assert min(lanes) < 64 < 16 * 64 < max(lanes)


@settings(max_examples=6)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.95))
@example(seed=316, where=0.25)
def test_synthetic_fills_match_fixed_halvings(seed, where):
    # the pinned law's whole constructions drift apart by 1.02 times the
    # bound by level 8; each level's fill stays within it
    code, _, _ = additive_code(seed)
    hs = make_structure(code, x0=code.J.lo + where * code.J.width)
    assert_fill_matches_fixed_halvings(hs, 8)


def test_a_nan_in_the_fill_raises():
    # the orbit's points are the integers and the level's half step solves
    # near 1; only the fill's lane to 7.5 reads the strip
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 7.5) < 1e-3, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(-1.0, 1.0)), dir_second=INCREASING)
    hs = make_structure(code, x0=1.0)
    with pytest.raises(LawError, match="is NaN") as info:
        construct_f(hs, r0=1.0, depth=1)
    assert abs(info.value.nan_argument - 7.5) < 1e-3


# ---------------------------------------------------------------------------
# the lane primitives


def test_lanes_match_invert_in_first():
    code = law("beer")
    J = code.J
    t = np.array([0.0, 0.7, 2.5, 4.9, 1.0, 3.0, 0.3])
    # inside, both endpoint values exactly, and out of range either side
    targets = np.array([1.3, float(code(J.lo, 0.7)), 5.0, 0.01,
                        float(code(J.hi, 1.0)), 50.0, 2.2])
    assert_lanes_match(code, targets, t)
    assert_lanes_match(code, targets, 0.4)
    assert_lanes_match(jump_code(), np.array([3.0, 5.7, 6.2, 8.0]), 0.5)
    # integer endpoints, which Interval accepts as given
    assert_lanes_match(jump_code(Interval(0, 10)), np.array([3.0, 5.7, 6.2, 8.0]), 0.5)


def test_lanes_stop_one_by_one():
    # on pythagoras the lanes' brackets close after different numbers of
    # steps; each lane leaves the calls when its own closes and lands where
    # invert_in_first lands for it
    code = law("pythagoras")
    t = code.J2.lo + 0.6 * code.J2.width
    lo, hi = float(code(code.J.lo, t)), float(code(code.J.hi, t))
    for n in (97, 300):
        sizes = []

        def counted(y, r):
            sizes.append(np.size(y))
            return code.fn(y, r)

        targets = np.linspace(lo, hi, n + 2)[1:-1]
        _invert_first_lanes(BivariateCode(counted, code.domain, code.dir_second),
                            targets, t)
        steps = sizes[1:-1]  # between the table and the post-check
        assert len(set(steps)) > 2 and steps == sorted(steps, reverse=True)
        assert_lanes_match(code, targets, t)


@pytest.mark.parametrize("steps", [1, 3, 7])
@pytest.mark.parametrize("max_iter", [0, 5, 200])
def test_multisect_matches_bisect_monotone(steps, max_iter, monkeypatch):
    # _root from a table of steps + 1 points (one cell: no interpolation in
    # the first step) under a cap of max_iter steps: bisection's range
    # errors, and a root within the cell of bisection's root, within tol
    # of it once the cap leaves room
    monkeypatch.setattr(lawcore, "BISECT_MAX_ITER", max_iter)
    fns = [lambda x: x * x * x, lambda x: 10.0 - np.sqrt(x)]
    xs = np.linspace(0.0, 3.0, steps + 1)
    for fn in fns:
        for target in (2.0, 8.0, 27.0, 10.0, 1e3):
            got = root(fn, 0.0, 3.0, target, 1e-12, (xs, fn(xs)))
            want = outcome(lambda: bisect_monotone(fn, 0.0, 3.0, target, tol=0.0))
            if isinstance(want, LawError):
                assert same_outcome(got, want)
            elif max_iter == 200:
                assert_bisection_oracle(fn, 0.0, 3.0, target, got, 1e-12)
            else:
                assert abs(got - want) <= 3.0 / steps


def test_multisect_raises_only_errors_on_the_path():
    def fn(xs):
        return np.where((xs > 2.5) & (xs < 3.9), np.nan, xs)

    # the table of [0, 4] holds NaN points, passed over; the steps to 0.5
    # read none of them, the steps to 3.0 do and raise
    got = root(fn, 0.0, 4.0, 0.5, 1e-12)
    assert_bisection_oracle(lambda x: x, 0.0, 4.0, 0.5, got, 1e-12)
    err = root(fn, 0.0, 4.0, 3.0, 1e-12)
    assert isinstance(err, LawError) and 2.5 < err.nan_argument < 3.9


def test_nan_inside_the_domain_is_an_error():
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 1.5) < 0.1, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
        dir_second=INCREASING,
    )
    with pytest.raises(LawError, match="is NaN") as info:
        invert_in_first(code, 2.0, 0.5)
    assert not isinstance(info.value, RangeExceeded)
    assert abs(info.value.nan_argument - 1.5) < 0.1
    _, errors = _invert_first_lanes(code, np.array([2.0, 8.0]), 0.5)
    assert str(errors[0]) == str(info.value) and errors[1] is None
