"""The batched constructive route against the scalar route it replaces.

The oracles below are the scalar half-step solve and orbit count that
`holder` used before its bisections were batched, and the fixed-length
vector bisection its level fill used before it went through the lane
solver, kept verbatim apart from their names.  The batched route must give
the same knots and the same unit modifier bit for bit, not merely close
ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from permlaw.lawcore import BISECT_TOL, INCREASING, _invert_first_lanes, _multisect

from conftest import additive_code, jump_code, law


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


def _outcome(fn):
    try:
        return fn()
    except LawError as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def assert_matches_scalar_route(hs, depth, monkeypatch):
    r0 = _outcome(lambda: _suggest_r0(hs))
    assert _outcome(lambda: suggest_r0(hs)) == r0
    if isinstance(r0, str):
        return
    batched = _outcome(lambda: construct_f(hs, r0=r0, depth=depth))
    with monkeypatch.context() as m:
        m.setattr(holder, "_solve_half_modifier",
                  lambda code, anchor, atts, base, target:
                  _solve_half_modifier(code, anchor, base, target))
        scalar = _outcome(lambda: construct_f(hs, r0=r0, depth=depth))
    assert _same(batched, scalar), (batched, scalar)


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


def assert_fill_matches_fixed_halvings(hs, depth):
    """construct_f against itself with the level fill, the one lane call
    that passes `tol`, done by _fixed_bisect_vec as construct_f did it.
    Returns the lane count of each level the fill solved."""
    lanes = []

    def fixed_fill(code, targets, t, tol=None):
        if tol is None:
            return _invert_first_lanes(code, targets, t)
        lanes.append(targets.size)
        J = code.J
        sols, ok = _fixed_bisect_vec(lambda w: code(w, t), J.lo, J.hi, targets,
                                     tol=BISECT_TOL * max(1.0, J.width))
        errors = np.array([None if good else RangeExceeded("unbracketed") for good in ok])
        return np.where(ok, sols, np.nan), errors

    with pytest.MonkeyPatch.context() as m:
        m.setattr(holder, "_invert_first_lanes", fixed_fill)
        fixed = _outcome(lambda: construct_f(hs, depth=depth))
    assert _same(_outcome(lambda: construct_f(hs, depth=depth)), fixed)
    return lanes


@pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras",
                                  "vanderwaals"])
def test_corpus_fills_match_fixed_halvings(name):
    # every level's lanes, from the path route's few to the level loop's
    # thousands
    for x0 in (0.5, 1.0, 2.0):
        lanes = assert_fill_matches_fixed_halvings(make_structure(law(name), x0=x0), 12)
        assert min(lanes) < lawcore._MANY_LANES <= max(lanes)


@settings(max_examples=6)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.95))
def test_synthetic_fills_match_fixed_halvings(seed, where):
    code, _, _ = additive_code(seed)
    hs = make_structure(code, x0=code.J.lo + where * code.J.width)
    assert_fill_matches_fixed_halvings(hs, 8)


def test_a_nan_in_the_fill_raises():
    # the orbit's points are the integers and the level's half step solves
    # near 1; only the fill's path to 7.5 reads the strip
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 7.5) < 1e-3, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(-1.0, 1.0)), dir_second=INCREASING)
    hs = make_structure(code, x0=1.0)
    with pytest.raises(LawError, match="argument 7.5 is NaN") as info:
        construct_f(hs, r0=1.0, depth=1)
    assert info.value.nan_argument == 7.5


# ---------------------------------------------------------------------------
# the lane primitives


def assert_lanes_match(code, targets, t, tol=BISECT_TOL):
    w, errors = _invert_first_lanes(code, targets, t, tol=tol)
    for i, p in enumerate(targets):
        ti = float(np.broadcast_to(t, targets.shape)[i])
        want = _outcome(lambda: invert_in_first(code, float(p), ti, tol=tol))
        if isinstance(want, str):
            assert f"{type(errors[i]).__name__}: {errors[i]}" == want
            assert np.isnan(w[i])
        else:
            assert errors[i] is None
            assert w[i] == want


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
    # With the tolerance set to the narrowest bracket left after 30
    # halvings, some lanes stop there and the others later, each where its
    # scalar bisection stops: in predicted paths and a level at a time.
    code = law("cylinder")
    J, t = code.J, 1.3
    for n in (97, lawcore._MANY_LANES + 44):
        targets = np.linspace(1.0, 50.0, n)
        widths = []
        for p in targets:
            a, b = J.lo, J.hi
            for _ in range(30):
                m = 0.5 * (a + b)
                a, b = (m, b) if float(code(m, t)) < p else (a, m)
            widths.append(b - a)
        assert len(set(widths)) > 1
        assert_lanes_match(code, targets, t, tol=min(widths))


@pytest.mark.parametrize("steps", [1, 3, 7])
@pytest.mark.parametrize("max_iter", [0, 5, 200])
def test_multisect_matches_bisect_monotone(steps, max_iter, monkeypatch):
    # fewer secant steps aim the paths worse, so more of them turn
    monkeypatch.setattr(lawcore, "_SHARPEN_STEPS", steps)
    monkeypatch.setattr(lawcore, "BISECT_MAX_ITER", max_iter)
    fns = [lambda x: x * x * x, lambda x: 10.0 - np.sqrt(x)]
    for fn in fns:
        def lanes(xs, fn=fn):
            return fn(xs), np.full(xs.size, None, dtype=object)

        for target in (2.0, 8.0, 27.0, 10.0, 1e3):
            want = _outcome(lambda: bisect_monotone(fn, 0.0, 3.0, target,
                                                    tol=1e-12, max_iter=max_iter))
            got = _outcome(lambda: _multisect(lanes, 0.0, 3.0, target, tol=1e-12))
            assert got == want


def test_multisect_raises_only_errors_on_the_path():
    def lanes(xs):
        errors = np.full(xs.size, None, dtype=object)
        errors[(xs > 2.5) & (xs < 3.9)] = LawError("unreadable")
        return xs, errors

    # the table of [0, 4] holds failing points; the path to 0.5 reads none
    assert _multisect(lanes, 0.0, 4.0, 0.5, tol=1e-12) == \
        bisect_monotone(lambda x: x, 0.0, 4.0, 0.5)
    with pytest.raises(LawError, match="unreadable"):
        _multisect(lanes, 0.0, 4.0, 3.0, tol=1e-12)


def test_nan_inside_the_domain_is_an_error():
    code = BivariateCode(
        fn=lambda y, r: np.where(np.abs(y - 5.0) < 0.1, np.nan, y + r),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
        dir_second=INCREASING,
    )
    with pytest.raises(LawError, match="argument 5.0 is NaN") as info:
        invert_in_first(code, 2.0, 0.5)
    assert not isinstance(info.value, RangeExceeded)
    _, errors = _invert_first_lanes(code, np.array([2.0, 8.0]), 0.5)
    assert [str(e) for e in errors] == [str(info.value)] * 2
