"""The batched constructive route against the scalar route it replaces.

The oracles below are the scalar half-step solve and orbit count that
`holder` used before its bisections were batched, kept verbatim apart from
their names.  The batched route must give the same knots and the same unit
modifier bit for bit, not merely close ones.
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
    make_synthetic,
    suggest_r0,
)
from permlaw import holder, lawcore
from permlaw.holder import UnitDegenerate
from permlaw.lawcore import BISECT_TOL, INCREASING, _invert_first_lanes, _multisect

from conftest import law


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


def _separated_knots(rng, lo, hi, n):
    pos = np.concatenate([[0.0], np.cumsum(0.35 + rng.random(n - 1))])
    ks = lo + (hi - lo) * pos / pos[-1]
    ks[0], ks[-1] = lo, hi
    return ks


def _additive_code(seed):
    # acceptance criterion 4's recipe: f(y) + g(r) never leaves f's range
    rng = np.random.default_rng(seed)
    fk = _separated_knots(rng, 0.0, 12.0, 10)
    fv = np.cumsum(0.3 + rng.random(10))
    fv -= fv[0]
    gk = _separated_knots(rng, 0.0, 3.0, 10)
    gv = np.cumsum(np.concatenate([[0.0], 0.3 + rng.random(9)]))
    gv = gv / gv[-1] * 0.25 * (fv[-1] - fv[0])
    if seed % 2:
        gv = gv[::-1].copy()
    g_hi, g_lo = float(max(gv[0], gv[-1])), float(min(gv[0], gv[-1]))
    J_hi = float(np.interp(fv[-1] - g_hi, fv, fk))
    J_lo = max(float(np.interp(fv[0] - g_lo, fv, fk)), fk[0] + 0.6 * (fk[1] - fk[0]))
    J = Interval(J_lo + 1e-3, J_hi - 1e-3)
    return make_synthetic((fk, fv), (gk, gv), domain=(J, Interval(0.0, 3.0)))


@settings(max_examples=6)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.95))
def test_synthetic_codes_match_scalar_route(seed, where):
    code = _additive_code(seed)
    hs = make_structure(code, x0=code.J.lo + where * code.J.width)
    with pytest.MonkeyPatch.context() as m:
        assert_matches_scalar_route(hs, 3, m)


@pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras",
                                  "vanderwaals"])
def test_corpus_laws_match_scalar_route(name, monkeypatch):
    for x0 in (0.5, 1.0, 2.0):
        assert_matches_scalar_route(make_structure(law(name), x0=x0), 20, monkeypatch)


# ---------------------------------------------------------------------------
# the lane primitives


def _jump_code():
    # a step of 1 at y = 5: targets in the gap fail the post-check
    return BivariateCode(
        fn=lambda y, r: y + r + (y > 5.0),
        domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
        dir_second=INCREASING,
    )


def assert_lanes_match(code, targets, t, tol=BISECT_TOL):
    # the lanes stop at lawcore.BISECT_TOL, the scalar call at its `tol`
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lawcore, "BISECT_TOL", tol)
        w, errors = _invert_first_lanes(code, targets, t)
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
    assert_lanes_match(_jump_code(), np.array([3.0, 5.7, 6.2, 8.0]), 0.5)


def test_lanes_stop_one_by_one():
    # With the tolerance set to the narrowest bracket left after 30
    # halvings, some lanes stop there and the others later, each where its
    # scalar bisection stops.
    code = law("cylinder")
    J, t = code.J, 1.3
    targets = np.linspace(1.0, 50.0, 97)
    widths = []
    for p in targets:
        a, b = J.lo, J.hi
        for _ in range(30):
            m = 0.5 * (a + b)
            a, b = (m, b) if float(code(m, t)) < p else (a, m)
        widths.append(b - a)
    assert len(set(widths)) > 1
    assert_lanes_match(code, targets, t, tol=min(widths))


@pytest.mark.parametrize("levels", [1, 3, 7])
@pytest.mark.parametrize("max_iter", [0, 5, 200])
def test_multisect_matches_bisect_monotone(levels, max_iter, monkeypatch):
    monkeypatch.setattr(lawcore, "_TREE_LEVELS", levels)
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

    # the tree below [0, 4] holds failing nodes; the path to 0.5 reads none
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
