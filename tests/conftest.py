import importlib.util
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from permlaw import (
    BivariateCode,
    Interval,
    LawError,
    LawSpec,
    RangeExceeded,
    bisect_monotone,
    invert_in_first,
    make_law,
    make_synthetic,
)
from permlaw import lawcore
from permlaw.lawcore import BISECT_TOL, _invert_first_lanes

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
_bench_modules = {}


def bench_module(name):
    """bench/<name>.py, imported once by its path: the benchmark harness is
    no package.  Its run.py imports cases.py and tracing.py by their own
    names."""
    if name not in _bench_modules:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # dataclasses look their module up
        spec.loader.exec_module(mod)
        _bench_modules[name] = mod
    return _bench_modules[name]


class ComposedCode:
    """outer(base(y, r)) with the base code's domains and direction."""

    def __init__(self, base, outer, outer_increasing=True):
        self.base = base
        self.outer = outer
        self.J = base.J
        self.J2 = base.J2
        if outer_increasing:
            self.dir_second = base.dir_second
        else:
            self.dir_second = (
                "decreasing" if base.dir_second == "increasing" else "increasing"
            )
        self.interpolated = getattr(base, "interpolated", False)

    def __call__(self, y, r):
        return self.outer(self.base(y, r))

    def default_tolerance(self) -> float:
        return 1e-4 if self.interpolated else 1e-9


def outcome(fn):
    """fn()'s value, or the LawError it raises."""
    try:
        return fn()
    except LawError as exc:
        return exc


def raised(err):
    """Raise `err` if there is one, as a solver's caller does."""
    if err is not None:
        raise err


def root(*args):
    """lawcore._root's outcome: its root, or the error it raises."""
    return outcome(lambda: lawcore._root(*args))


def same_outcome(a, b) -> bool:
    """Equal floats bit for bit, or errors of one type and message."""
    if isinstance(a, LawError) or isinstance(b, LawError):
        return type(a) is type(b) and str(a) == str(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_bisection_oracle(fn, lo, hi, target, got, tol, post=None):
    """The root finders' oracle: `got`, the outcome of a solve of
    fn(x) = target on [lo, hi], against bisect_monotone run to the last
    bit, whose root `post` re-checks (it raises as the solver's post-check
    does).

    * a root lies within `tol` of bisection's root, or bisection met a NaN
      on its way;
    * a range error is bisection's, message and all;
    * a NaN error names an argument inside [lo, hi] where fn is NaN;
    * a post-check error comes where bisection's root fails it too.
    """
    def bisected():
        r = float(bisect_monotone(fn, lo, hi, float(target), tol=0.0))
        if post is not None:
            post(r)
        return r

    want = outcome(bisected)
    if hasattr(got, "nan_argument"):
        x = got.nan_argument
        assert lo <= x <= hi and np.isnan(float(fn(x))), got
    elif isinstance(got, RangeExceeded):
        assert same_outcome(got, want), (got, want)
    elif isinstance(got, LawError):
        assert type(want) is type(got), (got, want)
        assert str(want).split(":")[0] == str(got).split(":")[0], (got, want)
    elif hasattr(want, "nan_argument"):
        assert lo <= got <= hi
    else:
        assert not isinstance(want, LawError), (got, want)
        assert abs(got - want) <= tol, (got, want, tol)


def first_oracle(code, p, t, got, tol=BISECT_TOL):
    """The oracle for invert_in_first(code, p, t)'s outcome `got`."""
    assert_bisection_oracle(
        lambda x: code(x, t), code.J.lo, code.J.hi, p, got, tol,
        post=lambda w: raised(lawcore._post_error(float(code(w, t)), float(p),
                                                  "invert_in_first")))


def second_oracle(code, x0, p, got, tol=BISECT_TOL):
    """The oracle for invert_in_second(code, x0, p)'s outcome `got`."""
    assert_bisection_oracle(
        lambda r: code(x0, r), code.J2.lo, code.J2.hi, p, got, tol,
        post=lambda v: raised(lawcore._post_error(float(code(x0, v)), float(p),
                                                  "invert_in_second")))


def assert_lanes_match(code, targets, t, tol=BISECT_TOL):
    """Each lane is invert_in_first's outcome for it, which passes the
    oracle."""
    w, errors = _invert_first_lanes(code, targets, t, tol=tol)
    ts = np.broadcast_to(np.asarray(t, dtype=float), targets.shape)
    for i, (p, ti) in enumerate(zip(targets.tolist(), ts.tolist())):
        want = outcome(lambda: invert_in_first(code, p, ti, tol=tol))
        got = w[i] if errors[i] is None else errors[i]
        assert same_outcome(got, want), (i, got, want)
        assert np.isnan(w[i]) == (errors[i] is not None)
        first_oracle(code, p, ti, want, tol)


def law(name, **params):
    return make_law(LawSpec(name=name, params=params, domain=None))


def jump_code(J=Interval(0.0, 10.0)):
    """G(y, r) = y + r + [y > 5] on J x [0, 1]: code(., t) skips
    (5 + t, 6 + t], so a target in that gap fails the inversions'
    post-check."""
    return BivariateCode(fn=lambda y, r: y + r + (y > 5.0),
                         domain=(J, Interval(0.0, 1.0)), dir_second="increasing")


def _separated_knots(rng, lo, hi, n):
    # keep all gaps comparable so no segment hides from the probe grids
    pos = np.cumsum(0.35 + rng.random(n - 1))
    pos = np.concatenate([[0.0], pos])
    ks = lo + (hi - lo) * pos / pos[-1]
    ks[0], ks[-1] = lo, hi
    return ks


def additive_code(seed):
    """Acceptance criterion 4's random additive code, drawn from
    default_rng(seed), with g decreasing for odd seeds.  J is restricted
    so f(y) + g(r) never leaves f's value range.  Returns (code, f knots,
    g knots)."""
    rng = np.random.default_rng(seed)
    fk = _separated_knots(rng, 0.0, 12.0, 10)
    fv = np.cumsum(0.3 + rng.random(10))
    fv -= fv[0]
    gk = _separated_knots(rng, 0.0, 3.0, 10)
    amp = 0.25 * (fv[-1] - fv[0])
    gv = np.cumsum(np.concatenate([[0.0], 0.3 + rng.random(9)]))
    gv = gv / gv[-1] * amp
    if seed % 2:
        gv = gv[::-1].copy()
    g_hi = float(max(gv[0], gv[-1]))
    g_lo = float(min(gv[0], gv[-1]))
    J_hi = float(np.interp(fv[-1] - g_hi, fv, fk))
    J_lo = max(float(np.interp(fv[0] - g_lo, fv, fk)),
               fk[0] + 0.6 * (fk[1] - fk[0]))
    J = Interval(J_lo + 1e-3, J_hi - 1e-3)
    code = make_synthetic((fk, fv), (gk, gv), domain=(J, Interval(0.0, 3.0)))
    return code, fk, gk


@pytest.fixture
def cylinder():
    return law("cylinder")


@pytest.fixture
def pythagoras():
    return law("pythagoras")


@pytest.fixture
def beer():
    return law("beer")


@pytest.fixture
def lorentz():
    return law("lorentz")


@pytest.fixture
def vanderwaals():
    return law("vanderwaals")


@pytest.fixture
def log_cylinder(cylinder):
    return ComposedCode(cylinder, np.log)
