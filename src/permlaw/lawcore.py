"""Domain types and numeric primitives for bivariate-law analysis.

A *code* is a bivariate function G strictly increasing in its first argument,
strictly monotone in its second, and continuous in both, mapping a rectangle
J x J' into a value interval H.  Everything downstream (axiom checks, the
additive-representation machinery, monotone fitting) rests on two primitives
kept here: piecewise-linear evaluation/inversion of tabulated strictly
monotone functions, and bisection inversion of a code in either argument.
The inversions return the plain bisection loop's answers (bisect_monotone)
bit for bit, through _invert_first_lanes for many roots: it predicts the
loop's paths and evaluates them whole (_multisect, _path_lanes) or takes a
level of every lane per call (bisect_monotone_vec).

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "INCREASING",
    "DECREASING",
    "LawError",
    "InvalidInterval",
    "InvalidParams",
    "RangeExceeded",
    "OutOfDomain",
    "RangeClipped",
    "NonMonotoneKnots",
    "Interval",
    "MonotoneFunction",
    "BivariateCode",
    "Gauge",
    "AffineMap",
    "AdditiveRepresentation",
    "bisect_monotone",
    "invert_in_first",
    "invert_in_second",
]

INCREASING = "increasing"
DECREASING = "decreasing"
_DIRECTIONS = (INCREASING, DECREASING)

# Bisection halts when the bracket is narrower than this (absolute, on the
# argument).  200 iterations cover any bracket wider than 1e-12 * 2^200.
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200

# A solve first reads its function at this many points, the bracket's ends
# included, to aim its first guesses.
_TABLE_POINTS = 65

_UNIT = np.linspace(0.0, 1.0, _TABLE_POINTS)
_HALVES = np.array([[0.5], [-0.5]])

# With this many lanes or more, _invert_first_lanes takes a level of every
# lane per code call (bisect_monotone_vec) in place of whole paths, which
# took 0.5-0.6 times as long on 441 lanes of a closed form (as many as
# axioms.check_solvability solves), 0.5-0.9 at 256 and 0.8-1.0 at 128, but
# 1.0-1.7 times on a grid table or a synthetic code and 1.8-3.1 at 128.
_MANY_LANES = 256

# At most this many secant steps sharpen each round's guesses before
# bisection's path is built toward them.
_SHARPEN_STEPS = 8

# Self-check applied after every inversion: the solution must re-evaluate to
# the target within this relative slack (floor 1 on the scale).
_POST_REL = 1e-9


class LawError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInterval(LawError, ValueError):
    pass


class InvalidParams(LawError, ValueError):
    pass


class RangeExceeded(LawError):
    """A requested target value is not attained on the search interval."""


class OutOfDomain(LawError):
    """An argument lies outside a tabulated or declared domain."""


class RangeClipped(LawError):
    """A reconstructed sum f(y)+g(r) left the tabulated range of f or m."""


class NonMonotoneKnots(LawError, ValueError):
    """Tabulated knots violate strict monotonicity."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Interval:
    """A real interval with lo < hi; endpoints individually open or closed."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InvalidInterval(f"endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidInterval(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def require_nonnegative(self) -> "Interval":
        if self.lo < 0.0:
            raise InvalidInterval(f"interval must be nonnegative, got lo={self.lo}")
        return self

    def contains(self, x, slack: float = 0.0):
        """Vectorized membership; `slack` loosens closed endpoints only."""
        x = np.asarray(x, dtype=float)
        lo_ok = x >= self.lo - slack if self.closed_lo else x > self.lo
        hi_ok = x <= self.hi + slack if self.closed_hi else x < self.hi
        return lo_ok & hi_ok

    def grid(self, n: int) -> np.ndarray:
        """n sample points; open endpoints are inset by 1e-9 * width."""
        if n < 2:
            raise InvalidParams("grid needs n >= 2")
        eps = 1e-9 * self.width
        a = self.lo if self.closed_lo else self.lo + eps
        b = self.hi if self.closed_hi else self.hi - eps
        return np.linspace(a, b, n)

    def intersect(self, other: "Interval") -> "Interval":
        """The common part; an endpoint is open if either side has it open."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        closed_lo = all(iv.closed_lo for iv in (self, other) if iv.lo == lo)
        closed_hi = all(iv.closed_hi for iv in (self, other) if iv.hi == hi)
        return Interval(lo, hi, closed_lo, closed_hi)


def _validate_knots(xs: np.ndarray, ys: np.ndarray, direction: str) -> None:
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise NonMonotoneKnots("knot arrays must be 1-d and equal length")
    if xs.size < 2:
        raise NonMonotoneKnots("need at least two knots")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise NonMonotoneKnots("knots must be finite")
    dx = np.diff(xs)
    if not np.all(dx > 0):
        i = int(np.argmin(dx))
        raise NonMonotoneKnots(f"knot xs not strictly increasing at index {i}")
    dy = np.diff(ys)
    sgn = 1.0 if direction == INCREASING else -1.0
    if not np.all(sgn * dy > 0):
        i = int(np.argmin(sgn * dy))
        raise NonMonotoneKnots(
            f"knot values not strictly {direction} at index {i}"
        )


@dataclass(frozen=True)
class MonotoneFunction:
    """A strictly monotone function tabulated at knots, interpolated linearly.

    Evaluation and inversion are exact mutual inverses up to float roundoff
    because both interpolate on the same knot polyline.  No extrapolation:
    arguments outside the knot span raise OutOfDomain (a relative slack of
    1e-9 absorbs float fuzz at the endpoints).
    """

    xs: np.ndarray
    ys: np.ndarray
    direction: str = INCREASING

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise InvalidParams(f"direction must be one of {_DIRECTIONS}")
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        _validate_knots(xs, ys, self.direction)
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))

    @property
    def domain(self) -> Interval:
        return Interval(float(self.xs[0]), float(self.xs[-1]))

    @property
    def value_range(self) -> Interval:
        lo = float(min(self.ys[0], self.ys[-1]))
        hi = float(max(self.ys[0], self.ys[-1]))
        return Interval(lo, hi)

    def _clip_args(self, x, lo: float, hi: float, what: str):
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * max(1.0, hi - lo)
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            bad = x[(x < lo - slack) | (x > hi + slack)]
            raise OutOfDomain(
                f"{what} {float(np.ravel(bad)[0])!r} outside [{lo}, {hi}]"
            )
        return np.clip(x, lo, hi)

    def __call__(self, x):
        x = self._clip_args(x, float(self.xs[0]), float(self.xs[-1]), "argument")
        return np.interp(x, self.xs, self.ys)

    eval = __call__

    def invert(self, v):
        r = self.value_range
        v = self._clip_args(v, r.lo, r.hi, "value")
        if self.direction == INCREASING:
            return np.interp(v, self.ys, self.xs)
        return np.interp(v, self.ys[::-1], self.xs[::-1])

    def inverse(self) -> "MonotoneFunction":
        """The inverse function, tabulated on the same polyline."""
        if self.direction == INCREASING:
            return MonotoneFunction(self.ys, self.xs, INCREASING)
        return MonotoneFunction(self.ys[::-1], self.xs[::-1], DECREASING)

    def shifted(self, delta: float) -> "MonotoneFunction":
        return MonotoneFunction(self.xs, self.ys + delta, self.direction)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        return "x,value\n" + "".join(
            f"{x!r},{y!r}\n" for x, y in zip(self.xs.tolist(), self.ys.tolist()))

    @classmethod
    def from_csv(cls, path) -> "MonotoneFunction":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
            raise NonMonotoneKnots("expected header 'x,value'")
        try:
            data = np.array([[float(a), float(b)] for a, b in rows[1:]], dtype=float)
        except (ValueError, TypeError) as exc:
            raise NonMonotoneKnots(f"bad CSV row: {exc}") from exc
        if data.ndim != 2 or data.shape[0] < 2:
            raise NonMonotoneKnots("need at least two data rows")
        xs, ys = data[:, 0], data[:, 1]
        direction = INCREASING if ys[-1] > ys[0] else DECREASING
        return cls(xs, ys, direction)


@dataclass(frozen=True)
class BivariateCode:
    """A bivariate law G: J x J' -> reals.

    `fn` must accept numpy arrays (broadcasting) and be strictly increasing
    in the first argument and strictly monotone in the second with the
    declared `dir_second`.  The declaration is verified by the axiom checks,
    never silently inferred.  Evaluation does not range-check closed-form
    laws; interpolated backends enforce their tabulated domain themselves.
    """

    fn: Callable = field(repr=False)
    domain: tuple[Interval, Interval]
    dir_second: str
    params: Mapping[str, object] = field(default_factory=dict)
    name: str = "code"
    interpolated: bool = False

    def __post_init__(self) -> None:
        if self.dir_second not in _DIRECTIONS:
            raise InvalidParams(f"dir_second must be one of {_DIRECTIONS}")
        if len(self.domain) != 2:
            raise InvalidParams("domain must be a pair of intervals")

    def __call__(self, y, r):
        return self.fn(np.asarray(y, dtype=float), np.asarray(r, dtype=float))

    @property
    def J(self) -> Interval:
        return self.domain[0]

    @property
    def J2(self) -> Interval:
        return self.domain[1]

    def default_tolerance(self) -> float:
        # Tabulated backends carry interpolation error; closed forms do not.
        return 1e-4 if self.interpolated else 1e-9


@dataclass(frozen=True)
class Gauge:
    """Normalization anchors of an additive representation: f(x0) = 0 and
    the unit is the f-increment of one modifier step (+1 or -1)."""

    x0: float
    unit: float


@dataclass(frozen=True)
class AffineMap:
    """x -> xi * x + theta with xi > 0."""

    xi: float
    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.xi) and self.xi > 0.0):
            raise InvalidParams(f"xi must be positive and finite, got {self.xi}")
        if not np.isfinite(self.theta):
            raise InvalidParams("theta must be finite")

    def __call__(self, x):
        return self.xi * np.asarray(x, dtype=float) + self.theta

    def apply_to(self, mf: MonotoneFunction) -> MonotoneFunction:
        return MonotoneFunction(mf.xs, self(mf.ys), mf.direction)


@dataclass(frozen=True)
class AdditiveRepresentation:
    """G(y, r) ~ m(f(y) + g(r)); with m absent, m is taken to be f^{-1}."""

    f: MonotoneFunction
    g: MonotoneFunction
    gauge: Gauge
    m: MonotoneFunction | None = None

    def _outer(self) -> MonotoneFunction:
        return self.m if self.m is not None else self.f.inverse()

    def reconstruct(self, y, r, clip: bool = False):
        """Evaluate the representation at (y, r).

        Sums f(y)+g(r) outside the tabulated domain of the outer map raise
        RangeClipped unless `clip`, in which case they are clamped.
        """
        s = np.asarray(self.f(y) + self.g(r), dtype=float)
        outer = self._outer()
        dom = outer.domain
        slack = 1e-9 * max(1.0, dom.width)
        inside = (s >= dom.lo - slack) & (s <= dom.hi + slack)
        if not clip and not np.all(inside):
            bad = float(np.ravel(s[~inside])[0]) if s.ndim else float(s)
            raise RangeClipped(
                f"sum {bad!r} outside tabulated range [{dom.lo}, {dom.hi}]"
            )
        return outer(np.clip(s, dom.lo, dom.hi))


# ---------------------------------------------------------------------------
# bisection


def _range_error(target: float, vmin: float, vmax: float) -> RangeExceeded:
    return RangeExceeded(
        f"target {target!r} outside attained range [{vmin!r}, {vmax!r}]"
    )


def _nan_error(x: float) -> LawError:
    err = LawError(f"function value at argument {x!r} is NaN; cannot bracket")
    err.nan_argument = x  # tells it from an inversion's other LawErrors
    return err


def bisect_monotone(fn, lo: float, hi: float, target: float,
                    tol: float = BISECT_TOL, max_iter: int = BISECT_MAX_ITER) -> float:
    """Solve fn(x) = target on [lo, hi] for strictly monotone scalar fn.

    Raises RangeExceeded when the target is not bracketed by the endpoint
    values, and LawError when fn returns NaN inside the bracket.  The
    returned argument is within `tol` of the true solution.
    """
    flo = float(fn(lo))
    fhi = float(fn(hi))
    if flo == target:
        return float(lo)
    if fhi == target:
        return float(hi)
    increasing = fhi > flo
    vmin, vmax = (flo, fhi) if increasing else (fhi, flo)
    if not (vmin <= target <= vmax):
        raise _range_error(target, vmin, vmax)
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        fm = float(fn(m))
        if fm != fm:
            raise _nan_error(m)
        if (fm < target) == increasing:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _inverse_interp(xs, fs, p):
    """Where the polynomial through the points (fs[i], xs[i]) takes the value
    p: the secant through two points, inverse quadratic interpolation
    through three.  Only a guess; NaN or inf where values coincide."""
    fs = [np.float64(f) if np.ndim(f) == 0 else f for f in fs]
    with np.errstate(all="ignore"):
        g = 0.0
        for i, (xi, fi) in enumerate(zip(xs, fs)):
            for j, fj in enumerate(fs):
                if j != i:
                    xi = xi * (p - fj) / (fi - fj)
            g = g + xi
    return g


def _sharpen(fn, g, x, f, p, inc, lo, hi, tol):
    """Secant steps toward fn(.) = p from the guesses g and the evaluated
    points (x, f), one lane per element; a step that leaves the bracket
    [lo, hi], which each value read narrows, halves it instead.  A lane
    stops once its step moves by at most `tol`.  The values read here
    decide nothing; they only aim bisection's path."""
    g = np.where((g >= lo) & (g <= hi), g, 0.5 * (lo + hi))
    moving = np.ones(g.shape, dtype=bool)
    for _ in range(_SHARPEN_STEPS):
        fg = np.asarray(fn(g), dtype=float)
        up = (fg < p) == inc
        lo, hi = np.where(up, g, lo), np.where(up, hi, g)
        with np.errstate(all="ignore"):
            nxt = g - (fg - p) * (g - x) / (fg - f)
        # No step where the secant is undefined; a step out of the bracket
        # halves the bracket instead.
        nxt = np.where(nxt == nxt, nxt, g)
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        x, f, g = g, fg, np.where(moving, nxt, g)
        moving &= np.abs(g - x) > tol
        if not moving.any():
            break
    return g


def _scalar_path(a: float, b: float, g: float, levels: int, tol: float):
    """Bisection's path from [a, b] toward g in Python floats, at most
    `levels` levels, stopping where the bracket is `tol` wide or less: the
    midpoints 0.5 * (a + b) that the scalar loop takes if every comparison
    goes the guessed way, and whether each becomes the lower end."""
    mids, ups = [], []
    for _ in range(levels):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        up = g > m
        a, b = (m, b) if up else (a, m)
        mids.append(m)
        ups.append(up)
    return mids, ups


def _path(a, b, g, levels):
    """_scalar_path for many lanes, `levels` levels each and no stop: from
    the brackets [a, b] (one lane per column) toward the finite guesses g.
    Returns (mids, ups, lows, highs), one row per level: (lows[j],
    -highs[j]) is the bracket before level j, and the last row the bracket
    after the last level."""
    n = a.size
    # mm[0, j] holds m and sides[0, j] the test g > m (m becomes a);
    # mm[1, j] holds -m and sides[1, j] the test -g' > -m, g' the float below
    # g, that is m >= g (m becomes b).  With b kept negated, one masked copy
    # moves both ends.
    mm, sides = np.empty((2, levels, n)), np.empty((2, levels, n), dtype=bool)
    brackets = np.empty((2, levels + 1, n))
    brackets[:, 0] = a, -b
    ab = brackets[:, 0].copy()
    lo, nhi = ab
    gg = np.stack([g, -np.nextafter(g, -np.inf)])
    s = np.empty(n)
    for j in range(levels):
        m2, side = mm[:, j], sides[:, j]
        np.subtract(lo, nhi, out=s)
        np.multiply(s, _HALVES, out=m2)
        np.greater(gg, m2, out=side)
        np.putmask(ab, side, m2)
        brackets[:, j + 1] = ab
    return mm[0], sides[0], brackets[0], brackets[1]


def _levels(width: float, tol: float) -> int:
    """Halvings that take a bracket of this width to `tol` or below, give
    or take the last one's rounding."""
    return 0 if width <= tol else math.ceil(math.log2(width / tol)) + 1


def _multisect(lanes_fn, lo: float, hi: float, target: float, tol: float) -> float:
    """bisect_monotone, evaluating many of its midpoints per call.

    `lanes_fn` maps an argument array to (values, errors) as
    _invert_first_lanes does.  The first call evaluates a table of
    _TABLE_POINTS points from end to end, and the table's cell around the
    target gives the first guess of the root.  Each round sharpens the
    guess with secant steps of one point per call (as _sharpen does for
    many lanes), evaluates bisection's path toward it (_scalar_path) in one
    call, and follows the scalar loop down the path as far as its decisions
    agree with the guessed ones, taking the real decision at the first node
    that disagrees; the next guess interpolates that node and its
    bracket's ends.  Every decision reads the value at the argument the
    scalar loop reads, so the result is bisect_monotone's bit for bit,
    provided `lanes_fn` gives each argument of an array the value it gives
    that argument alone; an error is raised only when the loop reads its
    node, so errors come in the scalar order.
    """
    def read(vals, errs, i, m=None):
        # The value of node i (midpoint m, if any) as the scalar loop reads it.
        if errs[i] is not None:
            raise errs[i]
        if m is not None and vals[i] != vals[i]:
            raise _nan_error(m)
        return float(vals[i])

    a, b = float(lo), float(hi)
    xs = np.linspace(a, b, _TABLE_POINTS)
    vals, errs = lanes_fn(xs)
    vals, errs = np.asarray(vals, dtype=float), list(errs)
    fa, fb = read(vals, errs, 0), read(vals, errs, -1)
    if fa == target:
        return a
    if fb == target:
        return b
    increasing = fb > fa
    vmin, vmax = (fa, fb) if increasing else (fb, fa)
    if not (vmin <= target <= vmax):
        raise _range_error(target, vmin, vmax)
    # The first guess: the secant across the table's cell around the target.
    up = min(max(int(np.count_nonzero((vals < target) == increasing)), 1), xs.size - 1)
    x, f = float(xs[up]), float(vals[up])
    guess = float(_inverse_interp((float(xs[up - 1]), x), (float(vals[up - 1]), f), target))
    done = 0
    while done < BISECT_MAX_ITER and not b - a <= tol:
        guess = min(max(guess, a), b) if guess == guess else 0.5 * (a + b)
        sa, sb = a, b
        for _ in range(_SHARPEN_STEPS):  # as _sharpen does
            fg = float(lanes_fn(np.array([guess]))[0][0])
            sa, sb = (guess, sb) if (fg < target) == increasing else (sa, guess)
            try:
                nxt = guess - (fg - target) * (guess - x) / (fg - f)
            except ZeroDivisionError:
                nxt = guess
            x, f, guess = guess, fg, nxt if sa <= nxt <= sb else 0.5 * (sa + sb)
            if abs(guess - x) <= tol:
                break
        # The path toward the guess, to where the scalar loop stops.
        mids, ups = _scalar_path(a, b, guess, BISECT_MAX_ITER - done, tol)
        fs, fs_errs = lanes_fn(np.array(mids))
        fs, fs_errs, k = np.asarray(fs, dtype=float).tolist(), list(fs_errs), len(mids)
        e = 0  # nodes confirmed: read without error or NaN, decided as guessed
        for fm, err, up in zip(fs, fs_errs, ups):
            if err is not None or fm != fm or ((fm < target) == increasing) != up:
                break
            e += 1
        if e < k:  # node e is on the scalar loop's path
            ups[e] = (read(fs, fs_errs, e, mids[e]) < target) == increasing
            e += 1
        # The last node read, j, and the ends of its bracket: the last nodes
        # before it that became the lower and the upper end, or a and b.
        j, before = e - 1, ups[e - 2::-1] if e > 1 else []
        ja = j - 1 - before.index(True) if True in before else k
        jb = j - 1 - before.index(False) if False in before else k + 1
        xs, fx = mids + [a, b], fs + [fa, fb]
        x, f = xs[j], fx[j]
        guess = float(_inverse_interp((xs[ja], x, xs[jb]), (fx[ja], f, fx[jb]), target))
        ia, ib = (j, jb) if ups[j] else (ja, j)
        a, b, fa, fb, done = xs[ia], xs[ib], fx[ia], fx[ib], done + e
    return 0.5 * (a + b)


def _bracket(flo, fhi, targets, lo: float, hi: float):
    """The vector solvers' start from the lanes' end values: returns (x,
    errors, inc, lanes) with x set where a target is an end's value, errors
    bisect_monotone's RangeExceeded where the ends do not bracket it, inc
    whether each lane rises, and the lanes left to solve."""
    n = targets.size
    x, errors = np.full(n, np.nan), np.full(n, None, dtype=object)
    at_lo = flo == targets
    at_hi = ~at_lo & (fhi == targets)
    x[at_lo], x[at_hi] = lo, hi
    inc = fhi > flo
    vmin, vmax = np.where(inc, flo, fhi), np.where(inc, fhi, flo)
    inside = (vmin <= targets) & (targets <= vmax)
    for i in np.flatnonzero(~(at_lo | at_hi | inside)):
        errors[i] = _range_error(float(targets[i]), float(vmin[i]), float(vmax[i]))
    return x, errors, inc, np.flatnonzero(~(at_lo | at_hi) & inside)


def _cut(keep, *lanes):
    """Each array cut to the lanes kept, which run along its last axis; a
    0-d value is every lane's and stays as it is."""
    return [v[..., keep] if np.ndim(v) else v for v in lanes]


def bisect_monotone_vec(fn, lo: float, hi: float, targets, tol: float = BISECT_TOL,
                        args=()):
    """bisect_monotone for many targets on one bracket, a level of every
    lane per call: solve fn(x, *args)[i] = targets[i] for x[i] in [lo, hi].

    Each of `args` is one value for all lanes or an array of one per lane,
    cut to the lanes still running when fn gets it.  A lane's x is
    bisect_monotone's bit for bit (the endpoint shortcut, a stop once
    b - a <= tol, at most BISECT_MAX_ITER halvings) if fn evaluates an
    array elementwise.  Returns (x, errors): where bisect_monotone would
    raise, for a target the ends' values do not bracket or a NaN on the
    lane's path, errors[i] holds that exception and x[i] is NaN.
    """
    targets, lo, hi = np.asarray(targets, dtype=float), float(lo), float(hi)
    flo, fhi = (np.broadcast_to(np.asarray(fn(v, *args), dtype=float), targets.shape)
                for v in (lo, hi))
    x, errors, inc, lane = _bracket(flo, fhi, targets, lo, hi)
    p, inc, *args = _cut(lane, targets, inc, *map(np.asarray, args))
    rising = bool(inc.all())
    ab = np.repeat([[lo], [hi]], lane.size, axis=1)  # each lane's bracket
    # After j halvings every bracket is within 2^-52 * max(|lo|, |hi|) of
    # (hi - lo) / 2^j wide, so none is `tol` wide before level `quiet`.
    quiet = _levels(hi - lo, 2.0 * max(tol, 0.0) + 2.0 ** -50 * max(abs(lo), abs(hi))) - 2
    for level in range(BISECT_MAX_ITER):
        if level >= quiet and (fin := ab[1] - ab[0] <= tol).any():
            if fin.all():
                break
            x[lane[fin]] = 0.5 * (ab[0, fin] + ab[1, fin])
            lane, p, inc, ab, *args = _cut(~fin, lane, p, inc, ab, *args)
        if not lane.size:
            break
        m = 0.5 * (ab[0] + ab[1])
        fm = np.asarray(fn(m, *args), dtype=float)
        # Which end m becomes: the lower where the value is below the
        # target, on a falling lane where it is not; a NaN is neither.
        side = np.empty(ab.shape, dtype=bool)
        np.less(fm, p, out=side[0])
        np.greater_equal(fm, p, out=side[1])
        if not rising:
            side[:, ~inc] = side[::-1, ~inc]
        np.putmask(ab, side, m)  # m repeats for the second row
        if np.count_nonzero(side) < lane.size:
            nan = np.isnan(fm)
            for i in np.flatnonzero(nan):
                errors[lane[i]] = _nan_error(float(m[i]))
            lane, p, inc, ab, *args = _cut(~nan, lane, p, inc, ab, *args)
    x[lane] = 0.5 * (ab[0] + ab[1])
    return x, errors


def _post_error(value: float, target: float, what: str) -> LawError | None:
    if abs(value - target) > _POST_REL * max(1.0, abs(target)):
        return LawError(
            f"{what}: solution re-evaluates to {value!r}, expected {target!r}"
        )
    return None


def _post_check(code: BivariateCode, value: float, target: float, what: str) -> None:
    err = _post_error(value, target, what)
    if err is not None:
        raise err


def _invert_first_lanes(code: BivariateCode, targets, t, tol: float = BISECT_TOL):
    """invert_in_first lane by lane: solve code(w[i], t[i]) = targets[i] for
    w[i] on J, with the inversion's post-check.

    `t` is one modifier for every lane or one per lane.  One or two lanes go
    through invert_in_first, _MANY_LANES or more through bisect_monotone_vec
    and the counts between through _path_lanes; each gives a lane
    bisect_monotone's answer bit for bit (a stop once b - a <= tol) if the
    code evaluates an array elementwise as it evaluates each element alone.
    Returns (w, errors): where invert_in_first would raise, errors[i] holds
    that exception (None elsewhere) and w[i] is NaN.
    """
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    t = np.asarray(t, dtype=float)
    if n <= 2:  # a lane or two cost less as roots of _multisect
        w, errors = np.full(n, np.nan), np.full(n, None, dtype=object)
        for i, (p, ti) in enumerate(zip(targets, np.broadcast_to(t, (n,)))):
            try:
                w[i] = invert_in_first(code, p, ti, tol)
            except LawError as err:
                if not (isinstance(err, RangeExceeded) or hasattr(err, "nan_argument")
                        or str(err).startswith("invert_in_first:")):
                    raise
                # without the traceback, whose frames would hold the arrays
                # of every call below until the garbage collector runs
                errors[i] = err.with_traceback(None)
        return w, errors
    lo, hi = float(code.J.lo), float(code.J.hi)
    if n >= _MANY_LANES:
        w, errors = bisect_monotone_vec(code, lo, hi, targets, tol, (t,))
    else:
        w, errors = _path_lanes(code, lo, hi, targets, t, tol)
    found = np.flatnonzero(~np.isnan(w))
    vals = np.asarray(code(w[found], t[found] if t.ndim else t), dtype=float)
    tg = targets[found]
    for k in np.flatnonzero(np.abs(vals - tg) > _POST_REL * np.maximum(1.0, np.abs(tg))):
        errors[found[k]] = _post_error(float(vals[k]), float(tg[k]), "invert_in_first")
        w[found[k]] = np.nan
    return w, errors


def _path_lanes(code: BivariateCode, lo: float, hi: float, targets, t, tol: float):
    """bisect_monotone_vec(code, lo, hi, targets, tol, (t,)) by whole paths.

    A table of each distinct code(., t) at _TABLE_POINTS points gives the
    ends, and the secant across its cell around a lane's target, sharpened
    once by _sharpen, is the lane's first guess.  Each round builds
    bisection's path toward every live lane's guess from the lane's bracket
    (_path), evaluates all the paths in one call and keeps each lane's
    prefix whose real decisions agree with the guessed ones; a lane takes
    the real decision at its first node that disagrees (so a NaN counts
    only there), and its next guess interpolates that node and its
    bracket's ends.
    """
    # A table of code(., t) per distinct t (told apart by its bits): its
    # first and last columns are the ends, the rest aims the guesses.
    if t.ndim:
        tu, groups = np.unique(t.view(np.int64), return_inverse=True)
        tu, groups = tu.view(float), groups.reshape(-1)
    else:
        tu, groups = t.reshape(1), np.zeros(targets.size, dtype=int)
    xs = lo + (hi - lo) * _UNIT
    xs[-1] = hi
    table = np.asarray(code(np.tile(xs, tu.size), np.repeat(tu, xs.size)),
                       dtype=float).reshape(tu.size, xs.size)
    w, errors, inc, lane = _bracket(table[groups, 0], table[groups, -1], targets, lo, hi)
    gl = groups[lane]
    p, inc, fa, fb = targets[lane], inc[lane], table[gl, 0], table[gl, -1]
    tl = t[lane] if t.ndim else t
    a, b = np.full(lane.size, lo), np.full(lane.size, hi)
    done = np.zeros(lane.size, dtype=int)
    # The first guess: the secant across the table's cell around the
    # target, sharpened.
    up = ((table[gl] < p[:, None]) == inc[:, None]).sum(axis=1)
    np.minimum(np.maximum(up, 1, out=up), xs.size - 1, out=up)
    x, f = xs[up], table[gl, up]
    g = _inverse_interp((xs[up - 1], x), (table[gl, up - 1], f), p)
    g = _sharpen(lambda v: code(v, tl), g, x, f, p, inc, a, b, tol)
    while lane.size:
        n = lane.size
        g = np.where(g == g, np.clip(g, a, b), 0.5 * (a + b))
        k = max(0, min(BISECT_MAX_ITER - int(done.min()), _levels(float(np.max(b - a)), tol)))
        mids, ups, lows, highs = _path(a, b, g, k)
        vals = np.asarray(code(mids.ravel(), np.tile(tl, k) if t.ndim else t),
                          dtype=float).reshape(k, n)
        # A lane's walk ends at the first level where the scalar loop stops,
        # reads a NaN or decides otherwise than guessed; past its path's
        # last level if none.
        stop = -(lows + highs) <= tol
        stop |= done + np.arange(k + 1)[:, None] >= BISECT_MAX_ITER
        event = stop.copy()
        event[:k] |= np.isnan(vals) | (((vals < p) == inc) != ups)
        cols = np.arange(n)

        def at(Z, fz):  # the value at bracket end Z: a path node's or fz
            hit = mids == Z
            r = hit.argmax(axis=0)
            return np.where(hit[r, cols], vals[r, cols], fz)

        e = event.argmax(axis=0)
        e[~event[e, cols]] = k
        A, B = lows[e, cols], -highs[e, cols]
        fin = stop[e, cols]
        w[lane[fin]] = 0.5 * (A[fin] + B[fin])
        if fin.all():
            break
        ek = np.minimum(e, k - 1)
        m, fm, went_up = mids[ek, cols], vals[ek, cols], ~ups[ek, cols]
        flip = ~fin & (e < k)
        bad = flip & np.isnan(fm)
        for i in np.flatnonzero(bad):
            errors[lane[i]] = _nan_error(float(m[i]))
        flip &= ~bad
        fA, fB = at(A, fa), at(B, fb)
        g = np.where(flip, _inverse_interp((A, m, B), (fA, fm, fB), p), g)
        a, fa = np.where(flip & went_up, m, A), np.where(flip & went_up, fm, fA)
        b, fb = np.where(flip & ~went_up, m, B), np.where(flip & ~went_up, fm, fB)
        done = done + e + flip
        # A lane whose real decision ended its loop stops now.
        last = flip & ((b - a <= tol) | (done >= BISECT_MAX_ITER))
        w[lane[last]] = 0.5 * (a[last] + b[last])
        lane, p, inc, done, g, a, b, fa, fb, tl = _cut(
            ~fin & ~bad & ~last, lane, p, inc, done, g, a, b, fa, fb, tl)
    return w, errors


def invert_in_first(code: BivariateCode, p: float, t: float,
                    tol: float = BISECT_TOL) -> float:
    """Solve code(w, t) = p for w in J as bisect_monotone does (by
    _multisect); RangeExceeded when code(., t) does not attain p on J."""
    J = code.J
    w = _multisect(lambda x: (code(x, t), [None] * x.size), J.lo, J.hi, float(p), tol)
    _post_check(code, float(code(w, t)), float(p), "invert_in_first")
    return w


def invert_in_second(code: BivariateCode, x0: float, p: float,
                     tol: float = BISECT_TOL) -> float:
    """Solve code(x0, v) = p for v in J' as bisect_monotone does (by
    _multisect); RangeExceeded when code(x0, .) does not attain p on J'."""
    J2 = code.J2
    v = _multisect(lambda r: (code(x0, r), [None] * r.size), J2.lo, J2.hi, float(p), tol)
    _post_check(code, float(code(x0, v)), float(p), "invert_in_second")
    return v
