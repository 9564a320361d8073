"""Domain types and numeric primitives for bivariate-law analysis.

A *code* is a bivariate function G strictly increasing in its first argument,
strictly monotone in its second, and continuous in both, mapping a rectangle
J x J' into a value interval H.  Everything downstream (axiom checks, the
additive-representation machinery, monotone fitting) rests on two primitives
kept here: piecewise-linear evaluation/inversion of tabulated strictly
monotone functions, and bisection inversion of a code in either argument.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import io
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

# _multisect evaluates this many levels of its bisection tree per round,
# 2**7 - 1 = 127 arguments in one vector call.  In the half-step solve of
# holder.construct_f, 5 levels took about 20% longer on synthetic, tabulated
# and closed-form codes; 9 levels were no faster.
_TREE_LEVELS = 7

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
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi)


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

    def __len__(self) -> int:
        return int(self.xs.size)

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
        buf = io.StringIO()
        buf.write("x,value\n")
        for x, y in zip(self.xs, self.ys):
            buf.write(f"{float(x)!r},{float(y)!r}\n")
        return buf.getvalue()

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

    def sum_range(self) -> Interval:
        return self._outer().domain

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
    return LawError(f"function value at argument {x!r} is NaN; cannot bracket")


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


def _multisect(lanes_fn, lo: float, hi: float, target: float,
               tol: float) -> float:
    """bisect_monotone, evaluating _TREE_LEVELS levels of its bisection tree
    at once.

    `lanes_fn` maps an argument array to (values, errors) as
    _invert_first_lanes does.  Each round builds the midpoints of the next
    _TREE_LEVELS levels below the current bracket with the scalar
    0.5 * (a + b), evaluates them (the first round also the two endpoints)
    in one call, and walks the scalar decision path through the values.  The
    result is bisect_monotone's bit for bit, provided `lanes_fn` gives each
    argument of an array the value it gives that argument alone; a lane's
    error is raised only when that path reads the lane, so errors come in
    the scalar order.
    """
    def read(vals, errs, i):
        if errs[i] is not None:
            raise errs[i]
        return float(vals[i])

    a, b = float(lo), float(hi)
    done = 0
    first = True
    while first or (done < BISECT_MAX_ITER and not b - a <= tol):
        # Brackets of the tree below (a, b), breadth first: the children of
        # node j of a level are nodes 2j (left half) and 2j + 1 (right half).
        As, Bs = [np.array([a])], [np.array([b])]
        for _ in range(min(_TREE_LEVELS, BISECT_MAX_ITER - done) - 1):
            A, B = As[-1], Bs[-1]
            if not np.any(B - A > tol):
                break
            M = 0.5 * (A + B)
            As.append(np.column_stack([A, M]).ravel())
            Bs.append(np.column_stack([M, B]).ravel())
        A, B = np.concatenate(As), np.concatenate(Bs)
        mids = 0.5 * (A + B)
        wide = B - A > tol
        args = mids[wide]
        if first:
            args = np.concatenate([[a, b], args])
        got, got_errs = lanes_fn(args)
        if first:
            flo, fhi = read(got, got_errs, 0), read(got, got_errs, 1)
            if flo == target:
                return float(lo)
            if fhi == target:
                return float(hi)
            increasing = fhi > flo
            vmin, vmax = (flo, fhi) if increasing else (fhi, flo)
            if not (vmin <= target <= vmax):
                raise _range_error(target, vmin, vmax)
            got, got_errs = got[2:], got_errs[2:]
            first = False
        vals = np.full(mids.size, np.nan)
        errs = np.full(mids.size, None, dtype=object)
        vals[wide], errs[wide] = got, got_errs
        j = 0  # the path's node within its level; level l starts at 2**l - 1
        for level in range(len(As)):
            if done >= BISECT_MAX_ITER or b - a <= tol:
                break
            node = 2 ** level - 1 + j
            m = float(mids[node])
            fm = read(vals, errs, node)
            if fm != fm:
                raise _nan_error(m)
            done += 1
            up = (fm < target) == increasing
            if up:
                a = m
            else:
                b = m
            j = 2 * j + int(up)
    return 0.5 * (a + b)


def bisect_monotone_vec(fn, lo, hi, targets, tol: float = BISECT_TOL):
    """Vectorized bisection: solve fn(x)[i] = targets[i] elementwise.

    `fn` maps an argument array to a value array of the same shape; `lo` and
    `hi` broadcast against `targets`.  Returns (solutions, ok) where lanes
    with unbracketed targets carry ok=False (their solution is meaningless).
    Arguments stay inside [lo, hi] for every lane, so `fn` is never called
    out of bracket.  Raises LawError when `fn` returns NaN at a midpoint of
    a bracketed lane.
    """
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
    iters = min(iters, BISECT_MAX_ITER)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = np.asarray(fn(m), dtype=float)
        nan = np.isnan(fm) & ok
        if np.any(nan):
            raise _nan_error(float(m[nan][0]))
        go_up = (fm < targets) == inc
        a = np.where(go_up, m, a)
        b = np.where(go_up, b, m)
    return 0.5 * (a + b), ok


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


def invert_in_first(code: BivariateCode, p: float, t: float,
                    tol: float = BISECT_TOL) -> float:
    """Solve code(w, t) = p for w in J.  Raises RangeExceeded when p is not
    attained by code(., t) on J."""
    J = code.J
    w = bisect_monotone(lambda x: code(x, t), J.lo, J.hi, float(p), tol=tol)
    _post_check(code, float(code(w, t)), float(p), "invert_in_first")
    return float(w)


def _invert_first_lanes(code: BivariateCode, targets, t):
    """invert_in_first lane by lane: solve code(w[i], t[i]) = targets[i].

    `t` is one modifier for every lane or one per lane.  Each lane takes the
    scalar steps (bracket J, the endpoint shortcut, a stop once
    b - a <= BISECT_TOL, at most BISECT_MAX_ITER halvings, the post-check),
    so its w is the scalar answer bit for bit provided the code evaluates
    an array elementwise as it evaluates each element alone, as every corpus
    code does.  Returns (w, errors): where the scalar call would raise,
    errors[i] holds that exception (None elsewhere) and w[i] is NaN.
    """
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    w = np.full(n, np.nan)
    errors = np.full(n, None, dtype=object)
    if n == 0:
        return w, errors
    J = code.J
    flo = np.broadcast_to(np.asarray(code(J.lo, t), dtype=float), (n,))
    fhi = np.broadcast_to(np.asarray(code(J.hi, t), dtype=float), (n,))
    at_lo = flo == targets
    at_hi = ~at_lo & (fhi == targets)
    w[at_lo], w[at_hi] = J.lo, J.hi
    inc = fhi > flo
    vmin, vmax = np.where(inc, flo, fhi), np.where(inc, fhi, flo)
    inside = (vmin <= targets) & (targets <= vmax)
    for i in np.flatnonzero(~(at_lo | at_hi | inside)):
        errors[i] = _range_error(float(targets[i]), float(vmin[i]), float(vmax[i]))

    # Every lane is evaluated each round (a stopped lane's midpoint stays in
    # J), which is cheaper than gathering the live ones; only live lanes move.
    solving = ~(at_lo | at_hi) & inside
    live = solving.copy()
    a, b = np.full(n, J.lo), np.full(n, J.hi)
    for _ in range(BISECT_MAX_ITER):
        live &= b - a > BISECT_TOL
        if not np.count_nonzero(live):
            break
        m = 0.5 * (a + b)
        fm = np.asarray(code(m, t), dtype=float)
        if np.count_nonzero(np.isnan(fm)):
            for i in np.flatnonzero(np.isnan(fm) & live):
                errors[i] = _nan_error(float(m[i]))
                live[i] = solving[i] = False
        up = np.less(fm, targets)
        np.equal(up, inc, out=up)
        up &= live
        np.copyto(a, m, where=up)
        np.copyto(b, m, where=live ^ up)
    w[solving] = 0.5 * (a[solving] + b[solving])

    found = np.flatnonzero(~np.isnan(w))
    tt = t if np.ndim(t) == 0 else t[found]
    vals = np.asarray(code(w[found], tt), dtype=float)
    tg = targets[found]
    for k in np.flatnonzero(np.abs(vals - tg) > _POST_REL * np.maximum(1.0, np.abs(tg))):
        errors[found[k]] = _post_error(float(vals[k]), float(tg[k]), "invert_in_first")
        w[found[k]] = np.nan
    return w, errors


def invert_in_second(code: BivariateCode, x0: float, p: float,
                     tol: float = BISECT_TOL) -> float:
    """Solve code(x0, v) = p for v in J'.  Raises RangeExceeded when p is not
    attained by code(x0, .) on J'."""
    J2 = code.J2
    v = bisect_monotone(lambda r: code(x0, r), J2.lo, J2.hi, float(p), tol=tol)
    _post_check(code, float(code(x0, v)), float(p), "invert_in_second")
    return float(v)
