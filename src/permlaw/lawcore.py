"""Domain types and numeric primitives for bivariate-law analysis.

A *code* is a bivariate function G strictly increasing in its first argument,
strictly monotone in its second, and continuous in both, mapping a rectangle
J x J' into a value interval H.  Everything downstream (axiom checks, the
additive-representation machinery, monotone fitting) rests on two primitives
kept here: piecewise-linear evaluation/inversion of tabulated strictly
monotone functions, and root finding that inverts a code in either
argument.  Roots come from Chandrupatla's method (Adv. Eng. Software 28(3),
1997), started from the cell of a 65-point table around the target: _root
finds one root in Python floats, and bisect_monotone_vec many in numpy, one
code call per step for all of them, each lane bit for bit as _root finds
it.  Each solve is a function of its inputs alone: a call builds its
tables from its own lanes and keeps nothing for the next.  A root lies
within the solve's tolerance of the plain bisection loop's
(bisect_monotone), not on its bits."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
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

# A solve halts when its bracket is this narrow (absolute, on the argument),
# or after this many steps past its table; bisect_monotone halves that often.
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200

# A solve first reads its function at this many points, the bracket's ends
# included, and starts from the table's cell around its target.
_TABLE_POINTS = 65

_UNIT = np.linspace(0.0, 1.0, _TABLE_POINTS)

# The lane solver runs this many lanes at a time, about 1 kB each.
_BLOCK_LANES = 1 << 10

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
        slack = 1e-9 * max(1.0, hi - lo)
        if isinstance(x, (float, np.floating)) or getattr(x, "ndim", None) == 0:
            # a scalar clips as an array does (NaN passes) without two
            # reductions and a 0-d clip, which made a scalar call 4-5x slower
            x = float(x)
            if x < lo - slack or x > hi + slack:
                raise OutOfDomain(f"{what} {x!r} outside [{lo}, {hi}]")
            return np.float64(min(max(x, lo), hi))
        x = np.asarray(x, dtype=float)
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            bad = x[(x < lo - slack) | (x > hi + slack)]
            raise OutOfDomain(
                f"{what} {float(np.ravel(bad)[0])!r} outside [{lo}, {hi}]"
            )
        return np.clip(x, lo, hi)

    def __call__(self, x):
        x = self._clip_args(x, float(self.xs[0]), float(self.xs[-1]), "argument")
        return np.interp(x, self.xs, self.ys)

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
            fh.write("x,value\n" + "".join(
                f"{x!r},{y!r}\n" for x, y in zip(self.xs.tolist(), self.ys.tolist())))

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


def _json_fields(report, check: str | None = None, skip=()) -> dict:
    """A report dataclass as report.json holds it: "check" if given, every
    field but `skip`, "passed" as "pass", tuples as lists, reports as dicts."""
    def plain(v):
        if hasattr(v, "to_json_dict"):
            return v.to_json_dict()
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        return dict(v) if isinstance(v, Mapping) else v

    out = {} if check is None else {"check": check}
    for f in fields(report):
        if f.name not in skip:
            out["pass" if f.name == "passed" else f.name] = plain(getattr(report, f.name))
    return out


# ---------------------------------------------------------------------------
# root finding


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
    returned argument is within `tol` of the true solution.  The package's
    own solvers (_root, bisect_monotone_vec) are tested against it.
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


def _table(lo: float, hi: float, tol: float):
    """The _TABLE_POINTS arguments a solve on [lo, hi] reads first, and its
    tolerance raised to a few float steps of the larger end, so that every
    step moves and a bracket of adjacent floats ends."""
    xs = lo + (hi - lo) * _UNIT
    xs[-1] = hi
    return xs, max(tol, 2.0 ** -50 * max(abs(lo), abs(hi)))


def _cell(below: list, above: list) -> tuple[int, int, int]:
    """The start of Chandrupatla's iteration in a table whose point i is
    readable and below the root (where bisect_monotone would make it the
    lower end) if below[i], readable and not below if above[i].  The
    bracket [a, b] is the cell around the root; a readable neighbour past
    one end, on its side, is the third point c, a the end beside it (c = a
    if none).  Returns the indices of a, b, c; a is below if before b."""
    hi = above.index(True)
    lo = hi - 1
    while not below[lo]:  # unreadable points in the cell
        lo -= 1
    if lo >= 1 and below[lo - 1]:
        return lo, hi, lo - 1
    if hi + 1 < len(above) and above[hi + 1]:
        return hi, lo, hi + 1
    return lo, hi, lo


def _cells(below: np.ndarray, above: np.ndarray):  # _cell for each row
    k, m = below.shape[1], np.arange(below.shape[0])
    hi = above.argmax(axis=1)
    lo = hi - 1
    for i in np.flatnonzero(~below[m, lo]):
        lo[i] = np.flatnonzero(below[i, :hi[i]])[-1]
    left = (lo >= 1) & below[m, np.maximum(lo - 1, 0)]
    right = ~left & (hi <= k - 2) & above[m, np.minimum(hi + 1, k - 1)]
    return (np.where(right, hi, lo), np.where(right, lo, hi),
            np.where(left, lo - 1, np.where(right, hi + 1, lo)))


def _iqi(a, b, c, da, db, dc):
    """Chandrupatla's step (Adv. Eng. Software 28(3), 1997, eq. 1): where,
    as a fraction of b - a from a, the inverse quadratic is 0."""
    return (da / (db - da) * dc / (db - dc)
            + (c - a) / (b - a) * da / (dc - da) * db / (dc - db))


def _root(fn, lo: float, hi: float, target: float, tol: float, table=None) -> float:
    """One root of fn(x) = target on [lo, hi], fn strictly monotone, by
    Chandrupatla's method in Python floats.

    `fn` maps an argument array to its values.  The bracket comes from
    `table` = (xs, values), by default fn's values at _table's points, by
    _cell; the table's NaN points are passed over.  Each step reads one
    point, kept tol / 2 inside the bracket: _iqi's where Chandrupatla's test
    on xi and phi trusts it, the midpoint where not.  Once the bracket is
    `tol` wide (as _table raises it), or after BISECT_MAX_ITER steps, the
    end nearer the target in value is the root: within `tol` of
    bisect_monotone's root run to the last bit, ties going its way.  Raises
    bisect_monotone's range error, and _nan_error where a step reads NaN.
    """
    xs, tol = _table(float(lo), float(hi), tol)
    xs, vals = (xs, fn(xs)) if table is None else table
    vals = np.asarray(vals, dtype=float)
    ok = ~np.isnan(vals)
    fa, fb = float(vals[0]), float(vals[-1])
    if fa == target:
        return float(xs[0])
    if fb == target:
        return float(xs[-1])
    inc = fb > fa
    vmin, vmax = (fa, fb) if inc else (fb, fa)
    if not (vmin <= target <= vmax):
        raise _range_error(target, vmin, vmax)
    side = (vals < target) == inc
    ia, ib, ic = _cell((side & ok).tolist(), (~side & ok).tolist())
    a, b, c = (float(xs[i]) for i in (ia, ib, ic))
    da, db, dc = (float(vals[i]) - target for i in (ia, ib, ic))
    below = ia < ib
    for _ in range(BISECT_MAX_ITER):
        if abs(b - a) <= tol:
            break
        xi = (a - b) / (c - b)
        phi = (da - db) / (dc - db)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = _iqi(a, b, c, da, db, dc)
        else:
            t = 0.5
        tl = 0.5 * tol / abs(b - a)
        t = (1.0 - tl if t > 1.0 - tl else t) if t > tl else tl
        m = a + t * (b - a)
        v = float(fn(np.array([m]))[0])
        if v != v:
            raise _nan_error(m)
        up = (v < target) == inc
        if up == below:
            c, dc = a, da
        else:
            c, dc, b, db = b, db, a, da
        a, da, below = m, v - target, up
    return a if abs(da) < abs(db) else b


def _cut(keep, *lanes):
    """Each array cut to the lanes kept; 0-d values stay."""
    return [v[keep] if v.ndim else v for v in lanes]


def _start(below):
    """_cells for rows that are monotone without NaN, where the points
    below the root are the first `below` of each row: the cell around the
    root, its third point the one before it, or after it at the first
    cell."""
    inner = below >= 2
    return (np.where(inner, below - 1, 1), np.where(inner, below, 0),
            np.where(inner, below - 2, 2))


def _first_cells(table, groups, p, inc):
    """The (a, b, c) indices each lane starts from in its row
    table[groups[i]], as _cells finds them for its target p[i] (inc[i]:
    the row rises).  If every row is monotone without NaN, a lane starts
    from the count of its row's points below its target: np.searchsorted's
    if all lanes share one row, a row sum if not.  Otherwise _cells."""
    steps = np.diff(table, axis=1)
    if ((steps >= 0).all(axis=1) | (steps <= 0).all(axis=1)).all():  # False on NaN
        if len(table) == 1:  # one row: every lane has its direction
            below = (np.searchsorted(table[0], p) if inc[0]
                     else np.searchsorted(-table[0], -p, side="right"))
        else:
            side = (table[groups] < p[:, None]) == inc[:, None]
            below = np.count_nonzero(side, axis=1)
        return np.array(_start(below))
    rows = table[groups]
    side = (rows < p[:, None]) == inc[:, None]
    ok = ~np.isnan(rows)
    return np.array(_cells(side & ok, ~side & ok))


def bisect_monotone_vec(fn, lo: float, hi: float, targets, tol: float = BISECT_TOL,
                        arg=None):
    """_root for many targets, every lane's step in one call: solve
    fn(x, arg)[i] = targets[i] for x[i] in [lo, hi], or fn(x)[i] if `arg`
    is None (the name is kept from the bisection this replaced).

    `arg` is one modifier for all lanes or one per lane, cut to the lanes
    still running.  The call builds its tables from its own lanes, in one
    fn call: a row per distinct modifier, modifiers told apart by their
    bits (0.0 and -0.0 get a row each).  The lanes run _BLOCK_LANES at a
    time and start from _first_cells' cells.  A lane's x is _root's bit for
    bit if fn evaluates an array elementwise as it evaluates each element
    alone.  Returns (x, errors): where _root raises (range, NaN), errors[i]
    holds that error and x[i] is NaN.
    """
    targets, lo, hi = np.asarray(targets, dtype=float), float(lo), float(hi)
    (xs, tol), n = _table(lo, hi, tol), targets.size
    if not n:  # no lanes: no table to build
        return np.full(0, np.nan), np.full(0, None, dtype=object)
    if arg is None:  # fn of x alone
        fn, arg = (lambda x, _, one=fn: one(x)), 0.0
    arg = np.asarray(arg, dtype=float)
    if arg.ndim:
        bits, groups = np.unique(np.broadcast_to(arg, (n,)).view(np.int64),
                                 return_inverse=True)
        table = np.asarray(fn(np.tile(xs, bits.size), np.repeat(bits.view(float), xs.size)),
                           dtype=float).reshape(bits.size, xs.size)
    else:
        groups = np.zeros(n, dtype=int)
        table = np.broadcast_to(np.asarray(fn(xs, arg), dtype=float), xs.shape)[None]
    # bisect_monotone's start: a target at an end's value lands there, one
    # the ends' values do not bracket is its range error
    flo, fhi = table[groups, 0], table[groups, -1]
    x, errors = np.full(n, np.nan), np.full(n, None, dtype=object)
    at_lo = flo == targets
    at_hi = ~at_lo & (fhi == targets)
    x[at_lo], x[at_hi] = lo, hi
    rising = fhi > flo
    vmin, vmax = np.where(rising, flo, fhi), np.where(rising, fhi, flo)
    inside = (vmin <= targets) & (targets <= vmax)
    for i in np.flatnonzero(~(at_lo | at_hi | inside)):
        errors[i] = _range_error(float(targets[i]), float(vmin[i]), float(vmax[i]))
    todo = np.flatnonzero(~(at_lo | at_hi) & inside)
    for blk in range(0, todo.size, _BLOCK_LANES):
        lane = todo[blk:blk + _BLOCK_LANES]
        p, inc, larg = _cut(lane, targets, rising, arg)
        cell = _first_cells(table, groups[lane], p, inc)
        a, b, c = xs[cell]
        da, db, dc = table[groups[lane], cell] - p
        below = cell[0] < cell[1]
        for _ in range(BISECT_MAX_ITER):
            w = b - a
            fin = abs(w) <= tol
            if np.count_nonzero(fin):  # ndarray.any costs 4x as much on few lanes
                x[lane[fin]] = np.where(abs(da[fin]) < abs(db[fin]), a[fin], b[fin])
                lane, p, inc, a, b, c, da, db, dc, below, w, larg = _cut(
                    ~fin, lane, p, inc, a, b, c, da, db, dc, below, w, larg)
                if not lane.size:
                    break
            with np.errstate(all="ignore"):
                xi = (a - b) / (c - b)
                phi = (da - db) / (dc - db)
                q = 1.0 - phi
                t = np.where((phi * phi < xi) & (q * q < 1.0 - xi),
                             _iqi(a, b, c, da, db, dc), 0.5)
            tl = 0.5 * tol / abs(w)
            # _root's clip of t to [tl, 1 - tl], where a NaN t reads tl
            m = a + np.fmin(np.fmax(t, tl), 1.0 - tl) * w
            v = np.asarray(fn(m, larg), dtype=float)
            nan = np.isnan(v)
            if np.count_nonzero(nan):
                for i in np.flatnonzero(nan):
                    errors[lane[i]] = _nan_error(float(m[i]))
                lane, p, inc, a, b, c, da, db, dc, below, m, v, larg = _cut(
                    ~nan, lane, p, inc, a, b, c, da, db, dc, below, m, v, larg)
            up = (v < p) == inc
            same = up == below
            c, dc = np.where(same, a, b), np.where(same, da, db)
            b, db = np.where(same, b, a), np.where(same, db, da)
            a, da, below = m, v - p, up
        x[lane] = np.where(abs(da) < abs(db), a, b)
    return x, errors


def _post_error(value: float, target: float, what: str) -> LawError | None:
    if abs(value - target) > _POST_REL * max(1.0, abs(target)):
        return LawError(
            f"{what}: solution re-evaluates to {value!r}, expected {target!r}"
        )
    return None


def _checked_lanes(fn, J: Interval, targets, arg, tol, what: str):
    """fn(x[i], arg[i]) = targets[i] for x[i] on J by bisect_monotone_vec,
    then _solve's post-check on every lane found; `arg` is one value or
    one per lane.  Returns (x, errors) as bisect_monotone_vec does, with a
    lane that fails the post-check holding its LawError and NaN."""
    targets, arg = np.asarray(targets, dtype=float), np.asarray(arg, dtype=float)
    x, errors = bisect_monotone_vec(fn, J.lo, J.hi, targets, tol, arg)
    found = np.flatnonzero(~np.isnan(x))
    if not found.size:
        return x, errors
    vals = np.asarray(fn(x[found], arg[found] if arg.ndim else arg), dtype=float)
    tg = targets[found]
    for k in np.flatnonzero(np.abs(vals - tg) > _POST_REL * np.maximum(1.0, np.abs(tg))):
        errors[found[k]] = _post_error(float(vals[k]), float(tg[k]), what)
        x[found[k]] = np.nan
    return x, errors


def _invert_first_lanes(code: BivariateCode, targets, t, tol: float = BISECT_TOL):
    """invert_in_first lane by lane: solve code(w[i], t[i]) = targets[i] for
    w[i] on J, with the post-check; `t` is one modifier or one per lane.
    Bit for bit invert_in_first's root if the code evaluates an array
    elementwise.  Returns (w, errors): where invert_in_first would raise,
    errors[i] holds that exception (None elsewhere), w[i] is NaN.
    """
    return _checked_lanes(code, code.J, targets, t, tol, "invert_in_first")


def _invert_second_lanes(code: BivariateCode, x, targets, tol: float = BISECT_TOL):
    """invert_in_second lane by lane: solve code(x[i], v[i]) = targets[i]
    for v[i] on J', `x` one argument or one per lane; as
    _invert_first_lanes otherwise."""
    return _checked_lanes(lambda v, x: code(x, v), code.J2, targets, x, tol,
                          "invert_in_second")


def _solve(fn, J: Interval, p: float, tol: float, what: str) -> float:
    """fn(x) = p for x in J by _root, post-checked: raises _root's error, or
    the LawError of a solution that does not re-evaluate to p."""
    x = _root(fn, J.lo, J.hi, float(p), tol)
    err = _post_error(float(fn(x)), float(p), what)
    if err:
        raise err
    return x


def invert_in_first(code: BivariateCode, p: float, t: float,
                    tol: float = BISECT_TOL) -> float:
    """Solve code(w, t) = p for w in J within `tol` (_root);
    RangeExceeded when code(., t) does not attain p on J."""
    return _solve(lambda x: code(x, t), code.J, p, tol, "invert_in_first")


def invert_in_second(code: BivariateCode, x0: float, p: float,
                     tol: float = BISECT_TOL) -> float:
    """Solve code(x0, v) = p for v in J' within `tol` (_root);
    RangeExceeded when code(x0, .) does not attain p on J'."""
    return _solve(lambda r: code(x0, r), code.J2, p, tol, "invert_in_second")
