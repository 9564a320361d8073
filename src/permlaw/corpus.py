"""Built-in example laws, synthetic codes, and tabulated-grid codes.

The closed-form corpus:

    lorentz      L(l, v) = l * sqrt(1 - (v/c)^2)       decreasing in v
    beer         I(x, y) = x * exp(-y/c)               decreasing in y
    cylinder     C(l, r) = l * pi * r^2                increasing in r
    pythagoras   P(x, y) = sqrt(x^2 + y^2)             increasing, symmetric
    vanderwaals  T(p, v) = K * (p + a/v^2) * (v - b)   increasing on default box

The first four admit an additive representation f^{-1}(f(y) + g(r)); the van
der Waals law does not (it fails the permutability check).  Synthetic codes
are assembled directly from tabulated f and g as f^{-1}(f(y) + g(r)), so
they are permutable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .lawcore import (
    DECREASING,
    INCREASING,
    BivariateCode,
    Interval,
    InvalidParams,
    LawError,
    MonotoneFunction,
    NonMonotoneKnots,
)

__all__ = [
    "LAW_NAMES",
    "LawSpec",
    "AnalyticReference",
    "NoAnalyticForm",
    "MalformedGrid",
    "NonMonotoneGrid",
    "make_law",
    "analytic_reference",
    "make_synthetic",
    "load_grid",
    "write_grid_csv",
]

LAW_NAMES = ("lorentz", "beer", "cylinder", "pythagoras", "vanderwaals", "synthetic")


class NoAnalyticForm(LawError):
    """The law has no closed-form additive representation on record."""


class MalformedGrid(LawError, ValueError):
    """A grid CSV could not be parsed into a rectangular value table."""


class NonMonotoneGrid(LawError, ValueError):
    """Grid coordinates or values violate the required monotonicity."""


_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "lorentz": {"c": 1.0},
    "beer": {"c": 1.0},
    "cylinder": {},
    "pythagoras": {},
    "vanderwaals": {"a": 3.0, "b": 0.5, "K": 1.0},
}


def _default_domain(name: str, params: Mapping[str, float]) -> tuple[Interval, Interval]:
    if name == "lorentz":
        c = params["c"]
        return Interval(0.1, 10.0), Interval(0.0, 0.95 * c)
    if name == "beer":
        c = params["c"]
        return Interval(0.1, 10.0), Interval(0.0, 5.0 * c)
    if name == "cylinder":
        return Interval(0.1, 10.0), Interval(0.1, 3.0)
    if name == "pythagoras":
        return Interval(0.5, 10.0), Interval(0.5, 10.0)
    if name == "vanderwaals":
        return Interval(0.5, 5.0), Interval(1.0, 3.0)
    raise InvalidParams(f"no default domain for law {name!r}")


@dataclass(frozen=True)
class LawSpec:
    """Name + parameters + optional domain override for a corpus law."""

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    domain: tuple[Interval, Interval] | None = None

    def __post_init__(self) -> None:
        if self.name not in LAW_NAMES:
            raise InvalidParams(
                f"unknown law {self.name!r}; known: {', '.join(LAW_NAMES)}"
            )

    def resolved_params(self) -> dict[str, object]:
        base: dict[str, object] = dict(_DEFAULT_PARAMS.get(self.name, {}))
        base.update(self.params)
        return base

    def to_json_dict(self) -> dict:
        dom = None
        if self.domain is not None:
            J, J2 = self.domain
            dom = {"J": [J.lo, J.hi], "Jp": [J2.lo, J2.hi]}
        params = {
            k: (list(np.asarray(v, dtype=float))
                if isinstance(v, (list, tuple, np.ndarray)) else v)
            for k, v in self.params.items()
        }
        return {"name": self.name, "params": params, "domain": dom}


def _require_positive(params: Mapping[str, object], keys: tuple[str, ...], law: str) -> None:
    for k in keys:
        v = params.get(k)
        if not isinstance(v, (int, float)) or not v > 0:
            raise InvalidParams(f"{law} needs {k} > 0, got {v!r}")


def make_law(spec: LawSpec) -> BivariateCode:
    """Build the BivariateCode for a LawSpec (closed form or synthetic);
    a parameter the law lacks is InvalidParams."""
    # a synthetic law's parameters are its knot lists, with no defaults
    known = tuple(_DEFAULT_PARAMS.get(spec.name, ("f_xs", "f_ys", "g_xs", "g_ys")))
    unknown = sorted(set(map(str, spec.params)) - set(known))
    if unknown:
        raise InvalidParams(f"{spec.name} has no parameter {', '.join(unknown)}; "
                            f"known: {', '.join(known) or 'none'}")
    params = spec.resolved_params()
    if spec.name == "synthetic":
        return _synthetic_from_params(params, spec.domain)

    # Scale parameters before domains: the default domains are built from
    # them, and a bad parameter should fail as a parameter.
    positive = {"lorentz": ("c",), "beer": ("c",), "vanderwaals": ("a", "b", "K")}
    if spec.name in positive:
        _require_positive(params, positive[spec.name], spec.name)

    domain = spec.domain or _default_domain(spec.name, params)
    J, J2 = domain
    J.require_nonnegative()

    if spec.name == "lorentz":
        c = float(params["c"])
        if J.lo <= 0:
            raise InvalidParams("lorentz lengths must be positive")
        J2.require_nonnegative()
        if J2.hi >= c:
            raise InvalidParams(f"lorentz speeds must stay below c={c}")
        # np.square, not ** 2: on a numpy scalar ** 2 goes through libm pow,
        # which can differ by an ulp from the array path's x * x.
        fn = lambda y, v: y * np.sqrt(1.0 - np.square(v / c))
        dir2 = DECREASING
    elif spec.name == "beer":
        c = float(params["c"])
        if J.lo <= 0:
            raise InvalidParams("beer intensities must be positive")
        fn = lambda x, y: x * np.exp(-y / c)
        dir2 = DECREASING
    elif spec.name == "cylinder":
        if J.lo <= 0 or J2.lo <= 0:
            raise InvalidParams("cylinder lengths and radii must be positive")
        fn = lambda l, r: l * np.pi * r ** 2
        dir2 = INCREASING
    elif spec.name == "pythagoras":
        J2.require_nonnegative()
        fn = lambda x, y: np.sqrt(x ** 2 + y ** 2)
        dir2 = INCREASING
    elif spec.name == "vanderwaals":
        a, b, K = (float(params[k]) for k in ("a", "b", "K"))
        if J2.lo <= b:
            raise InvalidParams(f"vanderwaals volumes must stay above b={b}")
        fn = lambda p, v: K * (p + a / v ** 2) * (v - b)
        dir2 = INCREASING
    else:  # pragma: no cover
        raise InvalidParams(f"unknown law {spec.name!r}")

    return BivariateCode(
        fn=fn,
        domain=(J, J2),
        dir_second=dir2,
        name=spec.name,
    )


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form f and g with gauge xi = 1, theta = 0 for comparison."""

    f_closed: Callable
    g_closed: Callable


def analytic_reference(spec: LawSpec) -> AnalyticReference:
    params = spec.resolved_params()
    if spec.name == "lorentz":
        c = float(params["c"])
        return AnalyticReference(
            f_closed=np.log,
            g_closed=lambda v: np.log(np.sqrt(1.0 - (np.asarray(v, float) / c) ** 2)),
        )
    if spec.name == "beer":
        c = float(params["c"])
        return AnalyticReference(
            f_closed=np.log,
            g_closed=lambda y: -np.asarray(y, float) / c,
        )
    if spec.name == "cylinder":
        return AnalyticReference(
            f_closed=np.log,
            g_closed=lambda r: np.log(np.pi * np.asarray(r, float) ** 2),
        )
    if spec.name == "pythagoras":
        return AnalyticReference(
            f_closed=lambda x: np.asarray(x, float) ** 2,
            g_closed=lambda y: np.asarray(y, float) ** 2,
        )
    raise NoAnalyticForm(f"no closed-form representation on record for {spec.name!r}")


def _as_monotone(knots, what: str) -> MonotoneFunction:
    if isinstance(knots, MonotoneFunction):
        return knots
    try:
        xs, ys = knots
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NonMonotoneKnots(
            f"{what}: expected (xs, ys) of numbers or MonotoneFunction") from exc
    if xs.ndim != 1 or ys.ndim != 1:
        raise NonMonotoneKnots(f"{what}: knot arrays must be 1-d")
    if ys.size >= 2 and ys[-1] < ys[0]:
        return MonotoneFunction(xs, ys, DECREASING)
    return MonotoneFunction(xs, ys, INCREASING)


def make_synthetic(f_knots, g_knots,
                   domain: tuple[Interval, Interval] | None = None) -> BivariateCode:
    """Assemble G(y, r) = f^{-1}(f(y) + g(r)) from tabulated monotone
    functions, permutable by construction.

    f must be increasing; g may run either way (its direction becomes
    dir_second).  Sums that leave f's tabulated range are clamped to it.
    `domain` may restrict the code to a sub-rectangle of the tabulated
    spans.
    """
    f = _as_monotone(f_knots, "f_knots")
    g = _as_monotone(g_knots, "g_knots")
    if f.direction != INCREASING:
        raise NonMonotoneKnots("synthetic f must be increasing")

    J = f.domain
    J2 = g.domain
    if domain is not None:
        Jd, J2d = domain
        if Jd.lo < J.lo or Jd.hi > J.hi or J2d.lo < J2.lo or J2d.hi > J2.hi:
            raise InvalidParams("synthetic domain must lie inside the knot spans")
        J, J2 = Jd, J2d

    f_inv, frange = f.inverse(), f.value_range

    def fn(y, r):
        s = np.asarray(f(y) + g(r), dtype=float)
        return f_inv(np.clip(s, frange.lo, frange.hi))

    return BivariateCode(
        fn=fn,
        domain=(J, J2),
        dir_second=g.direction,
        name="synthetic",
        interpolated=True,
    )


def _synthetic_from_params(params: Mapping[str, object],
                           domain: tuple[Interval, Interval] | None) -> BivariateCode:
    try:
        f_knots = (params["f_xs"], params["f_ys"])
        g_knots = (params["g_xs"], params["g_ys"])
    except KeyError as exc:
        raise InvalidParams(f"synthetic law params need knot lists: missing {exc}") from exc
    return make_synthetic(f_knots, g_knots, domain)


# ---------------------------------------------------------------------------
# tabulated grids


def load_grid(path) -> BivariateCode:
    """Load a bilinear-interpolated code from CSV.

    Layout: blank top-left cell, first row holds the r coordinates, first
    column the y coordinates, cell (i, j) = G(y_i, r_j).  Coordinates must be
    strictly increasing; values must be strictly increasing down columns and
    strictly monotone (one consistent direction) along rows.
    """
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh) if any(c.strip() for c in r)]
    if len(rows) < 3 or len(rows[0]) < 3:
        raise MalformedGrid("grid needs at least 2 y rows and 2 r columns")
    if rows[0][0].strip() != "":
        raise MalformedGrid("top-left cell must be blank")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MalformedGrid("ragged rows")
    try:
        rs = np.array([float(c) for c in rows[0][1:]], dtype=float)
        ys = np.array([float(r[0]) for r in rows[1:]], dtype=float)
        V = np.array([[float(c) for c in r[1:]] for r in rows[1:]], dtype=float)
    except ValueError as exc:
        raise MalformedGrid(f"non-numeric cell: {exc}") from exc

    if not np.all(np.diff(ys) > 0):
        raise NonMonotoneGrid("y coordinates must be strictly increasing")
    if not np.all(np.diff(rs) > 0):
        raise NonMonotoneGrid("r coordinates must be strictly increasing")
    dcol = np.diff(V, axis=0)
    if not np.all(dcol > 0):
        raise NonMonotoneGrid("values must increase strictly down each column")
    drow = np.diff(V, axis=1)
    if np.all(drow > 0):
        dir2 = INCREASING
    elif np.all(drow < 0):
        dir2 = DECREASING
    else:
        raise NonMonotoneGrid("rows must be strictly monotone in one direction")

    J = Interval(float(ys[0]), float(ys[-1]))
    J2 = Interval(float(rs[0]), float(rs[-1]))

    def fn(y, r):
        from .lawcore import OutOfDomain

        y = np.asarray(y, dtype=float)
        r = np.asarray(r, dtype=float)
        sy = 1e-9 * max(1.0, J.width)
        sr = 1e-9 * max(1.0, J2.width)
        bad_y = np.ravel(y)[~np.ravel(J.contains(y, sy))]
        if bad_y.size:
            raise OutOfDomain(f"grid code: y={bad_y[0]!r} outside [{J.lo}, {J.hi}]")
        bad_r = np.ravel(r)[~np.ravel(J2.contains(r, sr))]
        if bad_r.size:
            raise OutOfDomain(f"grid code: r={bad_r[0]!r} outside [{J2.lo}, {J2.hi}]")
        y = np.clip(y, J.lo, J.hi)
        r = np.clip(r, J2.lo, J2.hi)
        yi = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, ys.size - 2)
        ri = np.clip(np.searchsorted(rs, r, side="right") - 1, 0, rs.size - 2)
        wy = (y - ys[yi]) / (ys[yi + 1] - ys[yi])
        wr = (r - rs[ri]) / (rs[ri + 1] - rs[ri])
        return ((1 - wy) * (1 - wr) * V[yi, ri]
                + wy * (1 - wr) * V[yi + 1, ri]
                + (1 - wy) * wr * V[yi, ri + 1]
                + wy * wr * V[yi + 1, ri + 1])

    return BivariateCode(
        fn=fn,
        domain=(J, J2),
        dir_second=dir2,
        name="grid",
        interpolated=True,
    )


def write_grid_csv(path, ys, rs, values) -> None:
    """Write the CSV layout accepted by load_grid."""
    ys = np.asarray(ys, dtype=float)
    rs = np.asarray(rs, dtype=float)
    V = np.asarray(values, dtype=float)
    if V.shape != (ys.size, rs.size):
        raise InvalidParams("values must have shape (len(ys), len(rs))")
    with open(path, "w", newline="") as fh:
        fh.write("," + ",".join(repr(float(r)) for r in rs) + "\n")
        for i, y in enumerate(ys):
            fh.write(repr(float(y)) + "," + ",".join(repr(float(v)) for v in V[i]) + "\n")
