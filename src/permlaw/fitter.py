"""Fitting an additive representation directly, and affine alignment.

The constructive route builds f knot by knot; this module goes the other
way.  With the knots of f and g fixed, f(G(y, r)) = f(y) + g(r) is linear
in the knot values, so the fit is a least-squares solve of that equation
on a grid of samples (_linear_seed), reweighted so that its residual reads
as the relative residual in G.  The model is the solved outer function's
inverse, read through its flipped table, applied to f(y) + g(r): the outer
function is f in the permutable form, and in the quasi-permutable form a
third monotone function n, whose inverse is m.  Every solved table is made
strictly monotone (_ensure_strict), so every fit is a valid representation.

What is left to choose is the knots.  Given a count of f knots, a fit
solves on a few candidate knot tables and keeps the lowest loss: among
them, knots that equidistribute |f''|^(1/2) or |f''|^(1/3) of an earlier
solve (de Boor, "A Practical Guide to Splines", 1978, ch. XII).  The fit
is deterministic; the randomness budget of the seed is spent exclusively
on subsampling oversized grids.

affine_align and check_gauge_uniqueness cover the uniqueness side: any two
additive representations of the same code can only differ by f -> xi*f +
theta, g -> xi*g with xi > 0, so representations from different anchors,
or from the two construction routes, must align affinely to within the
numerical budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import _grid_sizes
from .holder import construct_f, construct_g, make_structure
from .lawcore import (
    DECREASING,
    INCREASING,
    AdditiveRepresentation,
    AffineMap,
    BivariateCode,
    Gauge,
    Interval,
    InvalidInterval,
    InvalidParams,
    LawError,
    MonotoneFunction,
    _json_fields,
)

__all__ = [
    "NonConvergence",
    "DegenerateFit",
    "FitResult",
    "PairAlignment",
    "GaugeReport",
    "fit_additive",
    "affine_align",
    "check_gauge_uniqueness",
]


class NonConvergence(LawError):
    """The fit stopped above the requested loss target.

    The partial result (representation, loss curve) is attached as
    .result so callers can inspect how far the fit got.
    """

    def __init__(self, msg: str, result: "FitResult"):
        super().__init__(msg)
        self.result = result


class DegenerateFit(LawError):
    """Alignment target is constant on the samples; no slope is defined."""


@dataclass(frozen=True)
class FitResult:
    representation: AdditiveRepresentation
    loss: float
    loss_curve: tuple[float, ...]
    n_iters: int
    converged: bool

    def to_json_dict(self) -> dict:
        return _json_fields(self, "fit", skip=("representation", "loss_curve"))


def _knot_grid(knots, interval) -> np.ndarray:
    if np.isscalar(knots):
        n = int(knots)
        if n < 2:
            raise InvalidParams("need at least 2 knots")
        return np.linspace(interval.lo, interval.hi, n)
    arr = np.asarray(knots, dtype=float)
    if arr.size < 2 or np.any(np.diff(arr) <= 0):
        raise InvalidParams("explicit knots must be sorted and distinct")
    return arr


def _pl_eval(x, xs, ys):
    """Piecewise-linear evaluation of the array x with linear end extension.

    The extension keeps the model strictly monotone outside the knot span,
    so a sum past the outer table's end still reads back a distinct value;
    np.interp alone clamps to the end values.  Each end's slope is computed
    only when some x lies past that end.
    """
    y = np.interp(x, xs, ys)
    below = x < xs[0]
    if below.any():
        lo_s = (ys[1] - ys[0]) / (xs[1] - xs[0])
        y[below] = ys[0] + (x[below] - xs[0]) * lo_s
    above = x > xs[-1]
    if above.any():
        hi_s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        y[above] = ys[-1] + (x[above] - xs[-1]) * hi_s
    return y


def _segments(x, xs):
    """Segment j and offset t of each x in the knot table xs, so that
    _pl_eval(x, xs, ys) = (1 - t) * ys[j] + t * ys[j + 1].

    j is picked as np.interp picks it; past either end it is the end
    segment and t runs below 0 or above 1, which is the linear extension.
    """
    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    return j, (x - xs[j]) / (xs[j + 1] - xs[j])


def _predict(ys, rs, f, g, outer):
    """The model outer^-1(f(y) + g(r)) at the samples.

    f, g and outer are (knots, values) tables; the outer function's inverse
    is read through its flipped table.
    """
    sums = _pl_eval(ys, *f) + _pl_eval(rs, *g)
    return _pl_eval(sums, outer[1], outer[0])


def _loss(pred, truth) -> float:
    # mean squared relative residual, relative to max(1, |G|, |pred|)
    r = (pred - truth) / np.maximum(np.maximum(1.0, np.abs(truth)), np.abs(pred))
    return float(r @ r) / r.size


def _ensure_strict(values: np.ndarray, direction: float) -> np.ndarray:
    # A solve can leave flat or reversed runs where the samples say little;
    # tilt them so the table is strictly monotone.
    vals = values.copy()
    span = max(float(np.abs(np.diff(vals)).max()), 1e-3)
    eps = 1e-4 * span
    for i in range(1, vals.size):
        floor = vals[i - 1] + direction * eps
        if direction * (vals[i] - floor) < 0:
            vals[i] = floor
    return vals


def _quantiles(values, n: int) -> np.ndarray:
    # np.quantile's default rule, without its import of numpy.ma (as
    # np.unique's), which would grow a fitting process's memory.
    v = np.sort(values)
    return np.interp(np.linspace(0.0, v.size - 1.0, n), np.arange(v.size), v)


def _equidistributed(xs, ys, power: float) -> np.ndarray:
    """As many knots as xs over [xs[0], xs[-1]] with equal shares of the
    integral of |f''|^power, f the piecewise-linear table (xs, ys).

    f'' is read per segment as the mean of the second divided differences
    at its two ends, the end segments taking their one interior neighbour.
    For linear interpolation power 1/2 balances the segments' maximum
    errors (de Boor 1978, ch. XII); 1/3 spreads the knots more evenly.
    Where f is linear no knot is placed; a linear f gives tied knots.  A
    table of 2 knots has no f'' and comes back as it is.
    """
    if xs.size < 3:
        return xs
    slopes = np.diff(ys) / np.diff(xs)
    d2 = np.abs(np.diff(slopes)) / (0.5 * (xs[2:] - xs[:-2]))
    d2 = np.concatenate(([d2[0]], d2, [d2[-1]]))
    density = (0.5 * (d2[:-1] + d2[1:])) ** power
    mass = np.concatenate(([0.0], np.cumsum(density * np.diff(xs))))
    return np.interp(np.linspace(0.0, mass[-1], xs.size), mass, xs)


def _linear_seed(ys, rs, truth, tables, dirs, gauge, passes: int,
                 target: float | None = None):
    """Knot values on the tables of f, g (and n = m^-1) that solve
    f(G(y, r)) = f(y) + g(r) (or n(G(y, r)) = f(y) + g(r)) in least squares.

    With the knots fixed the equation is linear in the knot values: each
    sample is one row of at most 6 nonzeros, the interpolation weights at
    G minus those at y and at r.  gauge lists (table, x, value) rows, joined
    to the normal equations by one KKT solve.  A knot that no sample
    touches is filled by a second-difference penalty of 1e-10 times the
    normal matrix's mean diagonal.  Each solved table is made strictly
    monotone in its direction of dirs, and scored by _loss of _predict.

    The first solve weighs a row by 1 / max(1, |G|); up to `passes` more
    each weigh it by 1 / (|slope at G| * max(1, |G|)), with the outer
    function's slope from the pass before, so that the residual reads as
    the relative residual in G that the loss reads.  Passes stop at the
    first that does not lower the loss, or at one that reaches target.
    Returns the values of the pass with the lowest loss and the losses of
    every pass run.
    """
    edges = np.cumsum([0] + [t.size for t in tables])
    size = int(edges[-1])
    outer = 2 if len(tables) == 3 else 0

    def weights(k, x):
        j, t = _segments(np.asarray(x, dtype=float), tables[k])
        return edges[k] + np.stack([j, j + 1], axis=1), np.stack([1.0 - t, t], axis=1)

    cols_at, w_at = weights(outer, truth)
    cols_y, w_y = weights(0, ys)
    cols_r, w_r = weights(1, rs)
    cols = np.concatenate([cols_at, cols_y, cols_r], axis=1)
    vals = np.concatenate([w_at, -w_y, -w_r], axis=1)
    # The normal matrix from each row's nonzeros: one bincount over the
    # flat index of every pair of a row's columns.
    pairs = (cols[:, :, None] * size + cols[:, None, :]).ravel()
    products = (vals[:, :, None] * vals[:, None, :]).reshape(truth.size, -1)

    kkt = np.zeros((size + len(gauge), size + len(gauge)))
    rhs = np.zeros(size + len(gauge))
    for i, (k, x, value) in enumerate(gauge):
        c, w = weights(k, [x])
        kkt[size + i, c[0]] = w[0]
        kkt[c[0], size + i] = w[0]
        rhs[size + i] = value
    penalty = np.zeros((size, size))
    for lo, hi in zip(edges[:-1], edges[1:]):
        d2 = np.diff(np.eye(hi - lo), 2, axis=0)
        penalty[lo:hi, lo:hi] = d2.T @ d2

    slope = np.ones(truth.size)
    scale = np.maximum(1.0, np.abs(truth))
    losses = []
    for _ in range(passes + 1):
        w2 = 1.0 / (slope * scale) ** 2
        h = np.bincount(pairs, weights=(products * w2[:, None]).ravel(),
                        minlength=size * size).reshape(size, size)
        kkt[:size, :size] = h + (1e-10 * np.trace(h) / size) * penalty
        sol = np.linalg.solve(kkt, rhs)
        solved = [_ensure_strict(sol[lo:hi], d)
                  for lo, hi, d in zip(edges[:-1], edges[1:], dirs)]
        loss = _loss(_predict(ys, rs, (tables[0], solved[0]), (tables[1], solved[1]),
                              (tables[outer], solved[outer])), truth)
        losses.append(loss)
        if len(losses) > 1 and loss >= losses[-2]:
            break
        best = solved
        if target is not None and loss <= target:
            break
        slope = np.diff(solved[outer]) / np.diff(tables[outer])
        slope = slope[cols_at[:, 0] - edges[outer]]
    return best, losses


# Timed as the fit's init in the per-layer trace; the alias goes with the
# next change to the benchmark harness.
_constructive_init = _linear_seed


def fit_additive(code: BivariateCode, grid=21, knots_f=16, knots_g=16,
                 knots_m=None, quasi: bool = False, max_iters: int = 500,
                 seed: int = 0, loss_target: float | None = None,
                 x0: float | None = None, max_points: int = 400) -> FitResult:
    """Fit m(f(y)+g(r)) to the code by linear least squares on knot tables.

    quasi=False ties m to f^-1 (the permutable form); quasi=True fits m as
    a third monotone function, the inverse of a solved n with n(G(y, r)) =
    f(y) + g(r) (the quasi-permutable form): m's knots are n's values at
    quantiles of the realized values, as many as knots_m (default: f's
    count, at least 8; an array counts by its length).  Knot arguments of
    f and g accept a count (uniform knots) or explicit sorted arrays.  The
    gauge of the solves is f(x0) = 0 and g = +-1 at the J' end where
    G(x0, .) moves most, or in the quasi form f(x0) = 0, f = 1 at f's top
    knot and g = 0 at J''s midpoint.

    Each knot table tried is solved by _linear_seed, with up to max_iters
    reweighted passes after its first (0 runs the first alone; a negative
    count is InvalidParams), and the fit keeps the table and pass
    of lowest loss.  Explicit f knots are the only table.  Given a count
    of f knots, the permutable form tries f's knots uniform over its span
    (J joined with the realized values), at quantiles of J's 64-point grid
    joined with the realized values, and at the quantile solve's
    equidistribution of |f''|^(1/2) and of |f''|^(1/3); the quasi form
    tries uniform f knots over J with quantile n knots, then both f and n
    equidistributed by |.''|^(1/2) from that solve.  n_iters counts the
    reweighted passes run over all tables.

    The loss is the mean squared relative residual over the grid; the loss
    curve records each solve that lowered the best loss so far, so it
    strictly decreases and ends at the fit's loss.  The fit stops trying
    once the loss reaches loss_target.  The gauge is normalized after the
    fit: f(x0) = 0 and |g| = 1 at the J' endpoint where |g| is largest; an
    anchor x0 outside J is InvalidParams.

    If loss_target is given and the final loss stays above it,
    NonConvergence is raised with the partial result attached.
    """
    if max_iters < 0:
        raise InvalidParams(f"max_iters must be >= 0, got {max_iters}")
    ny, nr = _grid_sizes(grid, 2)
    if ny < 10 or nr < 10:
        raise InvalidParams("fit grid must be at least 10x10")
    J, J2 = code.J, code.J2
    x0 = J.midpoint if x0 is None else float(x0)
    if not J.contains(x0):
        raise InvalidParams(f"anchor {x0!r} outside [{J.lo}, {J.hi}]")

    ygrid = J.grid(ny)
    rgrid = J2.grid(nr)
    Y, R = np.meshgrid(ygrid, rgrid, indexing="ij")
    ys_flat = Y.ravel()
    rs_flat = R.ravel()
    truth = np.asarray(code(ys_flat, rs_flat), dtype=float)
    if ys_flat.size > max_points:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(ys_flat.size, size=max_points, replace=False))
        ys_flat, rs_flat, truth = ys_flat[pick], rs_flat[pick], truth[pick]

    g_dir = 1.0 if code.dir_second == INCREASING else -1.0
    dirs = (1.0, g_dir, 1.0)
    gx = _knot_grid(knots_g, J2)
    counted = np.isscalar(knots_f)
    curve = []
    best = None
    iters = 0

    def solve(tables, gauge):
        # One knot table tried; None once the target is met or when two
        # knots tie.
        nonlocal best, iters
        if best is not None and loss_target is not None and best[0] <= loss_target:
            return None
        if any(np.any(np.diff(t) <= 0) for t in tables):
            return None
        solved, losses = _linear_seed(ys_flat, rs_flat, truth, tables, dirs,
                                      gauge, max_iters, loss_target)
        iters += len(losses) - 1
        for loss in losses:
            if not curve or loss < curve[-1]:
                curve.append(loss)
        if best is None or curve[-1] < best[0]:
            best = (curve[-1], list(zip(tables, solved)))
        return solved

    if quasi:
        fx = _knot_grid(knots_f, J)
        nm = max(fx.size, 8) if knots_m is None else knots_m
        # n = m^-1 is read at G: its knots are quantiles of the realized
        # values, as many as m's.
        nx = _quantiles(truth, int(nm) if np.isscalar(nm) else len(nm))
        nx = nx[np.diff(nx, prepend=-np.inf) > 0]
        gauge = [(0, x0, 0.0), (0, fx[-1], 1.0), (1, J2.midpoint, 0.0)]
        first = solve([fx, gx, nx], gauge)
        if counted and first is not None:
            solve([_equidistributed(fx, first[0], 1 / 2), gx,
                   _equidistributed(nx, first[2], 1 / 2)], gauge)
    else:
        ends = np.array([J2.lo, J2.hi])
        moves = np.asarray(code(np.full(2, x0), ends), dtype=float) - x0
        end = int(np.argmax(np.abs(moves)))
        gauge = [(0, x0, 0.0), (1, ends[end], float(np.sign(moves[end])))]
        # With m tied to f^-1 the sums are read back through f's flipped
        # table, so f's knots must span the code's realized values, not
        # just J.
        span = Interval(min(J.lo, float(truth.min())), max(J.hi, float(truth.max())))
        solve([_knot_grid(knots_f, span), gx], gauge)
        if counted:
            qx = _quantiles(np.concatenate([J.grid(64), truth]), int(knots_f))
            on_quantiles = solve([qx, gx], gauge)
            if on_quantiles is not None:
                for power in (1 / 2, 1 / 3):
                    solve([_equidistributed(qx, on_quantiles[0], power), gx], gauge)

    loss, tables = best
    rep = _normalized(tables, x0, g_dir)
    converged = loss_target is None or loss <= loss_target
    result = FitResult(representation=rep, loss=loss,
                       loss_curve=tuple(curve), n_iters=iters,
                       converged=bool(converged))
    if not converged:
        raise NonConvergence(
            f"loss {loss:.3e} above target {loss_target:.3e} "
            f"after {iters} iterations", result)
    return result


def _normalized(tables, x0: float, g_dir: float) -> AdditiveRepresentation:
    # Gauge: f(x0) = 0, |g| = 1 at the J' endpoint of largest magnitude.
    (fx, fv), (gx, gv) = tables[:2]
    theta = float(np.interp(x0, fx, fv))
    g_end = float(gv[0] if abs(gv[0]) >= abs(gv[-1]) else gv[-1])
    k = 1.0 / abs(g_end) if abs(g_end) > 1e-12 else 1.0
    f_new = MonotoneFunction(fx, (fv - theta) * k, INCREASING)
    g_new = MonotoneFunction(gx, gv * k, INCREASING if g_dir > 0 else DECREASING)
    m_new = None
    if len(tables) == 3:
        # m = n^-1: n's table flipped, with the sums in the new gauge
        nx, nv = tables[2]
        m_new = MonotoneFunction((nv - theta) * k, nx, INCREASING)
    unit = 1.0 if g_end > 0 else -1.0
    return AdditiveRepresentation(f=f_new, g=g_new, gauge=Gauge(x0=float(x0), unit=unit),
                                  m=m_new)


def affine_align(f1: MonotoneFunction, f2: MonotoneFunction,
                 sample_xs) -> tuple[AffineMap, float]:
    """Least-squares xi, theta with f2 ~ xi*f1 + theta, xi > 0 enforced.

    The returned error is the max absolute deviation on the samples; a
    large value means the two functions are not affinely related, which is
    the caller's signal, not an exception.
    """
    xs = np.asarray(sample_xs, dtype=float)
    y1 = np.asarray(f1(xs), dtype=float)
    y2 = np.asarray(f2(xs), dtype=float)
    var = float(np.var(y1))
    if var <= 1e-24 * max(1.0, float(np.abs(y1).max()) ** 2):
        raise DegenerateFit("first function is constant on the samples")
    xi = float(np.cov(y1, y2, bias=True)[0, 1] / var)
    xi = max(xi, 1e-12)
    theta = float(np.mean(y2) - xi * np.mean(y1))
    err = float(np.abs(xi * y1 + theta - y2).max())
    return AffineMap(xi=xi, theta=theta), err


@dataclass(frozen=True)
class PairAlignment:
    index_a: int
    index_b: int
    xi: float
    theta: float
    f_err: float
    g_err: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"pair": [self.index_a, self.index_b],
                **_json_fields(self, skip=("index_a", "index_b"))}


@dataclass(frozen=True)
class GaugeReport:
    pairs: tuple[PairAlignment, ...]
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return _json_fields(self, "gauge-uniqueness")


def check_gauge_uniqueness(code: BivariateCode, configs,
                           tol: float = 1e-3) -> GaugeReport:
    """Construct f, g for each (x0, r0, depth) config and align pairwise
    on 101 points of each pair's shared f and g domains.

    Additive representations of one code differ only by f -> xi*f + theta,
    g -> xi*g with a shared xi > 0, so for every pair the f-alignment must
    be tight and the same xi must map g to g with no offset.  Construction
    errors propagate; a pair whose domains do not overlap fails with an
    infinite error rather than raising.
    """
    configs = list(configs)
    if len(configs) < 2:
        raise InvalidParams("need at least two configs to compare")
    built = []
    for cfg in configs:
        x0, r0, depth = cfg
        hs = make_structure(code, x0)
        f = construct_f(hs, r0=r0, depth=20 if depth is None else depth)
        g = construct_g(hs, f)
        built.append((f, g))

    pairs = []
    for a in range(len(built)):
        for b in range(a + 1, len(built)):
            fa, ga = built[a]
            fb, gb = built[b]
            try:
                dom = fa.domain.intersect(fb.domain)
            except InvalidInterval:
                pairs.append(PairAlignment(a, b, float("nan"), float("nan"),
                                           float("inf"), float("inf"), False))
                continue
            xs = dom.grid(101)
            amap, f_err = affine_align(fa, fb, xs)
            try:
                gdom = ga.domain.intersect(gb.domain)
                ss = gdom.grid(101)
                g_err = float(np.abs(amap.xi * np.asarray(ga(ss))
                                     - np.asarray(gb(ss))).max())
            except InvalidInterval:
                g_err = float("inf")
            passed = bool(amap.xi > 0 and f_err <= tol and g_err <= tol)
            pairs.append(PairAlignment(a, b, amap.xi, amap.theta,
                                       f_err, g_err, passed))
    return GaugeReport(pairs=tuple(pairs), tolerance=float(tol),
                       passed=bool(all(p.passed for p in pairs)))
