"""Fitting an additive representation directly, and affine alignment.

The constructive route builds f knot by knot; this module goes the other
way and treats the knot values of f, g (and m, when it is not tied to
f^-1) as free parameters, minimizing the mean squared relative residual of
m(f(y) + g(r)) against the code on a grid.  Monotonicity is built into the
parameterization, value differences pass through exp, so every iterate is
a valid representation and no projection step is needed.

Descent is deterministic: damped least-squares (Levenberg-Marquardt) steps
on the exact Jacobian of the piecewise-linear model, falling back to a
backtracked gradient step, and only a strict decrease is accepted, so the
recorded loss curve never increases.  A descent also stops once it stalls:
when its last _STALL_ITERS (10) accepted steps together took off no more
than _STALL_REL (1e-3) of the loss they started from.  The randomness
budget of the seed is spent exclusively on subsampling oversized grids.

A fit starts from one linear solve, independent of the constructive route:
with the knots held fixed, f(G(y, r)) = f(y) + g(r) is linear in the knot
values (_linear_seed).  Given a count of f knots, the permutable form
solves on two knot rules and keeps the one whose seed fits better (the
pick between rules of de Boor, "A Practical Guide to Splines", 1978, ch.
XII).  The samples and knots never move, so a fit finds each sample's
segment in f's and g's knot tables once, with the Jacobian columns of
those lookups up to each step's factor (_lookups); every Jacobian then
scales them by the iterate's steps, bit for bit what building them anew
would give.

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
    "MonotoneParam",
    "FitResult",
    "PairAlignment",
    "GaugeReport",
    "fit_additive",
    "affine_align",
    "check_gauge_uniqueness",
]

# exp argument clamps: knot-value differences stay strictly positive and
# large enough to survive strictness validation (exp(-16) ~ 1e-7), without
# overflowing upward.
_RAW_LO = -16.0
_RAW_HI = 30.0

# The stall test of a descent (see the module docstring), the small
# relative decrease stop of Madsen, Nielsen & Tingleff, "Methods for
# Non-Linear Least Squares Problems" (2004), section 3.2.
_STALL_ITERS = 10
_STALL_REL = 1e-3


class NonConvergence(LawError):
    """The fit stopped above the requested loss target.

    The partial result (representation, loss curve) is attached as
    .result so callers can inspect how far the descent got.
    """

    def __init__(self, msg: str, result: "FitResult"):
        super().__init__(msg)
        self.result = result


class DegenerateFit(LawError):
    """Alignment target is constant on the samples; no slope is defined."""


@dataclass(frozen=True)
class MonotoneParam:
    """Strictly monotone knot values from unconstrained reals.

    Realized values are base + direction * cumsum(exp(raw)), so every
    parameter vector maps to a strictly monotone sequence and the map is
    onto: any strictly monotone values can be encoded by log differences.
    """

    knot_xs: np.ndarray
    base: float
    raw: np.ndarray
    direction: float  # +1.0 or -1.0

    @classmethod
    def from_values(cls, knot_xs, values) -> "MonotoneParam":
        knot_xs = np.asarray(knot_xs, dtype=float)
        values = np.asarray(values, dtype=float)
        diffs = np.diff(values)
        direction = 1.0 if diffs[0] > 0 else -1.0
        mags = direction * diffs
        if np.any(mags <= 0):
            raise InvalidParams("knot values are not strictly monotone")
        return cls(knot_xs=knot_xs, base=float(values[0]),
                   raw=np.log(mags), direction=direction)

    @property
    def n_params(self) -> int:
        return 1 + self.raw.size

    def pack(self) -> np.ndarray:
        return np.concatenate(([self.base], self.raw))

    def with_packed(self, vec: np.ndarray) -> "MonotoneParam":
        return MonotoneParam(knot_xs=self.knot_xs, base=float(vec[0]),
                             raw=np.asarray(vec[1:], dtype=float),
                             direction=self.direction)

    def values(self) -> np.ndarray:
        steps = np.exp(np.clip(self.raw, _RAW_LO, _RAW_HI))
        out = np.empty(self.raw.size + 1)
        out[0] = self.base
        out[1:] = self.base + self.direction * np.cumsum(steps)
        return out

    def to_function(self) -> MonotoneFunction:
        direction = INCREASING if self.direction > 0 else DECREASING
        return MonotoneFunction(self.knot_xs, self.values(), direction)


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
    so no parameter ever sits on a flat plateau where the gradient would
    vanish; np.interp alone clamps to the end values.  Each end's slope is
    computed only when some x lies past that end.
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


def _lookup_template(j, t, n: int) -> np.ndarray:
    """d/d packed(p) of the lookups (j, t) on the values of a parameter p of
    n entries, each step's column still to be scaled by its step factor
    (_step_factors): base moves every value one for one, and a lookup weighs
    the values past knot i by 1 for i < j, by t for i = j and by 0 beyond."""
    out = np.empty((j.size, n))
    out[:, 0] = 1.0
    np.less(np.arange(n - 1), j[:, None], out=out[:, 1:])
    out[np.arange(j.size), j + 1] = t
    return out


def _step_factors(p: MonotoneParam) -> np.ndarray:
    # [1, direction * exp(raw_i)]: raw_i moves the values past knot i by its
    # step, and by nothing once clipped.
    live = (p.raw >= _RAW_LO) & (p.raw <= _RAW_HI)
    steps = np.where(live, np.exp(np.clip(p.raw, _RAW_LO, _RAW_HI)), 0.0)
    return np.concatenate(([1.0], p.direction * steps))


def _lookups(x, knot_xs):
    """Segments, offsets and lookup template of the samples x in a knot
    table: what a fit holds fixed for its inner lookups at every iterate."""
    j, t = _segments(x, knot_xs)
    return j, t, _lookup_template(j, t, knot_xs.size)


def _predict(ys, rs, f: MonotoneParam, g: MonotoneParam, m=None, vals=None):
    """The model m(f(y) + g(r)) at the samples; m = f^-1 when m is None.

    vals, when given, are the parameters' knot values in (f, g[, m]) order,
    as their values() returns them.
    """
    if vals is None:
        vals = [p.values() for p in (f, g, m) if p is not None]
    sums = _pl_eval(ys, f.knot_xs, vals[0]) + _pl_eval(rs, g.knot_xs, vals[1])
    if m is not None:
        return _pl_eval(sums, m.knot_xs, vals[2])
    # m = f^-1: interpolate the flipped table.
    return _pl_eval(sums, vals[0], f.knot_xs)


def _jacobian(ys, rs, f: MonotoneParam, g: MonotoneParam, m=None,
              lookups=None):
    """Exact d _predict / d (packed f, g[, m]) at the samples.

    The model is piecewise linear in the knot values: each lookup has two
    weights, and the outer lookup adds its slope at the sum.  With m = f^-1,
    f's values are also the breakpoints of the flipped table, which moves
    the prediction by -slope times the sum's own weights on that table.
    The flipped table's segments must have positive width, as they do at
    every strictly monotone iterate.

    lookups, when given, are _lookups(ys, f.knot_xs) and
    _lookups(rs, g.knot_xs): the knots never move, so a fit computes them
    once, and the inner lookups' columns are then one multiply by each
    parameter's step factors.
    """
    if lookups is None:
        lookups = (_lookups(ys, f.knot_xs), _lookups(rs, g.knot_xs))
    (jy, ty, cols_f), (jr, tr, cols_g) = lookups
    fv, gv = f.values(), g.values()
    sums = (fv[jy] + ty * (fv[jy + 1] - fv[jy])
            + gv[jr] + tr * (gv[jr + 1] - gv[jr]))
    nf, ng = f.n_params, g.n_params
    jac = np.empty((ys.size, nf + ng + (0 if m is None else m.n_params)))
    f_steps = _step_factors(f)
    np.multiply(cols_f, f_steps, out=jac[:, :nf])
    np.multiply(cols_g, _step_factors(g), out=jac[:, nf:nf + ng])
    if m is None:
        js, us = _segments(sums, fv)
        jac[:, :nf] -= _lookup_template(js, us, nf) * f_steps
        slope = np.diff(f.knot_xs)[js] / np.diff(fv)[js]
    else:
        jm, um = _segments(sums, m.knot_xs)
        np.multiply(_lookup_template(jm, um, m.n_params), _step_factors(m),
                    out=jac[:, nf + ng:])
        slope = np.diff(m.values())[jm] / np.diff(m.knot_xs)[jm]
    jac[:, :nf + ng] *= slope[:, None]
    return jac


def _ensure_strict(values: np.ndarray, direction: float) -> np.ndarray:
    # Clamped sampling can produce flat runs at the ends; tilt them so the
    # log-difference encoding stays finite.
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


def _linear_seed(ys, rs, truth, tables, gauge):
    """Knot values on the tables of f, g (and n = m^-1) that solve
    f(G(y, r)) = f(y) + g(r) (or n(G(y, r)) = f(y) + g(r)) in least squares.

    With the knots fixed the equation is linear in the knot values: each
    sample is one row of at most 6 nonzeros, the interpolation weights at
    G minus those at y and at r.  gauge lists (table, x, value) rows, joined
    to the normal equations by one KKT solve.  A knot that no sample
    touches is filled by a second-difference penalty of 1e-10 times the
    normal matrix's mean diagonal.  Of three passes, each weighs a row by
    1 / (|slope at G| * max(1, |G|)) with the last pass's slope, so that
    the residual reads as the relative residual in G that the loss reads.
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
    for p in range(3):
        if p:
            out = sol[edges[outer]:edges[outer + 1]]
            s = np.abs(np.diff(out) / np.diff(tables[outer]))[cols_at[:, 0] - edges[outer]]
            slope = np.maximum(s, 1e-9 * s.max())
        w2 = 1.0 / (slope * scale) ** 2
        h = np.bincount(pairs, weights=(products * w2[:, None]).ravel(),
                        minlength=size * size).reshape(size, size)
        kkt[:size, :size] = h + (1e-10 * np.trace(h) / size) * penalty
        sol = np.linalg.solve(kkt, rhs)
    return [sol[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


# Timed as the fit's init in the per-layer trace; the alias goes with the
# next change to the benchmark harness.
_constructive_init = _linear_seed


def fit_additive(code: BivariateCode, grid=21, knots_f=16, knots_g=16,
                 knots_m=None, quasi: bool = False, max_iters: int = 500,
                 seed: int = 0, loss_target: float | None = None,
                 x0: float | None = None, max_points: int = 400) -> FitResult:
    """Fit m(f(y)+g(r)) to the code by damped least squares.

    quasi=False ties m to f^-1 (the permutable form); quasi=True fits m as
    a third monotone function over the sum range (the quasi-permutable
    form).  Knot arguments accept a count (uniform knots) or explicit
    sorted arrays.  The fit starts from _linear_seed on its own samples and
    knots, gauged by f(x0) = 0 and g = +-1 at the J' end where G(x0, .)
    moves most, or in the quasi form by f(x0) = 0, f = 1 at f's top knot
    and g = 0 at J''s midpoint, with m started at the solved n^-1.  Given a
    count of f knots, the permutable form solves on uniform knots over f's
    span and on quantiles of J's 64-point grid joined with the realized
    values, and keeps the knots whose seed has the lower loss.

    Each iteration of the descent solves for a Levenberg-Marquardt step on
    the exact Jacobian of the piecewise-linear model, raising the damping
    until a step lowers the loss, and falls back to a backtracked gradient
    step.  The loss is the mean squared relative residual over the grid,
    sums falling outside m's tabulated range are clamped; the returned loss
    curve is nonincreasing by construction.  The descent stops after
    max_iters iterations (0 reports the seed's loss; a negative count is
    InvalidParams), when no step lowers the loss, when the loss reaches
    loss_target, or when it stalls (_STALL_ITERS, _STALL_REL).  The gauge
    is normalized after the fit: f(x0) = 0 and |g| = 1 at the J' endpoint
    where |g| is largest; an anchor x0 outside J is InvalidParams.

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
    scale = np.maximum(1.0, np.abs(truth))

    def loss_of_pred(pred) -> float:
        r = (pred - truth) / np.maximum(scale, np.abs(pred))
        return float(r @ r) / r.size

    g_dir = 1.0 if code.dir_second == INCREASING else -1.0
    gx = _knot_grid(knots_g, J2)
    mp = None
    if quasi:
        fx = _knot_grid(knots_f, J)
        nm = max(fx.size, 8) if knots_m is None else knots_m
        # n = m^-1 is read at G: its knots are quantiles of the realized
        # values, as many as m's.
        nx = _quantiles(truth, int(nm) if np.isscalar(nm) else len(nm))
        nx = nx[np.diff(nx, prepend=-np.inf) > 0]
        f_vals, g_vals, n_vals = _linear_seed(
            ys_flat, rs_flat, truth, [fx, gx, nx],
            [(0, x0, 0.0), (0, fx[-1], 1.0), (1, J2.midpoint, 0.0)])
        fp = MonotoneParam.from_values(fx, _ensure_strict(f_vals, 1.0))
        gp = MonotoneParam.from_values(gx, _ensure_strict(g_vals, g_dir))
        f_vals0, g_vals0 = fp.values(), gp.values()
        mx = _knot_grid(nm, Interval(float(f_vals0.min() + g_vals0.min()),
                                     float(f_vals0.max() + g_vals0.max())))
        mp = MonotoneParam.from_values(mx, _pl_eval(mx, _ensure_strict(n_vals, 1.0), nx))
    else:
        ends = np.array([J2.lo, J2.hi])
        moves = np.asarray(code(np.full(2, x0), ends), dtype=float) - x0
        end = int(np.argmax(np.abs(moves)))
        gauge = [(0, x0, 0.0), (1, ends[end], float(np.sign(moves[end])))]
        # With m tied to f^-1 the sums are read back through f's flipped
        # table, so f's knots must span the code's realized values, not
        # just J; explicit knot arrays are taken as given.
        span = Interval(min(J.lo, float(truth.min())), max(J.hi, float(truth.max())))
        candidates = [_knot_grid(knots_f, span)]
        if isinstance(knots_f, (int, np.integer)):
            candidates.append(_quantiles(np.concatenate([J.grid(64), truth]),
                                         int(knots_f)))
        for i, fx_try in enumerate(candidates):
            if np.any(np.diff(fx_try) <= 0):  # tied quantiles
                continue
            f_vals, g_vals = _linear_seed(ys_flat, rs_flat, truth,
                                          [fx_try, gx], gauge)
            fp_try = MonotoneParam.from_values(fx_try, _ensure_strict(f_vals, 1.0))
            gp_try = MonotoneParam.from_values(gx, _ensure_strict(g_vals, g_dir))
            seed_loss = loss_of_pred(_predict(ys_flat, rs_flat, fp_try, gp_try))
            if i == 0 or seed_loss < best:
                best, fx, fp, gp = seed_loss, fx_try, fp_try, gp_try
    nf, ng = fp.n_params, gp.n_params

    def unpack(vec):
        f = fp.with_packed(vec[:nf])
        g = gp.with_packed(vec[nf:nf + ng])
        m = mp.with_packed(vec[nf + ng:]) if quasi else None
        return f, g, m

    def evaluate(vec):
        # Realized values can tie in floating point (a step below their
        # ulp).  Such a trial is no monotone representation, and would
        # divide by a zero-width segment of the flipped table; it never
        # counts as a decrease.
        params = [p for p in unpack(vec) if p is not None]
        vals = [p.values() for p in params]
        if any(np.any(p.direction * np.diff(v) <= 0)
               for p, v in zip(params, vals)):
            return None, np.inf
        pred = _predict(ys_flat, rs_flat, *params, vals=vals)
        return pred, loss_of_pred(pred)

    vec = np.concatenate([fp.pack(), gp.pack()] + ([mp.pack()] if quasi else []))
    # The knots and samples never move, so neither do the inner lookups.
    lookups = (_lookups(ys_flat, fx), _lookups(rs_flat, gx))

    # Damped least-squares descent on the exact Jacobian, with the residual
    # weights frozen per iteration, falling back to a backtracked gradient
    # step when no damping gives a decrease.  Only strictly decreasing
    # steps are taken: the curve is monotone.
    pred = _predict(ys_flat, rs_flat, *unpack(vec))
    cur = loss_of_pred(pred)
    curve = [cur]
    lam = 1.0
    iters = 0
    for iters in range(1, max_iters + 1):
        w = 1.0 / np.maximum(scale, np.abs(pred))
        res = (pred - truth) * w
        jac = _jacobian(ys_flat, rs_flat, *unpack(vec), lookups=lookups)
        jac *= w[:, None]
        jtr = jac.T @ res
        grad = 2.0 * jtr / res.size
        gnorm2 = float(grad @ grad)
        if gnorm2 < 1e-30:
            break
        jtj = jac.T @ jac
        # Relative floor: a parameter the grid barely sees must not get an
        # exploding step out of the damping solve.
        dvals = np.diag(jtj)
        damping = np.diag(np.clip(dvals, max(1e-12, 1e-6 * float(dvals.max())),
                                  None))
        rhs = -jtr
        accepted = False
        for _ in range(16):
            try:
                d = np.linalg.solve(jtj + lam * damping, rhs)
            except np.linalg.LinAlgError:
                d = None
            if d is not None and np.all(np.isfinite(d)):
                trial = vec + d
                trial_pred, trial_loss = evaluate(trial)
                if trial_loss < cur:
                    accepted = True
                    lam = max(lam / 3.0, 1e-12)
                    break
            lam = min(lam * 10.0, 1e12)
        if not accepted:
            t = 1.0 / np.sqrt(gnorm2)
            for _ in range(40):
                trial = vec - t * grad
                trial_pred, trial_loss = evaluate(trial)
                # Armijo's test, and a strict decrease where its margin is
                # below half an ulp of cur.
                if trial_loss < cur and trial_loss <= cur - 1e-4 * t * gnorm2:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            break
        vec, cur, pred = trial, trial_loss, trial_pred
        curve.append(cur)
        if loss_target is not None and cur <= loss_target:
            break
        if cur < 1e-16:
            break
        if (len(curve) > _STALL_ITERS
                and curve[-1 - _STALL_ITERS] - cur
                <= _STALL_REL * curve[-1 - _STALL_ITERS]):
            break

    f, g, m = unpack(vec)
    rep = _normalized(f, g, m, x0, quasi)
    converged = loss_target is None or cur <= loss_target
    result = FitResult(representation=rep, loss=cur,
                       loss_curve=tuple(curve), n_iters=iters,
                       converged=bool(converged))
    if not converged:
        raise NonConvergence(
            f"loss {cur:.3e} above target {loss_target:.3e} "
            f"after {iters} iterations", result)
    return result


def _normalized(f: MonotoneParam, g: MonotoneParam, m, x0: float,
                quasi: bool) -> AdditiveRepresentation:
    # Gauge: f(x0) = 0, |g| = 1 at the J' endpoint of largest magnitude.
    f_fn = f.to_function()
    g_fn = g.to_function()
    theta = float(f_fn(np.clip(x0, f_fn.domain.lo, f_fn.domain.hi)))
    g_ends = (float(g_fn(g_fn.domain.lo)), float(g_fn(g_fn.domain.hi)))
    r0 = g_fn.domain.lo if abs(g_ends[0]) >= abs(g_ends[1]) else g_fn.domain.hi
    unit = abs(float(g_fn(r0)))
    k = 1.0 / unit if unit > 1e-12 else 1.0

    f_new = MonotoneFunction(f.knot_xs, (f.values() - theta) * k, INCREASING)
    g_vals = g.values() * k
    g_dir = INCREASING if g.direction > 0 else DECREASING
    g_new = MonotoneFunction(g.knot_xs, g_vals, g_dir)
    m_new = None
    if quasi:
        m_new = MonotoneFunction((m.knot_xs - theta) * k, m.values(),
                                 INCREASING)
    unit = 1.0 if float(g_fn(r0)) > 0 else -1.0
    return AdditiveRepresentation(f=f_new, g=g_new,
                                  gauge=Gauge(x0=float(x0), unit=unit),
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
