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
from .holder import _kept, construct_f, construct_g, make_structure
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


def _constructive_init(code: BivariateCode):
    hs = make_structure(code)
    f = construct_f(hs, depth=12)
    g = construct_g(hs, f)
    return _transport_extend(code, f, g)


def _transport_extend(code: BivariateCode, f: MonotoneFunction,
                      g: MonotoneFunction):
    """Extend a constructed (f, g) pair over the code's whole value range.

    The construction tabulates f only on the orbit's reach inside J, which
    caps g at the modifiers whose slice value stays there.  But additivity
    pins f at every reachable value: f(G(y, r)) = f(y) + g(r), so each pass
    turns the covered box into new f knots beyond J and then re-transports
    g through the slice, until g covers J' (or nothing grows).  Used for
    fit initialization; the construction route itself keeps its
    trimmed-coverage contract.
    """
    J, J2 = code.J, code.J2
    slack2 = 1e-9 * max(1.0, J2.width)
    for _ in range(8):
        if g.domain.lo <= J2.lo + slack2 and g.domain.hi >= J2.hi - slack2:
            break
        y_cov = f.domain.intersect(J)
        ygrid = y_cov.grid(48)
        rgrid = g.domain.grid(48)
        V = np.asarray(code(ygrid[:, None], rgrid[None, :]), dtype=float).ravel()
        S = (np.asarray(f(ygrid), dtype=float)[:, None]
             + np.asarray(g(rgrid), dtype=float)[None, :]).ravel()
        xs = np.concatenate([np.asarray(f.xs), V])
        ys = np.concatenate([np.asarray(f.ys), S])
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
        idx = _kept([xs, ys], [1e-12 * max(1.0, float(xs[-1] - xs[0])),
                               1e-12 * max(1.0, float(np.abs(ys).max()))])
        if idx.size <= f.xs.size:
            break
        f_ext = MonotoneFunction(xs[idx], ys[idx], INCREASING)
        x0 = y_cov.midpoint
        sgrid = J2.grid(257)
        psi = np.asarray(code(x0, sgrid), dtype=float)
        dom = f_ext.domain
        inside = (psi >= dom.lo) & (psi <= dom.hi)
        if inside.sum() < 2:
            break
        shift = float(f_ext(np.clip(x0, dom.lo, dom.hi)))
        g_vals = np.asarray(f_ext(psi[inside]), dtype=float) - shift
        old_anchor = g
        grew = (sgrid[inside][0] < g.domain.lo - slack2
                or sgrid[inside][-1] > g.domain.hi + slack2)
        g_dir = INCREASING if g_vals[-1] > g_vals[0] else DECREASING
        try:
            g_new = MonotoneFunction(sgrid[inside], g_vals, g_dir)
        except LawError:
            break
        # Keep the original gauge: match g on the old coverage midpoint.
        mid = old_anchor.domain.midpoint
        g_new = g_new.shifted(float(old_anchor(mid)) - float(g_new(mid)))
        f, g = f_ext, g_new
        if not grew:
            break
    return f, g


def _pl_eval(x, xs, ys):
    """Piecewise-linear evaluation with linear end extension.

    The extension keeps the model strictly monotone outside the knot span,
    so no parameter ever sits on a flat plateau where the gradient would
    vanish; np.interp alone clamps to the end values.
    """
    y = np.interp(x, xs, ys)
    lo_s = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    y = np.where(x < xs[0], ys[0] + (x - xs[0]) * lo_s, y)
    y = np.where(x > xs[-1], ys[-1] + (x - xs[-1]) * hi_s, y)
    return y


def _segments(x, xs):
    """Segment j and offset t of each x in the knot table xs, so that
    _pl_eval(x, xs, ys) = (1 - t) * ys[j] + t * ys[j + 1].

    j is picked as np.interp picks it; past either end it is the end
    segment and t runs below 0 or above 1, which is the linear extension.
    """
    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    return j, (x - xs[j]) / (xs[j + 1] - xs[j])


def _lookup_columns(out, j, t, p: MonotoneParam):
    # d/d packed(p) of the lookups (j, t) on p's values, written into out:
    # base moves every value one for one; raw_i moves the values past knot
    # i by direction * exp(raw_i) (by nothing once clipped), and a lookup
    # weighs those values by 1 for i < j, by t for i = j and by 0 beyond.
    live = (p.raw >= _RAW_LO) & (p.raw <= _RAW_HI)
    steps = np.where(live, np.exp(np.clip(p.raw, _RAW_LO, _RAW_HI)), 0.0)
    out[:, 0] = 1.0
    np.less(np.arange(p.raw.size), j[:, None], out=out[:, 1:])
    out[np.arange(j.size), j + 1] = t
    out[:, 1:] *= p.direction * steps
    return out


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


def _jacobian(ys, rs, f: MonotoneParam, g: MonotoneParam, m=None):
    """Exact d _predict / d (packed f, g[, m]) at the samples.

    The model is piecewise linear in the knot values: each lookup has two
    weights, and the outer lookup adds its slope at the sum.  With m = f^-1,
    f's values are also the breakpoints of the flipped table, which moves
    the prediction by -slope times the sum's own weights on that table.
    The flipped table's segments must have positive width, as they do at
    every strictly monotone iterate.
    """
    fv, gv = f.values(), g.values()
    jy, ty = _segments(ys, f.knot_xs)
    jr, tr = _segments(rs, g.knot_xs)
    sums = (fv[jy] + ty * (fv[jy + 1] - fv[jy])
            + gv[jr] + tr * (gv[jr + 1] - gv[jr]))
    nf, ng = f.n_params, g.n_params
    jac = np.empty((ys.size, nf + ng + (0 if m is None else m.n_params)))
    _lookup_columns(jac[:, :nf], jy, ty, f)
    _lookup_columns(jac[:, nf:nf + ng], jr, tr, g)
    if m is None:
        js, us = _segments(sums, fv)
        jac[:, :nf] -= _lookup_columns(np.empty((ys.size, nf)), js, us, f)
        slope = np.diff(f.knot_xs)[js] / np.diff(fv)[js]
    else:
        jm, um = _segments(sums, m.knot_xs)
        _lookup_columns(jac[:, nf + ng:], jm, um, m)
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


def fit_additive(code: BivariateCode, grid=21, knots_f=16, knots_g=16,
                 knots_m=None, quasi: bool = False, max_iters: int = 500,
                 seed: int = 0, loss_target: float | None = None,
                 init: str = "auto", x0: float | None = None,
                 max_points: int = 400) -> FitResult:
    """Fit m(f(y)+g(r)) to the code by damped least squares.

    Each iteration solves for a Levenberg-Marquardt step on the exact
    Jacobian of the piecewise-linear model, raising the damping until a
    step lowers the loss, and falls back to a backtracked gradient step.
    quasi=False ties m to f^-1 (the permutable form); quasi=True fits m as
    a third monotone function over the sum range (the quasi-permutable
    form).  Knot arguments accept a count (uniform knots) or explicit
    sorted arrays.  The loss is the mean squared relative residual over the
    grid, sums falling outside m's tabulated range are clamped; the
    returned loss curve is nonincreasing by construction.  The gauge is
    normalized after the fit: f(x0) = 0 and |g| = 1 at the J' endpoint
    where |g| is largest; an anchor x0 outside J is InvalidParams.

    A descent stops after max_iters iterations (0 reports the initial
    loss; a negative count is InvalidParams), when no step lowers the
    loss, when the loss reaches loss_target, or when it stalls: its last
    10 accepted steps together took off at most 1e-3 of the loss they
    started from (_STALL_ITERS, _STALL_REL).  A descent from the
    constructive seed that ends above loss_target (1e-10 without one) gets
    one retry from the marginal-slice seed, and the lower end is kept.

    If loss_target is given and the final loss stays above it,
    NonConvergence is raised with the partial result attached.
    """
    if max_iters < 0:
        raise InvalidParams(f"max_iters must be >= 0, got {max_iters}")
    ny, nr = _grid_sizes(grid, 2)
    if ny < 10 or nr < 10:
        raise InvalidParams("fit grid must be at least 10x10")
    if init not in ("auto", "slices"):
        raise InvalidParams(f"unknown init {init!r}")
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

    # With m tied to f^-1 the sums are read back through f's flipped table,
    # so f's knots must span the code's realized values, not just J;
    # explicit knot arrays are taken as given.
    f_span = J
    if not quasi and isinstance(knots_f, (int, np.integer)):
        f_span = Interval(min(J.lo, float(truth.min())),
                          max(J.hi, float(truth.max())))
    fx = _knot_grid(knots_f, f_span)
    gx = _knot_grid(knots_g, J2)

    def slice_seed():
        # Marginal slices are monotone by the code axioms; tabulate them on
        # J so knots outside J (identifiable only through m) extrapolate.
        r_mid = J2.midpoint
        ytab = J.grid(65)
        slice_f = MonotoneFunction(ytab, code(ytab, r_mid), INCREASING)
        g_vals = (np.asarray(code(x0, np.clip(gx, J2.lo, J2.hi)), dtype=float)
                  - float(code(x0, r_mid)))
        return _pl_eval(fx, slice_f.xs, slice_f.ys), g_vals

    f0 = g0 = None
    if init == "auto":
        try:
            f0, g0 = _constructive_init(code)
        except LawError:
            f0 = g0 = None
    if f0 is None:
        f_init, g_init = slice_seed()
    else:
        f_init, g_init = _pl_eval(fx, f0.xs, f0.ys), _pl_eval(gx, g0.xs, g0.ys)

    g_dir = 1.0 if code.dir_second == INCREASING else -1.0

    def run(f_start, g_start):
        fp = MonotoneParam.from_values(fx, _ensure_strict(f_start, 1.0))
        gp = MonotoneParam.from_values(gx, _ensure_strict(g_start, g_dir))
        mp = None
        if quasi:
            f_vals0, g_vals0 = fp.values(), gp.values()
            s_lo = float(f_vals0.min() + g_vals0.min())
            s_hi = float(f_vals0.max() + g_vals0.max())
            nm = max(fx.size, 8) if knots_m is None else knots_m
            mx = _knot_grid(nm, Interval(s_lo, s_hi))
            # Identity start: with slice-started f, code(y, r_mid) = m(f(y)).
            mp = MonotoneParam.from_values(mx, mx.copy())
        nf, ng = fp.n_params, gp.n_params

        def unpack(vec):
            f = fp.with_packed(vec[:nf])
            g = gp.with_packed(vec[nf:nf + ng])
            m = mp.with_packed(vec[nf + ng:]) if quasi else None
            return f, g, m

        def loss_of_pred(pred) -> float:
            r = (pred - truth) / np.maximum(scale, np.abs(pred))
            return float(r @ r) / r.size

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

        vec = np.concatenate([fp.pack(), gp.pack()]
                             + ([mp.pack()] if quasi else []))

        # Damped least-squares descent on the exact Jacobian, with the
        # residual weights frozen per iteration, falling back to a
        # backtracked gradient step when no damping gives a decrease.  Only
        # strictly decreasing steps are taken: the curve is monotone.
        pred = _predict(ys_flat, rs_flat, *unpack(vec))
        cur = loss_of_pred(pred)
        curve = [cur]
        lam = 1.0
        iters = 0
        for iters in range(1, max_iters + 1):
            w = 1.0 / np.maximum(scale, np.abs(pred))
            res = (pred - truth) * w
            jac = _jacobian(ys_flat, rs_flat, *unpack(vec))
            jac *= w[:, None]
            grad = 2.0 * (jac.T @ res) / res.size
            gnorm2 = float(grad @ grad)
            if gnorm2 < 1e-30:
                break
            jtj = jac.T @ jac
            # Relative floor: a parameter the grid barely sees must not get
            # an exploding step out of the damping solve.
            dvals = np.diag(jtj)
            diag = np.clip(dvals, max(1e-12, 1e-6 * float(dvals.max())), None)
            rhs = -(jac.T @ res)
            accepted = False
            for _ in range(16):
                try:
                    d = np.linalg.solve(jtj + lam * np.diag(diag), rhs)
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
                    # Armijo's test, and a strict decrease where its margin
                    # is below half an ulp of cur.
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
        return unpack, vec, cur, curve, iters

    unpack, vec, cur, curve, iters = run(f_init, g_init)
    # A stalled descent from the constructive seed gets one deterministic
    # retry from the marginal-slice seed; keep whichever ends lower.
    stall_at = 1e-10 if loss_target is None else loss_target
    if cur > stall_at and f0 is not None:
        unpack2, vec2, cur2, curve2, iters2 = run(*slice_seed())
        if cur2 < cur:
            unpack, vec, cur, curve, iters = unpack2, vec2, cur2, curve2, iters2

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
