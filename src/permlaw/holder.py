"""The anchored partial operation on J and the constructive route to f, g.

Fixing an anchor x0 in J turns a permutable code into a partial binary
operation

    x • y = G(x, v)   where   G(x0, v) = y,

defined whenever y is reachable from the anchor by a modifier.  The
operation is commutative and associative where defined, and admits an
additive scale f with f(x•y) = f(x) + f(y); this module checks those
algebraic facts on samples and then builds f explicitly:

  * the anchor orbit y_{n+1} = G(y_n, r0), run in both directions, pins
    f = n on integer multiples of the unit g(r0) = +/-1;
  * dyadic refinement finds modifiers whose net effect is half the previous
    step and fills the grid between orbit points, doubling the f-resolution
    per level.

Steps are applied in composed form, apply r then undo an anchor modifier,
so the scheme also works on modifier domains with no zero-displacement
point (there the raw halving target would leave J').  When a
zero-displacement modifier exists the composed step degenerates to the
plain one.

g then falls out by transport: g(s) = f(G(x0, s)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .axioms import CheckReport, _grid_sizes, _reduce, relative_residuals
from .lawcore import (
    BISECT_TOL,
    DECREASING,
    INCREASING,
    AdditiveRepresentation,
    BivariateCode,
    Interval,
    InvalidParams,
    LawError,
    MonotoneFunction,
    OutOfDomain,
    RangeExceeded,
    _invert_first_lanes,
    _invert_second_lanes,
    _root,
    _table,
    invert_in_first,
    invert_in_second,
)

__all__ = [
    "Undefined",
    "StepUndefined",
    "NotArchimedeanWithinCap",
    "OrbitEscaped",
    "UnitDegenerate",
    "NotSymmetric",
    "HolderStructure",
    "StandardSequence",
    "ConditionRow",
    "ConditionReport",
    "DifferentiabilityReport",
    "make_structure",
    "bullet",
    "suggest_r0",
    "standard_sequence",
    "archimedean_count",
    "check_holder_conditions",
    "construct_f",
    "construct_g",
    "residual_report",
    "symmetric_representation",
    "check_differentiability",
]

# Dyadic refinement never runs past this level: each level doubles the knot
# count, and 2^-12 of a unit step is already far below every tolerance in
# use, while depth-20 grids would hold millions of knots.
LEVEL_CAP = 12

# construct_f's anchor orbit may take at most _MAX_KNOTS >> levels steps each
# way, so that its knots after refinement stay within about 2 * _MAX_KNOTS.
_MAX_KNOTS = 1 << 16


class Undefined(LawError):
    """The partial operation x • y is not defined at these arguments."""


class StepUndefined(Undefined):
    """A standard-sequence step could not be solved inside the domain."""


class _StepBeyond(StepUndefined):
    # Internal: the solve failed because the target sits past the attainable
    # range; `above` records on which side, which lets a caller certify that
    # the lost term would only have been further out.
    def __init__(self, msg: str, above: bool):
        super().__init__(msg)
        self.above = above


class NotArchimedeanWithinCap(LawError):
    """Counting stalled or hit the iteration cap before reaching the target.

    This signals either a genuinely non-Archimedean step or a cap that is
    too small for the requested reach; the message says which was observed.
    """


class OrbitEscaped(LawError):
    """The anchor orbit left J before taking two steps."""


class UnitDegenerate(LawError):
    """G(x0, r0) = x0: the chosen unit modifier produces no displacement."""


class NotSymmetric(LawError):
    """The code is not symmetric in its two arguments."""


@dataclass(frozen=True)
class HolderStructure:
    """A permutable code with a fixed anchor x0."""

    G: BivariateCode
    x0: float

    @property
    def psi_range(self) -> Interval:
        return Interval(*_attained_ends(self.G, self.x0))


def make_structure(code: BivariateCode, x0: float | None = None) -> HolderStructure:
    J, J2 = code.J, code.J2
    if x0 is None:
        x0 = J.midpoint
    x0 = float(x0)
    if not J.contains(x0):
        raise InvalidParams(f"anchor {x0!r} outside [{J.lo}, {J.hi}]")
    sgrid = J2.grid(257)
    vals = np.asarray(code(x0, sgrid), dtype=float)
    sgrid, vals = _strictify(sgrid, vals)
    if sgrid.size < 2:
        raise InvalidParams("G(x0, .) is numerically constant; pick another anchor")
    # Raises NonMonotoneKnots unless G(x0, .) is finite and runs the
    # declared way.
    MonotoneFunction(sgrid, vals, code.dir_second)
    return HolderStructure(G=code, x0=x0)


def _strictify(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Keep a subsequence whose ys advance strictly in their overall direction.
    if ys.size < 2:
        return xs, ys
    sign = 1.0 if ys[-1] >= ys[0] else -1.0
    idx = _kept([sign * ys], [1e-13 * max(1.0, float(np.abs(ys).max()))])
    return xs[idx], ys[idx]


def _kept(cols, eps) -> np.ndarray:
    """Indices a greedy scan keeps: element 0, then each element whose
    every column exceeds the last kept element's by more than that
    column's eps.  A run of elements that each pass against the one before
    is kept whole once its first element is; only the elements after a
    failed comparison are scanned one by one."""
    n = cols[0].size
    step = np.ones(n, dtype=bool)  # element i passes against element i - 1
    for c, e in zip(cols, eps):
        step[1:] &= np.diff(c) > e
    fails = np.append(np.flatnonzero(~step), n)
    keep = np.zeros(n, dtype=bool)
    keep[0] = True
    last, i = 0, 1
    while i < n:
        if last == i - 1:  # keep the run up to the next failure, which fails
            stop = fails[np.searchsorted(fails, i)]
            keep[i:stop] = True
            last, i = stop - 1, stop + 1
        else:
            if all(c[i] - c[last] > e for c, e in zip(cols, eps)):
                keep[i], last = True, i
            i += 1
    return np.flatnonzero(keep)


def bullet(hs: HolderStructure, x: float, y: float) -> float:
    """x • y = G(x, v) with G(x0, v) = y; partial, raises Undefined."""
    code = hs.G
    try:
        v = invert_in_second(code, hs.x0, float(y))
    except RangeExceeded as exc:
        raise Undefined(
            f"{y!r} is not reachable from the anchor {hs.x0!r}: {exc}") from exc
    return float(code(float(x), v))


def suggest_r0(hs: HolderStructure) -> float:
    """Pick a unit modifier whose anchor orbit has at least 4 points.

    Scans 33 points over J', simulates the orbit from x0 in both directions,
    and keeps the candidate with the shortest orbit not shorter than 4
    points; that makes the unit step as large as possible while leaving
    enough integer points to refine between.  Among equals, a displacement
    whose sign agrees with dir_second wins, then the earlier grid point.
    """
    code, x0 = hs.G, hs.x0
    disp_eps = 1e-9 * max(1.0, abs(x0))
    want_positive = code.dir_second == INCREASING
    rs = code.J2.grid(33)
    disp = np.asarray(code(x0, rs), dtype=float) - x0
    moving = np.flatnonzero(~(np.abs(disp) <= disp_eps))
    best = None
    fallback = None
    for idx, n in zip(moving, _orbit_lengths(code, x0, rs[moving], cap=12)):
        r = float(rs[idx])
        pref = 0 if (disp[idx] > 0) == want_positive else 1
        key = (int(n), pref, int(idx))
        if fallback is None or n > fallback[0][0]:
            fallback = (key, r)
        if n >= 4 and (best is None or key < best[0]):
            best = (key, r)
    if best is not None:
        return best[1]
    if fallback is not None:
        return fallback[1]
    raise UnitDegenerate("no modifier moves the anchor; cannot pick r0")


def _orbit_lengths(code: BivariateCode, x0: float, rs: np.ndarray,
                   cap: int) -> np.ndarray:
    """Points of the anchor orbit inside J under each modifier of `rs`, up to
    `cap` steps each way: forward by application, backward by inversion
    until the inversion leaves J or has no solution.  An inversion that
    fails otherwise raises, the error of the first such modifier first.

    The counts are those of one scalar orbit per modifier provided the code
    evaluates an array elementwise as it evaluates each element alone, as
    every corpus code does."""
    def forward(ys, rs):
        return np.asarray(code(ys, rs), dtype=float), np.full(ys.size, None)

    count, errors = np.ones(rs.size, dtype=int), np.full(rs.size, None, dtype=object)
    for move in (forward, lambda ys, rs: _invert_first_lanes(code, ys, rs)):
        lanes, y = np.arange(rs.size), np.full(rs.size, float(x0))
        for _ in range(cap):
            if lanes.size == 0:
                break
            y[lanes], errs = move(y[lanes], rs[lanes])
            for i, e in zip(lanes, errs):
                if e is not None and not isinstance(e, RangeExceeded):
                    errors[i] = e
            lanes = lanes[(errs == None) & code.J.contains(y[lanes])]  # noqa: E711
            count[lanes] += 1
    for e in errors:
        if e is not None:
            raise e
    return count


# ---------------------------------------------------------------------------
# standard sequences and the Archimedean count


@dataclass(frozen=True)
class StandardSequence:
    """The sequence x_y^n: first term x, second term y, constant f-step."""

    x: float
    y: float
    terms: tuple[float, ...]
    truncated: bool


def _attained_ends(code: BivariateCode, x: float) -> tuple[float, float]:
    J2 = code.J2
    ends = sorted((float(code(x, J2.lo)), float(code(x, J2.hi))))
    return ends[0], ends[1]


def _seq_steps(hs: HolderStructure, x, y, t, tables):
    """One recursion step for each lane (x[i], y[i], t[i]): solve
    y • t = x • x' and return x', each of the two solves one lane call;
    `tables` is _invert_second_lanes' for hs.G.  Returns (next, errors):
    where a lane cannot step, next[i] is NaN and errors[i] holds a
    _StepBeyond if t or y • t lies past what x0 or x can reach, else the
    solve's error."""
    code, x0 = hs.G, hs.x0
    nxt, errors = np.full(x.size, np.nan), np.full(x.size, None, dtype=object)

    def beyond(lanes, v, lo, hi, says):  # the lanes whose v lies past [lo, hi]
        slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))
        over, under = v > hi + slack, v < lo - slack
        for i in np.flatnonzero(over | under):
            errors[lanes[i]] = _StepBeyond(says(i, "above" if over[i] else "below"),
                                           above=bool(over[i]))
        return ~(over | under)

    def solved(lanes, sols, errs):  # the lanes whose solve landed
        errors[lanes] = errs
        return lanes[errs == None], sols[errs == None]  # noqa: E711

    lo0, hi0 = _attained_ends(code, x0)
    go = np.flatnonzero(beyond(np.arange(x.size), t, lo0, hi0, lambda i, side:
                               f"term {float(t[i])!r} {side} the anchor's reach"))
    go, s_t = solved(go, *_invert_second_lanes(code, x0, np.clip(t[go], lo0, hi0),
                                               tables=tables))
    target = np.asarray(code(y[go], s_t), dtype=float)
    ends = np.asarray(code(x[go], code.J2.lo), dtype=float), \
        np.asarray(code(x[go], code.J2.hi), dtype=float)
    swap = ends[1] < ends[0]  # sorted, as _attained_ends orders them
    lo_x, hi_x = np.where(swap, ends[1], ends[0]), np.where(swap, ends[0], ends[1])
    keep = beyond(go, target, lo_x, hi_x, lambda i, side:
                  f"y•{float(t[go[i]])!r} = {float(target[i])!r} {side} "
                  f"what x = {float(x[go[i]])!r} can reach")
    go, s_next = solved(go[keep], *_invert_second_lanes(
        code, x[go[keep]], np.clip(target[keep], lo_x[keep], hi_x[keep]), tables=tables))
    nxt[go] = np.asarray(code(x0, s_next), dtype=float)
    return nxt, errors


def standard_sequence(hs: HolderStructure, x: float, y: float,
                      z_cap: float | None = None, n_cap: int = 64) -> StandardSequence:
    """Generate x_y^1 = x, x_y^2 = y, then the recursion until past z_cap.

    Stops as soon as a term exceeds z_cap (that term is kept, as the finite
    certificate) or n_cap terms exist (then truncated=True).  Each step adds
    the same f-increment f(y) - f(x), so the terms are strictly increasing.
    A step that escapes the anchor's reach above z_cap also certifies the
    sequence complete; any other unsolvable step raises StepUndefined.
    """
    x, y = float(x), float(y)
    if not x < y:
        raise InvalidParams("standard sequence needs x < y")
    if z_cap is None:
        z_cap = hs.G.J.hi
    psi_hi = _attained_ends(hs.G, hs.x0)[1]
    terms = [x, y]
    eps = 1e-13 * max(1.0, abs(y))
    truncated = False
    xs, ys, tables = np.array([x]), np.array([y]), {}
    while terms[-1] <= z_cap and len(terms) < n_cap:
        nxt, errors = _seq_steps(hs, xs, ys, np.array([terms[-1]]), tables)
        if (err := errors[0]) is not None:
            if isinstance(err, _StepBeyond) and err.above and psi_hi >= z_cap:
                # the next term lands past everything the anchor attains,
                # in particular past z_cap: nothing below the cap is missing
                break
            raise err
        nxt = float(nxt[0])
        if nxt <= terms[-1] + eps:
            raise StepUndefined(
                f"sequence stalled at {terms[-1]!r}; step degenerate")
        terms.append(nxt)
    else:
        truncated = bool(terms[-1] <= z_cap)
    return StandardSequence(x=x, y=y, terms=tuple(terms), truncated=truncated)


def archimedean_count(hs: HolderStructure, x: float, y: float, z: float,
                      n_cap: int = 10 ** 6) -> int:
    """|{n : x_y^n <= z}| for the standard sequence, finite or an error.

    If a step fails because the next term would land beyond the anchor's
    reach on the far side of z, the count is already complete and is
    returned; any other failure raises StepUndefined.  Stalled stepping or
    hitting n_cap raises NotArchimedeanWithinCap, which distinguishes the
    two situations in its message.
    """
    x, y, z = float(x), float(y), float(z)
    if not x < y:
        raise InvalidParams("archimedean count needs x < y")
    count, errors = _archimedean_counts(hs, np.array([x]), np.array([y]), np.array([z]),
                                        n_cap, {})
    if errors[0] is not None:
        raise errors[0]
    return int(count[0])


def _archimedean_counts(hs: HolderStructure, x, y, z, n_cap: int, tables):
    """archimedean_count for each (x[i], y[i], z[i]), x < y (not checked),
    the standard sequences stepped together by _seq_steps; `tables` as
    there.  Returns (count, errors): where a count fails, errors[i] holds
    the error archimedean_count raises."""
    psi_hi = _attained_ends(hs.G, hs.x0)[1]
    count = np.where(z < x, 0, 1)
    errors = np.full(x.size, None, dtype=object)
    t, nxt, stall = x.copy(), y.copy(), np.zeros(x.size, dtype=int)
    live = np.flatnonzero(~(z < x))
    while (live := live[nxt[live] <= z[live]]).size:
        count[live] += 1
        small = nxt[live] - t[live] <= 1e-14 * np.maximum(1.0, np.abs(nxt[live]))
        stall[live] = np.where(small, stall[live] + 1, 0)
        for i in live[(stall[live] >= 3) | (count[live] >= n_cap)]:
            errors[i] = NotArchimedeanWithinCap(
                f"sequence stalled near {float(nxt[i])!r} after {count[i]} terms"
                if stall[i] >= 3 else
                f"no term above {float(z[i])!r} within the cap of {n_cap} terms")
        live = live[errors[live] == None]  # noqa: E711
        t[live] = nxt[live]
        nxt[live], errs = _seq_steps(hs, x[live], y[live], t[live], tables)
        for i, e in zip(live, errs):
            if isinstance(e, _StepBeyond):
                # past the anchor's reach above z, every remaining term is
                # out of the set: the count is complete
                e = None if e.above and psi_hi >= z[i] else StepUndefined(str(e))
            errors[i] = e
        live = live[errs == None]  # noqa: E711
    return count, errors


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionRow:
    condition: str
    n_samples: int
    n_tested: int
    n_skipped: int
    max_residual: float
    witness: Mapping[str, float] | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    rows: tuple[ConditionRow, ...]
    passed: bool

    def row(self, condition: str) -> ConditionRow:
        for r in self.rows:
            if r.condition == condition:
                return r
        raise KeyError(condition)


def _reach(hs: HolderStructure) -> Interval:
    # Arguments usable on both sides of •: inside J and reachable from x0.
    J = hs.G.J
    pr = hs.psi_range
    lo, hi = max(J.lo, pr.lo), min(J.hi, pr.hi)
    if not lo < hi:
        raise InvalidParams(
            "the anchor cannot reach any of J; pick another x0")
    return Interval(lo, hi)


# check_holder_conditions' Archimedean row counts at most this many terms.
_ARCH_CAP = 10_000

# An error that skips a condition sample; any other error raises.
_SKIPS = (Undefined, RangeExceeded, OutOfDomain)


class _Samples:
    """The samples of one condition row, stepped together.  `live` holds
    the samples whose chain goes on; a step's error ends its sample, as a
    skip if it is one of _SKIPS, else as the row's error, which the first
    such sample in sample order raises."""

    def __init__(self, n: int):
        self.n, self.live, self.fatal = n, np.arange(n), {}

    def land(self, values, errors=None) -> np.ndarray:
        """A step's values at the live samples, as an array over all
        samples (NaN elsewhere); a sample whose error is not None ends."""
        out = np.full(self.n, np.nan)
        out[self.live] = values
        if errors is not None:
            bad = np.flatnonzero(errors != None)  # noqa: E711
            for i in bad:
                if not isinstance(errors[i], _SKIPS):
                    self.fatal.setdefault(int(self.live[i]), errors[i])
            self.live = np.delete(self.live, bad)
        return out

    def drop(self, mask) -> None:
        """End the live samples where `mask` (over all samples) holds."""
        self.live = self.live[~np.asarray(mask)[self.live]]

    def row(self, condition: str, lhs, rhs, tol: float, /, **witness) -> ConditionRow:
        """The row of the live samples' residuals: the witness, `witness`'
        arrays at the first largest, holds floats."""
        if self.fatal:
            raise self.fatal[min(self.fatal)]
        res = relative_residuals(lhs[self.live], rhs[self.live])
        res = np.where(res > 0.0, res, 0.0)  # a NaN residual is never the worst
        worst, point = 0.0, None
        if res.size and res.max() > 0.0:
            k = int(self.live[np.argmax(res)])
            worst, point = float(res.max()), {name: float(v[k]) for name, v in witness.items()}
        tested = int(self.live.size)
        return ConditionRow(condition, self.n, tested, self.n - tested, worst, point,
                            passed=bool(tested > 0 and worst <= tol))


def check_holder_conditions(hs: HolderStructure, samples: int = 120,
                            tol: float | None = None, seed: int = 0) -> ConditionReport:
    """Sampled residuals for the five scale-existence conditions plus
    associativity.

    Sampling stays inside the subinterval of J reachable from the anchor,
    where • is defined; tuples that still escape (an intermediate value
    leaving J or a solve leaving J') are skipped and counted.  Residuals use
    the symmetric relative scale, and a row's witness is its first largest.
    Condition (iii) is an existence scan and reports its first witness in
    scan order; condition (v) runs the Archimedean count with a cap of
    _ARCH_CAP terms and fails on any stall or cap hit, its first such
    sample the witness.  A failing sample counts as tested.

    Each sample draws a fixed block of rng.random() uniforms, a row's
    blocks all at once, in row order: 2 for (i), 4 for (ii), 3 for (iv),
    3 for (v) and 3 for associativity, 15 per sample in all.  A uniform u
    becomes a point of [lo, hi] as lo + (hi - lo) * u.  Row (iv) draws z
    between y•x and min(J.hi, y•reach.hi), the most y•w reaches for w in
    the reach.  Rows (iv) and (v) always draw their z uniform; a sample
    that cannot use it (no room above y•x, or no y far enough above x) is
    skipped.  A row's samples then run together: each step of its chain
    (ψ⁻¹ of a value, with ψ = G(x0, .), inversions at each sample's own
    argument, G itself) is one lane call (_invert_second_lanes,
    _invert_first_lanes) over the samples still running, every ψ⁻¹ from
    one table, and a sample ends at its first skip (Undefined, RangeExceeded, OutOfDomain).  Any other
    error raises, the first sample's in sample order.  Row (v) advances its
    standard sequences together (_archimedean_counts).
    """
    code, x0 = hs.G, hs.x0
    if samples < 0:
        raise InvalidParams(f"samples must be at least 0, got {samples}")
    if tol is None:
        tol = code.default_tolerance()
    rng = np.random.default_rng(seed)
    reach = _reach(hs)
    J = code.J
    tables = {}  # G(x, .) on J' by x, shared by every second-argument solve

    def spread(u):  # rng.uniform(reach.lo, reach.hi) from rng.random()'s u
        return reach.lo + (reach.hi - reach.lo) * u

    def psi_inv(s, ys):  # ψ⁻¹(ys) at the live samples
        return s.land(*_invert_second_lanes(code, x0, ys[s.live], tables=tables))

    def bullet_lanes(s, xs, ys, v=None):  # x•y at the live samples; v = ψ⁻¹(y) if known
        v = psi_inv(s, ys) if v is None else v
        return s.land(np.asarray(code(xs[s.live], v[s.live]), dtype=float))

    rows = []
    # (i) commutativity
    a, b = spread(rng.random(2 * samples)).reshape(samples, 2).T
    s = _Samples(samples)
    lhs = bullet_lanes(s, a, b)
    rhs = bullet_lanes(s, b, a)
    rows.append(s.row("i-commutativity", lhs, rhs, tol, x=a, y=b, xy=lhs, yx=rhs))

    # (ii) sextuple cancellation: from y•x = w•z and w•y' = z'•x conclude
    # y•y' = z'•z.  z and z' are solved so the hypotheses hold exactly.
    y, x, w, yp = spread(rng.random(4 * samples)).reshape(samples, 4).T
    s = _Samples(samples)
    s_x = psi_inv(s, x)
    A = bullet_lanes(s, y, x, s_x)
    s_z = s.land(*_invert_second_lanes(code, w[s.live], A[s.live], tables=tables))
    z = s.land(np.asarray(code(x0, s_z[s.live]), dtype=float))
    s_yp = psi_inv(s, yp)
    B = bullet_lanes(s, w, yp, s_yp)
    zp = s.land(*_invert_first_lanes(code, B[s.live], s_x[s.live]))
    lhs = bullet_lanes(s, y, yp, s_yp)
    rhs = bullet_lanes(s, zp, z)
    rows.append(s.row("ii-cancellation", lhs, rhs, tol, y=y, x=x, w=w, y_prime=yp,
                      z=z, z_prime=zp, lhs=lhs, rhs=rhs))

    # (iii) existence of x with x•x and (x•x)•x defined
    scan = reach.grid(129)
    v, errors = _invert_second_lanes(code, x0, scan, tables=tables)
    ok = errors == None  # noqa: E711
    aa = np.full(scan.size, np.nan)
    aa[ok] = code(scan[ok], v[ok])
    hits = np.flatnonzero(ok & J.contains(aa))
    stop = int(hits[0]) if hits.size else scan.size
    for e in errors[:stop]:
        if e is not None and not isinstance(e, RangeExceeded):
            raise e
    found = None if not hits.size else {
        "x": float(scan[stop]), "xx": float(aa[stop]),
        "xxx": float(code(float(aa[stop]), v[stop]))}
    tested = int(np.count_nonzero(ok[:stop + 1]))
    rows.append(ConditionRow(
        "iii-self-composable", int(scan.size), tested,
        int(scan.size) - tested, 0.0 if found else 1.0, found,
        passed=found is not None))

    # (iv) solvability of y•w = z whenever y•x < z, for z that y•w can
    # reach: y•w increases in w, so up to y•reach.hi
    y, x, u = rng.random(3 * samples).reshape(samples, 3).T
    y, x = spread(y), spread(x)
    s = _Samples(samples)
    yx = bullet_lanes(s, y, x)
    top = np.minimum(J.hi, bullet_lanes(s, y, np.full(samples, reach.hi)))
    s.drop(~(yx < top))  # no room above y•x (or a NaN): z goes unused
    lo, hi = yx + 0.05 * (top - yx), yx + 0.95 * (top - yx)
    z = lo + (hi - lo) * u
    s_w = s.land(*_invert_second_lanes(code, y[s.live], z[s.live], tables=tables))
    w = s.land(np.asarray(code(x0, s_w[s.live]), dtype=float))
    s.drop(~J.contains(w))
    back = bullet_lanes(s, y, w)
    rows.append(s.row("iv-solvable", back, z, tol, y=y, x=x, z=z, w=w, yw=back))

    # (v) Archimedean: the count terminates for sampled x < y <= z
    min_sep = 0.05 * reach.width
    a, b, u = rng.random(3 * samples).reshape(samples, 3).T
    a, b = spread(a), spread(b)
    x, y = np.minimum(a, b), np.maximum(a, b)
    y = np.where(y - x < min_sep, np.minimum(reach.hi, x + min_sep), y)
    z = y + (J.hi - y) * u
    s = _Samples(samples)
    s.drop(y - x < min_sep)  # no y at least min_sep above x: z goes unused
    count, errors = _archimedean_counts(hs, x[s.live], y[s.live], z[s.live], _ARCH_CAP,
                                        tables)
    stalled = np.array([isinstance(e, NotArchimedeanWithinCap) for e in errors], dtype=bool)
    errors[stalled] = None
    landed = (errors == None) & ~stalled  # noqa: E711
    max_count = int(count[landed].max()) if landed.any() else 0
    fails = s.land(stalled.astype(float), errors)
    row = s.row("v-archimedean", fails, np.zeros(samples), tol, x=x, y=y, z=z)
    rows.append(replace(row, note=f"max count {max_count}, cap {_ARCH_CAP}",
                        passed=row.passed and row.witness is None))

    # associativity (a consequence worth checking directly)
    a, b, c = spread(rng.random(3 * samples)).reshape(samples, 3).T
    s = _Samples(samples)
    s_c = psi_inv(s, c)
    bc = bullet_lanes(s, b, c, s_c)
    lhs = bullet_lanes(s, a, bc)
    ab = bullet_lanes(s, a, b)
    s.drop(~J.contains(ab))
    rhs = bullet_lanes(s, ab, c, s_c)
    rows.append(s.row("associativity", lhs, rhs, tol, x=a, y=b, z=c, lhs=lhs, rhs=rhs))

    return ConditionReport(
        rows=tuple(rows), passed=bool(all(r.passed for r in rows)))


# ---------------------------------------------------------------------------
# constructing f and g


def _zero_anchor(code: BivariateCode, x0: float) -> float:
    """Modifier with the smallest |G(x0, r) - x0| available in J'."""
    try:
        return invert_in_second(code, x0, x0)
    except RangeExceeded:
        pass
    J2 = code.J2
    dl = abs(float(code(x0, J2.lo)) - x0)
    dh = abs(float(code(x0, J2.hi)) - x0)
    return J2.lo if dl <= dh else J2.hi


def _solve_half_modifier(code: BivariateCode, anchor: float, base: float,
                         target: float) -> tuple[float, float]:
    """The half step from base to target: (r, m) with S_r(base) = m and
    S_r(m) = target, S_r(y) the composed step.

    m is a root on the bracket [base, target] (lawcore._root, within
    BISECT_TOL * max(1, |J|)) of G(m, rho) = G(target, anchor), where rho,
    the modifier with G(base, rho) = G(m, anchor), is a _root solve within
    BISECT_TOL * max(1, |J'|) from one 65-point table of G(base, .).  An m
    whose G(m, anchor) base cannot reach reads +-inf; a rho solve that
    fails raises its error at once.  r is m's rho; one code call checks
    both values of the landed step to 1e-8 relative.
    """
    J2 = code.J2
    rs = _table(J2.lo, J2.hi, 0.0)[0]
    table = (rs, np.asarray(code(base, rs), dtype=float))
    lo_v, hi_v = sorted((table[1][0], table[1][-1]))
    r_tol = BISECT_TOL * max(1.0, J2.width)
    seen = {}  # m -> (rho, G(m, anchor))

    def landed(ms):  # G(m, rho) for each m
        vs = np.asarray(code(ms, anchor), dtype=float)
        rhos = np.where(vs > hi_v, np.inf, -np.inf)
        inner = np.flatnonzero(~(vs > hi_v) & ~(vs < lo_v))
        for i in inner:
            rhos[i] = _root(lambda r: code(base, r), J2.lo, J2.hi, vs[i], r_tol, table)
        out = rhos.copy()
        out[inner] = code(ms[inner], rhos[inner])
        seen.update(zip(ms.tolist(), zip(rhos.tolist(), vs.tolist())))
        return out

    ends = np.array(sorted((float(base), float(target))))
    bracket = (ends, landed(ends))
    goal = seen[float(target)][1]
    m = _root(landed, ends[0], ends[1], goal, BISECT_TOL * max(1.0, code.J.width), bracket)
    r, v = seen[m]
    got = np.asarray(code(np.array([base, m]), r), dtype=float)
    if not np.all(np.abs(got - [v, goal]) <= 1e-8 * np.maximum(1.0, np.abs([v, goal]))):
        raise RangeExceeded(
            f"half-step solve landed at {got!r}, wanted {[v, goal]!r}")
    return r, m


def construct_f(hs: HolderStructure, r0: float | None = None,
                depth: int = 20) -> MonotoneFunction:
    """Build the additive scale f on the part of J the anchor orbit covers.

    Gauge: f(x0) = 0 and g(r0) = +1 or -1 according to whether the unit
    modifier r0, which must lie in J' (else InvalidParams), moves the
    anchor up or down.  The orbit of x0 under r0 (run forward by
    application, backward by inversion) pins f at the integers.
    It may take at most _MAX_KNOTS >> levels steps each way, or it raises
    NotArchimedeanWithinCap.  The knots are two arrays in the orbit's
    order: the exact dyadic step counts n = f / unit and their points y.

    Each refinement level solves for the midpoint of the adjacent pair
    whose left knot has the smallest |n| (the lower n wins a tie) and the
    modifier whose composed step, taken twice, spans that pair
    (_solve_half_modifier), then fills in the midpoints of all pairs with
    it.  A level that halves the last level's pair again aims at that
    level's solved midpoint, not at the fill's knot.  Refinement stops at
    level min(depth, LEVEL_CAP), after which knots are already denser than
    any tolerance in use.

    Modifiers and knots are roots within BISECT_TOL * max(1, |J'|) and
    BISECT_TOL * max(1, |J|), not bisection's bits.
    """
    code, x0 = hs.G, hs.x0
    J = code.J
    if depth < 1:
        raise InvalidParams("depth must be at least 1")
    if r0 is None:
        r0 = suggest_r0(hs)
    r0 = float(r0)
    if not code.J2.contains(r0):
        raise InvalidParams(f"unit modifier {r0!r} outside [{code.J2.lo}, {code.J2.hi}]")
    disp = float(code(x0, r0)) - x0
    if abs(disp) <= 1e-12 * max(1.0, abs(x0)):
        raise UnitDegenerate(
            f"G(x0, r0) = x0 at x0={x0!r}, r0={r0!r}; no unit step")
    unit = 1.0 if disp > 0 else -1.0
    levels = min(int(depth), LEVEL_CAP)
    max_steps = _MAX_KNOTS >> levels

    def back(y):
        try:
            return invert_in_first(code, y, r0)
        except RangeExceeded:
            return np.nan  # outside J

    fwd, bwd = [x0], [x0]
    for move, sign, walk in ((lambda y: float(code(y, r0)), 1, fwd), (back, -1, bwd)):
        while J.contains(y_next := move(walk[-1])):
            # an orbit that does not move strictly onwards stays put for good
            if not sign * unit * (y_next - walk[-1]) > 0:
                raise NotArchimedeanWithinCap(
                    f"anchor orbit stalled at {y_next!r} (previous point {walk[-1]!r})")
            if len(walk) > max_steps:
                raise NotArchimedeanWithinCap(
                    f"anchor orbit from {x0!r} under {r0!r} takes more than "
                    f"{max_steps} steps each way at {levels} levels; "
                    f"pick a larger unit or a smaller depth")
            walk.append(y_next)
    if len(fwd) + len(bwd) < 4:
        raise OrbitEscaped(
            f"orbit from {x0!r} under {r0!r} leaves J after "
            f"{len(fwd) + len(bwd) - 2} step(s); pick a smaller unit")
    ns = np.arange(1.0 - len(bwd), len(fwd))
    ys = np.array(bwd[:0:-1] + fwd, dtype=float)

    anchor = _zero_anchor(code, x0)
    fill_tol = BISECT_TOL * max(1.0, J.width)

    last = None
    for level in range(1, levels + 1):
        h = 0.5 ** level
        lefts = np.flatnonzero(np.diff(ns) == 2 * h)
        if lefts.size == 0:
            raise RangeExceeded("no adjacent pair left to halve")
        # Solve for the level modifier against the pair nearest the anchor.
        b = lefts[np.argmin(np.abs(ns[lefts]))]
        # Halving the last level's pair again, aim at its solved midpoint
        # rather than the fill's, so the fill's solve error stays out of r.
        target = mid if ns[b] == last else ys[b + 1]
        r, mid = _solve_half_modifier(code, anchor, ys[b], target)
        last = ns[b]

        mids = np.asarray(code(ys[lefts], r), dtype=float)
        sols, errors = _invert_first_lanes(code, mids, anchor, tol=fill_tol)
        ok = errors == None  # noqa: E711
        for err in errors[~ok]:
            if hasattr(err, "nan_argument"):
                raise err
        ns = np.insert(ns, lefts[ok] + 1, ns[lefts[ok]] + h)
        ys = np.insert(ys, lefts[ok] + 1, sols[ok])

    # ascending f, hence ascending y; stalled knots are dropped
    fs, ys = _strictify(unit * ns[::int(unit)], ys[::int(unit)])
    return MonotoneFunction(ys, fs, INCREASING)


def construct_g(hs: HolderStructure, f: MonotoneFunction) -> MonotoneFunction:
    """Transport f through the anchor slice: g(s) = f(G(x0, s)) at 1,025
    points of J'.

    Modifiers whose slice value falls outside f's covered interval are
    trimmed away, so the result may live on a subinterval of J'; its width
    relative to J' is the caller's clipping report.
    """
    code, x0 = hs.G, hs.x0
    J2 = code.J2
    sgrid = J2.grid(1025)
    vals = np.asarray(code(x0, sgrid), dtype=float)
    dom = f.domain
    slack = 1e-9 * max(1.0, dom.width)
    inside = (vals >= dom.lo - slack) & (vals <= dom.hi + slack)
    if not np.any(inside):
        raise OutOfDomain(
            "G(x0, .) never enters the interval where f is defined")
    sgrid = sgrid[inside]
    gvals = np.asarray(f(np.clip(vals[inside], dom.lo, dom.hi)), dtype=float)
    sgrid, gvals = _strictify(sgrid, gvals)
    if sgrid.size < 2:
        raise OutOfDomain("g collapses to a point after trimming")
    direction = INCREASING if gvals[-1] > gvals[0] else DECREASING
    return MonotoneFunction(sgrid, gvals, direction)


def residual_report(rep: AdditiveRepresentation, code: BivariateCode,
                    grid=30, tolerance: float = 1e-3) -> CheckReport:
    """Compare the representation against the code on the covered box.

    The grid runs over the intersection of the code's domain with the
    tabulated coverage of f and g; points whose sum escapes the outer map
    are skipped and counted (they would raise RangeClipped pointwise).
    """
    ny, nr = _grid_sizes(grid, 2)
    Jy = code.J.intersect(rep.f.domain)
    Jr = code.J2.intersect(rep.g.domain)
    ygrid = Jy.grid(ny)
    rgrid = Jr.grid(nr)
    sums = (np.asarray(rep.f(ygrid), dtype=float)[:, None]
            + np.asarray(rep.g(rgrid), dtype=float)[None, :])
    outer = rep._outer()
    dom = outer.domain
    slack = 1e-9 * max(1.0, dom.width)
    ok = (sums >= dom.lo - slack) & (sums <= dom.hi + slack)
    vals = np.asarray(outer(np.clip(sums, dom.lo, dom.hi)), dtype=float)
    truth = np.asarray(code(ygrid[:, None], rgrid[None, :]), dtype=float)
    res = relative_residuals(vals, truth)
    return _reduce("reconstruction", (ygrid, rgrid), [(res, ok, (0, 0))],
                   int(np.count_nonzero(ok)), tolerance)


def symmetric_representation(code: BivariateCode, grid: int = 33,
                             tol: float | None = None, *,
                             x0: float | None = None, r0: float | None = None,
                             depth: int = 20,
                             const_tol: float = 1e-3) -> tuple[MonotoneFunction, float]:
    """For a symmetric code, the one-function form G(x, y) = h^-1(h(x)+h(y)).

    Checks symmetry on a grid first, then runs the constructive route and
    verifies that f - g is constant on the overlap of their domains; the
    constant K is the gauge offset between the two legs, and h = f - K
    satisfies h(G(x, y)) = h(x) + h(y).  Raises NotSymmetric either when
    G(x, y) != G(y, x) or when no consistent constant exists.
    """
    if tol is None:
        tol = code.default_tolerance()
    J, J2 = code.J, code.J2
    if abs(J.lo - J2.lo) > 1e-12 or abs(J.hi - J2.hi) > 1e-12:
        raise NotSymmetric(
            f"domains differ: [{J.lo}, {J.hi}] vs [{J2.lo}, {J2.hi}]")
    xs = J.grid(grid)
    V = np.asarray(code(xs[:, None], xs[None, :]), dtype=float)
    res = relative_residuals(V, V.T)
    worst = float(res.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(res)), res.shape)
        raise NotSymmetric(
            f"G({float(xs[i])!r}, {float(xs[j])!r}) differs from its swap "
            f"by {worst:.3e} (tolerance {tol:.1e})")

    hs = make_structure(code, x0)
    f = construct_f(hs, r0, depth)
    g = construct_g(hs, f)
    overlap = f.domain.intersect(g.domain)
    ts = overlap.grid(65)
    diffs = np.asarray(f(ts), dtype=float) - np.asarray(g(ts), dtype=float)
    K = float(np.median(diffs))
    spread = float(np.abs(diffs - K).max()) / max(1.0, abs(K))
    if spread > const_tol:
        raise NotSymmetric(
            f"f - g varies by {spread:.3e} over the overlap; "
            f"no consistent constant (tolerance {const_tol:.1e})")
    return f.shifted(-K), K


@dataclass(frozen=True)
class DifferentiabilityReport:
    """Central-difference slopes of f and g across a shrinking h ladder."""

    f_points: tuple[float, ...]
    g_points: tuple[float, ...]
    h_values: tuple[float, ...]
    f_estimates: tuple[tuple[float, ...], ...]
    g_estimates: tuple[tuple[float, ...], ...]
    f_ratio_dev: float
    g_ratio_dev: float
    f_margin: float
    g_margin: float
    ratio_band: float
    passed: bool


def _diff_ladder(fn: MonotoneFunction, dom: Interval, hs_rel, n_points=5):
    width = dom.width
    pts = dom.lo + width * np.linspace(0.2, 0.8, n_points)
    hvals = [width * h for h in hs_rel]
    ests = []
    for h in hvals:
        ests.append(tuple(
            float((fn(p + h) - fn(p - h)) / (2.0 * h)) for p in pts))
    dev = 0.0
    for prev, cur in zip(ests, ests[1:]):
        for a, b in zip(prev, cur):
            if abs(a) > 0:
                dev = max(dev, abs(b / a - 1.0))
    margin = min(abs(v) for v in ests[-1])
    return tuple(float(p) for p in pts), tuple(hvals), tuple(ests), dev, margin


def check_differentiability(rep: AdditiveRepresentation, code: BivariateCode,
                            h_sequence=(0.02, 0.01, 0.005),
                            ratio_band: float = 0.01,
                            margin_floor: float = 1e-6) -> DifferentiabilityReport:
    """Check that the tabulated f and g behave like differentiable functions.

    Central differences are taken at interior points for a ladder of step
    sizes (fractions of the domain width, large against the knot spacing).
    For differentiable underlying functions the estimates converge: the
    ratio of successive estimates must stay within ratio_band of 1, and the
    final estimates must stay away from zero by at least margin_floor.
    """
    f_dom = rep.f.domain.intersect(code.J)
    g_dom = rep.g.domain.intersect(code.J2)
    f_pts, hvals, f_ests, f_dev, f_margin = _diff_ladder(rep.f, f_dom, h_sequence)
    g_pts, _, g_ests, g_dev, g_margin = _diff_ladder(rep.g, g_dom, h_sequence)
    passed = (f_dev <= ratio_band and g_dev <= ratio_band
              and f_margin >= margin_floor and g_margin >= margin_floor)
    return DifferentiabilityReport(
        f_points=f_pts, g_points=g_pts, h_values=hvals,
        f_estimates=f_ests, g_estimates=g_ests,
        f_ratio_dev=float(f_dev), g_ratio_dev=float(g_dev),
        f_margin=float(f_margin), g_margin=float(g_margin),
        ratio_band=float(ratio_band), passed=bool(passed))
