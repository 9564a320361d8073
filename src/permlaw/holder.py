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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .axioms import CheckReport, relative_residuals
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
    _multisect,
    bisect_monotone_vec,
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
    "reconstruct",
    "residual_report",
    "symmetric_representation",
    "check_differentiability",
]

# Dyadic refinement never runs past this level: each level doubles the knot
# count, and 2^-12 of a unit step is already far below every tolerance in
# use, while depth-20 grids would hold millions of knots.
LEVEL_CAP = 12


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
    """A permutable code with a fixed anchor x0 and tabulated psi = G(x0, .)."""

    G: BivariateCode
    x0: float
    psi: MonotoneFunction

    @property
    def psi_range(self) -> Interval:
        ends = sorted((float(self.G(self.x0, self.G.J2.lo)),
                       float(self.G(self.x0, self.G.J2.hi))))
        return Interval(ends[0], ends[1])

    def bullet(self, x: float, y: float) -> float:
        return bullet(self, x, y)


def make_structure(code: BivariateCode, x0: float | None = None,
                   psi_points: int = 257) -> HolderStructure:
    J, J2 = code.J, code.J2
    if x0 is None:
        x0 = J.midpoint
    x0 = float(x0)
    if not J.contains(x0):
        raise InvalidParams(f"anchor {x0!r} outside [{J.lo}, {J.hi}]")
    sgrid = J2.grid(psi_points)
    vals = np.asarray(code(x0, sgrid), dtype=float)
    sgrid, vals = _strictify(sgrid, vals)
    if sgrid.size < 2:
        raise InvalidParams("G(x0, .) is numerically constant; pick another anchor")
    psi = MonotoneFunction(sgrid, vals, code.dir_second)
    return HolderStructure(G=code, x0=x0, psi=psi)


def _strictify(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Keep a subsequence whose ys advance strictly in their overall direction.
    if ys.size < 2:
        return xs, ys
    sign = 1.0 if ys[-1] >= ys[0] else -1.0
    eps = 1e-13 * max(1.0, float(np.abs(ys).max()))
    keep = [0]
    for i in range(1, ys.size):
        if sign * (ys[i] - ys[keep[-1]]) > eps:
            keep.append(i)
    idx = np.asarray(keep, dtype=int)
    return xs[idx], ys[idx]


def bullet(hs: HolderStructure, x: float, y: float) -> float:
    """x • y = G(x, v) with G(x0, v) = y; partial, raises Undefined."""
    code = hs.G
    try:
        v = invert_in_second(code, hs.x0, float(y))
    except RangeExceeded as exc:
        raise Undefined(
            f"{y!r} is not reachable from the anchor {hs.x0!r}: {exc}") from exc
    return float(code(float(x), v))


def suggest_r0(hs: HolderStructure, n_candidates: int = 33) -> float:
    """Pick a unit modifier whose anchor orbit has at least 4 points.

    Scans a grid over J', simulates the orbit from x0 in both directions,
    and keeps the candidate with the shortest orbit not shorter than 4
    points; that makes the unit step as large as possible while leaving
    enough integer points to refine between.  Among equals, a displacement
    whose sign agrees with dir_second wins, then the earlier grid point.
    """
    code, x0 = hs.G, hs.x0
    disp_eps = 1e-9 * max(1.0, abs(x0))
    want_positive = code.dir_second == INCREASING
    rs = code.J2.grid(n_candidates)
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
    J = code.J
    count = np.ones(rs.size, dtype=int)
    lanes = np.arange(rs.size)
    y = np.full(rs.size, float(x0))
    for _ in range(cap):
        if lanes.size == 0:
            break
        y[lanes] = np.asarray(code(y[lanes], rs[lanes]), dtype=float)
        lanes = lanes[J.contains(y[lanes])]
        count[lanes] += 1

    errors = np.full(rs.size, None, dtype=object)
    lanes = np.arange(rs.size)
    y = np.full(rs.size, float(x0))
    for _ in range(cap):
        if lanes.size == 0:
            break
        w, errs = _invert_first_lanes(code, y[lanes], rs[lanes])
        for i, e in zip(lanes, errs):
            if e is not None and not isinstance(e, RangeExceeded):
                errors[i] = e
        y[lanes] = w
        lanes = lanes[(errs == None) & J.contains(w)]  # noqa: E711
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


def _seq_step(hs: HolderStructure, x: float, y: float, t_prev: float) -> float:
    """One recursion step: solve y • t_prev = x • x' and return x'."""
    code, x0 = hs.G, hs.x0
    lo0, hi0 = _attained_ends(code, x0)
    slack = 1e-9 * max(1.0, abs(hi0), abs(lo0))
    if t_prev > hi0 + slack:
        raise _StepBeyond(f"term {t_prev!r} above the anchor's reach", above=True)
    if t_prev < lo0 - slack:
        raise _StepBeyond(f"term {t_prev!r} below the anchor's reach", above=False)
    s_t = invert_in_second(code, x0, min(max(t_prev, lo0), hi0))
    target = float(code(y, s_t))

    lo_x, hi_x = _attained_ends(code, x)
    slack = 1e-9 * max(1.0, abs(hi_x), abs(lo_x))
    if target > hi_x + slack:
        raise _StepBeyond(
            f"y•{t_prev!r} = {target!r} above what x = {x!r} can reach", above=True)
    if target < lo_x - slack:
        raise _StepBeyond(
            f"y•{t_prev!r} = {target!r} below what x = {x!r} can reach", above=False)
    s_next = invert_in_second(code, x, min(max(target, lo_x), hi_x))
    return float(code(x0, s_next))


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
    while terms[-1] <= z_cap and len(terms) < n_cap:
        try:
            nxt = _seq_step(hs, x, y, terms[-1])
        except _StepBeyond as exc:
            if exc.above and psi_hi >= z_cap:
                # the next term lands past everything the anchor attains,
                # in particular past z_cap: nothing below the cap is missing
                break
            raise
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
    if z < x:
        return 0
    psi_hi = _attained_ends(hs.G, hs.x0)[1]
    count = 1  # x itself
    t = x
    nxt = y
    stall = 0
    while nxt <= z:
        count += 1
        stall = stall + 1 if nxt - t <= 1e-14 * max(1.0, abs(nxt)) else 0
        if stall >= 3:
            raise NotArchimedeanWithinCap(
                f"sequence stalled near {nxt!r} after {count} terms")
        if count >= n_cap:
            raise NotArchimedeanWithinCap(
                f"no term above {z!r} within the cap of {n_cap} terms")
        t = nxt
        try:
            nxt = _seq_step(hs, x, y, t)
        except _StepBeyond as exc:
            if exc.above and psi_hi >= z:
                # The unsolvable term lies above the anchor's reach, hence
                # above z as well: every remaining term is out of the set.
                return count
            raise StepUndefined(str(exc)) from exc
    return count


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

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "n_samples": self.n_samples,
            "n_tested": self.n_tested,
            "n_skipped": self.n_skipped,
            "max_residual": self.max_residual,
            "witness": None if self.witness is None else dict(self.witness),
            "note": self.note,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ConditionReport:
    rows: tuple[ConditionRow, ...]
    passed: bool

    def row(self, condition: str) -> ConditionRow:
        for r in self.rows:
            if r.condition == condition:
                return r
        raise KeyError(condition)

    def to_json_dict(self) -> dict:
        return {
            "check": "holder-conditions",
            "rows": [r.to_json_dict() for r in self.rows],
            "pass": self.passed,
        }


def _reach(hs: HolderStructure) -> Interval:
    # Arguments usable on both sides of •: inside J and reachable from x0.
    J = hs.G.J
    pr = hs.psi_range
    lo, hi = max(J.lo, pr.lo), min(J.hi, pr.hi)
    if not lo < hi:
        raise InvalidParams(
            "the anchor cannot reach any of J; pick another x0")
    return Interval(lo, hi)


def check_holder_conditions(hs: HolderStructure, samples: int = 120,
                            tol: float | None = None, seed: int = 0,
                            arch_cap: int = 10_000) -> ConditionReport:
    """Sampled residuals for the five scale-existence conditions plus
    associativity.

    Sampling stays inside the subinterval of J reachable from the anchor,
    where • is defined; tuples that still escape (an intermediate value
    leaving J or a solve leaving J') are skipped and counted.  Residuals use
    the symmetric relative scale.  Condition (iii) is an existence scan and
    reports its witness; condition (v) runs the Archimedean count with a cap
    and fails on any stall or cap hit.
    """
    code = hs.G
    if tol is None:
        tol = code.default_tolerance()
    rng = np.random.default_rng(seed)
    reach = _reach(hs)
    J = code.J

    def draw():
        return float(rng.uniform(reach.lo, reach.hi))

    rows = []

    # (i) commutativity
    tested = skipped = 0
    worst = 0.0
    witness = None
    for _ in range(samples):
        a, b = draw(), draw()
        try:
            lhs = bullet(hs, a, b)
            rhs = bullet(hs, b, a)
        except (Undefined, OutOfDomain):
            skipped += 1
            continue
        tested += 1
        res = float(relative_residuals(lhs, rhs))
        if res > worst:
            worst = res
            witness = {"x": a, "y": b, "xy": lhs, "yx": rhs}
    rows.append(ConditionRow(
        "i-commutativity", samples, tested, skipped, worst, witness,
        passed=bool(tested > 0 and worst <= tol)))

    # (ii) sextuple cancellation: from y•x = w•z and w•y' = z'•x conclude
    # y•y' = z'•z.  z and z' are solved so the hypotheses hold exactly.
    tested = skipped = 0
    worst = 0.0
    witness = None
    for _ in range(samples):
        y, x, w, yp = draw(), draw(), draw(), draw()
        try:
            A = bullet(hs, y, x)
            s_z = invert_in_second(code, w, A)
            z = float(code(hs.x0, s_z))
            B = bullet(hs, w, yp)
            s_x = invert_in_second(code, hs.x0, x)
            zp = invert_in_first(code, B, s_x)
            lhs = bullet(hs, y, yp)
            rhs = bullet(hs, zp, z)
        except (Undefined, RangeExceeded, OutOfDomain):
            skipped += 1
            continue
        tested += 1
        res = float(relative_residuals(lhs, rhs))
        if res > worst:
            worst = res
            witness = {"y": y, "x": x, "w": w, "y_prime": yp,
                       "z": z, "z_prime": zp, "lhs": lhs, "rhs": rhs}
    rows.append(ConditionRow(
        "ii-cancellation", samples, tested, skipped, worst, witness,
        passed=bool(tested > 0 and worst <= tol)))

    # (iii) existence of x with x•x and (x•x)•x defined
    found = None
    scan = reach.grid(129)
    tested = 0
    for a in scan:
        a = float(a)
        try:
            aa = bullet(hs, a, a)
            tested += 1
            if not J.contains(aa):
                continue
            aaa = bullet(hs, aa, a)
        except (Undefined, OutOfDomain):
            continue
        found = {"x": a, "xx": aa, "xxx": float(aaa)}
        break
    rows.append(ConditionRow(
        "iii-self-composable", int(scan.size), tested,
        int(scan.size) - tested, 0.0 if found else 1.0, found,
        passed=found is not None))

    # (iv) solvability of y•w = z whenever y•x < z
    tested = skipped = 0
    worst = 0.0
    witness = None
    for _ in range(samples):
        y, x = draw(), draw()
        try:
            v = bullet(hs, y, x)
        except (Undefined, OutOfDomain):
            skipped += 1
            continue
        if v >= J.hi:
            skipped += 1
            continue
        z = float(rng.uniform(v + 0.05 * (J.hi - v), v + 0.95 * (J.hi - v)))
        try:
            s_w = invert_in_second(code, y, z)
            w = float(code(hs.x0, s_w))
            if not J.contains(w):
                skipped += 1
                continue
            back = bullet(hs, y, w)
        except (Undefined, RangeExceeded, OutOfDomain):
            skipped += 1
            continue
        tested += 1
        res = float(relative_residuals(back, z))
        if res > worst:
            worst = res
            witness = {"y": y, "x": x, "z": z, "w": w, "yw": back}
    rows.append(ConditionRow(
        "iv-solvable", samples, tested, skipped, worst, witness,
        passed=bool(tested > 0 and worst <= tol)))

    # (v) Archimedean: the count terminates for sampled x < y <= z
    tested = skipped = 0
    failures = 0
    witness = None
    max_count = 0
    min_sep = 0.05 * reach.width
    for _ in range(samples):
        a, b = draw(), draw()
        x_, y_ = min(a, b), max(a, b)
        if y_ - x_ < min_sep:
            y_ = min(reach.hi, x_ + min_sep)
            if y_ - x_ < min_sep:
                skipped += 1
                continue
        z = float(rng.uniform(y_, J.hi))
        try:
            n = archimedean_count(hs, x_, y_, z, n_cap=arch_cap)
        except StepUndefined:
            skipped += 1
            continue
        except NotArchimedeanWithinCap:
            failures += 1
            if witness is None:
                witness = {"x": x_, "y": y_, "z": z}
            continue
        tested += 1
        max_count = max(max_count, n)
    rows.append(ConditionRow(
        "v-archimedean", samples, tested, skipped,
        0.0 if failures == 0 else 1.0, witness,
        passed=bool(tested > 0 and failures == 0),
        note=f"max count {max_count}, cap {arch_cap}"))

    # associativity (a consequence worth checking directly)
    tested = skipped = 0
    worst = 0.0
    witness = None
    for _ in range(samples):
        a, b, c = draw(), draw(), draw()
        try:
            bc = bullet(hs, b, c)
            lhs = bullet(hs, a, bc)
            ab = bullet(hs, a, b)
            if not J.contains(ab):
                skipped += 1
                continue
            rhs = bullet(hs, ab, c)
        except (Undefined, OutOfDomain):
            skipped += 1
            continue
        tested += 1
        res = float(relative_residuals(lhs, rhs))
        if res > worst:
            worst = res
            witness = {"x": a, "y": b, "z": c, "lhs": lhs, "rhs": rhs}
    rows.append(ConditionRow(
        "associativity", samples, tested, skipped, worst, witness,
        passed=bool(tested > 0 and worst <= tol)))

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


def _composed_lanes(code: BivariateCode, anchor: float, atts: tuple[float, float],
                    ys, rs: np.ndarray):
    """Apply r then undo the anchor modifier, lane by lane: net f-shift
    g(r) - g(anchor).

    `atts` = (G(J.lo, anchor), G(J.hi, anchor)).  A lane whose intermediate
    value is past what the anchor modifier can reach from J gets +/-inf, so
    callers can bisect through the failure.  Returns (values, errors) as
    _invert_first_lanes does.
    """
    lo_att, hi_att = atts
    v = np.asarray(code(ys, rs), dtype=float)
    out = np.where(v > hi_att, np.inf, -np.inf)
    errors = np.full(rs.size, None, dtype=object)
    inner = ~(v > hi_att) & ~(v < lo_att)
    out[inner], errors[inner] = _invert_first_lanes(code, v[inner], anchor)
    return out, errors


def _solve_half_modifier(code: BivariateCode, anchor: float,
                         atts: tuple[float, float], base: float,
                         target: float) -> float:
    """Find r with S_r(S_r(base)) = target, S_r(y) the composed step.

    A bisection over r (lawcore._multisect) whose rounds each evaluate
    several levels of the bisection tree in one lane-wise call.  The result
    is the plain scalar bisection's bit for bit provided the code evaluates
    an array elementwise as it evaluates each element alone, as every corpus
    code does.
    """

    def twice(rs):
        y1, errors = _composed_lanes(code, anchor, atts, base, rs)
        on = np.flatnonzero(np.isfinite(y1))
        if on.size:
            y1[on], errors[on] = _composed_lanes(code, anchor, atts, y1[on], rs[on])
        return y1, errors

    J2 = code.J2
    r = _multisect(twice, J2.lo, J2.hi, float(target),
                   tol=BISECT_TOL * max(1.0, J2.width))
    (got,), (err,) = twice(np.array([r]))
    if err is not None:
        raise err
    got = float(got)
    if not np.isfinite(got) or abs(got - target) > 1e-8 * max(1.0, abs(target)):
        raise RangeExceeded(
            f"half-step solve landed at {got!r}, wanted {target!r}")
    return float(r)


def _require_progress(y: float, y_next: float, direction: float) -> None:
    # A deterministic orbit that does not move strictly onwards stays put
    # for good: without this stop it would loop forever.
    if not direction * (y_next - y) > 0:
        raise NotArchimedeanWithinCap(
            f"anchor orbit stalled at {y_next!r} (previous point {y!r})")


def construct_f(hs: HolderStructure, r0: float | None = None,
                depth: int = 20) -> MonotoneFunction:
    """Build the additive scale f on the part of J the anchor orbit covers.

    Gauge: f(x0) = 0 and g(r0) = +1 or -1 according to whether the unit
    modifier moves the anchor up or down.  The orbit of x0 under r0 (run
    forward by application, backward by inversion) pins f at the integers;
    each refinement level solves for a modifier pair whose composed step is
    half the previous one and fills in the midpoints, keeping exact dyadic
    bookkeeping for the f values.  Refinement stops at level
    min(depth, 12), after which knots are already denser than any
    tolerance in use.
    """
    code, x0 = hs.G, hs.x0
    J = code.J
    if depth < 1:
        raise InvalidParams("depth must be at least 1")
    if r0 is None:
        r0 = suggest_r0(hs)
    r0 = float(r0)
    disp = float(code(x0, r0)) - x0
    if abs(disp) <= 1e-12 * max(1.0, abs(x0)):
        raise UnitDegenerate(
            f"G(x0, r0) = x0 at x0={x0!r}, r0={r0!r}; no unit step")
    unit = 1.0 if disp > 0 else -1.0

    levels = min(int(depth), LEVEL_CAP)
    scale = 1 << levels
    pts: dict[int, float] = {0: x0}

    y = x0
    k = 0
    while True:
        y_next = float(code(y, r0))
        if not J.contains(y_next):
            break
        _require_progress(y, y_next, unit)
        y = y_next
        k += scale
        pts[k] = y
    forward = k // scale
    y = x0
    k = 0
    while True:
        try:
            y_next = invert_in_first(code, y, r0)
        except RangeExceeded:
            break
        if not J.contains(y_next):
            break
        _require_progress(y, y_next, -unit)
        y = y_next
        k -= scale
        pts[k] = y
    backward = -k // scale
    if forward + backward < 2:
        raise OrbitEscaped(
            f"orbit from {x0!r} under {r0!r} leaves J after "
            f"{forward + backward} step(s); pick a smaller unit")

    anchor = _zero_anchor(code, x0)
    lo_att = float(code(J.lo, anchor))
    hi_att = float(code(J.hi, anchor))

    for level in range(1, levels + 1):
        step = scale >> level
        # Solve for the level modifier against the pair nearest the anchor.
        pair = None
        for kk in sorted(pts, key=abs):
            if kk + 2 * step in pts:
                pair = kk
                break
        if pair is None:
            raise RangeExceeded("no adjacent pair left to halve")
        r_level = _solve_half_modifier(
            code, anchor, (lo_att, hi_att), pts[pair], pts[pair + 2 * step])

        keys = sorted(pts)
        lefts = [kk for kk, nk in zip(keys, keys[1:]) if nk - kk == 2 * step]
        if not lefts:
            continue
        base_ys = np.asarray([pts[kk] for kk in lefts], dtype=float)
        mids = np.asarray(code(base_ys, r_level), dtype=float)
        ok_t = (mids >= min(lo_att, hi_att)) & (mids <= max(lo_att, hi_att))
        sols, ok_s = bisect_monotone_vec(
            lambda w: code(w, anchor), J.lo, J.hi, mids,
            tol=BISECT_TOL * max(1.0, J.width))
        for kk, m, good in zip(lefts, sols, ok_t & ok_s):
            if good:
                pts[kk + step] = float(m)

    items = sorted(pts.items())
    f_ints = np.asarray([k for k, _ in items], dtype=float)
    y_vals = np.asarray([v for _, v in items], dtype=float)
    order = np.argsort(unit * f_ints)  # ascending f, hence ascending y
    f_vals = f_ints[order] * (unit / scale)
    y_vals = y_vals[order]
    f_vals, y_vals = _strictify(f_vals, y_vals)  # drop stalled knots
    return MonotoneFunction(y_vals, f_vals, INCREASING)


def construct_g(hs: HolderStructure, f: MonotoneFunction,
                n_points: int = 1025) -> MonotoneFunction:
    """Transport f through the anchor slice: g(s) = f(G(x0, s)).

    Modifiers whose slice value falls outside f's covered interval are
    trimmed away, so the result may live on a subinterval of J'; its width
    relative to J' is the caller's clipping report.
    """
    code, x0 = hs.G, hs.x0
    J2 = code.J2
    sgrid = J2.grid(n_points)
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


def reconstruct(rep: AdditiveRepresentation, y, r):
    """Evaluate the representation; sums outside the outer map raise
    RangeClipped."""
    return rep.reconstruct(y, r)


def residual_report(rep: AdditiveRepresentation, code: BivariateCode,
                    grid=30, tolerance: float = 1e-3) -> CheckReport:
    """Compare the representation against the code on the covered box.

    The grid runs over the intersection of the code's domain with the
    tabulated coverage of f and g; points whose sum escapes the outer map
    are skipped and counted (they would raise RangeClipped pointwise).
    """
    if isinstance(grid, int):
        ny = nr = grid
    else:
        ny, nr = (int(v) for v in grid)
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
    skipped = 1.0 - float(np.mean(ok))
    vals = np.asarray(outer(np.clip(sums, dom.lo, dom.hi)), dtype=float)
    truth = np.asarray(code(ygrid[:, None], rgrid[None, :]), dtype=float)
    res = relative_residuals(vals, truth)
    res_masked = np.where(ok, res, -1.0)
    if not np.any(ok):
        return CheckReport.from_values(
            "reconstruction", (ny, nr), np.inf, np.inf, None, skipped, tolerance)
    i, j = np.unravel_index(int(np.argmax(res_masked)), res_masked.shape)
    return CheckReport.from_values(
        "reconstruction", (ny, nr), float(res_masked[i, j]),
        float(res[ok].mean()), (float(ygrid[i]), float(rgrid[j])),
        skipped, tolerance)


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

    def to_json_dict(self) -> dict:
        return {
            "check": "differentiability",
            "h_values": list(self.h_values),
            "f_ratio_dev": self.f_ratio_dev,
            "g_ratio_dev": self.g_ratio_dev,
            "f_margin": self.f_margin,
            "g_margin": self.g_margin,
            "ratio_band": self.ratio_band,
            "pass": self.passed,
        }


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
