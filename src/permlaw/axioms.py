"""Numerical checks for code axioms, permutability, and comonotonicity.

Every check evaluates the code on a finite grid and reports a residual in a
symmetric relative scale:

    |lhs - rhs| / max(1, |lhs|, |rhs|)

so exact symmetry gives residual zero regardless of which side is larger,
and values below 1 are compared absolutely.  A check passes when its worst
residual is at or below the tolerance (defaults: 1e-9 for closed-form codes,
1e-4 for interpolated ones).

Composed checks such as permutability need inner values G(y, r) to land back
in the first-variable domain.  Triples whose inner value escapes are skipped
and counted; if more than 90% of a grid is skipped the check refuses to
report a verdict and raises DomainTooSmall instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lawcore import (
    INCREASING,
    BivariateCode,
    Interval,
    InvalidParams,
    LawError,
    MonotoneFunction,
    _invert_first_lanes,
    _json_fields,
)

__all__ = [
    "DomainTooSmall",
    "NotComonotonic",
    "CheckReport",
    "SolvabilityReport",
    "ComonotonicReport",
    "ComonotonicPair",
    "ImplicationReport",
    "relative_residuals",
    "check_code_axioms",
    "check_solvability",
    "check_permutability",
    "check_quasi_permutability",
    "check_comonotonic",
    "construct_F",
    "check_M_permutable_implies_G",
]

SKIP_LIMIT = 0.9

# The composed checks evaluate the outer code on at most this many grid
# points per call (whole rows of the first variable, at least one row), so
# their working memory stays bounded as the grid grows.
_CHUNK_POINTS = 1 << 17

# A block's residuals are worked out a few whole x rows at a time, at most
# this many points (or one row), so that their temporaries stay in cache;
# the block is still reduced as one.
_TILE_POINTS = 1 << 15

# A grid of more points than this is a configuration error: the chunks
# bound a check's memory, and this cap bounds its time.
_MAX_GRID_POINTS = 256 ** 3


class DomainTooSmall(LawError):
    """Too few composed grid points stayed inside the domain to judge."""


class NotComonotonic(LawError):
    """The (M, G) pair does not order the domain the same way."""


def relative_residuals(lhs, rhs):
    """Symmetric relative difference, floored at scale 1."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


def _grid_sizes(grid, n: int) -> tuple[int, ...]:
    """n grid sizes from an int or from 1 to n sizes; missing sizes repeat
    the last one given."""
    g = (int(grid),) if isinstance(grid, int) else tuple(int(v) for v in grid)
    if not 1 <= len(g) <= n:
        raise InvalidParams(f"expected 1 to {n} grid sizes, got {grid!r}")
    return g + g[-1:] * (n - len(g))


def _axis_grid(interval: Interval, n: int, spacing: str):
    if spacing == "linear":
        return interval.grid(n)
    if spacing == "log":
        if interval.lo <= 0:
            raise InvalidParams("log spacing needs a positive interval")
        inset = 1e-9 * interval.width
        return np.geomspace(interval.lo + inset, interval.hi - inset, n)
    raise InvalidParams(f"unknown spacing {spacing!r}")


def _tol(tolerance, *codes: BivariateCode) -> float:
    if tolerance is not None:
        return float(tolerance)
    return max(code.default_tolerance() for code in codes)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one grid check.  passed is max_residual <= tolerance."""

    check: str
    grid: tuple[int, ...]
    max_residual: float
    mean_residual: float
    worst_point: tuple[float, ...] | None
    skipped_fraction: float
    tolerance: float
    passed: bool

    @classmethod
    def from_values(cls, check, grid, max_residual, mean_residual,
                    worst_point, skipped_fraction, tolerance) -> "CheckReport":
        return cls(
            check=str(check),
            grid=tuple(int(g) for g in grid),
            max_residual=float(max_residual),
            mean_residual=float(mean_residual),
            worst_point=None if worst_point is None
            else tuple(float(v) for v in worst_point),
            skipped_fraction=float(skipped_fraction),
            tolerance=float(tolerance),
            passed=bool(float(max_residual) <= float(tolerance)),
        )

    def to_json_dict(self) -> dict:
        return _json_fields(self)


def _reduce(check: str, axes, blocks, n_in: int, tol: float) -> CheckReport:
    """CheckReport of masked residuals given box by box.

    `blocks` yields (residuals, in_domain, origin): a box of the grid
    spanned by `axes` whose first point has index `origin`.  The boxes come
    in C order of their first axis (blocks of whole rows, in order), hold
    every in-domain point of the grid between them, and n_in counts those
    points.  The worst point is the first largest in-domain residual in C
    order (NaN counting as largest, as np.argmax has it), so it does not
    depend on how the grid was cut or boxed.  The mean sums each box's
    in-domain residuals as the box comes and divides the total by n_in: a
    box holds its block's in-domain points in the block's C order, so
    boxing leaves the sum's bits alone, and for a grid of one block it is
    np.mean of them.  With no point in the domain, the residuals are
    infinite and there is no worst point.
    """
    shape = tuple(a.size for a in axes)
    size = int(np.prod(shape))
    total = 0.0
    block_max, block_at = [], []
    for res, ok, origin in blocks:
        masked = np.where(ok, res, -1.0)
        i = int(np.argmax(masked))
        block_max.append(masked.flat[i])
        block_at.append(tuple(o + int(k) for o, k in
                              zip(origin, np.unravel_index(i, masked.shape))))
        total += np.sum(res[ok])
    skipped = 1.0 - n_in / size
    if n_in == 0:
        return CheckReport.from_values(check, shape, np.inf, np.inf, None, skipped, tol)
    b = int(np.argmax(block_max))
    return CheckReport.from_values(
        check, shape, block_max[b], total / n_in,
        tuple(a[i] for a, i in zip(axes, block_at[b])), skipped, tol)


def check_code_axioms(code: BivariateCode, grid=33, tolerance=None) -> CheckReport:
    """Monotonicity in both variables plus a continuity proxy.

    Monotonicity: wrong-direction steps along grid rows and columns,
    measured in the symmetric relative scale.  A step of zero (a flat spot
    at the working resolution) is not counted as a reversal.

    Continuity proxy: the largest adjacent jump must shrink by a factor of
    at least 1.5 when the grid step is halved.  Where it shrinks less along
    an axis, that axis's step is halved twice more and the last halving
    (129 -> 257 points on the default grid, the other axis as given) is
    judged instead: a continuous law shrinks its jump by 2 once the grid
    resolves its narrow segments.  A jump that refuses to shrink indicates
    a discontinuity; the shortfall below 1.5 becomes the residual.
    """
    ny, nr = _grid_sizes(grid, 2)
    tol = _tol(tolerance, code)
    ygrid = code.J.grid(ny)
    rgrid = code.J2.grid(nr)
    V = np.asarray(code(ygrid[:, None], rgrid[None, :]), dtype=float)
    scale = max(1.0, float(np.abs(V).max()))

    sign2 = 1.0 if code.dir_second == INCREASING else -1.0
    d1 = np.diff(V, axis=0)
    d2 = sign2 * np.diff(V, axis=1)
    viol1 = np.maximum(0.0, -d1) / scale
    viol2 = np.maximum(0.0, -d2) / scale
    mon_res = max(float(viol1.max(initial=0.0)), float(viol2.max(initial=0.0)))
    if viol1.max(initial=0.0) >= viol2.max(initial=0.0) and viol1.size:
        i, j = np.unravel_index(int(np.argmax(viol1)), viol1.shape)
        mon_point = (float(ygrid[i]), float(rgrid[j]))
    elif viol2.size:
        i, j = np.unravel_index(int(np.argmax(viol2)), viol2.shape)
        mon_point = (float(ygrid[i]), float(rgrid[j]))
    else:
        mon_point = (float(ygrid[0]), float(rgrid[0]))

    def tabulate(n_y, n_r):
        yk, rk = code.J.grid(n_y), code.J2.grid(n_r)
        return yk, rk, np.asarray(code(yk[:, None], rk[None, :]), dtype=float)

    def shrink(coarse, fine, axis):
        # The largest jump along axis on the coarse values and on the fine
        # table, and where the fine one lies.
        yf, rf, Vf = fine
        dfine = np.abs(np.diff(Vf, axis=axis))
        i, j = np.unravel_index(int(np.argmax(dfine)), dfine.shape)
        return (float(np.abs(np.diff(coarse, axis=axis)).max(initial=0.0)),
                float(dfine.max(initial=0.0)), (float(yf[i]), float(rf[j])))

    fine = tabulate(2 * ny - 1, 2 * nr - 1)
    cont_res = 0.0
    cont_point = mon_point
    for axis in (0, 1):
        jump_c, jump_f, point = shrink(V, fine, axis)
        if jump_f and jump_c / jump_f < 1.5:
            # A continuous law whose narrow segments the grid does not yet
            # resolve shrinks its jump slowly at first, while a jump keeps
            # not shrinking: judge by the halving after two more, along
            # this axis only.
            n = (ny, nr)[axis]
            c, f = (((m, nr), (ny, m))[axis] for m in (4 * n - 3, 8 * n - 7))
            jump_c, jump_f, point = shrink(tabulate(*c)[2], tabulate(*f), axis)
        if jump_f == 0.0:
            continue
        res = max(0.0, (1.5 - jump_c / jump_f) / 1.5)
        if res > cont_res:
            cont_res, cont_point = res, point

    if mon_res >= cont_res:
        worst, worst_point = mon_res, mon_point
    else:
        worst, worst_point = cont_res, cont_point
    mean = float(np.mean(np.concatenate([viol1.ravel(), viol2.ravel()])))
    return CheckReport.from_values(
        "axioms", (ny, nr), worst, mean, worst_point, 0.0, tol)


@dataclass(frozen=True)
class SolvabilityReport:
    """Coverage of solving in the first variable, plus anchor candidates.

    s1_fraction: the share of sampled targets p = code(w, t) solved for w
    (check_solvability).  For a continuous strictly monotone code this is
    1.0; a code with a jump leaves its gap unreachable and the share drops.

    x0_ranges: for each anchor candidate x0, the interval of values
    reachable as code(x0, t) with t sweeping the second domain.  best_x0 is
    the candidate whose reachable interval covers the most of the
    first-variable domain, which is what anchor-based constructions care
    about.
    """

    s1_fraction: float
    x0_ranges: tuple[tuple[float, float, float], ...]
    best_x0: float
    best_x0_range: tuple[float, float]
    grid: tuple[int, int]
    passed: bool

    def to_json_dict(self) -> dict:
        return _json_fields(self, "solvability")


def _ordered(u, v, n: int) -> tuple[list, list]:
    """sorted((u[i], v[i])) for n pairs as two float lists, NaNs included."""
    u, v = (np.broadcast_to(np.asarray(a, dtype=float), (n,)) for a in (u, v))
    swap = v < u
    return np.where(swap, v, u).tolist(), np.where(swap, u, v).tolist()


def check_solvability(code: BivariateCode, grid=21) -> SolvabilityReport:
    """Sample first-variable solvability and the anchors' reach.

    For each of nt modifiers t on J', n_targets targets p spread over the
    middle 98% of code(., t)'s range on J are solved for w in J in one lane
    call, each as invert_in_first solves it alone.  s1_fraction counts the
    solved ones: a target past that range or in a jump's gap (it fails the
    post-check) is a miss; the first NaN met (t-major) raises LawError.
    The anchors' reach is read at nt anchors spread over J.
    """
    nt, n_targets = _grid_sizes(grid, 2)
    if n_targets < 1:
        raise InvalidParams(f"need at least one target per modifier, got {n_targets}")
    J, J2 = code.J, code.J2
    tgrid = J2.grid(nt)

    lo, hi = _ordered(code(J.lo, tgrid), code(J.hi, tgrid), nt)
    targets = [np.linspace(a + 0.01 * (b - a), b - 0.01 * (b - a), n_targets)
               for a, b in zip(lo, hi)]
    _, errors = _invert_first_lanes(code, np.concatenate(targets),
                                    np.repeat(tgrid, n_targets))
    solved = errors == None  # noqa: E711
    for e in errors[~solved]:
        if hasattr(e, "nan_argument"):
            raise e
    s1 = np.count_nonzero(solved) / max(1, errors.size)

    x0s = J.grid(nt)
    reach_lo, reach_hi = _ordered(code(x0s, J2.lo), code(x0s, J2.hi), x0s.size)
    ranges = list(zip(x0s.tolist(), reach_lo, reach_hi))
    best = max(ranges, key=lambda row: min(row[2], J.hi) - max(row[1], J.lo))
    return SolvabilityReport(
        s1_fraction=float(s1),
        x0_ranges=tuple(ranges),
        best_x0=float(best[0]),
        best_x0_range=(best[1], best[2]),
        grid=(nt, n_targets),
        passed=bool(s1 == 1.0),
    )


def check_permutability(code: BivariateCode, grid=20, tolerance=None) -> CheckReport:
    """Residuals of G(G(y, r), t) = G(G(y, t), r) over a y x r x t grid.

    Triples where an inner value G(y, r) or G(y, t) leaves the first-variable
    domain are skipped and counted in skipped_fraction.  Raises DomainTooSmall
    if more than 90% of the grid is skipped.  This is quasi-permutability
    with M = G, reported under its own name.
    """
    return _composed_check("permutability", code, code, grid, tolerance)


def check_quasi_permutability(code_M: BivariateCode, code_G: BivariateCode,
                              grid=20, tolerance=None) -> CheckReport:
    """Residuals of M(G(x, s), t) = M(G(x, t), s).

    The x grid runs over the shared first-variable domain and s, t over the
    shared second-variable domain; inner values must land in M's
    first-variable domain or the triple is skipped.
    """
    return _composed_check("quasi-permutability", code_M, code_G, grid, tolerance)


def _composed_check(check: str, code_M: BivariateCode, code_G: BivariateCode,
                    grid, tolerance) -> CheckReport:
    """M(G(x, s), t) against M(G(x, t), s), block by block of whole x rows
    of at most _CHUNK_POINTS grid points.

    A block evaluates M only on its box: the range of s, and of t, from the
    first to the last modifier whose inner value lands in M's domain in
    some row of the block; the in-domain mask still applies inside the box.
    When s and t are one grid (ns == nt) they share one inner call, and
    M(G(x, t), s) at (x, s_i, t_j) is M(G(x, s), t) at (x, s_j, t_i), so a
    block makes one outer call and reads the other side transposed.
    """
    nx, ns, nt = _grid_sizes(grid, 3)
    if nx * ns * nt > _MAX_GRID_POINTS:
        raise InvalidParams(
            f"{check} grid {nx}x{ns}x{nt} has more than 256^3 points")
    tol = _tol(tolerance, code_M, code_G)
    J = code_G.J.intersect(code_M.J)
    J2 = code_G.J2.intersect(code_M.J2)
    JM = code_M.J
    x = J.grid(nx)
    s = J2.grid(ns)
    t = J2.grid(nt)
    slack = 1e-9 * max(1.0, JM.width)
    mirror = ns == nt

    inner_s = np.asarray(code_G(x[:, None], s[None, :]), dtype=float)  # (nx, ns)
    inner_t = inner_s if mirror else np.asarray(code_G(x[:, None], t[None, :]),
                                                dtype=float)  # (nx, nt)
    ok_s = JM.contains(inner_s, slack)
    ok_t = JM.contains(inner_t, slack)
    n_in = int(np.count_nonzero(ok_s, axis=1) @ np.count_nonzero(ok_t, axis=1))
    skipped = 1.0 - n_in / (nx * ns * nt)
    if skipped > SKIP_LIMIT or n_in == 0:
        raise DomainTooSmall(
            f"{check} grid {nx}x{ns}x{nt}: {skipped:.1%} of triples compose "
            f"out of the domain; enlarge the domain or shrink the grid")

    safe_s = np.clip(inner_s, JM.lo, JM.hi)
    safe_t = np.clip(inner_t, JM.lo, JM.hi)
    rows = max(1, _CHUNK_POINTS // (ns * nt))

    def box(ok):
        hit = np.flatnonzero(ok.any(axis=0))
        return slice(hit[0], hit[-1] + 1) if hit.size else None

    def blocks():
        for c in range(0, nx, rows):
            r = slice(c, c + rows)
            bs, bt = box(ok_s[r]), box(ok_t[r])
            if bs is None or bt is None:
                continue
            ok = ok_s[r, bs, None] & ok_t[r, None, bt]
            lhs = np.broadcast_to(code_M(safe_s[r, bs, None], t[None, None, bt]),
                                  ok.shape)
            rhs = lhs.transpose(0, 2, 1) if mirror else np.broadcast_to(
                code_M(safe_t[r, None, bt], s[None, bs, None]), ok.shape)
            res = np.empty(ok.shape)
            step = max(1, _TILE_POINTS // res[0].size)
            for i in range(0, len(res), step):
                res[i:i + step] = relative_residuals(lhs[i:i + step], rhs[i:i + step])
            yield res, ok, (c, bs.start, bt.start)

    return _reduce(check, (x, s, t), blocks(), n_in, tol)


@dataclass(frozen=True)
class ComonotonicReport:
    """Sampled order agreement between two codes on their shared domain."""

    passed: bool
    n_pairs: int
    n_checked: int
    n_violations: int
    tie_fraction: float
    witness: Mapping[str, float] | None


def check_comonotonic(code_M: BivariateCode, code_G: BivariateCode,
                      n_pairs=2000, seed=0) -> ComonotonicReport:
    """Sample argument pairs and compare the order M and G put on them.

    Pairs whose M difference or G difference falls inside the tie band, the
    larger default tolerance of the two codes relative to the values, are
    skipped: at working precision their order is not determined.  Any
    surviving pair ordered one way by M and the other way by G is a
    violation, and the first one found is reported as a witness.
    """
    band = _tol(None, code_M, code_G)
    J = code_G.J.intersect(code_M.J)
    J2 = code_G.J2.intersect(code_M.J2)
    rng = np.random.default_rng(seed)
    x = rng.uniform(J.lo, J.hi, n_pairs)
    s = rng.uniform(J2.lo, J2.hi, n_pairs)
    y = rng.uniform(J.lo, J.hi, n_pairs)
    t = rng.uniform(J2.lo, J2.hi, n_pairs)

    m1 = np.asarray(code_M(x, s), dtype=float)
    m2 = np.asarray(code_M(y, t), dtype=float)
    g1 = np.asarray(code_G(x, s), dtype=float)
    g2 = np.asarray(code_G(y, t), dtype=float)
    dm = m1 - m2
    dg = g1 - g2
    band_m = band * max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
    band_g = band * max(1.0, float(np.abs(g1).max()), float(np.abs(g2).max()))
    tie = (np.abs(dm) <= band_m) | (np.abs(dg) <= band_g)
    checked = ~tie
    viol = checked & (np.sign(dm) != np.sign(dg))

    witness = None
    if np.any(viol):
        i = int(np.argmax(viol))
        witness = {
            "x": float(x[i]), "s": float(s[i]),
            "y": float(y[i]), "t": float(t[i]),
            "m_diff": float(dm[i]), "g_diff": float(dg[i]),
        }
    return ComonotonicReport(
        passed=bool(not np.any(viol)),
        n_pairs=int(n_pairs),
        n_checked=int(np.count_nonzero(checked)),
        n_violations=int(np.count_nonzero(viol)),
        tie_fraction=float(np.mean(tie)),
        witness=witness,
    )


@dataclass(frozen=True)
class ComonotonicPair:
    """A verified pair with the connecting map F, so F(M(x, s)) = G(x, s)."""

    M: BivariateCode
    G: BivariateCode
    F: MonotoneFunction
    n_samples: int
    n_knots: int
    max_order_violation: float


def construct_F(code_M: BivariateCode, code_G: BivariateCode,
                grid=64, spacing="linear", tolerance=None) -> ComonotonicPair:
    """Tabulate the increasing map F with F(M(x, s)) = G(x, s).

    Both codes are sampled on a shared grid and the (M, G) value pairs are
    sorted by M.  Ties in M (within 1e-12 of the value scale) are merged and
    their G values must agree within tolerance, and the merged G sequence
    must be nondecreasing within tolerance; otherwise the pair is not
    comonotonic and NotComonotonic is raised.  Sub-tolerance dips are
    flattened so the result is a valid increasing interpolant.
    """
    nx, ns = _grid_sizes(grid, 2)
    tol = _tol(tolerance, code_M, code_G)
    J = code_G.J.intersect(code_M.J)
    J2 = code_G.J2.intersect(code_M.J2)
    xgrid = _axis_grid(J, nx, spacing)
    sgrid = _axis_grid(J2, ns, spacing)

    Mv = np.asarray(code_M(xgrid[:, None], sgrid[None, :]), dtype=float).ravel()
    Gv = np.asarray(code_G(xgrid[:, None], sgrid[None, :]), dtype=float).ravel()
    order = np.argsort(Mv, kind="stable")
    ms = Mv[order]
    gs = Gv[order]

    eps_m = 1e-12 * max(1.0, float(np.abs(ms).max()))
    starts = np.flatnonzero(np.concatenate(([True], np.diff(ms) > eps_m)))
    counts = np.diff(np.concatenate((starts, [ms.size])))
    m_rep = np.add.reduceat(ms, starts) / counts
    g_rep = np.add.reduceat(gs, starts) / counts

    g_scale = max(1.0, float(np.abs(gs).max()))
    if np.any(counts > 1):
        g_max = np.maximum.reduceat(gs, starts)
        g_min = np.minimum.reduceat(gs, starts)
        spread = (g_max - g_min) / g_scale
        worst = int(np.argmax(spread))
        if spread[worst] > tol:
            raise NotComonotonic(
                f"equal M value {float(m_rep[worst])!r} maps to G values "
                f"spread by {spread[worst]:.3e} (tolerance {tol:.1e})")

    dips = np.maximum(0.0, -np.diff(g_rep)) / g_scale
    max_dip = float(dips.max(initial=0.0))
    if max_dip > tol:
        i = int(np.argmax(dips))
        raise NotComonotonic(
            f"G decreases by {max_dip:.3e} while M increases near "
            f"M={float(m_rep[i])!r} (tolerance {tol:.1e})")

    g_fixed = np.maximum.accumulate(g_rep)
    keep = np.concatenate(([True], np.diff(g_fixed) > 0))
    F = MonotoneFunction(m_rep[keep], g_fixed[keep], INCREASING)
    return ComonotonicPair(
        M=code_M,
        G=code_G,
        F=F,
        n_samples=int(Mv.size),
        n_knots=int(np.count_nonzero(keep)),
        max_order_violation=max_dip,
    )


@dataclass(frozen=True)
class ImplicationReport:
    """Joint verdict: M G-permutable forces G itself to be permutable."""

    quasi: CheckReport
    perm: CheckReport
    implication_holds: bool


def check_M_permutable_implies_G(code_M: BivariateCode, code_G: BivariateCode,
                                 grid=20, tolerance=None) -> ImplicationReport:
    """Check the one-way dependence between the two permutability notions.

    If M is permutable with respect to G at the tolerance, G must come out
    permutable as well; the converse is not required.  G's own check runs at
    ten times the tolerance because the connecting map F can stretch
    residuals when carrying them from M values to G values.
    """
    tol = _tol(tolerance, code_M, code_G)
    quasi = check_quasi_permutability(code_M, code_G, grid, tol)
    perm = check_permutability(code_G, grid, 10.0 * tol)
    holds = (not quasi.passed) or perm.passed
    return ImplicationReport(quasi=quasi, perm=perm, implication_holds=bool(holds))
