import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from permlaw import (
    BivariateCode,
    Interval,
    InvalidParams,
    LawError,
    LawSpec,
    RangeExceeded,
    check_code_axioms,
    check_comonotonic,
    check_M_permutable_implies_G,
    check_permutability,
    check_quasi_permutability,
    check_solvability,
    construct_F,
    invert_in_first,
    load_grid,
    make_law,
    make_synthetic,
    write_grid_csv,
)
import permlaw
from permlaw import axioms
from permlaw.axioms import (
    CheckReport,
    DomainTooSmall,
    NotComonotonic,
    SolvabilityReport,
    relative_residuals,
)

from conftest import (ComposedCode, additive_code, bench_module, jump_code, law,
                      outcome)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRelativeResiduals:
    @given(finite, finite)
    def test_symmetric(self, a, b):
        r_ab = relative_residuals(np.array([a]), np.array([b]))[0]
        r_ba = relative_residuals(np.array([b]), np.array([a]))[0]
        assert r_ab == r_ba

    @given(finite)
    def test_zero_on_equal(self, a):
        assert relative_residuals(np.array([a]), np.array([a]))[0] == 0.0

    def test_floor_keeps_small_scales_absolute(self):
        # denominators never drop below 1, so tiny values compare absolutely
        r = relative_residuals(np.array([1e-8]), np.array([2e-8]))[0]
        assert r == pytest.approx(1e-8, rel=1e-9)

    def test_large_scales_compare_relatively(self):
        r = relative_residuals(np.array([1e8]), np.array([1.1e8]))[0]
        assert r == pytest.approx(0.1 / 1.1, rel=1e-9)


class TestPermutability:
    @pytest.mark.parametrize("name", ["lorentz", "beer", "cylinder", "pythagoras"])
    def test_permutable_laws_pass(self, name):
        report = check_permutability(law(name), grid=20, tolerance=1e-9)
        assert report.passed
        assert report.max_residual <= 1e-9
        assert report.skipped_fraction < 0.9

    @pytest.mark.parametrize("grid", [(256, 256, 257), 500])
    def test_grids_past_256_cubed_are_refused_unread(self, grid):
        # a residual per point would hold 1 GB at 500^3; the check refuses
        # before it evaluates the code once
        calls = []
        beer = law("beer")
        code = dataclasses.replace(beer, fn=lambda y, r: calls.append(1) or beer.fn(y, r))
        with pytest.raises(InvalidParams, match="more than 256\\^3 points"):
            check_permutability(code, grid=grid)
        with pytest.raises(InvalidParams, match="more than 256\\^3 points"):
            check_quasi_permutability(code, code, grid=grid)
        assert calls == []

    def test_vanderwaals_fails_with_witness(self):
        report = check_permutability(law("vanderwaals"), grid=20, tolerance=1e-9)
        assert not report.passed
        assert report.max_residual == pytest.approx(0.512, abs=1e-12)
        assert report.worst_point == (0.5, 1.0, 3.0)

    def test_report_json_keys(self):
        report = check_permutability(law("pythagoras"), grid=12)
        d = report.to_json_dict()
        assert d["check"] == "permutability"
        assert set(d) == {
            "check", "grid", "max_residual", "mean_residual",
            "worst_point", "skipped_fraction", "tolerance", "pass",
        }


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    codes = []
    for name in ("cylinder", "vanderwaals"):
        base = law(name)
        ys, rs = base.J.grid(9), base.J2.grid(7)
        path = out / f"{name}.csv"
        write_grid_csv(path, ys, rs, base(ys[:, None], rs[None, :]))
        codes.append(load_grid(path))
    return codes


def permutability_outcomes(code, grid):
    """(permutability, quasi-permutability with M = G), each a report with
    the check name blanked or the DomainTooSmall raised."""
    got = []
    for check in (lambda: check_permutability(code, grid),
                  lambda: check_quasi_permutability(code, code, grid)):
        try:
            got.append(dataclasses.replace(check(), check=""))
        except DomainTooSmall as exc:
            got.append(type(exc))
    return got


def full_grid_check(check, code_M, code_G, grid, tolerance=None):
    """The composed check as it was before the engine boxed and mirrored
    its blocks: per block of whole x rows, two outer calls on the full
    s x t grid.  Each block's in-domain residuals are summed as the engine
    sums them, so the report must match it to the last bit."""
    nx, ns, nt = axioms._grid_sizes(grid, 3)
    tol = axioms._tol(tolerance, code_M, code_G)
    J = code_G.J.intersect(code_M.J)
    J2 = code_G.J2.intersect(code_M.J2)
    JM = code_M.J
    x, s, t = J.grid(nx), J2.grid(ns), J2.grid(nt)
    slack = 1e-9 * max(1.0, JM.width)
    inner_s = np.asarray(code_G(x[:, None], s[None, :]), dtype=float)
    inner_t = np.asarray(code_G(x[:, None], t[None, :]), dtype=float)
    ok_s, ok_t = JM.contains(inner_s, slack), JM.contains(inner_t, slack)
    ok = ok_s[:, :, None] & ok_t[:, None, :]
    n_in = int(np.count_nonzero(ok))
    skipped = 1.0 - n_in / ok.size
    if skipped > axioms.SKIP_LIMIT or n_in == 0:
        raise DomainTooSmall(check)
    safe_s = np.clip(inner_s, JM.lo, JM.hi)
    safe_t = np.clip(inner_t, JM.lo, JM.hi)
    rows = max(1, axioms._CHUNK_POINTS // (ns * nt))
    total, parts = 0.0, []
    for c in range(0, nx, rows):
        lhs = code_M(safe_s[c:c + rows, :, None], t[None, None, :])
        rhs = code_M(safe_t[c:c + rows, None, :], s[None, :, None])
        res = relative_residuals(lhs, rhs)
        total += np.sum(res[ok[c:c + rows]])
        parts.append(np.where(ok[c:c + rows], res, -1.0))
    masked = np.concatenate(parts)
    idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return CheckReport.from_values(
        check, (nx, ns, nt), masked[idx], total / n_in,
        tuple(a[i] for a, i in zip((x, s, t), idx)), skipped, tol)


def assert_engine_matches_full_grid(code, grid, cut=(None, None)):
    """check_permutability and check_quasi_permutability (M = G) against
    full_grid_check, optionally at blocks of `cut[0]` points and residual
    tiles of `cut[1]`: reports equal bit for bit, or DomainTooSmall from
    both."""
    chunk, tile = cut
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(axioms, "_CHUNK_POINTS", chunk)
        if tile is not None:
            mp.setattr(axioms, "_TILE_POINTS", tile)
        for check, run in (
                ("permutability", lambda: check_permutability(code, grid)),
                ("quasi-permutability",
                 lambda: check_quasi_permutability(code, code, grid))):
            want = outcome(lambda: full_grid_check(check, code, code, grid))
            got = outcome(run)
            if isinstance(want, DomainTooSmall):
                assert isinstance(got, DomainTooSmall), (check, got)
            else:
                # repr: every float to its last bit, and NaN equal to NaN
                assert repr(got) == repr(want), (check, got, want)


def offset_table(offsets):
    """G(y, r) = y + an offset read linearly off a table over r in [0, 1]:
    any offsets, so a row's in-domain modifiers need not be one range."""
    rs = np.linspace(0.0, 1.0, len(offsets))
    vals = np.asarray(offsets, dtype=float)
    return BivariateCode(lambda y, r: y + np.interp(r, rs, vals),
                         (Interval(0.0, 10.0), Interval(0.0, 1.0)), "increasing")


def _nan_strip_code():
    # NaN on a strip that moves with r, so the lanes meet NaN at a dozen
    # different arguments and only the first in t-major order is right
    return BivariateCode(
        lambda y, r: np.where(np.abs(y - 3.0 - 2.0 * r) < 0.1, np.nan, y + r),
        (Interval(0.0, 10.0), Interval(0.0, 1.0)), "increasing")


grids = st.tuples(*[st.integers(min_value=2, max_value=12)] * 3)
# grids whose s and t are one grid half the time, so the mirror runs
engine_grids = st.one_of(
    grids, st.tuples(*[st.integers(min_value=2, max_value=12)] * 2).map(
        lambda g: (g[0], g[1], g[1])))
# the engine's block and tile sizes, or small ones: blocks of 1 to a few
# rows of up to 12 x 12 points, tiles of 1 to a few rows of a box
cuts = st.tuples(st.none() | st.integers(min_value=1, max_value=600),
                 st.none() | st.integers(min_value=1, max_value=300))
increments = st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=1, max_size=5)


class TestComposedEngine:
    # Each case of these checks both reports against full_grid_check, so
    # permutability is quasi-permutability with M = G under its own name.
    @given(st.sampled_from(["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"]),
           engine_grids, cuts)
    def test_permutability_is_quasi_with_m_equal_g_closed_forms(self, name, grid, cut):
        assert_engine_matches_full_grid(law(name), grid, cut)

    @given(increments, increments, st.booleans(), engine_grids, cuts)
    def test_permutability_is_quasi_with_m_equal_g_synthetic(self, df, dg, down, grid, cut):
        f_xs = np.concatenate([[0.0], np.cumsum(df)])
        g_xs = np.concatenate([[0.0], np.cumsum(dg)])
        g_ys = g_xs[::-1].copy() if down else g_xs
        code = make_synthetic((f_xs, f_xs ** 2 + f_xs), (g_xs, g_ys))
        assert_engine_matches_full_grid(code, grid, cut)

    @given(st.integers(min_value=0, max_value=1), engine_grids, cuts)
    def test_permutability_is_quasi_with_m_equal_g_tables(self, tables, which, grid, cut):
        assert_engine_matches_full_grid(tables[which], grid, cut)

    @given(engine_grids, cuts)
    def test_nan_strip_matches_full_grid(self, grid, cut):
        assert_engine_matches_full_grid(_nan_strip_code(), grid, cut)

    def test_nan_residual_is_the_worst(self):
        report = check_permutability(_nan_strip_code(), (20, 9, 9))
        assert np.isnan(report.max_residual)
        assert repr(report) == repr(full_grid_check(
            "permutability", _nan_strip_code(), _nan_strip_code(), (20, 9, 9)))

    @given(st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=2, max_size=8),
           engine_grids, cuts)
    @example([0.5, 15.0, 0.5, 15.0, 0.5], (12, 9, 9), (None, None))
    @example([0.5, 15.0, 0.5, 15.0, 0.5], (12, 9, 9), (2 * 9 * 9, 9 * 9))
    def test_tables_with_gaps_in_the_domain_match_full_grid(self, offsets, grid, cut):
        assert_engine_matches_full_grid(offset_table(offsets), grid, cut)

    def test_offset_table_has_gaps_in_the_domain(self):
        # the examples above: in-domain modifiers of one row are not a range
        code = offset_table([0.5, 15.0, 0.5, 15.0, 0.5])
        ok = code.J.contains(code(code.J.grid(12)[:, None], code.J2.grid(9)[None, :]))
        assert np.any(np.diff(ok[0].astype(int)) == 1)

    def test_open_domain_is_kept(self, cylinder):
        code = BivariateCode(fn=cylinder.fn, dir_second=cylinder.dir_second,
                             domain=(Interval(0.1, 10.0, closed_lo=False),
                                     Interval(0.1, 3.0, closed_hi=False)))
        perm, quasi = permutability_outcomes(code, 7)
        assert perm == quasi
        assert perm.worst_point[0] > 0.1

    def test_no_code_call_exceeds_a_chunk(self, monkeypatch, vanderwaals):
        # one float array of a real chunk stays within 1 MiB
        assert axioms._CHUNK_POINTS * 8 <= 1 << 20
        sizes = []

        def counted(y, r):
            sizes.append(np.broadcast(y, r).size)
            return vanderwaals.fn(y, r)

        code = BivariateCode(fn=counted, domain=vanderwaals.domain,
                             dir_second=vanderwaals.dir_second)
        whole = check_permutability(code, (12, 17, 9))
        assert len(sizes) == 4  # two inner, two composed calls
        # 3 rows of 17 x 9 points fit in 500: four chunks of two calls each
        monkeypatch.setattr(axioms, "_CHUNK_POINTS", 500)
        sizes.clear()
        cut = check_permutability(code, (12, 17, 9))
        assert len(sizes) == 2 + 8
        assert max(sizes) <= 500
        # each block's two calls cover its box: the modifiers from the first
        # to the last with an inner value in J in one of the block's rows
        J, J2 = vanderwaals.J, vanderwaals.J2
        x, slack = J.grid(12), 1e-9 * max(1.0, J.width)

        def widths(mods):
            ok = J.contains(vanderwaals(x[:, None], mods[None, :]), slack)
            for c in range(0, 12, 3):
                hit = np.flatnonzero(ok[c:c + 3].any(axis=0))
                yield int(hit[-1] - hit[0] + 1)

        boxes = [3 * ws * wt for ws, wt in zip(widths(J2.grid(17)), widths(J2.grid(9)))]
        assert min(boxes) < 3 * 17 * 9
        assert sizes[2:] == [b for b in boxes for _ in range(2)]
        assert cut == whole

    def test_mirrored_grid_makes_one_outer_call_a_block(self, monkeypatch):
        # lorentz keeps every inner value in J, so no block is empty
        lorentz = law("lorentz")
        calls = {"M": [], "G": []}

        def counted(key):
            def fn(y, r):
                calls[key].append(np.broadcast(y, r).shape)
                return lorentz.fn(y, r)
            return BivariateCode(fn=fn, domain=lorentz.domain,
                                 dir_second=lorentz.dir_second)

        code_M, code_G = counted("M"), counted("G")
        monkeypatch.setattr(axioms, "_CHUNK_POINTS", 3 * 9 * 9)
        check_quasi_permutability(code_M, code_G, (12, 9, 9))
        assert calls == {"M": [(3, 9, 9)] * 4, "G": [(12, 9)]}
        for sizes in calls.values():
            sizes.clear()
        check_quasi_permutability(code_M, code_G, (12, 9, 8))
        assert calls == {"M": [(3, 9, 8), (3, 9, 8)] * 4, "G": [(12, 9), (12, 8)]}

    def test_streamed_mean_stays_within_rounding_of_one_block(self, monkeypatch,
                                                              vanderwaals):
        whole = check_permutability(vanderwaals, (12, 17, 9))
        monkeypatch.setattr(axioms, "_CHUNK_POINTS", 17 * 9)  # one row a block
        cut = check_permutability(vanderwaals, (12, 17, 9))
        assert (cut.max_residual, cut.worst_point) == (whole.max_residual,
                                                       whole.worst_point)
        # 12 block sums instead of one: at most a few roundings of 2^-53 each
        assert cut.mean_residual == pytest.approx(whole.mean_residual, rel=1e-14)

    def test_domain_too_small(self):
        # G(y, r) = pi y r^2 >= 4 pi > 10 = J.hi: every inner value leaves J
        code = make_law(LawSpec("cylinder", {}, (Interval(1.0, 10.0), Interval(2.0, 3.0))))
        with pytest.raises(DomainTooSmall, match="permutability grid 10x10x10"):
            check_permutability(code, 10)
        with pytest.raises(DomainTooSmall, match="quasi-permutability grid 10x10x10"):
            check_quasi_permutability(code, code, 10)


class TestCodeAxioms:
    @pytest.mark.parametrize(
        "name", ["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"]
    )
    def test_corpus_laws_satisfy_axioms(self, name):
        assert check_code_axioms(law(name)).passed

    def test_non_monotone_code_rejected(self, cylinder):
        wobble = ComposedCode(cylinder, lambda v: v + 0.8 * np.sin(3.0 * v))
        report = check_code_axioms(wobble)
        assert not report.passed

    def test_a_step_fails_on_continuity(self):
        # y + r with a unit step at y = 5 runs the right way everywhere, but
        # the step's jump does not shrink when the grid is halved, neither
        # from 33 to 65 points nor from 129 to 257, which is judged: the
        # continuity residual is the larger, its point the finest grid's
        # cell at the step
        code = BivariateCode(fn=lambda y, r: y + r + (y > 5.0),
                             domain=(Interval(0.0, 10.0), Interval(0.0, 1.0)),
                             dir_second="increasing")
        report = check_code_axioms(code)
        coarse, fine = 10.0 / 128 + 1.0, 10.0 / 256 + 1.0
        assert report.max_residual == pytest.approx((1.5 - coarse / fine) / 1.5)
        assert report.mean_residual == 0.0
        assert report.worst_point == (5.0, 0.0)
        assert not report.passed

    @pytest.mark.parametrize("seed", [6, 11])
    def test_a_slowly_resolved_continuous_law_passes(self, seed):
        # The benchmark's second synthetic law at these seeds is continuous
        # and piecewise linear, yet its largest jump along y shrinks only
        # 1.48x and 1.37x from 33 to 65 points; from 129 to 257, by 2x.
        code = bench_module("cases").synthetic_laws(permlaw, seed, 2)[1].code
        assert check_code_axioms(code).passed


def scalar_solvability(code, grid=21):
    """check_solvability one scalar invert_in_first call at a time, with
    the same miss rule: RangeExceeded or a failed post-check (a target in a
    gap) is a miss, and the first NaN raises."""
    nt, n_targets = axioms._grid_sizes(grid, 2)
    J, J2 = code.J, code.J2
    tgrid = J2.grid(nt)
    s1_hits = s1_total = 0
    for t in tgrid:
        ends = sorted((float(code(J.lo, t)), float(code(J.hi, t))))
        w = ends[1] - ends[0]
        targets = np.linspace(ends[0] + 0.01 * w, ends[1] - 0.01 * w, n_targets)
        for p in targets:
            s1_total += 1
            try:
                invert_in_first(code, float(p), float(t))
                s1_hits += 1
            except RangeExceeded:
                pass
            except LawError as exc:
                if "re-evaluates" not in str(exc):
                    raise
    ranges = []
    for x0 in J.grid(nt):
        ends = sorted((float(code(x0, J2.lo)), float(code(x0, J2.hi))))
        ranges.append((float(x0), ends[0], ends[1]))
    best = max(ranges, key=lambda row: min(row[2], J.hi) - max(row[1], J.lo))
    s1 = s1_hits / max(1, s1_total)
    return SolvabilityReport(
        s1_fraction=float(s1), x0_ranges=tuple(ranges), best_x0=float(best[0]),
        best_x0_range=(best[1], best[2]), grid=(nt, n_targets),
        passed=bool(s1 == 1.0))


class TestSolvability:
    def test_cylinder_fully_solvable(self, cylinder):
        report = check_solvability(cylinder)
        assert report.passed
        assert report.s1_fraction == pytest.approx(1.0)
        lo, hi = report.best_x0_range
        assert lo < hi

    def test_json_dict(self, cylinder):
        d = check_solvability(cylinder).to_json_dict()
        assert d["check"] == "solvability"
        assert d["pass"] is True

    @pytest.mark.parametrize(
        "name", ["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"])
    def test_closed_forms_match_scalar_route(self, name):
        assert check_solvability(law(name)) == scalar_solvability(law(name))

    @pytest.mark.parametrize("which", [0, 1])
    def test_tables_match_scalar_route(self, tables, which):
        assert check_solvability(tables[which]) == scalar_solvability(tables[which])

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.tuples(st.integers(min_value=2, max_value=8),
                     st.integers(min_value=0, max_value=8)))
    def test_additive_codes_match_scalar_route(self, seed, grid):
        code, _, _ = additive_code(seed)
        if grid[1] < 1:  # no targets: a configuration error, not s1 = 0
            with pytest.raises(InvalidParams, match="at least one target"):
                check_solvability(code, grid)
            return
        assert check_solvability(code, grid) == scalar_solvability(code, grid)

    @pytest.mark.parametrize("grid", [(5, -1), (21, 0)])
    def test_target_count_below_one_is_invalid(self, beer, grid):
        with pytest.raises(InvalidParams, match="at least one target"):
            check_solvability(beer, grid)

    def test_gap_targets_are_misses(self):
        code = jump_code(Interval(0, 10))
        with pytest.raises(LawError, match="re-evaluates"):
            invert_in_first(code, 5.5, 0.0)
        report = check_solvability(code)
        assert 0.9 < report.s1_fraction < 1.0
        assert not report.passed
        assert report == scalar_solvability(code)

    def test_nan_raises_the_scalar_error(self):
        with pytest.raises(LawError) as want:
            scalar_solvability(_nan_strip_code())
        with pytest.raises(LawError) as got:
            check_solvability(_nan_strip_code())
        assert type(got.value) is type(want.value) is LawError
        assert str(got.value) == str(want.value)
        # the first lane (t-major) whose steps read the strip, inside J
        x = got.value.nan_argument
        assert 0.0 <= x <= 10.0 and any(abs(x - 3.0 - 2.0 * t) < 0.1 for t in
                                        np.linspace(0.0, 1.0, 21))

    def test_code_calls_are_few(self, cylinder):
        calls = []

        def counted(y, r):
            calls.append(1)
            return cylinder.fn(y, r)

        code = dataclasses.replace(cylinder, fn=counted)
        report = check_solvability(code)
        # four end calls and one lane call: its two ends, ~45 halvings and
        # the post-check, where the scalar route made ~21k calls
        assert len(calls) <= 60
        assert report == check_solvability(cylinder)


class TestQuasiPermutability:
    def test_log_cylinder_passes(self, log_cylinder, cylinder):
        report = check_quasi_permutability(log_cylinder, cylinder, grid=15)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_log_vanderwaals_fails(self, vanderwaals):
        M = ComposedCode(vanderwaals, np.log)
        report = check_quasi_permutability(M, vanderwaals, grid=15, tolerance=1e-9)
        assert not report.passed


class TestComonotonic:
    def test_log_cylinder_comonotone(self, log_cylinder, cylinder):
        report = check_comonotonic(log_cylinder, cylinder, n_pairs=1500, seed=3)
        assert report.passed
        assert report.n_violations == 0
        assert report.n_checked > 0

    def test_order_reversal_detected(self, cylinder):
        M = ComposedCode(cylinder, lambda v: -v, outer_increasing=False)
        report = check_comonotonic(M, cylinder, n_pairs=500, seed=3)
        assert not report.passed
        assert report.witness is not None


class TestConstructF:
    def test_recovers_exp_for_log_cylinder(self, log_cylinder, cylinder):
        pair = construct_F(log_cylinder, cylinder, grid=256, spacing="log")
        mv = np.linspace(pair.F.domain.lo + 1e-6, pair.F.domain.hi - 1e-6, 257)
        rel = np.abs(np.asarray(pair.F(mv)) - np.exp(mv)) / np.exp(mv)
        assert rel.max() < 1e-4
        assert pair.max_order_violation <= 1e-9

    def test_tied_m_values_with_spread_g_values_rejected(self):
        # M = x + s repeats its values along the grid's antidiagonals, where
        # G = x + 2 s differs
        unit = (Interval(0.0, 1.0), Interval(0.0, 1.0))
        M = BivariateCode(lambda x, s: x + s, unit, "increasing")
        G = BivariateCode(lambda x, s: x + 2.0 * s, unit, "increasing")
        with pytest.raises(NotComonotonic, match="equal M value"):
            construct_F(M, G, grid=8)

    def test_g_falling_as_m_rises_rejected(self):
        # M = x + pi s has no ties on the grid; G = x - s falls along it
        unit = (Interval(0.0, 1.0), Interval(0.0, 1.0))
        M = BivariateCode(lambda x, s: x + np.pi * s, unit, "increasing")
        G = BivariateCode(lambda x, s: x - s, unit, "decreasing")
        with pytest.raises(NotComonotonic, match="G decreases"):
            construct_F(M, G, grid=8)

    def test_quasi_pass_forces_base_permutability(self, log_cylinder, cylinder):
        report = check_M_permutable_implies_G(log_cylinder, cylinder, grid=12)
        assert report.quasi.passed
        assert report.perm.passed
        assert report.implication_holds
