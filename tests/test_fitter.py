import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import permlaw.fitter as fitter

from permlaw import (
    AffineMap,
    DegenerateFit,
    Interval,
    InvalidParams,
    MonotoneFunction,
    MonotoneParam,
    NonConvergence,
    affine_align,
    check_gauge_uniqueness,
    construct_f,
    fit_additive,
    make_structure,
    make_synthetic,
    suggest_r0,
)
from permlaw.lawcore import INCREASING

from conftest import ComposedCode, additive_code, law


def additive_y_plus_r():
    fk = np.linspace(0.0, 11.0, 12)
    gk = np.linspace(0.0, 1.0, 10)
    return make_synthetic(
        (fk, fk.copy()),
        (gk, gk.copy()),
        domain=(Interval(0.5, 9.5), Interval(0.0, 1.0)),
    )


monotone_values = st.lists(
    st.floats(min_value=0.01, max_value=3.0), min_size=4, max_size=9
).map(lambda steps: np.cumsum([0.0] + steps))


class TestMonotoneParam:
    @given(monotone_values)
    def test_from_values_roundtrip(self, vals):
        xs = np.arange(float(vals.size))
        mp = MonotoneParam.from_values(xs, vals)
        assert np.max(np.abs(mp.values() - vals)) < 1e-9 * max(1.0, vals[-1])

    @given(monotone_values, st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3))
    def test_every_packed_vector_is_monotone(self, vals, tweak):
        xs = np.arange(float(vals.size))
        mp = MonotoneParam.from_values(xs, vals)
        vec = mp.pack()
        vec[: len(tweak)] += np.asarray(tweak)
        moved = mp.with_packed(vec).values()
        assert np.all(np.diff(moved) > 0)

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidParams):
            MonotoneParam.from_values(
                np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5])
            )

    def test_to_function(self):
        mp = MonotoneParam.from_values(
            np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.5, 9.0])
        )
        fn = mp.to_function()
        assert isinstance(fn, MonotoneFunction)
        assert fn(1.0) == pytest.approx(6.5, abs=1e-12)


reals = st.floats(min_value=-1.5, max_value=1.5)


@st.composite
def model_points(draw):
    """Packed f, g (and m in the quasi form) with samples past both ends of
    every table, one g step clipped at the lower exp bound."""
    quasi = draw(st.booleans())

    def param(knot_xs, direction):
        raw = np.array(draw(st.lists(reals, min_size=knot_xs.size - 1,
                                     max_size=knot_xs.size - 1)))
        return MonotoneParam(knot_xs, draw(reals), raw, direction)

    f = param(np.linspace(0.0, 4.0, draw(st.integers(3, 9))), 1.0)
    g = param(np.linspace(0.0, 2.0, draw(st.integers(3, 9))),
              draw(st.sampled_from([1.0, -1.0])))
    # Centre g on 0 and pair each end of y with the end of r where g is
    # lowest or highest, so some sums leave the flipped table at both ends.
    # (A clipped f step would put a segment of width exp(_RAW_LO) into the
    # flipped table, narrower than any difference step.)
    vec = g.pack()
    vec[0] -= float(g.values().mean())
    vec[1 + draw(st.integers(0, g.raw.size - 1))] = fitter._RAW_LO - 1.0
    g = g.with_packed(vec)
    r_low, r_high = (-0.5, 2.5) if g.direction > 0 else (2.5, -0.5)
    n = draw(st.integers(5, 30))
    ys = np.array(draw(st.lists(st.floats(-1.0, 5.0), min_size=n, max_size=n))
                  + [-1.0, 5.0])
    rs = np.array(draw(st.lists(st.floats(-0.5, 2.5), min_size=n, max_size=n))
                  + [r_low, r_high])
    m = None
    if quasi:
        sums = (fitter._pl_eval(ys, f.knot_xs, f.values())
                + fitter._pl_eval(rs, g.knot_xs, g.values()))
        lo, hi = np.quantile(sums, [0.2, 0.8])
        m = param(np.linspace(lo, hi + 1e-3, draw(st.integers(3, 9))), 1.0)
    return ys, rs, [p for p in (f, g, m) if p is not None]


def central_differences(ys, rs, params, h=1e-6):
    sizes = np.cumsum([p.n_params for p in params])[:-1]
    vec = np.concatenate([p.pack() for p in params])

    def predict(v):
        return fitter._predict(ys, rs, *[p.with_packed(part) for p, part
                                         in zip(params, np.split(v, sizes))])

    cols = []
    for i in range(vec.size):
        step = np.zeros(vec.size)
        step[i] = h
        cols.append((predict(vec + step) - predict(vec - step)) / (2 * h))
    return np.column_stack(cols)


def near_knots(ys, rs, params, margin=1e-4):
    # Rows whose lookups sit within `margin` of a breakpoint, where the
    # model has a kink and differences straddle it.
    f, g = params[:2]
    fv = f.values()
    sums = (fitter._pl_eval(ys, f.knot_xs, fv)
            + fitter._pl_eval(rs, g.knot_xs, g.values()))
    outer = params[2].knot_xs if len(params) == 3 else fv
    return np.any([np.min(np.abs(x[:, None] - k[None, :]), axis=1) < margin
                   for x, k in ((ys, f.knot_xs), (rs, g.knot_xs), (sums, outer))],
                  axis=0)


# ---------------------------------------------------------------------------
# the model and its Jacobian as they were computed before the fit held its
# inner lookups fixed: the oracle that the fitter's arithmetic must equal
# bit for bit, signed zeros included


def oracle_pl_eval(x, xs, ys):
    y = np.interp(x, xs, ys)
    lo_s = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    y = np.where(x < xs[0], ys[0] + (x - xs[0]) * lo_s, y)
    y = np.where(x > xs[-1], ys[-1] + (x - xs[-1]) * hi_s, y)
    return y


def _oracle_lookup_columns(out, j, t, p):
    live = (p.raw >= fitter._RAW_LO) & (p.raw <= fitter._RAW_HI)
    steps = np.where(live, np.exp(np.clip(p.raw, fitter._RAW_LO, fitter._RAW_HI)), 0.0)
    out[:, 0] = 1.0
    np.less(np.arange(p.raw.size), j[:, None], out=out[:, 1:])
    out[np.arange(j.size), j + 1] = t
    out[:, 1:] *= p.direction * steps
    return out


def oracle_jacobian(ys, rs, f, g, m=None):
    fv, gv = f.values(), g.values()
    jy, ty = fitter._segments(ys, f.knot_xs)
    jr, tr = fitter._segments(rs, g.knot_xs)
    sums = (fv[jy] + ty * (fv[jy + 1] - fv[jy])
            + gv[jr] + tr * (gv[jr + 1] - gv[jr]))
    nf, ng = f.n_params, g.n_params
    jac = np.empty((ys.size, nf + ng + (0 if m is None else m.n_params)))
    _oracle_lookup_columns(jac[:, :nf], jy, ty, f)
    _oracle_lookup_columns(jac[:, nf:nf + ng], jr, tr, g)
    if m is None:
        js, us = fitter._segments(sums, fv)
        jac[:, :nf] -= _oracle_lookup_columns(np.empty((ys.size, nf)), js, us, f)
        slope = np.diff(f.knot_xs)[js] / np.diff(fv)[js]
    else:
        jm, um = fitter._segments(sums, m.knot_xs)
        _oracle_lookup_columns(jac[:, nf + ng:], jm, um, m)
        slope = np.diff(m.values())[jm] / np.diff(m.knot_xs)[jm]
    jac[:, :nf + ng] *= slope[:, None]
    return jac


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros


class TestFixedLookups:
    @given(model_points())
    def test_jacobian_equals_the_per_call_oracle(self, case):
        # both model forms, samples past both ends of every table, a g step
        # clipped below _RAW_LO; lookups passed in as the fit passes them
        # and computed on the spot
        ys, rs, params = case
        f, g = params[:2]
        want = oracle_jacobian(ys, rs, *params)
        lookups = (fitter._lookups(ys, f.knot_xs), fitter._lookups(rs, g.knot_xs))
        assert_same_bits(fitter._jacobian(ys, rs, *params, lookups=lookups), want)
        assert_same_bits(fitter._jacobian(ys, rs, *params), want)

    @given(model_points())
    def test_predict_equals_the_per_call_oracle(self, case):
        ys, rs, params = case
        f, g = params[:2]
        sums = (oracle_pl_eval(ys, f.knot_xs, f.values())
                + oracle_pl_eval(rs, g.knot_xs, g.values()))
        if len(params) == 3:
            want = oracle_pl_eval(sums, params[2].knot_xs, params[2].values())
        else:
            want = oracle_pl_eval(sums, f.values(), f.knot_xs)
        assert_same_bits(fitter._predict(ys, rs, *params), want)

    @given(st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(1e-3, 3.0)),
                    min_size=1, max_size=8),
           st.sampled_from([1.0, -1.0]),
           st.lists(st.floats(-8.0, 8.0), min_size=0, max_size=30),
           st.sampled_from(["both", "below", "above", "inside"]))
    def test_pl_eval_equals_the_per_call_oracle(self, segments, direction,
                                                xs_drawn, ends):
        # an extension only on the side a sample passes, or on neither
        widths, rises = zip(*segments)
        xs = np.cumsum([-1.0, *widths])
        ys = direction * np.cumsum([0.5, *rises])
        x = np.array(xs_drawn + [xs[0], xs[-1]])
        if ends in ("inside", "above"):
            x = np.maximum(x, xs[0])
        if ends in ("inside", "below"):
            x = np.minimum(x, xs[-1])
        assert_same_bits(fitter._pl_eval(x, xs, ys), oracle_pl_eval(x, xs, ys))


class TestJacobian:
    @given(model_points())
    def test_matches_central_differences(self, case):
        ys, rs, params = case
        exact = fitter._jacobian(ys, rs, *params)
        fd = central_differences(ys, rs, params)
        keep = ~near_knots(ys, rs, params)
        assume(keep.any())
        scale = max(1.0, float(np.abs(exact).max()))
        assert np.abs(exact - fd)[keep].max() <= 1e-6 * scale

    @given(model_points())
    def test_clipped_step_has_no_column(self, case):
        ys, rs, params = case
        f, g = params[:2]
        clipped = f.n_params + 1 + np.flatnonzero(g.raw < fitter._RAW_LO)
        assert clipped.size == 1
        assert np.all(fitter._jacobian(ys, rs, *params)[:, clipped] == 0.0)


class TestFitAdditive:
    def test_exact_additive_code(self):
        code = additive_y_plus_r()
        res = fit_additive(
            code, grid=(15, 15), knots_f=np.linspace(0.0, 11.0, 12),
            knots_g=np.linspace(0.0, 1.0, 10), max_iters=200, seed=0,
        )
        assert res.loss <= 1e-10
        ident = MonotoneFunction([0.0, 11.0], [0.0, 11.0], INCREASING)
        amap, err = affine_align(
            res.representation.f, ident, np.linspace(0.5, 9.5, 41)
        )
        assert err <= 1e-8
        assert amap.xi == pytest.approx(1.0, abs=1e-6)
        _, g_err = affine_align(
            res.representation.g, ident, np.linspace(0.05, 0.95, 31)
        )
        assert g_err <= 1e-8

    def test_gauge_normalization(self):
        code = additive_y_plus_r()
        res = fit_additive(code, grid=(15, 15), max_iters=150, seed=0)
        rep = res.representation
        x0 = rep.gauge.x0
        assert float(rep.f(x0)) == pytest.approx(0.0, abs=1e-9)
        ends = [abs(float(rep.g(rep.g.domain.lo))), abs(float(rep.g(rep.g.domain.hi)))]
        assert max(ends) == pytest.approx(1.0, abs=1e-9)

    def test_vanderwaals_has_a_loss_floor(self, vanderwaals):
        res = fit_additive(vanderwaals, grid=(20, 20), max_iters=300, seed=0)
        # no additive representation exists; the best fit stalls well above
        # the exact-law losses
        assert res.loss >= 1e-3
        assert res.loss < 1.0

    def test_cylinder_with_rich_knots(self, cylinder):
        kf = np.geomspace(0.003, 10.0 * np.pi * 9.0, 48)
        kg = np.geomspace(0.1, 3.0, 48)
        res = fit_additive(
            cylinder, grid=(30, 30), knots_f=kf, knots_g=kg,
            max_iters=400, seed=0,
        )
        assert res.loss <= 3e-5

    def test_fitted_f_aligns_with_constructive_f(self, cylinder):
        hs = make_structure(cylinder)
        f_con = construct_f(hs, r0=suggest_r0(hs), depth=16)
        res = fit_additive(
            cylinder, grid=(30, 30),
            knots_f=np.geomspace(0.003, 10.0 * np.pi * 9.0, 160),
            knots_g=np.geomspace(0.1, 3.0, 64),
            max_iters=400, seed=0, max_points=700,
        )
        f_fit = res.representation.f
        lo = max(f_fit.domain.lo, f_con.domain.lo)
        hi = min(f_fit.domain.hi, f_con.domain.hi)
        amap, err = affine_align(f_fit, f_con, np.linspace(lo, hi, 101))
        assert amap.xi > 0
        assert err <= 1e-3

    def test_cylinder_quasi_starts_m_at_the_seeds_inverse(self, cylinder):
        # m starts as the inverse of the solved n; from the identity this
        # fit ended at 7.47e-3
        res = fit_additive(cylinder, knots_f=24, knots_g=24, quasi=True)
        assert res.loss <= 1e-3

    def test_loss_curve_monotone(self, cylinder):
        res = fit_additive(cylinder, grid=(15, 15), max_iters=60, seed=0)
        curve = np.asarray(res.loss_curve)
        assert curve.size >= 1
        assert np.all(np.diff(curve) <= 0)

    def test_quasi_fits_transformed_law(self, log_cylinder):
        res = fit_additive(
            log_cylinder, grid=(20, 20),
            knots_f=np.geomspace(0.1, 10.0, 24),
            knots_g=np.geomspace(0.1, 3.0, 24),
            knots_m=24, quasi=True, max_iters=300, seed=0,
        )
        assert res.loss <= 1e-5
        assert res.representation.m is not None

    def test_nonconvergence_carries_partial_result(self, vanderwaals):
        with pytest.raises(NonConvergence) as exc:
            fit_additive(
                vanderwaals, grid=(20, 20), max_iters=5, seed=0,
                loss_target=1e-12,
            )
        partial = exc.value.result
        assert partial.loss > 1e-12
        curve = np.asarray(partial.loss_curve)
        assert np.all(np.diff(curve) <= 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_floating_point_warnings(self, beer):
        # Trials whose realized f values tie are rejected before the
        # flipped table divides by their zero-width segment.
        res = fit_additive(beer, grid=(25, 25), knots_f=32, knots_g=32)
        assert np.all(np.diff(np.asarray(res.loss_curve)) <= 0)

    def test_dense_fit_keeps_f_strict(self, cylinder):
        # A descent can drive f steps below the ulp of f's values; an
        # iterate with tied values would fail to build the fitted f.
        res = fit_additive(
            cylinder, grid=(30, 30), knots_f=np.geomspace(0.003, 283.0, 160),
            knots_g=np.geomspace(0.1, 3.0, 64), max_iters=400, seed=0,
            max_points=700,
        )
        assert np.all(np.diff(res.representation.f.ys) > 0)

    def test_small_grid_rejected(self, cylinder):
        with pytest.raises(InvalidParams):
            fit_additive(cylinder, grid=(5, 5))

    def test_negative_max_iters_rejected(self, beer):
        with pytest.raises(InvalidParams):
            fit_additive(beer, max_iters=-5)

    def test_zero_max_iters_reports_initial_loss(self, beer):
        res = fit_additive(beer, max_iters=0)
        assert res.n_iters == 0
        assert res.loss_curve == (res.loss,)


def _stalled(curve, end):
    # The stall rule of fit_additive, read at curve[end].
    k, rel = fitter._STALL_ITERS, fitter._STALL_REL
    return end >= k and curve[end - k] - curve[end] <= rel * curve[end - k]


class TestStallStop:
    def test_dense_fit_stops_creeping(self, cylinder, monkeypatch):
        # The README fit: the linear seed already reads its final loss, so
        # every step the descent creeps is waste.
        solves = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        res = fit_additive(
            cylinder, grid=(30, 30), knots_f=np.geomspace(0.003, 283.0, 160),
            knots_g=np.geomspace(0.1, 3.0, 64), max_iters=400, seed=0,
            max_points=700,
        )
        assert res.loss <= 1e-7
        assert len(solves) <= 150

    def test_stalled_descent_meets_the_rule(self, cylinder):
        res = fit_additive(cylinder)
        curve = np.asarray(res.loss_curve)
        assert np.all(np.diff(curve) <= 0)
        assert res.n_iters < 500
        assert _stalled(curve, curve.size - 1)
        assert not any(_stalled(curve, i) for i in range(curve.size - 1))


def _seed_loss(code, knots_f):
    return fit_additive(code, grid=(20, 20), knots_f=knots_f, max_iters=0).loss


class TestLinearSeed:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_seed_alone_solves_a_synthetic_code_at_its_true_knots(self, seed):
        code, fk, gk = additive_code(seed)
        res = fit_additive(code, grid=(20, 30), knots_f=fk, knots_g=gk,
                           max_iters=0, max_points=600, seed=seed)
        assert res.loss <= 1e-18

    @pytest.mark.parametrize("name", ["cylinder", "beer", "pythagoras"])
    def test_knot_count_keeps_the_lower_seed(self, name):
        # 20 x 20 samples are not subsampled, so the two knot rules can be
        # rebuilt here from the samples' realized values.
        code = law(name)
        ys, rs = np.meshgrid(code.J.grid(20), code.J2.grid(20), indexing="ij")
        truth = np.asarray(code(ys.ravel(), rs.ravel()))
        uniform = np.linspace(min(code.J.lo, truth.min()),
                              max(code.J.hi, truth.max()), 16)
        joined = np.concatenate([code.J.grid(64), truth])
        quantiles = fitter._quantiles(joined, 16)
        assert np.allclose(quantiles, np.quantile(joined, np.linspace(0.0, 1.0, 16)),
                           rtol=1e-14, atol=0.0)
        losses = [_seed_loss(code, knots) for knots in (uniform, quantiles)]
        kept = int(np.argmin(losses))
        res = fit_additive(code, grid=(20, 20), knots_f=16, max_iters=0)
        assert res.loss == losses[kept]
        assert np.array_equal(res.representation.f.xs, (uniform, quantiles)[kept])

    @pytest.mark.parametrize("name, constructive_seeded", [("cylinder", 0.1913),
                                                           ("beer", 1.614e-2)])
    def test_default_fit_falls_tenfold(self, name, constructive_seeded):
        # constructive_seeded: the default fit's loss from a seed built by
        # construct_f on uniform knots
        res = fit_additive(law(name))
        assert res.loss <= constructive_seeded / 10


class TestAffineAlign:
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_exact_for_true_affine(self, xi, theta):
        f1 = MonotoneFunction([0.0, 1.0, 3.0, 6.0], [0.0, 0.5, 2.0, 5.0], INCREASING)
        f2 = AffineMap(xi, theta).apply_to(f1)
        amap, err = affine_align(f1, f2, np.linspace(0.0, 6.0, 25))
        assert err <= 1e-12 * max(1.0, xi * 5.0 + abs(theta))
        assert amap.xi == pytest.approx(xi, rel=1e-9)
        assert amap.theta == pytest.approx(theta, abs=1e-9 * max(1.0, abs(theta)))

    def test_log_vs_square_is_far(self):
        xs = np.linspace(0.5, 8.0, 33)
        f1 = MonotoneFunction(xs, np.log(xs), INCREASING)
        f2 = MonotoneFunction(xs, xs**2, INCREASING)
        _, err = affine_align(f1, f2, xs)
        assert err > 1.0

    def test_degenerate_fit(self):
        f1 = MonotoneFunction([0.0, 1.0], [0.0, 2e-13], INCREASING)
        f2 = MonotoneFunction([0.0, 1.0], [0.0, 1.0], INCREASING)
        with pytest.raises(DegenerateFit):
            affine_align(f1, f2, np.array([0.0, 0.5, 1.0]))


class TestGaugeUniqueness:
    def test_identical_configs_are_identity_related(self, beer):
        report = check_gauge_uniqueness(beer, [(1.0, 1.0, 12), (1.0, 1.0, 12)])
        assert report.passed
        pair = report.pairs[0]
        assert pair.xi == pytest.approx(1.0, abs=1e-9)
        assert pair.theta == pytest.approx(0.0, abs=1e-9)

    def test_beer_anchors_affinely_related(self, beer):
        report = check_gauge_uniqueness(
            beer, [(0.5, None, 16), (1.0, None, 16), (2.0, None, 16)]
        )
        assert report.passed
        for pair in report.pairs:
            assert pair.xi > 0
            assert pair.f_err <= 1e-3
            assert pair.g_err <= 1e-3
