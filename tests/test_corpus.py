import numpy as np
import pytest

from permlaw import (
    LAW_NAMES,
    Interval,
    InvalidParams,
    LawSpec,
    MonotoneFunction,
    NoAnalyticForm,
    analytic_reference,
    load_grid,
    make_law,
    make_synthetic,
    write_grid_csv,
)
from permlaw.lawcore import INCREASING, DECREASING

from conftest import law


class TestLawValues:
    """Spot values recomputed from the closed forms, not from the package."""

    def test_cylinder(self):
        code = law("cylinder")
        assert code(2.0, 1.0) == pytest.approx(2.0 * np.pi, abs=1e-12)
        assert code(1.0, 3.0) == pytest.approx(9.0 * np.pi, abs=1e-12)

    def test_pythagoras(self):
        code = law("pythagoras")
        assert code(3.0, 4.0) == pytest.approx(5.0, abs=1e-12)

    def test_lorentz(self):
        code = law("lorentz")
        assert code(1.0, 0.95) == pytest.approx(np.sqrt(1.0 - 0.95**2), abs=1e-12)
        assert code(2.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_beer(self):
        code = law("beer")
        assert code(2.0, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert code(1.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_vanderwaals_association_orders_differ(self):
        code = law("vanderwaals")
        # (p + a/v^2)(v - b) applied twice in each order at (1, 1.5, 1.8)
        lhs = code(code(1.0, 1.5), 1.8)
        rhs = code(code(1.0, 1.8), 1.5)
        assert lhs == pytest.approx(4.237037037037037, abs=1e-12)
        assert rhs == pytest.approx(3.837037037037037, abs=1e-12)
        assert abs(lhs - rhs) == pytest.approx(0.4, abs=1e-12)

    def test_default_domains(self):
        expected = {
            "lorentz": ((0.1, 10.0), (0.0, 0.95)),
            "beer": ((0.1, 10.0), (0.0, 5.0)),
            "cylinder": ((0.1, 10.0), (0.1, 3.0)),
            "pythagoras": ((0.5, 10.0), (0.5, 10.0)),
            "vanderwaals": ((0.5, 5.0), (1.0, 3.0)),
        }
        for name, ((jlo, jhi), (plo, phi)) in expected.items():
            code = law(name)
            assert (code.J.lo, code.J.hi) == (jlo, jhi)
            assert (code.J2.lo, code.J2.hi) == (plo, phi)

    def test_directions(self):
        assert law("cylinder").dir_second == INCREASING
        assert law("lorentz").dir_second == DECREASING
        assert law("beer").dir_second == DECREASING


class TestValidation:
    def test_unknown_law(self):
        with pytest.raises(InvalidParams):
            LawSpec(name="ideal-gas", params={}, domain=None)

    def test_beer_needs_positive_c(self):
        with pytest.raises(InvalidParams):
            law("beer", c=-1.0)

    def test_lorentz_speeds_below_c(self):
        spec = LawSpec(
            name="lorentz",
            params={"c": 1.0},
            domain=(Interval(0.1, 10.0), Interval(0.0, 1.5)),
        )
        with pytest.raises(InvalidParams):
            make_law(spec)

    def test_vanderwaals_volume_above_b(self):
        spec = LawSpec(
            name="vanderwaals",
            params={"b": 2.0},
            domain=(Interval(0.5, 5.0), Interval(1.0, 3.0)),
        )
        with pytest.raises(InvalidParams):
            make_law(spec)

    @pytest.mark.parametrize("name, params, message", [
        ("lorentz", {"C": 2.0}, "lorentz has no parameter C; known: c"),
        ("cylinder", {"c": 1.0}, "cylinder has no parameter c; known: none"),
        ("synthetic", {"f_xs": [0, 1], "f_ys": [0, 1], "g_xs": [0, 1],
                       "g_ys": [0, 1], "m_xs": [0, 1], "m_ys": [0, 1]},
         "synthetic has no parameter m_xs, m_ys; known: f_xs, f_ys, g_xs, g_ys"),
    ])
    def test_unknown_parameters_are_refused(self, name, params, message):
        with pytest.raises(InvalidParams) as exc:
            make_law(LawSpec(name, params))
        assert str(exc.value) == message


class TestAnalyticReference:
    def test_log_family(self):
        for name in ("lorentz", "beer", "cylinder"):
            ref = analytic_reference(LawSpec(name=name, params={}, domain=None))
            xs = np.array([0.5, 1.0, 2.0])
            vals = np.asarray(ref.f_closed(xs), dtype=float)
            # ln up to an affine map: second differences of exp(vals) vanish
            diffs = vals - np.log(xs)
            assert np.max(np.abs(diffs - diffs[0])) < 1e-12, name

    def test_pythagoras_is_square(self):
        ref = analytic_reference(LawSpec(name="pythagoras", params={}, domain=None))
        xs = np.array([1.0, 2.0, 3.0])
        vals = np.asarray(ref.f_closed(xs), dtype=float)
        diffs = vals - xs**2
        assert np.max(np.abs(diffs - diffs[0])) < 1e-12

    def test_no_form_for_vanderwaals(self):
        with pytest.raises(NoAnalyticForm):
            analytic_reference(LawSpec(name="vanderwaals", params={}, domain=None))


class TestSynthetic:
    def _simple_knots(self):
        fk = np.linspace(0.0, 10.0, 8)
        gk = np.linspace(0.0, 2.0, 6)
        return (fk, 0.7 * fk), (gk, 0.7 * gk)

    def test_additive_identity_points(self):
        f_knots, g_knots = self._simple_knots()
        code = make_synthetic(f_knots, g_knots)
        # f and g are both linear with slope 0.7, so G(y, r) = y + r
        assert code(3.0, 1.0) == pytest.approx(4.0, abs=1e-9)
        assert code.dir_second == INCREASING

    def test_domain_must_sit_inside_knot_spans(self):
        f_knots, g_knots = self._simple_knots()
        with pytest.raises(InvalidParams):
            make_synthetic(
                f_knots, g_knots, domain=(Interval(0.0, 12.0), Interval(0.0, 2.0))
            )

    def test_decreasing_g(self):
        f_knots, _ = self._simple_knots()
        gk = np.linspace(0.0, 2.0, 6)
        gv = 0.7 * (2.0 - gk)
        code = make_synthetic(f_knots, (gk, gv))
        assert code.dir_second == DECREASING
        assert code(3.0, 0.0) == pytest.approx(5.0, abs=1e-9)

    def test_sum_clamping_reported(self):
        f_knots, g_knots = self._simple_knots()
        code = make_synthetic(f_knots, g_knots)
        # top corner pushes f(y)+g(r) past f's last value and must clamp
        assert code(10.0, 2.0) == pytest.approx(10.0, abs=1e-9)


class TestGridIO:
    def test_roundtrip_preserves_knot_values(self, tmp_path):
        base = law("cylinder")
        ys = np.linspace(0.1, 10.0, 21)
        rs = np.linspace(0.1, 3.0, 17)
        V = np.asarray(base(ys[:, None], rs[None, :]), dtype=float)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, ys, rs, V)
        code = load_grid(path)
        assert code.interpolated
        assert code.default_tolerance() == pytest.approx(1e-4)
        assert code(ys[3], rs[5]) == pytest.approx(V[3, 5], abs=1e-12)
        # interpolation error between knots stays small for a smooth law
        mid = code(0.55, 1.23)
        assert mid == pytest.approx(base(0.55, 1.23), rel=5e-3)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvalidParams):
            write_grid_csv(tmp_path / "bad.csv", [1.0, 2.0], [1.0], np.zeros((3, 1)))


def _assert_elementwise(code, n, seed=0):
    # Array and broadcast calls give every point the value the point gets
    # alone, bit for bit: the lane-wise constructive route relies on it.
    rng = np.random.default_rng(seed)
    Y = rng.uniform(code.J.lo, code.J.hi, n)
    R = rng.uniform(code.J2.lo, code.J2.hi, n)
    alone = np.array([float(code(y, r)) for y, r in zip(Y, R)])
    assert np.array_equal(np.asarray(code(Y, R), dtype=float), alone)
    assert np.array_equal(np.asarray(code(Y, R[0]), dtype=float),
                          [float(code(y, R[0])) for y in Y])
    assert np.array_equal(np.asarray(code(Y[0], R), dtype=float),
                          [float(code(Y[0], r)) for r in R])


class TestElementwise:
    @pytest.mark.parametrize(
        "name", ["lorentz", "beer", "cylinder", "pythagoras", "vanderwaals"])
    def test_closed_forms(self, name):
        _assert_elementwise(law(name), 20000)

    def test_synthetic(self):
        rng = np.random.default_rng(1)
        fk = np.sort(rng.uniform(0.0, 10.0, 9))
        gk = np.sort(rng.uniform(0.0, 2.0, 7))
        code = make_synthetic((fk, np.cumsum(rng.uniform(0.1, 1.0, 9))),
                              (gk, np.cumsum(rng.uniform(0.1, 1.0, 7))))
        _assert_elementwise(code, 3000)

    def test_grid_table(self, tmp_path):
        ys = np.linspace(0.1, 10.0, 21)
        rs = np.linspace(0.0, 0.9, 17)
        write_grid_csv(tmp_path / "grid.csv", ys, rs,
                       np.asarray(law("lorentz")(ys[:, None], rs[None, :])))
        _assert_elementwise(load_grid(tmp_path / "grid.csv"), 3000)
