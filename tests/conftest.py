import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from permlaw import BivariateCode, Interval, LawSpec, make_law, make_synthetic

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class ComposedCode:
    """outer(base(y, r)) with the base code's domains and direction."""

    def __init__(self, base, outer, outer_increasing=True):
        self.base = base
        self.outer = outer
        self.J = base.J
        self.J2 = base.J2
        if outer_increasing:
            self.dir_second = base.dir_second
        else:
            self.dir_second = (
                "decreasing" if base.dir_second == "increasing" else "increasing"
            )
        self.interpolated = getattr(base, "interpolated", False)

    def __call__(self, y, r):
        return self.outer(self.base(y, r))

    def default_tolerance(self) -> float:
        return 1e-4 if self.interpolated else 1e-9


def law(name, **params):
    return make_law(LawSpec(name=name, params=params, domain=None))


def jump_code(J=Interval(0.0, 10.0)):
    """G(y, r) = y + r + [y > 5] on J x [0, 1]: code(., t) skips
    (5 + t, 6 + t], so a target in that gap fails the inversions'
    post-check."""
    return BivariateCode(fn=lambda y, r: y + r + (y > 5.0),
                         domain=(J, Interval(0.0, 1.0)), dir_second="increasing")


def _separated_knots(rng, lo, hi, n):
    # keep all gaps comparable so no segment hides from the probe grids
    pos = np.cumsum(0.35 + rng.random(n - 1))
    pos = np.concatenate([[0.0], pos])
    ks = lo + (hi - lo) * pos / pos[-1]
    ks[0], ks[-1] = lo, hi
    return ks


def additive_code(seed):
    """Acceptance criterion 4's random additive code, drawn from
    default_rng(seed), with g decreasing for odd seeds.  J is restricted
    so f(y) + g(r) never leaves f's value range.  Returns (code, f knots,
    g knots)."""
    rng = np.random.default_rng(seed)
    fk = _separated_knots(rng, 0.0, 12.0, 10)
    fv = np.cumsum(0.3 + rng.random(10))
    fv -= fv[0]
    gk = _separated_knots(rng, 0.0, 3.0, 10)
    amp = 0.25 * (fv[-1] - fv[0])
    gv = np.cumsum(np.concatenate([[0.0], 0.3 + rng.random(9)]))
    gv = gv / gv[-1] * amp
    if seed % 2:
        gv = gv[::-1].copy()
    g_hi = float(max(gv[0], gv[-1]))
    g_lo = float(min(gv[0], gv[-1]))
    J_hi = float(np.interp(fv[-1] - g_hi, fv, fk))
    J_lo = max(float(np.interp(fv[0] - g_lo, fv, fk)),
               fk[0] + 0.6 * (fk[1] - fk[0]))
    J = Interval(J_lo + 1e-3, J_hi - 1e-3)
    code = make_synthetic((fk, fv), (gk, gv), domain=(J, Interval(0.0, 3.0)))
    return code, fk, gk


@pytest.fixture
def cylinder():
    return law("cylinder")


@pytest.fixture
def pythagoras():
    return law("pythagoras")


@pytest.fixture
def beer():
    return law("beer")


@pytest.fixture
def lorentz():
    return law("lorentz")


@pytest.fixture
def vanderwaals():
    return law("vanderwaals")


@pytest.fixture
def log_cylinder(cylinder):
    return ComposedCode(cylinder, np.log)
