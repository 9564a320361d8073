"""Numerical tests and constructions for permutable bivariate laws.

A law G(y, r) on J x J' is permutable when G(G(y, r), t) = G(G(y, t), r).
This package checks that property on grids, builds the additive form
G(y, r) = f^-1(f(y) + g(r)) two independent ways (a constructive
anchor-orbit route and monotone least-squares fitting), and verifies that
any two valid (f, g) pairs agree up to the affine gauge f* = xi f + theta,
g* = xi g.
"""

from .axioms import (
    CheckReport,
    ComonotonicPair,
    ComonotonicReport,
    ImplicationReport,
    SolvabilityReport,
    check_code_axioms,
    check_comonotonic,
    check_M_permutable_implies_G,
    check_permutability,
    check_quasi_permutability,
    check_solvability,
    construct_F,
)
from .corpus import (
    LAW_NAMES,
    AnalyticReference,
    LawSpec,
    NoAnalyticForm,
    analytic_reference,
    load_grid,
    make_law,
    make_synthetic,
    write_grid_csv,
)
from .fitter import (
    DegenerateFit,
    FitResult,
    GaugeReport,
    NonConvergence,
    PairAlignment,
    affine_align,
    check_gauge_uniqueness,
    fit_additive,
)
from .holder import (
    ConditionReport,
    DifferentiabilityReport,
    HolderStructure,
    NotArchimedeanWithinCap,
    NotSymmetric,
    OrbitEscaped,
    StandardSequence,
    StepUndefined,
    Undefined,
    UnitDegenerate,
    archimedean_count,
    check_differentiability,
    check_holder_conditions,
    construct_f,
    construct_g,
    make_structure,
    residual_report,
    standard_sequence,
    suggest_r0,
    symmetric_representation,
)
from .lawcore import (
    AdditiveRepresentation,
    AffineMap,
    BivariateCode,
    Gauge,
    Interval,
    InvalidInterval,
    InvalidParams,
    LawError,
    MonotoneFunction,
    NonMonotoneKnots,
    OutOfDomain,
    RangeClipped,
    RangeExceeded,
    bisect_monotone,
    invert_in_first,
    invert_in_second,
)

__version__ = "0.1.0"
