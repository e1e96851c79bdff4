"""Fractional curvature, nonlocal perimeters, and curvature flow on
discretized convex hypersurfaces."""

__version__ = "0.1.0"

from .geometry import (
    Ball,
    ConvexBody,
    DegenerateError,
    GeometryError,
    Hull3D,
    NodeSubset,
    NonConvexError,
    Params,
    Polygon2D,
    SurfaceQuadrature,
    make_body,
    surface_quadrature,
)
from .quadrature import sphere_rule
from .nonlocal_ops import (
    CurvatureValue,
    ScalarField,
    double_layer,
    frac_perimeter,
    gagliardo,
    halpha_boundary,
    halpha_chord,
    interaction_matrix,
    tail_integral,
)
from .inequalities import (
    InequalityReport,
    SlicingSequence,
    SUITE_SECTIONS,
    run_suite,
)
from .flow import (
    FlowOptions,
    FlowTrace,
    MaxStepsExceededError,
    StepCollapseError,
    TraceTooShortError,
    check_decay_and_bounds,
    check_first_variation,
    classical_curvature,
    flow,
    sample_boundary,
)
from .fixtures import FIXTURE_NAMES, load_fixture

__all__ = [
    "Ball",
    "ConvexBody",
    "CurvatureValue",
    "DegenerateError",
    "FIXTURE_NAMES",
    "FlowOptions",
    "FlowTrace",
    "GeometryError",
    "Hull3D",
    "InequalityReport",
    "MaxStepsExceededError",
    "NodeSubset",
    "NonConvexError",
    "Params",
    "Polygon2D",
    "ScalarField",
    "SlicingSequence",
    "StepCollapseError",
    "SUITE_SECTIONS",
    "SurfaceQuadrature",
    "TraceTooShortError",
    "check_decay_and_bounds",
    "check_first_variation",
    "classical_curvature",
    "double_layer",
    "flow",
    "frac_perimeter",
    "gagliardo",
    "halpha_boundary",
    "halpha_chord",
    "interaction_matrix",
    "load_fixture",
    "make_body",
    "run_suite",
    "sample_boundary",
    "sphere_rule",
    "surface_quadrature",
    "tail_integral",
    "__version__",
]
