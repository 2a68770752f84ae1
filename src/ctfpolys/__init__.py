"""Exact complementary tension-flow polynomials of multigraphs.

The package computes, in exact arithmetic, the modular/integral
complementary polynomials and their closed-box duals alongside the Tutte,
rank-generating, tension, and flow polynomials, and mechanically verifies
the identities relating them (decomposition, reciprocity, specialization,
convolution, integral-modular relations) on small graphs.
"""

from .counting import CyclicProduct, FAMILIES, count
from .multigraph import (
    ForestData,
    GraphFormatError,
    GraphStats,
    MultiGraph,
    build_graph,
    format_graph_text,
    parse_graph_text,
    spanning_structure,
)
from .orientations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ClassPartition,
    MintyPartition,
    Orientation,
    OrientationClassification,
    boundary,
    classify,
    coupling,
    enumerate_classes,
    enumerate_orientations,
    equivalent,
    incidence_sign,
    indicator,
    induced_orientation,
    is_flow,
    is_tension,
    minty_partition,
)
from .polynomials import (
    BivariatePolynomial,
    InterpolationError,
    PolynomialReport,
    counting_polynomial,
    interpolate,
    local_polynomial,
    polynomial_report,
    rank_generating,
    tutte,
)
from .verify import (
    IdentityCheck,
    IdentityReport,
    small_multigraphs,
    verify_corpus,
    verify_graph,
)

__all__ = [
    "BivariatePolynomial",
    "BudgetExceededError",
    "ClassPartition",
    "CyclicProduct",
    "DEFAULT_BUDGET",
    "FAMILIES",
    "ForestData",
    "GraphFormatError",
    "GraphStats",
    "IdentityCheck",
    "IdentityReport",
    "InterpolationError",
    "MintyPartition",
    "MultiGraph",
    "Orientation",
    "OrientationClassification",
    "PolynomialReport",
    "boundary",
    "build_graph",
    "classify",
    "count",
    "counting_polynomial",
    "coupling",
    "enumerate_classes",
    "enumerate_orientations",
    "equivalent",
    "format_graph_text",
    "incidence_sign",
    "indicator",
    "induced_orientation",
    "interpolate",
    "is_flow",
    "is_tension",
    "local_polynomial",
    "minty_partition",
    "parse_graph_text",
    "polynomial_report",
    "rank_generating",
    "small_multigraphs",
    "spanning_structure",
    "tutte",
    "verify_corpus",
    "verify_graph",
]

__version__ = "0.1.0"
