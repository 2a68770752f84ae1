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
    Orientation,
    OrientationTable,
    boundary,
    equivalent,
    induced_orientation,
    is_flow,
    is_tension,
)
from .polynomials import (
    BivariatePolynomial,
    InterpolationError,
    PolynomialReport,
    counting_polynomial,
    interpolate,
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
    "MultiGraph",
    "Orientation",
    "OrientationTable",
    "PolynomialReport",
    "boundary",
    "build_graph",
    "count",
    "counting_polynomial",
    "equivalent",
    "format_graph_text",
    "induced_orientation",
    "interpolate",
    "is_flow",
    "is_tension",
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
