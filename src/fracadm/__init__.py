"""fracadm: decomposition-series solutions of D_y^a u + u * D_x^b u = g(x).

Fractional derivatives are Caputo on both axes; solutions are finite
generalized power series built by the decomposition recursion
u_{n+1} = -J_y^a A_n with convolution polynomials for the bilinear
nonlinearity.
"""

from .adm import (
    ProblemSpec,
    SolutionSeries,
    SolveError,
    adomian_polynomial,
    residual,
    solve,
)
from .gammafn import GammaPoleError, gamma, gamma_ratio, rgamma
from .parser import SeriesParseError, parse_series
from .problems import (
    REFERENCE_TABLES,
    TableCell,
    TableReport,
    builtin_problem,
    exact_solution,
    make_table,
    recovered_depth,
    truncation_scan,
)
from .series import (
    Axis,
    EvaluationDomainError,
    FracSeries,
    FracTerm,
    NonIntegrableTermError,
    TermCapError,
    caputo_deriv,
    format_series,
    rl_integral,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "EvaluationDomainError",
    "FracSeries",
    "FracTerm",
    "GammaPoleError",
    "NonIntegrableTermError",
    "ProblemSpec",
    "REFERENCE_TABLES",
    "SeriesParseError",
    "SolutionSeries",
    "SolveError",
    "TableCell",
    "TableReport",
    "TermCapError",
    "adomian_polynomial",
    "builtin_problem",
    "caputo_deriv",
    "exact_solution",
    "format_series",
    "gamma",
    "gamma_ratio",
    "make_table",
    "parse_series",
    "recovered_depth",
    "residual",
    "rgamma",
    "rl_integral",
    "solve",
    "truncation_scan",
]
