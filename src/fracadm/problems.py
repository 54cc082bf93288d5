"""Built-in benchmark problems with closed-form solutions and report tables.

Four initial-value problems for D_y^alpha u + u * D_x^beta u = g(x) whose
classical (alpha = beta = 1) solutions are known in closed form:

    1:  g = x,  u(x,0) = 1,      u = x*tanh(y) + sech(y)
    2:  g = 1,  u(x,0) = -x,     u = (2x - 2y + y^2) / (2(y - 1))
    3:  g = 0,  u(x,0) = x + 1,  u = (1 + x) / (1 + y)
    4:  g = 0,  u(x,0) = x,      u = x / (1 + y)

Each problem ships with a reference accuracy table (approximate values at
three order pairs on a fixed 3x3 grid, plus exact values and absolute
errors for the classical pair).  ``truncation_scan`` measures how closely
a given truncation depth reproduces that stored table, which is how the
depth behind the reference data is recovered.
"""

import itertools
import math
from collections import namedtuple

from .adm import ProblemSpec, SolveError, solve
from .series import FracSeries, FracTerm

__all__ = [
    "EXAMPLE_IDS",
    "Y_GRID",
    "X_GRID",
    "ORDER_PAIRS",
    "CLASSICAL_PAIR",
    "SingularPointError",
    "builtin_problem",
    "exact_solution",
    "TableCell",
    "make_table",
    "REFERENCE_TABLES",
    "ScanRow",
    "truncation_scan",
    "recovered_depth",
]

EXAMPLE_IDS = (1, 2, 3, 4)

# Shared reporting grid and order pairs of the reference tables.
Y_GRID = (0.01, 0.05, 0.1)
X_GRID = (0.3, 0.6, 0.9)
ORDER_PAIRS = ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0))
CLASSICAL_PAIR = (1.0, 1.0)


class SingularPointError(ValueError):
    """Closed-form solution evaluated at one of its singular points."""


_CATALOGUE: dict[int, tuple[tuple[FracTerm, ...], tuple[FracTerm, ...]]] = {
    # id: (initial condition terms, forcing terms)
    1: ((FracTerm(1.0),), (FracTerm(1.0, px=1.0),)),
    2: ((FracTerm(-1.0, px=1.0),), (FracTerm(1.0),)),
    3: ((FracTerm(1.0), FracTerm(1.0, px=1.0)), ()),
    4: ((FracTerm(1.0, px=1.0),), ()),
}


def builtin_problem(
    example: int, alpha: float = 1.0, beta: float = 1.0, n_terms: int = 6
) -> ProblemSpec:
    """ProblemSpec for one of the four built-in benchmark problems."""
    if example not in _CATALOGUE:
        raise ValueError(f"unknown example id {example!r}; valid ids are 1..4")
    ic_terms, forcing_terms = _CATALOGUE[example]
    return ProblemSpec(
        alpha=alpha,
        beta=beta,
        ic=FracSeries(ic_terms),
        forcing=FracSeries(forcing_terms),
        n_terms=n_terms,
    )


def exact_solution(example: int, x: float, y: float) -> float:
    """Closed-form classical solution of the chosen benchmark problem; a value
    past the double range raises OverflowError naming the point."""
    if example == 1:
        try:
            sech = 1.0 / math.cosh(y)
        except OverflowError:
            # |y| > 710.4759: sech is 2e^-|y|, rounded once into the subnormals
            # (2.0 * math.exp(-|y|) rounds twice: 1e-323 at y = 745, for 5e-324)
            half = math.exp(-abs(y) / 2)
            sech = 2.0 * half * half
        return x * math.tanh(y) + sech
    if example == 2:
        if y == 1.0:
            raise SingularPointError("example 2 is singular at y = 1")
        value = (2.0 * x - 2.0 * y + y * y) / (2.0 * (y - 1.0))
        if not math.isfinite(value):
            # 2x or y*y overflowed: the same quotient, split so that neither is formed
            value = (y - 1.0) / 2.0 + (x - 0.5) / (y - 1.0)
            if not math.isfinite(value):
                raise OverflowError(f"exact value at x = {x!r}, y = {y!r} is {value!r}")
        return value
    if example == 3:
        if y == -1.0:
            raise SingularPointError("example 3 is singular at y = -1")
        return (1.0 + x) / (1.0 + y)
    if example == 4:
        if y == -1.0:
            raise SingularPointError("example 4 is singular at y = -1")
        return x / (1.0 + y)
    raise ValueError(f"unknown example id {example!r}; valid ids are 1..4")


# -- table reports -----------------------------------------------------------


# exact and abs_error are None off the classical pair
TableCell = namedtuple("TableCell", "y x alpha beta approx exact abs_error")


def _tabulate(example: int, sols, n: int) -> list[TableCell]:
    """The cells of Phi_n, one solution per pair of ORDER_PAIRS, on the grid.

    Cells come out by y, then x, then pair; each pair's Phi_n is evaluated on
    the whole grid by one ``FracSeries.evaluate_grid`` call, pairs in order.
    ``approx`` is None for a pair whose solution is shallower than n.
    """
    approxs = [
        iter(sol.partial_sum(n).evaluate_grid(X_GRID, Y_GRID))
        if n <= len(sol.components)
        else itertools.repeat(None)
        for sol in sols
    ]
    cells = []
    for y in Y_GRID:
        for x in X_GRID:
            for pair, values in zip(ORDER_PAIRS, approxs):
                approx = next(values)
                exact = error = None
                if pair == CLASSICAL_PAIR:
                    exact = exact_solution(example, x, y)
                    if approx is not None:
                        error = abs(exact - approx)
                cells.append(TableCell(y, x, *pair, approx, exact, error))
    return cells


def make_table(example: int, n_terms: int) -> tuple[TableCell, ...]:
    """Solve once per order pair and tabulate Phi_{n_terms} on the grid.

    The cells cover ORDER_PAIRS on Y_GRID x X_GRID, the layout of the
    reference tables, by y, then x, then pair.
    """
    sols = [solve(builtin_problem(example, *pair, n_terms)) for pair in ORDER_PAIRS]
    return tuple(_tabulate(example, sols, n_terms))


# -- reference data ----------------------------------------------------------

# Published reference tables for the four benchmark problems.  Per (y, x):
# approximate value at (0.5, 0.5), at (0.75, 0.75), at (1, 1), then the
# exact classical value and the absolute error at (1, 1).
REFERENCE_TABLES: dict[int, dict[tuple[float, float], tuple[float, ...]]] = {
    1: {
        (0.01, 0.3): (1.02826, 1.00972, 1.00295, 1.00295, 1.78455e-17),
        (0.01, 0.6): (1.05931, 1.01991, 1.00595, 1.00595, 1.79697e-17),
        (0.01, 0.9): (1.09087, 1.03015, 1.00895, 1.00895, 1.81007e-17),
        (0.05, 0.3): (1.05085, 1.02803, 1.01374, 1.01374, 1.35317e-12),
        (0.05, 0.6): (1.11205, 1.06088, 1.02873, 1.02873, 1.36598e-12),
        (0.05, 0.9): (1.17514, 1.0942, 1.04371, 1.04371, 1.37878e-12),
        (0.1, 0.3): (1.05979, 1.04063, 1.02492, 1.02492, 3.4865e-10),
        (0.1, 0.6): (1.13731, 1.09334, 1.05482, 1.05482, 3.55184e-10),
        (0.1, 0.9): (1.21761, 1.14748, 1.08472, 1.08472, 3.61719e-10),
    },
    2: {
        (0.01, 0.3): (-0.210064, -0.274905, -0.29298, -0.29298, 2.9798e-9),
        (0.01, 0.6): (-0.555538, -0.586408, -0.59601, -0.59601, 6.0101e-9),
        (0.01, 0.9): (-0.910206, -0.898583, -0.89904, -0.89904, 9.04041e-9),
        (0.05, 0.3): (-0.0782081, -0.213214, -0.264472, -0.264474, 1.80921e-6),
        (0.05, 0.6): (-0.50313, -0.556151, -0.580259, -0.580263, 3.78289e-6),
        (0.05, 0.9): (-0.966632, -0.90218, -0.896047, -0.896053, 5.75658e-6),
        (0.1, 0.3): (0.0446003, -0.147862, -0.22775, -0.227778, 2.77778e-5),
        (0.1, 0.6): (-0.454211, -0.528458, -0.56105, -0.561111, 6.11111e-5),
        (0.1, 0.9): (-1.03523, -0.916113, -0.89435, -0.894444, 9.44444e-5),
    },
    3: {
        (0.01, 0.3): (1.20487, 1.26054, 1.28713, 1.28713, 1.28713e-8),
        (0.01, 0.6): (1.45717, 1.54776, 1.58416, 1.58416, 1.58416e-8),
        (0.01, 0.9): (1.71169, 1.83537, 1.88119, 1.88119, 1.88119e-8),
        (0.05, 0.3): (1.10925, 1.1828, 1.23809, 1.2381, 7.7381e-6),
        (0.05, 0.6): (1.29774, 1.4429, 1.5238, 1.52381, 9.52381e-6),
        (0.05, 0.9): (1.49262, 1.70524, 1.80951, 1.80952, 1.13095e-5),
        (0.1, 0.3): (1.00627, 1.12089, 1.1817, 1.18182, 1.18182e-4),
        (0.1, 0.6): (1.11627, 1.35561, 1.4544, 1.45455, 1.45455e-4),
        (0.1, 0.9): (1.23329, 1.59591, 1.7271, 1.72727, 1.72727e-4),
    },
    4: {
        (0.01, 0.3): (0.276009, 0.290771, 0.29703, 0.29703, 2.97029e-13),
        (0.01, 0.6): (0.544279, 0.580275, 0.594059, 0.594059, 5.94058e-13),
        (0.01, 0.9): (0.80891, 0.869243, 0.891089, 0.891089, 8.91087e-13),
        (0.05, 0.3): (0.252999, 0.271796, 0.285714, 0.285714, 4.46429e-9),
        (0.05, 0.6): (0.491149, 0.540065, 0.571429, 0.571429, 8.92857e-9),
        (0.05, 0.9): (0.720922, 0.806873, 0.857143, 0.857143, 1.33929e-8),
        (0.1, 0.3): (0.23591, 0.256139, 0.272727, 0.272727, 2.72727e-7),
        (0.1, 0.6): (0.442692, 0.507181, 0.545454, 0.545454, 5.45455e-7),
        (0.1, 0.9): (0.624414, 0.756131, 0.818181, 0.818181, 8.18182e-7),
    },
}

# Reference error entries below this many ulps of the exact value cannot be
# resolved by double-precision subtraction and are excluded from deviation
# metrics (affects the y = 0.01 row of table 1 only).
_ERROR_RESOLUTION_ULPS = 64.0


def _error_resolvable(ref_error: float, exact_value: float) -> bool:
    return ref_error > _ERROR_RESOLUTION_ULPS * math.ulp(abs(exact_value))


ScanRow = namedtuple("ScanRow", "n_terms max_deviation error_column_deviation")


def _rel_dev(mine: float, ref: float) -> float:
    return abs(mine - ref) / abs(ref)


def truncation_scan(example: int, n_max: int) -> list[ScanRow]:
    """Deviation of each truncation depth's table from the reference table.

    Each order pair is solved once, to n_max, and the table at depth n is
    tabulated from that solution's partial sum Phi_n, which equals a solve
    to depth n because components do not depend on the truncation depth.
    Every depth's table is compared cell by cell against REFERENCE_TABLES.
    ``max_deviation`` covers all columns; ``error_column_deviation`` covers
    only the classical-pair absolute errors, which is the column that
    actually pins down the depth (the fractional columns have no
    independent ground truth).  A pair whose solve fails at u_k still
    supplies depths 1..k; at deeper depths its columns contribute ``inf``.
    The scan ends at n_max or at the first depth no pair reached, whose row
    reads ``inf`` twice, as every deeper row would.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    sols = []
    for pair in ORDER_PAIRS:
        try:
            sols.append(solve(builtin_problem(example, *pair, n_max)))
        except SolveError as exc:
            sols.append(exc.solution)
    ref = REFERENCE_TABLES[example]
    rows = []
    for n in range(1, min(n_max, max(len(sol.components) for sol in sols) + 1) + 1):
        devs = []
        err_devs = []
        for y, x, alpha, beta, approx, exact, error in _tabulate(example, sols, n):
            if approx is None:
                devs.append(math.inf)
                continue
            row = ref[y, x]
            devs.append(_rel_dev(approx, row[ORDER_PAIRS.index((alpha, beta))]))
            if error is not None and _error_resolvable(row[4], exact):
                err_dev = _rel_dev(error, row[4])
                devs.append(err_dev)
                err_devs.append(err_dev)
        rows.append(ScanRow(n, max(devs), max(err_devs, default=math.inf)))
    return rows


def recovered_depth(example: int, n_max: int = 8) -> int:
    """Depth whose classical error column best matches the reference table."""
    return _best_depth(truncation_scan(example, n_max))


def _best_depth(rows: list[ScanRow]) -> int:
    """The depth of a scan's rows with the least error-column deviation, the
    shallowest on a tie."""
    return min(rows, key=lambda r: (r.error_column_deviation, r.n_terms)).n_terms
