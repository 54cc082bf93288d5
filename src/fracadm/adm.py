"""Decomposition-series solver for D_y^alpha u + u * D_x^beta u = g(x).

The unknown is expanded as u = sum_n u_n and the bilinear nonlinearity
N(u) = u * D_x^beta u as a sum of convolution polynomials

    A_n = sum_{i=0}^{n} u_i * D_x^beta u_{n-i},

after which the recursion is

    u_0     = f(x) + J_y^alpha g(x)
    u_{n+1} = -J_y^alpha A_n.

For a bilinear nonlinearity the convolution is identical to the classical
lambda-derivative construction of the decomposition polynomials; the test
suite keeps that construction (``tests/oracles.py``) as an independent
numerical check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .series import (
    Axis,
    FracSeries,
    _decimal,
    _frame,
    _width,
    caputo_deriv,
    rl_integral,
    sum_of_products,
    sum_series,
)

__all__ = ["ProblemSpec", "SolutionSeries", "SolveError", "solve"]

# A solve forms at most this many raw products, one per pair of terms of u_i
# and D_x^beta u_j, over all its A_n; a pair of series with no products counts
# as one.  A step that would pass it fails before it forms any.  The largest
# benchmark solve forms 137,256.  On a 2-core x86 VM with Python 3.11, example
# 1 at generic orders stops at u_76 after 0.26 s of solve and 19.0 MB peak RSS
# (in process); one A_0 of 1,224 x 1,224 products on nearly distinct
# exponents, the worst case for memory, took 4.7-6.2 s and 315 MB.
_WORK_BUDGET = 1_500_000


class SolveError(ArithmeticError):
    """Numeric failure during the recursion; carries the offending depth.

    ``solution`` is the SolutionSeries of the components u_0..u_{depth-1}
    finished before the failure, what a solve to that depth returns; it has
    no components when u_0 itself failed.  ``depth`` is its length.
    """

    def __init__(self, message: str, solution: SolutionSeries):
        self.depth = len(solution.components)
        self.solution = solution
        super().__init__(f"component u_{self.depth}: {message}")


class ProblemSpec(namedtuple("ProblemSpec", "alpha beta ic forcing n_terms")):
    """One initial-value problem D_y^alpha u + u*D_x^beta u = g, u(x,0) = f.

    Orders live in (0, 1], so the initial-condition sum collapses to the
    single value u(x, 0); ic and forcing are series in x alone.  Every
    construction validates, so build a changed copy with ``ProblemSpec(...)``,
    not ``_replace``, which bypasses ``__new__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        alpha: float,
        beta: float,
        ic: FracSeries,
        forcing: FracSeries,
        n_terms: int,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta!r}")
        if n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {n_terms!r}")
        for name, s in (("ic", ic), ("forcing", forcing)):
            if s._y_max != 0:
                raise ValueError(f"{name} must not depend on y: {s}")
        return super().__new__(cls, alpha, beta, ic, forcing, n_terms)


class SolutionSeries(namedtuple("SolutionSeries", "components")):
    """Solver output: components u_0..u_{N-1}; partial sums are formed on request."""

    __slots__ = ()

    def partial_sum(self, n: int) -> FracSeries:
        """Phi_n = u_0 + ... + u_{n-1} for 1 <= n <= len(components).

        One normalization over the raw terms of u_0..u_{n-1}, so each merged
        coefficient is one correctly rounded fsum.  Not cached: each call
        normalizes again, but in the packing frame of all the components,
        so the calls of a scan pack each component once.  A coefficient
        that overflows raises SolveError naming u_{n-1}, the last component
        it adds, and carrying u_0..u_{n-2}.
        """
        if not 1 <= n <= len(self.components):
            raise IndexError(
                f"partial sum index {n} outside 1..{len(self.components)}"
            )
        try:
            return sum_series(self.components[:n], _frame(self.components))
        except OverflowError as exc:
            raise SolveError(str(exc), SolutionSeries(self.components[: n - 1])) from exc


def _solve_frame(problem: ProblemSpec) -> tuple[int, int]:
    """The one packing frame (den, width) of every sum and product of a solve.

    den is the largest denominator of ic, forcing, alpha and beta, and so of
    every component and derivative.  The width holds py(u_n) <= (2n+1)*alpha:
    ic and g are y-free, so u_0 is at most alpha, a product adds its two
    exponents (A_n at most (2n+2)*alpha) and J_y^alpha adds alpha.  It is
    tight: example 1's u_20 at generic orders reaches 41*alpha.  n stops at
    the deepest component the work budget lets a solve form: the step to
    u_{n+1} forms at least n+1 more products, so u_m needs m(m+1)/2 in all.
    """
    (a, da), (_, db) = _decimal(problem.alpha), _decimal(problem.beta)
    den = max(problem.ic._den, problem.forcing._den, da, db)
    reach = (math.isqrt(8 * _WORK_BUDGET + 1) - 1) // 2
    depth = min(problem.n_terms - 1, reach)
    return den, _width((2 * depth + 1) * a * (den // da))


def solve(problem: ProblemSpec) -> SolutionSeries:
    """Run the recursion to problem.n_terms components.

    Only the components are built; a partial sum is formed when asked for.
    Components do not depend on n_terms, so partial_sum(n) of this solution
    equals partial_sum(n) of a solve to depth n.  Any ArithmeticError or
    ValueError while building u_n is raised as a SolveError whose
    ``solution`` holds u_0..u_{n-1}: what a solve to depth n returns.  So is
    a step whose raw products would take the solve past ``_WORK_BUDGET``.
    """
    alpha, beta = problem.alpha, problem.beta
    components: list[FracSeries] = []
    derivs: list[FracSeries] = []
    work = 0
    frame = _solve_frame(problem)
    try:
        u0 = (problem.ic, rl_integral(problem.forcing, alpha, Axis.Y))
        components.append(sum_series(u0, frame))
        for n in range(problem.n_terms - 1):
            # differentiate lazily: u_{N-1} itself is never differentiated
            derivs.append(caputo_deriv(components[n], beta, Axis.X))
            pairs = tuple(zip(components, reversed(derivs)))
            work += sum(max(1, len(u) * len(d)) for u, d in pairs)
            if work > _WORK_BUDGET:
                raise ArithmeticError(
                    f"would take the solve to {work} raw products, "
                    f"past its budget of {_WORK_BUDGET}"
                )
            components.append(-rl_integral(sum_of_products(pairs, frame), alpha, Axis.Y))
    except (ArithmeticError, ValueError) as exc:
        raise SolveError(str(exc), SolutionSeries(tuple(components))) from exc
    return SolutionSeries(tuple(components))
