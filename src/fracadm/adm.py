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

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .gammafn import GammaPoleError
from .series import (
    DEFAULT_TERM_CAP,
    Axis,
    FracSeries,
    NonIntegrableTermError,
    TermCapError,
    caputo_deriv,
    rl_integral,
    sum_of_products,
    sum_series,
)

__all__ = [
    "ProblemSpec",
    "SolutionSeries",
    "SolveError",
    "adomian_polynomial",
    "solve",
    "residual",
]


class SolveError(ArithmeticError):
    """Numeric failure during the recursion; carries the offending depth.

    ``solution`` holds the components u_0..u_{depth-1} finished before the
    failure (a SolutionSeries whose problem has n_terms = depth), or None
    when u_0 itself failed.
    """

    def __init__(
        self, depth: int, message: str, solution: SolutionSeries | None = None
    ):
        self.depth = depth
        self.solution = solution
        super().__init__(f"component u_{depth}: {message}")


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


class SolutionSeries(namedtuple("SolutionSeries", "problem components")):
    """Solver output: components u_0..u_{N-1}; partial sums are formed on request.

    ``problem`` is the ProblemSpec; ``components`` a tuple of FracSeries.
    """

    __slots__ = ()

    def partial_sum(self, n: int) -> FracSeries:
        """Phi_n = u_0 + ... + u_{n-1} for 1 <= n <= n_terms.

        One normalization over the raw terms of u_0..u_{n-1}, so each merged
        coefficient is one correctly rounded fsum.  Not cached: each call
        normalizes again.  A coefficient that overflows raises SolveError
        naming u_{n-1}, the last component it adds.
        """
        if not 1 <= n <= len(self.components):
            raise IndexError(
                f"partial sum index {n} outside 1..{len(self.components)}"
            )
        try:
            return sum_series(self.components[:n])
        except OverflowError as exc:
            raise SolveError(n - 1, str(exc)) from exc


def _convolution(
    components: Sequence[FracSeries],
    derivs: Sequence[FracSeries],
    n: int,
    term_cap: int,
) -> FracSeries:
    """sum_{i=0}^{n} u_i * derivs[n-i], with derivs[j] = D_x^beta u_j."""
    return sum_of_products(
        ((components[i], derivs[n - i]) for i in range(n + 1)), term_cap
    )


def adomian_polynomial(
    components: Sequence[FracSeries],
    n: int,
    beta: float,
    term_cap: int = DEFAULT_TERM_CAP,
) -> FracSeries:
    """A_n for the bilinear nonlinearity: sum_{i+j=n} u_i * D_x^beta u_j."""
    if n < 0:
        raise ValueError(f"polynomial index must be >= 0, got {n!r}")
    if len(components) < n + 1:
        raise ValueError(
            f"A_{n} needs {n + 1} components, only {len(components)} given"
        )
    derivs = [caputo_deriv(u, beta, Axis.X) for u in components[: n + 1]]
    return _convolution(components, derivs, n, term_cap)


# OverflowError: math.fsum overflowing while merging a cluster.
_RECURSION_ERRORS = (GammaPoleError, TermCapError, NonIntegrableTermError, OverflowError)


def solve(problem: ProblemSpec, term_cap: int = DEFAULT_TERM_CAP) -> SolutionSeries:
    """Run the recursion to problem.n_terms components.

    Only the components are built; a partial sum is formed when asked for.
    Components do not depend on n_terms, so partial_sum(n) of this solution
    equals partial_sum(n) of a solve to depth n.  On failure at u_n the
    SolveError carries u_0..u_{n-1} as its ``solution``.
    """
    alpha, beta = problem.alpha, problem.beta
    try:
        u0 = problem.ic + rl_integral(problem.forcing, alpha, Axis.Y)
    except _RECURSION_ERRORS as exc:
        raise SolveError(0, str(exc)) from exc
    components = [u0]
    derivs: list[FracSeries] = []
    for n in range(problem.n_terms - 1):
        try:
            # differentiate lazily: u_{N-1} itself is never differentiated
            derivs.append(caputo_deriv(components[n], beta, Axis.X))
            a_n = _convolution(components, derivs, n, term_cap)
            nxt = -rl_integral(a_n, alpha, Axis.Y)
        except _RECURSION_ERRORS as exc:
            truncated = ProblemSpec(
                problem.alpha, problem.beta, problem.ic, problem.forcing, n + 1
            )
            done = SolutionSeries(truncated, tuple(components))
            raise SolveError(n + 1, str(exc), done) from exc
        components.append(nxt)
    return SolutionSeries(problem, tuple(components))


def residual(
    problem: ProblemSpec,
    s: FracSeries,
    points: Iterable[tuple[float, float]],
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """Max |D_y^alpha s + s * D_x^beta s - g| over the given points."""
    lhs = (
        caputo_deriv(s, problem.alpha, Axis.Y)
        + s.mul(caputo_deriv(s, problem.beta, Axis.X), term_cap)
        - problem.forcing
    )
    return max(abs(lhs.evaluate(x, y)) for x, y in points)
